//! Structured observability for protocol runs.
//!
//! A [`TraceSink`] receives every observable event of a run — round
//! advances, individual transmissions with their power and energy, phase
//! transitions, fragment merges — as it happens, straight from the
//! [`RadioNet`](crate::RadioNet) charge points. Because events are emitted
//! where energy is charged, *any* protocol built on the network (the
//! stage-orchestrated GHS family as well as reactive [`SyncEngine`](crate::engine::SyncEngine)
//! protocols, contended or collision-free) is covered without
//! per-protocol instrumentation.
//!
//! Shipped sinks:
//!
//! * [`NullSink`] — does nothing. The default is better still: a network
//!   without a sink attached skips event construction entirely, so
//!   untraced runs pay nothing.
//! * [`Tally`] — the run's message and energy totals alone, summed in
//!   event order: what a ledger-conservation check reads, at the cost of
//!   one addition per message.
//! * [`MetricsSink`] — in-memory aggregation: per-round × per-kind and
//!   per-phase energy/message tallies, per-node transmit budgets, and the
//!   maximum-power watermark. Its running totals reproduce
//!   [`RunStats`](crate::RunStats) totals *exactly* (bit-for-bit): it
//!   accumulates in the same order as the [`EnergyLedger`](crate::energy::EnergyLedger).
//! * [`JsonlSink`] / [`CsvSink`] — streaming event logs for offline
//!   analysis; byte-deterministic for a fixed seed.

use crate::energy::Tally;
use crate::fault::{FaultKind, FaultStats};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// One observable event of a protocol run.
///
/// `Message` is emitted once per transmission (a broadcast is one message
/// regardless of receiver count, matching §II's energy model); `Rounds`
/// once per clock advance; `Phase` and `Merge` when a protocol calls the
/// corresponding [`RadioNet`](crate::RadioNet) hook.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The round clock advanced from `from` to `to` (`to > from`).
    Rounds {
        /// Round before the advance.
        from: u64,
        /// Round after the advance.
        to: u64,
    },
    /// One transmission.
    Message {
        /// Round the message was sent in.
        round: u64,
        /// Protocol-chosen kind label (`"ghs/test"`, …).
        kind: &'static str,
        /// Sender.
        src: usize,
        /// Receiver for a unicast; `None` for a local broadcast.
        dst: Option<usize>,
        /// Transmission power as a radius: the unicast distance, or the
        /// broadcast radius.
        power: f64,
        /// Radiated energy `a·power^α`.
        energy: f64,
    },
    /// A protocol phase transition.
    Phase {
        /// Round at which the phase started.
        round: u64,
        /// Protocol scope (`"ghs"`, `"eopt1"`, `"eopt2"`, …).
        scope: &'static str,
        /// Phase index within the scope (e.g. the Borůvka phase number).
        index: u64,
        /// Stage label (`"discover"`, `"initiate"`, `"report"`, …).
        stage: &'static str,
    },
    /// A fragment merge: `absorbed` fragments coalesced into the fragment
    /// led by `leader`, which now has `size` members.
    Merge {
        /// Round of the merge.
        round: u64,
        /// Surviving fragment id (its leader node).
        leader: usize,
        /// Number of fragments absorbed (group size − 1).
        absorbed: usize,
        /// Member count of the merged fragment.
        size: usize,
    },
    /// A protocol stage completed. Carries the stage's identity and its
    /// resource *deltas* (energy/messages/rounds/faults consumed by that
    /// stage alone), as recorded by the stage runtime. Purely additive
    /// telemetry: stage events never alter the ledger or the clock, so a
    /// trace with its `stage` lines removed is byte-identical to one from
    /// a runtime that does not emit them.
    Stage(StageMark),
    /// A reliability-layer fault: a dropped delivery, a retransmission, or
    /// an abandoned message. Emitted only when a
    /// [`FaultPlan`](crate::FaultPlan) is active; fault-free traces are
    /// byte-identical to pre-reliability-layer traces.
    Fault {
        /// Round of the event.
        round: u64,
        /// Drop / retry / timeout.
        what: FaultKind,
        /// Message kind of the affected transmission.
        kind: &'static str,
        /// Sender.
        src: usize,
        /// Receiver for a unicast-shaped message; `None` for a broadcast
        /// or an aggregate event.
        dst: Option<usize>,
    },
}

/// Coarse classes of [`TraceEvent`], for stream filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// [`TraceEvent::Rounds`].
    Rounds,
    /// [`TraceEvent::Message`] — the high-volume class.
    Message,
    /// [`TraceEvent::Phase`].
    Phase,
    /// [`TraceEvent::Merge`].
    Merge,
    /// [`TraceEvent::Stage`].
    Stage,
    /// [`TraceEvent::Fault`].
    Fault,
}

impl EventClass {
    const fn bit(self) -> u8 {
        match self {
            EventClass::Rounds => 1 << 0,
            EventClass::Message => 1 << 1,
            EventClass::Phase => 1 << 2,
            EventClass::Merge => 1 << 3,
            EventClass::Stage => 1 << 4,
            EventClass::Fault => 1 << 5,
        }
    }
}

impl TraceEvent {
    /// This event's [`EventClass`].
    pub fn class(&self) -> EventClass {
        match self {
            TraceEvent::Rounds { .. } => EventClass::Rounds,
            TraceEvent::Message { .. } => EventClass::Message,
            TraceEvent::Phase { .. } => EventClass::Phase,
            TraceEvent::Merge { .. } => EventClass::Merge,
            TraceEvent::Stage(_) => EventClass::Stage,
            TraceEvent::Fault { .. } => EventClass::Fault,
        }
    }
}

/// A set of [`EventClass`]es, for [`FilterSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMask(u8);

impl ClassMask {
    /// Every event class.
    pub const ALL: ClassMask = ClassMask(0x3F);
    /// Nothing.
    pub const NONE: ClassMask = ClassMask(0);
    /// The per-run summary classes — everything except the high-volume
    /// per-transmission [`EventClass::Message`] stream. This is what a
    /// streamed service response ships by default: phase transitions,
    /// merges, stage deltas, clock advances and fault marks, at a volume
    /// proportional to protocol structure rather than message count.
    pub const SUMMARY: ClassMask = ClassMask(0x3F & !(1 << 1));

    /// The mask containing exactly `class`.
    pub const fn only(class: EventClass) -> ClassMask {
        ClassMask(class.bit())
    }

    /// This mask plus `class`.
    pub const fn with(self, class: EventClass) -> ClassMask {
        ClassMask(self.0 | class.bit())
    }

    /// Whether `class` is in the mask.
    pub const fn contains(self, class: EventClass) -> bool {
        self.0 & class.bit() != 0
    }
}

/// Forwards only the event classes in its mask to the wrapped sink.
///
/// The service's streaming responses use this to put a [`JsonlSink`]
/// directly on the response socket without paying per-transmission
/// serialisation for clients that only want the structural summary.
pub struct FilterSink<'s> {
    allow: ClassMask,
    inner: &'s mut dyn TraceSink,
}

impl<'s> FilterSink<'s> {
    /// Wraps `inner`, forwarding only classes in `allow`.
    pub fn new(allow: ClassMask, inner: &'s mut dyn TraceSink) -> Self {
        FilterSink { allow, inner }
    }
}

impl TraceSink for FilterSink<'_> {
    fn record(&mut self, event: &TraceEvent) {
        if self.allow.contains(event.class()) {
            self.inner.record(event);
        }
    }
}

/// Receiver of [`TraceEvent`]s.
///
/// Implementations must be cheap per call; the network invokes `record`
/// synchronously on every transmission.
pub trait TraceSink {
    /// Handles one event.
    fn record(&mut self, event: &TraceEvent);
}

/// A sink that discards everything. Equivalent to attaching no sink,
/// except the dynamic dispatch still happens — useful as a placeholder
/// where a `&mut dyn TraceSink` is structurally required.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Counts [`TraceEvent::Message`] events and sums their energy in event
/// order, which is charge order, so the totals equal
/// [`RunStats`](crate::RunStats)'s bit-for-bit, as
/// [`MetricsSink::total_energy`] and [`MetricsSink::total_messages`] do,
/// without that sink's per-kind, per-round and per-phase maps.
impl TraceSink for Tally {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Message { energy, .. } = *event {
            self.add(energy);
        }
    }
}

/// Key of one phase interval: scope, index and stage as reported by the
/// protocol's `Phase` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PhaseKey {
    /// Protocol scope (`"ghs"`, `"eopt1"`, …).
    pub scope: &'static str,
    /// Phase index within the scope.
    pub index: u64,
    /// Stage label.
    pub stage: &'static str,
}

impl PhaseKey {
    /// The implicit phase before any `Phase` event arrives.
    pub const SETUP: PhaseKey = PhaseKey {
        scope: "",
        index: 0,
        stage: "setup",
    };
}

/// One completed protocol stage with its resource deltas.
///
/// Produced by the stage runtime (`emst-core`'s `ExecEnv`) at every stage
/// boundary: the runtime snapshots the network counters before the stage
/// body runs and publishes the difference afterwards. Deltas telescope —
/// summing a run's marks recovers (up to float re-association) the run's
/// `RunStats` totals, and summing marks of one scope gives exact
/// per-stage attribution without ledger prefix matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageMark {
    /// Round at which the stage ended.
    pub round: u64,
    /// Protocol scope (`"ghs"`, `"eopt1"`, `"eopt2/recover"`, …) — also
    /// the message-kind prefix of everything the stage transmitted.
    pub scope: &'static str,
    /// Stage name (`"discover"`, `"merge"`, `"probe"`, …).
    pub name: &'static str,
    /// Position in the run's stage sequence (0-based).
    pub index: u64,
    /// Radiated energy consumed by this stage.
    pub energy: f64,
    /// Transmissions sent by this stage.
    pub messages: u64,
    /// Clock rounds elapsed during this stage.
    pub rounds: u64,
    /// Fault events (drops/retries/timeouts) observed during this stage.
    pub faults: FaultStats,
    /// Awake node-rounds accrued during this stage; `None` unless the
    /// run tracks an awake schedule (kept `None` for untracked runs so
    /// pre-awake trace consumers see byte-identical stage lines).
    pub awake: Option<u64>,
}

/// One recorded merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeMark {
    /// Round of the merge.
    pub round: u64,
    /// Surviving fragment id.
    pub leader: usize,
    /// Fragments absorbed.
    pub absorbed: usize,
    /// Resulting member count.
    pub size: usize,
}

/// In-memory aggregation sink.
///
/// Message energies are accumulated in event order, which is charge order,
/// so [`MetricsSink::total_energy`] equals
/// [`RunStats::energy`](crate::RunStats) bit-for-bit, and each per-kind
/// tally equals the corresponding [`EnergyLedger`](crate::energy::EnergyLedger)(crate::EnergyLedger)
/// entry bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    total: Tally,
    by_kind: BTreeMap<&'static str, Tally>,
    by_round_kind: BTreeMap<(u64, &'static str), Tally>,
    by_phase: BTreeMap<PhaseKey, Tally>,
    per_node: Vec<Tally>,
    max_power: f64,
    max_power_at: Option<(usize, u64)>,
    rounds: u64,
    current_phase: Option<PhaseKey>,
    phase_log: Vec<(u64, PhaseKey)>,
    merges: Vec<MergeMark>,
    stage_log: Vec<StageMark>,
    fault_drops: u64,
    fault_retries: u64,
    fault_timeouts: u64,
}

impl MetricsSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total radiated energy over all messages seen, accumulated in charge
    /// order (bitwise equal to the ledger's total).
    #[inline]
    pub fn total_energy(&self) -> f64 {
        self.total.energy
    }

    /// Total messages seen.
    #[inline]
    pub fn total_messages(&self) -> u64 {
        self.total.messages
    }

    /// Last round observed (message round or clock advance).
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Largest transmission power (radius) seen.
    #[inline]
    pub fn max_power(&self) -> f64 {
        self.max_power
    }

    /// `(node, round)` of the maximum-power transmission, if any message
    /// was seen.
    #[inline]
    pub fn max_power_at(&self) -> Option<(usize, u64)> {
        self.max_power_at
    }

    /// Per-kind tallies in sorted kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &Tally)> {
        self.by_kind.iter().map(|(k, v)| (*k, v))
    }

    /// Tally for one kind (zero if never seen).
    pub fn kind(&self, kind: &str) -> Tally {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// Per-`(round, kind)` tallies in sorted order — the round × kind
    /// histogram.
    pub fn round_kinds(&self) -> impl Iterator<Item = ((u64, &'static str), &Tally)> {
        self.by_round_kind.iter().map(|(k, v)| (*k, v))
    }

    /// Tally of everything sent in `round`.
    pub fn round_tally(&self, round: u64) -> Tally {
        let mut t = Tally::default();
        for (_, tt) in self.by_round_kinds_of(round) {
            t.messages += tt.messages;
            t.energy += tt.energy;
        }
        t
    }

    /// Per-kind tallies of one round.
    pub fn by_round_kinds_of(&self, round: u64) -> impl Iterator<Item = (&'static str, &Tally)> {
        self.by_round_kind
            .range((round, "")..(round + 1, ""))
            .map(|((_, k), v)| (*k, v))
    }

    /// Per-phase tallies (messages attributed to the most recent `Phase`
    /// event at send time; [`PhaseKey::SETUP`] before the first).
    pub fn phases(&self) -> impl Iterator<Item = (&PhaseKey, &Tally)> {
        self.by_phase.iter()
    }

    /// Chronological phase log as `(start round, key)` pairs.
    pub fn phase_log(&self) -> &[(u64, PhaseKey)] {
        &self.phase_log
    }

    /// Transmit tally of node `u` (zero if it never transmitted).
    pub fn node_tally(&self, u: usize) -> Tally {
        self.per_node.get(u).copied().unwrap_or_default()
    }

    /// Per-node transmit tallies, indexed by node id; may be shorter than
    /// `n` if high-id nodes never transmitted.
    pub fn node_tallies(&self) -> &[Tally] {
        &self.per_node
    }

    /// Largest per-node transmit energy (a lower bound on the battery any
    /// single node must bring).
    pub fn max_node_energy(&self) -> f64 {
        self.per_node.iter().map(|t| t.energy).fold(0.0, f64::max)
    }

    /// Recorded fragment merges in order.
    pub fn merges(&self) -> &[MergeMark] {
        &self.merges
    }

    /// Completed stages in execution order, with per-stage resource
    /// deltas (empty unless the run went through the stage runtime).
    pub fn stages(&self) -> &[StageMark] {
        &self.stage_log
    }

    /// Dropped deliveries observed (0 in fault-free runs).
    #[inline]
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Retransmissions observed (0 in fault-free runs).
    #[inline]
    pub fn fault_retries(&self) -> u64 {
        self.fault_retries
    }

    /// Abandoned messages observed (0 in fault-free runs).
    #[inline]
    pub fn fault_timeouts(&self) -> u64 {
        self.fault_timeouts
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Rounds { to, .. } => self.rounds = self.rounds.max(to),
            TraceEvent::Message {
                round,
                kind,
                src,
                power,
                energy,
                ..
            } => {
                self.total.messages += 1;
                self.total.energy += energy;
                let t = self.by_kind.entry(kind).or_default();
                t.messages += 1;
                t.energy += energy;
                let rt = self.by_round_kind.entry((round, kind)).or_default();
                rt.messages += 1;
                rt.energy += energy;
                let phase = self.current_phase.unwrap_or(PhaseKey::SETUP);
                let pt = self.by_phase.entry(phase).or_default();
                pt.messages += 1;
                pt.energy += energy;
                if src >= self.per_node.len() {
                    self.per_node.resize(src + 1, Tally::default());
                }
                self.per_node[src].messages += 1;
                self.per_node[src].energy += energy;
                if power > self.max_power {
                    self.max_power = power;
                    self.max_power_at = Some((src, round));
                }
                self.rounds = self.rounds.max(round);
            }
            TraceEvent::Phase {
                round,
                scope,
                index,
                stage,
            } => {
                let key = PhaseKey {
                    scope,
                    index,
                    stage,
                };
                self.current_phase = Some(key);
                self.phase_log.push((round, key));
            }
            TraceEvent::Merge {
                round,
                leader,
                absorbed,
                size,
            } => self.merges.push(MergeMark {
                round,
                leader,
                absorbed,
                size,
            }),
            TraceEvent::Stage(mark) => self.stage_log.push(mark),
            TraceEvent::Fault { what, .. } => match what {
                FaultKind::Drop => self.fault_drops += 1,
                FaultKind::Retry => self.fault_retries += 1,
                FaultKind::Timeout => self.fault_timeouts += 1,
            },
        }
    }
}

/// Streams events as JSON Lines: one compact object per event with a `"t"`
/// type tag. Field order and float formatting are fixed, so two runs with
/// the same seed produce byte-identical logs.
pub struct JsonlSink<W: Write> {
    w: W,
    error: Option<io::Error>,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a trace file.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, error: None }
    }

    /// Flushes and returns the writer, or the first write error, which
    /// `record` (infallible by trait) had to defer.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }

    fn try_record(&mut self, event: &TraceEvent) -> io::Result<()> {
        match *event {
            TraceEvent::Rounds { from, to } => {
                writeln!(self.w, r#"{{"t":"rounds","from":{from},"to":{to}}}"#)
            }
            TraceEvent::Message {
                round,
                kind,
                src,
                dst,
                power,
                energy,
            } => {
                // f64 Display is the shortest round-trip representation —
                // deterministic and lossless.
                match dst {
                    Some(d) => writeln!(
                        self.w,
                        r#"{{"t":"msg","round":{round},"kind":"{kind}","src":{src},"dst":{d},"power":{power},"energy":{energy}}}"#
                    ),
                    None => writeln!(
                        self.w,
                        r#"{{"t":"msg","round":{round},"kind":"{kind}","src":{src},"dst":null,"power":{power},"energy":{energy}}}"#
                    ),
                }
            }
            TraceEvent::Phase {
                round,
                scope,
                index,
                stage,
            } => writeln!(
                self.w,
                r#"{{"t":"phase","round":{round},"scope":"{scope}","index":{index},"stage":"{stage}"}}"#
            ),
            TraceEvent::Merge {
                round,
                leader,
                absorbed,
                size,
            } => writeln!(
                self.w,
                r#"{{"t":"merge","round":{round},"leader":{leader},"absorbed":{absorbed},"size":{size}}}"#
            ),
            TraceEvent::Stage(StageMark {
                round,
                scope,
                name,
                index,
                energy,
                messages,
                rounds,
                faults,
                awake,
            }) => {
                // The awake field is emitted only when the run tracks a
                // schedule: untracked runs keep their pre-awake stage
                // lines byte-identical (golden fixtures).
                let awake = match awake {
                    Some(a) => format!(r#","awake":{a}"#),
                    None => String::new(),
                };
                writeln!(
                    self.w,
                    r#"{{"t":"stage","round":{round},"scope":"{scope}","name":"{name}","index":{index},"energy":{energy},"messages":{messages},"rounds":{rounds},"drops":{},"retries":{},"timeouts":{}{awake}}}"#,
                    faults.drops, faults.retries, faults.timeouts
                )
            }
            TraceEvent::Fault {
                round,
                what,
                kind,
                src,
                dst,
            } => {
                let what = what.label();
                match dst {
                    Some(d) => writeln!(
                        self.w,
                        r#"{{"t":"fault","round":{round},"what":"{what}","kind":"{kind}","src":{src},"dst":{d}}}"#
                    ),
                    None => writeln!(
                        self.w,
                        r#"{{"t":"fault","round":{round},"what":"{what}","kind":"{kind}","src":{src},"dst":null}}"#
                    ),
                }
            }
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_record(event) {
            self.error = Some(e);
        }
    }
}

/// Streams events as CSV with a fixed header; inapplicable columns are
/// left empty. Like [`JsonlSink`], byte-deterministic per seed.
pub struct CsvSink<W: Write> {
    w: W,
    error: Option<io::Error>,
    wrote_header: bool,
}

impl CsvSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a trace file.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(CsvSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer. The header is written with the first event.
    pub fn new(w: W) -> Self {
        CsvSink {
            w,
            error: None,
            wrote_header: false,
        }
    }

    /// Flushes and returns the writer, or the first deferred write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }

    fn try_record(&mut self, event: &TraceEvent) -> io::Result<()> {
        if !self.wrote_header {
            self.wrote_header = true;
            writeln!(
                self.w,
                "event,round,kind,src,dst,power,energy,scope,index,stage,leader,absorbed,size"
            )?;
        }
        match *event {
            TraceEvent::Rounds { to, .. } => {
                writeln!(self.w, "rounds,{to},,,,,,,,,,,")
            }
            TraceEvent::Message {
                round,
                kind,
                src,
                dst,
                power,
                energy,
            } => {
                let dst = dst.map(|d| d.to_string()).unwrap_or_default();
                writeln!(
                    self.w,
                    "msg,{round},{kind},{src},{dst},{power},{energy},,,,,,"
                )
            }
            TraceEvent::Phase {
                round,
                scope,
                index,
                stage,
            } => writeln!(self.w, "phase,{round},,,,,,{scope},{index},{stage},,,"),
            TraceEvent::Merge {
                round,
                leader,
                absorbed,
                size,
            } => writeln!(self.w, "merge,{round},,,,,,,,,{leader},{absorbed},{size}"),
            TraceEvent::Stage(StageMark {
                round,
                scope,
                name,
                index,
                energy,
                messages,
                ..
            }) => {
                // Stage rows reuse the fixed 13-column header: the stage
                // name rides in `stage`, the message delta in `size`;
                // round/fault deltas are JSONL-only.
                writeln!(
                    self.w,
                    "stage,{round},,,,,{energy},{scope},{index},{name},,,{messages}"
                )
            }
            TraceEvent::Fault {
                round,
                what,
                kind,
                src,
                dst,
            } => {
                // Fault rows reuse the fixed 13-column header: the `event`
                // column carries the fault flavour (drop/retry/timeout).
                let dst = dst.map(|d| d.to_string()).unwrap_or_default();
                writeln!(
                    self.w,
                    "{},{round},{kind},{src},{dst},,,,,,,,",
                    what.label()
                )
            }
        }
    }
}

impl<W: Write> TraceSink for CsvSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_record(event) {
            self.error = Some(e);
        }
    }
}

/// Fans one event stream out to two sinks (compose for more).
pub struct TeeSink<'s> {
    a: &'s mut dyn TraceSink,
    b: &'s mut dyn TraceSink,
}

impl<'s> TeeSink<'s> {
    /// Duplicates events to `a` then `b`.
    pub fn new(a: &'s mut dyn TraceSink, b: &'s mut dyn TraceSink) -> Self {
        TeeSink { a, b }
    }
}

impl TraceSink for TeeSink<'_> {
    fn record(&mut self, event: &TraceEvent) {
        self.a.record(event);
        self.b.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(round: u64, kind: &'static str, src: usize, energy: f64) -> TraceEvent {
        TraceEvent::Message {
            round,
            kind,
            src,
            dst: None,
            power: energy.sqrt(),
            energy,
        }
    }

    #[test]
    fn metrics_aggregates_by_kind_round_node() {
        let mut m = MetricsSink::new();
        m.record(&msg(0, "a", 1, 1.0));
        m.record(&msg(0, "b", 2, 2.0));
        m.record(&TraceEvent::Rounds { from: 0, to: 3 });
        m.record(&msg(3, "a", 1, 4.0));
        assert_eq!(m.total_messages(), 3);
        assert!((m.total_energy() - 7.0).abs() < 1e-15);
        assert_eq!(m.kind("a").messages, 2);
        assert!((m.kind("a").energy - 5.0).abs() < 1e-15);
        assert_eq!(m.round_tally(0).messages, 2);
        assert_eq!(m.round_tally(3).messages, 1);
        assert_eq!(m.node_tally(1).messages, 2);
        assert_eq!(m.node_tally(7).messages, 0);
        assert!((m.max_power() - 2.0).abs() < 1e-15);
        assert_eq!(m.max_power_at(), Some((1, 3)));
        assert_eq!(m.rounds(), 3);
        assert!((m.max_node_energy() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn metrics_attributes_phases_in_event_order() {
        let mut m = MetricsSink::new();
        m.record(&msg(0, "x", 0, 1.0));
        m.record(&TraceEvent::Phase {
            round: 0,
            scope: "ghs",
            index: 1,
            stage: "initiate",
        });
        m.record(&msg(0, "x", 0, 2.0));
        m.record(&msg(1, "x", 0, 4.0));
        let phases: Vec<_> = m.phases().collect();
        assert_eq!(phases.len(), 2);
        assert_eq!(*phases[0].0, PhaseKey::SETUP);
        assert!((phases[0].1.energy - 1.0).abs() < 1e-15);
        assert_eq!(phases[1].0.scope, "ghs");
        assert!((phases[1].1.energy - 6.0).abs() < 1e-15);
        assert_eq!(m.phase_log().len(), 1);
    }

    #[test]
    fn metrics_records_merges() {
        let mut m = MetricsSink::new();
        m.record(&TraceEvent::Merge {
            round: 5,
            leader: 9,
            absorbed: 2,
            size: 7,
        });
        assert_eq!(
            m.merges(),
            &[MergeMark {
                round: 5,
                leader: 9,
                absorbed: 2,
                size: 7
            }]
        );
    }

    #[test]
    fn jsonl_lines_are_valid_and_deterministic() {
        let run = || {
            let mut sink = JsonlSink::new(Vec::new());
            sink.record(&TraceEvent::Rounds { from: 0, to: 2 });
            sink.record(&msg(2, "ghs/test", 4, 0.25));
            sink.record(&TraceEvent::Message {
                round: 2,
                kind: "ghs/connect",
                src: 1,
                dst: Some(3),
                power: 0.5,
                energy: 0.25,
            });
            sink.record(&TraceEvent::Phase {
                round: 2,
                scope: "ghs",
                index: 1,
                stage: "report",
            });
            sink.record(&TraceEvent::Merge {
                round: 2,
                leader: 3,
                absorbed: 1,
                size: 2,
            });
            sink.finish().unwrap()
        };
        let bytes = run();
        assert_eq!(bytes, run(), "same events must serialise identically");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], r#"{"t":"rounds","from":0,"to":2}"#);
        assert!(lines[1].contains(r#""kind":"ghs/test""#));
        assert!(lines[1].contains(r#""dst":null"#));
        assert!(lines[2].contains(r#""dst":3"#));
        assert!(lines[3].contains(r#""stage":"report""#));
        assert!(lines[4].contains(r#""leader":3"#));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_event() {
        let mut sink = CsvSink::new(Vec::new());
        sink.record(&msg(1, "k", 0, 1.0));
        sink.record(&TraceEvent::Merge {
            round: 1,
            leader: 0,
            absorbed: 1,
            size: 2,
        });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("event,round,kind"));
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
    }

    #[test]
    fn fault_events_flow_through_all_sinks() {
        let fault = |what| TraceEvent::Fault {
            round: 4,
            what,
            kind: "ghs/test",
            src: 2,
            dst: Some(5),
        };
        let mut m = MetricsSink::new();
        m.record(&fault(FaultKind::Drop));
        m.record(&fault(FaultKind::Drop));
        m.record(&fault(FaultKind::Retry));
        m.record(&fault(FaultKind::Timeout));
        assert_eq!(m.fault_drops(), 2);
        assert_eq!(m.fault_retries(), 1);
        assert_eq!(m.fault_timeouts(), 1);
        // Fault events carry no energy or message count.
        assert_eq!(m.total_messages(), 0);

        let mut j = JsonlSink::new(Vec::new());
        j.record(&fault(FaultKind::Drop));
        j.record(&TraceEvent::Fault {
            round: 9,
            what: FaultKind::Timeout,
            kind: "nnt/request",
            src: 0,
            dst: None,
        });
        let text = String::from_utf8(j.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"t":"fault","round":4,"what":"drop","kind":"ghs/test","src":2,"dst":5}"#
        );
        assert!(lines[1].contains(r#""what":"timeout""#));
        assert!(lines[1].contains(r#""dst":null"#));

        let mut c = CsvSink::new(Vec::new());
        c.record(&msg(1, "k", 0, 1.0));
        c.record(&fault(FaultKind::Retry));
        let text = String::from_utf8(c.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cols = lines[0].split(',').count();
        assert_eq!(lines[2].split(',').count(), cols, "ragged fault row");
        assert!(lines[2].starts_with("retry,4,ghs/test,2,5,"));
    }

    #[test]
    fn filter_sink_forwards_only_masked_classes() {
        let mut m = MetricsSink::new();
        {
            let mut f = FilterSink::new(ClassMask::SUMMARY, &mut m);
            f.record(&msg(0, "k", 0, 1.0)); // Message: filtered out
            f.record(&TraceEvent::Rounds { from: 0, to: 3 });
            f.record(&TraceEvent::Merge {
                round: 1,
                leader: 2,
                absorbed: 1,
                size: 2,
            });
        }
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.rounds(), 3);
        assert_eq!(m.merges().len(), 1);

        assert!(ClassMask::ALL.contains(EventClass::Message));
        assert!(!ClassMask::SUMMARY.contains(EventClass::Message));
        assert!(ClassMask::SUMMARY.contains(EventClass::Stage));
        assert!(!ClassMask::NONE.contains(EventClass::Rounds));
        let only = ClassMask::only(EventClass::Phase).with(EventClass::Fault);
        assert!(only.contains(EventClass::Phase) && only.contains(EventClass::Fault));
        assert!(!only.contains(EventClass::Merge));
        assert_eq!(msg(0, "k", 0, 1.0).class(), EventClass::Message);
    }

    #[test]
    fn tee_duplicates_events() {
        let mut a = MetricsSink::new();
        let mut b = MetricsSink::new();
        {
            let mut tee = TeeSink::new(&mut a, &mut b);
            tee.record(&msg(0, "k", 0, 1.0));
        }
        assert_eq!(a.total_messages(), 1);
        assert_eq!(b.total_messages(), 1);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.record(&msg(0, "k", 0, 1.0));
        s.record(&TraceEvent::Rounds { from: 0, to: 1 });
    }
}
