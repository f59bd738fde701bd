//! `Sim` — the unified protocol-run API.
//!
//! Every distributed algorithm in this crate (GHS, EOPT, Co-NNT, BFS
//! flood) used to ship its own family of `run_*` entrypoints whose
//! signatures drifted apart as knobs accumulated (energy model,
//! contention layer, now trace sinks). `Sim` replaces them with one
//! builder:
//!
//! ```
//! use emst_core::{Protocol, Sim};
//! use emst_geom::{trial_rng, uniform_points};
//! use emst_radio::MetricsSink;
//!
//! let pts = uniform_points(120, &mut trial_rng(1, 0));
//! let mut metrics = MetricsSink::new();
//! let out = Sim::new(&pts)
//!     .sink(&mut metrics)
//!     .run(Protocol::Eopt(Default::default()));
//! assert!(out.tree.is_valid());
//! // The metrics ledger reproduces the run total exactly (same
//! // accumulation order), not merely within a tolerance.
//! assert_eq!(metrics.total_energy(), out.stats.energy);
//! assert_eq!(metrics.total_messages(), out.stats.messages);
//! ```
//!
//! The four protocols keep their protocol-specific read-outs in
//! [`Detail`]; everything any experiment compares across protocols
//! (tree, stats, surviving fragment count) lives directly on
//! [`RunOutput`].

use crate::eopt::EoptConfig;
use crate::exec::ExecEnv;
use crate::ghs::GhsVariant;
use crate::nnt::RankScheme;
use crate::repair::{RepairPolicy, RepairStats};
use emst_geom::{nnt_probe_radius, Point};
use emst_graph::SpanningTree;
use emst_radio::{
    ContentionConfig, EnergyConfig, EngineError, FaultPlan, FaultStats, Membership, RunStats,
    StageMark, TraceSink,
};

/// Why a protocol run aborted instead of producing a (possibly partial)
/// forest. Carried by [`RunOutcome::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The slotted-ALOHA layer hit its per-round slot cap with
    /// transmissions still undelivered (§VIII livelock guard).
    ContentionOverflow {
        /// Transmissions whose receiver set was still non-empty.
        unresolved: usize,
        /// The slot cap that was hit.
        slots: u32,
    },
    /// The protocol failed to quiesce within its round budget on a run
    /// where that indicates a logic error (clean reactive runs only;
    /// faulty runs tolerate starvation as a degraded partial result).
    RoundLimit {
        /// The budget that ran out.
        max_rounds: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ContentionOverflow { unresolved, slots } => write!(
                f,
                "contention livelock: {unresolved} transmissions unresolved after {slots} slots"
            ),
            RunError::RoundLimit { max_rounds } => {
                write!(f, "protocol did not quiesce within {max_rounds} rounds")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Contention(c) => RunError::ContentionOverflow {
                unresolved: c.unresolved,
                slots: c.slots,
            },
            EngineError::RoundLimit(r) => RunError::RoundLimit {
                max_rounds: r.max_rounds,
            },
        }
    }
}

/// A malformed [`Sim`] configuration, detected before anything executes.
///
/// [`Sim::run`]/[`Sim::try_run`] keep their historical panic behaviour on
/// these — inside one experiment binary a bad configuration is a
/// programming error and the backtrace is the feature. Long-lived callers
/// (the trial service) use [`Sim::try_run_checked`], which returns them
/// as values instead: a malformed request must never take the process
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A radius-bound protocol ([`Protocol::needs_radius`]: GHS, BFS, the
    /// elections) ran without [`Sim::radius`].
    MissingRadius {
        /// The registry name of the protocol that needed the radius.
        protocol: &'static str,
    },
    /// [`Protocol::Bfs`]'s root is outside the point set.
    RootOutOfRange {
        /// The requested root.
        root: usize,
        /// Number of nodes.
        n: usize,
    },
    /// The contention layer was combined with an orchestrated protocol
    /// (GHS/EOPT), whose schedules assume the collision-free RBN model.
    ContentionWithOrchestrated {
        /// Which orchestrated protocol was requested.
        protocol: &'static str,
    },
    /// The contention layer was combined with fault injection; fault
    /// injection composes with the collision-free engine only.
    ContentionWithFaults,
    /// The energy configuration carries a negative or non-finite cost
    /// (`rx` or `idle_per_round`). Formerly an `assert!` inside
    /// `EnergyConfig::extended`; surfaced as a value so a service can
    /// answer 422 instead of tripping a panic guard.
    NegativeEnergy {
        /// Which field was malformed (`"rx"` or `"idle_per_round"`).
        field: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MissingRadius { protocol } => {
                write!(f, "{protocol} requires Sim::radius")
            }
            ConfigError::RootOutOfRange { root, n } => {
                write!(f, "root out of range: {root} with n = {n}")
            }
            ConfigError::ContentionWithOrchestrated { protocol } => write!(
                f,
                "{protocol} is orchestrated over the collision-free RBN model; \
                 the contention layer applies to reactive protocols only"
            ),
            ConfigError::ContentionWithFaults => {
                write!(
                    f,
                    "fault injection composes with the collision-free engine only"
                )
            }
            ConfigError::NegativeEnergy { field } => {
                write!(f, "energy config: {field} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which algorithm to run. Radius semantics differ by protocol:
/// GHS and BFS operate at the radius set with [`Sim::radius`]; EOPT and
/// Co-NNT derive their own radii (`r₁`/`r₂`, probe ladder) from `n`.
#[derive(Debug, Clone, Copy)]
pub enum Protocol {
    /// GHS (original or modified) at the configured radius.
    Ghs(GhsVariant),
    /// The paper's two-step energy-optimal algorithm (§V).
    Eopt(EoptConfig),
    /// Coordinate-aware nearest-neighbour tree (§VI).
    Nnt(RankScheme),
    /// Flooding BFS tree rooted at `root`, at the configured radius.
    Bfs {
        /// The flood origin.
        root: usize,
    },
    /// Leader election by max-id flooding at the configured radius (§IV).
    ElectionFlood,
    /// Leader election along a BFS spanning tree at the configured radius:
    /// flood, convergecast the maximum id, broadcast the winner back down
    /// (`3n − 2` messages).
    ElectionTree,
}

impl Protocol {
    /// One protocol per registry name, in [`Protocol::NAMES`] order: BFS
    /// rooted at node 0, EOPT at the paper's §VII defaults.
    const REGISTRY: [Protocol; 10] = [
        Protocol::Ghs(GhsVariant::Original),
        Protocol::Ghs(GhsVariant::Modified),
        Protocol::Ghs(GhsVariant::LowAwake),
        Protocol::Eopt(EoptConfig::PAPER),
        Protocol::Nnt(RankScheme::Diagonal),
        Protocol::Nnt(RankScheme::XOrder),
        Protocol::Nnt(RankScheme::NodeId),
        Protocol::Bfs { root: 0 },
        Protocol::ElectionFlood,
        Protocol::ElectionTree,
    ];

    /// Every registry name, in canonical order — the spellings the trial
    /// service accepts and every BENCH document records.
    pub const NAMES: [&'static str; 10] = {
        let mut names = [""; 10];
        let mut i = 0;
        while i < names.len() {
            names[i] = Protocol::REGISTRY[i].name();
            i += 1;
        }
        names
    };

    /// The protocol's registry name (EOPT's configuration and BFS's root
    /// are parameters, not part of the name).
    pub const fn name(&self) -> &'static str {
        match self {
            Protocol::Ghs(GhsVariant::Original) => "ghs_original",
            Protocol::Ghs(GhsVariant::Modified) => "ghs_modified",
            Protocol::Ghs(GhsVariant::LowAwake) => "ghs_lowawake",
            Protocol::Eopt(_) => "eopt",
            Protocol::Nnt(RankScheme::Diagonal) => "co_nnt",
            Protocol::Nnt(RankScheme::XOrder) => "nnt_xorder",
            Protocol::Nnt(RankScheme::NodeId) => "nnt_id",
            Protocol::Bfs { .. } => "bfs",
            Protocol::ElectionFlood => "election_flood",
            Protocol::ElectionTree => "election_tree",
        }
    }

    /// Looks a protocol up by registry name; `root` is the BFS flood
    /// origin (ignored by every other protocol). EOPT comes with the
    /// paper's defaults.
    pub fn from_name(name: &str, root: usize) -> Option<Protocol> {
        let mut protocol = *Protocol::REGISTRY.iter().find(|p| p.name() == name)?;
        if let Protocol::Bfs { root: r } = &mut protocol {
            *r = root;
        }
        Some(protocol)
    }

    /// Whether the protocol runs at the radius set with [`Sim::radius`]
    /// (GHS, BFS, the elections) rather than deriving its own (EOPT,
    /// Co-NNT).
    pub const fn needs_radius(&self) -> bool {
        !matches!(self, Protocol::Eopt(_) | Protocol::Nnt(_))
    }
}

/// Protocol-specific read-outs of a [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detail {
    /// GHS extras.
    Ghs(GhsDetail),
    /// EOPT extras.
    Eopt(EoptDetail),
    /// Co-NNT extras.
    Nnt(NntDetail),
    /// BFS extras.
    Bfs(BfsDetail),
    /// Leader-election extras.
    Election(ElectionDetail),
}

/// GHS-specific outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhsDetail {
    /// Borůvka phases executed.
    pub phases: usize,
}

/// EOPT-specific outputs. The per-step energy/message attribution is
/// derived from the stage-runtime deltas (everything recorded under the
/// `eopt1` stage scope is step 1; `eopt2` and `eopt2/recover` are step 2),
/// not from ledger prefix matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EoptDetail {
    /// GHS phases executed in step 1.
    pub phases_step1: usize,
    /// GHS phases executed in step 2 (excluding any recovery pass).
    pub phases_step2: usize,
    /// Fragments remaining after step 1.
    pub fragments_after_step1: usize,
    /// Size of the largest fragment after step 1.
    pub largest_fragment: usize,
    /// Fragments that crossed the giant threshold.
    pub giants_declared: usize,
    /// Whether the beyond-paper recovery pass had to run.
    pub recovery_used: bool,
    /// Energy spent by the percolation-regime step (discover + phases +
    /// size classification).
    pub energy_step1: f64,
    /// Energy spent by the connectivity-regime step (including recovery).
    pub energy_step2: f64,
    /// Messages sent by step 1.
    pub messages_step1: u64,
    /// Messages sent by step 2 (including recovery).
    pub messages_step2: u64,
}

/// Co-NNT-specific outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NntDetail {
    /// Nodes that exhausted all probe phases without connecting.
    pub unconnected: usize,
    /// Maximum probe phases used by any node.
    pub max_phases_used: u32,
}

/// BFS-specific outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsDetail {
    /// Nodes reached from the root (including the root).
    pub reached: usize,
}

/// Leader-election outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionDetail {
    /// The elected leader (the maximum id of the root component).
    pub leader: usize,
    /// Whether every node agreed on that leader.
    pub agreed: bool,
}

impl Detail {
    /// The GHS read-out, if this was a GHS run.
    pub fn as_ghs(&self) -> Option<&GhsDetail> {
        match self {
            Detail::Ghs(d) => Some(d),
            _ => None,
        }
    }

    /// The EOPT read-out, if this was an EOPT run.
    pub fn as_eopt(&self) -> Option<&EoptDetail> {
        match self {
            Detail::Eopt(d) => Some(d),
            _ => None,
        }
    }

    /// The Co-NNT read-out, if this was a Co-NNT run.
    pub fn as_nnt(&self) -> Option<&NntDetail> {
        match self {
            Detail::Nnt(d) => Some(d),
            _ => None,
        }
    }

    /// The BFS read-out, if this was a BFS run.
    pub fn as_bfs(&self) -> Option<&BfsDetail> {
        match self {
            Detail::Bfs(d) => Some(d),
            _ => None,
        }
    }

    /// The election read-out, if this was a leader-election run.
    pub fn as_election(&self) -> Option<&ElectionDetail> {
        match self {
            Detail::Election(d) => Some(d),
            _ => None,
        }
    }
}

/// Uniform result of any protocol run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The constructed forest (a spanning tree iff `fragments == 1`).
    pub tree: SpanningTree,
    /// Aggregate energy/messages/rounds plus the per-kind ledger.
    pub stats: RunStats,
    /// Connected components of the output forest (`n − |edges|`); `1`
    /// means the tree spans.
    pub fragments: usize,
    /// Per-stage resource deltas in execution order (one [`StageMark`]
    /// per protocol stage); they telescope to `stats` exactly.
    pub stages: Vec<StageMark>,
    /// Protocol-specific extras.
    pub detail: Detail,
}

impl RunOutput {
    /// Awake-round read-outs (total + max-per-node), present when the
    /// run tracked an awake schedule ([`Sim::awake`] or a low-awake
    /// protocol).
    pub fn awake(&self) -> Option<emst_radio::AwakeStats> {
        self.stats.awake
    }

    fn build(tree: SpanningTree, stats: RunStats, stages: Vec<StageMark>, detail: Detail) -> Self {
        let fragments = tree.n().saturating_sub(tree.edges().len());
        RunOutput {
            tree,
            stats,
            fragments,
            stages,
            detail,
        }
    }
}

/// Result of a fallible protocol run ([`Sim::try_run`]).
///
/// Without a fault plan every run is [`RunOutcome::Complete`] (or panics
/// on a genuine logic error, exactly as before). With faults injected the
/// protocol may still finish a spanning forest (`Complete`), finish with
/// visible damage — lost messages that left the forest fragmented or
/// exhausted a retry budget (`Degraded`) — or abort with a typed error
/// (`Failed`). With [`Sim::repair`] enabled, a would-be-degraded tree
/// build whose recovery pass reconnects every surviving node lands one
/// rung higher, at `Repaired`.
///
/// The variants form a quality lattice: `Complete` > `Repaired` >
/// `Degraded` > `Failed`.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished and the fault layer left no mark on the result.
    Complete(RunOutput),
    /// The run degraded, but the repair stage reconnected the forest: it
    /// spans every node still alive when repair started. All repair
    /// traffic is charged to `output` (ledger, stats, `repair/*` stages).
    Repaired {
        /// The recovered result.
        output: RunOutput,
        /// What the repair stage did to get there.
        repair: RepairStats,
    },
    /// The run finished, but faults were visible: at least one message
    /// timed out, or drops left the forest with more than one fragment
    /// (and any attempted repair could not fix it).
    Degraded {
        /// The (possibly partial) result.
        output: RunOutput,
        /// Drop/retry/timeout counters for the whole run.
        faults: FaultStats,
    },
    /// The run aborted; no forest was produced.
    Failed {
        /// Why it aborted.
        error: RunError,
        /// Fault counters observed up to the failure.
        faults: FaultStats,
    },
}

impl RunOutcome {
    /// The produced output, if the run finished (complete, repaired or
    /// degraded).
    pub fn output(&self) -> Option<&RunOutput> {
        match self {
            RunOutcome::Complete(o)
            | RunOutcome::Repaired { output: o, .. }
            | RunOutcome::Degraded { output: o, .. } => Some(o),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// Consumes the outcome, yielding the output if the run finished.
    pub fn into_output(self) -> Option<RunOutput> {
        match self {
            RunOutcome::Complete(o)
            | RunOutcome::Repaired { output: o, .. }
            | RunOutcome::Degraded { output: o, .. } => Some(o),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// Fault counters for the run (zero for a clean [`Complete`]). For a
    /// repaired run these cover the whole run, original stages and repair
    /// stages alike.
    ///
    /// [`Complete`]: RunOutcome::Complete
    pub fn faults(&self) -> FaultStats {
        match self {
            RunOutcome::Complete(o) | RunOutcome::Repaired { output: o, .. } => o.stats.faults,
            RunOutcome::Degraded { faults, .. } | RunOutcome::Failed { faults, .. } => *faults,
        }
    }

    /// Whether the run finished with no visible fault damage.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete(_))
    }

    /// Whether the recovery runtime upgraded this run.
    pub fn is_repaired(&self) -> bool {
        matches!(self, RunOutcome::Repaired { .. })
    }

    /// The repair read-outs, if the recovery runtime upgraded this run.
    pub fn repair(&self) -> Option<&RepairStats> {
        match self {
            RunOutcome::Repaired { repair, .. } => Some(repair),
            _ => None,
        }
    }

    /// The abort reason, if the run failed.
    pub fn error(&self) -> Option<RunError> {
        match self {
            RunOutcome::Failed { error, .. } => Some(*error),
            _ => None,
        }
    }
}

/// Builder for a single protocol run over a fixed point set.
///
/// Defaults: paper energy model (`rx = idle = 0`), no contention layer,
/// no trace sink. `radius` is mandatory for the protocols whose
/// [`Protocol::needs_radius`] holds and ignored by the ones that derive
/// their own radii ([`Protocol::Eopt`], [`Protocol::Nnt`]).
pub struct Sim<'a> {
    points: &'a [Point],
    /// Shared-build source for repeated runs (see [`Sim::from_instance`]).
    instance: Option<&'a crate::Instance>,
    radius: Option<f64>,
    energy: EnergyConfig,
    contention: Option<ContentionConfig>,
    faults: Option<FaultPlan>,
    members: Option<Membership>,
    repair: Option<RepairPolicy>,
    /// Whether to track awake rounds (see [`Sim::awake`]).
    awake: bool,
    /// Worker-thread count for shardable stages (see [`Sim::shards`]).
    shards: usize,
    sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> Sim<'a> {
    /// Starts a run description over `points`.
    pub fn new(points: &'a [Point]) -> Self {
        Sim {
            points,
            instance: None,
            radius: None,
            energy: EnergyConfig::paper(),
            contention: None,
            faults: None,
            members: None,
            repair: None,
            awake: false,
            shards: 1,
            sink: None,
        }
    }

    /// Starts a run description over a reusable [`crate::Instance`]: the
    /// run fetches its rows from the instance's row cache instead of a
    /// cache of its own, so repeated runs over one instance build each
    /// row set once. A run fetches rows only at the radii it caches
    /// (none for Co-NNT), on first use, so the two entry points ask for
    /// the same rows in the same order. Results are bit-identical to
    /// [`Sim::new`] over the same points: the cache keys rows by the
    /// run's grid radius, so they are the rows the run's own cache would
    /// have made.
    pub fn from_instance(instance: &'a crate::Instance) -> Self {
        let mut sim = Sim::new(instance.points());
        sim.instance = Some(instance);
        sim
    }

    /// Sets the worker-thread count for stages that partition per-round
    /// node work across threads (the GHS MOE search). Purely a wall-clock
    /// knob: shard results are reduced in canonical order, so ledgers,
    /// traces and stage marks are bit-identical for any value (pinned by
    /// `tests/shard_identity.rs`). Clamped to at least 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the operating radius (required for GHS and BFS).
    pub fn radius(mut self, r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "radius must be positive");
        self.radius = Some(r);
        self
    }

    /// Sets the energy accounting model (default: [`EnergyConfig::paper`]).
    pub fn energy(mut self, cfg: EnergyConfig) -> Self {
        self.energy = cfg;
        self
    }

    /// Enables the slotted-ALOHA contention layer (§VIII). Only the
    /// reactive protocols (Co-NNT, BFS, the elections) model contention;
    /// [`Sim::run`] panics if this is combined with GHS or EOPT, whose
    /// orchestrated schedules assume the paper's collision-free RBN
    /// abstraction.
    pub fn contention(mut self, cfg: ContentionConfig) -> Self {
        self.contention = Some(cfg);
        self
    }

    /// Injects a deterministic fault schedule (link drops, node crashes,
    /// sleep windows) into the run. A no-op plan ([`FaultPlan::is_noop`])
    /// is elided entirely, keeping the clean path bit-identical to a run
    /// that never called this. Composes with [`Sim::members`] and awake
    /// tracking on one availability timeline
    /// ([`emst_radio::Availability`]); mutually exclusive with
    /// [`Sim::contention`]: fault injection composes with the
    /// collision-free engine only.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_noop() { None } else { Some(plan) };
        self
    }

    /// Restricts the run to a live set: ids that are not live depart for
    /// the whole run — they never run, hear or idle-charge, and the tree
    /// builders degrade them to zero-cost singleton fragments. An
    /// all-live membership is elided entirely — exactly like a no-op
    /// [`FaultPlan`] — so static runs stay bit-identical to runs that
    /// never called this. Composes with [`Sim::with_faults`] and awake
    /// tracking for every protocol.
    pub fn members(mut self, members: Membership) -> Self {
        self.members = if members.is_all_live() {
            None
        } else {
            Some(members)
        };
        self
    }

    /// Enables awake-round tracking: the run counts awake node-rounds
    /// (total + max-per-node) on [`RunStats::awake`] with per-stage
    /// attribution on every [`StageMark`]. Charges and traces stay
    /// bit-identical to an untracked run except for the purely additive
    /// awake read-outs (pinned by `tests/awake_layer.rs`); `false` (the
    /// default) is fully elided and every awake read-out is `None`.
    /// Low-awake protocols ([`GhsVariant::LowAwake`]) track themselves,
    /// so this knob is only needed to measure always-awake protocols.
    /// Under a fault plan, crashed and adversarially asleep nodes count
    /// as awake, exactly as they draw idle energy.
    pub fn awake(mut self, track: bool) -> Self {
        self.awake = track;
        self
    }

    /// Enables the recovery runtime for the tree builders (GHS, EOPT):
    /// a fault-injected run that would classify `Degraded` with its
    /// surviving nodes split across fragments gets a repair stage —
    /// salvaged forest, targeted modified-GHS reconnection, escalating
    /// retry budgets per `policy` — and on success lands at
    /// [`RunOutcome::Repaired`]. Ignored by the reactive protocols and
    /// the elections (they build no salvageable forest), and fully
    /// elided on clean runs: without visible fault damage the run stays
    /// bit-identical to one that never called this.
    pub fn repair(mut self, policy: RepairPolicy) -> Self {
        self.repair = Some(policy);
        self
    }

    /// Attaches a trace sink that receives every structured event of the
    /// run (round boundaries, per-message energy, phase transitions,
    /// fragment merges). Untraced runs pay no observation cost.
    pub fn sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Executes `protocol` and returns the uniform [`RunOutput`].
    ///
    /// Degraded fault-injected runs still return their (possibly
    /// partial) output; use [`Sim::try_run`] to distinguish them.
    ///
    /// # Panics
    ///
    /// If GHS/BFS run without a radius, if BFS's root is out of range,
    /// if a contention layer is combined with an orchestrated protocol
    /// (GHS/EOPT) or with fault injection, or if the run aborts with a
    /// [`RunError`].
    pub fn run(self, protocol: Protocol) -> RunOutput {
        match self.run_checked(protocol) {
            Ok(o) => o,
            Err(error) => panic!("{error}"),
        }
    }

    /// Executes `protocol`, returning the output or the typed abort
    /// reason instead of panicking. This is the entrypoint for parallel
    /// fan-out workers (bench sweeps), where one aborted trial must
    /// surface as a row-level error, not tear down the whole sweep.
    ///
    /// # Panics
    ///
    /// Only on configuration errors, like [`Sim::try_run`] — never on
    /// what happens during the run.
    pub fn run_checked(self, protocol: Protocol) -> Result<RunOutput, RunError> {
        match self.try_run(protocol) {
            RunOutcome::Complete(o)
            | RunOutcome::Repaired { output: o, .. }
            | RunOutcome::Degraded { output: o, .. } => Ok(o),
            RunOutcome::Failed { error, .. } => Err(error),
        }
    }

    /// Validates the configuration against `protocol` and computes the
    /// run-wide operating radius the shared network is built at.
    fn validate(&self, protocol: Protocol) -> Result<f64, ConfigError> {
        if let Err(field) = self.energy.check() {
            return Err(ConfigError::NegativeEnergy { field });
        }
        if self.contention.is_some() && self.faults.is_some() {
            return Err(ConfigError::ContentionWithFaults);
        }
        let n = self.points.len();
        match protocol {
            Protocol::Ghs(_) if self.contention.is_some() => {
                return Err(ConfigError::ContentionWithOrchestrated { protocol: "GHS" })
            }
            Protocol::Eopt(_) if self.contention.is_some() => {
                return Err(ConfigError::ContentionWithOrchestrated { protocol: "EOPT" })
            }
            Protocol::Bfs { root } if root >= n.max(1) => {
                return Err(ConfigError::RootOutOfRange { root, n })
            }
            _ => {}
        }
        if protocol.needs_radius() {
            return self.radius.ok_or(ConfigError::MissingRadius {
                protocol: protocol.name(),
            });
        }
        Ok(match protocol {
            Protocol::Eopt(cfg) => cfg.radius2(n.max(2)).max(cfg.radius1(n.max(2))),
            // Co-NNT: grid sized for the common early probe radius; larger
            // probes still resolve correctly (they scan more cells).
            _ => nnt_probe_radius(2, n.max(2)),
        })
    }

    /// Executes `protocol`, classifying the result instead of panicking
    /// on fault-induced damage: see [`RunOutcome`].
    ///
    /// # Panics
    ///
    /// Only on configuration errors (missing radius, out-of-range root,
    /// contention combined with GHS/EOPT or with fault injection) — never
    /// on what happens during the run. Use [`Sim::try_run_checked`] to
    /// get those as values too.
    pub fn try_run(self, protocol: Protocol) -> RunOutcome {
        match self.try_run_checked(protocol) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validates the configuration for `protocol` without running it —
    /// the same checks [`Sim::try_run_checked`] performs up front. Lets a
    /// server reject a bad configuration before committing to a streamed
    /// response.
    pub fn check(&self, protocol: Protocol) -> Result<(), ConfigError> {
        self.validate(protocol).map(|_| ())
    }

    /// Fully checked execution: configuration errors come back as
    /// [`ConfigError`] values and run-time damage is classified by the
    /// [`RunOutcome`] lattice, so this entrypoint never panics on any
    /// request content — the contract a long-lived server needs.
    pub fn try_run_checked(self, protocol: Protocol) -> Result<RunOutcome, ConfigError> {
        let max_radius = self.validate(protocol)?;
        let Sim {
            points,
            instance,
            radius: _,
            energy,
            contention,
            faults,
            members,
            repair,
            awake,
            shards,
            sink,
        } = self;
        let n = points.len();
        // The reactive protocols historically short-circuited empty
        // instances before touching the network; preserve that.
        if n == 0 {
            let detail = match protocol {
                Protocol::Nnt(_) => Some(Detail::Nnt(NntDetail {
                    unconnected: 0,
                    max_phases_used: 0,
                })),
                Protocol::Bfs { .. } => Some(Detail::Bfs(BfsDetail { reached: 0 })),
                Protocol::ElectionFlood | Protocol::ElectionTree => {
                    Some(Detail::Election(ElectionDetail {
                        leader: 0,
                        agreed: true,
                    }))
                }
                Protocol::Ghs(_) | Protocol::Eopt(_) => None,
            };
            if let Some(detail) = detail {
                return Ok(RunOutcome::Complete(RunOutput::build(
                    SpanningTree::new(0, Vec::new()),
                    RunStats::default(),
                    Vec::new(),
                    detail,
                )));
            }
        }
        let mut env = ExecEnv::new(
            points,
            max_radius,
            energy,
            faults.as_ref(),
            contention,
            sink,
        );
        env.set_shards(shards);
        if let Some(members) = &members {
            env.set_members(members);
        }
        // The low-awake variant measures itself by definition; plain
        // protocols report awake rounds only when asked.
        if awake || matches!(protocol, Protocol::Ghs(GhsVariant::LowAwake)) {
            env.track_awake();
        }
        if let Some(inst) = instance {
            env.lend_rows(inst.row_cache());
        }
        let result: Result<(SpanningTree, Detail), RunError> = match protocol {
            Protocol::Ghs(variant) => {
                let out = crate::ghs::drive(&mut env, max_radius, variant);
                Ok((out.tree, Detail::Ghs(GhsDetail { phases: out.phases })))
            }
            Protocol::Eopt(cfg) => {
                let out = crate::eopt::drive(&mut env, &cfg);
                Ok((out.tree, Detail::Eopt(out.detail)))
            }
            Protocol::Nnt(scheme) => crate::nnt::drive(&mut env, scheme).map(|out| {
                (
                    out.tree,
                    Detail::Nnt(NntDetail {
                        unconnected: out.unconnected,
                        max_phases_used: out.max_phases_used,
                    }),
                )
            }),
            Protocol::Bfs { root } => {
                crate::bfs_tree::drive(&mut env, max_radius, root).map(|out| {
                    (
                        out.tree,
                        Detail::Bfs(BfsDetail {
                            reached: out.reached,
                        }),
                    )
                })
            }
            Protocol::ElectionFlood => {
                crate::election::drive_flood(&mut env, max_radius).map(|out| {
                    (
                        out.tree,
                        Detail::Election(ElectionDetail {
                            leader: out.leader,
                            agreed: out.agreed,
                        }),
                    )
                })
            }
            Protocol::ElectionTree => {
                crate::election::drive_tree(&mut env, max_radius).map(|out| {
                    (
                        out.tree,
                        Detail::Election(ElectionDetail {
                            leader: out.leader,
                            agreed: out.agreed,
                        }),
                    )
                })
            }
        };
        let (mut tree, detail) = match result {
            Ok(parts) => parts,
            Err(error) => {
                return Ok(RunOutcome::Failed {
                    error,
                    faults: env.net().fault_stats(),
                })
            }
        };
        let faulted = env.faulted();
        // Recovery runtime: before the environment is torn down, a
        // would-be-degraded tree build whose survivors sit in more than
        // one fragment gets the repair stage. Clean runs never enter
        // this block, so enabling repair leaves them bit-identical.
        let mut repaired: Option<(RepairStats, bool)> = None;
        if faulted && matches!(protocol, Protocol::Ghs(_) | Protocol::Eopt(_)) {
            if let Some(policy) = &repair {
                let fs = env.net().fault_stats();
                let fragments = tree.n().saturating_sub(tree.edges().len());
                let would_degrade = fs.timeouts > 0 || (fragments > 1 && fs.drops > 0);
                if would_degrade && crate::repair::needs_repair(&env, &tree) {
                    debug_assert!(tree.validate_forest().is_ok());
                    let (fixed, stats, success) =
                        crate::repair::run_repair(&mut env, max_radius, &tree, policy);
                    tree = fixed;
                    repaired = Some((stats, success));
                }
            }
        }
        let (stats, stages) = env.finish();
        let output = RunOutput::build(tree, stats, stages, detail);
        let fs = output.stats.faults;
        if let Some((repair, success)) = repaired {
            // The repair stage only runs on runs that already classified
            // as degraded; success upgrades them, failure leaves the
            // (still improved) partial forest where it was.
            return Ok(if success {
                RunOutcome::Repaired { output, repair }
            } else {
                RunOutcome::Degraded { output, faults: fs }
            });
        }
        // Damage is visible when a message was abandoned outright, or when
        // drops coincide with structural damage: a fragmented forest for
        // the tree builders (lost links can sever fragments a clean run
        // would have merged), disagreement for the elections (the flood
        // builds no tree, so fragment count says nothing there).
        let structural = match &output.detail {
            Detail::Election(d) => !d.agreed,
            _ => output.fragments > 1,
        };
        let degraded = faulted && (fs.timeouts > 0 || (structural && fs.drops > 0));
        Ok(if degraded {
            RunOutcome::Degraded { output, faults: fs }
        } else {
            RunOutcome::Complete(output)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{paper_phase2_radius, trial_rng, uniform_points};
    use emst_radio::MetricsSink;

    const ALL_PROTOCOLS: [Protocol; 7] = [
        Protocol::Ghs(GhsVariant::Original),
        Protocol::Ghs(GhsVariant::Modified),
        Protocol::Eopt(EoptConfig {
            phase1_multiplier: emst_geom::PAPER_PHASE1_MULTIPLIER,
            phase2_multiplier: emst_geom::PAPER_PHASE2_MULTIPLIER,
            beta: 1.0,
        }),
        Protocol::Nnt(RankScheme::Diagonal),
        Protocol::Bfs { root: 0 },
        Protocol::ElectionFlood,
        Protocol::ElectionTree,
    ];

    #[test]
    fn repeated_runs_are_bit_identical() {
        let pts = uniform_points(200, &mut trial_rng(901, 0));
        let r = paper_phase2_radius(200);
        for p in ALL_PROTOCOLS {
            let a = Sim::new(&pts).radius(r).run(p);
            let b = Sim::new(&pts).radius(r).run(p);
            assert!(a.tree.same_edges(&b.tree), "{p:?}");
            assert_eq!(a.stats.energy, b.stats.energy, "{p:?}");
            assert_eq!(a.stats.messages, b.stats.messages, "{p:?}");
            assert_eq!(a.stats.rounds, b.stats.rounds, "{p:?}");
            assert_eq!(a.stages, b.stages, "{p:?}");
        }
    }

    #[test]
    fn stage_marks_telescope_to_run_totals() {
        let pts = uniform_points(180, &mut trial_rng(907, 0));
        let r = paper_phase2_radius(180);
        for p in ALL_PROTOCOLS {
            let out = Sim::new(&pts).radius(r).run(p);
            assert!(!out.stages.is_empty(), "{p:?}: no stages recorded");
            let msgs: u64 = out.stages.iter().map(|s| s.messages).sum();
            let rounds: u64 = out.stages.iter().map(|s| s.rounds).sum();
            let energy: f64 = out.stages.iter().map(|s| s.energy).sum();
            assert_eq!(msgs, out.stats.messages, "{p:?}");
            assert_eq!(rounds, out.stats.rounds, "{p:?}");
            assert!((energy - out.stats.energy).abs() < 1e-9, "{p:?}");
            for (i, s) in out.stages.iter().enumerate() {
                assert_eq!(s.index, i as u64, "{p:?}");
            }
        }
    }

    #[test]
    fn fragments_counts_components() {
        let pts = uniform_points(300, &mut trial_rng(902, 0));
        let out = Sim::new(&pts).run(Protocol::Eopt(EoptConfig::default()));
        assert_eq!(out.fragments, 300 - out.tree.edges().len());
        let detail = out.detail.as_eopt().unwrap();
        assert!(detail.phases_step1 > 0);
    }

    #[test]
    fn sink_observes_every_protocol() {
        let pts = uniform_points(150, &mut trial_rng(903, 0));
        let r = paper_phase2_radius(150);
        for p in ALL_PROTOCOLS {
            let mut m = MetricsSink::new();
            let out = Sim::new(&pts).radius(r).sink(&mut m).run(p);
            assert_eq!(m.total_energy(), out.stats.energy, "{p:?}");
            assert_eq!(m.total_messages(), out.stats.messages, "{p:?}");
            assert_eq!(m.rounds(), out.stats.rounds, "{p:?}");
        }
    }

    #[test]
    fn contended_reactive_runs_trace_retries() {
        use emst_radio::ContentionConfig;
        let pts = uniform_points(100, &mut trial_rng(904, 0));
        let mut m = MetricsSink::new();
        let out = Sim::new(&pts)
            .contention(ContentionConfig::default())
            .sink(&mut m)
            .run(Protocol::Nnt(RankScheme::Diagonal));
        // Contended deliveries go through charge_attempt; the sink must
        // still reproduce the ledger exactly.
        assert_eq!(m.total_energy(), out.stats.energy);
        assert_eq!(m.total_messages(), out.stats.messages);
    }

    #[test]
    fn config_conflicts_surface_as_typed_errors() {
        use emst_radio::{ContentionConfig, FaultPlan};
        let pts = uniform_points(30, &mut trial_rng(908, 0));
        let err = Sim::new(&pts)
            .try_run_checked(Protocol::Ghs(GhsVariant::Modified))
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::MissingRadius {
                protocol: "ghs_modified"
            }
        );

        let err = Sim::new(&pts)
            .radius(0.4)
            .contention(ContentionConfig::default())
            .try_run_checked(Protocol::Ghs(GhsVariant::Modified))
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ContentionWithOrchestrated { protocol: "GHS" }
        );

        let err = Sim::new(&pts)
            .contention(ContentionConfig::default())
            .with_faults(FaultPlan::none().drop_probability(0.1))
            .try_run_checked(Protocol::Nnt(RankScheme::Diagonal))
            .unwrap_err();
        assert_eq!(err, ConfigError::ContentionWithFaults);

        let err = Sim::new(&pts)
            .radius(0.4)
            .try_run_checked(Protocol::Bfs { root: 30 })
            .unwrap_err();
        assert_eq!(err, ConfigError::RootOutOfRange { root: 30, n: 30 });
    }

    #[test]
    fn every_registry_name_round_trips() {
        for name in Protocol::NAMES {
            let protocol = Protocol::from_name(name, 0).expect("registered name");
            assert_eq!(protocol.name(), name);
        }
        assert!(Protocol::from_name("kruskal", 0).is_none());
        assert!(matches!(
            Protocol::from_name("bfs", 7),
            Some(Protocol::Bfs { root: 7 })
        ));
    }

    #[test]
    fn missing_radius_is_raised_exactly_for_radius_bound_protocols() {
        let pts = uniform_points(30, &mut trial_rng(909, 0));
        for name in Protocol::NAMES {
            let protocol = Protocol::from_name(name, 0).unwrap();
            let err = Sim::new(&pts).check(protocol).err();
            if protocol.needs_radius() {
                assert_eq!(err, Some(ConfigError::MissingRadius { protocol: name }));
            } else {
                assert_eq!(err, None, "{name}");
            }
            assert_eq!(Sim::new(&pts).radius(0.4).check(protocol), Ok(()), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "requires Sim::radius")]
    fn ghs_without_radius_panics() {
        let pts = uniform_points(10, &mut trial_rng(905, 0));
        let _ = Sim::new(&pts).run(Protocol::Ghs(GhsVariant::Modified));
    }

    #[test]
    #[should_panic(expected = "contention layer applies to reactive protocols only")]
    fn contended_ghs_panics() {
        use emst_radio::ContentionConfig;
        let pts = uniform_points(10, &mut trial_rng(906, 0));
        let _ = Sim::new(&pts)
            .radius(0.5)
            .contention(ContentionConfig::default())
            .run(Protocol::Ghs(GhsVariant::Modified));
    }
}
