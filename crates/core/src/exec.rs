//! The stage runtime: one execution environment for every protocol.
//!
//! Before this module existed, each protocol driver hand-built its own
//! `RadioNet`, re-implemented the `Some(cfg) ⇒ contended / None ⇒
//! collision-free` engine dance, threaded `Option<&FaultPlan>` and
//! `Option<&mut dyn TraceSink>` through its own signature, and captured
//! `RunStats` its own way — six near-identical pipelines that drifted
//! (discovery and election silently ignored the energy model, faults and
//! contention entirely). [`ExecEnv`] is now the single owner of run-wide
//! state, and protocols are compositions of *stages* executed against it:
//!
//! * [`ExecEnv::stage`] runs one orchestrated step (a GHS discover pass, a
//!   phase loop, a convergecast) against the shared network;
//! * [`ExecEnv::run_nodes_tolerant`] runs one reactive step (a
//!   [`NodeProtocol`] fleet: NNT probe ladder, BFS flood, election flood)
//!   under whichever MAC layer the run is configured with.
//!
//! Around every stage the runtime snapshots the network counters and
//! publishes the difference as a [`StageMark`]: per-stage
//! energy/messages/rounds/fault deltas flow to the attached
//! [`TraceSink`] as `stage` events and accumulate
//! on the env for [`RunOutput::stages`](crate::RunOutput). Stage marks are
//! pure telemetry — they never touch the ledger or the clock, so a run's
//! messages, rounds, phases and merges are bit-identical to the
//! pre-stage-runtime implementation (pinned by `tests/golden_fixtures.rs`).

use crate::sim::RunError;
use emst_geom::Point;
use emst_radio::{
    ContentionConfig, EnergyConfig, EngineError, FaultPlan, Membership, NodeProtocol, RadioNet,
    RunStats, StageMark, StatSnapshot, SyncEngine, TraceSink,
};

/// The single owner of run-wide state: points, the radio network (with
/// energy model, fault plan, trace sink and topology cache), the optional
/// contention layer, and the per-stage delta log.
///
/// Constructed once per [`Sim::try_run`](crate::Sim::try_run); protocol
/// drivers only ever see `&mut ExecEnv` and express themselves as stage
/// sequences.
pub struct ExecEnv<'a> {
    /// `Option` so reactive stages can hand the network to a
    /// [`SyncEngine`] by value and take it back via `into_parts`.
    net: Option<RadioNet<'a>>,
    contention: Option<ContentionConfig>,
    faulted: bool,
    /// Retry slack for round budgets: `max_retries + 1` under an active
    /// fault plan, `0` otherwise.
    retry_slack: u64,
    /// Worker-thread count for stages that shard per-round node work
    /// (see [`ExecEnv::set_shards`]).
    shards: usize,
    stages: Vec<StageMark>,
}

impl<'a> ExecEnv<'a> {
    /// Builds the environment: network at `max_radius` under `energy`,
    /// optional fault plan (no-op plans are elided — the clean path stays
    /// bit-identical), optional contention layer, optional trace sink.
    ///
    /// # Panics
    ///
    /// If `contention` and an effective (non-no-op) fault plan are both
    /// present: fault injection composes with the collision-free engine
    /// only.
    pub fn new(
        points: &'a [Point],
        max_radius: f64,
        energy: EnergyConfig,
        faults: Option<&FaultPlan>,
        contention: Option<ContentionConfig>,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Self {
        let mut net = RadioNet::with_config(points, max_radius, energy);
        if let Some(plan) = faults {
            net.set_faults(plan.clone());
        }
        let faulted = net.faults().is_some();
        assert!(
            !(contention.is_some() && faulted),
            "fault injection composes with the collision-free engine only"
        );
        let retry_slack = if faulted {
            net.faults()
                .map(|p| p.max_retries() as u64 + 1)
                .unwrap_or(0)
        } else {
            0
        };
        if let Some(sink) = sink {
            net.set_sink(sink);
        }
        ExecEnv {
            net: Some(net),
            contention,
            faulted,
            retry_slack,
            shards: 1,
            stages: Vec::new(),
        }
    }

    /// Sets the worker-thread count for stages that partition per-round
    /// node work (the GHS MOE search). Sharding changes wall-clock only:
    /// nodes are assigned to shards by a fixed mapping and per-shard
    /// results are reduced in canonical sequential order, so ledgers,
    /// traces and stage marks stay bit-identical to `shards = 1`
    /// (pinned by `tests/shard_identity.rs`). Values are clamped to at
    /// least 1.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Worker-thread count for shardable stages (1 = sequential).
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.net().n()
    }

    /// Whether an effective fault plan is active.
    #[inline]
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// Whether the slotted-ALOHA contention layer is active.
    #[inline]
    pub fn contended(&self) -> bool {
        self.contention.is_some()
    }

    /// Retry slack for round budgets (`max_retries + 1` when faulted,
    /// `0` otherwise) — the factor by which loss-retries can stretch a
    /// reactive protocol's schedule.
    #[inline]
    pub fn retry_slack(&self) -> u64 {
        self.retry_slack
    }

    /// Read access to the shared network.
    pub fn net(&self) -> &RadioNet<'a> {
        self.net.as_ref().expect("network is held by a stage")
    }

    /// The active fault plan, cloned (repair escalation rebuilds it with a
    /// grown retry budget between attempts).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.net().faults().cloned()
    }

    /// Replaces the run's fault plan mid-run — the repair stage's
    /// escalation knob. The plan's coin stream is still keyed on
    /// `(seed, round, src, dst)`, so swapping in a plan that differs only
    /// in its retry budget leaves every already-drawn coin unchanged and
    /// future coins deterministic. Installing a no-op plan on a faulted
    /// run is rejected (it would silently change classification).
    pub fn escalate_faults(&mut self, plan: FaultPlan) {
        assert!(
            !plan.is_noop(),
            "escalate_faults: an effective plan cannot be escalated to a no-op"
        );
        let net = self.net.as_mut().expect("network is held by a stage");
        net.set_faults(plan);
        self.faulted = true;
        self.retry_slack = net
            .faults()
            .map(|p| p.max_retries() as u64 + 1)
            .unwrap_or(0);
    }

    /// Departs every id that `members` does not list as live, for the
    /// whole run: departed ids never run, hear or idle-charge. Composes
    /// with the fault plan and awake tracking; an all-live membership
    /// departs nobody, so the clean path stays bit-identical. See
    /// [`RadioNet::set_members`].
    pub fn set_members(&mut self, members: &Membership) {
        self.net
            .as_mut()
            .expect("network is held by a stage")
            .set_members(members);
    }

    /// Enables awake-round tracking (idempotent). Charges stay
    /// bit-identical — only the awake read-outs on
    /// [`RunStats`]/[`StageMark`] flip from `None` to `Some`. Low-awake
    /// protocols then schedule sleep windows via
    /// [`RadioNet::sleep_node`](emst_radio::RadioNet::sleep_node).
    /// Composes with departures and fault plans (see
    /// [`emst_radio::Availability`]).
    pub fn track_awake(&mut self) {
        self.net
            .as_mut()
            .expect("network is held by a stage")
            .track_awake();
    }

    /// Fetches the run's rows from `rows` instead of the network's own
    /// cache (the instance-reuse path). See
    /// [`RadioNet::lend_rows`](emst_radio::RadioNet::lend_rows).
    pub fn lend_rows(&mut self, rows: &'a emst_radio::RowCache) {
        self.net
            .as_mut()
            .expect("network is held by a stage")
            .lend_rows(rows);
    }

    /// Fetches the rows at `radius` from the run's row cache — call
    /// before stages that query neighbourhoods at a fixed radius.
    pub fn cache_topology(&mut self, radius: f64) {
        self.net
            .as_mut()
            .expect("network is held by a stage")
            .cache_topology(radius);
    }

    /// Runs one orchestrated stage against the shared network and records
    /// its resource deltas under `scope`/`name`.
    ///
    /// `scope` is the protocol namespace the stage transmits under
    /// (`"ghs"`, `"eopt1"`, …) — by convention also the message-kind
    /// prefix, so per-scope sums over stage marks replace ledger prefix
    /// matching.
    pub fn stage<R>(
        &mut self,
        scope: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut RadioNet<'a>) -> R,
    ) -> R {
        let net = self.net.as_mut().expect("network is held by a stage");
        let before = StatSnapshot::capture(net);
        let out = f(net);
        self.seal(before, scope, name);
        out
    }

    /// Runs a reactive [`NodeProtocol`] fleet as one stage, under the
    /// run's configured MAC layer (contended or collision-free) — the
    /// single home of the engine construction dance — and applies the
    /// uniform tolerance for fault-starved schedules: under an active
    /// fault plan a round-limit overrun is a degraded partial result, not
    /// an error. Returns the nodes, which faulted protocols salvage
    /// partial results from.
    pub fn run_nodes_tolerant<P: NodeProtocol>(
        &mut self,
        scope: &'static str,
        name: &'static str,
        nodes: Vec<P>,
        max_rounds: u64,
    ) -> Result<Vec<P>, RunError> {
        let net = self.net.take().expect("network is held by a stage");
        let before = StatSnapshot::capture(&net);
        let mut eng = match self.contention {
            Some(cfg) => SyncEngine::with_contention(net, nodes, cfg),
            None => SyncEngine::new(net, nodes),
        };
        let run_res = eng.try_run(max_rounds);
        let (net, nodes) = eng.into_parts();
        self.net = Some(net);
        self.seal(before, scope, name);
        match run_res {
            Ok(_) => Ok(nodes),
            Err(EngineError::RoundLimit(_)) if self.faulted => Ok(nodes),
            Err(e) => Err(e.into()),
        }
    }

    /// Closes a stage: computes the delta since `before`, mirrors it to
    /// the trace sink and appends it to the stage log.
    fn seal(&mut self, before: StatSnapshot, scope: &'static str, name: &'static str) {
        let net = self.net.as_mut().expect("network is held by a stage");
        let mark = before.delta(net, scope, name, self.stages.len() as u64);
        net.note_stage(mark);
        self.stages.push(mark);
    }

    /// Per-stage marks recorded so far (for mid-run attribution, e.g.
    /// EOPT's step split).
    pub fn stage_marks(&self) -> &[StageMark] {
        &self.stages
    }

    /// Finishes the run: captures the final [`RunStats`] and yields the
    /// stage log.
    pub fn finish(self) -> (RunStats, Vec<StageMark>) {
        let net = self.net.as_ref().expect("network is held by a stage");
        (RunStats::capture(net), self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points};
    use emst_radio::MetricsSink;

    #[test]
    fn stage_marks_telescope_to_run_totals() {
        let pts = uniform_points(50, &mut trial_rng(0x57A6E, 0));
        let mut env = ExecEnv::new(&pts, 0.5, EnergyConfig::paper(), None, None, None);
        env.cache_topology(0.3);
        env.stage("a", "one", |net| {
            for u in 0..10 {
                net.unicast(u, u + 1, "a/x");
            }
            net.tick_round();
        });
        env.stage("b", "two", |net| {
            net.local_broadcast(0, 0.3, "b/y");
            net.advance_rounds(2);
        });
        let (stats, marks) = env.finish();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].index, 0);
        assert_eq!(marks[1].index, 1);
        assert_eq!(marks[0].messages + marks[1].messages, stats.messages);
        assert_eq!(marks[0].rounds + marks[1].rounds, stats.rounds);
        let sum: f64 = marks.iter().map(|m| m.energy).sum();
        assert!((sum - stats.energy).abs() < 1e-12);
        assert_eq!(marks[1].scope, "b");
        assert_eq!(marks[1].name, "two");
        assert_eq!(marks[1].round, 3);
    }

    #[test]
    fn stage_events_reach_the_sink() {
        let pts = uniform_points(20, &mut trial_rng(0x57A6F, 0));
        let mut m = MetricsSink::new();
        let mut env = ExecEnv::new(&pts, 0.5, EnergyConfig::paper(), None, None, Some(&mut m));
        env.stage("s", "only", |net| {
            net.unicast(0, 1, "s/k");
            net.tick_round();
        });
        let (_, marks) = env.finish();
        assert_eq!(m.stages(), marks.as_slice());
        assert_eq!(m.stages()[0].messages, 1);
        assert_eq!(m.stages()[0].rounds, 1);
    }

    #[test]
    #[should_panic(expected = "collision-free engine only")]
    fn faults_and_contention_are_mutually_exclusive() {
        let pts = uniform_points(5, &mut trial_rng(1, 0));
        let plan = FaultPlan::none().drop_probability(0.1);
        let _ = ExecEnv::new(
            &pts,
            0.5,
            EnergyConfig::paper(),
            Some(&plan),
            Some(ContentionConfig::default()),
            None,
        );
    }

    #[test]
    fn noop_fault_plan_is_elided() {
        let pts = uniform_points(5, &mut trial_rng(2, 0));
        let plan = FaultPlan::none().seed(9).retries(7);
        let env = ExecEnv::new(&pts, 0.5, EnergyConfig::paper(), Some(&plan), None, None);
        assert!(!env.faulted());
        assert_eq!(env.retry_slack(), 0);
    }
}
