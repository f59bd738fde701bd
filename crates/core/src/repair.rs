//! The recovery runtime: forest repair under an adaptive escalation
//! policy.
//!
//! PR 3's reliability layer classifies a fault-damaged run as `Degraded`
//! and hands back whatever partial forest survived. This module closes
//! the loop: when a tree-building run ends with its surviving nodes split
//! across several fragments, the repair pass salvages the partial forest
//! and drives a *targeted* modified-GHS reconnection pass over it —
//! still on the same network, under the same fault plan, with every
//! retry and re-discovery charged to the ledger as ordinary `repair/*`
//! stages.
//!
//! ## Why repair succeeds where the original run starved
//!
//! A run degrades when fragments repeatedly *stall*: at drop probability
//! `p` with retry budget `k`, one control message is abandoned with
//! probability `p^(k+1)`, and a fragment of `s` members moves `Θ(s)`
//! messages per phase — large fragments stall almost every phase once
//! `s·p^(k+1)` approaches 1, and the barren-phase cutoff eventually gives
//! up. The repair pass changes all three factors at once:
//!
//! 1. **Salvage, don't restart** — the surviving forest is seeded into a
//!    fresh [`GhsEngine`] as zero-cost internal edges
//!    ([`GhsEngine::seed_forest`]), so only the *missing* connections are
//!    renegotiated.
//! 2. **Passive trunk** — the largest surviving fragment is marked
//!    passive (the §V-A giant treatment): it stops broadcasting
//!    initiate/report traffic over its `Θ(n)` tree edges — the very
//!    traffic whose loss starved the original run — and merely accepts
//!    connections from the orphaned fragments.
//! 3. **Adaptive escalation** — each attempt multiplies the retry budget
//!    and the barren-phase patience ([`RepairPolicy`]), so the
//!    per-message abandonment probability falls geometrically
//!    (`p^(k+1)`) while attempts stay bounded.
//!
//! Crashed nodes are excluded up front: edges whose endpoint is dead are
//! dropped from the salvage (the link is physically gone) and the nodes
//! themselves never answer discovery, so they self-deactivate as inactive
//! singleton fragments. Success means the repaired forest spans **all
//! surviving nodes** — nodes alive at the round repair started.
//!
//! The caller ([`Sim::try_run`](crate::Sim::try_run)) upgrades a
//! successful repair to [`RunOutcome::Repaired`](crate::RunOutcome); an
//! exhausted policy leaves the (still improved) forest classified
//! `Degraded`. Clean runs never reach this module, so enabling repair is
//! bit-identical on fault-free paths (pinned by the golden fixtures).

use crate::exec::ExecEnv;
use crate::ghs::{GhsEngine, GhsKinds, GhsVariant};
use emst_graph::{SpanningTree, UnionFind};
use emst_radio::FaultStats;

/// Escalation schedule for the repair stage: how aggressively successive
/// reconnection attempts grow their retry budget and barren-phase
/// patience, and when to give up.
///
/// Attempt `k` (1-based) runs with retry budget
/// `min(base · retry_growth^k, max_retry_budget)` — where `base` is the
/// original plan's budget — and patience
/// `GhsEngine::DEFAULT_PATIENCE · patience_growth^(k−1)`. Both grow
/// exponentially, so the per-message abandonment probability `p^(budget+1)`
/// collapses geometrically while the attempt count stays bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairPolicy {
    /// Reconnection attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Retry-budget multiplier applied per attempt (≥ 2 recommended).
    pub retry_growth: u32,
    /// Hard cap on the escalated retry budget.
    pub max_retry_budget: u32,
    /// Barren-phase patience multiplier applied per attempt.
    pub patience_growth: u32,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_attempts: 3,
            retry_growth: 2,
            max_retry_budget: 64,
            patience_growth: 2,
        }
    }
}

impl RepairPolicy {
    /// Retry budget for 1-based `attempt`, escalated from `base`.
    fn retry_budget(&self, base: u32, attempt: u32) -> u32 {
        let growth = self.retry_growth.max(1);
        let mut budget = base.max(1);
        for _ in 0..attempt {
            budget = budget.saturating_mul(growth);
            if budget >= self.max_retry_budget {
                return self.max_retry_budget.max(1);
            }
        }
        budget
    }

    /// Barren-phase patience for 1-based `attempt`.
    fn patience(&self, attempt: u32) -> usize {
        let growth = self.patience_growth.max(1) as usize;
        let mut patience = GhsEngine::DEFAULT_PATIENCE;
        for _ in 1..attempt {
            patience = patience.saturating_mul(growth).min(64);
        }
        patience
    }
}

/// What the repair stage did, carried by
/// [`RunOutcome::Repaired`](crate::RunOutcome::Repaired).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairStats {
    /// Reconnection attempts executed (1-based count; ≥ 1 whenever repair
    /// actually ran).
    pub attempts: u32,
    /// Edges the reconnection pass added beyond the salvaged forest.
    pub edges_added: usize,
    /// Survivor-bearing fragments before repair (the value that
    /// triggered it).
    pub fragments_before: usize,
    /// Survivor-bearing fragments after the final attempt (1 on success).
    pub fragments_after: usize,
    /// Nodes that had neither crashed nor departed when repair started.
    pub survivors: usize,
    /// Nodes crashed (or departed) before repair started (excluded from
    /// the repaired forest; they remain isolated vertices).
    pub crashed: usize,
    /// Tree edges discarded from the salvage because an endpoint had
    /// crashed.
    pub dead_edges_dropped: usize,
    /// The escalated retry budget of the final attempt.
    pub final_retry_budget: u32,
    /// Fault events observed during the repair stages alone.
    pub faults: FaultStats,
    /// Radiated energy spent by the repair stages alone.
    pub energy: f64,
    /// Messages sent by the repair stages alone.
    pub messages: u64,
    /// Rounds consumed by the repair stages alone.
    pub rounds: u64,
}

/// Number of distinct forest components that contain at least one
/// survivor. Crashed nodes are ignored: an isolated dead vertex is not
/// damage the repair stage can (or should) fix. Shared with the churn
/// maintenance loop (`crate::maintain`), whose per-epoch reports count
/// fragments over the live set the same way.
pub(crate) fn survivor_fragments(n: usize, tree: &SpanningTree, survivors: &[bool]) -> usize {
    let mut uf = UnionFind::new(n);
    for e in tree.edges() {
        uf.union(e.u as usize, e.v as usize);
    }
    let mut roots: Vec<usize> = (0..n)
        .filter(|&u| survivors[u])
        .map(|u| uf.find(u))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Survivor bitmap at the network's current round: every node that has
/// neither departed nor crashed.
fn survivor_map(env: &ExecEnv<'_>) -> Vec<bool> {
    let net = env.net();
    let now = net.clock().now();
    (0..env.n())
        .map(|u| !net.departed(u) && !net.crashed(u, now))
        .collect()
}

/// Whether `tree` leaves the surviving nodes in more than one fragment —
/// the trigger predicate for the repair stage.
pub(crate) fn needs_repair(env: &ExecEnv<'_>, tree: &SpanningTree) -> bool {
    let survivors = survivor_map(env);
    survivor_fragments(env.n(), tree, &survivors) > 1
}

/// Runs the repair stage: salvages `forest`, then reconnects the
/// surviving fragments with escalating modified-GHS passes at `radius`.
/// Returns the repaired forest, the repair read-outs, and whether the
/// forest now spans every surviving node. All traffic lands on the
/// shared environment as `repair/*` stages, so ledgers, traces and stage
/// marks account for the recovery exactly like any other stage.
pub(crate) fn run_repair(
    env: &mut ExecEnv<'_>,
    radius: f64,
    forest: &SpanningTree,
    policy: &RepairPolicy,
) -> (SpanningTree, RepairStats, bool) {
    let n = env.n();
    let kinds = GhsKinds::for_scope("repair");
    let plan = env.fault_plan().expect("repair runs on faulted runs only");
    let survivors = survivor_map(env);
    let survivor_count = survivors.iter().filter(|&&s| s).count();

    // Salvage: survivor↔survivor tree edges only. An edge with a crashed
    // endpoint is a dead link; keeping it would seed a fragment tree that
    // can never move its control traffic.
    let seed: Vec<(usize, usize, f64)> = forest
        .edges()
        .iter()
        .filter(|e| survivors[e.u as usize] && survivors[e.v as usize])
        .map(|e| (e.u as usize, e.v as usize, e.w))
        .collect();
    let dead_edges_dropped = forest.edges().len() - seed.len();
    let salvaged = SpanningTree::new(
        n,
        seed.iter()
            .map(|&(u, v, w)| emst_graph::Edge::new(u, v, w))
            .collect(),
    );
    let fragments_before = survivor_fragments(n, &salvaged, &survivors);

    let marks_from = env.stage_marks().len();
    let faults_before = env.net().fault_stats();
    let base_retries = plan.max_retries();

    let mut tree = salvaged;
    let mut success = fragments_before <= 1;
    let mut attempts = 0u32;
    let mut final_budget = base_retries;
    while !success && attempts < policy.max_attempts.max(1) {
        attempts += 1;
        final_budget = policy.retry_budget(base_retries, attempts);
        env.escalate_faults(plan.clone().retries(final_budget));
        let patience = policy.patience(attempts);

        let mut eng = GhsEngine::new(env.net(), GhsVariant::Modified);
        eng.set_shards(env.shards());
        eng.seed_forest(
            &tree
                .edges()
                .iter()
                .filter(|e| survivors[e.u as usize] && survivors[e.v as usize])
                .map(|e| (e.u as usize, e.v as usize, e.w))
                .collect::<Vec<_>>(),
        );
        // Passive trunk: the largest surviving fragment only accepts
        // connections, so its Θ(n) per-phase control traffic — the very
        // traffic whose loss starved the original run — goes silent.
        if let Some((trunk, size)) = eng.largest_fragment() {
            if size > 1 {
                eng.mark_passive(trunk);
            }
        }
        env.stage(kinds.scope, "discover", |net| {
            eng.discover(net, radius, kinds)
        });
        env.stage(kinds.scope, "phases", |net| {
            eng.run_phases_with_patience(net, kinds, patience)
        });
        tree = eng.tree();
        success = survivor_fragments(n, &tree, &survivors) <= 1;
    }

    // Repair-only deltas from the stage marks this pass appended.
    let (mut energy, mut messages, mut rounds) = (0.0f64, 0u64, 0u64);
    for mark in &env.stage_marks()[marks_from..] {
        energy += mark.energy;
        messages += mark.messages;
        rounds += mark.rounds;
    }
    let faults_now = env.net().fault_stats();
    let stats = RepairStats {
        attempts,
        edges_added: tree.edges().len() - seed.len(),
        fragments_before,
        fragments_after: survivor_fragments(n, &tree, &survivors),
        survivors: survivor_count,
        crashed: n - survivor_count,
        dead_edges_dropped,
        final_retry_budget: final_budget,
        faults: FaultStats {
            drops: faults_now.drops - faults_before.drops,
            retries: faults_now.retries - faults_before.retries,
            timeouts: faults_now.timeouts - faults_before.timeouts,
        },
        energy,
        messages,
        rounds,
    };
    (tree, stats, success)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_schedule_grows_and_saturates() {
        let policy = RepairPolicy::default();
        assert_eq!(policy.retry_budget(3, 1), 6);
        assert_eq!(policy.retry_budget(3, 2), 12);
        assert_eq!(policy.retry_budget(3, 3), 24);
        assert_eq!(policy.retry_budget(3, 10), 64, "cap must bind");
        assert_eq!(policy.patience(1), GhsEngine::DEFAULT_PATIENCE);
        assert_eq!(policy.patience(2), 2 * GhsEngine::DEFAULT_PATIENCE);
        assert_eq!(policy.patience(20), 64, "patience must saturate");
        // Degenerate growth factors never deadlock the schedule.
        let flat = RepairPolicy {
            retry_growth: 0,
            patience_growth: 0,
            ..RepairPolicy::default()
        };
        assert_eq!(flat.retry_budget(3, 2), 3);
        assert_eq!(flat.patience(5), GhsEngine::DEFAULT_PATIENCE);
    }

    #[test]
    fn survivor_fragments_ignores_crashed_singletons() {
        use emst_graph::Edge;
        // 0-1 connected, 2 isolated survivor, 3 isolated crashed node.
        let tree = SpanningTree::new(4, vec![Edge::new(0, 1, 0.1)]);
        let survivors = vec![true, true, true, false];
        assert_eq!(survivor_fragments(4, &tree, &survivors), 2);
        let all_alive = vec![true; 4];
        assert_eq!(survivor_fragments(4, &tree, &all_alive), 3);
        let tiny = vec![false, false, false, false];
        assert_eq!(survivor_fragments(4, &tree, &tiny), 0);
    }
}
