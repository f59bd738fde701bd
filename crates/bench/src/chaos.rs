//! Deterministic chaos harness: seeded random fault plans, an invariant
//! checker over full protocol runs, and a greedy shrinking replay.
//!
//! The reliability layer (PR 3) and the recovery runtime (this PR) carry
//! a set of *always-true* guarantees — forests stay acyclic, ledgers
//! conserve, classifications follow their documented predicates — that
//! hold for every fault schedule, not just the handful pinned in unit
//! tests. The chaos harness searches that space: generate a few hundred
//! seeded random [`FaultPlan`]s ([`random_plan`]), run the tree builders
//! under each with repair enabled, and check every invariant
//! ([`violations`]). Because plans, instances and fault coins are all
//! splitmix-derived from one seed, a CI failure is a *reproducer*, not a
//! flake: the harness shrinks the offending plan to a minimal failing
//! core ([`shrink`]) and prints it as a copy-pastable `FaultPlan`
//! constructor ([`FaultPlan::to_source`]).
//!
//! The churn side does the same for the maintenance loop (PR 7):
//! seeded random [`ChurnTimeline`]s ([`random_timeline`]) drive
//! [`emst_core::maintain()`] under both strategies, and
//! [`churn_violations`] checks the epoch invariants — monotone epoch
//! counters, bitwise ledger conservation, forest validity over the live
//! set, incremental/recompute/Kruskal agreement and bitwise determinism.
//! Failing timelines shrink to a minimal event core
//! ([`shrink_timeline`]) printed via [`ChurnTimeline::to_source`].

use crate::runner::instance;
use emst_core::{
    maintain, ChurnTimeline, EoptConfig, GhsVariant, MaintainStrategy, Protocol, RepairPolicy,
    RunOutcome, Sim,
};
use emst_geom::{mix_seed, paper_phase2_radius, trial_rng, Point};
use emst_graph::disk_msf;
use emst_radio::{FaultPlan, MetricsSink};
use rand::Rng;

/// Generates the `index`-th random fault plan of a chaos run: a drop
/// probability in `[0, 0.3]` (zeroed one time in four so crash/sleep-only
/// schedules get coverage too), up to three crashes and up to three sleep
/// windows over the first ~60 rounds. Deterministic in `(seed, index)`.
pub fn random_plan(seed: u64, index: u64, n: usize) -> FaultPlan {
    let mut rng = trial_rng(mix_seed(seed, 0xC4A0_5000), index);
    let drop_p = if rng.gen_range(0..4u32) == 0 {
        0.0
    } else {
        // Two-decimal probabilities keep `to_source` reproducers short.
        rng.gen_range(1..=30u32) as f64 / 100.0
    };
    let mut plan = FaultPlan::none()
        .seed(mix_seed(seed, index))
        .drop_probability(drop_p);
    for _ in 0..rng.gen_range(0..=3u32) {
        plan = plan.crash_at(rng.gen_range(0..n), rng.gen_range(0..60u64));
    }
    for _ in 0..rng.gen_range(0..=3u32) {
        let from = rng.gen_range(0..48u64);
        plan = plan.sleep_between(rng.gen_range(0..n), from, from + rng.gen_range(1..=16u64));
    }
    plan
}

/// Runs `protocol` on `pts` under `plan` (repair enabled) and returns
/// every violated invariant, one message per violation. An empty vector
/// means the run upheld all of them:
///
/// 1. **Forest validity** — the output tree is acyclic with in-range
///    endpoints, and `fragments` counts its components.
/// 2. **Ledger conservation** — the trace sink reproduces the run's
///    energy/message/round totals bitwise, and the stage marks telescope
///    to the same totals (stats/trace agreement).
/// 3. **Outcome classification** — `Complete` shows no visible damage,
///    `Degraded` shows some, and a `Repaired` forest joins every node
///    the plan never crashes into one fragment, with coherent
///    [`RepairStats`](emst_core::RepairStats).
pub fn violations(pts: &[Point], protocol: Protocol, plan: &FaultPlan) -> Vec<String> {
    let mut v = Vec::new();
    macro_rules! check {
        ($ok:expr, $($msg:tt)*) => {
            if !$ok {
                v.push(format!($($msg)*));
            }
        };
    }
    let radius = paper_phase2_radius(pts.len());
    let mut sink = MetricsSink::new();
    let outcome = Sim::new(pts)
        .radius(radius)
        .with_faults(plan.clone())
        .repair(RepairPolicy::default())
        .sink(&mut sink)
        .try_run(protocol);
    let Some(out) = outcome.output() else {
        // A typed abort is a legal outcome (not an invariant violation);
        // the error itself documents why.
        return v;
    };

    // 1. Forest validity.
    if let Err(e) = out.tree.validate_forest() {
        v.push(format!("invalid forest: {e:?}"));
    }
    check!(
        out.fragments == out.tree.n().saturating_sub(out.tree.edges().len()),
        "fragments={} but n−|E| disagrees",
        out.fragments
    );

    // 2. Ledger conservation and stats/trace agreement.
    check!(
        sink.total_energy().to_bits() == out.stats.energy.to_bits(),
        "trace energy {} != stats energy {}",
        sink.total_energy(),
        out.stats.energy
    );
    check!(
        sink.total_messages() == out.stats.messages,
        "trace messages {} != stats messages {}",
        sink.total_messages(),
        out.stats.messages
    );
    check!(
        sink.rounds() == out.stats.rounds,
        "trace rounds {} != stats rounds {}",
        sink.rounds(),
        out.stats.rounds
    );
    let stage_msgs: u64 = out.stages.iter().map(|s| s.messages).sum();
    let stage_rounds: u64 = out.stages.iter().map(|s| s.rounds).sum();
    let stage_energy: f64 = out.stages.iter().map(|s| s.energy).sum();
    check!(
        stage_msgs == out.stats.messages,
        "stage marks sum to {stage_msgs} messages, stats say {}",
        out.stats.messages
    );
    check!(
        stage_rounds == out.stats.rounds,
        "stage marks sum to {stage_rounds} rounds, stats say {}",
        out.stats.rounds
    );
    let energy_telescopes = (stage_energy - out.stats.energy).abs() < 1e-9;
    check!(
        energy_telescopes,
        "stage marks sum to {stage_energy} energy, stats say {}",
        out.stats.energy
    );

    // 3. Outcome classification.
    let fs = out.stats.faults;
    match &outcome {
        RunOutcome::Complete(_) => {
            check!(
                fs.timeouts == 0 && !(out.fragments > 1 && fs.drops > 0),
                "Complete with visible damage: fragments={} {fs:?}",
                out.fragments
            );
        }
        RunOutcome::Repaired { repair, .. } => {
            check!(repair.attempts >= 1, "Repaired with zero attempts");
            check!(
                repair.fragments_after <= 1,
                "Repaired but {} survivor fragments remain",
                repair.fragments_after
            );
            check!(
                repair.survivors + repair.crashed == pts.len(),
                "survivors {} + crashed {} != n {}",
                repair.survivors,
                repair.crashed,
                pts.len()
            );
            // Nodes the plan never crashes are survivors whenever repair
            // started, so they must share one repaired fragment.
            let mut uf = emst_graph::UnionFind::new(pts.len());
            for e in out.tree.edges() {
                uf.union(e.u as usize, e.v as usize);
            }
            let crashed: Vec<usize> = plan.crashes().iter().map(|&(node, _)| node).collect();
            let mut roots: Vec<usize> = (0..pts.len())
                .filter(|u| !crashed.contains(u))
                .map(|u| uf.find(u))
                .collect();
            roots.sort_unstable();
            roots.dedup();
            check!(
                roots.len() <= 1,
                "Repaired forest splits never-crashed nodes into {} fragments",
                roots.len()
            );
        }
        RunOutcome::Degraded { faults, .. } => {
            check!(
                faults.timeouts > 0 || faults.drops > 0,
                "Degraded with clean counters {faults:?}"
            );
        }
        RunOutcome::Failed { .. } => unreachable!("output() returned Some"),
    }
    v
}

/// Greedily shrinks a failing plan: repeatedly drops whichever single
/// fault entry (crash, sleep window, or the drop probability) keeps
/// `fails` true, until no single removal does. Greedy one-at-a-time
/// removal is quadratic in the entry count but entirely deterministic,
/// and fault entries rarely interact, so it typically lands on the
/// 1–3-entry core. Panics if `plan` does not fail to begin with.
pub fn shrink(plan: &FaultPlan, fails: &dyn Fn(&FaultPlan) -> bool) -> FaultPlan {
    assert!(fails(plan), "shrink requires a failing plan");
    let mut plan = plan.clone();
    loop {
        let mut progressed = false;
        for i in 0..plan.crashes().len() {
            let mut crashes = plan.crashes().to_vec();
            crashes.remove(i);
            let candidate = rebuild(&plan, plan.drop_p(), &crashes, plan.sleeps());
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }
        for i in 0..plan.sleeps().len() {
            let mut sleeps = plan.sleeps().to_vec();
            sleeps.remove(i);
            let candidate = rebuild(&plan, plan.drop_p(), plan.crashes(), &sleeps);
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }
        if plan.drop_p() > 0.0 {
            let candidate = rebuild(&plan, 0.0, plan.crashes(), plan.sleeps());
            if fails(&candidate) {
                plan = candidate;
                continue;
            }
        }
        return plan;
    }
}

/// Rebuilds a plan with the same seed/retry envelope but the given
/// entries (the shrinker's removal primitive).
fn rebuild(
    base: &FaultPlan,
    drop_p: f64,
    crashes: &[(usize, u64)],
    sleeps: &[(usize, u64, u64)],
) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .seed(base.coin_seed())
        .retries(base.max_retries())
        .drop_probability(drop_p);
    for &(node, round) in crashes {
        plan = plan.crash_at(node, round);
    }
    for &(node, from, to) in sleeps {
        plan = plan.sleep_between(node, from, to);
    }
    plan
}

/// One invariant violation found by [`run_chaos`], with its minimized
/// reproducer.
pub struct ChaosViolation {
    /// Index of the failing plan within the run.
    pub index: u64,
    /// Which protocol tripped.
    pub protocol: &'static str,
    /// The violated invariants.
    pub messages: Vec<String>,
    /// The original failing plan.
    pub plan: FaultPlan,
    /// The shrunk reproducer (still failing, locally minimal).
    pub minimized: FaultPlan,
}

/// Read-out of a whole chaos run.
pub struct ChaosReport {
    /// Plans exercised (each against every tree builder).
    pub plans: u64,
    /// Every invariant violation, already minimized.
    pub violations: Vec<ChaosViolation>,
}

/// The tree builders every chaos plan is checked against.
pub const CHAOS_PROTOCOLS: [Protocol; 4] = [
    Protocol::Ghs(GhsVariant::Original),
    Protocol::Ghs(GhsVariant::Modified),
    Protocol::Ghs(GhsVariant::LowAwake),
    Protocol::Eopt(EoptConfig::PAPER),
];

/// Runs the chaos loop: `plans` random plans over `(seed, index)`-seeded
/// `n`-node instances, each checked against every tree builder
/// ([`CHAOS_PROTOCOLS`]) with repair enabled. Violations are shrunk
/// before being reported.
pub fn run_chaos(seed: u64, plans: u64, n: usize) -> ChaosReport {
    let mut report = ChaosReport {
        plans,
        violations: Vec::new(),
    };
    for index in 0..plans {
        let pts = instance(seed, n, index);
        let plan = random_plan(seed, index, n);
        for protocol in CHAOS_PROTOCOLS {
            let messages = violations(&pts, protocol, &plan);
            if !messages.is_empty() {
                let fails = |p: &FaultPlan| !violations(&pts, protocol, p).is_empty();
                let minimized = shrink(&plan, &fails);
                report.violations.push(ChaosViolation {
                    index,
                    protocol: protocol.name(),
                    messages,
                    plan: plan.clone(),
                    minimized,
                });
            }
        }
    }
    report
}

/// Generates the `index`-th random churn timeline of a churn-chaos run:
/// 2–5 epochs, each carrying up to three membership events drawn from
/// joins, crashes, sleeps, wakes and moves. The generator tracks the
/// evolving live set so every event is well-formed (only live nodes
/// crash/sleep/move, only sleepers wake, join ids follow the universe
/// growth order [`maintain()`] applies). Deterministic in `(seed, index)`.
pub fn random_timeline(seed: u64, index: u64, n: usize) -> ChurnTimeline {
    let mut rng = trial_rng(mix_seed(seed, 0xC4A0_6000), index);
    let epochs = rng.gen_range(2..=5usize);
    let mut tl = ChurnTimeline::new(epochs);
    let mut alive: Vec<usize> = (0..n).collect();
    let mut sleeping: Vec<usize> = Vec::new();
    let mut universe = n;
    for e in 0..epochs {
        for _ in 0..rng.gen_range(0..=3u32) {
            match rng.gen_range(0..5u32) {
                0 => {
                    tl = tl.join(e, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                    alive.push(universe);
                    universe += 1;
                }
                1 if alive.len() > 1 => {
                    let u = alive.swap_remove(rng.gen_range(0..alive.len()));
                    tl = tl.crash(e, u);
                }
                2 if alive.len() > 1 => {
                    let u = alive.swap_remove(rng.gen_range(0..alive.len()));
                    sleeping.push(u);
                    tl = tl.sleep(e, u);
                }
                3 if !sleeping.is_empty() => {
                    let u = sleeping.swap_remove(rng.gen_range(0..sleeping.len()));
                    alive.push(u);
                    tl = tl.wake(e, u);
                }
                4 if !alive.is_empty() => {
                    let u = alive[rng.gen_range(0..alive.len())];
                    tl = tl.move_to(e, u, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                }
                _ => {}
            }
        }
    }
    tl
}

/// Generates a churn timeline at a target *churn rate*: `epochs` epochs
/// of `max(1, round(n · rate))` events each, drawn from the deployment
/// mix (25% crash, 20% sleep, 20% wake, 15% join, 20% move, with
/// inapplicable draws — e.g. a wake with nobody asleep — skipped). Same
/// liveness bookkeeping as [`random_timeline`]; deterministic in
/// `(seed, index)`. This is the schedule shape `churn_sweep` measures.
pub fn rate_timeline(seed: u64, index: u64, n: usize, epochs: usize, rate: f64) -> ChurnTimeline {
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
    let mut rng = trial_rng(mix_seed(seed, 0xC4A0_7000), index);
    let per_epoch = ((n as f64 * rate).round() as usize).max(1);
    let mut tl = ChurnTimeline::new(epochs);
    let mut alive: Vec<usize> = (0..n).collect();
    let mut sleeping: Vec<usize> = Vec::new();
    let mut universe = n;
    for e in 0..epochs {
        for _ in 0..per_epoch {
            match rng.gen_range(0..100u32) {
                0..=24 if alive.len() > 1 => {
                    let u = alive.swap_remove(rng.gen_range(0..alive.len()));
                    tl = tl.crash(e, u);
                }
                25..=44 if alive.len() > 1 => {
                    let u = alive.swap_remove(rng.gen_range(0..alive.len()));
                    sleeping.push(u);
                    tl = tl.sleep(e, u);
                }
                45..=64 if !sleeping.is_empty() => {
                    let u = sleeping.swap_remove(rng.gen_range(0..sleeping.len()));
                    alive.push(u);
                    tl = tl.wake(e, u);
                }
                65..=79 => {
                    tl = tl.join(e, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                    alive.push(universe);
                    universe += 1;
                }
                80..=99 if !alive.is_empty() => {
                    let u = alive[rng.gen_range(0..alive.len())];
                    tl = tl.move_to(e, u, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                }
                _ => {}
            }
        }
    }
    tl
}

/// Runs the churn maintenance loop on `pts` under `timeline` with both
/// strategies and returns every violated epoch invariant:
///
/// 1. **Epoch monotonicity** — reports carry epochs `1..=len` in order.
/// 2. **Ledger conservation** — every epoch's trace sink reproduces its
///    energy bitwise and its message count exactly (bootstrap included).
/// 3. **Forest validity** — every epoch leaves an acyclic forest whose
///    endpoints are all live.
/// 4. **Strategy agreement** — incremental maintenance ends on the same
///    forest (edge-for-edge) as per-epoch recomputation, and both match
///    the Kruskal MSF of the final live subgraph.
/// 5. **Determinism** — a second incremental run reproduces every
///    epoch's energy bitwise.
pub fn churn_violations(pts: &[Point], radius: f64, timeline: &ChurnTimeline) -> Vec<String> {
    let mut v = Vec::new();
    macro_rules! check {
        ($ok:expr, $($msg:tt)*) => {
            if !$ok {
                v.push(format!($($msg)*));
            }
        };
    }
    let inc = maintain(pts, radius, timeline, MaintainStrategy::Incremental);
    let rec = maintain(pts, radius, timeline, MaintainStrategy::Recompute);
    for rep in [&inc, &rec] {
        let tag = format!("{:?}", rep.strategy);
        check!(rep.bootstrap_conserved, "{tag}: bootstrap ledger leaked");
        for (i, e) in rep.epochs.iter().enumerate() {
            check!(
                e.epoch == i as u64 + 1,
                "{tag}: epoch counter jumped to {} at step {i}",
                e.epoch
            );
            check!(e.ledger_conserved, "{tag}: epoch {} leaked energy", e.epoch);
            check!(e.forest_valid, "{tag}: epoch {} broke the forest", e.epoch);
        }
        check!(
            rep.members.epoch() == timeline.len() as u64,
            "{tag}: final epoch {} != timeline length {}",
            rep.members.epoch(),
            timeline.len()
        );
    }
    check!(
        inc.tree().same_edges(&rec.tree()),
        "incremental and recompute forests disagree"
    );
    let truth = disk_msf(&inc.points, radius, |u| inc.members.is_live(u));
    check!(
        inc.tree().same_edges(&truth),
        "maintained forest is not the MSF of the live subgraph"
    );
    let again = maintain(pts, radius, timeline, MaintainStrategy::Incremental);
    check!(
        again.epochs.len() == inc.epochs.len()
            && again
                .epochs
                .iter()
                .zip(&inc.epochs)
                .all(|(a, b)| a.energy.to_bits() == b.energy.to_bits()),
        "incremental maintenance is not deterministic"
    );
    v
}

/// Whether every [`ChurnEvent::Wake`]/[`ChurnEvent::Move`] target is
/// inside the id universe at the moment the event applies (the universe
/// starts at `n` and grows by one per preceding join) — exactly the
/// well-formedness [`maintain()`] asserts. The shrinker uses this to skip
/// candidates whose join removal orphaned a later id reference.
fn valid_ids(n: usize, tl: &ChurnTimeline) -> bool {
    let mut universe = n;
    for events in tl.epochs() {
        for ev in events {
            match *ev {
                emst_core::ChurnEvent::Join(_) => universe += 1,
                emst_core::ChurnEvent::Wake(u) | emst_core::ChurnEvent::Move(u, _)
                    if u >= universe =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}

/// Greedily shrinks a failing timeline over an `n`-node instance by
/// dropping single events while `fails` stays true — the churn
/// counterpart of [`shrink`]. Events are removed latest-first, and
/// candidates that would orphan an id reference (a wake/move pointing
/// past the shrunk universe) are skipped via the same well-formedness
/// check [`maintain()`] asserts. Panics if
/// `timeline` does not fail to begin with.
pub fn shrink_timeline(
    timeline: &ChurnTimeline,
    n: usize,
    fails: &dyn Fn(&ChurnTimeline) -> bool,
) -> ChurnTimeline {
    assert!(fails(timeline), "shrink requires a failing timeline");
    let mut tl = timeline.clone();
    loop {
        let mut progressed = false;
        'removal: for e in (0..tl.len()).rev() {
            for i in (0..tl.epochs()[e].len()).rev() {
                let mut epochs: Vec<Vec<emst_core::ChurnEvent>> = tl.epochs().to_vec();
                epochs[e].remove(i);
                let mut candidate = ChurnTimeline::new(tl.len());
                for (idx, evs) in epochs.iter().enumerate() {
                    for ev in evs {
                        candidate = replay(candidate, idx, *ev);
                    }
                }
                if valid_ids(n, &candidate) && fails(&candidate) {
                    tl = candidate;
                    progressed = true;
                    break 'removal;
                }
            }
        }
        if !progressed {
            return tl;
        }
    }
}

/// Re-adds one event to a timeline under construction (the shrinker's
/// rebuild primitive).
fn replay(tl: ChurnTimeline, epoch: usize, ev: emst_core::ChurnEvent) -> ChurnTimeline {
    use emst_core::ChurnEvent::*;
    match ev {
        Join(p) => tl.join(epoch, p.x, p.y),
        Crash(u) => tl.crash(epoch, u),
        Sleep(u) => tl.sleep(epoch, u),
        Wake(u) => tl.wake(epoch, u),
        Move(u, p) => tl.move_to(epoch, u, p.x, p.y),
    }
}

/// One churn invariant violation found by [`run_churn_chaos`], with its
/// minimized reproducer.
pub struct ChurnViolation {
    /// Index of the failing timeline within the run.
    pub index: u64,
    /// The violated invariants.
    pub messages: Vec<String>,
    /// The original failing timeline.
    pub timeline: ChurnTimeline,
    /// The shrunk reproducer (still failing, locally minimal); print
    /// with [`ChurnTimeline::to_source`].
    pub minimized: ChurnTimeline,
}

/// Read-out of a churn-chaos run.
pub struct ChurnChaosReport {
    /// Timelines exercised.
    pub timelines: u64,
    /// Every churn invariant violation, already minimized.
    pub violations: Vec<ChurnViolation>,
}

/// Runs the churn-chaos loop: `timelines` random churn schedules over
/// `(seed, index)`-seeded `n`-node instances, each driven through
/// [`churn_violations`]. Violations are shrunk before being reported.
pub fn run_churn_chaos(seed: u64, timelines: u64, n: usize) -> ChurnChaosReport {
    let mut report = ChurnChaosReport {
        timelines,
        violations: Vec::new(),
    };
    let radius = paper_phase2_radius(n);
    for index in 0..timelines {
        let pts = instance(seed, n, index);
        let tl = random_timeline(seed, index, n);
        let messages = churn_violations(&pts, radius, &tl);
        if !messages.is_empty() {
            let fails = |t: &ChurnTimeline| !churn_violations(&pts, radius, t).is_empty();
            let minimized = shrink_timeline(&tl, n, &fails);
            report.violations.push(ChurnViolation {
                index,
                messages,
                timeline: tl,
                minimized,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_deterministic() {
        let a = random_plan(7, 3, 100);
        let b = random_plan(7, 3, 100);
        assert_eq!(a.to_source(), b.to_source());
        let c = random_plan(7, 4, 100);
        assert_ne!(a.to_source(), c.to_source(), "indices must decorrelate");
    }

    #[test]
    fn shrink_finds_the_minimal_core() {
        // Synthetic failure: "crashes node 0 AND drops at ≥ 15%". The
        // minimal core is exactly two entries; everything else is noise.
        let noisy = FaultPlan::none()
            .seed(99)
            .drop_probability(0.2)
            .crash_at(0, 10)
            .crash_at(5, 3)
            .crash_at(17, 22)
            .sleep_between(4, 1, 9)
            .sleep_between(11, 5, 20);
        let fails =
            |p: &FaultPlan| p.drop_p() >= 0.15 && p.crashes().iter().any(|&(node, _)| node == 0);
        let min = shrink(&noisy, &fails);
        assert!(fails(&min), "shrink must preserve failure");
        assert_eq!(
            min.entry_count(),
            2,
            "core is drop + crash(0): {}",
            min.to_source()
        );
        assert_eq!(min.crashes(), &[(0, 10)]);
        // Deterministic: same input, same minimum.
        assert_eq!(shrink(&noisy, &fails).to_source(), min.to_source());
    }

    #[test]
    fn timeline_generation_is_deterministic_and_well_formed() {
        let a = random_timeline(7, 3, 80);
        let b = random_timeline(7, 3, 80);
        assert_eq!(a, b);
        assert_eq!(a.to_source(), b.to_source());
        let c = random_timeline(7, 4, 80);
        assert_ne!(a.to_source(), c.to_source(), "indices must decorrelate");
        for index in 0..20 {
            assert!(
                valid_ids(80, &random_timeline(7, index, 80)),
                "generator emitted an orphaned id reference at index {index}"
            );
        }
    }

    #[test]
    fn timeline_shrink_finds_the_minimal_core() {
        // Synthetic failure: "crashes node 3 somewhere". The core is that
        // single crash; every other event is noise.
        let noisy = ChurnTimeline::new(3)
            .join(0, 0.2, 0.2)
            .crash(0, 3)
            .sleep(1, 5)
            .move_to(1, 7, 0.9, 0.9)
            .wake(2, 5);
        let fails = |t: &ChurnTimeline| {
            t.epochs()
                .iter()
                .flatten()
                .any(|ev| matches!(ev, emst_core::ChurnEvent::Crash(3)))
        };
        let min = shrink_timeline(&noisy, 10, &fails);
        assert!(fails(&min), "shrink must preserve failure");
        assert_eq!(
            min.event_count(),
            1,
            "core is crash(3): {}",
            min.to_source()
        );
        assert_eq!(min.to_source(), "ChurnTimeline::new(3).crash(0, 3)");
    }

    #[test]
    fn small_churn_chaos_run_is_clean_and_reproducible() {
        let report = run_churn_chaos(0xC4A1, 4, 60);
        assert_eq!(report.timelines, 4);
        assert!(
            report.violations.is_empty(),
            "seeded churn-chaos run found violations: {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.index, v.messages.clone(), v.minimized.to_source()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn small_chaos_run_is_clean_and_reproducible() {
        let a = run_chaos(0xC4A0, 6, 60);
        assert_eq!(a.plans, 6);
        assert!(
            a.violations.is_empty(),
            "seeded chaos run found violations: {:?}",
            a.violations
                .iter()
                .map(|v| (
                    v.index,
                    v.protocol,
                    v.messages.clone(),
                    v.minimized.to_source()
                ))
                .collect::<Vec<_>>()
        );
    }
}
