//! Reliability-layer guarantees, exercised end-to-end through the facade.
//!
//! Three contracts:
//!
//! 1. **Zero cost when disabled** — a no-op [`FaultPlan`] must be elided
//!    entirely: stats bitwise-identical and the trace byte-identical to a
//!    run that never mentioned faults. An effective plan that never fires
//!    is not elided but must charge exactly what a clean run charges.
//! 2. **Graceful degradation** — injected drops/crashes never panic; the
//!    run finishes as `Complete` or `Degraded` with populated fault
//!    counters, and a spanning forest (possibly partial) is returned.
//! 3. **Determinism** — fault coins are drawn from the (seed, round,
//!    sender, receiver) hash alone, so results are bitwise independent of
//!    the worker-thread count and reproducible across runs.

use energy_mst::analysis::set_thread_override;
use energy_mst::core::{GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, PathLoss, Point};
use energy_mst::radio::{EnergyConfig, EnergyLedger};
use energy_mst::{
    Detail, FaultPlan, JsonlSink, Membership, MetricsSink, Protocol, RepairPolicy, RunOutcome, Sim,
};
use std::fmt::Write as _;

fn instance(n: usize) -> Vec<Point> {
    uniform_points(n, &mut trial_rng(0x00FA_0170, 0))
}

/// The four tree builders, by registry name.
fn tree_builders() -> [(&'static str, Protocol); 4] {
    [
        ("ghs_original", Protocol::Ghs(GhsVariant::Original)),
        ("ghs_modified", Protocol::Ghs(GhsVariant::Modified)),
        ("ghs_lowawake", Protocol::Ghs(GhsVariant::LowAwake)),
        ("eopt", Protocol::Eopt(Default::default())),
    ]
}

/// FNV-1a over `bytes`: the fixture's fingerprint of long outputs.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fault-ledger fixture line for a run: outcome and fault counters;
/// fragments, phases, messages, energy bits and rounds; awake total and
/// max; repair attempts; and hashes of the sorted tree edges and of the
/// non-stage trace lines. A `-` marks a read-out the run does not have.
fn ledger_line(outcome: &RunOutcome, trace: &str) -> String {
    let status = match outcome {
        RunOutcome::Complete(_) => "complete",
        RunOutcome::Repaired { .. } => "repaired",
        RunOutcome::Degraded { .. } => "degraded",
        RunOutcome::Failed { .. } => "failed",
    };
    let f = outcome.faults();
    let mut s = format!(
        "{status} drops={} retries={} timeouts={}",
        f.drops, f.retries, f.timeouts
    );
    let Some(out) = outcome.output() else {
        return s;
    };
    let phases = match out.detail {
        Detail::Ghs(g) => g.phases.to_string(),
        Detail::Eopt(e) => format!("{}+{}", e.phases_step1, e.phases_step2),
        _ => "-".to_owned(),
    };
    let awake = out.stats.awake.map_or("-".to_owned(), |a| {
        format!("{}/{}", a.total, a.max_per_node)
    });
    let repair = outcome
        .repair()
        .map_or("-".to_owned(), |r| r.attempts.to_string());
    let mut edges: Vec<[u64; 3]> = out
        .tree
        .edges()
        .iter()
        .map(|e| [e.u.min(e.v).into(), e.u.max(e.v).into(), e.w.to_bits()])
        .collect();
    edges.sort_unstable();
    let tree = fnv1a(edges.iter().flatten().flat_map(|x| x.to_le_bytes()));
    let events = fnv1a(
        trace
            .lines()
            .filter(|l| !l.starts_with("{\"t\":\"stage\""))
            .flat_map(|l| l.bytes().chain([b'\n'])),
    );
    write!(
        s,
        " fragments={} phases={phases} messages={} energy={:016x} rounds={} awake={awake} \
         repair={repair} tree={tree:016x} trace={events:016x}",
        out.fragments,
        out.stats.messages,
        out.stats.energy.to_bits(),
        out.stats.rounds
    )
    .unwrap();
    s
}

/// Compares `got` with section `[section]` of
/// `tests/fixtures/fault_ledgers.txt` line by line. Under
/// `GOLDEN_BLESS=1` it rewrites that section instead and keeps the others.
fn check_fault_ledgers(section: &str, got: &str) {
    use std::sync::{Mutex, PoisonError};
    static FILE: Mutex<()> = Mutex::new(());
    let _file = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fault_ledgers.txt");
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let header = format!("[{section}]");
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('[') {
            sections.push((line.to_owned(), String::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            writeln!(body, "{line}").unwrap();
        }
    }
    let found = sections.iter().position(|(h, _)| *h == header);
    if bless {
        match found {
            Some(i) => sections[i].1 = got.to_owned(),
            None => sections.push((header, got.to_owned())),
        }
        let text: String = sections
            .iter()
            .map(|(h, body)| format!("{h}\n{body}"))
            .collect();
        std::fs::write(&path, text).expect("fixture written");
        return;
    }
    let want = &sections[found.unwrap_or_else(|| panic!("fault_ledgers.txt lacks {header}"))].1;
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{header} diverged at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{header}: line count"
    );
}

fn protocols(n: usize) -> Vec<(&'static str, Protocol, Option<f64>)> {
    let r = paper_phase2_radius(n);
    vec![
        ("ghs-mod", Protocol::Ghs(GhsVariant::Modified), Some(r)),
        ("ghs-orig", Protocol::Ghs(GhsVariant::Original), Some(r)),
        ("eopt", Protocol::Eopt(Default::default()), None),
        ("nnt", Protocol::Nnt(RankScheme::Diagonal), None),
        ("bfs", Protocol::Bfs { root: 0 }, Some(r)),
    ]
}

fn sim<'a>(pts: &'a [Point], radius: Option<f64>) -> Sim<'a> {
    let mut sim = Sim::new(pts);
    if let Some(r) = radius {
        sim = sim.radius(r);
    }
    sim
}

#[test]
fn noop_plan_is_bit_identical_to_no_plan() {
    let pts = instance(250);
    for (label, protocol, radius) in protocols(250) {
        let capture = |faulted: bool| {
            let mut sink = JsonlSink::new(Vec::new());
            let mut s = sim(&pts, radius).sink(&mut sink);
            if faulted {
                s = s.with_faults(FaultPlan::none());
            }
            let out = s.run(protocol);
            (out, sink.finish().expect("in-memory write cannot fail"))
        };
        let (bare, bare_trace) = capture(false);
        let (noop, noop_trace) = capture(true);
        assert_eq!(
            bare.stats.energy.to_bits(),
            noop.stats.energy.to_bits(),
            "{label}: no-op plan changed the energy ledger"
        );
        assert_eq!(bare.stats.messages, noop.stats.messages, "{label}");
        assert_eq!(bare.stats.rounds, noop.stats.rounds, "{label}");
        assert!(bare.tree.same_edges(&noop.tree), "{label}: tree changed");
        assert_eq!(bare_trace, noop_trace, "{label}: trace bytes differ");
        assert!(noop.stats.faults.is_clean(), "{label}: phantom faults");
    }
}

/// Cross-check of the tree builders' clean and faulty paths. Both search
/// the topology's shared sorted rows with different per-entry state: a
/// clean run rejects departed entries up front (original variant) or
/// reads live fragment ids, or rows on demand with departures (modified
/// variants); a run under an effective plan marks each entry heard or
/// unheard in its own lossy hello round and caches fragment ids from its
/// announcements. Crashing the last node at a round no run reaches is
/// such a plan that never fires, so the faulty path serves as the
/// reference with no test-only switch: outcome, tree, ledger bits, awake
/// read-outs and every non-stage trace line must agree, with and without
/// departures and for the low-awake variant, whose sleep windows compose
/// with it. Each reference run's line is pinned in `fault_ledgers.txt`,
/// blessed from the engine that kept private neighbour rows for faulty
/// runs, so that engine's outputs stay the reference.
#[test]
fn never_firing_plan_matches_the_clean_shared_row_scan() {
    let protocols = tree_builders();
    let models = [
        ("paper", EnergyConfig::paper()),
        (
            "extended",
            EnergyConfig::extended(PathLoss::new(1.0, 3.0), 0.001, 0.0005),
        ),
    ];
    let mut reference_lines = String::new();
    for n in [60, 200, 2000] {
        let never_firing = FaultPlan::none().crash_at(n - 1, u64::MAX / 2);
        assert!(!never_firing.is_noop());
        let mut departed = Membership::all_live(n);
        for u in (3..n).step_by(7) {
            departed.leave(u);
        }
        let cases = protocols
            .iter()
            .flat_map(|&p| [(p, None), (p, Some(&departed))]);
        for seed in 0..3 {
            let pts = uniform_points(n, &mut trial_rng(0x0E16_0000 + seed, 0));
            for (((name, protocol), members), (model, energy)) in cases
                .clone()
                .flat_map(|case| models.map(|model| (case, model)))
            {
                let ctx = format!(
                    "{name} n={n} seed={seed} {model} departed={}",
                    members.is_some()
                );
                let capture = |plan: Option<&FaultPlan>| {
                    let mut sink = JsonlSink::new(Vec::new());
                    let mut s = sim(&pts, Some(paper_phase2_radius(n)))
                        .energy(energy)
                        .sink(&mut sink);
                    if let Some(plan) = plan {
                        s = s.with_faults(plan.clone());
                    }
                    if let Some(members) = members {
                        s = s.members(members.clone());
                    }
                    let outcome = s.try_run(protocol);
                    assert!(outcome.faults().is_clean(), "{ctx}: the plan fired");
                    let trace = sink.finish().expect("in-memory write cannot fail");
                    (outcome, String::from_utf8(trace).expect("utf-8 trace"))
                };
                let (clean_outcome, clean_trace) = capture(None);
                let (ref_outcome, ref_trace) = capture(Some(&never_firing));
                writeln!(
                    reference_lines,
                    "{ctx} {}",
                    ledger_line(&ref_outcome, &ref_trace)
                )
                .unwrap();
                assert_eq!(
                    clean_outcome.is_complete(),
                    ref_outcome.is_complete(),
                    "{ctx}: outcome"
                );
                let clean = clean_outcome.into_output().expect("non-failed outcome");
                let reference = ref_outcome.into_output().expect("non-failed outcome");
                assert_eq!(clean.fragments, reference.fragments, "{ctx}: fragments");
                assert_eq!(clean.tree.edges(), reference.tree.edges(), "{ctx}: tree");
                let (a, b) = (&clean.stats, &reference.stats);
                assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{ctx}: energy");
                assert_eq!(a.messages, b.messages, "{ctx}: messages");
                assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
                assert_eq!(a.awake, b.awake, "{ctx}: awake");
                let bits = |l: &EnergyLedger| {
                    let kinds: Vec<_> = l
                        .kinds()
                        .map(|(k, t)| (k, t.messages, t.energy.to_bits()))
                        .collect();
                    let extended = [l.rx_energy(), l.idle_energy(), l.full_energy()];
                    (kinds, l.rx_count(), extended.map(f64::to_bits))
                };
                assert_eq!(bits(&a.ledger), bits(&b.ledger), "{ctx}: ledger");
                if name == "ghs_original" {
                    assert!(a.ledger.kind("ghs/test").messages > 0, "{ctx}: no tests");
                }
                let events = |trace: &str| -> Vec<String> {
                    trace
                        .lines()
                        .filter(|l| !l.starts_with("{\"t\":\"stage\""))
                        .map(str::to_owned)
                        .collect()
                };
                let (x, y) = (events(&clean_trace), events(&ref_trace));
                assert_eq!(x.len(), y.len(), "{ctx}: trace length");
                for (i, (x, y)) in x.iter().zip(&y).enumerate() {
                    assert_eq!(x, y, "{ctx}: trace line {}", i + 1);
                }
            }
        }
    }
    check_fault_ledgers("never-firing", &reference_lines);
}

/// Pins faulty runs of every tree builder bitwise, one fixture line per
/// run: n = 300 at two seeds, under three plans — plain link loss; loss
/// with two crashes, two sleep windows and every 17th id departed; and
/// heavy loss with the repair stage. The modified variants and EOPT also
/// run at four shards, which must print the same line. Regenerate (only
/// when intentionally changing faulty-run behaviour) with
/// `GOLDEN_BLESS=1 cargo test --test integration_faults`.
#[test]
fn fault_ledgers_reproduce_their_fixture() {
    const N: usize = 300;
    let mut departed = Membership::all_live(N);
    for u in (0..N).step_by(17) {
        departed.leave(u);
    }
    let mut got = String::new();
    for seed in [0xA11CE, 0xB0B5] {
        let pts = uniform_points(N, &mut trial_rng(seed, 0));
        let plans = [
            (
                "drop=0.1",
                FaultPlan::none().drop_probability(0.1).seed(seed),
                None,
                false,
            ),
            (
                "drop=0.05+crash+sleep+departed",
                FaultPlan::none()
                    .drop_probability(0.05)
                    .seed(seed)
                    .crash_at(5, 12)
                    .crash_at(150, 40)
                    .sleep_between(30, 2, 30)
                    .sleep_between(200, 10, 60),
                Some(&departed),
                false,
            ),
            (
                "drop=0.2+repair",
                FaultPlan::none().drop_probability(0.2).seed(seed),
                None,
                true,
            ),
        ];
        for (name, protocol) in tree_builders() {
            for (plan_name, plan, members, repair) in &plans {
                let line = |shards: usize| {
                    let mut sink = JsonlSink::new(Vec::new());
                    let mut s = Sim::new(&pts)
                        .radius(paper_phase2_radius(N))
                        .with_faults(plan.clone())
                        .shards(shards)
                        .sink(&mut sink);
                    if let Some(members) = members {
                        s = s.members((*members).clone());
                    }
                    if *repair {
                        s = s.repair(RepairPolicy::default());
                    }
                    let outcome = s.try_run(protocol);
                    let trace = sink.finish().expect("in-memory write cannot fail");
                    ledger_line(&outcome, &String::from_utf8(trace).expect("utf-8 trace"))
                };
                let ctx = format!("{name} seed={seed:x} {plan_name}");
                let sequential = line(1);
                if name != "ghs_original" {
                    assert_eq!(line(4), sequential, "{ctx}: four shards");
                }
                writeln!(got, "{ctx} {sequential}").unwrap();
            }
        }
    }
    check_fault_ledgers("plans", &got);
}

#[test]
fn clean_runs_classify_as_complete() {
    let pts = instance(200);
    for (label, protocol, radius) in protocols(200) {
        let outcome = sim(&pts, radius).try_run(protocol);
        assert!(outcome.is_complete(), "{label}: clean run not Complete");
        assert!(outcome.faults().is_clean(), "{label}");
    }
}

#[test]
fn lossy_runs_finish_gracefully_with_populated_counters() {
    let pts = instance(300);
    let plan = FaultPlan::none().drop_probability(0.1).seed(0xD105_5000);
    for (label, protocol, radius) in protocols(300) {
        let outcome = sim(&pts, radius)
            .with_faults(plan.clone())
            .try_run(protocol);
        let faults = outcome.faults();
        assert!(
            faults.drops > 0,
            "{label}: 10% loss must drop something (drops={})",
            faults.drops
        );
        let out = outcome
            .output()
            .unwrap_or_else(|| panic!("{label}: lossy run produced no output"));
        // Degraded results may be partial, but never cyclic.
        assert!(
            out.tree.is_forest(),
            "{label}: {:?}",
            out.tree.validate_forest()
        );
        assert_eq!(
            out.fragments,
            out.tree.n() - out.tree.edges().len(),
            "{label}"
        );
        // The classification is exactly the documented predicate.
        let fs = out.stats.faults;
        let expect_degraded = fs.timeouts > 0 || (out.fragments > 1 && fs.drops > 0);
        assert_eq!(
            matches!(outcome, RunOutcome::Degraded { .. }),
            expect_degraded,
            "{label}: misclassified (fragments={}, faults={fs:?})",
            out.fragments
        );
    }
}

#[test]
fn crashed_and_sleeping_nodes_do_not_panic() {
    let pts = instance(200);
    let r = paper_phase2_radius(200);
    // Crash two nodes at the start, put one to sleep mid-run.
    let plan = FaultPlan::none()
        .crash_at(3, 0)
        .crash_at(117, 2)
        .sleep_between(50, 1, 40);
    for (label, protocol, radius) in [
        ("ghs-mod", Protocol::Ghs(GhsVariant::Modified), Some(r)),
        ("eopt", Protocol::Eopt(Default::default()), None),
        ("nnt", Protocol::Nnt(RankScheme::Diagonal), None),
        ("bfs", Protocol::Bfs { root: 0 }, Some(r)),
    ] {
        let outcome = sim(&pts, radius)
            .with_faults(plan.clone())
            .try_run(protocol);
        let out = outcome
            .output()
            .unwrap_or_else(|| panic!("{label}: crash schedule aborted the run"));
        assert!(out.tree.is_forest(), "{label}");
    }
}

#[test]
fn metrics_sink_conserves_the_ledger_under_faults() {
    // Retry surcharges and fault events flow through the same sink as
    // ordinary messages; the totals must still agree bitwise.
    let pts = instance(250);
    let plan = FaultPlan::none().drop_probability(0.05).seed(7);
    for (label, protocol, radius) in protocols(250) {
        let mut m = MetricsSink::new();
        let outcome = sim(&pts, radius)
            .with_faults(plan.clone())
            .sink(&mut m)
            .try_run(protocol);
        let out = outcome.output().expect("lossy run still finishes");
        assert_eq!(
            m.total_energy().to_bits(),
            out.stats.energy.to_bits(),
            "{label}: sink energy drifted from the ledger under faults"
        );
        assert_eq!(m.total_messages(), out.stats.messages, "{label}");
    }
}

#[test]
fn fault_coins_are_thread_count_independent() {
    // The same faulty trials fanned out on 1 and 8 worker threads must
    // produce bitwise-identical energies: fault coins depend only on
    // (seed, round, sender, receiver), never on scheduling.
    let kernel = |t: &u64| {
        let pts = uniform_points(150, &mut trial_rng(0x7E57, *t));
        let plan = FaultPlan::none().drop_probability(0.1).seed(*t ^ 0xC0);
        let outcome = sim(&pts, Some(paper_phase2_radius(150)))
            .with_faults(plan)
            .try_run(Protocol::Ghs(GhsVariant::Modified));
        let out = outcome.output().expect("lossy run still finishes");
        (out.stats.energy.to_bits(), out.stats.faults)
    };
    let trials: Vec<u64> = (0..6).collect();
    set_thread_override(Some(1));
    let serial = energy_mst::analysis::parallel_map(&trials, kernel);
    set_thread_override(Some(8));
    let parallel = energy_mst::analysis::parallel_map(&trials, kernel);
    set_thread_override(None);
    assert_eq!(serial, parallel, "fault runs depend on thread count");
}

#[test]
fn repair_upgrades_fragmented_lossy_runs() {
    // The PR 3 cliff: at 20% link loss the tree builders routinely end
    // `Degraded` with a fragmented forest. With the recovery runtime
    // enabled the same plans must land at `Repaired` (or `Complete`),
    // with a spanning forest — every node survives a drop-only plan.
    let pts = instance(300);
    let r = paper_phase2_radius(300);
    // EOPT's own eopt2/recover pass masks fragmentation at n=300 until
    // the loss rate climbs, hence the higher p for it. Seed windows are
    // chosen so each protocol fragments at least once (deterministic).
    for (label, protocol, radius, p, seeds) in [
        (
            "ghs-mod",
            Protocol::Ghs(GhsVariant::Modified),
            Some(r),
            0.2,
            16..22u64,
        ),
        (
            "eopt",
            Protocol::Eopt(Default::default()),
            None,
            0.35,
            24..30u64,
        ),
    ] {
        let mut upgraded = 0usize;
        for seed in seeds {
            let plan = FaultPlan::none().drop_probability(p).seed(0xF1F0 + seed);
            let bare = sim(&pts, radius)
                .with_faults(plan.clone())
                .try_run(protocol);
            let fragmented = bare.output().is_some_and(|o| o.fragments > 1);
            let fixed = sim(&pts, radius)
                .with_faults(plan)
                .repair(RepairPolicy::default())
                .try_run(protocol);
            match &fixed {
                RunOutcome::Complete(out) | RunOutcome::Repaired { output: out, .. } => {
                    assert_eq!(
                        out.fragments, 1,
                        "{label}/{seed}: usable outcome must span (drop-only plan)"
                    );
                    assert!(out.tree.validate_forest().is_ok(), "{label}/{seed}");
                }
                // A degraded run that already spans (timeouts only) has
                // nothing for the repair stage to reconnect.
                RunOutcome::Degraded { output, .. } => {
                    assert_eq!(
                        output.fragments, 1,
                        "{label}/{seed}: fragmented run left unrepaired"
                    );
                }
                RunOutcome::Failed { error, .. } => panic!("{label}/{seed}: {error}"),
            }
            if fragmented {
                assert!(
                    fixed.is_repaired(),
                    "{label}/{seed}: fragmented degraded run was not upgraded"
                );
                let repair = fixed.repair().expect("repaired outcome");
                assert!(repair.attempts >= 1, "{label}/{seed}");
                assert!(repair.fragments_before > 1, "{label}/{seed}");
                assert_eq!(repair.fragments_after, 1, "{label}/{seed}");
                assert_eq!(repair.survivors, 300, "{label}/{seed}: drop-only plan");
                assert!(
                    repair.energy > 0.0,
                    "{label}/{seed}: repair must be charged"
                );
                upgraded += 1;
            }
        }
        assert!(
            upgraded > 0,
            "{label}: no seed fragmented at p={p} — the scenario lost its teeth"
        );
    }
}

#[test]
fn repair_charges_the_shared_ledger_and_stage_log() {
    // Repair traffic is ordinary traffic: `repair/*` stage marks appear
    // in the stage log and the marks still telescope to the run totals,
    // and an attached metrics sink reproduces the ledger bitwise.
    let pts = instance(300);
    let r = paper_phase2_radius(300);
    let mut found = false;
    for seed in 0..6u64 {
        let plan = FaultPlan::none().drop_probability(0.2).seed(0xAB + seed);
        let mut m = MetricsSink::new();
        let outcome = sim(&pts, Some(r))
            .with_faults(plan)
            .repair(RepairPolicy::default())
            .sink(&mut m)
            .try_run(Protocol::Ghs(GhsVariant::Modified));
        let out = outcome.output().expect("lossy run still finishes");
        assert_eq!(m.total_energy().to_bits(), out.stats.energy.to_bits());
        assert_eq!(m.total_messages(), out.stats.messages);
        let msgs: u64 = out.stages.iter().map(|s| s.messages).sum();
        let energy: f64 = out.stages.iter().map(|s| s.energy).sum();
        assert_eq!(msgs, out.stats.messages);
        assert!((energy - out.stats.energy).abs() < 1e-9);
        if let Some(repair) = outcome.repair() {
            found = true;
            let repair_marks: Vec<_> = out.stages.iter().filter(|s| s.scope == "repair").collect();
            assert!(!repair_marks.is_empty(), "no repair stage marks recorded");
            // Two marks (discover + phases) per attempt.
            assert_eq!(repair_marks.len(), 2 * repair.attempts as usize);
            let repair_energy: f64 = repair_marks.iter().map(|s| s.energy).sum();
            assert_eq!(repair_energy.to_bits(), repair.energy.to_bits());
        }
    }
    assert!(found, "no seed exercised the repair stage");
}

#[test]
fn repair_is_elided_without_visible_damage() {
    // Enabling repair must not perturb clean runs (bit-identical trace)
    // or runs whose faults never bite.
    let pts = instance(250);
    for (label, protocol, radius) in protocols(250) {
        let capture = |with_repair: bool| {
            let mut sink = JsonlSink::new(Vec::new());
            let mut s = sim(&pts, radius).sink(&mut sink);
            if with_repair {
                s = s.repair(RepairPolicy::default());
            }
            let out = s.run(protocol);
            (out, sink.finish().expect("in-memory write cannot fail"))
        };
        let (bare, bare_trace) = capture(false);
        let (guarded, guarded_trace) = capture(true);
        assert_eq!(
            bare.stats.energy.to_bits(),
            guarded.stats.energy.to_bits(),
            "{label}: repair policy changed a clean run's ledger"
        );
        assert_eq!(bare.stats.messages, guarded.stats.messages, "{label}");
        assert!(bare.tree.same_edges(&guarded.tree), "{label}");
        assert_eq!(bare_trace, guarded_trace, "{label}: trace bytes differ");
    }
}

#[test]
fn repair_excludes_crashed_nodes_and_spans_the_rest() {
    let pts = instance(250);
    let r = paper_phase2_radius(250);
    let mut exercised = false;
    for seed in 0..6u64 {
        let plan = FaultPlan::none()
            .drop_probability(0.2)
            .seed(0xDEAD + seed)
            .crash_at(7, 5)
            .crash_at(133, 9);
        let outcome = sim(&pts, Some(r))
            .with_faults(plan)
            .repair(RepairPolicy::default())
            .try_run(Protocol::Ghs(GhsVariant::Modified));
        if let RunOutcome::Repaired { output, repair } = &outcome {
            exercised = true;
            assert_eq!(repair.crashed, 2, "both crash entries fired before repair");
            assert_eq!(repair.survivors, 248);
            assert!(output.tree.validate_forest().is_ok());
            // Survivors form one component; crashed nodes stay isolated.
            assert_eq!(output.fragments, 1 + repair.crashed);
            for e in output.tree.edges() {
                assert!(
                    e.u != 7 && e.v != 7 && e.u != 133 && e.v != 133,
                    "repaired forest keeps an edge at a crashed node"
                );
            }
        }
    }
    assert!(exercised, "no seed produced a Repaired run with crashes");
}

#[test]
fn same_plan_reproduces_bitwise_and_different_seeds_differ() {
    let pts = instance(200);
    let run = |seed: u64| {
        let plan = FaultPlan::none().drop_probability(0.1).seed(seed);
        let outcome = sim(&pts, Some(paper_phase2_radius(200)))
            .with_faults(plan)
            .try_run(Protocol::Eopt(Default::default()));
        let out = outcome.output().expect("lossy run still finishes");
        (out.stats.energy.to_bits(), out.stats.faults)
    };
    assert_eq!(run(11), run(11), "same fault seed must reproduce bitwise");
    assert_ne!(
        run(11).1,
        run(12).1,
        "different fault seeds should draw different coins"
    );
}
