//! Awake-complexity layer: elision pins, telescoping, and the low-awake
//! GHS variant.
//!
//! The sleep/wake scheduling layer must be invisible unless asked for:
//!
//! * an **untracked** run (the default) reports `None` for every awake
//!   read-out and produces ledgers and traces byte-identical to the
//!   pre-awake goldens (the existing `golden_fixtures` suite pins that
//!   side);
//! * a **tracked but all-awake** run (`Sim::awake(true)`, no sleep
//!   windows) must *still* reproduce the pinned fixtures byte-for-byte —
//!   tracking may add stage-mark telemetry, never perturb charging;
//! * per-stage awake marks telescope to the run total, exactly like
//!   energy/messages/rounds;
//! * awake tracking composes with membership (departed nodes accrue no
//!   awake rounds) and with fault injection, on one availability
//!   timeline;
//! * `ghs_lowawake` builds the same forest as `ghs_modified` in the same
//!   rounds and messages, with a strictly lower max-per-node awake count.

use energy_mst::core::{ConfigError, GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, PathLoss, Point};
use energy_mst::radio::network::EnergyConfig;
use energy_mst::{
    FaultPlan, JsonlSink, Membership, Protocol, RunOutcome, Sim, StageMark, TraceEvent, TraceSink,
};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 2] = [0xA11CE, 0xB0B5];
const N: usize = 60;

fn instance(seed: u64) -> Vec<Point> {
    uniform_points(N, &mut trial_rng(seed, 0))
}

fn cases() -> Vec<(&'static str, Protocol, Option<f64>)> {
    let r = paper_phase2_radius(N);
    vec![
        ("ghs_modified", Protocol::Ghs(GhsVariant::Modified), Some(r)),
        ("eopt", Protocol::Eopt(Default::default()), None),
        ("co_nnt", Protocol::Nnt(RankScheme::Diagonal), None),
        ("bfs", Protocol::Bfs { root: 0 }, Some(r)),
    ]
}

/// Renders one tracked clean run into the `golden_fixtures` canonical
/// text (same format, stage lines stripped) so it can be compared against
/// the pinned fixtures directly.
fn render_tracked(pts: &[Point], protocol: Protocol, radius: Option<f64>) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    let mut sim = Sim::new(pts).sink(&mut sink).awake(true);
    if let Some(r) = radius {
        sim = sim.radius(r);
    }
    let outcome = sim.try_run(protocol);
    let RunOutcome::Complete(out) = outcome else {
        panic!("clean tracked run must complete");
    };
    let trace = String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8 trace");

    let mut s = String::new();
    writeln!(s, "STATUS complete").unwrap();
    writeln!(s, "FAULTS drops=0 retries=0 timeouts=0").unwrap();
    writeln!(s, "FRAGMENTS {}", out.fragments).unwrap();
    writeln!(s, "TREE {}", out.tree.edges().len()).unwrap();
    let mut edges: Vec<_> = out
        .tree
        .edges()
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    edges.sort_by_key(|a| (a.0, a.1));
    for (u, v, w) in edges {
        writeln!(s, "{u} {v} {:016x}", w.to_bits()).unwrap();
    }
    let ledger = &out.stats.ledger;
    writeln!(
        s,
        "LEDGER total={} energy={:016x} rounds={}",
        ledger.total_messages(),
        ledger.total_energy().to_bits(),
        out.stats.rounds
    )
    .unwrap();
    for (kind, tally) in ledger.kinds() {
        writeln!(
            s,
            "{kind} {} {:016x}",
            tally.messages,
            tally.energy.to_bits()
        )
        .unwrap();
    }
    writeln!(s, "TRACE").unwrap();
    for line in trace.lines() {
        if !line.starts_with("{\"t\":\"stage\"") {
            writeln!(s, "{line}").unwrap();
        }
    }
    s
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.txt"))
}

/// Tracking with an all-awake schedule (no sleep windows) must reproduce
/// the pre-awake pinned fixtures byte-for-byte: same tree, same ledger
/// bits, same trace. This is the "all-awake ≡ no schedule" golden pin.
#[test]
fn all_awake_tracked_clean_runs_match_pinned_fixtures() {
    let mut checked = 0usize;
    for seed in SEEDS {
        let pts = instance(seed);
        for (proto_name, protocol, radius) in cases() {
            let name = format!("{proto_name}_{seed:x}_clean");
            let got = render_tracked(&pts, protocol, radius);
            let want = std::fs::read_to_string(fixture_path(&name))
                .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
            assert_eq!(
                got, want,
                "{name}: awake tracking perturbed a clean run (it must only observe)"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 8, "all clean fixture cases must be compared");
}

/// A sink that keeps every stage mark.
#[derive(Default)]
struct StageCollector(Vec<StageMark>);

impl TraceSink for StageCollector {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Stage(mark) = event {
            self.0.push(*mark);
        }
    }
}

/// Untracked runs must read out `None` everywhere: no awake total on the
/// run, no awake field on any stage mark.
#[test]
fn untracked_runs_report_no_awake_readouts() {
    let pts = instance(SEEDS[0]);
    let r = paper_phase2_radius(N);
    let mut sink = StageCollector::default();
    let out = Sim::new(&pts)
        .radius(r)
        .sink(&mut sink)
        .run(Protocol::Ghs(GhsVariant::Modified));
    assert!(out.awake().is_none(), "untracked run must not report awake");
    assert!(!sink.0.is_empty(), "stage runtime must emit marks");
    for mark in &sink.0 {
        assert!(
            mark.awake.is_none(),
            "untracked stage mark {}/{} carries an awake count",
            mark.scope,
            mark.name
        );
    }
}

/// Tracked runs with extended (rx + idle) energy must charge bit-identical
/// totals to untracked runs: the awake layer observes, never re-prices.
#[test]
fn tracked_extended_energy_is_bit_identical_to_untracked() {
    let pts = instance(SEEDS[1]);
    let r = paper_phase2_radius(N);
    let energy = EnergyConfig::extended(PathLoss::paper(), 0.1, 0.01);
    let base = Sim::new(&pts)
        .radius(r)
        .energy(energy)
        .run(Protocol::Ghs(GhsVariant::Modified));
    let tracked = Sim::new(&pts)
        .radius(r)
        .energy(energy)
        .awake(true)
        .run(Protocol::Ghs(GhsVariant::Modified));
    assert_eq!(base.stats.messages, tracked.stats.messages);
    assert_eq!(base.stats.rounds, tracked.stats.rounds);
    assert_eq!(
        base.stats.energy.to_bits(),
        tracked.stats.energy.to_bits(),
        "tx energy must be bit-identical"
    );
    assert_eq!(
        base.stats.rx_energy.to_bits(),
        tracked.stats.rx_energy.to_bits(),
        "rx energy must be bit-identical"
    );
    assert_eq!(
        base.stats.idle_energy.to_bits(),
        tracked.stats.idle_energy.to_bits(),
        "idle energy must be bit-identical (everyone is awake)"
    );
    let awake = tracked.awake().expect("tracked run reports awake");
    assert_eq!(awake.total, N as u64 * tracked.stats.rounds);
    assert_eq!(awake.max_per_node, tracked.stats.rounds);
}

/// Awake tracking composes with fault injection: the availability
/// timeline holds the adversary's sleep windows next to the scheduled
/// ones, so neither explicit tracking nor the low-awake variant (which
/// implies it) is refused under a plan. A *no-op* plan is elided.
#[test]
fn awake_with_faults_is_legal_and_noop_plans_elide() {
    let pts = instance(SEEDS[0]);
    let protocol = Protocol::Ghs(GhsVariant::Modified);
    let plan = || FaultPlan::none().drop_probability(0.05);
    let explicit = Sim::new(&pts).radius(0.5).awake(true).with_faults(plan());
    assert_eq!(explicit.check(protocol), Ok(()));
    let implied = Sim::new(&pts).radius(0.5).with_faults(plan());
    assert_eq!(implied.check(Protocol::Ghs(GhsVariant::LowAwake)), Ok(()));
    // A no-op plan elides to nothing and composes with tracking.
    let noop = Sim::new(&pts)
        .radius(0.5)
        .awake(true)
        .with_faults(FaultPlan::none());
    assert!(noop.check(protocol).is_ok());
}

/// Negative energy parameters surface as a typed config error instead of
/// a panic (the service maps `ConfigError` to HTTP 422, not 500).
#[test]
fn negative_energy_is_a_typed_config_error() {
    let pts = instance(SEEDS[0]);
    let bad_rx = EnergyConfig::extended(PathLoss::paper(), -1.0, 0.0);
    match Sim::new(&pts)
        .radius(0.5)
        .energy(bad_rx)
        .check(Protocol::Ghs(GhsVariant::Modified))
    {
        Err(ConfigError::NegativeEnergy { field }) => assert_eq!(field, "rx"),
        other => panic!("expected NegativeEnergy(rx), got {other:?}"),
    }
    let bad_idle = EnergyConfig::extended(PathLoss::paper(), 0.1, f64::NAN);
    match Sim::new(&pts)
        .radius(0.5)
        .energy(bad_idle)
        .check(Protocol::Ghs(GhsVariant::Modified))
    {
        Err(ConfigError::NegativeEnergy { field }) => assert_eq!(field, "idle_per_round"),
        other => panic!("expected NegativeEnergy(idle), got {other:?}"),
    }
}

/// Awake tracking composes with membership: dead nodes accrue no awake
/// rounds, so an all-awake tracked run totals exactly
/// `live · rounds`.
#[test]
fn membership_composes_dead_nodes_accrue_nothing() {
    let pts = instance(SEEDS[1]);
    let r = paper_phase2_radius(N);
    let mut members = Membership::all_live(N);
    members.leave(7);
    members.leave(23);
    members.leave(41);
    let out = Sim::new(&pts)
        .radius(r)
        .members(members)
        .awake(true)
        .run(Protocol::Ghs(GhsVariant::Modified));
    let awake = out.awake().expect("tracked run reports awake");
    assert_eq!(
        awake.total,
        (N as u64 - 3) * out.stats.rounds,
        "each live node accrues every round; dead nodes accrue none"
    );
    assert_eq!(awake.max_per_node, out.stats.rounds);
}

/// The low-awake GHS variant changes *when nodes listen*, never what they
/// compute: same forest, same messages, same rounds as `ghs_modified` —
/// but a strictly smaller awake total, and a strictly smaller max-per-node
/// awake count than the all-awake baseline.
#[test]
fn lowawake_matches_modified_outputs_with_fewer_awake_rounds() {
    for seed in SEEDS {
        let pts = instance(seed);
        let r = paper_phase2_radius(N);
        let base = Sim::new(&pts)
            .radius(r)
            .awake(true)
            .run(Protocol::Ghs(GhsVariant::Modified));
        let low = Sim::new(&pts)
            .radius(r)
            .run(Protocol::Ghs(GhsVariant::LowAwake));
        assert_eq!(base.fragments, low.fragments);
        assert_eq!(base.stats.messages, low.stats.messages);
        assert_eq!(base.stats.rounds, low.stats.rounds);
        let mut be: Vec<_> = base
            .tree
            .edges()
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
            .collect();
        let mut le: Vec<_> = low
            .tree
            .edges()
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
            .collect();
        be.sort_unstable();
        le.sort_unstable();
        assert_eq!(be, le, "low-awake must build the identical forest");
        let base_awake = base.awake().expect("tracked");
        let low_awake = low.awake().expect("low-awake implies tracking");
        assert!(
            low_awake.total < base_awake.total,
            "seed {seed:#x}: low-awake total {} must beat all-awake {}",
            low_awake.total,
            base_awake.total
        );
        assert!(
            low_awake.max_per_node < base_awake.max_per_node,
            "seed {seed:#x}: low-awake max/node {} must beat all-awake {}",
            low_awake.max_per_node,
            base_awake.max_per_node
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-stage awake marks telescope to the run total, for both the
    /// tracked modified variant and the low-awake variant: stage marks
    /// partition the clock, and awake rounds only accrue when the clock
    /// moves.
    #[test]
    fn stage_awake_marks_telescope_to_run_total(
        seed in any::<u64>(),
        n in 20usize..70,
        low in any::<bool>(),
    ) {
        let pts = uniform_points(n, &mut trial_rng(seed, 0));
        let r = paper_phase2_radius(n);
        let variant = if low { GhsVariant::LowAwake } else { GhsVariant::Modified };
        let mut sink = StageCollector::default();
        let out = Sim::new(&pts)
            .radius(r)
            .awake(true)
            .sink(&mut sink)
            .run(Protocol::Ghs(variant));
        let total = out.awake().expect("tracked run reports awake").total;
        let mut sum = 0u64;
        for mark in &sink.0 {
            sum += mark.awake.expect("tracked stage marks carry awake");
        }
        prop_assert_eq!(sum, total, "stage awake marks must telescope");
    }
}
