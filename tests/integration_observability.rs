//! Observability-layer guarantees, exercised end-to-end through the
//! facade: the trace a run emits is part of its reproducibility contract
//! (same seed → byte-identical event log), and the metrics a sink
//! aggregates must conserve the run's own ledger exactly (same float
//! accumulation order — bitwise, not approximate).

use energy_mst::core::{GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, Point};
use energy_mst::radio::Tally;
use energy_mst::{FaultPlan, JsonlSink, Membership, MetricsSink, Protocol, Sim};

fn instance(n: usize) -> Vec<Point> {
    uniform_points(n, &mut trial_rng(0x0B5E_11CE, 0))
}

fn protocols(n: usize) -> Vec<(&'static str, Protocol, Option<f64>)> {
    let r = paper_phase2_radius(n);
    vec![
        ("ghs-mod", Protocol::Ghs(GhsVariant::Modified), Some(r)),
        ("eopt", Protocol::Eopt(Default::default()), None),
        ("nnt", Protocol::Nnt(RankScheme::Diagonal), None),
    ]
}

fn run_with_sink(
    pts: &[Point],
    protocol: Protocol,
    radius: Option<f64>,
    sink: &mut dyn energy_mst::TraceSink,
) -> energy_mst::RunOutput {
    let mut sim = Sim::new(pts).sink(sink);
    if let Some(r) = radius {
        sim = sim.radius(r);
    }
    sim.run(protocol)
}

#[test]
fn golden_trace_same_seed_gives_byte_identical_jsonl() {
    let pts = instance(300);
    for (label, protocol, radius) in protocols(300) {
        let capture = || {
            let mut sink = JsonlSink::new(Vec::new());
            run_with_sink(&pts, protocol, radius, &mut sink);
            sink.finish().expect("in-memory write cannot fail")
        };
        let (a, b) = (capture(), capture());
        assert!(!a.is_empty(), "{label}: trace must not be empty");
        assert_eq!(a, b, "{label}: trace bytes differ between identical runs");
        // Every line is an object of the documented shape.
        let text = String::from_utf8(a).expect("trace is UTF-8");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "{label}: malformed JSONL line: {line}"
            );
        }
    }
}

#[test]
fn metrics_sink_conserves_the_ledger_exactly() {
    // The sink accumulates in charge order, so its totals must equal the
    // run's `RunStats` *bitwise* — any drift means an event was dropped,
    // double-counted, or re-associated.
    let pts = instance(400);
    for (label, protocol, radius) in protocols(400) {
        let mut m = MetricsSink::new();
        let out = run_with_sink(&pts, protocol, radius, &mut m);
        assert_eq!(
            m.total_energy().to_bits(),
            out.stats.energy.to_bits(),
            "{label}: sink energy drifted from the ledger"
        );
        assert_eq!(
            m.total_messages(),
            out.stats.messages,
            "{label}: sink message count drifted"
        );
        assert_eq!(m.rounds(), out.stats.rounds, "{label}: round count drifted");
        // Per-kind partition covers everything (integer counts are exact).
        let kind_msgs: u64 = m.kinds().map(|(_, t)| t.messages).sum();
        assert_eq!(
            kind_msgs, out.stats.messages,
            "{label}: kinds lose messages"
        );
        // Per-node partition too: every message has exactly one sender.
        let node_msgs: u64 = m.node_tallies().iter().map(|t| t.messages).sum();
        assert_eq!(
            node_msgs, out.stats.messages,
            "{label}: nodes lose messages"
        );
        // Float partitions re-associate the sum; they must still agree to
        // within accumulation noise.
        let kind_energy: f64 = m.kinds().map(|(_, t)| t.energy).sum();
        assert!(
            (kind_energy - out.stats.energy).abs() < 1e-9,
            "{label}: per-kind energies sum to {kind_energy}, ledger {}",
            out.stats.energy
        );
    }
}

#[test]
fn tally_sink_conserves_the_ledger_on_clean_restricted_and_faulty_runs() {
    // The totals-only sink sums in charge order too, so it must equal the
    // run's `RunStats` bitwise whoever takes part and whatever is lost.
    let n = 400;
    let pts = instance(n);
    let mut members = Membership::all_live(n);
    for u in (0..n).step_by(9) {
        members.leave(u);
    }
    let plan = FaultPlan::none().drop_probability(0.05).seed(7);
    for (label, protocol, radius) in protocols(n) {
        for mode in ["clean", "restricted", "faulty"] {
            let mut tally = Tally::default();
            let mut sim = Sim::new(&pts).sink(&mut tally);
            if let Some(r) = radius {
                sim = sim.radius(r);
            }
            sim = match mode {
                "restricted" => sim.members(members.clone()),
                "faulty" => sim.with_faults(plan.clone()),
                _ => sim,
            };
            let outcome = sim.try_run(protocol);
            let out = outcome.output().expect("the run finishes");
            assert_eq!(
                tally.energy.to_bits(),
                out.stats.energy.to_bits(),
                "{label}, {mode}: tally energy drifted from the ledger"
            );
            assert_eq!(tally.messages, out.stats.messages, "{label}, {mode}");
        }
    }
}

#[test]
fn attaching_a_sink_does_not_perturb_the_run() {
    // Observation must be passive: the same seed with and without a sink
    // yields bitwise-identical stats and the same tree.
    let pts = instance(300);
    for (label, protocol, radius) in protocols(300) {
        let mut m = MetricsSink::new();
        let observed = run_with_sink(&pts, protocol, radius, &mut m);
        let bare = {
            let mut sim = Sim::new(&pts);
            if let Some(r) = radius {
                sim = sim.radius(r);
            }
            sim.run(protocol)
        };
        assert_eq!(
            observed.stats.energy.to_bits(),
            bare.stats.energy.to_bits(),
            "{label}: sink changed the energy"
        );
        assert_eq!(observed.stats.messages, bare.stats.messages, "{label}");
        assert_eq!(observed.stats.rounds, bare.stats.rounds, "{label}");
        assert!(
            observed.tree.same_edges(&bare.tree),
            "{label}: sink changed the tree"
        );
    }
}
