//! One availability timeline per run: departures (`Sim::members`), the
//! adversary's link loss, crashes and sleep windows (`Sim::with_faults`)
//! and awake tracking (`Sim::awake`, `ghs_lowawake`) compose for every
//! protocol.
//!
//! * A proptest draws random departures, a lossy plan whose crashes and
//!   sleeps may name departed ids, tracking and repair. Every tree
//!   builder, reactive protocol and election must return a valid forest
//!   with no departed id in a tree edge or a message or fault event, a
//!   metrics sink equal to its stats bitwise, and stage marks that
//!   telescope to the run totals. `ghs_lowawake` must match
//!   `ghs_modified` with no more awake rounds, and tracking must never
//!   change a charge.
//! * The reactive engine skips departed nodes like crashed ones, so
//!   Co-NNT, BFS and the elections under `Sim::members` never send from
//!   a departed node or put a tree edge on one.

use energy_mst::core::{GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, PathLoss, Point};
use energy_mst::radio::{EnergyConfig, EnergyLedger};
use energy_mst::{
    FaultPlan, Membership, MetricsSink, Protocol, RepairPolicy, RunOutput, Sim, TraceEvent,
    TraceSink,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Extended energy: receptions and idle listening are charged, so the
/// departure and sleep predicates reach every ledger entry.
fn energy() -> EnergyConfig {
    EnergyConfig::extended(PathLoss::paper(), 0.001, 0.0005)
}

/// A metrics sink that also keeps every message and fault endpoint.
#[derive(Default)]
struct Observer {
    metrics: MetricsSink,
    endpoints: Vec<usize>,
}

impl TraceSink for Observer {
    fn record(&mut self, event: &TraceEvent) {
        self.metrics.record(event);
        if let TraceEvent::Message { src, dst, .. } | TraceEvent::Fault { src, dst, .. } = event {
            self.endpoints.push(*src);
            self.endpoints.extend(*dst);
        }
    }
}

/// One drawn configuration: everything but the protocol and tracking.
struct Case<'a> {
    pts: &'a [Point],
    members: &'a Membership,
    plan: &'a FaultPlan,
    repair: bool,
}

impl Case<'_> {
    fn run(&self, protocol: Protocol, track: bool) -> (RunOutput, Observer) {
        let mut obs = Observer::default();
        let mut sim = Sim::new(self.pts)
            .radius(paper_phase2_radius(self.pts.len()))
            .energy(energy())
            .members(self.members.clone())
            .with_faults(self.plan.clone())
            .awake(track)
            .sink(&mut obs);
        if self.repair {
            sim = sim.repair(RepairPolicy::default());
        }
        let out = sim
            .try_run(protocol)
            .into_output()
            .unwrap_or_else(|| panic!("{}: the run failed", protocol.name()));
        (out, obs)
    }
}

/// Per-kind transmit ledger and receptions, as bits.
fn tx_bits(l: &EnergyLedger) -> (Vec<(&'static str, u64, u64)>, u64, u64) {
    let kinds = l
        .kinds()
        .map(|(k, t)| (k, t.messages, t.energy.to_bits()))
        .collect();
    (kinds, l.rx_count(), l.rx_energy().to_bits())
}

/// The checks every protocol's run must pass.
fn check_run(name: &str, out: &RunOutput, obs: &Observer, members: &Membership, tracked: bool) {
    assert!(out.tree.validate_forest().is_ok(), "{name}: invalid forest");
    for e in out.tree.edges() {
        let (u, v) = (e.u as usize, e.v as usize);
        assert!(
            members.is_live(u) && members.is_live(v),
            "{name}: tree edge {u}-{v} on a departed node"
        );
    }
    if let Some(u) = obs.endpoints.iter().find(|&&u| !members.is_live(u)) {
        panic!("{name}: departed node {u} in a message or fault event");
    }
    let stats = &out.stats;
    assert_eq!(
        obs.metrics.total_energy().to_bits(),
        stats.energy.to_bits(),
        "{name}"
    );
    assert_eq!(obs.metrics.total_messages(), stats.messages, "{name}");
    assert_eq!(obs.metrics.rounds(), stats.rounds, "{name}");
    let marks = &out.stages;
    assert_eq!(
        marks.iter().map(|m| m.messages).sum::<u64>(),
        stats.messages,
        "{name}"
    );
    assert_eq!(
        marks.iter().map(|m| m.rounds).sum::<u64>(),
        stats.rounds,
        "{name}"
    );
    let energy: f64 = marks.iter().map(|m| m.energy).sum();
    assert!(
        (energy - stats.energy).abs() <= 1e-9 * stats.energy.max(1.0),
        "{name}: stage energy {energy} vs {}",
        stats.energy
    );
    assert_eq!(stats.awake.is_some(), tracked, "{name}: awake read-out");
    if let Some(awake) = stats.awake {
        let sum: u64 = marks.iter().map(|m| m.awake.expect("tracked mark")).sum();
        assert_eq!(sum, awake.total, "{name}: stage awake marks");
    }
}

/// splitmix64: a per-id departure coin from the case's seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn departures_faults_and_sleep_compose_for_every_protocol(
        seed in any::<u64>(),
        n in 30usize..120,
        depart_per_mille in 0u64..250,
        drop_pct in 0u32..=20,
        crashes in vec((any::<u64>(), 0u64..40), 0..4),
        sleeps in vec((any::<u64>(), 0u64..30, 1u64..=10), 0..4),
        track in any::<bool>(),
        repair in any::<bool>(),
    ) {
        let pts = uniform_points(n, &mut trial_rng(seed, 0));
        let mut members = Membership::all_live(n);
        for u in 1..n {
            if mix(seed ^ u as u64) % 1000 < depart_per_mille {
                members.leave(u);
            }
        }
        let departed: Vec<usize> = (0..n).filter(|&u| !members.is_live(u)).collect();
        // Every other entry names a departed id when there is one.
        let node = |i: usize, pick: u64| match departed.len() {
            0 => pick as usize % n,
            len if i.is_multiple_of(2) => departed[pick as usize % len],
            _ => pick as usize % n,
        };
        let mut plan = FaultPlan::none()
            .seed(seed)
            .drop_probability(f64::from(drop_pct) / 100.0);
        for (i, &(pick, round)) in crashes.iter().enumerate() {
            plan = plan.crash_at(node(i, pick), round);
        }
        for (i, &(pick, from, len)) in sleeps.iter().enumerate() {
            plan = plan.sleep_between(node(i, pick), from, from + len);
        }
        let case = Case { pts: &pts, members: &members, plan: &plan, repair };
        let ctx = format!("seed={seed} n={n} departed={departed:?} plan={}", plan.to_source());

        let protocols = [
            Protocol::Ghs(GhsVariant::Original),
            Protocol::Ghs(GhsVariant::Modified),
            Protocol::Eopt(Default::default()),
            Protocol::Nnt(RankScheme::Diagonal),
            // Node 0 never departs.
            Protocol::Bfs { root: 0 },
            Protocol::ElectionFlood,
            Protocol::ElectionTree,
        ];
        for protocol in protocols {
            let (out, obs) = case.run(protocol, track);
            check_run(&format!("{} {ctx}", protocol.name()), &out, &obs, &members, track);
        }

        // Tracking observes, never re-prices: tracked and untracked
        // modified runs charge the same bits, idle energy included.
        let (modified, _) = case.run(Protocol::Ghs(GhsVariant::Modified), true);
        let (untracked, _) = case.run(Protocol::Ghs(GhsVariant::Modified), false);
        prop_assert_eq!(tx_bits(&modified.stats.ledger), tx_bits(&untracked.stats.ledger), "{}", ctx);
        prop_assert_eq!(
            modified.stats.idle_energy.to_bits(),
            untracked.stats.idle_energy.to_bits(),
            "{}", ctx
        );

        // The low-awake variant changes when nodes listen, never what
        // they compute.
        let (low, obs) = case.run(Protocol::Ghs(GhsVariant::LowAwake), false);
        check_run(&format!("ghs_lowawake {ctx}"), &low, &obs, &members, true);
        prop_assert!(low.tree.same_edges(&modified.tree), "{}", ctx);
        prop_assert_eq!(tx_bits(&low.stats.ledger), tx_bits(&modified.stats.ledger), "{}", ctx);
        prop_assert_eq!(low.stats.rounds, modified.stats.rounds, "{}", ctx);
        prop_assert_eq!(low.stats.faults, modified.stats.faults, "{}", ctx);
        prop_assert!(low.stats.idle_energy <= modified.stats.idle_energy, "{}", ctx);
        let (la, ma) = (low.awake().unwrap(), modified.awake().unwrap());
        prop_assert!(la.total <= ma.total && la.max_per_node <= ma.max_per_node, "{}", ctx);
    }
}

/// The reactive engine used to ask only the fault plan who runs, so a
/// departed node still ran: at n = 200 with every fifth id departed,
/// Co-NNT returned tree edges on departed nodes (and a debug build
/// tripped the unicast assert). Departed nodes now never run.
#[test]
fn departed_nodes_never_run_in_the_reactive_engine() {
    let n = 200;
    let pts = uniform_points(n, &mut trial_rng(7, 0));
    let mut members = Membership::all_live(n);
    for u in (0..n).step_by(5) {
        members.leave(u);
    }
    let protocols = [
        Protocol::Nnt(RankScheme::Diagonal),
        Protocol::Bfs { root: 1 },
        Protocol::ElectionFlood,
        Protocol::ElectionTree,
    ];
    for protocol in protocols {
        let mut obs = Observer::default();
        let out = Sim::new(&pts)
            .radius(paper_phase2_radius(n))
            .members(members.clone())
            .sink(&mut obs)
            .run(protocol);
        let name = protocol.name();
        if matches!(protocol, Protocol::Nnt(_) | Protocol::Bfs { .. }) {
            assert!(!out.tree.edges().is_empty(), "{name}: no tree was built");
        }
        check_run(name, &out, &obs, &members, false);
    }
}
