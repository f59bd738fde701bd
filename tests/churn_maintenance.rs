//! Churn maintenance equivalence and the fixed-membership identity.
//!
//! The maintenance loop's whole value rests on two contracts:
//!
//! 1. **Exactness** — per-epoch incremental maintenance ends every
//!    timeline on the *same forest* (edge-for-edge, hence bitwise in
//!    weights — endpoints determine weights in geometric instances) as
//!    from-scratch recomputation on the same live set, and both match
//!    the Kruskal MSF of the live unit-disk subgraph. Property-tested
//!    over random instances and random well-formed timelines.
//! 2. **Elision** — a membership layer that says "everyone is alive"
//!    must be a no-op: a run with `Membership::all_live(n)` attached is
//!    bit-identical (energy bits, message counts, tree weight bits) to
//!    a plain run, and both still reproduce the PR 6 golden fixture.
//!    Static-topology users pay nothing for the lifecycle layer.

use energy_mst::core::GhsVariant;
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points};
use energy_mst::graph::disk_msf;
use energy_mst::{maintain, ChurnTimeline, MaintainStrategy, Membership, Protocol, Sim};
use proptest::prelude::*;
use std::path::PathBuf;

/// Maps proptest-drawn raw events into a well-formed timeline, with the
/// same liveness bookkeeping the chaos generator keeps: only live nodes
/// crash/sleep/move, only sleepers wake, join ids follow universe
/// growth. Inapplicable draws are skipped, so every generated (and
/// every *shrunk*) input is valid.
fn build_timeline(n: usize, raw: &[Vec<(u8, u16, f64, f64)>]) -> ChurnTimeline {
    let mut tl = ChurnTimeline::new(raw.len());
    let mut alive: Vec<usize> = (0..n).collect();
    let mut sleeping: Vec<usize> = Vec::new();
    let mut universe = n;
    for (e, events) in raw.iter().enumerate() {
        for &(kind, pick, x, y) in events {
            let pick = pick as usize;
            match kind {
                0 => {
                    tl = tl.join(e, x, y);
                    alive.push(universe);
                    universe += 1;
                }
                1 if alive.len() > 1 => {
                    let u = alive.swap_remove(pick % alive.len());
                    tl = tl.crash(e, u);
                }
                2 if alive.len() > 1 => {
                    let u = alive.swap_remove(pick % alive.len());
                    sleeping.push(u);
                    tl = tl.sleep(e, u);
                }
                3 if !sleeping.is_empty() => {
                    let u = sleeping.swap_remove(pick % sleeping.len());
                    alive.push(u);
                    tl = tl.wake(e, u);
                }
                4 if !alive.is_empty() => {
                    let u = alive[pick % alive.len()];
                    tl = tl.move_to(e, u, x, y);
                }
                _ => {}
            }
        }
    }
    tl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: incremental == recompute == Kruskal, with every epoch
    /// conserving its ledger bitwise and keeping the forest valid.
    #[test]
    fn incremental_maintenance_is_exact(
        seed in any::<u64>(),
        n in 30usize..80,
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..5, 0u16..u16::MAX, 0.0..1.0f64, 0.0..1.0f64),
                0..4,
            ),
            1..4,
        ),
    ) {
        let pts = uniform_points(n, &mut trial_rng(seed, 0));
        let radius = paper_phase2_radius(n);
        let tl = build_timeline(n, &raw);
        let inc = maintain(&pts, radius, &tl, MaintainStrategy::Incremental);
        let rec = maintain(&pts, radius, &tl, MaintainStrategy::Recompute);
        prop_assert!(inc.bootstrap_conserved && rec.bootstrap_conserved);
        prop_assert_eq!(&inc.members, &rec.members);
        prop_assert_eq!(&inc.points, &rec.points);
        for rep in [&inc, &rec] {
            for (i, e) in rep.epochs.iter().enumerate() {
                prop_assert_eq!(e.epoch, i as u64 + 1, "epoch counter must be monotone");
                prop_assert!(e.ledger_conserved, "epoch {} leaked energy", e.epoch);
                prop_assert!(e.forest_valid, "epoch {} broke the forest", e.epoch);
            }
        }
        prop_assert!(
            inc.tree().same_edges(&rec.tree()),
            "strategies disagree on {}",
            tl.to_source()
        );
        let truth = disk_msf(&inc.points, radius, |u| inc.members.is_live(u));
        prop_assert!(
            inc.tree().same_edges(&truth),
            "maintained forest is not the live MSF on {}",
            tl.to_source()
        );
    }

    /// Contract 2 (property form): attaching an all-live membership to a
    /// plain run changes no bit of the ledger or the tree.
    #[test]
    fn all_live_membership_is_a_bitwise_noop(seed in any::<u64>(), n in 30usize..90) {
        let pts = uniform_points(n, &mut trial_rng(seed, 0));
        let r = paper_phase2_radius(n);
        let plain = Sim::new(&pts).radius(r).run(Protocol::Ghs(GhsVariant::Modified));
        let with_members = Sim::new(&pts)
            .radius(r)
            .members(Membership::all_live(n))
            .run(Protocol::Ghs(GhsVariant::Modified));
        prop_assert_eq!(
            plain.stats.energy.to_bits(),
            with_members.stats.energy.to_bits()
        );
        prop_assert_eq!(plain.stats.messages, with_members.stats.messages);
        prop_assert_eq!(plain.stats.rounds, with_members.stats.rounds);
        prop_assert_eq!(plain.tree.edges().len(), with_members.tree.edges().len());
        for (a, b) in plain.tree.edges().iter().zip(with_members.tree.edges()) {
            prop_assert_eq!((a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()));
        }
    }
}

/// Contract 2 (pinned form): the all-live-membership run still
/// reproduces the PR 6 golden fixture's tree bit-for-bit — the
/// membership layer did not perturb the frozen clean-run behaviour.
#[test]
fn fixed_membership_reproduces_the_golden_fixture() {
    const N: usize = 60;
    let pts = uniform_points(N, &mut trial_rng(0xA11CE, 0));
    let r = paper_phase2_radius(N);
    let out = Sim::new(&pts)
        .radius(r)
        .members(Membership::all_live(N))
        .run(Protocol::Ghs(GhsVariant::Modified));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ghs_modified_a11ce_clean.txt");
    let fixture = std::fs::read_to_string(&path).expect("golden fixture present");
    let mut lines = lines_after_tree_header(&fixture);
    let count: usize = lines
        .next()
        .expect("TREE count")
        .parse()
        .expect("edge count");
    assert_eq!(
        out.tree.edges().len(),
        count,
        "edge count drifted from the golden"
    );
    // The fixture writes edges sorted by normalized endpoints.
    let mut edges: Vec<_> = out
        .tree
        .edges()
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    edges.sort_by_key(|e| (e.0, e.1));
    for (i, edge) in edges.iter().enumerate() {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("fixture truncated at edge {i}"));
        let mut parts = line.split_whitespace();
        let u: u32 = parts.next().expect("u").parse().expect("u");
        let v: u32 = parts.next().expect("v").parse().expect("v");
        let bits = u64::from_str_radix(parts.next().expect("w bits"), 16).expect("hex bits");
        assert_eq!(
            (edge.0, edge.1, edge.2.to_bits()),
            (u, v, bits),
            "edge {i} drifted from the golden fixture"
        );
    }
}

/// The timeline of the maintenance-ledger fixture: ten epochs over an
/// n-node instance, each mixing a crash (every third epoch), two sleeps,
/// a wake, two moves and a join (every other epoch), with ids and
/// positions drawn from `trial_rng(seed, 1)` under the liveness
/// bookkeeping of [`build_timeline`].
fn fixture_timeline(n: usize, seed: u64) -> ChurnTimeline {
    use rand::Rng;
    const EPOCHS: usize = 10;
    let mut rng = trial_rng(seed, 1);
    let mut tl = ChurnTimeline::new(EPOCHS);
    let mut alive: Vec<usize> = (0..n).collect();
    let mut sleeping: Vec<usize> = Vec::new();
    let mut universe = n;
    for e in 0..EPOCHS {
        if e % 3 == 0 {
            tl = tl.crash(e, alive.swap_remove(rng.gen_range(0..alive.len())));
        }
        for _ in 0..2 {
            let u = alive.swap_remove(rng.gen_range(0..alive.len()));
            sleeping.push(u);
            tl = tl.sleep(e, u);
        }
        if e > 0 {
            let u = sleeping.swap_remove(rng.gen_range(0..sleeping.len()));
            alive.push(u);
            tl = tl.wake(e, u);
        }
        for _ in 0..2 {
            let u = alive[rng.gen_range(0..alive.len())];
            tl = tl.move_to(e, u, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        }
        if e % 2 == 0 {
            tl = tl.join(e, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            alive.push(universe);
            universe += 1;
        }
    }
    tl
}

/// Renders one maintained timeline into the fixture text: the bootstrap
/// ledger, one line per epoch (energy bits, messages, rounds, forest
/// edges added and removed, fragments), then the final forest.
fn render_maintenance(n: usize, seed: u64, strategy: MaintainStrategy) -> String {
    use std::fmt::Write as _;
    let pts = uniform_points(n, &mut trial_rng(seed, 0));
    let r = paper_phase2_radius(n);
    let rep = maintain(&pts, r, &fixture_timeline(n, seed), strategy);
    let mut s = String::new();
    writeln!(s, "RUN {} seed={seed:x} n={n}", strategy.name()).unwrap();
    writeln!(
        s,
        "BOOTSTRAP energy={:016x} messages={} rounds={}",
        rep.bootstrap_energy.to_bits(),
        rep.bootstrap_messages,
        rep.bootstrap_rounds
    )
    .unwrap();
    for e in &rep.epochs {
        assert!(
            e.ledger_conserved && e.forest_valid,
            "{} seed {seed:x}: epoch {} broke an invariant",
            strategy.name(),
            e.epoch
        );
        writeln!(
            s,
            "EPOCH {} live={} arrivals={} departures={} energy={:016x} messages={} \
             rounds={} added={} removed={} fragments={}",
            e.epoch,
            e.live,
            e.arrivals,
            e.departures,
            e.energy.to_bits(),
            e.messages,
            e.rounds,
            e.edges_added,
            e.edges_removed,
            e.fragments
        )
        .unwrap();
    }
    let mut edges: Vec<_> = rep
        .forest
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    edges.sort_by_key(|e| (e.0, e.1));
    writeln!(s, "FOREST {}", edges.len()).unwrap();
    for (u, v, w) in edges {
        writeln!(s, "{u} {v} {:016x}", w.to_bits()).unwrap();
    }
    s
}

/// Pins the per-epoch ledgers of both maintenance strategies bitwise: two
/// seeds at n = 300, ten epochs of joins, moves, sleeps, wakes and
/// crashes each, and the final forest. Regenerate (only when
/// intentionally changing maintenance behaviour) with
/// `GOLDEN_BLESS=1 cargo test --test churn_maintenance`.
#[test]
fn maintenance_ledgers_reproduce_their_fixture() {
    const N: usize = 300;
    let mut got = String::new();
    for strategy in [MaintainStrategy::Incremental, MaintainStrategy::Recompute] {
        for seed in [0xA11CE, 0xB0B5] {
            got.push_str(&render_maintenance(N, seed, strategy));
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/maintain_ledgers.txt");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("maintenance fixture present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "maintenance fixture diverged at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}

/// Yields the fixture lines starting at the TREE section's count.
fn lines_after_tree_header(fixture: &str) -> impl Iterator<Item = &str> {
    let mut lines = fixture.lines();
    for line in lines.by_ref() {
        if let Some(rest) = line.strip_prefix("TREE ") {
            return std::iter::once(rest).chain(lines);
        }
    }
    panic!("fixture has no TREE section");
}

/// A no-op timeline through the facade: `maintain` is exactly the
/// bootstrap run, and the epoch counter still advances.
#[test]
fn noop_timeline_is_the_bootstrap_run() {
    let pts = uniform_points(80, &mut trial_rng(0xB0B5, 0));
    let r = paper_phase2_radius(80);
    let plain = Sim::new(&pts)
        .radius(r)
        .run(Protocol::Ghs(GhsVariant::Modified));
    let rep = maintain(
        &pts,
        r,
        &ChurnTimeline::new(2),
        MaintainStrategy::Incremental,
    );
    assert_eq!(rep.bootstrap_energy.to_bits(), plain.stats.energy.to_bits());
    assert!(rep.tree().same_edges(&plain.tree));
    assert_eq!(rep.members.epoch(), 2);
    assert_eq!(rep.maintenance_energy(), 0.0);
}
