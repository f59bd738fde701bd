//! Shard-count identity: sharding is a wall-clock knob, never a
//! semantics knob.
//!
//! [`Sim::shards`] partitions the GHS MOE stage across worker threads
//! under a fixed shard→node mapping and reduces per-shard results in
//! canonical sequential order. These tests pin the contract from three
//! directions:
//!
//! 1. **Golden pinning** — 4-shard runs must reproduce the pre-sharding
//!    golden fixtures byte-for-byte (tree bits, ledger bits, trace
//!    JSONL), clean and faulted;
//! 2. **Pairwise identity** — 2/4/8-shard runs render identically to the
//!    1-shard run, *including* stage marks and stage-boundary trace
//!    lines, through a `Repaired` outcome;
//! 3. **Property** — random instances, shard counts (including counts
//!    exceeding `n`), fault plans and both entry points
//!    ([`Sim::new`] vs [`Sim::from_instance`]) all agree bit-for-bit.
//!
//! The protocols no shard count touches (Co-NNT, GHS original and
//! low-awake, BFS, the elections) are pinned across the two entry points
//! on their own, and so are the row lookups each run makes through an
//! instance.

use energy_mst::core::{GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, Point};
use energy_mst::{FaultPlan, Instance, JsonlSink, Protocol, RepairPolicy, RunOutcome, Sim};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn instance_points(seed: u64, n: usize) -> Vec<Point> {
    uniform_points(n, &mut trial_rng(seed, 0))
}

/// The golden-fixture fault plan (see `tests/golden_fixtures.rs`).
fn fixture_fault_plan(n: usize) -> FaultPlan {
    FaultPlan::none()
        .drop_probability(0.03)
        .seed(0xFA57)
        .crash_at(n - 1, 40)
        .sleep_between(3, 6, 12)
}

#[derive(Clone)]
struct RenderCfg<'a> {
    protocol: Protocol,
    radius: Option<f64>,
    faults: Option<FaultPlan>,
    repair: bool,
    shards: usize,
    /// Run through `Sim::from_instance` instead of `Sim::new`.
    instance: Option<&'a Instance>,
    /// Strip `{"t":"stage"}` trace lines and omit the STAGES section —
    /// the golden fixtures predate stage events.
    fixture_compat: bool,
}

/// Renders one run into canonical text: status, tree (bit-exact
/// weights), ledger (bit-exact energy), stage marks, trace JSONL.
fn render(pts: &[Point], cfg: &RenderCfg<'_>) -> (String, RunOutcome) {
    let mut sink = JsonlSink::new(Vec::new());
    let mut sim = match cfg.instance {
        Some(inst) => Sim::from_instance(inst),
        None => Sim::new(pts),
    };
    sim = sim.shards(cfg.shards).sink(&mut sink);
    if let Some(r) = cfg.radius {
        sim = sim.radius(r);
    }
    if let Some(plan) = cfg.faults.clone() {
        sim = sim.with_faults(plan);
    }
    if cfg.repair {
        sim = sim.repair(RepairPolicy::default());
    }
    let outcome = sim.try_run(cfg.protocol);
    let (status, fstats) = match &outcome {
        RunOutcome::Complete(_) => ("complete", Default::default()),
        RunOutcome::Repaired { output, .. } => ("repaired", output.stats.faults),
        RunOutcome::Degraded { faults, .. } => ("degraded", *faults),
        RunOutcome::Failed { error, .. } => panic!("shard fixture run failed: {error}"),
    };
    let out = outcome.output().expect("non-failed outcome");
    let trace = String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8 trace");

    let mut s = String::new();
    writeln!(s, "STATUS {status}").unwrap();
    writeln!(
        s,
        "FAULTS drops={} retries={} timeouts={}",
        fstats.drops, fstats.retries, fstats.timeouts
    )
    .unwrap();
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
    if !cfg.fixture_compat {
        writeln!(s, "STAGES {}", out.stages.len()).unwrap();
        for m in &out.stages {
            writeln!(
                s,
                "{}/{} idx={} msgs={} rounds={} energy={:016x} drops={} retries={} timeouts={}",
                m.scope,
                m.name,
                m.index,
                m.messages,
                m.rounds,
                m.energy.to_bits(),
                m.faults.drops,
                m.faults.retries,
                m.faults.timeouts
            )
            .unwrap();
        }
    }
    writeln!(s, "TRACE").unwrap();
    for line in trace.lines() {
        if !(cfg.fixture_compat && line.starts_with("{\"t\":\"stage\"")) {
            writeln!(s, "{line}").unwrap();
        }
    }
    (s, outcome)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.txt"))
}

/// 4-shard runs must reproduce the pinned (pre-sharding, single-thread)
/// golden fixtures byte-for-byte for both sharded protocols.
#[test]
fn sharded_runs_reproduce_golden_fixtures() {
    const N: usize = 60;
    let r = paper_phase2_radius(N);
    let mut checked = 0usize;
    for seed in [0xA11CE_u64, 0xB0B5] {
        let pts = instance_points(seed, N);
        for (proto_name, protocol, radius) in [
            ("ghs_modified", Protocol::Ghs(GhsVariant::Modified), Some(r)),
            ("eopt", Protocol::Eopt(Default::default()), None),
        ] {
            for (mode, faults) in [("clean", None), ("faulted", Some(fixture_fault_plan(N)))] {
                let name = format!("{proto_name}_{seed:x}_{mode}");
                let (got, _) = render(
                    &pts,
                    &RenderCfg {
                        protocol,
                        radius,
                        faults,
                        repair: false,
                        shards: 4,
                        instance: None,
                        fixture_compat: true,
                    },
                );
                let want = std::fs::read_to_string(fixture_path(&name))
                    .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
                assert_eq!(
                    got, want,
                    "{name}: 4-shard run diverged from golden fixture"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 8);
}

/// 2/4/8-shard runs are byte-identical to 1-shard — ledger, stage marks
/// and full trace (stage lines included) — clean and under the fixture
/// fault plan.
#[test]
fn shard_counts_are_byte_identical() {
    const N: usize = 60;
    let r = paper_phase2_radius(N);
    for seed in [0xA11CE_u64, 0xB0B5] {
        let pts = instance_points(seed, N);
        for (protocol, radius) in [
            (Protocol::Ghs(GhsVariant::Modified), Some(r)),
            (Protocol::Eopt(Default::default()), None),
        ] {
            for faults in [None, Some(fixture_fault_plan(N))] {
                let base_cfg = RenderCfg {
                    protocol,
                    radius,
                    faults: faults.clone(),
                    repair: false,
                    shards: 1,
                    instance: None,
                    fixture_compat: false,
                };
                let (base, _) = render(&pts, &base_cfg);
                for shards in [2usize, 4, 8] {
                    let (got, _) = render(
                        &pts,
                        &RenderCfg {
                            shards,
                            faults: faults.clone(),
                            ..base_cfg.clone()
                        },
                    );
                    assert_eq!(
                        got,
                        base,
                        "{protocol:?} seed={seed:#x} faulted={} shards={shards}",
                        faults.is_some()
                    );
                }
            }
        }
    }
}

/// Shard identity holds *through the repair stage*: a lossy plan that
/// lands at `Repaired` renders identically at every shard count, and at
/// least one case in the window actually exercises `Repaired`.
#[test]
fn repaired_outcome_is_shard_invariant() {
    const N: usize = 300;
    // Same instance stream + seed window as integration_faults.rs, which
    // pins that this window fragments and repairs deterministically.
    let pts = instance_points(0x00FA_0170, N);
    let r = paper_phase2_radius(N);
    let mut repaired_seen = false;
    for seed in 16..22u64 {
        let plan = FaultPlan::none().drop_probability(0.2).seed(0xF1F0 + seed);
        let base_cfg = RenderCfg {
            protocol: Protocol::Ghs(GhsVariant::Modified),
            radius: Some(r),
            faults: Some(plan.clone()),
            repair: true,
            shards: 1,
            instance: None,
            fixture_compat: false,
        };
        let (base, outcome) = render(&pts, &base_cfg);
        repaired_seen |= matches!(outcome, RunOutcome::Repaired { .. });
        for shards in [2usize, 8] {
            let (got, _) = render(
                &pts,
                &RenderCfg {
                    shards,
                    faults: Some(plan.clone()),
                    ..base_cfg.clone()
                },
            );
            assert_eq!(got, base, "seed={seed} shards={shards}");
        }
    }
    assert!(repaired_seen, "window must exercise a Repaired outcome");
}

/// Renders `cfg` through `Sim::new` and through `Sim::from_instance(inst)`
/// and asserts that the two agree line by line.
fn assert_entry_points_agree<'a>(
    pts: &[Point],
    inst: &'a Instance,
    cfg: RenderCfg<'a>,
    what: &str,
) {
    let (base, _) = render(pts, &cfg);
    let (warm, _) = render(
        pts,
        &RenderCfg {
            instance: Some(inst),
            ..cfg
        },
    );
    assert!(base.lines().count() > 20, "{what}: empty render");
    for (k, (a, b)) in base.lines().zip(warm.lines()).enumerate() {
        assert_eq!(a, b, "{what}: line {k}");
    }
    assert_eq!(base.lines().count(), warm.lines().count(), "{what}");
}

/// The run-wide configuration of one render at one shard, no repair.
fn plain_cfg<'a>(
    protocol: Protocol,
    radius: Option<f64>,
    faults: Option<FaultPlan>,
) -> RenderCfg<'a> {
    RenderCfg {
        protocol,
        radius,
        faults,
        repair: false,
        shards: 1,
        instance: None,
        fixture_compat: false,
    }
}

/// Co-NNT fetches no rows, through either entry point: for every rank
/// scheme, clean and under the fixture fault plan, both entry points
/// render the same ledger and trace line by line, and the instance's row
/// cache never builds.
#[test]
fn co_nnt_renders_identically_through_both_entry_points() {
    for n in [60usize, 200, 2000] {
        let pts = instance_points(0xC0_4747 ^ n as u64, n);
        let inst = Instance::new(pts.clone());
        for scheme in [RankScheme::Diagonal, RankScheme::XOrder, RankScheme::NodeId] {
            for faults in [None, Some(fixture_fault_plan(n))] {
                let what = format!("n={n} {scheme:?} faulted={}", faults.is_some());
                let cfg = plain_cfg(Protocol::Nnt(scheme), None, faults);
                assert_entry_points_agree(&pts, &inst, cfg, &what);
            }
        }
        assert_eq!(inst.topology_cache_stats().misses, 0, "n={n}");
    }
}

/// GHS original and low-awake, BFS and both elections fetch their rows
/// on first use, a `Sim::new` run from a cache of its own and a
/// `Sim::from_instance` run from the instance's: clean and under the
/// fixture fault plan, both entry points render the same ledger, stage
/// marks and trace line by line.
#[test]
fn row_fetching_protocols_render_identically_through_both_entry_points() {
    for n in [60usize, 200] {
        let pts = instance_points(0x20_4747 ^ n as u64, n);
        let inst = Instance::new(pts.clone());
        let r = paper_phase2_radius(n);
        for name in [
            "ghs_original",
            "ghs_lowawake",
            "bfs",
            "election_flood",
            "election_tree",
        ] {
            let protocol = Protocol::from_name(name, 0).expect("registered name");
            for faults in [None, Some(fixture_fault_plan(n))] {
                let what = format!("n={n} {name} faulted={}", faults.is_some());
                assert_entry_points_agree(&pts, &inst, plain_cfg(protocol, Some(r), faults), &what);
            }
        }
    }
}

/// Every protocol run twice through `Sim::from_instance` on a fresh
/// instance asks the instance's row cache for exactly the rows it reads:
/// one row set for GHS, BFS and the elections (built by the first run,
/// found by the second), EOPT's r₂ rows and their r₁ restriction (two
/// builds, whose restriction finds the r₂ rows, then three hits), and
/// nothing for Co-NNT.
#[test]
fn instance_runs_fetch_exactly_the_rows_they_read() {
    const N: usize = 500;
    let r = paper_phase2_radius(N);
    for name in Protocol::NAMES {
        let protocol = Protocol::from_name(name, 0).expect("registered name");
        let inst = Instance::generate(0x20_4C55, N, 0);
        // (hits, misses, evictions, entries) after the first and second run.
        let want = match name {
            "eopt" => [(1, 2, 0, 2), (3, 2, 0, 2)],
            "co_nnt" | "nnt_xorder" | "nnt_id" => [(0, 0, 0, 0); 2],
            _ => [(0, 1, 0, 1), (1, 1, 0, 1)],
        };
        for (run, want) in want.into_iter().enumerate() {
            let out = Sim::from_instance(&inst).radius(r).run(protocol);
            let base = Sim::new(inst.points()).radius(r).run(protocol);
            assert_eq!(
                out.stats.energy.to_bits(),
                base.stats.energy.to_bits(),
                "{name} run {run}"
            );
            let s = inst.topology_cache_stats();
            assert_eq!(
                (s.hits, s.misses, s.evictions, s.len),
                want,
                "{name} run {run}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Random instances, shard counts (including counts larger than n),
    /// optional faults, both entry points: all render bit-identically.
    #[test]
    fn prop_shard_count_never_changes_a_run(
        seed in 0u64..1u64 << 40,
        n in 40usize..120,
        shards in 2usize..=9,
        lossy in any::<bool>(),
        eopt in any::<bool>(),
    ) {
        let pts = instance_points(seed, n);
        let (protocol, radius) = if eopt {
            (Protocol::Eopt(Default::default()), None)
        } else {
            (Protocol::Ghs(GhsVariant::Modified), Some(paper_phase2_radius(n)))
        };
        let faults = lossy.then(|| FaultPlan::none().drop_probability(0.05).seed(seed ^ 0xFA57));
        let base_cfg = RenderCfg {
            protocol,
            radius,
            faults: faults.clone(),
            repair: lossy,
            shards: 1,
            instance: None,
            fixture_compat: false,
        };
        let (base, _) = render(&pts, &base_cfg);
        let (sharded, _) = render(&pts, &RenderCfg { shards, faults: faults.clone(), ..base_cfg.clone() });
        prop_assert_eq!(&sharded, &base);
        // Instance reuse must be equally invisible: same points, shared
        // prebuilt topology, same bits — sharded and not.
        let inst = Instance::new(pts.clone());
        let (warm, _) = render(
            &pts,
            &RenderCfg { instance: Some(&inst), faults: faults.clone(), ..base_cfg.clone() },
        );
        prop_assert_eq!(&warm, &base);
        let (warm_sharded, _) = render(
            &pts,
            &RenderCfg { instance: Some(&inst), shards, faults, ..base_cfg.clone() },
        );
        prop_assert_eq!(&warm_sharded, &base);
    }
}
