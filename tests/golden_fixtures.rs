//! Refactor-equivalence golden fixtures.
//!
//! These fixtures were pinned from the pre-stage-runtime implementation
//! (PR 3 tree edges, energy ledger, and trace JSONL at fixed seeds, with
//! and without faults). The stage runtime must reproduce every one of
//! them **bit-for-bit** — float payloads are compared through `to_bits`,
//! traces byte-for-byte.
//!
//! The only tolerated difference is purely additive: `{"t":"stage",...}`
//! lines (stage-boundary events introduced by the stage runtime) are
//! stripped from the observed trace before comparison, because the
//! pre-refactor code could not emit them. Everything else — message
//! order, rounds, phases, merges, faults — must match exactly.
//!
//! The `departed` mode restricts the tree builders to a live set (ids 7,
//! 23 and 41 left before the run). Co-NNT and BFS have no such fixture.
//!
//! Regenerate (only when intentionally changing protocol behaviour) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_fixtures
//! ```

use energy_mst::core::{GhsVariant, RankScheme};
use energy_mst::geom::{paper_phase2_radius, trial_rng, uniform_points, Point};
use energy_mst::{FaultPlan, JsonlSink, Membership, Protocol, RepairPolicy, RunOutcome, Sim};
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
        ("ghs_original", Protocol::Ghs(GhsVariant::Original), Some(r)),
        ("ghs_modified", Protocol::Ghs(GhsVariant::Modified), Some(r)),
        ("eopt", Protocol::Eopt(Default::default()), None),
        ("co_nnt", Protocol::Nnt(RankScheme::Diagonal), None),
        ("bfs", Protocol::Bfs { root: 0 }, Some(r)),
    ]
}

/// The faulted variant of every case: light link loss plus one crash and
/// one sleep window, exercising the retry/timeout paths without pushing
/// any protocol into `Failed`.
fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .drop_probability(0.03)
        .seed(0xFA57)
        .crash_at(N - 1, 40)
        .sleep_between(3, 6, 12)
}

/// The live set of the `departed` mode: ids 7, 23 and 41 have left.
fn departed() -> Membership {
    let mut members = Membership::all_live(N);
    for u in [7, 23, 41] {
        members.leave(u);
    }
    members
}

/// Renders one run into the canonical fixture text. `repair` enables the
/// recovery runtime — used by the refresh guard, which pins that doing so
/// leaves clean runs bit-identical.
fn render(
    pts: &[Point],
    protocol: Protocol,
    radius: Option<f64>,
    faults: Option<FaultPlan>,
    members: Option<Membership>,
    repair: bool,
) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    let mut sim = Sim::new(pts).sink(&mut sink);
    if let Some(r) = radius {
        sim = sim.radius(r);
    }
    if let Some(plan) = faults.clone() {
        sim = sim.with_faults(plan);
    }
    if let Some(members) = members {
        sim = sim.members(members);
    }
    if repair {
        sim = sim.repair(RepairPolicy::default());
    }
    let outcome = sim.try_run(protocol);
    let (status, fstats) = match &outcome {
        RunOutcome::Complete(_) => ("complete", Default::default()),
        RunOutcome::Repaired { output, .. } => ("repaired", output.stats.faults),
        RunOutcome::Degraded { faults, .. } => ("degraded", *faults),
        RunOutcome::Failed { error, .. } => panic!("fixture run failed: {error}"),
    };
    let out = outcome.into_output().expect("non-failed outcome");
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
    writeln!(s, "TRACE").unwrap();
    // Stage-boundary events are the stage runtime's own (additive)
    // telemetry; everything else is pinned byte-for-byte.
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

#[test]
fn stage_runtime_reproduces_pre_refactor_runs_bit_for_bit() {
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    let mut checked = 0usize;
    for seed in SEEDS {
        let pts = instance(seed);
        for (proto_name, protocol, radius) in cases() {
            let mut modes = vec![("clean", None, None), ("faulted", Some(fault_plan()), None)];
            if !matches!(protocol, Protocol::Nnt(_) | Protocol::Bfs { .. }) {
                modes.push(("departed", None, Some(departed())));
            }
            for (mode, faults, members) in modes {
                let name = format!("{proto_name}_{seed:x}_{mode}");
                let got = render(&pts, protocol, radius, faults, members, false);
                let path = fixture_path(&name);
                if bless {
                    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                    std::fs::write(&path, &got).unwrap();
                    continue;
                }
                let want = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
                if got != want {
                    // Point at the first diverging line instead of dumping
                    // two multi-kilobyte blobs.
                    let (mut lineno, mut detail) = (0usize, String::from("trailing difference"));
                    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
                        if g != w {
                            lineno = i + 1;
                            detail = format!("got:  {g}\nwant: {w}");
                            break;
                        }
                    }
                    panic!("golden fixture {name} diverged at line {lineno}:\n{detail}");
                }
                checked += 1;
            }
        }
    }
    if !bless {
        assert_eq!(checked, 26, "all fixture cases must be compared");
    }
}

/// Refresh guard for the recovery runtime: with repair *enabled*, every
/// clean (no-fault) run must still reproduce its pinned fixture
/// byte-for-byte — the repair stage has to be fully elided when there is
/// no visible fault damage, leaving ledgers and traces untouched.
#[test]
fn repair_enabled_clean_runs_match_pinned_fixtures() {
    let mut checked = 0usize;
    for seed in SEEDS {
        let pts = instance(seed);
        for (proto_name, protocol, radius) in cases() {
            let name = format!("{proto_name}_{seed:x}_clean");
            let got = render(&pts, protocol, radius, None, None, true);
            let want = std::fs::read_to_string(fixture_path(&name))
                .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
            assert_eq!(
                got, want,
                "{name}: enabling repair perturbed a clean run (it must be elided)"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 10, "all clean fixture cases must be compared");
}
