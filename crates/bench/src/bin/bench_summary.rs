//! Per-protocol wall-time and throughput summary — the repo's perf
//! trajectory tracker.
//!
//! Times one full `Sim` run per protocol at n ∈ {500, 2000, 5000}
//! (`--quick`: n = 500 only; `--large`: additionally 20 000 and 100 000
//! for the scalable protocols), repeating `--trials` times and reporting
//! the mean and best wall time plus throughput (nodes simulated per
//! second). Results are printed as a table and written to
//! `BENCH_core.json` so perf changes land in version control alongside
//! the code that caused them.
//!
//! Timing reps run **serially** regardless of `--threads` — concurrent
//! reps would contend for cores and corrupt the numbers. Each size's
//! point set and topology live in a reusable [`Instance`] and every
//! (protocol, n) pair gets one untimed warm-up rep, so the timed reps
//! measure steady-state protocol execution, not instance construction.
//!
//! With `--guard`, two pinned regression guards are enforced (non-zero
//! exit on trip):
//!
//! * **wall time** — the `ghs_modified` n = 5000 best rep must stay
//!   within [`GUARD_MAX_RATIO`]× of the committed baseline mean;
//! * **throughput flatness** — `ghs_modified` *per-message* throughput
//!   (messages simulated per second, best rep) at the largest measured n
//!   must stay ≥ [`FLAT_MIN_RATIO`]× its value at n = [`FLAT_BASELINE_N`]
//!   (falling back to the smallest measured n when the baseline size
//!   wasn't in the sweep). A superlinear scale curve shows up here long
//!   before the fixed-size wall guard notices.
//!
//!   Messages — not nodes — are the unit of work: GHS runs Θ(log n)
//!   phases, so messages *per node* grow with n by design (≈19.9 at
//!   n = 2000 vs ≈29.0 at n = 100 000) and nodes/s cannot stay flat even
//!   at perfectly constant per-message cost. Per-message throughput
//!   factors that protocol-inherent growth out; what remains is the
//!   engine's real per-unit cost, whose drift (cache-hierarchy effects as
//!   the working set leaves LLC) is what the floor bounds. The floor is
//!   pinned below the measured ≈0.45 ratio with margin for runner noise;
//!   an accidental superlinear structure (per-phase allocation, O(n)
//!   lookups per message) drops the ratio far below it.
//!
//! Both guards compare *best* reps so scheduler noise on shared CI
//! runners doesn't flake the check.
//!
//! With `--check PATH`, the binary instead parses the BENCH document at
//! PATH as whichever schema its `schema` tag names (`bench_core/v1`,
//! `fault_sweep/v2`, `bench_churn/v1`, `bench_awake/v1`,
//! `bench_service/v2`), checks that schema's invariants
//! ([`emst_analysis::bench_doc`]: zero violations, the low-awake pin,
//! p50 ≤ p99, hit rate in [0, 1], no 5xx, …) and exits non-zero on any
//! failure — the CI guard that every writer's output stays consumable.

use emst_analysis::bench_doc::{self, CoreDoc, CoreRow, FlatGuard, WallGuard};
use emst_bench::Options;
use emst_core::{Instance, Protocol, Sim};
use emst_geom::paper_phase2_radius;
use std::time::Instant;

/// Guarded entry: modified GHS at the largest default sweep size.
const GUARD_PROTOCOL: &str = "ghs_modified";
const GUARD_N: usize = 5000;
/// Committed baseline (mean_ms of the pinned BENCH_core.json entry).
const GUARD_BASELINE_MEAN_MS: f64 = 6.519;
/// Allowed slowdown before the guard trips.
const GUARD_MAX_RATIO: f64 = 1.25;

/// Throughput-flatness guard: messages/s (best rep) at the largest
/// measured n vs the baseline size. See the module docs for why the
/// unit is messages and how the floor was chosen.
const FLAT_BASELINE_N: usize = 2000;
const FLAT_MIN_RATIO: f64 = 0.3;

/// The `--large` extension sizes, run only for modified GHS and EOPT, the
/// protocols the scale layer targets. Co-NNT and BFS stay at the default
/// sizes, and so does the original variant: its test/accept/reject traffic
/// is O(|E| + n log n), not quadratic, but at 2 150 100 / 12 462 104
/// messages for n = 20 000 / 100 000 it is four times the modified
/// variant's, and a run at n = 100 000 takes 1.0–1.7 s on a 2-vCPU host
/// (EXPERIMENTS.md R3).
const LARGE_SIZES: [usize; 2] = [20_000, 100_000];

/// The timed protocols at `n`, by registry name (BFS floods from the
/// middle node).
fn protocols(n: usize, large_only: bool) -> Vec<Protocol> {
    let names: &[&str] = if large_only {
        &["ghs_modified", "eopt"]
    } else {
        &["ghs_original", "ghs_modified", "eopt", "co_nnt", "bfs"]
    };
    names
        .iter()
        .map(|name| Protocol::from_name(name, n / 2).expect("registered protocol"))
        .collect()
}

/// `--check PATH`: parse the document, check its schema's invariants.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let schema = bench_doc::check(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("check: {path} is a valid {schema}");
}

fn main() {
    let opts = Options::from_env();
    if let Some(path) = &opts.check {
        check(path);
        return;
    }
    let mut sizes: Vec<usize> = if opts.quick {
        vec![500]
    } else {
        vec![500, 2000, 5000]
    };
    // The guard needs its pinned size even in a --quick run.
    if opts.guard && !sizes.contains(&GUARD_N) {
        sizes.push(GUARD_N);
    }
    if opts.large {
        sizes.extend(LARGE_SIZES);
    }
    let reps = opts.trials.max(1);
    let mut rows: Vec<CoreRow> = Vec::new();
    for &n in &sizes {
        let inst = Instance::generate(opts.seed, n, 0);
        let r = paper_phase2_radius(n);
        let large_only = LARGE_SIZES.contains(&n);
        for proto in protocols(n, large_only) {
            let name = proto.name();
            // Untimed warm-up: builds the instance's shared topology and
            // sorted rows, faults in the pages, and leaves the timed reps
            // measuring protocol execution alone.
            let warm = Sim::from_instance(&inst).radius(r).run(proto);
            assert!(warm.stats.messages > 0, "{name} n={n}: empty run");
            let mut total = 0.0f64;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                let out = Sim::from_instance(&inst).radius(r).run(proto);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    out.stats.messages, warm.stats.messages,
                    "{name} n={n}: reps must be deterministic"
                );
                total += ms;
                best = best.min(ms);
            }
            let mean_ms = total / reps as f64;
            rows.push(CoreRow {
                protocol: proto,
                n,
                mean_ms,
                best_ms: best,
                nodes_per_s: n as f64 / (mean_ms / 1e3),
                messages: warm.stats.messages,
                best_msgs_per_s: warm.stats.messages as f64 / (best / 1e3),
            });
        }
    }

    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>14}",
        "protocol", "n", "mean ms", "best ms", "nodes/s"
    );
    for r in &rows {
        println!(
            "{:<14} {:>7} {:>12.3} {:>12.3} {:>14.0}",
            r.protocol.name(),
            r.n,
            r.mean_ms,
            r.best_ms,
            r.nodes_per_s
        );
    }

    // Wall-time guard: evaluated whenever the pinned row was measured,
    // enforced (abort on trip) only under --guard.
    let guard_row = rows
        .iter()
        .find(|r| r.protocol.name() == GUARD_PROTOCOL && r.n == GUARD_N);
    let mut guard = None;
    if let Some(g) = guard_row {
        let ratio = g.best_ms / GUARD_BASELINE_MEAN_MS;
        let pass = ratio <= GUARD_MAX_RATIO;
        println!(
            "guard: {GUARD_PROTOCOL} n={GUARD_N} best {:.3} ms vs baseline mean \
             {GUARD_BASELINE_MEAN_MS} ms -> {:.2}x (limit {GUARD_MAX_RATIO}x): {}",
            g.best_ms,
            ratio,
            if pass { "ok" } else { "REGRESSED" }
        );
        guard = Some(WallGuard {
            protocol: g.protocol,
            n: GUARD_N,
            baseline_mean_ms: GUARD_BASELINE_MEAN_MS,
            max_ratio: GUARD_MAX_RATIO,
            measured_best_ms: g.best_ms,
            ratio,
            pass,
        });
    } else if opts.guard {
        panic!("--guard set but the {GUARD_PROTOCOL} n={GUARD_N} row was not measured");
    }

    // Throughput-flatness guard: the scale curve must not bend. Baseline
    // is the FLAT_BASELINE_N row (smallest measured n if the sweep
    // skipped it), target is the largest measured n.
    let mut flatness = None;
    let mut ghs_rows: Vec<&CoreRow> = rows
        .iter()
        .filter(|r| r.protocol.name() == GUARD_PROTOCOL)
        .collect();
    ghs_rows.sort_by_key(|r| r.n);
    if ghs_rows.len() >= 2 {
        let base = ghs_rows
            .iter()
            .find(|r| r.n == FLAT_BASELINE_N)
            .unwrap_or(&ghs_rows[0]);
        let target = ghs_rows.last().expect("len >= 2");
        let ratio = target.best_msgs_per_s / base.best_msgs_per_s;
        let pass = ratio >= FLAT_MIN_RATIO;
        println!(
            "flatness: {GUARD_PROTOCOL} n={} {:.0} msgs/s vs n={} {:.0} msgs/s -> \
             {:.2}x (min {FLAT_MIN_RATIO}x): {}",
            target.n,
            target.best_msgs_per_s,
            base.n,
            base.best_msgs_per_s,
            ratio,
            if pass { "ok" } else { "REGRESSED" }
        );
        flatness = Some(FlatGuard {
            protocol: target.protocol,
            base_n: base.n,
            target_n: target.n,
            min_ratio: FLAT_MIN_RATIO,
            ratio,
            pass,
        });
    }

    let doc = CoreDoc {
        seed: opts.seed,
        reps,
        guard,
        flatness,
        rows,
    };
    // Under --guard both recorded guards must have passed; the document
    // owns that invariant (`bench_summary --check` applies it to the file).
    if opts.guard {
        doc.check().unwrap_or_else(|e| panic!("{e}"));
    }
    let path = "BENCH_core.json";
    std::fs::write(path, doc.render()).expect("cannot write BENCH_core.json");
    eprintln!("wrote {path}");
}
