//! `scale-100k`: one large instance, run again and again.
//!
//! The instance, its topologies and sorted rows are built once, in
//! set-up, so every operation — an EOPT run then a modified-GHS run, two
//! shards each — is the protocols' phase loop: the opposite layer mix to
//! `sweep-2k`. Two shards let a sharded stage show a gain.

use crate::alloc::peak_heap_mb;
use crate::check::{mst_hash, tree_hash};
use crate::host::{slowdown_now, Probe};
use crate::layers::{topology_bytes_per_node, LayerStats};
use crate::report::{fold_ledger, Report, FINGERPRINT_OPS};
use crate::stats::{latencies, mean, quantile, Op};
use crate::trace::{Span, Tracer};
use crate::RunConfig;
use emst_core::{EoptConfig, GhsVariant, Instance, Protocol, RunError, RunOutput, Sim};
use emst_geom::paper_phase2_radius;
use std::time::{Duration, Instant};

/// Nodes in the instance.
pub const N: usize = 100_000;
/// Shards (worker threads) of every run.
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Iterations a second at nominal speed: fixes the tail percentile.
const NOMINAL_OPS_PER_S: f64 = 2.0;
/// Fewest nominal iterations per tail sub-window: the whole window, so
/// the tail is their p75.
const TAIL_OPS: usize = 40;

fn eopt() -> Protocol {
    Protocol::Eopt(EoptConfig::default())
}

fn ghs() -> Protocol {
    Protocol::Ghs(GhsVariant::Modified)
}

/// One iteration's outputs, reduced to what the checks need.
struct Iteration {
    op: Op,
    hashes: [u64; 2],
    ledgers: [(f64, u64, u64); 2],
    failed: Option<String>,
}

fn summarise(latency_ms: f64, outs: [Result<RunOutput, RunError>; 2]) -> Iteration {
    let mut it = Iteration {
        op: Op {
            end_s: 0.0,
            ms: latency_ms,
            slow: 1.0,
        },
        hashes: [0; 2],
        ledgers: [(0.0, 0, 0); 2],
        failed: None,
    };
    for (k, out) in outs.into_iter().enumerate() {
        match out {
            Ok(o) => {
                it.hashes[k] = tree_hash(&o.tree);
                it.ledgers[k] = (o.stats.energy, o.stats.messages, o.stats.rounds);
            }
            Err(e) => it.failed = Some(format!("run aborted: {e}")),
        }
    }
    it
}

/// The radii the two protocols run at: GHS at the paper's connectivity
/// radius, EOPT's step-1 rows on a grid sized for its larger radius
/// (exactly the keys `Sim` asks the instance for).
fn radii() -> (f64, f64, f64) {
    let cfg = EoptConfig::default();
    let r1 = cfg.radius1(N);
    (paper_phase2_radius(N), r1, cfg.radius2(N).max(r1))
}

/// Span op id of set-up `k`, clear of the iteration numbers.
fn setup_op(k: usize) -> u64 {
    (1 << 40) + k as u64
}

/// Generates the instance and builds every topology and sorted view the
/// runs read, optionally as spans of op `op`.
fn build(seed: u64, traced: Option<(u64, &Tracer, &mut LayerStats, &mut Vec<Span>)>) -> Instance {
    let (r, r1, r_max) = radii();
    match traced {
        None => {
            let inst = Instance::generate(seed, N, 0);
            let _ = inst.topology(r).sorted();
            let _ = inst.topology_with_grid(r_max, r1).sorted();
            inst
        }
        Some((op_id, t, stats, spans)) => {
            let op = t.open(op_id, 0, "op", "setup");
            let at = (op_id, op.id);
            let inst = stats.generate(t, spans, at, "generate", || Instance::generate(seed, N, 0));
            let main = stats.build(t, spans, at, || inst.topology(r));
            let step1 = stats.build(t, spans, at, || inst.topology_with_grid(r_max, r1));
            stats.sorted(t, spans, at, &main);
            stats.sorted(t, spans, at, &step1);
            op.close(t, spans);
            inst
        }
    }
}

fn iteration(inst: &Instance) -> Iteration {
    let r = paper_phase2_radius(N);
    let start = Instant::now();
    let a = Sim::from_instance(inst).shards(SHARDS).run_checked(eopt());
    let b = Sim::from_instance(inst)
        .radius(r)
        .shards(SHARDS)
        .run_checked(ghs());
    summarise(start.elapsed().as_secs_f64() * 1e3, [a, b])
}

fn iteration_traced(inst: &Instance, op: u64, t: &Tracer, stats: &mut LayerStats) -> Iteration {
    let r = paper_phase2_radius(N);
    let mut spans = Vec::new();
    let root = t.open(op, 0, "op", "iteration");
    let at = (op, root.id);
    let a = stats.sim(t, &mut spans, at, "eopt", |clock| {
        Sim::from_instance(inst)
            .shards(SHARDS)
            .sink(clock)
            .run_checked(eopt())
    });
    let b = stats.sim(t, &mut spans, at, "ghs_modified", |clock| {
        Sim::from_instance(inst)
            .radius(r)
            .shards(SHARDS)
            .sink(clock)
            .run_checked(ghs())
    });
    let latency_ms = root.close(t, &mut spans).ms();
    t.keep(spans);
    summarise(latency_ms, [a, b])
}

/// Iterations until `window` has passed, timing the host probe between
/// them.
fn window(window: Duration, mut step: impl FnMut(u64) -> Iteration) -> Vec<Iteration> {
    let start = Instant::now();
    let mut probe = Probe::default();
    let mut out = Vec::new();
    while start.elapsed() < window {
        probe.tick();
        let mut it = step(out.len() as u64);
        it.op.end_s = start.elapsed().as_secs_f64();
        it.op.slow = probe.slowdown();
        out.push(it);
    }
    out
}

fn check(inst: &Instance, iterations: &[Iteration], report: &mut Report) {
    report.attempted += iterations.len() as u64;
    let reference = mst_hash(inst.points());
    for (k, it) in iterations.iter().enumerate() {
        let wrong = it.failed.clone().or_else(|| {
            it.hashes
                .iter()
                .zip(["eopt", "ghs_modified"])
                .find(|(h, _)| **h != reference)
                .map(|(_, name)| format!("iteration {k}: {name} is not the Euclidean MST"))
        });
        if let Some(w) = wrong {
            report.failed += 1;
            report.problem(w);
        }
    }
    for it in iterations.iter().take(FINGERPRINT_OPS) {
        for &(e, m, r) in &it.ledgers {
            report.fingerprint = fold_ledger(report.fingerprint, e, m, r);
        }
    }
    report.fingerprint_ops = iterations.len().min(FINGERPRINT_OPS);
}

fn ops(its: &[Iteration]) -> Vec<Op> {
    its.iter().map(|i| i.op).collect()
}

/// Runs the workload's untraced or traced pass.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report {
        workload: "scale-100k",
        seed: cfg.seed,
        traced: cfg.trace,
        params: format!(
            "scale-100k n={N} op=eopt+ghs_modified radius=paper_phase2 shards={SHARDS} \
             warm-instance"
        ),
        threads: SHARDS,
        ..Report::default()
    };
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let tracer = Tracer::default();
    let mut stats = LayerStats::default();

    // Each set-up builds from scratch (the previous instance is dropped
    // first) and ends with one warm-up iteration; the last is kept.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inst = None;
    for k in 0..SETUPS {
        drop(inst.take());
        let slowdown = slowdown_now();
        let start = Instant::now();
        let built = if cfg.trace {
            let mut spans = Vec::new();
            let built = build(
                cfg.seed,
                Some((setup_op(k), &tracer, &mut stats, &mut spans)),
            );
            tracer.keep(spans);
            built
        } else {
            build(cfg.seed, None)
        };
        let warm = iteration(&built);
        setups.push((start.elapsed().as_secs_f64(), slowdown));
        if let Some(e) = warm.failed {
            report.problem(format!("warm-up: {e}"));
        }
        inst = Some(built);
    }
    let inst = inst.expect("at least one set-up");

    if !cfg.trace {
        let its = window(seconds, |_| iteration(&inst));
        let heap = peak_heap_mb();
        report.setup(&setups);
        report.throughput(&ops(&its), cfg.seconds, 1);
        report.latency(
            &ops(&its),
            cfg.seconds,
            (NOMINAL_OPS_PER_S * cfg.seconds) as usize,
            TAIL_OPS,
        );
        report.metric("peak_heap_mb", heap, "MiB");
        check(&inst, &its, &mut report);
        return report;
    }

    let plain = window(seconds / 3, |_| iteration(&inst));
    let traced = window(seconds * 2 / 3, |k| {
        iteration_traced(&inst, k + 1, &tracer, &mut stats)
    });
    let p50 = |its: &[Iteration]| quantile(&latencies(&ops(its)), 0.5);
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    let (r, _, _) = radii();
    stats.report(
        &mut report,
        topology_bytes_per_node(&inst.topology(r)),
        overhead,
    );

    // Sharding: the MOE search (`test`) at one shard against two.
    let test_ms = |shards: usize| {
        let samples: Vec<f64> = (0..2)
            .map(|_| {
                let mut scratch = LayerStats::default();
                let mut spans = Vec::new();
                let _ = scratch.sim(&tracer, &mut spans, (0, 0), "ghs_modified", |clock| {
                    Sim::from_instance(&inst)
                        .radius(r)
                        .shards(shards)
                        .sink(clock)
                        .run_checked(ghs())
                });
                spans
                    .iter()
                    .filter(|s| s.layer == "phase" && s.name == "test")
                    .map(Span::ms)
                    .sum()
            })
            .collect();
        mean(&samples)
    };
    let (one, two) = (test_ms(1), test_ms(SHARDS));
    report.layer("ghs.test_ms.shards1", one, "ms");
    report.layer("ghs.test_ms.shards2", two, "ms");
    report.layer("ghs.shard_speedup", one / two, "ratio");
    crate::finish_trace(cfg, &tracer, &mut report);
    let mut all = plain;
    all.extend(traced);
    check(&inst, &all, &mut report);
    report
}
