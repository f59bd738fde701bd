//! `sweep-2k`: the research sweep.
//!
//! A paper sweep draws a fresh instance per trial and runs every protocol
//! on it, so point generation, the topology build and the sorted rows are
//! paid on every trial, next to four protocol runs: the one workload where
//! the topology layer is on the measured path (about 30 % of a trial), and
//! the service layers are bypassed. Two workers share the trials through
//! `parallel_map`.

use crate::alloc::peak_heap_mb;
use crate::check::{mst_hash, tree_hash};
use crate::host::{slowdown_now, Probe};
use crate::layers::{topology_bytes_per_node, LayerStats};
use crate::report::{fold_ledger, Report, FINGERPRINT_OPS};
use crate::stats::{latencies, quantile, Op};
use crate::trace::Tracer;
use crate::RunConfig;
use emst_analysis::{effective_parallelism, parallel_map, set_thread_override};
use emst_core::{EoptConfig, GhsVariant, Instance, Protocol, RankScheme, RunError, RunOutput, Sim};
use emst_geom::{nnt_probe_radius, paper_phase2_radius};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Nodes per instance.
pub const N: usize = 2000;
/// Sweep workers.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Trials a second both workers complete at nominal speed: fixes the tail
/// percentile for a run length (see [`Report::latency`]).
const NOMINAL_TRIALS_PER_S: f64 = 70.0;
/// Fewest nominal trials per tail sub-window: 2 s of them, so the tail is
/// their p90. The p99 that a whole window would allow moves with the
/// host's spells shorter than a probe interval.
const TAIL_OPS: usize = 100;
/// Trial indices of the set-up warm-up, clear of the measured ones.
const WARMUP_TRIAL: u64 = 1 << 40;

/// The four protocols every trial runs, exact ones first.
fn protocols() -> [(&'static str, Protocol); 4] {
    [
        ("ghs_original", Protocol::Ghs(GhsVariant::Original)),
        ("ghs_modified", Protocol::Ghs(GhsVariant::Modified)),
        ("eopt", Protocol::Eopt(EoptConfig::default())),
        ("co_nnt", Protocol::Nnt(RankScheme::Diagonal)),
    ]
}

/// What the checks need from one trial.
struct Trial {
    index: u64,
    /// When it finished within the window, and how long it took.
    op: Op,
    /// Edge-set hashes of the three exact protocols' outputs.
    exact: [u64; 3],
    /// `(energy, messages, rounds)` per protocol.
    ledgers: [(f64, u64, u64); 4],
    /// A run aborted or Co-NNT returned an invalid tree.
    failed: Option<String>,
}

fn summarise(index: u64, latency_ms: f64, outs: Vec<Result<RunOutput, RunError>>) -> Trial {
    let mut t = Trial {
        index,
        op: Op {
            end_s: 0.0,
            ms: latency_ms,
            slow: 1.0,
        },
        exact: [0; 3],
        ledgers: [(0.0, 0, 0); 4],
        failed: None,
    };
    for (k, (out, (name, _))) in outs.into_iter().zip(protocols()).enumerate() {
        match out {
            Ok(o) => {
                t.ledgers[k] = (o.stats.energy, o.stats.messages, o.stats.rounds);
                if k < 3 {
                    t.exact[k] = tree_hash(&o.tree);
                } else if !o.tree.is_valid() {
                    t.failed = Some(format!("trial {index}: {name} tree is not a spanning tree"));
                }
            }
            Err(e) => t.failed = Some(format!("trial {index}: {name} aborted: {e}")),
        }
    }
    t
}

fn trial(seed: u64, index: u64) -> Trial {
    let start = Instant::now();
    let inst = Instance::generate(seed, N, index);
    let r = paper_phase2_radius(N);
    let outs: Vec<_> = protocols()
        .into_iter()
        .map(|(_, p)| Sim::from_instance(&inst).radius(r).run_checked(p))
        .collect();
    summarise(index, start.elapsed().as_secs_f64() * 1e3, outs)
}

/// The same trial with every layer call timed. The topologies the four
/// runs install are built (and the sorted rows the modified runs read are
/// forced) before the runs, so the runs find them warm: the same work as
/// the untraced trial, split into spans.
fn trial_traced(seed: u64, index: u64, t: &Tracer, stats: &mut LayerStats) -> Trial {
    let mut spans = Vec::new();
    let op = t.open(index, 0, "op", "trial");
    let at = (index, op.id);
    let inst = stats.generate(t, &mut spans, at, "generate", || {
        Instance::generate(seed, N, index)
    });
    let r = paper_phase2_radius(N);
    let eopt = EoptConfig::default();
    let r1 = eopt.radius1(N);
    let r_max = eopt.radius2(N).max(r1);
    let main = stats.build(t, &mut spans, at, || inst.topology(r_max));
    let step1 = stats.build(t, &mut spans, at, || inst.topology_with_grid(r_max, r1));
    stats.build(t, &mut spans, at, || inst.topology(nnt_probe_radius(2, N)));
    stats.sorted(t, &mut spans, at, &main);
    stats.sorted(t, &mut spans, at, &step1);
    let outs: Vec<_> = protocols()
        .into_iter()
        .map(|(name, p)| {
            stats.sim(t, &mut spans, at, name, |clock| {
                Sim::from_instance(&inst)
                    .radius(r)
                    .sink(clock)
                    .run_checked(p)
            })
        })
        .collect();
    let latency_ms = op.close(t, &mut spans).ms();
    t.keep(spans);
    summarise(index, latency_ms, outs)
}

/// What both workers did in one window.
struct Window<W> {
    /// Trials, by index.
    trials: Vec<Trial>,
    /// Each worker's state.
    states: Vec<W>,
    wall: Duration,
}

/// Runs trials on both workers until `window` has passed, taking indices
/// from `first` in order (so the completed ones are contiguous), each
/// worker timing the host probe between trials.
fn window<W: Send>(
    window: Duration,
    first: u64,
    init: impl Fn() -> W + Sync,
    run: impl Fn(u64, &mut W) -> Trial + Sync,
) -> Window<W> {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let per_worker = parallel_map(&[(); WORKERS], |_| {
        let mut state = init();
        let mut probe = Probe::default();
        let mut trials = Vec::new();
        while start.elapsed() < window {
            probe.tick();
            let mut t = run(next.fetch_add(1, Ordering::Relaxed), &mut state);
            t.op.end_s = start.elapsed().as_secs_f64();
            t.op.slow = probe.slowdown();
            trials.push(t);
        }
        (trials, state)
    });
    let wall = start.elapsed();
    let mut out = Window {
        trials: Vec::new(),
        states: Vec::new(),
        wall,
    };
    for (trials, state) in per_worker {
        out.trials.extend(trials);
        out.states.push(state);
    }
    out.trials.sort_by_key(|t| t.index);
    out
}

/// Checks every trial against the exact Euclidean MST of its instance
/// (recomputed here, outside the window) and folds the fingerprint.
fn check(cfg: &RunConfig, trials: &[Trial], report: &mut Report) {
    report.attempted += trials.len() as u64;
    let refs = parallel_map(trials, |t| {
        mst_hash(Instance::generate(cfg.seed, N, t.index).points())
    });
    for (t, reference) in trials.iter().zip(refs) {
        let mut wrong = t.failed.clone();
        for (k, (name, _)) in protocols().iter().take(3).enumerate() {
            if wrong.is_none() && t.exact[k] != reference {
                wrong = Some(format!(
                    "trial {}: {name} is not the Euclidean MST",
                    t.index
                ));
            }
        }
        if let Some(w) = wrong {
            report.failed += 1;
            report.problem(w);
        }
    }
    for t in trials.iter().take(FINGERPRINT_OPS) {
        for &(e, m, r) in &t.ledgers {
            report.fingerprint = fold_ledger(report.fingerprint, e, m, r);
        }
    }
    report.fingerprint_ops = trials.len().min(FINGERPRINT_OPS);
}

fn ops(trials: &[Trial]) -> Vec<Op> {
    trials.iter().map(|t| t.op).collect()
}

/// Runs the workload's untraced or traced pass.
pub fn run(cfg: &RunConfig) -> Report {
    set_thread_override(Some(WORKERS));
    let mut report = Report {
        workload: "sweep-2k",
        seed: cfg.seed,
        traced: cfg.trace,
        params: format!(
            "sweep-2k n={N} protocols=ghs_original,ghs_modified,eopt,co_nnt \
             radius=paper_phase2 workers={WORKERS} fresh-instance-per-trial"
        ),
        threads: effective_parallelism(),
        ..Report::default()
    };
    let seconds = Duration::from_secs_f64(cfg.seconds);

    // A set-up is one warm-up trial on this thread. A pair of them on both
    // workers read either about 27 or about 38 ms, depending on whether
    // the second thread started in time, and a run's median flipped
    // between the two.
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS as u64 {
        let slowdown = slowdown_now();
        let start = Instant::now();
        let warm = trial(cfg.seed, WARMUP_TRIAL + k);
        setups.push((start.elapsed().as_secs_f64(), slowdown));
        if let Some(failed) = warm.failed {
            report.problem(format!("warm-up: {failed}"));
        }
    }

    if !cfg.trace {
        let w = window(seconds, 0, || (), |i, _| trial(cfg.seed, i));
        report.setup(&setups);
        report.throughput(&ops(&w.trials), cfg.seconds, WORKERS);
        report.latency(
            &ops(&w.trials),
            cfg.seconds,
            (NOMINAL_TRIALS_PER_S * cfg.seconds) as usize,
            TAIL_OPS,
        );
        report.metric("peak_heap_mb", peak_heap_mb(), "MiB");
        check(cfg, &w.trials, &mut report);
        return report;
    }

    // Traced pass: an untraced third for the overhead baseline, then the
    // traced remainder on fresh trial indices.
    let plain = window(seconds / 3, 0, || (), |i, _| trial(cfg.seed, i)).trials;
    let tracer = Tracer::default();
    let Window {
        trials: traced,
        states,
        wall,
        ..
    } = window(
        seconds * 2 / 3,
        plain.len() as u64,
        LayerStats::default,
        |i, stats| trial_traced(cfg.seed, i, &tracer, stats),
    );
    let mut stats = LayerStats::default();
    for s in states {
        stats.merge(s);
    }
    let inst = Instance::generate(cfg.seed, N, 0);
    let topo = inst.topology(paper_phase2_radius(N));
    let _ = topo.sorted();
    let p50 = |t: &[Trial]| quantile(&latencies(&ops(t)), 0.5);
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    stats.report(&mut report, topology_bytes_per_node(&topo), overhead);
    let busy: f64 = traced.iter().map(|t| t.op.ms / 1e3).sum();
    report.layer(
        "sweep.worker_busy_share",
        busy / (WORKERS as f64 * wall.as_secs_f64()),
        "ratio",
    );
    report.layer("sweep.trials_traced", traced.len() as f64, "count");
    crate::finish_trace(cfg, &tracer, &mut report);
    let mut all = plain;
    all.extend(traced);
    check(cfg, &all, &mut report);
    report
}
