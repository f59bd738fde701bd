//! `churn-2k`: a standing maintenance session under steady churn.
//!
//! Every operation is one `MaintainSession::advance` epoch: nodes move,
//! fall asleep and wake, and the session repairs its forest in place. The
//! GHS engine runs here in restricted mode over a live set whose positions
//! are rewritten every epoch — writes, beside `scale-100k`'s reads — so a
//! change that speeds up static runs but not restricted ones shows here.

use crate::alloc::peak_heap_mb;
use crate::check::live_msf;
use crate::host::{slowdown_now, Probe};
use crate::inputs::{ChurnGen, CHURN_EVENTS_PER_EPOCH};
use crate::layers::{topology_bytes_per_node, LayerStats};
use crate::report::{fold_ledger, Report, FINGERPRINT_OPS};
use crate::stats::{latencies, mean, median, quantile, Op};
use crate::trace::{timed, Tracer};
use crate::RunConfig;
use emst_core::{
    EpochReport, GhsVariant, Instance, MaintainSession, MaintainStrategy, Protocol, Sim,
};
use emst_geom::{paper_phase2_radius, BucketGrid};
use emst_radio::Topology;
use std::time::{Duration, Instant};

/// Nodes in the session's id universe.
pub const N: usize = 2000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Epochs a second at nominal speed: fixes the tail percentile.
const NOMINAL_EPOCHS_PER_S: f64 = 60.0;
/// Fewest nominal epochs per tail sub-window: 2 s of them, so the tail is
/// their p90.
const TAIL_OPS: usize = 100;
/// The traced pass compares against a from-scratch run every this many
/// epochs.
const RECOMPUTE_EVERY: u64 = 50;
/// Span op ids of set-ups and recomputes, clear of the epoch numbers.
const SETUP_OP: u64 = 1 << 40;
const RECOMPUTE_OP: u64 = 1 << 32;

fn radius() -> f64 {
    paper_phase2_radius(N)
}

/// One advanced epoch, as the checks and read-outs need it.
struct Epoch {
    op: Op,
    report: EpochReport,
}

/// Advances one epoch of `gen`'s events, timing only the advance, then
/// checks the repaired forest against the live-subgraph Kruskal MSF.
fn epoch(
    session: &mut MaintainSession,
    gen: &mut ChurnGen,
    timer: impl FnOnce(&mut dyn FnMut() -> EpochReport) -> (EpochReport, f64),
    report: &mut Report,
) -> Epoch {
    let events = gen.next_epoch();
    let (rep, latency_ms) = timer(&mut || session.advance(&events));
    report.attempted += 1;
    let truth = live_msf(session.points(), radius(), session.members());
    let problem = if !rep.ledger_conserved {
        Some("ledger not conserved")
    } else if !rep.forest_valid {
        Some("forest invalid")
    } else if !session.tree().same_edges(&truth) {
        Some("forest is not the live-subgraph MSF")
    } else {
        None
    };
    if let Some(p) = problem {
        report.failed += 1;
        report.problem(format!("epoch {}: {p}", rep.epoch));
    }
    if (rep.epoch as usize) <= FINGERPRINT_OPS {
        report.fingerprint = fold_ledger(report.fingerprint, rep.energy, rep.messages, rep.rounds);
        report.fingerprint_ops = rep.epoch as usize;
    }
    Epoch {
        op: Op {
            end_s: 0.0,
            ms: latency_ms,
            slow: 1.0,
        },
        report: rep,
    }
}

fn untimed(f: &mut dyn FnMut() -> EpochReport) -> (EpochReport, f64) {
    let start = Instant::now();
    let rep = f();
    (rep, start.elapsed().as_secs_f64() * 1e3)
}

fn ops(epochs: &[Epoch]) -> Vec<Op> {
    epochs.iter().map(|e| e.op).collect()
}

/// Runs the workload's untraced or traced pass.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report {
        workload: "churn-2k",
        seed: cfg.seed,
        traced: cfg.trace,
        params: format!(
            "churn-2k n={N} strategy=incremental radius=paper_phase2 \
             events_per_epoch={CHURN_EVENTS_PER_EPOCH} moves=half sleep_wake=half"
        ),
        threads: 1,
        ..Report::default()
    };
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let tracer = Tracer::default();
    let mut stats = LayerStats::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut bootstrap_ms = Vec::with_capacity(SETUPS);
    let mut session = None;
    for k in 0..SETUPS as u64 {
        drop(session.take());
        let mut spans = Vec::new();
        let slowdown = slowdown_now();
        let start = Instant::now();
        let inst = stats.generate(&tracer, &mut spans, (SETUP_OP + k, 0), "generate", || {
            Instance::generate(cfg.seed, N, 0)
        });
        let boot = Instant::now();
        let s = MaintainSession::bootstrap(inst.points(), radius(), MaintainStrategy::Incremental);
        bootstrap_ms.push(boot.elapsed().as_secs_f64() * 1e3);
        setups.push((start.elapsed().as_secs_f64(), slowdown));
        if cfg.trace {
            tracer.keep(spans);
        }
        if !s.bootstrap_stats().3 {
            report.problem("bootstrap ledger not conserved".into());
        }
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let mut gen = ChurnGen::new(cfg.seed, N);

    let run_window = |window: Duration,
                      session: &mut MaintainSession,
                      gen: &mut ChurnGen,
                      report: &mut Report|
     -> Vec<Epoch> {
        let start = Instant::now();
        let mut probe = Probe::default();
        let mut out = Vec::new();
        while start.elapsed() < window {
            probe.tick();
            let mut e = epoch(session, gen, untimed, report);
            e.op.end_s = start.elapsed().as_secs_f64();
            e.op.slow = probe.slowdown();
            out.push(e);
        }
        out
    };

    if !cfg.trace {
        let epochs = run_window(seconds, &mut session, &mut gen, &mut report);
        let heap = peak_heap_mb();
        report.setup(&setups);
        report.throughput(&ops(&epochs), cfg.seconds, 1);
        report.latency(
            &ops(&epochs),
            cfg.seconds,
            (NOMINAL_EPOCHS_PER_S * cfg.seconds) as usize,
            TAIL_OPS,
        );
        report.metric("peak_heap_mb", heap, "MiB");
        return report;
    }

    let plain = run_window(seconds / 3, &mut session, &mut gen, &mut report);
    // Traced epochs: the advance as a `maintain` span under the epoch,
    // and every RECOMPUTE_EVERY epochs a from-scratch restricted GHS run over
    // the same live set (which must agree with the maintained forest),
    // plus the topology build an epoch performs, timed on its own.
    let mut recompute_ms = Vec::new();
    let mut bytes_per_node = f64::NAN;
    let mut recompute = |session: &MaintainSession, report: &mut Report| {
        let op = RECOMPUTE_OP + session.members().epoch();
        let mut spans = Vec::new();
        let root = tracer.open(op, 0, "op", "recompute");
        let at = (op, root.id);
        let r = radius();
        let topo = stats.build(&tracer, &mut spans, at, || {
            Topology::build(&BucketGrid::for_radius(session.points(), r), r)
        });
        stats.sorted(&tracer, &mut spans, at, &topo);
        bytes_per_node = topology_bytes_per_node(&topo);
        let rerun = stats.sim(&tracer, &mut spans, at, "ghs_modified", |clock| {
            Sim::new(session.points())
                .radius(r)
                .members(session.members().clone())
                .sink(clock)
                .run_checked(Protocol::Ghs(GhsVariant::Modified))
        });
        recompute_ms.push(
            spans
                .iter()
                .rev()
                .find(|s| s.layer == "sim" && s.name == "ghs_modified")
                .map_or(f64::NAN, |s| s.ms()),
        );
        root.close(&tracer, &mut spans);
        tracer.keep(spans);
        match rerun {
            Ok(o) if o.tree.same_edges(&session.tree()) => {}
            _ => report.problem(format!(
                "epoch {}: recompute disagrees with the maintained forest",
                session.members().epoch()
            )),
        }
    };
    let start = Instant::now();
    let mut traced = Vec::new();
    while start.elapsed() < seconds * 2 / 3 {
        let op = session.members().epoch() + 1;
        let e = epoch(
            &mut session,
            &mut gen,
            |f| {
                let mut spans = Vec::new();
                let root = tracer.open(op, 0, "op", "epoch");
                let rep = timed(&tracer, &mut spans, op, root.id, ("maintain", "advance"), f);
                let ms = root.close(&tracer, &mut spans).ms();
                tracer.keep(spans);
                (rep, ms)
            },
            &mut report,
        );
        if e.report.epoch.is_multiple_of(RECOMPUTE_EVERY) {
            recompute(&session, &mut report);
        }
        traced.push(e);
    }
    // A window too short to reach a multiple still compares once.
    if !traced
        .iter()
        .any(|e| e.report.epoch.is_multiple_of(RECOMPUTE_EVERY))
    {
        recompute(&session, &mut report);
    }
    let advance_p50 = quantile(&latencies(&ops(&traced)), 0.5);
    let overhead = advance_p50 / quantile(&latencies(&ops(&plain)), 0.5) - 1.0;
    stats.report(&mut report, bytes_per_node, overhead);
    let all: Vec<&Epoch> = plain.iter().chain(&traced).collect();
    let per_epoch = |f: &dyn Fn(&EpochReport) -> f64| {
        mean(&all.iter().map(|e| f(&e.report)).collect::<Vec<_>>())
    };
    report.layer("maintain.bootstrap_ms", median(&bootstrap_ms), "ms");
    report.layer("maintain.advance_ms_p50", advance_p50, "ms");
    report.layer(
        "maintain.ms_per_event",
        advance_p50 / CHURN_EVENTS_PER_EPOCH as f64,
        "ms",
    );
    report.layer(
        "maintain.messages_per_epoch",
        per_epoch(&|r| r.messages as f64),
        "count",
    );
    report.layer(
        "maintain.rounds_per_epoch",
        per_epoch(&|r| r.rounds as f64),
        "count",
    );
    report.layer(
        "maintain.edges_changed_per_epoch",
        per_epoch(&|r| (r.edges_added + r.edges_removed) as f64),
        "count",
    );
    let recompute = mean(&recompute_ms);
    let advance_mean = mean(&traced.iter().map(|e| e.op.ms).collect::<Vec<_>>());
    report.layer("maintain.recompute_ms", recompute, "ms");
    report.layer(
        "maintain.incremental_vs_recompute",
        advance_mean / recompute,
        "ratio",
    );
    crate::finish_trace(cfg, &tracer, &mut report);
    report
}
