//! **R4 — churn sweep:** incremental maintenance vs per-epoch
//! recomputation under sustained membership churn.
//!
//! A deployed network does not rebuild its MST from scratch every time a
//! node crashes, sleeps, wakes, joins or moves — it maintains the forest
//! it has. This experiment drives the churn-maintenance loop
//! ([`emst_core::maintain()`]) through seeded [`rate_timeline`] schedules
//! (6 epochs, `n · rate` events per epoch from the deployment mix) under
//! both strategies and compares their maintenance cost. Reported per
//! `(n, churn rate, strategy)`:
//!
//! * **energy** — total maintenance energy across the timeline (the
//!   bootstrap construction is identical under both strategies and
//!   excluded);
//! * **energy/round** — the headline metric, energy per maintained
//!   round;
//! * raw message/round counters and the forest churn (edges added and
//!   removed across all epochs);
//! * **inc/rec** — on the incremental rows, the incremental-to-recompute
//!   energy ratio for that `(n, rate)` point.
//!
//! Every trial also runs the full churn invariant battery
//! ([`churn_violations`]: epoch monotonicity, bitwise ledger
//! conservation, forest validity, strategy/Kruskal agreement, bitwise
//! determinism) and the sweep **aborts** on any violation — the sweep
//! doubles as the CI churn smoke. Results land in `BENCH_churn.json`
//! (`bench_churn/v1`, validated by `bench_summary --check`).
//!
//! Run: `cargo run --release -p emst-bench --bin churn_sweep [-- --trials N --quick --csv]`

use emst_analysis::bench_doc::{ChurnDoc, ChurnRow};
use emst_analysis::{fnum, Table};
use emst_bench::{churn_violations, instance, rate_timeline, Options};
use emst_core::{maintain, MaintainReport, MaintainStrategy};
use emst_geom::{mix_seed, paper_phase2_radius};

const EPOCHS: usize = 6;

/// Adds one trial's report to a row of per-trial means.
fn accumulate(row: &mut ChurnRow, rep: &MaintainReport, trials: f64) {
    row.bootstrap_energy += rep.bootstrap_energy / trials;
    row.maintenance_energy += rep.maintenance_energy() / trials;
    row.messages += rep.maintenance_messages() as f64 / trials;
    row.rounds += rep.maintenance_rounds() as f64 / trials;
    row.energy_per_round += rep.energy_per_maintained_round() / trials;
    let (added, removed) = rep.epochs.iter().fold((0usize, 0usize), |(a, r), e| {
        (a + e.edges_added, r + e.edges_removed)
    });
    row.edges_added += added as f64 / trials;
    row.edges_removed += removed as f64 / trials;
}

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![300]
    } else {
        vec![500, 2000]
    };
    let rates = [0.01, 0.02, 0.05];
    eprintln!(
        "churn_sweep: incremental vs recompute maintenance, rate ∈ {rates:?}, {EPOCHS} epochs \
         ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut doc_rows: Vec<ChurnRow> = Vec::new();
    let mut violation_count = 0usize;
    for &n in &sizes {
        let radius = paper_phase2_radius(n);
        let mut table = Table::new([
            "rate",
            "strategy",
            "energy",
            "energy/round",
            "messages",
            "rounds",
            "edges +",
            "edges -",
            "inc/rec",
        ]);
        for &rate in &rates {
            let trials = opts.trials as f64;
            let blank = |strategy| ChurnRow {
                n,
                rate,
                strategy,
                epochs: EPOCHS,
                ..ChurnRow::default()
            };
            let mut inc_row = blank(MaintainStrategy::Incremental);
            let mut rec_row = blank(MaintainStrategy::Recompute);
            for t in 0..opts.trials as u64 {
                let pts = instance(opts.seed, n, t);
                let tl = rate_timeline(mix_seed(opts.seed, n as u64), t, n, EPOCHS, rate);
                let violations = churn_violations(&pts, radius, &tl);
                assert!(
                    violations.is_empty(),
                    "churn invariants violated at n={n} rate={rate} trial={t}: {violations:?}\n\
                     repro: {}",
                    tl.to_source()
                );
                violation_count += violations.len();
                accumulate(
                    &mut inc_row,
                    &maintain(&pts, radius, &tl, MaintainStrategy::Incremental),
                    trials,
                );
                accumulate(
                    &mut rec_row,
                    &maintain(&pts, radius, &tl, MaintainStrategy::Recompute),
                    trials,
                );
            }
            let ratio = inc_row.maintenance_energy / rec_row.maintenance_energy;
            for (row, ratio_cell) in [(inc_row, fnum(ratio, 3)), (rec_row, "-".into())] {
                table.row([
                    fnum(rate, 2),
                    row.strategy.name().into(),
                    fnum(row.maintenance_energy, 3),
                    fnum(row.energy_per_round, 4),
                    fnum(row.messages, 0),
                    fnum(row.rounds, 1),
                    fnum(row.edges_added, 1),
                    fnum(row.edges_removed, 1),
                    ratio_cell,
                ]);
                doc_rows.push(row);
            }
        }
        println!("-- maintenance cost under churn (n = {n}, {EPOCHS} epochs) --");
        println!("{}", table.render());
        if opts.csv {
            println!("{}", table.to_csv());
        }
    }

    // The point of incremental maintenance: at scale it must beat
    // per-epoch recomputation on energy (at the largest measured size,
    // n = 2000 in a full run; the `inc/rec` column shows every point).
    // The document owns that claim and the zero-violation invariant.
    let doc = ChurnDoc {
        seed: opts.seed,
        trials: opts.trials,
        epochs: EPOCHS,
        violations: violation_count as u64,
        incremental_win: ChurnDoc::incremental_win_of(&doc_rows),
        rows: doc_rows,
    };
    doc.check().unwrap_or_else(|e| panic!("{e}"));
    let path = "BENCH_churn.json";
    std::fs::write(path, doc.render()).expect("cannot write BENCH_churn.json");
    eprintln!("wrote {path}");
}
