//! **R1/R2 — fault sweep:** reliability of the MST protocols under lossy
//! links, before and after the recovery runtime.
//!
//! The paper's analysis assumes every transmission is delivered; this
//! experiment measures what each protocol actually does when the radio
//! layer drops each (sender, receiver) delivery independently with
//! probability `p` and senders retry a bounded number of times
//! (acknowledgement/timeout model, default 3 retries). Each trial runs
//! twice on identical fault coins — once bare (R1) and once with the
//! repair stage enabled (R2) — so the `repaired` column isolates exactly
//! what the recovery runtime buys. Reported per `(protocol, n, p)`:
//!
//! * **completed** — fraction of bare trials whose output forest spans
//!   (a single fragment);
//! * **repaired** — same fraction with repair enabled (the tree builders
//!   recover the p = 0.2 cliff to ~1.0);
//! * **weight/MST** — `Σ|e|` of the produced forest over the clean
//!   Euclidean MST weight (partial forests weigh less, distorted trees
//!   more);
//! * **energy x** — energy inflation over the same protocol's fault-free
//!   run (retry surcharge; expected a small constant factor at small `p`);
//! * the raw drop/retry/timeout counters;
//! * **degraded stage** — for trials that degraded, the stage that
//!   exhausted its retry budget (modal label across trials, from the
//!   per-stage fault deltas on the stage marks).
//!
//! Co-NNT has no repair path (no salvageable fragment forest — its
//! partial structures are per-node parent pointers), so its `repaired`
//! column equals `completed`.
//!
//! Run: `cargo run --release -p emst-bench --bin fault_sweep [-- --trials N --quick --csv]`

use emst_analysis::bench_doc::{FaultsDoc, FaultsRow};
use emst_analysis::{fnum, Table};
use emst_bench::{repair_trial, run_trials, Options, RepairTrial};
use emst_core::Protocol;
use std::collections::BTreeMap;

/// Means of one `(protocol, n, p)` point over the trial fan-out, and the
/// table's degraded-stage cell. `energy_x` is left at 1 for the caller,
/// which knows the protocol's `p = 0` energy.
fn aggregate(protocol: Protocol, n: usize, p: f64, trials: &[RepairTrial]) -> (FaultsRow, String) {
    let count = trials.len() as f64;
    let mean = |f: &dyn Fn(&RepairTrial) -> f64| trials.iter().map(f).sum::<f64>() / count;
    let mut stages: BTreeMap<&str, usize> = BTreeMap::new();
    for t in trials {
        if let Some(stage) = &t.degraded_stage {
            *stages.entry(stage.as_str()).or_default() += 1;
        }
    }
    let degraded: usize = stages.values().sum();
    // Modal label; BTreeMap iteration makes the tie-break lexicographic
    // and therefore deterministic.
    let modal = stages.iter().max_by_key(|&(_, &count)| count);
    let cell = modal.map_or("-".into(), |(stage, count)| {
        format!("{stage} ({count}/{degraded})")
    });
    let row = FaultsRow {
        protocol,
        n,
        p,
        completed: mean(&|t| f64::from(u8::from(t.base.completed))),
        repaired: mean(&|t| f64::from(u8::from(t.repaired_completed))),
        weight_ratio: mean(&|t| t.base.weight / t.base.mst_weight),
        energy: mean(&|t| t.base.energy),
        energy_x: 1.0,
        repaired_energy: mean(&|t| t.repaired_energy),
        repair_attempts: mean(&|t| f64::from(t.repair_attempts)),
        drops: mean(&|t| t.base.drops as f64),
        retries: mean(&|t| t.base.retries as f64),
        timeouts: mean(&|t| t.base.timeouts as f64),
        degraded_stage: modal.map(|(stage, _)| stage.to_string()),
    };
    (row, cell)
}

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![500]
    } else {
        vec![500, 2000]
    };
    let ps = [0.0, 0.01, 0.05, 0.1, 0.2];
    eprintln!(
        "fault_sweep: link-drop reliability ± repair, p ∈ {ps:?} ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut doc_rows: Vec<FaultsRow> = Vec::new();
    for name in ["ghs_modified", "eopt", "co_nnt"] {
        let proto = Protocol::from_name(name, 0).expect("registered protocol");
        for &n in &sizes {
            let mut table = Table::new([
                "drop p",
                "completed",
                "repaired",
                "weight/MST",
                "energy x",
                "repair x",
                "drops",
                "retries",
                "timeouts",
                "degraded stage",
            ]);
            // The p = 0.0 row is the protocol's own fault-free baseline.
            let mut base_energy = None;
            for &p in &ps {
                let trials = run_trials(&opts, |t| repair_trial(opts.seed, n, p, proto, t));
                let (mut row, stage_cell) = aggregate(proto, n, p, &trials);
                let base = *base_energy.get_or_insert(row.energy);
                row.energy_x = row.energy / base;
                table.row([
                    fnum(p, 2),
                    fnum(row.completed, 2),
                    fnum(row.repaired, 2),
                    fnum(row.weight_ratio, 3),
                    fnum(row.energy_x, 2),
                    fnum(row.repaired_energy / base, 2),
                    fnum(row.drops, 1),
                    fnum(row.retries, 1),
                    fnum(row.timeouts, 1),
                    stage_cell,
                ]);
                doc_rows.push(row);
            }
            println!("-- {name} under link faults (n = {n}) --");
            println!("{}", table.render());
            if opts.csv {
                println!("{}", table.to_csv());
            }
        }
    }

    let doc = FaultsDoc {
        seed: opts.seed,
        trials: opts.trials,
        rows: doc_rows,
    };
    let path = "BENCH_faults.json";
    std::fs::write(path, doc.render()).expect("cannot write BENCH_faults.json");
    eprintln!("wrote {path}");
}
