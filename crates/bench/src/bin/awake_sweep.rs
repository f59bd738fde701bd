//! **R6 — awake sweep:** awake complexity (total and max-per-node awake
//! rounds) next to energy across the MST protocols.
//!
//! The paper's charging model bills every node for every round; the
//! awake-complexity lens (Augustine–Moses–Pandurangan) instead counts
//! only the rounds a node spends listening or transmitting, treating
//! sleep as free. This sweep runs each protocol under an installed
//! [`emst_core::Sim::awake`] schedule and reports, per `(n, protocol)`:
//!
//! * **awake total** — awake node-rounds summed over all nodes;
//! * **awake max** — the worst single node's awake rounds (the metric
//!   the low-awake literature optimises);
//! * **max/rounds** — awake max as a fraction of the run's rounds (1.0
//!   for an all-awake protocol, lower when nodes genuinely sleep);
//! * the usual energy / messages / rounds triple for context.
//!
//! `ghs_lowawake` is the modified GHS with stage-tail sleeping: identical
//! forest, messages and rounds, but members sleep once their own
//! fragment's stage work is done and exhausted fragments sleep whole
//! stages. The sweep **asserts** it beats plain `ghs_modified` on awake
//! max at the largest measured size — the same pin `bench_summary
//! --check` re-checks on the committed `BENCH_awake.json`
//! (`bench_awake/v1`).
//!
//! Run: `cargo run --release -p emst-bench --bin awake_sweep [-- --trials N --quick --csv]`

use emst_analysis::bench_doc::{AwakeDoc, AwakeRow};
use emst_analysis::{fnum, Table};
use emst_bench::{instance, run_trials, Options};
use emst_core::{Protocol, Sim};
use emst_geom::paper_phase2_radius;

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![300]
    } else {
        vec![500, 2000]
    };
    eprintln!(
        "awake_sweep: awake rounds vs energy across protocols \
         ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut doc_rows: Vec<AwakeRow> = Vec::new();
    for &n in &sizes {
        let radius = paper_phase2_radius(n);
        let mut table = Table::new([
            "protocol",
            "awake total",
            "awake max",
            "max/rounds",
            "energy",
            "messages",
            "rounds",
        ]);
        for name in ["ghs_modified", "ghs_lowawake", "eopt", "co_nnt"] {
            let protocol = Protocol::from_name(name, 0).expect("registered protocol");
            let trials = opts.trials as f64;
            let samples = run_trials(&opts, |t| {
                let pts = instance(opts.seed, n, t);
                let mut sim = Sim::new(&pts).awake(true);
                if protocol.needs_radius() {
                    sim = sim.radius(radius);
                }
                let out = sim.run(protocol);
                let awake = out.awake().expect("awake tracking was requested");
                (
                    awake.total,
                    awake.max_per_node,
                    out.stats.energy,
                    out.stats.messages,
                    out.stats.rounds,
                )
            });
            let mut row = AwakeRow {
                n,
                protocol,
                awake_total: 0.0,
                awake_max: 0.0,
                energy: 0.0,
                messages: 0.0,
                rounds: 0.0,
            };
            for (total, max, energy, messages, rounds) in samples {
                row.awake_total += total as f64 / trials;
                row.awake_max += max as f64 / trials;
                row.energy += energy / trials;
                row.messages += messages as f64 / trials;
                row.rounds += rounds as f64 / trials;
            }
            table.row([
                name.into(),
                fnum(row.awake_total, 0),
                fnum(row.awake_max, 1),
                fnum(row.awake_max / row.rounds, 3),
                fnum(row.energy, 3),
                fnum(row.messages, 0),
                fnum(row.rounds, 1),
            ]);
            doc_rows.push(row);
        }
        println!("-- awake complexity (n = {n}) --");
        println!("{}", table.render());
        if opts.csv {
            println!("{}", table.to_csv());
        }
    }

    // The point of the low-awake variant: at scale its worst node must be
    // awake for strictly fewer rounds than under plain GHS (whose every
    // node is up for the whole run), at the largest measured size
    // (n = 2000 in a full run). The document owns that pin.
    let doc = AwakeDoc {
        seed: opts.seed,
        trials: opts.trials,
        lowawake_win: AwakeDoc::lowawake_win_of(&doc_rows),
        rows: doc_rows,
    };
    doc.check().unwrap_or_else(|e| panic!("{e}"));
    let path = "BENCH_awake.json";
    std::fs::write(path, doc.render()).expect("cannot write BENCH_awake.json");
    eprintln!("wrote {path}");
}
