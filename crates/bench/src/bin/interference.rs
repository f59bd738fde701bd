//! **E9 — interference (§VIII):** the cost of dropping the paper's
//! no-collision assumption.
//!
//! The paper claims (citing \[15\]'s contention-resolution protocol) that
//! handling RBN interference costs a **constant factor in energy** and a
//! large factor in **time**. This experiment runs the two reactive
//! protocols (Co-NNT and the BFS flooding tree) both collision-free and
//! under the slotted-ALOHA RBN layer, and reports energy/message/round
//! inflation. The constructed trees must be identical — contention delays
//! but never loses messages.
//!
//! Run: `cargo run --release -p emst-bench --bin interference [-- --trials N --csv]`

use emst_analysis::{fnum, Table};
use emst_bench::{instance, last_row, run_sweep_multi, Options, ReportError};
use emst_core::{Protocol, RankScheme, RunError, RunOutput, Sim};
use emst_geom::paper_phase2_radius;
use emst_radio::ContentionConfig;

/// `(energy ratio, message ratio, round ratio, trees equal)` for one
/// protocol run with/without contention.
fn inflation(seed: u64, n: usize, trial: u64, protocol: Protocol, p_attempt: f64) -> [f64; 4] {
    let pts = instance(seed, n, trial);
    let mac = ContentionConfig {
        attempt_probability: p_attempt,
        seed: seed ^ trial,
        ..ContentionConfig::default()
    };
    let sim = |contended: bool| -> Result<RunOutput, RunError> {
        let mut sim = Sim::new(&pts);
        if protocol.needs_radius() {
            sim = sim.radius(paper_phase2_radius(n));
        }
        if contended {
            sim = sim.contention(mac);
        }
        sim.run_checked(protocol)
    };
    let clean = sim(false).expect("collision-free reactive runs cannot abort");
    // A contended trial can abort on the §VIII livelock guard; the typed
    // error keeps one bad trial from tearing down the whole parallel
    // sweep (workers propagate panics). NaN ratios make the aborted
    // trial visible in the aggregates instead of silently skewing them.
    let noisy = match sim(true) {
        Ok(out) => out,
        Err(err) => {
            eprintln!(
                "interference: contended {} trial {trial} (n={n}) aborted: {err}",
                protocol.name()
            );
            return [f64::NAN, f64::NAN, f64::NAN, 0.0];
        }
    };
    let (clean, noisy) = ((clean.tree, clean.stats), (noisy.tree, noisy.stats));
    [
        noisy.1.energy / clean.1.energy,
        noisy.1.messages as f64 / clean.1.messages as f64,
        noisy.1.rounds as f64 / clean.1.rounds as f64,
        if noisy.0.same_edges(&clean.0) {
            1.0
        } else {
            0.0
        },
    ]
}

fn main() {
    if let Err(e) = run() {
        eprintln!("interference: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), ReportError> {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![100, 300]
    } else {
        vec![100, 300, 1000]
    };
    eprintln!(
        "interference: slotted-ALOHA RBN vs collision-free ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let nnt = Protocol::Nnt(RankScheme::Diagonal);
    for protocol in [nnt, Protocol::Bfs { root: 0 }] {
        let rows = run_sweep_multi(&opts, &sizes, |&n, t| {
            inflation(opts.seed, n, t, protocol, 0.25)
        });
        let mut table = Table::new(["n", "energy x", "messages x", "rounds x", "tree preserved"]);
        for (n, [e, m, r, same]) in &rows {
            table.row([
                n.to_string(),
                fnum(e.mean, 2),
                fnum(m.mean, 2),
                fnum(r.mean, 1),
                fnum(same.mean, 2),
            ]);
        }
        println!("-- {} under contention (p = 0.25) --", protocol.name());
        println!("{}", table.render());
        if opts.csv {
            println!("{}", table.to_csv());
        }
        let last = last_row(&rows, "contention size")?;
        println!(
            "  verdict: energy x{:.2} (constant factor), time x{:.1} (large), trees preserved: {}\n",
            last.1[0].mean,
            last.1[2].mean,
            last.1[3].mean == 1.0
        );
    }

    // Backoff-probability ablation at fixed n.
    let n = if opts.quick { 200 } else { 500 };
    let ps = [0.05, 0.1, 0.25, 0.5];
    let rows = run_sweep_multi(&opts, &ps, |&p, t| {
        inflation(opts.seed ^ 0x77, n, t, nnt, p)
    });
    let mut table = Table::new(["attempt p", "energy x", "rounds x"]);
    for (p, [e, _, r, _]) in &rows {
        table.row([fnum(*p, 2), fnum(e.mean, 2), fnum(r.mean, 1)]);
    }
    println!("-- ALOHA attempt-probability ablation (Co-NNT, n = {n}) --");
    println!("{}", table.render());
    if opts.csv {
        println!("{}", table.to_csv());
    }
    println!("  trade-off: aggressive p collides more (energy); timid p idles more (rounds)");
    Ok(())
}
