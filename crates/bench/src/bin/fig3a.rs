//! **E1 — Figure 3(a):** total energy consumed by GHS, EOPT and Co-NNT as
//! a function of `n` (50 … 5000, uniform random nodes in the unit square).
//!
//! Paper setup (§VII): GHS and EOPT's second phase use radius
//! `1.6·√(ln n/n)`; EOPT's first phase uses `1.4·√(1/n)`. The paper's
//! Figure 3(a) shows GHS growing far faster than EOPT, with Co-NNT nearly
//! flat near the bottom. The run exits non-zero when one of those three
//! shape checks fails at the largest `n`.
//!
//! Run: `cargo run --release -p emst-bench --bin fig3a [-- --trials N --csv --quick]`

use emst_analysis::{fnum, LineChart, Series, Table};
use emst_bench::{
    all_hold, fig3_energies, first_row, last_row, run_sweep_multi, save_svg, Options, ReportError,
};

fn main() {
    if let Err(e) = run() {
        eprintln!("fig3a: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), ReportError> {
    let opts = Options::from_env();
    let sizes = opts.paper_sizes();
    eprintln!(
        "fig3a: energy vs n for GHS / EOPT / Co-NNT ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let rows = run_sweep_multi(&opts, &sizes, |&n, t| fig3_energies(opts.seed, n, t));

    let mut table = Table::new([
        "n",
        "GHS energy",
        "±95%",
        "EOPT energy",
        "±95%",
        "Co-NNT energy",
        "±95%",
        "GHS/EOPT",
        "EOPT/NNT",
    ]);
    for (n, [ghs, eopt, nnt]) in &rows {
        table.row([
            n.to_string(),
            fnum(ghs.mean, 3),
            fnum(ghs.ci95(), 3),
            fnum(eopt.mean, 3),
            fnum(eopt.ci95(), 3),
            fnum(nnt.mean, 3),
            fnum(nnt.ci95(), 3),
            fnum(ghs.mean / eopt.mean, 2),
            fnum(eopt.mean / nnt.mean, 2),
        ]);
    }
    println!("{}", table.render());
    if opts.csv {
        println!("{}", table.to_csv());
    }

    // Optional SVG rendition of the figure.
    let mut chart = LineChart::new(
        "Figure 3(a): energy consumed vs n".to_string(),
        "n (number of nodes)".to_string(),
        "total energy".to_string(),
    );
    for (k, label) in ["GHS", "EOPT", "Co-NNT"].iter().enumerate() {
        chart.add(Series::new(
            *label,
            rows.iter().map(|(n, s)| (*n as f64, s[k].mean)).collect(),
        ));
    }
    save_svg(&opts, "fig3a", &chart.render());

    // Shape verdicts matching the paper's qualitative claims.
    let (n, [ghs, eopt, nnt]) = last_row(&rows, "fig3a size")?;
    let first = first_row(&rows, "fig3a size")?;
    let checks = [
        ("GHS > EOPT", ghs.mean > eopt.mean),
        ("EOPT > Co-NNT", eopt.mean > nnt.mean),
        ("Co-NNT flat", nnt.mean < first.1[2].mean * 4.0 + 10.0),
    ];
    println!("shape checks at n = {n}:");
    println!(
        "  GHS > EOPT:   {} ({:.1} vs {:.1})",
        checks[0].1, ghs.mean, eopt.mean
    );
    println!(
        "  EOPT > Co-NNT: {} ({:.1} vs {:.1})",
        checks[1].1, eopt.mean, nnt.mean
    );
    println!(
        "  Co-NNT flat:  {} (energy x{:.2} while n x{})",
        checks[2].1,
        nnt.mean / first.1[2].mean.max(1e-9),
        n / first.0
    );
    all_hold(&checks)
}
