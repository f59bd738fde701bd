//! # emst-bench — experiment harness
//!
//! Shared machinery for the experiment binaries (`src/bin/*`) and Criterion
//! benches (`benches/*`) that regenerate every table and figure of the
//! paper's evaluation (§VII) plus the theorem-validation and ablation
//! experiments indexed in DESIGN.md.
//!
//! Everything is seeded: instance `(n, trial)` is produced by
//! `trial_rng(mix_seed(BASE_SEED, n), trial)`, so any row of any table
//! can be regenerated in isolation.

pub mod chaos;
pub mod cli;
pub mod fanout;
pub mod report;
pub mod runner;

pub use chaos::{
    churn_violations, random_plan, random_timeline, rate_timeline, run_chaos, run_churn_chaos,
    shrink, shrink_timeline, violations, ChaosReport, ChaosViolation, ChurnChaosReport,
    ChurnViolation, CHAOS_PROTOCOLS,
};
pub use cli::Options;
pub use fanout::{apply_thread_override, run_sweep, run_sweep_multi, run_trials};
pub use report::{
    all_hold, first_row, last_row, row_at, ReportError, CONNECTIVITY_MULTIPLIERS,
    CONNECTIVITY_PAPER_INDEX, EOPT_ABLATION_MULTIPLIERS, EOPT_ABLATION_PAPER_INDEX,
};
pub use runner::*;

pub use emst_geom::BASE_SEED;

/// Writes an SVG next to the experiment's other outputs when `--svg DIR`
/// was given; creates the directory as needed.
pub fn save_svg(opts: &Options, name: &str, svg: &str) {
    if let Some(dir) = &opts.svg_dir {
        let path = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(path) {
            eprintln!("cannot create {dir}: {e}");
            return;
        }
        let file = path.join(format!("{name}.svg"));
        match std::fs::write(&file, svg) {
            Ok(()) => eprintln!("wrote {}", file.display()),
            Err(e) => eprintln!("cannot write {}: {e}", file.display()),
        }
    }
}
