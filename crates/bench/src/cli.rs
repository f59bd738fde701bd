//! Minimal command-line options shared by all experiment binaries.
//!
//! Supported flags (all optional):
//!
//! * `--trials N`  — independent seeded trials per sweep point;
//! * `--quick`     — shrink instance sizes / trials for smoke runs;
//! * `--csv`       — additionally emit each table as CSV after the
//!   human-readable rendering;
//! * `--seed S`    — override the base seed;
//! * `--threads T` — worker threads for the trial fan-out (default: the
//!   `EMST_THREADS` environment variable, then `available_parallelism()`);
//! * `--guard`     — (bench_summary only) assert the pinned wall-time
//!   regression guard and the throughput-flatness guard, failing the run
//!   if either trips;
//! * `--large`     — (bench_summary / large_smoke) extend the sweep to
//!   the large-n sizes (20 000 and 100 000 for the scalable protocols);
//! * `--check PATH` — (bench_summary only) parse the BENCH document at
//!   PATH under the schema its tag names, check that schema's
//!   invariants and exit (the CI guard that every writer's output stays
//!   consumable).

use crate::BASE_SEED;

/// Parsed experiment options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Trials per sweep point.
    pub trials: usize,
    /// Quick (smoke) mode.
    pub quick: bool,
    /// Emit CSV too.
    pub csv: bool,
    /// Write an SVG rendition of each figure to this directory.
    pub svg_dir: Option<String>,
    /// Base seed.
    pub seed: u64,
    /// Worker-thread override for the trial fan-out (`None` = use
    /// `EMST_THREADS`, then `available_parallelism()`).
    pub threads: Option<usize>,
    /// Enforce the pinned wall-time regression guard (bench_summary).
    pub guard: bool,
    /// Extend the sweep to the large-n sizes (bench_summary/large_smoke).
    pub large: bool,
    /// Check a BENCH document and exit (bench_summary).
    pub check: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            trials: 5,
            quick: false,
            csv: false,
            svg_dir: None,
            seed: BASE_SEED,
            threads: None,
            guard: false,
            large: false,
            check: None,
        }
    }
}

impl Options {
    /// Parses `std::env::args()`; panics with a usage message on malformed
    /// input (these are experiment binaries, not user-facing tools).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trials" => {
                    let v = it.next().expect("--trials needs a value");
                    opts.trials = v.parse().expect("--trials needs an integer");
                    assert!(opts.trials > 0, "--trials must be positive");
                }
                "--quick" => opts.quick = true,
                "--csv" => opts.csv = true,
                "--guard" => opts.guard = true,
                "--large" => opts.large = true,
                "--svg" => {
                    let v = it.next().expect("--svg needs a directory");
                    opts.svg_dir = Some(v);
                }
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed needs an integer");
                }
                "--threads" => {
                    let v = it.next().expect("--threads needs a value");
                    let t: usize = v.parse().expect("--threads needs an integer");
                    assert!(t > 0, "--threads must be positive");
                    opts.threads = Some(t);
                }
                "--check" => {
                    let v = it.next().expect("--check needs a path");
                    opts.check = Some(v);
                }
                other => panic!(
                    "unknown option {other}; supported: --trials N --quick --csv --svg DIR \
                     --seed S --threads T --guard --large --check PATH"
                ),
            }
        }
        if opts.quick {
            opts.trials = opts.trials.min(2);
        }
        opts
    }

    /// The §VII sweep sizes (50 … 5000), shrunk in quick mode.
    pub fn paper_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![50, 100, 200, 400, 800]
        } else {
            vec![
                50, 100, 250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000,
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.trials, 5);
        assert!(!o.quick);
        assert!(!o.csv);
        assert_eq!(o.seed, BASE_SEED);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--trials",
            "9",
            "--csv",
            "--seed",
            "42",
            "--svg",
            "out",
            "--threads",
            "3",
            "--guard",
            "--large",
        ]);
        assert_eq!(o.trials, 9);
        assert!(o.csv);
        assert_eq!(o.seed, 42);
        assert_eq!(o.svg_dir.as_deref(), Some("out"));
        assert_eq!(o.threads, Some(3));
        assert!(o.guard);
        assert!(o.large);
        assert!(!parse(&[]).guard);
        assert!(!parse(&[]).large);
        assert_eq!(
            parse(&["--check", "BENCH_churn.json"]).check.as_deref(),
            Some("BENCH_churn.json")
        );
    }

    #[test]
    #[should_panic(expected = "--threads must be positive")]
    fn rejects_zero_threads() {
        let _ = parse(&["--threads", "0"]);
    }

    #[test]
    fn quick_caps_trials_and_sizes() {
        let o = parse(&["--trials", "10", "--quick"]);
        assert_eq!(o.trials, 2);
        assert!(o.paper_sizes().iter().all(|&n| n <= 800));
        assert_eq!(parse(&[]).paper_sizes().last(), Some(&5000));
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn rejects_unknown() {
        let _ = parse(&["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "--trials needs a value")]
    fn rejects_missing_value() {
        let _ = parse(&["--trials"]);
    }
}
