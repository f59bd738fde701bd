//! Typed failure handling for the experiment binaries' report stage.
//!
//! The shape-check epilogues of the `src/bin/*` reports index into sweep
//! results (`rows.last().unwrap()`, "find the paper's multiplier"). A
//! misconfigured sweep used to turn those into panics with no context;
//! they are now [`ReportError`] values, and every binary exits non-zero
//! with a one-line diagnosis instead of a backtrace.
//!
//! Sweeps that must contain the paper's operating point declare it by
//! *index* into their multiplier list (`EOPT_ABLATION_PAPER_INDEX`,
//! `CONNECTIVITY_PAPER_INDEX`) rather than re-finding the row by `f64`
//! equality at report time — the old `(m - 1.4).abs() < 1e-9` scan broke
//! silently whenever the list was edited.

/// The phase-1 multiplier sweep of the `ablation_eopt_radius` report.
/// Index [`EOPT_ABLATION_PAPER_INDEX`] is the paper's operating point.
pub const EOPT_ABLATION_MULTIPLIERS: [f64; 9] = [0.6, 0.8, 1.0, 1.2, 1.4, 1.7, 2.0, 2.5, 3.0];

/// Position of the paper's `m₁ = 1.4` in [`EOPT_ABLATION_MULTIPLIERS`]
/// (pinned to [`emst_geom::PAPER_PHASE1_MULTIPLIER`] by a regression
/// test).
pub const EOPT_ABLATION_PAPER_INDEX: usize = 4;

/// The connectivity-threshold multiplier sweep of the `connectivity`
/// report. Index [`CONNECTIVITY_PAPER_INDEX`] is §VII's `m = 1.6`.
pub const CONNECTIVITY_MULTIPLIERS: [f64; 9] = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4];

/// Position of §VII's `m = 1.6` in [`CONNECTIVITY_MULTIPLIERS`] (pinned
/// to [`emst_geom::PAPER_PHASE2_MULTIPLIER`] by a regression test).
pub const CONNECTIVITY_PAPER_INDEX: usize = 5;

/// Why a report could not be produced from the sweep results.
#[derive(Debug)]
pub enum ReportError {
    /// A sweep that the report indexes into came back empty.
    EmptySweep {
        /// Which sweep.
        what: &'static str,
    },
    /// A structure the report summarises is absent (e.g. a component
    /// decomposition with no components).
    Missing {
        /// What was absent.
        what: &'static str,
    },
    /// Shape checks the report gates on came out false.
    CheckFailed {
        /// The failed checks' names, comma-separated.
        what: String,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::EmptySweep { what } => {
                write!(f, "{what} sweep produced no rows; nothing to report")
            }
            ReportError::Missing { what } => write!(f, "{what} is absent; nothing to report"),
            ReportError::CheckFailed { what } => write!(f, "shape check failed: {what}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// The first row of a sweep, or a typed error naming the sweep.
pub fn first_row<'a, T>(rows: &'a [T], what: &'static str) -> Result<&'a T, ReportError> {
    rows.first().ok_or(ReportError::EmptySweep { what })
}

/// The last row of a sweep, or a typed error naming the sweep.
pub fn last_row<'a, T>(rows: &'a [T], what: &'static str) -> Result<&'a T, ReportError> {
    rows.last().ok_or(ReportError::EmptySweep { what })
}

/// The row at a declared index (e.g. the paper's operating point), or a
/// typed error naming the sweep.
pub fn row_at<'a, T>(rows: &'a [T], at: usize, what: &'static str) -> Result<&'a T, ReportError> {
    rows.get(at).ok_or(ReportError::EmptySweep { what })
}

/// `Ok` when every named shape check holds, else a typed error naming the
/// ones that do not — the exit gate of reports whose verdicts are claims.
pub fn all_hold(checks: &[(&str, bool)]) -> Result<(), ReportError> {
    let failed: Vec<&str> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(ReportError::CheckFailed {
            what: failed.join(", "),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the float-equality row scan this module replaced:
    /// the declared indices must keep pointing at the paper's constants
    /// even if the sweep lists are edited.
    #[test]
    fn paper_indices_point_at_the_paper_constants() {
        assert_eq!(
            EOPT_ABLATION_MULTIPLIERS[EOPT_ABLATION_PAPER_INDEX],
            emst_geom::PAPER_PHASE1_MULTIPLIER
        );
        assert_eq!(
            CONNECTIVITY_MULTIPLIERS[CONNECTIVITY_PAPER_INDEX],
            emst_geom::PAPER_PHASE2_MULTIPLIER
        );
        // The lists stay strictly increasing, so "subcritical first row"
        // and "largest last row" reads in the reports stay meaningful.
        assert!(EOPT_ABLATION_MULTIPLIERS.windows(2).all(|w| w[0] < w[1]));
        assert!(CONNECTIVITY_MULTIPLIERS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn row_helpers_return_typed_errors_on_empty_sweeps() {
        let empty: [f64; 0] = [];
        assert!(matches!(
            first_row(&empty, "ablation"),
            Err(ReportError::EmptySweep { what: "ablation" })
        ));
        assert!(last_row(&empty, "x").is_err());
        assert!(row_at(&[1.0], 1, "x").is_err());
        assert_eq!(*last_row(&[1.0, 2.0], "x").unwrap(), 2.0);
        assert_eq!(*row_at(&[1.0, 2.0], 0, "x").unwrap(), 1.0);
        let msg = last_row(&empty, "connectivity").unwrap_err().to_string();
        assert!(msg.contains("connectivity"));
    }

    #[test]
    fn all_hold_names_every_failed_check() {
        assert!(all_hold(&[]).is_ok());
        assert!(all_hold(&[("a", true), ("b", true)]).is_ok());
        let msg = all_hold(&[("a", false), ("b", true), ("c", false)])
            .unwrap_err()
            .to_string();
        assert_eq!(msg, "shape check failed: a, c");
    }
}
