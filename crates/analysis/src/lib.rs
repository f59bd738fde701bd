//! # emst-analysis — experiment harness substrate
//!
//! Statistics, sweep machinery and file formats used by the bench
//! binaries that regenerate the paper's tables and figures:
//!
//! * [`Summary`] — mean/σ/median/CI of trial samples;
//! * [`fit_line`] / [`fit_loglog_exponent`] — OLS fits, including the
//!   Fig 3(b) `log W` vs `log log n` slope extraction;
//! * [`sweep()`] / [`sweep_multi`] — parameter sweeps with independent
//!   seeded trials, fanned out over cores;
//! * [`parallel_map`] — scoped-thread, order-preserving parallel map;
//! * [`Table`] — fixed-width and CSV table emission;
//! * [`metrics`] — table renderers over a run's
//!   [`MetricsSink`](emst_radio::MetricsSink) aggregates;
//! * [`json`] — the workspace's one JSON parser (request bodies, BENCH
//!   documents);
//! * [`bench_doc`] — one typed document per BENCH schema, the single
//!   owner of each `BENCH_*.json` format.

pub mod bench_doc;
pub mod json;
pub mod metrics;
pub mod parallel;
pub mod regression;
pub mod summary;
pub mod svg;
pub mod sweep;
pub mod table;

pub use metrics::{kind_table, phase_table, round_bucket_table, summary_line};
pub use parallel::{effective_parallelism, parallel_map, set_thread_override};
pub use regression::{fit_line, fit_loglog_exponent, LineFit};
pub use summary::{quantile, Summary};
pub use svg::{LineChart, Scale, Series, UnitSquarePlot};
pub use sweep::{sweep, sweep_multi, SweepPoint};
pub use table::{fnum, Table};
