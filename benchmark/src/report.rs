//! A run's result: metrics, correctness, provenance, and how they print.

use crate::stats::{
    median, quantile, samples_beyond, sorted, subwindows, tail_level, windowed, Op,
};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` the inputs came from.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Description of the fixed workload parameters (hashed into the
    /// provenance so runs with different parameters never compare).
    pub params: String,
    /// The metrics of the pass: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific layer read-outs beyond the declared metrics.
    pub layers: Vec<Metric>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Correctness problems found (empty when every check passed).
    pub problems: Vec<String>,
    /// Hash of the simulated ledgers (energy bits, messages, rounds) of the
    /// first [`FINGERPRINT_OPS`] operations.
    pub fingerprint: u64,
    /// Operations the fingerprint covers.
    pub fingerprint_ops: usize,
    /// Load-generating threads the run used.
    pub threads: usize,
    /// Connections the run opened to the server under test.
    pub connections: usize,
    /// Extra lines printed before the metrics (sample counts, levels).
    pub notes: Vec<String>,
}

/// Operations whose ledgers enter the fingerprint: a fixed prefix, so the
/// fingerprint does not depend on how many operations a window held.
pub const FINGERPRINT_OPS: usize = 16;

/// Most load-generating threads or connections a run may use: the
/// benchmark host has two cores, and the load must not outnumber them.
pub const MAX_LOAD_THREADS: usize = 2;

impl Report {
    /// Adds a declared metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a workload-specific layer read-out.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("benchmark: correctness: {what}");
        }
        self.problems.push(what);
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Reports `setup_s`: the median of the set-ups' durations, each
    /// divided by the host's slowdown measured just before it (pairs of
    /// seconds and slowdown). The unscaled median is a layer read-out.
    pub fn setup(&mut self, setups: &[(f64, f64)]) {
        let scaled: Vec<f64> = setups.iter().map(|&(s, slow)| s / slow).collect();
        let raw: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
        self.metric("setup_s", median(&scaled), "s");
        self.layer("raw.setup_s", median(&raw), "s");
    }

    /// Reports `ops_per_s` for a window of `span_s` seconds in which
    /// `lanes` workers each run one operation at a time:
    /// per sub-window, operations per second of time spent inside them
    /// (each time divided by the host's slowdown when it ran, see
    /// [`crate::host`]), times `lanes`; then the median across
    /// sub-windows. Counting time inside operations leaves out the
    /// benchmark's own checks between them. The unscaled figure is kept as
    /// a layer read-out.
    pub fn throughput(&mut self, ops: &[Op], span_s: f64, lanes: usize) {
        let per_s = |scaled| {
            windowed(ops, span_s, subwindows(span_s), |w| {
                let busy_ms: f64 = w.iter().map(|o| time(o, scaled)).sum();
                lanes as f64 * w.len() as f64 / (busy_ms / 1e3)
            })
        };
        self.metric("ops_per_s", per_s(true), "1/s");
        self.layer("raw.ops_per_s", per_s(false), "1/s");
    }

    /// Reports `op_ms_p50` and `op_ms_tail` for a window of `span_s`
    /// seconds that holds `nominal` operations at nominal speed, each
    /// operation's time divided by the host's slowdown when it ran. The
    /// median is taken per sub-window; the tail per sub-window of at least
    /// `tail_ops` nominal operations (the whole window if it holds fewer),
    /// at the highest percentile that leaves ten of them beyond it. Each
    /// is then the median across its sub-windows. The unscaled figures,
    /// and the host's median slowdown, are kept as layer read-outs.
    pub fn latency(&mut self, ops: &[Op], span_s: f64, nominal: usize, tail_ops: usize) {
        self.latency_of(ops, ops, span_s, nominal, tail_ops);
    }

    /// As [`Report::latency`], but `op_ms_p50` is the median of
    /// `median_ops`, a subset of `ops`.
    pub fn latency_of(
        &mut self,
        median_ops: &[Op],
        ops: &[Op],
        span_s: f64,
        nominal: usize,
        tail_ops: usize,
    ) {
        let k = subwindows(span_s);
        let k_tail = (nominal / tail_ops).clamp(1, k);
        let level = tail_level(nominal / k_tail);
        self.notes.push(format!(
            "{} operations, op_ms_p50 over {} of them; op_ms_tail is p{} in each \
             of {k_tail} sub-windows of about {} operations ({} beyond)",
            ops.len(),
            median_ops.len(),
            level * 100.0,
            nominal / k_tail,
            samples_beyond(level, nominal / k_tail)
        ));
        for (name, ops, k, q) in [
            ("op_ms_p50", median_ops, k, 0.5),
            ("op_ms_tail", ops, k_tail, level),
        ] {
            let at = |scaled| {
                windowed(ops, span_s, k, |w| {
                    quantile(
                        &sorted(&w.iter().map(|o| time(o, scaled)).collect::<Vec<_>>()),
                        q,
                    )
                })
            };
            self.metric(name, at(true), "ms");
            self.layer(&format!("raw.{name}"), at(false), "ms");
        }
        let slow: Vec<f64> = ops.iter().map(|o| o.slow).collect();
        self.layer("host.slowdown", median(&slow), "ratio");
    }

    /// Checks the load bounds, prints every metric as `name value unit`,
    /// the provenance document, and — last — the one-line result object.
    pub fn print(&mut self) {
        if self.threads > MAX_LOAD_THREADS || self.connections > MAX_LOAD_THREADS {
            self.problem(format!(
                "load used {} threads and {} connections, more than {MAX_LOAD_THREADS}",
                self.threads, self.connections
            ));
        }
        let pass = if self.traced { "traced" } else { "untraced" };
        println!("# {} seed={} ({pass} pass)", self.workload, self.seed);
        for note in &self.notes {
            println!("# {note}");
        }
        for m in self.metrics.iter().chain(&self.layers) {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!(
            "# ledger fingerprint {:016x} over the first {} operations",
            self.fingerprint, self.fingerprint_ops
        );
        println!("document {}", self.document());
        println!("{}", self.result_line());
    }

    /// The provenance document: workload, seed, metrics, layer read-outs,
    /// counts and host.
    pub fn document(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            r#"{{"workload":"{}","seed":{},"pass":"{}","metrics":{},"layers":{},"attempted":{},"failed":{},"correct":{},"fingerprint":"{:016x}","fingerprint_ops":{},"host":{{"nproc":{},"git_rev":"{}","params_hash":"{:016x}","params":"{}","threads":{},"connections":{},"peak_rss_mb":{}}}}}"#,
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            metrics_json(&self.metrics),
            metrics_json(&self.layers),
            self.attempted,
            self.failed,
            self.correct(),
            self.fingerprint,
            self.fingerprint_ops,
            nproc(),
            git_rev(),
            fnv1a(self.params.as_bytes()),
            self.params,
            self.threads,
            self.connections,
            peak_rss_mb(),
        );
        s
    }

    /// The last line of output: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// An operation's time, divided by the host's slowdown or not.
fn time(op: &Op, scaled: bool) -> f64 {
    if scaled {
        op.ms / op.slow
    } else {
        op.ms
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // `{:?}` prints the shortest digits that round-trip, with a
        // decimal point; non-finite values are not JSON and become null.
        if m.value.is_finite() {
            let _ = write!(
                s,
                r#""{}":{{"value":{:?},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            );
        } else {
            let _ = write!(s, r#""{}":{{"value":null,"unit":"{}"}}"#, m.name, m.unit);
        }
    }
    s.push('}');
    s
}

/// FNV-1a, for fingerprints and the parameter hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Folds one operation's ledger into a running fingerprint.
pub fn fold_ledger(fp: u64, energy: f64, messages: u64, rounds: u64) -> u64 {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&fp.to_le_bytes());
    bytes[8..16].copy_from_slice(&energy.to_bits().to_le_bytes());
    bytes[16..24].copy_from_slice(&messages.to_le_bytes());
    bytes[24..].copy_from_slice(&rounds.to_le_bytes());
    fnv1a(&bytes)
}

/// Cores the host reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MiB; `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            workload: "w",
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 2.0, "s");
        let doc = emst_service::json::Json::parse(&r.result_line()).expect("valid json");
        let keys: Vec<&str> = doc.keys().expect("object").collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        r.failed = 1;
        assert!(!r.correct());
        emst_service::json::Json::parse(&r.document()).expect("valid document");
    }

    #[test]
    fn fingerprint_depends_on_every_ledger_field() {
        let a = fold_ledger(0, 1.5, 10, 3);
        assert_ne!(a, fold_ledger(0, 1.5, 11, 3));
        assert_ne!(a, fold_ledger(0, 1.5, 10, 4));
        assert_ne!(
            a,
            fold_ledger(0, f64::from_bits(1.5f64.to_bits() + 1), 10, 3)
        );
        assert_ne!(a, fold_ledger(1, 1.5, 10, 3));
        assert_eq!(a, fold_ledger(0, 1.5, 10, 3));
    }
}
