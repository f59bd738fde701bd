//! The workspace benchmark: four seeded workloads driven through the
//! public library and service APIs, with end-to-end metrics from an
//! untraced pass and per-layer metrics from a traced one.
//!
//! ```text
//! benchmark --workload <sweep-2k|scale-100k|serve-mix|churn-2k>
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! benchmark --runs K [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! One workload runs per process, so the peak resident set belongs to it.
//! The output is one `name value unit` line per metric, a `document` line
//! with the provenance (host, git rev, parameter hash, ledger
//! fingerprint), and last a one-line JSON object with exactly `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! output fails its check. `--runs K` runs every workload `K` times as
//! child processes, on seeds `N, N+1, …`, rotating which workload goes
//! first, and prints each metric's quartiles. See `README.md`.

mod alloc;
mod check;
mod churn;
mod host;
mod inputs;
mod layers;
mod openloop;
mod report;
mod scale;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::{git_rev, nproc, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in the order `--runs` starts its rotation from.
const WORKLOADS: [&str; 4] = ["sweep-2k", "scale-100k", "serve-mix", "churn-2k"];
/// The workspace-wide experiment seed.
const DEFAULT_SEED: u64 = 0xE0E7_2008;
/// Default measured window per run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;

/// What one workload run is asked to do.
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the traced pass writes its spans.
    pub spans: Option<PathBuf>,
}

struct Args {
    workload: Option<String>,
    run: RunConfig,
    runs: Option<usize>,
}

const USAGE: &str = "usage: benchmark --workload <sweep-2k|scale-100k|serve-mix|churn-2k> \
     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] | benchmark --runs K [--workload W] \
     [--seed N] [--seconds S]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        run: RunConfig {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            spans: None,
        },
        runs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.run.seconds = s;
            }
            "--trace" => {
                args.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => args.run.spans = Some(PathBuf::from(value()?)),
            "--runs" => {
                let k: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if k == 0 {
                    return Err("--runs must be at least 1".into());
                }
                args.runs = Some(k);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && args.runs.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.runs {
        return repeat(&args, k);
    }
    let workload = args.workload.as_deref().expect("checked in parse_args");
    let mut report = match workload {
        "sweep-2k" => sweep::run(&args.run),
        "scale-100k" => scale::run(&args.run),
        "serve-mix" => serve::run(&args.run),
        "churn-2k" => churn::run(&args.run),
        _ => unreachable!("workload names are validated"),
    };
    if report.attempted == 0 {
        report.problem("no operation completed in the window".into());
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ends a traced pass: adds each layer's share of the self time (a span's
/// duration minus what its children cover) and writes the spans as JSONL.
pub fn finish_trace(cfg: &RunConfig, tracer: &trace::Tracer, report: &mut Report) {
    let spans = tracer.spans();
    let by_layer = trace::self_time_by_layer(&spans);
    let total: f64 = by_layer.values().sum();
    for (layer, ms) in &by_layer {
        report.layer(&format!("self_ms.{layer}"), *ms, "ms");
        report.layer(&format!("self_share.{layer}"), ms / total, "ratio");
    }
    let path = cfg.spans.clone().unwrap_or_else(|| {
        // Beside the executable, i.e. inside the build directory.
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("spans")))
            .unwrap_or_else(|| PathBuf::from("spans"));
        dir.join(format!("{}-{}.jsonl", report.workload, report.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| trace::write_jsonl(std::io::BufWriter::new(f), &spans));
    match written {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.problem(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// `--runs K`: every workload `K` times as child processes on seeds
/// `seed, seed + 1, …`, rotating the starting workload, then each
/// end-to-end metric's median, quartiles and spread (quartile distance
/// over median).
fn repeat(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chosen: Vec<&str> = match args.workload.as_deref() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut values: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for j in 0..k {
        let seed = args.run.seed.wrapping_add(j as u64);
        for r in 0..chosen.len() {
            let workload = chosen[(j + r) % chosen.len()];
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.run.seconds.to_string(), "--trace", "0"])
                .output();
            let parsed = out
                .as_ref()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_owned)
                })
                .and_then(|line| emst_service::json::Json::parse(&line).ok());
            let Some(doc) = parsed else {
                eprintln!("benchmark: run {j} of {workload} (seed {seed}) failed");
                ok = false;
                continue;
            };
            eprintln!("run {j} {workload} seed {seed}: ok");
            let metrics = doc.get("metrics").and_then(|m| m.keys().map(|k| (m, k)));
            if let Some((m, keys)) = metrics {
                for name in keys {
                    let entry = m.get(name).expect("listed key");
                    let value = entry.get("value").and_then(|v| v.as_f64());
                    let unit = entry.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                    if let Some(v) = value {
                        values
                            .entry((workload.to_string(), name.to_string()))
                            .or_insert_with(|| (unit.to_string(), Vec::new()))
                            .1
                            .push(v);
                    }
                }
            }
        }
    }
    let (seconds, first_seed, nproc, rev) = (args.run.seconds, args.run.seed, nproc(), git_rev());
    println!("# {k} runs per workload, {seconds} s each, seeds from {first_seed}, nproc {nproc}, git {rev}");
    println!("# workload metric unit q1 median q3 spread");
    let mut summary = format!(
        r#"{{"runs":{k},"seconds":{seconds:?},"first_seed":{first_seed},"nproc":{nproc},"git_rev":"{rev}","metrics":{{"#
    );
    for (i, ((workload, metric), (unit, v))) in values.iter().enumerate() {
        let (q1, med, q3) = stats::quartiles(v).unwrap_or((v[0], v[0], v[0]));
        let spread = (q3 - q1) / med;
        println!("{workload} {metric} {unit} {q1} {med} {q3} {spread:.4}");
        if i > 0 {
            summary.push(',');
        }
        summary.push_str(&format!(
            r#""{workload}/{metric}":{{"unit":"{unit}","q1":{q1:?},"median":{med:?},"q3":{q3:?},"spread":{spread:?},"values":{v:?}}}"#
        ));
    }
    summary.push_str("}}");
    println!("summary {summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
