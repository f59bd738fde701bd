//! `emst` — unified command-line front end for the library.
//!
//! ```text
//! emst gen   --n 1000 [--seed S] [--out points.txt]
//! emst run   --algo <ghs|ghs-mod|eopt|nnt|nnt-x|nnt-id|bfs>
//!            (--n 1000 [--seed S] | --in points.txt)
//!            [--radius R] [--tree out.txt] [--verbose]
//! emst mst   (--n 1000 [--seed S] | --in points.txt) [--tree out.txt]
//! emst stats (--n 1000 [--seed S] | --in points.txt) [--radius R]
//! ```
//!
//! `run` executes a distributed algorithm over the radio simulator and
//! prints its energy / message / round statistics plus tree quality
//! against the exact MST; `stats` reports connectivity and giant-component
//! structure at a radius (defaults to the §VII connectivity radius).

use energy_mst::core::{EoptConfig, GhsVariant, RankScheme};
use energy_mst::geom::{
    load_points, paper_phase1_radius, paper_phase2_radius, save_points, trial_rng, uniform_points,
    Point,
};
use energy_mst::graph::{euclidean_mst, SpanningTree};
use energy_mst::percolation::giant_stats;
use energy_mst::radio::RunStats;
use energy_mst::{CsvSink, JsonlSink, MetricsSink, Protocol, Sim, TeeSink, TraceSink};
use std::collections::HashMap;
use std::io::BufWriter;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  emst gen   --n N [--seed S] [--out FILE]\n  emst run   --algo ghs|ghs-mod|eopt|nnt|nnt-x|nnt-id|bfs (--n N [--seed S] | --in FILE) [--radius R] [--tree FILE] [--trace FILE[.csv]] [--metrics] [--verbose]\n  emst mst   (--n N [--seed S] | --in FILE) [--tree FILE]\n  emst stats (--n N [--seed S] | --in FILE) [--radius R]"
    );
    exit(2)
}

/// A file-backed event log: JSONL by default, CSV for `.csv` paths.
enum FileSink {
    Jsonl(JsonlSink<BufWriter<std::fs::File>>),
    Csv(CsvSink<BufWriter<std::fs::File>>),
}

impl FileSink {
    fn create(path: &str) -> std::io::Result<Self> {
        if path.ends_with(".csv") {
            Ok(FileSink::Csv(CsvSink::create(path)?))
        } else {
            Ok(FileSink::Jsonl(JsonlSink::create(path)?))
        }
    }

    fn as_sink(&mut self) -> &mut dyn TraceSink {
        match self {
            FileSink::Jsonl(s) => s,
            FileSink::Csv(s) => s,
        }
    }

    fn finish(self) -> std::io::Result<()> {
        match self {
            FileSink::Jsonl(s) => s.finish().map(drop),
            FileSink::Csv(s) => s.finish().map(drop),
        }
    }
}

fn print_metrics(metrics: &MetricsSink) {
    use energy_mst::analysis::{kind_table, phase_table, summary_line};
    println!("--- metrics ---");
    println!("{}", summary_line(metrics));
    println!("\nper message kind:\n{}", kind_table(metrics).render());
    let phases = phase_table(metrics);
    if !phases.is_empty() {
        println!("per phase:\n{}", phases.render());
    }
    if !metrics.merges().is_empty() {
        println!("fragment merges: {}", metrics.merges().len());
    }
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with("--") {
            eprintln!("unexpected argument {a}");
            usage();
        }
        let key = a.trim_start_matches("--").to_string();
        if key == "verbose" || key == "metrics" {
            flags.insert(key, "true".into());
            i += 1;
        } else {
            if i + 1 >= args.len() {
                eprintln!("flag --{key} needs a value");
                usage();
            }
            flags.insert(key, args[i + 1].clone());
            i += 2;
        }
    }
    flags
}

fn points_from(flags: &HashMap<String, String>) -> Vec<Point> {
    if let Some(path) = flags.get("in") {
        match load_points(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                exit(1)
            }
        }
    } else if let Some(n) = flags.get("n") {
        let n: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("--n must be an integer");
            usage()
        });
        let seed: u64 = flags
            .get("seed")
            .map(|s| s.parse().expect("--seed must be an integer"))
            .unwrap_or(1);
        uniform_points(n, &mut trial_rng(seed, 0))
    } else {
        eprintln!("need --n or --in");
        usage()
    }
}

fn maybe_save_tree(flags: &HashMap<String, String>, tree: &SpanningTree) {
    if let Some(path) = flags.get("tree") {
        let mut out = String::new();
        out.push_str("# u v weight\n");
        for e in tree.edges() {
            out.push_str(&format!("{} {} {}\n", e.u, e.v, e.w));
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!("tree written to {path}");
    }
}

fn print_stats(label: &str, stats: &RunStats, tree: &SpanningTree, points: &[Point]) {
    println!("algorithm:     {label}");
    println!("energy (tx):   {:.6}", stats.energy);
    if stats.rx_energy > 0.0 || stats.idle_energy > 0.0 {
        println!("energy (rx):   {:.6}", stats.rx_energy);
        println!("energy (idle): {:.6}", stats.idle_energy);
        println!("energy (full): {:.6}", stats.full_energy());
    }
    println!("messages:      {}", stats.messages);
    println!("rounds:        {}", stats.rounds);
    println!("tree edges:    {}", tree.edges().len());
    println!("tree Σ|e|:     {:.6}", tree.cost(1.0));
    println!("tree Σ|e|²:    {:.6}", tree.cost(2.0));
    if points.len() >= 2 && tree.is_valid() {
        let mst = euclidean_mst(points);
        println!(
            "vs exact MST:  Σ|e| x{:.4}, Σ|e|² x{:.4}{}",
            tree.cost(1.0) / mst.cost(1.0),
            tree.cost(2.0) / mst.cost(2.0),
            if tree.same_edges(&mst) {
                " (exact)"
            } else {
                ""
            }
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    let flags = parse_flags(rest);
    match cmd {
        "gen" => {
            let pts = points_from(&flags);
            match flags.get("out") {
                Some(path) => {
                    save_points(path, &pts).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    println!("{} points written to {path}", pts.len());
                }
                None => {
                    let mut buf = Vec::new();
                    energy_mst::geom::write_points(&mut buf, &pts).unwrap();
                    print!("{}", String::from_utf8(buf).unwrap());
                }
            }
        }
        "run" => {
            let pts = points_from(&flags);
            let n = pts.len();
            let radius: f64 = flags
                .get("radius")
                .map(|r| r.parse().expect("--radius must be a float"))
                .unwrap_or_else(|| paper_phase2_radius(n.max(2)));
            let algo = flags.get("algo").map(String::as_str).unwrap_or_else(|| {
                eprintln!("run needs --algo");
                usage()
            });
            let (label, protocol) = match algo {
                "ghs" => ("GHS (original)", Protocol::Ghs(GhsVariant::Original)),
                "ghs-mod" => ("GHS (modified)", Protocol::Ghs(GhsVariant::Modified)),
                "eopt" => ("EOPT", Protocol::Eopt(EoptConfig::default())),
                "nnt" => (
                    "Co-NNT (diagonal rank)",
                    Protocol::Nnt(RankScheme::Diagonal),
                ),
                "nnt-x" => ("NNT (x-rank)", Protocol::Nnt(RankScheme::XOrder)),
                "nnt-id" => (
                    "NNT (id-rank, no coordinates)",
                    Protocol::Nnt(RankScheme::NodeId),
                ),
                "bfs" => ("BFS flooding tree", Protocol::Bfs { root: 0 }),
                other => {
                    eprintln!("unknown algorithm {other}");
                    usage()
                }
            };
            let mut metrics = flags.contains_key("metrics").then(MetricsSink::new);
            let mut file = flags.get("trace").map(|path| {
                FileSink::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot create {path}: {e}");
                    exit(1)
                })
            });
            let run = |sink: Option<&mut dyn TraceSink>| {
                let mut sim = Sim::new(&pts);
                if protocol.needs_radius() {
                    sim = sim.radius(radius);
                }
                if let Some(s) = sink {
                    sim = sim.sink(s);
                }
                sim.run(protocol)
            };
            let out = match (&mut metrics, &mut file) {
                (None, None) => run(None),
                (Some(m), None) => run(Some(m)),
                (None, Some(f)) => run(Some(f.as_sink())),
                (Some(m), Some(f)) => {
                    let mut tee = TeeSink::new(m, f.as_sink());
                    run(Some(&mut tee))
                }
            };
            print_stats(label, &out.stats, &out.tree, &pts);
            if flags.contains_key("verbose") {
                println!("--- per-kind ledger ---\n{}", out.stats.ledger);
            }
            if let Some(m) = &metrics {
                print_metrics(m);
            }
            if let Some(f) = file {
                match f.finish() {
                    Ok(()) => println!("trace written to {}", flags["trace"]),
                    Err(e) => {
                        eprintln!("trace write failed: {e}");
                        exit(1);
                    }
                }
            }
            maybe_save_tree(&flags, &out.tree);
        }
        "mst" => {
            let pts = points_from(&flags);
            let tree = euclidean_mst(&pts);
            println!("exact Euclidean MST: {} edges", tree.edges().len());
            println!("Σ|e|:  {:.6}", tree.cost(1.0));
            println!("Σ|e|²: {:.6}", tree.cost(2.0));
            maybe_save_tree(&flags, &tree);
        }
        "stats" => {
            let pts = points_from(&flags);
            let n = pts.len().max(2);
            let radius: f64 = flags
                .get("radius")
                .map(|r| r.parse().expect("--radius must be a float"))
                .unwrap_or_else(|| paper_phase2_radius(n));
            let g = energy_mst::graph::Graph::geometric(&pts, radius);
            let comps = energy_mst::graph::Components::of(&g);
            println!("n = {}, radius = {radius:.5}", pts.len());
            println!("edges: {}, avg degree {:.2}", g.m(), g.avg_degree());
            println!(
                "components: {} (largest {}, {:.1}%)",
                comps.count(),
                comps.largest_size(),
                100.0 * comps.giant_fraction()
            );
            let r1 = paper_phase1_radius(n);
            let s = giant_stats(&pts, r1);
            println!(
                "at the percolation radius r1 = {r1:.5}: giant {:.1}%, {} components, largest small component {}",
                100.0 * s.giant_fraction(),
                s.components,
                s.second_component_nodes
            );
        }
        _ => usage(),
    }
}
