//! Chaos harness driver: randomized fault-plan search over the tree
//! builders with repair enabled, plus a deterministic shrinker demo.
//!
//! ```text
//! chaos [--plans N] [--seed S] [--n NODES] [--shrink-demo]
//! ```
//!
//! Default mode generates `--plans` seeded random fault plans
//! ([`emst_bench::random_plan`]), checks every reliability invariant on
//! each ([`emst_bench::violations`]) against every tree builder
//! ([`emst_bench::CHAOS_PROTOCOLS`]: the original, modified and low-awake
//! GHS variants and EOPT), and
//! exits non-zero if any violation survives — printing the shrunk plan
//! as a copy-pastable `FaultPlan` constructor so the failure can be
//! replayed in a unit test verbatim.
//!
//! `--churn` switches the search space from fault plans to churn
//! timelines: `--plans` seeded random [`emst_bench::random_timeline`]s
//! drive the maintenance loop through
//! [`emst_bench::churn_violations`] (epoch monotonicity, bitwise ledger
//! conservation, forest validity, strategy/Kruskal agreement, bitwise
//! determinism), with failing timelines shrunk and printed as
//! `ChurnTimeline` constructors.
//!
//! `--shrink-demo` instead exercises the shrinker on a synthetic failing
//! predicate seeded with noise entries, printing the minimization trace;
//! CI runs it twice and diffs the output to pin the shrinker's
//! determinism.

use emst_bench::{run_chaos, run_churn_chaos, shrink, CHAOS_PROTOCOLS};
use emst_radio::FaultPlan;

struct ChaosOptions {
    plans: u64,
    seed: u64,
    n: usize,
    shrink_demo: bool,
    churn: bool,
}

/// The shared [`emst_bench::Options`] parser rejects unknown flags, so
/// the chaos-specific surface is parsed here.
fn parse() -> ChaosOptions {
    let mut opts = ChaosOptions {
        plans: 200,
        seed: 0xC4A0_5EED,
        n: 120,
        shrink_demo: false,
        churn: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--plans" => opts.plans = value("--plans").parse().expect("--plans: u64"),
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: u64"),
            "--n" => opts.n = value("--n").parse().expect("--n: usize"),
            "--shrink-demo" => opts.shrink_demo = true,
            "--churn" => opts.churn = true,
            other => panic!(
                "unknown flag {other} (chaos takes --plans/--seed/--n/--churn/--shrink-demo)"
            ),
        }
    }
    opts
}

/// Deterministic shrinker demonstration: a synthetic predicate ("crashes
/// node 0 and drops at ≥ 15%") buried under noise entries must minimize
/// to its 2-entry core, identically on every invocation.
fn shrink_demo(seed: u64) {
    let noisy = FaultPlan::none()
        .seed(seed)
        .drop_probability(0.2)
        .crash_at(0, 10)
        .crash_at(41, 3)
        .crash_at(17, 22)
        .sleep_between(4, 1, 9)
        .sleep_between(11, 5, 20)
        .sleep_between(29, 30, 44);
    let fails =
        |p: &FaultPlan| p.drop_p() >= 0.15 && p.crashes().iter().any(|&(node, _)| node == 0);
    println!(
        "injected ({} entries): {}",
        noisy.entry_count(),
        noisy.to_source()
    );
    let minimized = shrink(&noisy, &fails);
    println!(
        "minimized ({} entries): {}",
        minimized.entry_count(),
        minimized.to_source()
    );
    assert!(
        minimized.entry_count() <= 3,
        "shrinker left {} entries",
        minimized.entry_count()
    );
}

fn main() {
    let opts = parse();
    if opts.shrink_demo {
        shrink_demo(opts.seed);
        return;
    }
    if opts.churn {
        eprintln!(
            "chaos: {} churn timelines, n={}, seed={:#x}, strategies=[incremental, recompute]",
            opts.plans, opts.n, opts.seed
        );
        let report = run_churn_chaos(opts.seed, opts.plans, opts.n);
        for v in &report.violations {
            println!("VIOLATION timeline {}:", v.index);
            for m in &v.messages {
                println!("  - {m}");
            }
            println!("  timeline:  {}", v.timeline.to_source());
            println!("  minimized: {}", v.minimized.to_source());
        }
        println!(
            "chaos: {} churn timelines, {} violations",
            report.timelines,
            report.violations.len()
        );
        if !report.violations.is_empty() {
            std::process::exit(1);
        }
        return;
    }
    let names: Vec<&str> = CHAOS_PROTOCOLS.iter().map(|p| p.name()).collect();
    eprintln!(
        "chaos: {} plans, n={}, seed={:#x}, protocols=[{}]",
        opts.plans,
        opts.n,
        opts.seed,
        names.join(", ")
    );
    let report = run_chaos(opts.seed, opts.plans, opts.n);
    for v in &report.violations {
        println!("VIOLATION plan {} on {}:", v.index, v.protocol);
        for m in &v.messages {
            println!("  - {m}");
        }
        println!("  plan:      {}", v.plan.to_source());
        println!("  minimized: {}", v.minimized.to_source());
    }
    println!(
        "chaos: {} plans x {} protocols, {} violations",
        report.plans,
        CHAOS_PROTOCOLS.len(),
        report.violations.len()
    );
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
