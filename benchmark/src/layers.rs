//! Per-layer read-outs of a traced pass, common to every workload.
//!
//! Each workload's traced pass times its calls into the layers through
//! [`LayerStats`]; [`LayerStats::report`] turns the totals into the
//! per-layer metrics `BENCHMARK.json` declares (the same set for every
//! workload) plus workload-specific read-outs of every protocol scope and
//! stage the runs went through.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{timed, PhaseClock, Span, Tracer};
use emst_core::{RunError, RunOutput};
use emst_radio::Topology;
use std::collections::BTreeMap;

/// GHS sub-stages, in the order a phase runs them.
const GHS_STAGES: [&str; 6] = [
    "discover",
    "initiate",
    "test",
    "report",
    "change-root",
    "announce",
];

/// Accumulated timings of one traced pass (mergeable across workers).
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    sorted_ms: Vec<f64>,
    runs: u64,
    run_ms: f64,
    setup_ms: f64,
    finish_ms: f64,
    messages: u64,
    rounds: u64,
    ghs_runs: u64,
    ghs_phases: u64,
    /// Phase-interval time per GHS sub-stage name, summed over scopes.
    ghs_stage_ms: BTreeMap<&'static str, f64>,
    /// Wall time and messages of every `phases` stage.
    phases_stage: (f64, u64),
    /// `(layer, scope, name)` → (runs that had it, total ms).
    scoped: BTreeMap<(&'static str, &'static str, &'static str), (u64, f64)>,
    /// Protocol → (runs, total ms).
    by_protocol: BTreeMap<&'static str, (u64, f64)>,
}

impl LayerStats {
    /// Folds another worker's totals in.
    pub fn merge(&mut self, other: LayerStats) {
        self.generate_ms.extend(other.generate_ms);
        self.build_ms.extend(other.build_ms);
        self.sorted_ms.extend(other.sorted_ms);
        self.runs += other.runs;
        self.run_ms += other.run_ms;
        self.setup_ms += other.setup_ms;
        self.finish_ms += other.finish_ms;
        self.messages += other.messages;
        self.rounds += other.rounds;
        self.ghs_runs += other.ghs_runs;
        self.ghs_phases += other.ghs_phases;
        for (k, v) in other.ghs_stage_ms {
            *self.ghs_stage_ms.entry(k).or_default() += v;
        }
        self.phases_stage.0 += other.phases_stage.0;
        self.phases_stage.1 += other.phases_stage.1;
        for (k, (c, ms)) in other.scoped {
            let e = self.scoped.entry(k).or_default();
            e.0 += c;
            e.1 += ms;
        }
        for (k, (c, ms)) in other.by_protocol {
            let e = self.by_protocol.entry(k).or_default();
            e.0 += c;
            e.1 += ms;
        }
    }

    /// Times an instance generation (or a call whose cost is one, such as
    /// an instance-cache miss) as a `geom` span.
    pub fn generate<R>(
        &mut self,
        t: &Tracer,
        out: &mut Vec<Span>,
        (op, parent): (u64, u64),
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let r = timed(t, out, op, parent, ("geom", name), f);
        self.generate_ms
            .push(out.last().expect("span just closed").ms());
        r
    }

    /// Times a topology build as a `topology/build` span.
    pub fn build<R>(
        &mut self,
        t: &Tracer,
        out: &mut Vec<Span>,
        (op, parent): (u64, u64),
        f: impl FnOnce() -> R,
    ) -> R {
        let r = timed(t, out, op, parent, ("topology", "build"), f);
        self.build_ms
            .push(out.last().expect("span just closed").ms());
        r
    }

    /// Forces `topo`'s sorted rows as a `topology/sorted` span.
    pub fn sorted(
        &mut self,
        t: &Tracer,
        out: &mut Vec<Span>,
        (op, parent): (u64, u64),
        topo: &Topology,
    ) {
        timed(t, out, op, parent, ("topology", "sorted"), || {
            let _ = topo.sorted();
        });
        self.sorted_ms
            .push(out.last().expect("span just closed").ms());
    }

    /// Runs one `Sim` with a [`PhaseClock`] attached, as a `sim` span
    /// named after the protocol with its stages and phases as children.
    /// `run` builds the `Sim`, attaches the sink it is given, and runs.
    pub fn sim(
        &mut self,
        t: &Tracer,
        out: &mut Vec<Span>,
        (op, parent): (u64, u64),
        protocol: &'static str,
        run: impl FnOnce(&mut PhaseClock<'_>) -> Result<RunOutput, RunError>,
    ) -> Result<RunOutput, RunError> {
        let mut clock = PhaseClock::new(t);
        let open = t.open(op, parent, "sim", protocol);
        let result = run(&mut clock);
        let span = open.close(t, out);
        let first_child = out.len();
        let stages = clock.spans(&span, out);

        self.runs += 1;
        self.run_ms += span.ms();
        let e = self.by_protocol.entry(protocol).or_default();
        e.0 += 1;
        e.1 += span.ms();
        if let Ok(o) = &result {
            self.messages += o.stats.messages;
            self.rounds += o.stats.rounds;
            let phases = match (o.detail.as_ghs(), o.detail.as_eopt()) {
                (Some(g), _) => Some(g.phases as u64),
                (_, Some(e)) => Some((e.phases_step1 + e.phases_step2) as u64),
                _ => None,
            };
            if let Some(p) = phases {
                self.ghs_runs += 1;
                self.ghs_phases += p;
            }
        }
        let mut seen: Vec<(&'static str, &'static str, &'static str)> = Vec::new();
        for s in &out[first_child..] {
            match (s.layer, s.name) {
                ("sim", "setup") => self.setup_ms += s.ms(),
                ("sim", "finish") => self.finish_ms += s.ms(),
                ("phase", name) => *self.ghs_stage_ms.entry(name).or_default() += s.ms(),
                _ => {}
            }
            if matches!(s.layer, "phase" | "stage") {
                let key = (s.layer, s.scope, s.name);
                let e = self.scoped.entry(key).or_default();
                e.1 += s.ms();
                if !seen.contains(&key) {
                    seen.push(key);
                    e.0 += 1;
                }
            }
        }
        for (stage, messages) in stages {
            if stage.name == "phases" {
                self.phases_stage.0 += stage.ms();
                self.phases_stage.1 += messages;
            }
        }
        result
    }

    /// Adds the declared per-layer metrics to `report` (in
    /// `BENCHMARK.json` order), then every scope/stage and protocol
    /// read-out as a workload-specific layer line.
    pub fn report(&self, report: &mut Report, bytes_per_node: f64, overhead_share: f64) {
        let per_run = |total: f64, runs: u64| total / runs.max(1) as f64;
        report.metric("geom.generate_ms", median(&self.generate_ms), "ms");
        report.metric("topology.build_ms", median(&self.build_ms), "ms");
        report.metric("topology.sorted_ms", median(&self.sorted_ms), "ms");
        report.metric("topology.bytes_per_node", bytes_per_node, "B");
        report.metric("sim.run_ms", per_run(self.run_ms, self.runs), "ms");
        report.metric("sim.setup_ms", per_run(self.setup_ms, self.runs), "ms");
        report.metric("sim.finish_ms", per_run(self.finish_ms, self.runs), "ms");
        for stage in GHS_STAGES {
            let ms = self.ghs_stage_ms.get(stage).copied().unwrap_or(0.0);
            report.metric(&format!("ghs.{stage}_ms"), per_run(ms, self.ghs_runs), "ms");
        }
        report.metric(
            "ghs.phases",
            per_run(self.ghs_phases as f64, self.ghs_runs),
            "count",
        );
        report.metric(
            "ghs.msgs_per_s",
            self.phases_stage.1 as f64 / (self.phases_stage.0 / 1e3),
            "1/s",
        );
        report.metric(
            "sim.messages",
            per_run(self.messages as f64, self.runs),
            "count",
        );
        report.metric(
            "sim.rounds",
            per_run(self.rounds as f64, self.runs),
            "count",
        );
        report.metric("trace.overhead_share", overhead_share, "ratio");

        for (&(layer, scope, name), &(runs, ms)) in &self.scoped {
            let scope = scope.replace('/', ".");
            report.layer(
                &format!("{layer}.{scope}.{name}_ms"),
                per_run(ms, runs),
                "ms",
            );
        }
        for (&protocol, &(runs, ms)) in &self.by_protocol {
            report.layer(&format!("sim.run_ms.{protocol}"), per_run(ms, runs), "ms");
        }
    }
}

/// Bytes a topology holds per node, computed from its sizes: CSR offsets
/// (4 B per node), neighbour ids and distances (4 + 8 B per directed
/// edge), and the sorted view (another 4 + 8 B per directed edge, once
/// built). A computed figure: allocator slack is not counted.
pub fn topology_bytes_per_node(topo: &Topology) -> f64 {
    let n = topo.n().max(1) as f64;
    let edges = topo.directed_edges() as f64;
    (4.0 * (n + 1.0) + 2.0 * 12.0 * edges) / n
}
