//! Spans recorded from outside the program, and the phase clock.
//!
//! The library reads no clock, so the traced pass times the calls it makes
//! into each layer (generate, topology build, sorted rows, `Sim` runs,
//! session advances, the service hops) and attaches a [`PhaseClock`] — a
//! [`TraceSink`] that timestamps the `Phase` and `Stage` events a run
//! already emits — to split each run into its protocol stages and GHS
//! sub-stages. Spans stay in memory and are written as JSONL at exit.

use emst_radio::{TraceEvent, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` is 0
/// for an operation's root span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The operation (trial, iteration, request, epoch) this span serves.
    pub op: u64,
    /// Layer the time is attributed to (`geom`, `topology`, `sim`, …).
    pub layer: &'static str,
    /// Protocol scope for stage and phase spans, empty otherwise.
    pub scope: &'static str,
    /// What ran.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Shared clock, id source and span store of one traced pass.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a span now.
    pub fn open(&self, op: u64, parent: u64, layer: &'static str, name: &'static str) -> Open {
        Open {
            id: self.id(),
            parent,
            op,
            layer,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Hands finished spans to the store (one lock per operation).
    pub fn keep(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span store poisoned")
            .extend(spans);
    }

    /// Every span kept so far, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self.spans.lock().expect("span store poisoned").clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id children name as their parent.
    pub id: u64,
    parent: u64,
    op: u64,
    layer: &'static str,
    name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
}

impl Open {
    /// Ends the span now and appends it to `out`.
    pub fn close(self, tracer: &Tracer, out: &mut Vec<Span>) -> Span {
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            layer: self.layer,
            scope: "",
            name: self.name,
            start_ns: self.start_ns,
            end_ns: tracer.now_ns().max(self.start_ns),
        };
        out.push(span);
        span
    }
}

/// Times `f` as a span of `layer`/`name` under `parent`.
pub fn timed<R>(
    tracer: &Tracer,
    out: &mut Vec<Span>,
    op: u64,
    parent: u64,
    (layer, name): (&'static str, &'static str),
    f: impl FnOnce() -> R,
) -> R {
    let open = tracer.open(op, parent, layer, name);
    let r = f();
    open.close(tracer, out);
    r
}

#[derive(Debug, Clone, Copy)]
enum Mark {
    Phase {
        at: u64,
        scope: &'static str,
        stage: &'static str,
    },
    Stage {
        at: u64,
        scope: &'static str,
        name: &'static str,
        messages: u64,
    },
}

/// A [`TraceSink`] that timestamps `Phase` and `Stage` events and ignores
/// everything else. [`PhaseClock::spans`] turns the marks into child spans
/// of the `Sim` run that carried the sink.
pub struct PhaseClock<'t> {
    tracer: &'t Tracer,
    marks: Vec<Mark>,
}

impl<'t> PhaseClock<'t> {
    /// An empty clock on `tracer`'s time base.
    pub fn new(tracer: &'t Tracer) -> Self {
        PhaseClock {
            tracer,
            marks: Vec::new(),
        }
    }

    /// Converts the marks of one run into spans under `run` (a span from
    /// the `Sim` call to its return):
    ///
    /// * `stage` spans, one per `Stage` event, from the previous stage
    ///   boundary to the event (scope and stage name of the mark);
    /// * `phase` spans, the intervals between consecutive `Phase` events,
    ///   each ending at the next `Phase` or `Stage` event, as children of
    ///   the stage that contains them;
    /// * `sim/setup`, the call to the first `Phase` event, inside the first
    ///   stage, and `sim/finish`, the last `Stage` event to the return.
    ///
    /// Returns the stage spans' message counts alongside, for rates.
    pub fn spans(&self, run: &Span, out: &mut Vec<Span>) -> Vec<(Span, u64)> {
        let mut stages = Vec::new();
        let mut pending: Vec<Span> = Vec::new();
        let mut boundary = run.start_ns;
        let mut cursor = run.start_ns;
        let mut open: Option<(&'static str, &'static str)> = None;
        let child = |parent: u64, layer, scope, name, start_ns, end_ns: u64| Span {
            id: self.tracer.id(),
            parent,
            op: run.op,
            layer,
            scope,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        for (i, mark) in self.marks.iter().enumerate() {
            match *mark {
                Mark::Phase { at, scope, stage } => {
                    if let Some((s, n)) = open {
                        pending.push(child(0, "phase", s, n, cursor, at));
                    } else if i == 0 {
                        pending.push(child(0, "sim", "", "setup", cursor, at));
                    }
                    open = Some((scope, stage));
                    cursor = at;
                }
                Mark::Stage {
                    at,
                    scope,
                    name,
                    messages,
                } => {
                    if let Some((s, n)) = open.take() {
                        pending.push(child(0, "phase", s, n, cursor, at));
                    }
                    let stage = child(run.id, "stage", scope, name, boundary, at);
                    for mut p in pending.drain(..) {
                        p.parent = stage.id;
                        out.push(p);
                    }
                    out.push(stage);
                    stages.push((stage, messages));
                    boundary = at;
                    cursor = at;
                }
            }
        }
        // A run always ends on a Stage event; anything still open is
        // attributed to the run's tail.
        for mut p in pending.drain(..) {
            p.parent = run.id;
            out.push(p);
        }
        out.push(child(run.id, "sim", "", "finish", cursor, run.end_ns));
        stages
    }
}

impl TraceSink for PhaseClock<'_> {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Phase { scope, stage, .. } => self.marks.push(Mark::Phase {
                at: self.tracer.now_ns(),
                scope,
                stage,
            }),
            TraceEvent::Stage(m) => self.marks.push(Mark::Stage {
                at: self.tracer.now_ns(),
                scope: m.scope,
                name: m.name,
                messages: m.messages,
            }),
            _ => {}
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once). Keyed by
/// span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut run: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            covered += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    covered += rb - ra;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-layer self time in milliseconds, summed over `spans`.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_default() += own[&s.id];
    }
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6))
        .collect()
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(mut w: impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"op":{},"layer":"{}","scope":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.op, s.layer, s.scope, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer: if parent == 0 { "op" } else { "sim" },
            scope: "",
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children: [10, 50) is covered once.
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            // A child overrunning its parent only counts inside it.
            span(4, 1, 90, 120),
            // A grandchild is its child's business, not the root's.
            span(5, 2, 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 6);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["op"], 50.0 / 1e6);
        assert_eq!(by_layer["sim"], (14 + 30 + 30 + 6) as f64 / 1e6);
    }

    #[test]
    fn phase_clock_nests_phases_inside_stages() {
        let tracer = Tracer::default();
        let mut clock = PhaseClock::new(&tracer);
        clock.marks = vec![
            Mark::Phase {
                at: 10,
                scope: "ghs",
                stage: "discover",
            },
            Mark::Stage {
                at: 20,
                scope: "ghs",
                name: "discover",
                messages: 5,
            },
            Mark::Phase {
                at: 25,
                scope: "ghs",
                stage: "initiate",
            },
            Mark::Phase {
                at: 40,
                scope: "ghs",
                stage: "test",
            },
            Mark::Stage {
                at: 70,
                scope: "ghs",
                name: "phases",
                messages: 9,
            },
        ];
        let run = span(100, 0, 0, 80);
        let mut out = Vec::new();
        let stages = clock.spans(&run, &mut out);
        let find = |layer: &str, name: &str| {
            *out.iter()
                .find(|s| s.layer == layer && s.name == name)
                .unwrap_or_else(|| panic!("{layer}/{name}"))
        };
        let setup = find("sim", "setup");
        assert_eq!(
            (setup.start_ns, setup.end_ns, setup.parent),
            (0, 10, find("stage", "discover").id)
        );
        let phases_stage = find("stage", "phases");
        assert_eq!((phases_stage.start_ns, phases_stage.end_ns), (20, 70));
        let test = find("phase", "test");
        assert_eq!(
            (test.start_ns, test.end_ns, test.parent),
            (40, 70, phases_stage.id)
        );
        assert_eq!(find("phase", "initiate").end_ns, 40);
        assert_eq!(
            find("phase", "discover").parent,
            find("stage", "discover").id
        );
        assert_eq!(
            (find("sim", "finish").start_ns, find("sim", "finish").end_ns),
            (70, 80)
        );
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].1, 9);
        // Every nanosecond of the run is attributed exactly once.
        let mut all = out.clone();
        all.push(run);
        let own = self_times(&all);
        assert_eq!(own[&run.id], 0);
        assert_eq!(own.values().sum::<u64>(), 80);
    }
}
