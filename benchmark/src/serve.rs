//! `serve-mix`: trial requests served over HTTP.
//!
//! The one workload where the service layers matter: an in-process
//! `serve()` answers `POST /run` on keep-alive connections. Most requests
//! are small hot keys, where the HTTP, decode, cache and thread hops are a
//! large share of latency; the rest are larger or never-seen keys, which
//! put `Sim`, generation and the topology build back on the request path.
//! The end-to-end pass drives the server open loop at a fixed rate, small
//! and large requests on separate connections (for latency), and then
//! closed loop (for capacity); the traced pass walks a
//! rate ladder, reads the server's counters, and replays requests through
//! the same hops in-process to time each one.

use crate::alloc::peak_heap_mb;
use crate::host::{cpu_seconds, slowdown_now, Probe};
use crate::inputs::{hot_keys, request_key, Key, SERVE_SMALL_N};
use crate::layers::{topology_bytes_per_node, LayerStats};
use crate::openloop::{closed_loop, max_rate, open_loop, Lane, Step, LIMITS};
use crate::report::{fold_ledger, Report, FINGERPRINT_OPS};
use crate::stats::{mean, median, quantile, sorted, Op};
use crate::trace::{timed, Tracer};
use crate::RunConfig;
use emst_core::{GhsVariant, Instance, InstanceCache, InstanceKey, Protocol, Sim};
use emst_service::http::{read_request, MAX_BODY_BYTES};
use emst_service::json::Json;
use emst_service::{serve, Client, Drain, ServerHandle, ServiceConfig, TrialRequest};
use std::collections::HashMap;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Offered rate of the end-to-end pass, requests per second.
const RATE: f64 = 250.0;
/// Keep-alive connections (one client thread each).
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of the window driven open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Length of the closed loop's sub-windows (see [`capacity`]).
const CAPACITY_SUBWINDOW_S: f64 = 0.25;
/// Fewest requests per tail sub-window: 2 s of them, so the tail is their
/// p98, the median of the large never-seen keys (one request in 25). The
/// p99 of 4 s sub-windows falls in those keys' upper quarter, where the
/// host's stalls land, and moved twice as much between runs; the p95
/// falls on the border between those keys and the large hot ones.
const TAIL_OPS: usize = 500;
/// One response in this many is checked against a direct `Sim` run.
const SAMPLE_EVERY: u64 = 20;
/// Rates of the traced pass's ladder.
const LADDER: [f64; 8] = [250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0, 2000.0, 2500.0];
/// Length of one ladder step, and the fewest requests it sends.
const STEP_S: f64 = 1.5;
const STEP_MIN_REQUESTS: f64 = 400.0;
/// Requests of the in-process hop replay.
const REPLAY_OPS: u64 = 400;
/// Request indices of the closed loop and the ladder, clear of the open
/// loop's.
const CLOSED_BASE: u64 = 1 << 32;
const LADDER_BASE: u64 = 1 << 33;

/// `(energy bits, messages, rounds)` of one result.
type Ledger = (u64, u64, u64);

/// One client connection and the results it sampled.
struct Conn {
    addr: String,
    client: Option<Client>,
    seed: u64,
    /// Added to the driver's request numbers (phases use disjoint ranges).
    base: u64,
    sampled: Vec<(u64, Ledger)>,
    /// Timed between open-loop requests, with none of this lane's in
    /// flight.
    probe: Probe,
}

impl Lane for Conn {
    fn send(&mut self, i: usize) -> bool {
        self.request(self.base + i as u64)
    }

    fn idle(&mut self) {
        self.probe.tick();
    }

    fn slowdown(&self) -> f64 {
        self.probe.slowdown()
    }
}

impl Conn {
    fn new(addr: &str, seed: u64) -> Conn {
        Conn {
            addr: addr.to_string(),
            client: Client::connect(addr).ok(),
            seed,
            base: 0,
            sampled: Vec::new(),
            probe: Probe::default(),
        }
    }

    /// Sends request `i` of the mix; a refused, errored or non-complete
    /// request is a failure. A broken connection is reopened for the next.
    fn request(&mut self, i: u64) -> bool {
        if self.client.is_none() {
            self.client = Client::connect(&self.addr).ok();
        }
        let Some(client) = self.client.as_mut() else {
            return false;
        };
        let resp = match client.post("/run", request_key(self.seed, i).body().as_bytes()) {
            Ok(r) => r,
            Err(_) => {
                self.client = None;
                return false;
            }
        };
        if resp.status != 200 {
            return false;
        }
        let text = resp.text();
        if i.is_multiple_of(SAMPLE_EVERY) || i < FINGERPRINT_OPS as u64 {
            match ledger_of(&text) {
                Some(l) => self.sampled.push((i, l)),
                None => return false,
            }
            true
        } else {
            text.contains(r#""outcome":"complete""#)
        }
    }
}

fn ledger_of(text: &str) -> Option<Ledger> {
    let doc = Json::parse(text).ok()?;
    if doc.get("outcome")?.as_str()? != "complete" {
        return None;
    }
    let field = |k: &str| doc.get(k).and_then(Json::as_u64);
    Some((field("energy_bits")?, field("messages")?, field("rounds")?))
}

/// Boots a server and warms every hot key through it.
fn boot(seed: u64) -> (ServerHandle, String) {
    let server = serve(ServiceConfig::default()).expect("bind a local port");
    let addr = server.addr().to_string();
    let mut warm = Client::connect(&addr).expect("connect to the local server");
    for key in hot_keys(seed) {
        let resp = warm
            .post("/run", key.body().as_bytes())
            .expect("warm-up request");
        assert_eq!(resp.status, 200, "warm-up request refused: {}", resp.text());
    }
    (server, addr)
}

/// The direct in-process result for `key`, as the server must reproduce.
fn direct(key: &Key) -> Option<Ledger> {
    let inst = Instance::generate(key.seed, key.n, 0);
    let out = Sim::from_instance(&inst)
        .radius(key.radius())
        .run_checked(Protocol::Ghs(GhsVariant::Modified))
        .ok()?;
    Some((
        out.stats.energy.to_bits(),
        out.stats.messages,
        out.stats.rounds,
    ))
}

/// Checks every sampled response against a direct run (outside any timed
/// region).
fn check(seed: u64, conns: &[Conn], report: &mut Report) {
    let mut sampled: Vec<(u64, Ledger)> = conns.iter().flat_map(|c| c.sampled.clone()).collect();
    sampled.sort_unstable();
    let mut memo: HashMap<Key, Option<Ledger>> = HashMap::new();
    for &(i, served) in &sampled {
        let key = request_key(seed, i);
        let expected = *memo.entry(key).or_insert_with(|| direct(&key));
        if expected != Some(served) {
            report.failed += 1;
            report.problem(format!(
                "request {i}: served ledger differs from a direct run"
            ));
        }
    }
    fingerprint(&sampled, report);
}

/// Folds the ledgers of requests `0..FINGERPRINT_OPS` (in request order)
/// into the report's fingerprint.
fn fingerprint(ledgers: &[(u64, Ledger)], report: &mut Report) {
    for &(i, (e, m, r)) in ledgers
        .iter()
        .take_while(|(i, _)| *i < FINGERPRINT_OPS as u64)
    {
        report.fingerprint = fold_ledger(report.fingerprint, f64::from_bits(e), m, r);
        report.fingerprint_ops = i as usize + 1;
    }
}

/// Runs the workload's untraced or traced pass.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report {
        workload: "serve-mix",
        seed: cfg.seed,
        traced: cfg.trace,
        params: format!(
            "serve-mix protocol=ghs_modified radius=paper_phase2 n=200:80%,2000:20% \
             cold=20% hot_seeds=8/n rate={RATE} connections={CONNECTIONS} route=by_size \
             open_share={OPEN_SHARE} sample_every={SAMPLE_EVERY}"
        ),
        threads: CONNECTIONS,
        connections: CONNECTIONS,
        ..Report::default()
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some((s, _)) = server.take() {
            ServerHandle::shutdown(s, Drain::default());
        }
        let slowdown = slowdown_now();
        let start = Instant::now();
        server = Some(boot(cfg.seed));
        setups.push((start.elapsed().as_secs_f64(), slowdown));
    }
    let (server, addr) = server.expect("at least one set-up");
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::new(&addr, cfg.seed))
        .collect();

    if !cfg.trace {
        let open_s = cfg.seconds * OPEN_SHARE;
        let closed_s = cfg.seconds - open_s;
        let count = (RATE * open_s) as usize;
        let t0 = start_phase(&mut conns, 0);
        let samples = open_loop(RATE, count, t0, &mut conns, by_size(cfg.seed));
        let closed = capacity(closed_s, &mut conns);
        let heap = peak_heap_mb();
        let late = sorted(&samples.iter().map(|s| s.late_ms()).collect::<Vec<_>>());
        report.notes.push(format!(
            "open loop: {count} requests at {RATE} req/s, lateness p99 {} ms; \
             closed loop: {} requests in {closed_s} s",
            quantile(&late, 0.99),
            closed.done
        ));
        report.setup(&setups);
        match closed.per_cpu_s {
            Some((scaled, raw)) => {
                report.metric("ops_per_s", scaled, "1/s");
                report.layer("raw.ops_per_s", raw, "1/s");
            }
            None => report.problem("cannot read the process's CPU time".into()),
        }
        let open: Vec<Op> = samples.iter().map(|s| s.op()).collect();
        let hot_small: Vec<Op> = (0..open.len())
            .filter(|&i| is_hot_small(&request_key(cfg.seed, i as u64)))
            .map(|i| open[i])
            .collect();
        report.latency_of(&hot_small, &open, open_s, count, TAIL_OPS);
        report.metric("peak_heap_mb", heap, "MiB");
        report.attempted = samples.len() as u64 + closed.done + closed.failed;
        report.failed = samples.iter().filter(|s| !s.ok).count() as u64 + closed.failed;
        for s in samples.iter().filter(|s| !s.ok).take(5) {
            report.problem(format!("request due at {:?} failed", s.due));
        }
        drop_connections(&mut conns);
        server.shutdown(Drain::default());
        check(cfg.seed, &conns, &mut report);
        return report;
    }

    // Rate ladder, stopping at the first rate the server cannot sustain.
    // Requests alternate between the connections: routed by size, the
    // ladder would stop where the one connection carrying every large
    // request saturates (750 req/s on the reference host, against 1250
    // alternating), which measures the routing, not the server.
    let mut steps: Vec<Step> = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let count = (rate * STEP_S).max(STEP_MIN_REQUESTS) as usize;
        let t0 = start_phase(&mut conns, LADDER_BASE + (k as u64) * 1_000_000);
        let samples = open_loop(rate, count, t0, &mut conns, |i| i);
        let step = Step::from_samples(rate, &samples);
        report.attempted += step.samples as u64;
        report.failed += step.failed as u64;
        let tag = format!("serve.r{:04}", rate as u64);
        report.layer(&format!("{tag}.p50_ms"), step.p50_ms, "ms");
        report.layer(&format!("{tag}.p99_ms"), step.p99_ms, "ms");
        report.layer(&format!("{tag}.late_p99_ms"), step.late_p99_ms, "ms");
        report.layer(&format!("{tag}.drain_s"), step.drain_s, "s");
        steps.push(step);
        if !step.passes(&LIMITS) {
            break;
        }
    }
    report.layer(
        "serve.max_rate_rps",
        max_rate(&steps, &LIMITS).unwrap_or(0.0),
        "1/s",
    );
    server_counters(&addr, &mut report);
    drop_connections(&mut conns);
    server.shutdown(Drain::default());

    let tracer = Tracer::default();
    let mut stats = LayerStats::default();
    let plain = replay(cfg.seed, None);
    let traced = replay(cfg.seed, Some((&tracer, &mut stats)));
    let p50 = |v: &[f64]| quantile(&sorted(v), 0.5);
    let overhead = p50(&traced.total_ms) / p50(&plain.total_ms) - 1.0;
    let hot_large = hot_keys(cfg.seed)
        .into_iter()
        .find(|k| k.n == crate::inputs::SERVE_LARGE_N)
        .expect("a large hot key");
    let topo = Instance::generate(hot_large.seed, hot_large.n, 0).topology(hot_large.radius());
    let _ = topo.sorted();
    stats.report(&mut report, topology_bytes_per_node(&topo), overhead);
    report.layer("http.read_request_us", median(&traced.read_us), "us");
    report.layer("request.decode_us", median(&traced.decode_us), "us");
    report.layer("cache.hit_us", median(&traced.hit_us), "us");
    report.layer("cache.miss_ms", median(&traced.miss_ms), "ms");
    for (class, runs) in &traced.sim_ms {
        report.layer(&format!("sim.run_ms.{class}"), mean(runs), "ms");
    }
    if let Some(first) = steps.first() {
        report.layer(
            "serve.unattributed_ms",
            first.p50_ms - p50(&plain.total_ms),
            "ms",
        );
    }
    crate::finish_trace(cfg, &tracer, &mut report);
    check(cfg.seed, &conns, &mut report);
    // The ladder's requests are not the first of the mix; the replay's
    // are, and serving is bit-identical to a direct run, so the replay
    // gives the same fingerprint as the untraced pass.
    fingerprint(&plain.ledgers, &mut report);
    report
}

/// What the closed loop did.
struct Capacity {
    done: u64,
    failed: u64,
    /// Median over sub-windows of completed requests per second of the
    /// process's CPU time, that time divided by the host's slowdown; and
    /// the same unscaled. `None` without a CPU clock.
    per_cpu_s: Option<(f64, f64)>,
}

/// Drives the server closed loop for `seconds`, in sub-windows of
/// [`CAPACITY_SUBWINDOW_S`].
///
/// Requests per wall-clock second read a third lower whenever the host's
/// other tenants were busy, as they take the cores from load and server
/// threads alike. So each sub-window's requests are counted per second of
/// CPU time the process spent, which leaves out the time the hypervisor
/// gave away, and that time is divided by the host's slowdown, probed just
/// before and just after the sub-window with no request in flight. (A probe
/// timed while requests run reads the server's own work as a slower host.)
/// The host's state changes within a second, hence the short sub-windows.
fn capacity(seconds: f64, conns: &mut [Conn]) -> Capacity {
    let k = ((seconds / CAPACITY_SUBWINDOW_S).round() as usize).max(1);
    let window = Duration::from_secs_f64(seconds / k as f64);
    let mut out = Capacity {
        done: 0,
        failed: 0,
        per_cpu_s: None,
    };
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut slow_before = slowdown_now();
    for _ in 0..k {
        let cpu_before = cpu_seconds();
        let first = CLOSED_BASE + out.done + out.failed;
        let (done, failed) = closed_loop(window, first, start_phase(conns, 0), conns);
        let cpu = cpu_seconds()
            .zip(cpu_before)
            .map(|(after, before)| after - before);
        let slow_after = slowdown_now();
        out.done += done;
        out.failed += failed;
        if let Some(cpu) = cpu.filter(|&c| c > 0.0) {
            raw.push(done as f64 / cpu);
            scaled.push(done as f64 / (cpu / ((slow_before + slow_after) / 2.0)));
        }
        slow_before = slow_after;
    }
    if !raw.is_empty() {
        out.per_cpu_s = Some((median(&scaled), median(&raw)));
    }
    out
}

/// Whether `key` is a small hot key: a cache hit at n = 200, the request
/// whose latency is half HTTP, decode, cache and thread hops, and 16 of
/// every 25. `op_ms_p50` is the median of these alone. The median of the
/// whole mix lies where the small hot keys give way to the small
/// never-seen ones, which are twice as slow, so it moved with the exact
/// share of slow small hot requests, by more than half between runs.
fn is_hot_small(key: &Key) -> bool {
    key.n == SERVE_SMALL_N && !key.cold
}

/// The end-to-end open loop's routing: small requests on the first
/// connection, large ones on the second. Independent users do not queue
/// behind each other's requests; two shared keep-alive connections would
/// make a small request wait behind a large one sent just before it on the
/// same connection, a wait that comes and goes with the timing of the run.
fn by_size(seed: u64) -> impl Fn(usize) -> usize + Sync {
    move |i| usize::from(request_key(seed, i as u64).n != SERVE_SMALL_N)
}

/// Starts a load phase on every connection, requests numbered from
/// `base`, and returns its time origin (a moment ahead, so every lane is
/// parked before the first request).
fn start_phase(conns: &mut [Conn], base: u64) -> Instant {
    for c in conns.iter_mut() {
        c.base = base;
    }
    Instant::now() + Duration::from_millis(2)
}

fn drop_connections(conns: &mut [Conn]) {
    for c in conns {
        c.client = None;
    }
}

/// Reads `/stats` and reports the cache and lifecycle counters.
fn server_counters(addr: &str, report: &mut Report) {
    let stats = Client::connect(addr)
        .and_then(|mut c| c.get("/stats"))
        .ok()
        .and_then(|r| Json::parse(&r.text()).ok());
    let Some(stats) = stats else {
        report.problem("could not read /stats".into());
        return;
    };
    let get = |section: &str, field: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    report.layer("cache.hit_rate", get("cache", "hit_rate"), "ratio");
    report.layer("cache.misses", get("cache", "misses"), "count");
    report.layer("cache.evictions", get("cache", "evictions"), "count");
    report.layer("server.turnaways", get("lifecycle", "turnaways"), "count");
    report.layer(
        "server.request_timeouts",
        get("lifecycle", "request_timeouts"),
        "count",
    );
    report.layer(
        "server.responses_4xx",
        get("requests", "client_4xx"),
        "count",
    );
    report.layer(
        "server.responses_5xx",
        get("requests", "server_5xx"),
        "count",
    );
}

/// Hop timings of the in-process replay.
#[derive(Default)]
struct Replay {
    total_ms: Vec<f64>,
    /// Ledgers of the first requests, for the fingerprint.
    ledgers: Vec<(u64, Ledger)>,
    read_us: Vec<f64>,
    decode_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    sim_ms: Vec<(&'static str, Vec<f64>)>,
}

/// Replays the first [`REPLAY_OPS`] requests of the mix through the hops a
/// served request takes — HTTP parse, request decode, instance cache,
/// topology, `Sim` — on a fresh cache warmed like the server's. Untraced
/// it times each request whole; traced, each hop is a span and the run
/// carries a phase clock. Socket, thread hand-off and response rendering
/// are what the replay leaves out.
fn replay(seed: u64, traced: Option<(&Tracer, &mut LayerStats)>) -> Replay {
    let cache = InstanceCache::new(ServiceConfig::default().cache_capacity);
    for key in hot_keys(seed) {
        let (inst, _) = cache.get_or_generate(InstanceKey::new(key.seed, key.n, 0, key.radius()));
        let _ = inst.topology(key.radius()).sorted();
    }
    let mut out = Replay::default();
    let mut classes: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (tracer, mut stats) = match traced {
        Some((t, s)) => (Some(t), Some(s)),
        None => (None, None),
    };
    for i in 0..REPLAY_OPS {
        let key = request_key(seed, i);
        let body = key.body();
        let raw = format!(
            "POST /run HTTP/1.1\r\nHost: emst\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let class = match (key.n == crate::inputs::SERVE_SMALL_N, key.cold) {
            (true, _) => "n200",
            (false, false) => "n2000",
            (false, true) => "n2000_cold",
        };
        let (Some(t), Some(stats)) = (tracer, stats.as_deref_mut()) else {
            let start = Instant::now();
            let req = read_request(&mut Cursor::new(raw.into_bytes()), MAX_BODY_BYTES)
                .expect("replayed request parses")
                .expect("one request");
            let req = TrialRequest::parse(std::str::from_utf8(&req.body).expect("utf-8"))
                .expect("replayed request decodes");
            let r = req.radius.expect("ghs_modified requests carry a radius");
            let (inst, _) = cache.get_or_generate(InstanceKey::new(req.seed, req.n, req.trial, r));
            let run = Sim::from_instance(&inst)
                .energy(req.energy)
                .shards(req.shards)
                .radius(r)
                .run_checked(req.protocol);
            out.total_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if let (Ok(o), true) = (run, i < FINGERPRINT_OPS as u64) {
                let s = &o.stats;
                out.ledgers
                    .push((i, (s.energy.to_bits(), s.messages, s.rounds)));
            }
            continue;
        };
        let mut spans = Vec::new();
        let root = t.open(i, 0, "op", "request");
        let at = (i, root.id);
        let req = timed(
            t,
            &mut spans,
            i,
            root.id,
            ("service", "read_request"),
            || {
                read_request(&mut Cursor::new(raw.into_bytes()), MAX_BODY_BYTES)
                    .expect("replayed request parses")
                    .expect("one request")
            },
        );
        out.read_us.push(spans.last().expect("span").ms() * 1e3);
        let req = timed(t, &mut spans, i, root.id, ("service", "decode"), || {
            TrialRequest::parse(std::str::from_utf8(&req.body).expect("utf-8"))
                .expect("replayed request decodes")
        });
        out.decode_us.push(spans.last().expect("span").ms() * 1e3);
        let r = req.radius.expect("ghs_modified requests carry a radius");
        let cache_key = InstanceKey::new(req.seed, req.n, req.trial, r);
        let inst = if key.cold {
            let (inst, _) = stats.generate(t, &mut spans, at, "cache_miss", || {
                cache.get_or_generate(cache_key)
            });
            out.miss_ms.push(spans.last().expect("span").ms());
            let topo = stats.build(t, &mut spans, at, || inst.topology(r));
            stats.sorted(t, &mut spans, at, &topo);
            inst
        } else {
            let (inst, _) = timed(t, &mut spans, i, root.id, ("cache", "hit"), || {
                cache.get_or_generate(cache_key)
            });
            out.hit_us.push(spans.last().expect("span").ms() * 1e3);
            inst
        };
        let _ = stats.sim(t, &mut spans, at, "ghs_modified", |clock| {
            Sim::from_instance(&inst)
                .energy(req.energy)
                .shards(req.shards)
                .radius(r)
                .sink(clock)
                .run_checked(req.protocol)
        });
        let run_ms = spans
            .iter()
            .rev()
            .find(|s| s.layer == "sim" && s.name == "ghs_modified")
            .map_or(f64::NAN, |s| s.ms());
        classes.entry(class).or_default().push(run_ms);
        out.total_ms.push(root.close(t, &mut spans).ms());
        t.keep(spans);
    }
    let mut classes: Vec<_> = classes.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    out.sim_ms = classes;
    out
}
