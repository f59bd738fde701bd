//! The trial server: routing, execution, caching, streaming, sessions
//! and connection lifecycle.
//!
//! A request names an experiment point — protocol, `(seed, n, radius)`,
//! optional fault plan / membership / churn timeline / energy model —
//! and the server runs it through the same [`Sim`] builder the library
//! tests and benches use, so a served result is bit-identical to a
//! direct in-process run. Topologies and instances come from a bounded
//! LRU [`InstanceCache`] keyed by `(seed, n, trial, radius)`; hot
//! parameter points cost one generation total no matter how many
//! clients ask for them, and `/stats` exposes the hit/miss/eviction
//! counters.
//!
//! Standing sessions (`/session` endpoints) park a live
//! [`MaintainSession`] in a bounded, leased [`SessionTable`] so churn
//! epochs advance incrementally instead of replaying a timeline per
//! request; `maintain` itself is a replay wrapper over the same type, so
//! a session advanced epoch-by-epoch is bitwise identical to the
//! one-shot `/run` churn path by construction.
//!
//! Concurrency model: accept thread plus one handler thread per
//! connection (the workspace vendors no async runtime; connections are
//! few and long-lived — keep-alive clients). The connection cap is
//! enforced *on the accept thread* — excess connections are turned away
//! with a `503` + `Retry-After` before any handler thread exists, so a
//! connect flood cannot spawn unbounded threads. Every accepted socket
//! carries read/write deadlines: an idle keep-alive wait is bounded by
//! [`ServiceConfig::idle_timeout`] (polite close, thread reclaimed), and
//! each request by [`ServiceConfig::request_timeout`]. Batch requests
//! fan out across trials with the same [`parallel_map`] the bench
//! sweeps use.
//!
//! Shutdown is a real drain ([`ServerHandle::shutdown`]): stop
//! accepting, nudge blocked readers by shutting the read half of every
//! registered connection (a blocked `recv` wakes with EOF; a handler
//! mid-compute still delivers its response on the intact write half),
//! wait until the deadline, then abort stragglers and report
//! drained/aborted counts.

use crate::http::{
    read_request, write_chunked_head, write_response, write_response_with, ChunkedWriter,
    HttpRequest, RequestReadError,
};
use crate::request::{
    AdvanceRequest, ChurnRequest, RequestError, SessionRequest, StreamMode, TrialRequest,
};
use crate::session::{spawn_reaper, SessionError, SessionTable};
use emst_analysis::parallel_map;
use emst_core::{
    maintain, ChurnEvent, EpochReport, Instance, InstanceCache, InstanceKey, MaintainSession,
    RepairPolicy, RunOutcome, SessionLedger, Sim,
};
use emst_radio::{ClassMask, FilterSink, JsonlSink, Membership, TraceSink};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Longest trace long-poll window a client may request.
const MAX_TRACE_WAIT: Duration = Duration::from_secs(30);
/// Write deadline for the inline accept-thread turn-away response.
const TURNAWAY_WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// How long an abort at the drain deadline waits for handler threads to
/// observe their shut-down sockets and deregister.
const ABORT_GRACE: Duration = Duration::from_millis(500);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Instance-cache capacity (distinct `(seed, n, trial, radius)`
    /// points kept warm).
    pub cache_capacity: usize,
    /// Request-body cap in bytes.
    pub max_body: usize,
    /// Concurrent-connection cap; excess connections are turned away at
    /// accept with a 503 + `Retry-After`.
    pub max_connections: usize,
    /// Per-request read/write deadline once bytes are in flight.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it politely and reclaims the thread.
    pub idle_timeout: Duration,
    /// Seconds advertised in `Retry-After` on 503/429 turn-aways.
    pub retry_after_secs: u64,
    /// Standing-session table capacity; creation past it is a 429.
    pub max_sessions: usize,
    /// Idle lease on a standing session; expired leases are reclaimed by
    /// the reaper (conservation-pinned, see [`crate::session`]).
    pub session_ttl: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 64,
            max_body: crate::http::MAX_BODY_BYTES,
            max_connections: 64,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(15),
            retry_after_secs: 1,
            max_sessions: 16,
            session_ttl: Duration::from_secs(60),
        }
    }
}

/// Shared server state: the instance cache, the session table, the
/// response counters, and the live-connection registry drain nudges.
struct ServiceState {
    cache: InstanceCache,
    sessions: Arc<SessionTable>,
    max_body: usize,
    max_connections: usize,
    request_timeout: Duration,
    idle_timeout: Duration,
    retry_after_secs: u64,
    connections: AtomicU64,
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Connections turned away at the accept gate (503).
    turnaways: AtomicU64,
    /// Keep-alive connections closed by the idle timeout.
    idle_closed: AtomicU64,
    /// Requests abandoned at the per-request deadline (408 / mid-body).
    request_timeouts: AtomicU64,
    /// Trials served with awake tracking enabled.
    awake_runs: AtomicU64,
    /// Total awake node-rounds across those trials.
    awake_rounds_total: AtomicU64,
    /// Clones of every in-flight connection, keyed by connection id, so
    /// a drain can nudge blocked readers and abort stragglers.
    registry: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl ServiceState {
    /// Folds a trial's awake read-out (if tracked) into the `/stats`
    /// counters.
    fn note_awake(&self, outcome: &RunOutcome) {
        if let Some(awake) = outcome.output().and_then(|o| o.awake()) {
            self.awake_runs.fetch_add(1, Ordering::Relaxed);
            self.awake_rounds_total
                .fetch_add(awake.total, Ordering::Relaxed);
        }
    }

    fn count(&self, status: u16) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    /// Turns an over-cap connection away on the accept thread: one 503
    /// with `Retry-After`, bounded write, no handler thread.
    fn turn_away(&self, stream: TcpStream) {
        self.turnaways.fetch_add(1, Ordering::Relaxed);
        self.count(503);
        let _ = stream.set_write_timeout(Some(TURNAWAY_WRITE_TIMEOUT));
        let retry_after = self.retry_after_secs.to_string();
        let mut w = &stream;
        let _ = write_response_with(
            &mut w,
            503,
            "application/json",
            &[("Retry-After", &retry_after), ("Connection", "close")],
            br#"{"t":"error","code":"overloaded","message":"connection limit reached"}"#,
        );
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Drain policy for [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    /// How long in-flight connections get to finish before being
    /// aborted outright.
    pub deadline: Duration,
}

impl Default for Drain {
    fn default() -> Self {
        Drain {
            deadline: Duration::from_secs(5),
        }
    }
}

/// What a drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections that finished cleanly within the deadline.
    pub drained: u64,
    /// Connections aborted at the deadline.
    pub aborted: u64,
    /// Wall-clock the drain took (bounded by deadline + a short abort
    /// grace).
    pub wall: Duration,
}

/// A running server. Dropping the handle performs a short drain.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<ServiceState>,
    accept_thread: Option<thread::JoinHandle<()>>,
    reaper_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drains the server: stops accepting, nudges blocked
    /// readers (read-half shutdown — a handler mid-compute still
    /// delivers its response), waits until the deadline, aborts
    /// stragglers, and reports what happened.
    pub fn shutdown(mut self, drain: Drain) -> DrainReport {
        self.drain(drain.deadline)
    }

    fn drain(&mut self, deadline: Duration) -> DrainReport {
        let start = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        // Sample the population as soon as the stop flag is up: handlers
        // check the flag between requests and start finishing on their
        // own immediately, and every one of those exits is a *drained*
        // connection — sampling after the joins would miss them.
        let initial = self.state.connections.load(Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection, then
        // join: after this no new handler can appear.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        // Wake trace long-polls so no handler sleeps out its window.
        self.state.sessions.close();
        // Nudge blocked readers: shutting down the read half wakes a
        // blocked recv with EOF (a polite end-of-keep-alive), while the
        // write half stays usable for an in-flight response.
        {
            let reg = self.state.registry.lock().unwrap();
            for conn in reg.values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        while self.state.connections.load(Ordering::SeqCst) > 0 && start.elapsed() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        // Deadline: abort whatever is still in flight.
        let aborted = {
            let reg = self.state.registry.lock().unwrap();
            for conn in reg.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
            reg.len() as u64
        };
        if aborted > 0 {
            let grace = Instant::now();
            while self.state.connections.load(Ordering::SeqCst) > 0 && grace.elapsed() < ABORT_GRACE
            {
                thread::sleep(Duration::from_millis(2));
            }
        }
        DrainReport {
            drained: initial.saturating_sub(aborted),
            aborted,
            wall: start.elapsed(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            let _ = self.drain(Duration::from_secs(1));
        }
    }
}

/// Binds and starts serving in background threads.
pub fn serve(cfg: ServiceConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let sessions = Arc::new(SessionTable::new(cfg.max_sessions, cfg.session_ttl));
    let state = Arc::new(ServiceState {
        cache: InstanceCache::new(cfg.cache_capacity),
        sessions: Arc::clone(&sessions),
        max_body: cfg.max_body,
        max_connections: cfg.max_connections.max(1),
        request_timeout: cfg.request_timeout,
        idle_timeout: cfg.idle_timeout,
        retry_after_secs: cfg.retry_after_secs.max(1),
        connections: AtomicU64::new(0),
        requests_total: AtomicU64::new(0),
        responses_2xx: AtomicU64::new(0),
        responses_4xx: AtomicU64::new(0),
        responses_5xx: AtomicU64::new(0),
        turnaways: AtomicU64::new(0),
        idle_closed: AtomicU64::new(0),
        request_timeouts: AtomicU64::new(0),
        awake_runs: AtomicU64::new(0),
        awake_rounds_total: AtomicU64::new(0),
        registry: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(1),
    });
    let reaper_thread = spawn_reaper(sessions, Arc::clone(&stop));

    let accept_stop = Arc::clone(&stop);
    let accept_state = Arc::clone(&state);
    let accept_thread = thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Bounded pending-accept gate: the cap is enforced here, on
            // the single accept thread, so a connect flood is turned
            // away politely instead of spawning unbounded handlers.
            if accept_state.connections.fetch_add(1, Ordering::SeqCst)
                >= accept_state.max_connections as u64
            {
                accept_state.turn_away(stream);
                accept_state.connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let state = Arc::clone(&accept_state);
            let stop = Arc::clone(&accept_stop);
            thread::spawn(move || handle_connection(state, stop, stream));
        }
    });

    Ok(ServerHandle {
        addr,
        stop,
        state,
        accept_thread: Some(accept_thread),
        reaper_thread: Some(reaper_thread),
    })
}

/// Owns one accepted connection for its lifetime: registers a clone for
/// drain nudges, serves requests, then shuts the socket down cleanly and
/// deregisters. The connection count was already taken at the accept
/// gate; it is released here, last, so the drain's wait observes the
/// handler fully gone.
fn handle_connection(state: Arc<ServiceState>, stop: Arc<AtomicBool>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let conn_id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        state.registry.lock().unwrap().insert(conn_id, clone);
    }
    let result = serve_connection(&state, &stop, &stream);
    drop(result);
    let _ = stream.shutdown(Shutdown::Both);
    state.registry.lock().unwrap().remove(&conn_id);
    state.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Whether an I/O error is a socket-deadline expiry. `SO_RCVTIMEO`
/// surfaces as `WouldBlock` on Unix and `TimedOut` on Windows.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_connection(state: &ServiceState, stop: &AtomicBool, stream: &TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Idle keep-alive wait: bounded by the idle timeout so a silent
        // client cannot pin this thread forever. `fill_buf` returning
        // data leaves it buffered for `read_request` below.
        stream.set_read_timeout(Some(state.idle_timeout))?;
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean EOF between requests
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                state.idle_closed.fetch_add(1, Ordering::Relaxed);
                return Ok(()); // polite close; caller shuts the socket down
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        // Bytes are in flight: the per-request deadline applies from
        // here until the response is written.
        stream.set_read_timeout(Some(state.request_timeout))?;
        stream.set_write_timeout(Some(state.request_timeout))?;
        let req = match read_request(&mut reader, state.max_body) {
            Ok(None) => return Ok(()),
            Ok(Some(req)) => req,
            Err(RequestReadError::Io(e)) if is_timeout(&e) => {
                // The client started a request and stalled: best-effort
                // 408, then drop the connection (framing is lost).
                state.request_timeouts.fetch_add(1, Ordering::Relaxed);
                let _ = respond_error(
                    state,
                    &mut writer,
                    408,
                    "timeout",
                    "request deadline exceeded",
                );
                return Ok(());
            }
            Err(RequestReadError::Io(e)) => return Err(e),
            Err(RequestReadError::Malformed(what)) => {
                respond_error(state, &mut writer, 400, "malformed_http", what)?;
                return Ok(()); // framing is unreliable now; drop the connection
            }
            Err(RequestReadError::TooLarge(what)) => {
                let status = if what == "body" { 413 } else { 431 };
                respond_error(state, &mut writer, status, "too_large", what)?;
                return Ok(());
            }
        };
        route(state, &req, &mut writer)?;
    }
}

fn route(state: &ServiceState, req: &HttpRequest, writer: &mut &TcpStream) -> io::Result<()> {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(state, writer),
        ("GET", "/stats") => {
            let body = stats_json(state);
            respond(state, writer, 200, body.as_bytes())
        }
        ("POST", "/run") => handle_run(state, &req.body, writer),
        ("POST", "/session") => handle_session_create(state, &req.body, writer),
        (_, "/healthz") | (_, "/stats") | (_, "/run") | (_, "/session") => respond_error(
            state,
            writer,
            405,
            "method_not_allowed",
            "see GET /healthz, GET /stats, POST /run, POST /session",
        ),
        _ if path.starts_with("/session/") => route_session(state, req, path, query, writer),
        _ => respond_error(state, writer, 404, "not_found", "no such endpoint"),
    }
}

/// Routes `/session/{id}`, `/session/{id}/advance`, `/session/{id}/trace`.
fn route_session(
    state: &ServiceState,
    req: &HttpRequest,
    path: &str,
    query: Option<&str>,
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let rest = &path["/session/".len()..];
    let (id_str, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, act)) => (id, Some(act)),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return respond_error(state, writer, 404, "no_session", "session ids are integers");
    };
    match (req.method.as_str(), action) {
        ("DELETE", None) => handle_session_delete(state, id, writer),
        (_, None) => respond_error(
            state,
            writer,
            405,
            "method_not_allowed",
            "see DELETE /session/{id}",
        ),
        ("POST", Some("advance")) => handle_session_advance(state, id, &req.body, writer),
        (_, Some("advance")) => respond_error(
            state,
            writer,
            405,
            "method_not_allowed",
            "see POST /session/{id}/advance",
        ),
        ("GET", Some("trace")) => handle_session_trace(state, id, query, writer),
        (_, Some("trace")) => respond_error(
            state,
            writer,
            405,
            "method_not_allowed",
            "see GET /session/{id}/trace",
        ),
        _ => respond_error(state, writer, 404, "not_found", "no such endpoint"),
    }
}

fn handle_healthz(state: &ServiceState, writer: &mut &TcpStream) -> io::Result<()> {
    let open = state.connections.load(Ordering::SeqCst);
    let sessions_open = state.sessions.open();
    let sessions_cap = state.sessions.capacity();
    // Degraded = still serving, but saturated: new connections or
    // sessions would be turned away right now.
    let degraded = open >= state.max_connections as u64 || sessions_open >= sessions_cap;
    let body = format!(
        r#"{{"ok":true,"degraded":{degraded},"connections":{{"open":{open},"cap":{}}},"sessions":{{"open":{sessions_open},"cap":{sessions_cap}}}}}"#,
        state.max_connections
    );
    respond(state, writer, 200, body.as_bytes())
}

fn handle_run(state: &ServiceState, body: &[u8], writer: &mut &TcpStream) -> io::Result<()> {
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(state, writer, 400, "bad_json", "body is not utf-8");
    };
    let req = match TrialRequest::parse(text) {
        Ok(req) => req,
        Err(e) => return respond_request_error(state, writer, &e),
    };

    // A panic below a served request must not take the worker down; it
    // becomes a 500 (or, mid-stream, a truncated chunked body — the
    // client sees the missing terminator).
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(state, &req, writer)));
    match outcome {
        Ok(r) => r,
        Err(_) => respond_error(state, writer, 500, "internal", "request execution panicked"),
    }
}

fn execute(state: &ServiceState, req: &TrialRequest, writer: &mut &TcpStream) -> io::Result<()> {
    if let Some(churn) = &req.churn {
        return execute_churn(state, req, churn, writer);
    }
    if req.trials > 1 {
        return execute_batch(state, req, writer);
    }
    execute_single(state, req, writer)
}

/// Cache key for a request's trial `t`. Protocols that derive their own
/// radius key under radius 0, which no explicit radius can collide with
/// (requests require radius > 0).
fn key_for(req: &TrialRequest, trial: u64) -> InstanceKey {
    InstanceKey::new(req.seed, req.n, trial, req.radius.unwrap_or(0.0))
}

/// Builds the `Sim` for one trial exactly as a direct caller would, so
/// served results stay bit-identical to library runs.
fn build_sim<'a>(req: &TrialRequest, instance: &'a Instance) -> Sim<'a> {
    let mut sim = Sim::from_instance(instance)
        .energy(req.energy)
        .shards(req.shards);
    if let Some(r) = req.radius {
        sim = sim.radius(r);
    }
    if let Some(plan) = &req.faults {
        sim = sim.with_faults(plan.clone());
    }
    if !req.dead.is_empty() {
        let mut members = Membership::all_live(req.n);
        for &u in &req.dead {
            members.leave(u);
        }
        sim = sim.members(members);
    }
    if req.repair {
        sim = sim.repair(RepairPolicy::default());
    }
    if req.awake {
        sim = sim.awake(true);
    }
    sim
}

fn execute_single(
    state: &ServiceState,
    req: &TrialRequest,
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let (instance, cache_hit) = state.cache.get_or_generate(key_for(req, req.trial));

    // Pre-flight the configuration before committing to a response head:
    // a streamed response cannot change its status after the first chunk.
    if let Err(e) = build_sim(req, &instance).check(req.protocol) {
        return respond_request_error(state, writer, &RequestError::Config(e));
    }

    if req.stream == StreamMode::Off {
        let outcome = build_sim(req, &instance)
            .try_run_checked(req.protocol)
            .expect("configuration pre-flighted");
        state.note_awake(&outcome);
        let line = render_outcome(req, req.trial, cache_hit, &outcome);
        return respond(state, writer, 200, line.as_bytes());
    }

    // Streaming: chunked NDJSON of trace events, then the result line.
    state.count(200);
    write_chunked_head(writer, 200, "application/x-ndjson")?;
    let mut chunked = ChunkedWriter::new(&mut *writer);
    let mut jsonl = JsonlSink::new(&mut chunked);
    let outcome = {
        let mut filtered;
        let sink: &mut dyn TraceSink = match req.stream {
            StreamMode::Full => &mut jsonl,
            StreamMode::Summary => {
                filtered = FilterSink::new(ClassMask::SUMMARY, &mut jsonl);
                &mut filtered
            }
            StreamMode::Off => unreachable!("handled above"),
        };
        build_sim(req, &instance)
            .sink(sink)
            .try_run_checked(req.protocol)
            .expect("configuration pre-flighted")
    };
    jsonl.finish()?;
    state.note_awake(&outcome);
    let line = render_outcome(req, req.trial, cache_hit, &outcome);
    writeln!(chunked, "{line}")?;
    chunked.finish()
}

fn execute_batch(
    state: &ServiceState,
    req: &TrialRequest,
    writer: &mut &TcpStream,
) -> io::Result<()> {
    // Pre-flight on the first trial's instance (the configuration checks
    // do not depend on the point set beyond its existence).
    let (first, _hit) = state.cache.get_or_generate(key_for(req, req.trial));
    if let Err(e) = build_sim(req, &first).check(req.protocol) {
        return respond_request_error(state, writer, &RequestError::Config(e));
    }
    drop(first);

    let trials: Vec<u64> = (req.trial..req.trial + req.trials).collect();
    let rows = parallel_map(&trials, |&t| {
        let (instance, cache_hit) = state.cache.get_or_generate(key_for(req, t));
        let outcome = build_sim(req, &instance)
            .try_run_checked(req.protocol)
            .expect("configuration pre-flighted");
        state.note_awake(&outcome);
        render_outcome(req, t, cache_hit, &outcome)
    });

    let mut body = String::with_capacity(rows.len() * 160 + 128);
    body.push_str(&format!(
        r#"{{"t":"batch","protocol":"{}","n":{},"seed":{},"trials":{},"rows":["#,
        req.protocol.name(),
        req.n,
        req.seed,
        req.trials
    ));
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(row);
    }
    body.push_str("]}");
    respond(state, writer, 200, body.as_bytes())
}

/// Renders one epoch report as the canonical NDJSON line. Shared by the
/// one-shot `/run` churn path, session advances, and session trace tails
/// — one renderer, so the bitwise-identity contract between replay and
/// standing sessions extends to the wire bytes.
fn render_epoch(e: &EpochReport) -> String {
    format!(
        r#"{{"t":"epoch","epoch":{},"live":{},"arrivals":{},"departures":{},"energy":{},"energy_bits":{},"messages":{},"rounds":{},"edges_added":{},"edges_removed":{},"fragments":{},"ledger_conserved":{},"forest_valid":{}}}"#,
        e.epoch,
        e.live,
        e.arrivals,
        e.departures,
        e.energy,
        e.energy.to_bits(),
        e.messages,
        e.rounds,
        e.edges_added,
        e.edges_removed,
        e.fragments,
        e.ledger_conserved,
        e.forest_valid
    )
}

/// Renders a cumulative session ledger snapshot.
fn render_ledger(l: &SessionLedger) -> String {
    format!(
        r#"{{"epoch":{},"energy_bits":{},"messages":{},"rounds":{},"conserved":{}}}"#,
        l.epoch, l.energy_bits, l.messages, l.rounds, l.conserved
    )
}

fn execute_churn(
    state: &ServiceState,
    req: &TrialRequest,
    churn: &ChurnRequest,
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let radius = req.radius.expect("validated: churn requires radius");
    // The universe starts at n and grows with each join, in epoch order.
    let mut universe = req.n;
    for events in churn.timeline.epochs() {
        universe = match validate_events(events, universe, "churn.events") {
            Ok(u) => u,
            Err(e) => return respond_request_error(state, writer, &e),
        };
    }
    let (instance, cache_hit) = state.cache.get_or_generate(key_for(req, req.trial));
    let report = maintain(instance.points(), radius, &churn.timeline, churn.strategy);

    let strategy = churn.strategy.name();
    let epoch_lines: Vec<String> = report.epochs.iter().map(render_epoch).collect();
    let summary = format!(
        r#"{{"t":"maintain","protocol":"{}","n":{},"seed":{},"strategy":"{strategy}","radius":{},"cache_hit":{cache_hit},"bootstrap":{{"energy":{},"energy_bits":{},"messages":{},"rounds":{},"conserved":{}}},"epochs_run":{},"maintenance_energy":{},"maintenance_energy_bits":{},"maintenance_messages":{},"final_live":{},"final_forest_edges":{}}}"#,
        req.protocol.name(),
        req.n,
        req.seed,
        radius,
        report.bootstrap_energy,
        report.bootstrap_energy.to_bits(),
        report.bootstrap_messages,
        report.bootstrap_rounds,
        report.bootstrap_conserved,
        report.epochs.len(),
        report.maintenance_energy(),
        report.maintenance_energy().to_bits(),
        report.maintenance_messages(),
        report.members.live_count(),
        report.forest.len()
    );

    if req.stream == StreamMode::Off {
        let mut body = String::with_capacity(
            summary.len() + epoch_lines.iter().map(String::len).sum::<usize>() + 64,
        );
        // Single document: the summary object with the epoch reports
        // inlined as an array.
        body.push_str(&summary[..summary.len() - 1]);
        body.push_str(",\"epochs\":[");
        for (i, line) in epoch_lines.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(line);
        }
        body.push_str("]}");
        return respond(state, writer, 200, body.as_bytes());
    }

    state.count(200);
    write_chunked_head(writer, 200, "application/x-ndjson")?;
    let mut chunked = ChunkedWriter::new(&mut *writer);
    for line in &epoch_lines {
        writeln!(chunked, "{line}")?;
    }
    writeln!(chunked, "{summary}")?;
    chunked.finish()
}

fn handle_session_create(
    state: &ServiceState,
    body: &[u8],
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(state, writer, 400, "bad_json", "body is not utf-8");
    };
    let req = match SessionRequest::parse(text) {
        Ok(req) => req,
        Err(e) => return respond_request_error(state, writer, &e),
    };
    let key = InstanceKey::new(req.seed, req.n, req.trial, req.radius);
    let (instance, cache_hit) = state.cache.get_or_generate(key);
    let bootstrapped = catch_unwind(AssertUnwindSafe(|| {
        MaintainSession::bootstrap(instance.points(), req.radius, req.strategy)
    }));
    let session = match bootstrapped {
        Ok(s) => s,
        Err(_) => {
            return respond_error(state, writer, 500, "internal", "session bootstrap panicked")
        }
    };
    let (boot_energy, boot_messages, boot_rounds, boot_conserved) = session.bootstrap_stats();
    let ledger = session.ledger();
    match state.sessions.create(session) {
        Ok(id) => {
            let body = format!(
                r#"{{"t":"session","id":{id},"n":{},"seed":{},"trial":{},"radius":{},"strategy":"{}","cache_hit":{cache_hit},"bootstrap":{{"energy":{boot_energy},"energy_bits":{},"messages":{boot_messages},"rounds":{boot_rounds},"conserved":{boot_conserved}}},"ledger":{}}}"#,
                req.n,
                req.seed,
                req.trial,
                req.radius,
                req.strategy.name(),
                boot_energy.to_bits(),
                render_ledger(&ledger)
            );
            respond(state, writer, 200, body.as_bytes())
        }
        Err(_) => respond_error_retry(
            state,
            writer,
            429,
            "session_table_full",
            "session table at capacity",
        ),
    }
}

/// Pre-validates one epoch's events against an id universe of
/// `universe` ids, so an out-of-range id is a typed 400 on `field` before
/// any core state is touched (the core layer asserts on a wake or move of
/// an unknown id, and ignores a crash or sleep of one). Joins grow the
/// universe as they apply; returns the universe after the epoch.
fn validate_events(
    events: &[ChurnEvent],
    universe: usize,
    field: &'static str,
) -> Result<usize, RequestError> {
    let mut u = universe;
    for ev in events {
        let x = match *ev {
            ChurnEvent::Join(_) => {
                u += 1;
                continue;
            }
            ChurnEvent::Crash(x)
            | ChurnEvent::Sleep(x)
            | ChurnEvent::Wake(x)
            | ChurnEvent::Move(x, _) => x,
        };
        if x >= u {
            return Err(RequestError::BadField {
                field,
                why: format!("node id {x} out of range for universe {u}"),
            });
        }
    }
    Ok(u)
}

fn handle_session_advance(
    state: &ServiceState,
    id: u64,
    body: &[u8],
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(state, writer, 400, "bad_json", "body is not utf-8");
    };
    let adv = match AdvanceRequest::parse(text) {
        Ok(adv) => adv,
        Err(e) => return respond_request_error(state, writer, &e),
    };
    let events = &adv.timeline.epochs()[0];
    let mut session = match state.sessions.checkout(id) {
        Ok(s) => s,
        Err(SessionError::NotFound) => {
            return respond_error(state, writer, 404, "no_session", "no such session")
        }
        Err(SessionError::Busy) => {
            return respond_error_retry(
                state,
                writer,
                409,
                "session_busy",
                "an advance is already in flight",
            )
        }
        Err(SessionError::TableFull) => unreachable!("checkout never reports capacity"),
    };
    if let Err(e) = validate_events(events, session.universe(), "events") {
        state.sessions.release(id, session);
        return respond_request_error(state, writer, &e);
    }
    // The epoch compute runs with the session checked out — the table
    // lock is free, and a panic poisons (drops) this session only.
    let advanced = catch_unwind(AssertUnwindSafe(|| session.advance(events)));
    match advanced {
        Ok(report) => {
            let line = render_epoch(&report);
            let ledger = session.ledger();
            state.sessions.checkin(id, session, line.clone());
            let body = format!(
                r#"{{"t":"advance","id":{id},"epoch":{},"ledger":{},"report":{line}}}"#,
                report.epoch,
                render_ledger(&ledger)
            );
            respond(state, writer, 200, body.as_bytes())
        }
        Err(_) => {
            drop(session);
            state.sessions.poison(id);
            respond_error(state, writer, 500, "internal", "session advance panicked")
        }
    }
}

fn handle_session_delete(state: &ServiceState, id: u64, writer: &mut &TcpStream) -> io::Result<()> {
    match state.sessions.delete(id) {
        Ok((ledger, conserved)) => {
            let body = format!(
                r#"{{"t":"session_deleted","id":{id},"ledger":{},"conserved_at_reclaim":{conserved}}}"#,
                render_ledger(&ledger)
            );
            respond(state, writer, 200, body.as_bytes())
        }
        Err(SessionError::NotFound) => {
            respond_error(state, writer, 404, "no_session", "no such session")
        }
        Err(SessionError::Busy) => respond_error_retry(
            state,
            writer,
            409,
            "session_busy",
            "an advance is in flight; retry",
        ),
        Err(SessionError::TableFull) => unreachable!("delete never reports capacity"),
    }
}

/// Parses `from` / `wait_ms` from a trace query string.
fn parse_trace_query(query: Option<&str>) -> Result<(usize, u64), String> {
    let mut from = 0usize;
    let mut wait_ms = 0u64;
    let Some(query) = query else {
        return Ok((from, wait_ms));
    };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "from" => {
                from = v
                    .parse()
                    .map_err(|_| "from must be a non-negative integer".to_string())?
            }
            "wait_ms" => {
                wait_ms = v
                    .parse()
                    .map_err(|_| "wait_ms must be a non-negative integer".to_string())?
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok((from, wait_ms))
}

fn handle_session_trace(
    state: &ServiceState,
    id: u64,
    query: Option<&str>,
    writer: &mut &TcpStream,
) -> io::Result<()> {
    let (from, wait_ms) = match parse_trace_query(query) {
        Ok(parsed) => parsed,
        Err(why) => return respond_error(state, writer, 400, "bad_field", &why),
    };
    let wait = Duration::from_millis(wait_ms).min(MAX_TRACE_WAIT);
    match state.sessions.wait_trace(id, from, wait) {
        Err(_) => respond_error(state, writer, 404, "no_session", "no such session"),
        Ok(tail) => {
            state.count(200);
            write_chunked_head(writer, 200, "application/x-ndjson")?;
            let mut chunked = ChunkedWriter::new(&mut *writer);
            for line in &tail.lines {
                writeln!(chunked, "{line}")?;
            }
            writeln!(
                chunked,
                r#"{{"t":"trace_tail","id":{id},"next":{},"epochs_run":{}}}"#,
                tail.next, tail.epochs_run
            )?;
            chunked.finish()
        }
    }
}

/// Renders one trial's outcome as a JSON object (no trailing newline).
/// Energies carry both the decimal value and the exact bit pattern so
/// clients can verify bit-identity against direct runs.
fn render_outcome(req: &TrialRequest, trial: u64, cache_hit: bool, outcome: &RunOutcome) -> String {
    let tag = match outcome {
        RunOutcome::Complete(_) => "complete",
        RunOutcome::Repaired { .. } => "repaired",
        RunOutcome::Degraded { .. } => "degraded",
        RunOutcome::Failed { .. } => "failed",
    };
    let faults = outcome.faults();
    let mut s = format!(
        r#"{{"t":"result","protocol":"{}","n":{},"seed":{},"trial":{trial},"outcome":"{tag}","cache_hit":{cache_hit},"faults":{{"drops":{},"retries":{},"timeouts":{}}}"#,
        req.protocol.name(),
        req.n,
        req.seed,
        faults.drops,
        faults.retries,
        faults.timeouts
    );
    match outcome {
        RunOutcome::Failed { error, .. } => {
            s.push_str(&format!(r#","error":"{}""#, esc(&error.to_string())));
        }
        _ => {
            let output = outcome.output().expect("non-failed outcome has output");
            let stats = &output.stats;
            s.push_str(&format!(
                r#","energy":{},"energy_bits":{},"rx_energy_bits":{},"idle_energy_bits":{},"messages":{},"rounds":{},"fragments":{},"edges":{}"#,
                stats.energy,
                stats.energy.to_bits(),
                stats.rx_energy.to_bits(),
                stats.idle_energy.to_bits(),
                stats.messages,
                stats.rounds,
                output.fragments,
                output.tree.edges().len()
            ));
            if let Some(awake) = output.awake() {
                s.push_str(&format!(
                    r#","awake_rounds":{},"awake_max":{}"#,
                    awake.total, awake.max_per_node
                ));
            }
            if let Some(repair) = outcome.repair() {
                s.push_str(&format!(
                    r#","repair":{{"attempts":{},"edges_added":{},"fragments_before":{},"fragments_after":{}}}"#,
                    repair.attempts,
                    repair.edges_added,
                    repair.fragments_before,
                    repair.fragments_after
                ));
            }
            s.push_str(r#","ledger":{"#);
            for (i, (kind, tally)) in stats.ledger.kinds().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    r#""{kind}":{{"messages":{},"energy_bits":{}}}"#,
                    tally.messages,
                    tally.energy.to_bits()
                ));
            }
            s.push('}');
        }
    }
    s.push('}');
    s
}

fn stats_json(state: &ServiceState) -> String {
    let cache = state.cache.stats();
    let sessions = state.sessions.stats();
    format!(
        r#"{{"t":"stats","cache":{{"hits":{},"misses":{},"evictions":{},"len":{},"capacity":{},"hit_rate":{}}},"requests":{{"total":{},"ok_2xx":{},"client_4xx":{},"server_5xx":{}}},"awake":{{"runs":{},"rounds_total":{}}},"lifecycle":{{"connections_open":{},"turnaways":{},"idle_closed":{},"request_timeouts":{}}},"sessions":{{"open":{},"capacity":{},"created":{},"rejected":{},"expired":{},"deleted":{},"advances":{},"poisoned":{},"reclaim_violations":{}}}}}"#,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.len,
        cache.capacity,
        cache.hit_rate(),
        state.requests_total.load(Ordering::Relaxed),
        state.responses_2xx.load(Ordering::Relaxed),
        state.responses_4xx.load(Ordering::Relaxed),
        state.responses_5xx.load(Ordering::Relaxed),
        state.awake_runs.load(Ordering::Relaxed),
        state.awake_rounds_total.load(Ordering::Relaxed),
        state.connections.load(Ordering::SeqCst),
        state.turnaways.load(Ordering::Relaxed),
        state.idle_closed.load(Ordering::Relaxed),
        state.request_timeouts.load(Ordering::Relaxed),
        sessions.open,
        sessions.capacity,
        sessions.created,
        sessions.rejected,
        sessions.expired,
        sessions.deleted,
        sessions.advances,
        sessions.poisoned,
        sessions.reclaim_violations,
    )
}

fn respond(
    state: &ServiceState,
    writer: &mut &TcpStream,
    status: u16,
    body: &[u8],
) -> io::Result<()> {
    state.count(status);
    write_response(writer, status, "application/json", body)
}

fn respond_error(
    state: &ServiceState,
    writer: &mut &TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> io::Result<()> {
    let body = format!(
        r#"{{"t":"error","code":"{code}","message":"{}"}}"#,
        esc(message)
    );
    respond(state, writer, status, body.as_bytes())
}

/// A typed turn-away (429/503/409) carrying `Retry-After` so polite
/// clients can back off instead of hammering.
fn respond_error_retry(
    state: &ServiceState,
    writer: &mut &TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> io::Result<()> {
    state.count(status);
    let body = format!(
        r#"{{"t":"error","code":"{code}","message":"{}"}}"#,
        esc(message)
    );
    let retry_after = state.retry_after_secs.to_string();
    write_response_with(
        writer,
        status,
        "application/json",
        &[("Retry-After", &retry_after)],
        body.as_bytes(),
    )
}

fn respond_request_error(
    state: &ServiceState,
    writer: &mut &TcpStream,
    e: &RequestError,
) -> io::Result<()> {
    // Config conflicts are well-formed requests the simulator refuses:
    // 422, to keep them distinguishable from shape errors in dashboards.
    let status = match e {
        RequestError::Config(_) => 422,
        _ => 400,
    };
    respond_error(state, writer, status, e.code(), &e.to_string())
}

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
