//! Closed-loop load generator for the trial server.
//!
//! ```text
//! load_gen [--addr HOST:PORT] [--clients C] [--requests R] [--n N]
//!          [--protocol P] [--cold-ratio F] [--warm-keys K]
//!          [--min-rps RPS] [--out PATH] [--quick]
//! ```
//!
//! Without `--addr` it boots an in-process server and drives that. Each
//! of the `C` clients keeps one connection open and issues `R` requests
//! back-to-back (closed loop). The key mix is deterministic: a
//! `--cold-ratio` fraction of requests use a fresh never-seen seed
//! (cache miss + generation), the rest rotate through `--warm-keys` hot
//! seeds (cache hits after warmup). Results land in `BENCH_service.json`
//! (schema `bench_service/v2`): requests/s, p50/p99 latency, cache hit
//! rate, response-class counts, retry counts. Exits non-zero on
//! unexpected 5xx, on request failures, or when `--min-rps` is given
//! and missed.
//!
//! Turn-aways (`503` at the accept gate, `429` from a full session
//! table) are the server's backpressure contract, so the generator is a
//! polite client: it honors `Retry-After` with capped exponential
//! backoff plus deterministic splitmix-seeded jitter (synchronized
//! clients desynchronize identically on every run), reconnects after a
//! connection-closing turn-away, and reports the retry total in the
//! results document rather than failing.

use emst_analysis::bench_doc::ServiceDoc;
use emst_core::{GhsVariant, Protocol};
use emst_geom::BASE_SEED;
use emst_service::json::Json;
use emst_service::{serve, Client, ServiceConfig};
use std::time::Instant;

struct Options {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    n: usize,
    protocol: Protocol,
    cold_ratio: f64,
    warm_keys: usize,
    min_rps: Option<f64>,
    out: String,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("load_gen: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<Options, Box<dyn std::error::Error>> {
    let mut o = Options {
        addr: None,
        clients: 8,
        requests: 50,
        n: 2000,
        protocol: Protocol::Ghs(GhsVariant::Modified),
        cold_ratio: 0.2,
        warm_keys: 4,
        min_rps: None,
        out: "BENCH_service.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--addr" => o.addr = Some(value("--addr")?),
            "--clients" => o.clients = value("--clients")?.parse()?,
            "--requests" => o.requests = value("--requests")?.parse()?,
            "--n" => o.n = value("--n")?.parse()?,
            "--protocol" => {
                let name = value("--protocol")?;
                o.protocol = Protocol::from_name(&name, 0)
                    .ok_or_else(|| format!("unknown protocol {name:?}"))?;
            }
            "--cold-ratio" => o.cold_ratio = value("--cold-ratio")?.parse()?,
            "--warm-keys" => o.warm_keys = value("--warm-keys")?.parse()?,
            "--min-rps" => o.min_rps = Some(value("--min-rps")?.parse()?),
            "--out" => o.out = value("--out")?,
            "--quick" => {
                o.clients = 2;
                o.requests = 8;
                o.n = 300;
            }
            "--help" | "-h" => {
                println!(
                    "usage: load_gen [--addr HOST:PORT] [--clients C] [--requests R] [--n N] \
                     [--protocol P] [--cold-ratio F] [--warm-keys K] [--min-rps RPS] \
                     [--out PATH] [--quick]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)").into()),
        }
    }
    if o.clients == 0 || o.requests == 0 || o.warm_keys == 0 {
        return Err("--clients, --requests and --warm-keys must be positive".into());
    }
    if !(0.0..=1.0).contains(&o.cold_ratio) {
        return Err("--cold-ratio must be in [0, 1]".into());
    }
    Ok(o)
}

/// Retry budget per request before the run is declared failed.
const MAX_RETRIES: u32 = 8;
/// First backoff step; doubles per consecutive retry of one request.
const BACKOFF_BASE_MS: u64 = 25;
/// Backoff ceiling (also caps an outsized server `Retry-After` hint so
/// one throttle cannot stall the closed loop for whole seconds).
const BACKOFF_CAP_MS: u64 = 2000;

/// Backoff before retry number `attempt` (1-based) of request `request`
/// on client `client`: capped exponential, floored by the server's
/// `Retry-After` hint, with ±25% splitmix-derived jitter. Deterministic
/// in `(client, request, attempt)` — reruns back off identically.
fn backoff_ms(attempt: u32, retry_after: Option<u64>, client: usize, request: usize) -> u64 {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(10))
        .min(BACKOFF_CAP_MS);
    let floor = retry_after.map_or(0, |s| s.saturating_mul(1000).min(BACKOFF_CAP_MS));
    let base = exp.max(floor);
    let mix = emst_geom::mix_seed(
        0xB0FF_0000 ^ client as u64,
        ((request as u64) << 8) | attempt as u64,
    );
    // mix % span lands in [0, base/2): shifted down a quarter, the wait
    // spreads over [0.75·base, 1.25·base).
    base - base / 4 + mix % (base / 2).max(1)
}

/// Seed for the k-th warm (hot, cacheable) key.
fn warm_seed(k: usize) -> u64 {
    BASE_SEED + k as u64
}

/// Seed for the i-th cold (never repeated) key.
fn cold_seed(i: usize) -> u64 {
    0x5EED_C01D_0000_0000 + i as u64
}

fn body_for(o: &Options, seed: u64) -> String {
    // Radius-bound protocols get the paper's connectivity-regime radius
    // for the requested n; EOPT and Co-NNT derive their own.
    let name = o.protocol.name();
    if o.protocol.needs_radius() {
        let radius = emst_geom::paper_phase2_radius(o.n);
        format!(
            r#"{{"protocol":"{name}","n":{},"seed":{seed},"radius":{radius}}}"#,
            o.n
        )
    } else {
        format!(r#"{{"protocol":"{name}","n":{},"seed":{seed}}}"#, o.n)
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let o = parse_args()?;

    // Boot an in-process server unless pointed at a running one.
    let mut _handle = None;
    let addr = match &o.addr {
        Some(addr) => addr.clone(),
        None => {
            let server = serve(ServiceConfig {
                max_connections: o.clients + 8,
                ..ServiceConfig::default()
            })?;
            let addr = server.addr().to_string();
            _handle = Some(server);
            addr
        }
    };

    // Warmup: populate every warm key once, outside the measured window,
    // so the measured mix reflects steady-state cache behaviour.
    {
        let mut warmer = Client::connect(&addr)?;
        for k in 0..o.warm_keys {
            let resp = warmer.post("/run", body_for(&o, warm_seed(k)).as_bytes())?;
            if resp.status != 200 {
                return Err(format!(
                    "warmup request failed with {}: {}",
                    resp.status,
                    resp.text()
                )
                .into());
            }
        }
    }

    // Measured closed loop: each client thread owns one connection and a
    // deterministic slice of the key mix.
    let cold_per_mille = (o.cold_ratio * 1000.0).round() as usize;
    let started = Instant::now();
    let worker = |c: usize| -> Result<(Vec<u64>, u64, u64), String> {
        let mut client = Client::connect(&addr).map_err(|e| format!("client {c}: connect: {e}"))?;
        let mut latencies_us = Vec::with_capacity(o.requests);
        let mut non_2xx = 0u64;
        let mut retries = 0u64;
        for i in 0..o.requests {
            let global = c * o.requests + i;
            // Bresenham spread: a request is cold when the running
            // cold-quota counter ticks over, giving an even cold/warm
            // interleave at exactly the requested ratio.
            let cold = ((global + 1) * cold_per_mille) / 1000 > (global * cold_per_mille) / 1000;
            let seed = if cold {
                cold_seed(global)
            } else {
                warm_seed(global % o.warm_keys)
            };
            let body = body_for(&o, seed);
            // Turn-aways (503 accept gate, 429 session table) are retried
            // with backoff; anything else settles the request. The
            // recorded latency is the settling attempt's alone — backoff
            // waits are deliberate, not service time.
            let mut attempts = 0u32;
            let resp = loop {
                let t = Instant::now();
                let result = client.post("/run", body.as_bytes());
                let elapsed_us = t.elapsed().as_micros() as u64;
                match result {
                    Ok(resp) if resp.status == 503 || resp.status == 429 => {
                        attempts += 1;
                        retries += 1;
                        if attempts > MAX_RETRIES {
                            return Err(format!(
                                "client {c} request {i}: still turned away ({}) after \
                                 {MAX_RETRIES} retries",
                                resp.status
                            ));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
                            attempts,
                            resp.retry_after,
                            c,
                            i,
                        )));
                        if resp.status == 503 {
                            // The accept gate closes turned-away
                            // connections; start a fresh one.
                            client = Client::connect(&addr)
                                .map_err(|e| format!("client {c} reconnect: {e}"))?;
                        }
                    }
                    Ok(resp) => {
                        latencies_us.push(elapsed_us);
                        break resp;
                    }
                    // An accept-gate turn-away often surfaces as a broken
                    // connection rather than a parsed 503: the server
                    // writes the refusal and closes before the request
                    // bytes land. Same contract, same backoff.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::BrokenPipe
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::UnexpectedEof
                        ) =>
                    {
                        attempts += 1;
                        retries += 1;
                        if attempts > MAX_RETRIES {
                            return Err(format!(
                                "client {c} request {i}: still turned away (connection \
                                 refused mid-handshake) after {MAX_RETRIES} retries"
                            ));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
                            attempts, None, c, i,
                        )));
                        client = Client::connect(&addr)
                            .map_err(|e| format!("client {c} reconnect: {e}"))?;
                    }
                    Err(e) => return Err(format!("client {c} request {i}: {e}")),
                }
            };
            if resp.status != 200 {
                non_2xx += 1;
            }
            if resp.status >= 500 {
                return Err(format!(
                    "client {c} request {i}: server error {}: {}",
                    resp.status,
                    resp.text()
                ));
            }
        }
        Ok((latencies_us, non_2xx, retries))
    };
    let client_ids: Vec<usize> = (0..o.clients).collect();
    let results = emst_analysis::parallel_map(&client_ids, |&c| worker(c));
    let wall_s = started.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(o.clients * o.requests);
    let mut non_2xx = 0u64;
    let mut retries = 0u64;
    for r in results {
        let (l, bad, r#try) = r?;
        latencies.extend(l);
        non_2xx += bad;
        retries += r#try;
    }
    latencies.sort_unstable();
    let total = latencies.len();
    let pct = |p: f64| -> f64 {
        let idx = ((total as f64 - 1.0) * p).round() as usize;
        latencies[idx] as f64 / 1000.0
    };
    let (p50_ms, p99_ms) = (pct(0.50), pct(0.99));
    let rps = total as f64 / wall_s;

    // Server-side counters. The fetch itself can draw a turn-away while
    // worker connections are still being reclaimed — be a polite client
    // here too.
    let stats_text = {
        let mut text = None;
        for _ in 0..20 {
            if let Ok(mut probe) = Client::connect(&addr) {
                if let Ok(resp) = probe.get("/stats") {
                    if resp.status == 200 {
                        text = Some(resp.text());
                        break;
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        text.ok_or("could not fetch /stats after the run")?
    };
    let stats = Json::parse(&stats_text).map_err(|e| format!("bad /stats body: {e}"))?;
    let counter = |section: &str, field: &str| -> u64 {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("cache", "hits"), counter("cache", "misses"));
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    // Deliberate 503 turn-aways are counted in `server_5xx` (that keeps
    // the conservation identity exact); subtract them to get the 5xx
    // count that means something went wrong.
    let turnaways = counter("lifecycle", "turnaways");
    let server_5xx = counter("requests", "server_5xx").saturating_sub(turnaways);

    let doc = ServiceDoc {
        clients: o.clients,
        requests: total,
        n: o.n,
        protocol: o.protocol,
        cold_ratio: o.cold_ratio,
        warm_keys: o.warm_keys,
        wall_s,
        rps,
        p50_ms,
        p99_ms,
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: hit_rate,
        cache_evictions: counter("cache", "evictions"),
        responses_2xx: counter("requests", "ok_2xx"),
        responses_4xx: counter("requests", "client_4xx"),
        responses_5xx: server_5xx,
        retries,
        turnaways,
    };
    std::fs::write(&o.out, doc.render())?;
    println!(
        "load_gen: {total} requests in {wall_s:.2}s — {rps:.0} req/s, p50 {p50_ms:.2}ms, \
         p99 {p99_ms:.2}ms, cache hit rate {:.2}, {retries} retries → {}",
        hit_rate, o.out
    );

    if server_5xx > 0 {
        return Err(format!("{server_5xx} unexpected server errors (5xx) during the run").into());
    }
    if non_2xx > 0 {
        return Err(format!("{non_2xx} non-200 responses during the run").into());
    }
    if let Some(min) = o.min_rps {
        if rps < min {
            return Err(
                format!("throughput {rps:.0} req/s below the --min-rps {min} floor").into(),
            );
        }
    }
    Ok(())
}
