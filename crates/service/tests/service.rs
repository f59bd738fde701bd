//! End-to-end tests over a real socket: served results must be
//! bit-identical to direct `Sim` runs, the instance cache must share
//! work across concurrent clients and evict under pressure, and every
//! invalid request shape must come back as a 400-class typed error.

use emst_core::{GhsVariant, Instance, MaintainStrategy, Protocol, RunOutput, Sim};
use emst_geom::BASE_SEED as SEED;
use emst_radio::{FaultPlan, JsonlSink, Membership};
use emst_service::json::Json;
use emst_service::{serve, Client, Drain, ServiceConfig};
use std::io::{Read, Write};
use std::time::Duration;

fn boot(cache_capacity: usize) -> emst_service::ServerHandle {
    serve(ServiceConfig {
        cache_capacity,
        ..ServiceConfig::default()
    })
    .expect("bind local server")
}

fn boot_cfg(cfg: ServiceConfig) -> emst_service::ServerHandle {
    serve(cfg).expect("bind local server")
}

fn post(addr: &str, body: &str) -> (u16, Json) {
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.post("/run", body.as_bytes()).expect("request");
    let doc = Json::parse(&resp.text())
        .unwrap_or_else(|e| panic!("unparseable body {:?}: {e}", resp.text()));
    (resp.status, doc)
}

fn cache_counter(addr: &str, field: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let stats = Json::parse(&client.get("/stats").expect("stats").text()).expect("stats json");
    stats
        .get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing cache.{field}"))
}

#[test]
fn concurrent_same_key_requests_share_one_generation() {
    let server = boot(8);
    let addr = server.addr().to_string();
    const CLIENTS: usize = 8;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (status, doc) = post(
                    &addr,
                    r#"{"protocol": "ghs_modified", "n": 200, "radius": 0.25}"#,
                );
                assert_eq!(status, 200);
                doc.get("energy_bits").and_then(Json::as_u64).unwrap()
            })
        })
        .collect();
    let energies: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every client saw the same bit-exact result...
    assert!(energies.windows(2).all(|w| w[0] == w[1]));
    // ...and the cache collapsed the 8 requests into one generation.
    assert_eq!(cache_counter(&addr, "misses"), 1);
    assert_eq!(cache_counter(&addr, "hits"), CLIENTS as u64 - 1);
}

/// Asserts a served result carries `direct`'s totals and per-kind
/// ledger, bit for bit.
fn assert_served_ledger(doc: &Json, direct: &RunOutput) {
    let field = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap();
    assert_eq!(field("energy_bits"), direct.stats.energy.to_bits());
    assert_eq!(field("messages"), direct.stats.messages);
    assert_eq!(field("rounds"), direct.stats.rounds);
    assert_eq!(field("edges"), direct.tree.edges().len() as u64);
    assert_eq!(field("fragments"), direct.fragments as u64);

    // Per-kind ledger, bit for bit.
    let ledger = doc.get("ledger").expect("ledger object");
    let mut kinds = 0;
    for (kind, tally) in direct.stats.ledger.kinds() {
        let served = ledger.get(kind).unwrap_or_else(|| panic!("kind {kind}"));
        assert_eq!(
            served.get("messages").and_then(Json::as_u64),
            Some(tally.messages),
            "{kind} messages"
        );
        assert_eq!(
            served.get("energy_bits").and_then(Json::as_u64),
            Some(tally.energy.to_bits()),
            "{kind} energy"
        );
        kinds += 1;
    }
    assert_eq!(ledger.keys().unwrap().count(), kinds);
}

#[test]
fn served_ledger_is_bit_identical_to_direct_sim_run() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let (n, radius) = (150, 0.3);

    let (status, doc) = post(
        &addr,
        &format!(r#"{{"protocol": "ghs_modified", "n": {n}, "seed": {SEED}, "radius": {radius}}}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("complete"));

    let instance = Instance::generate(SEED, n, 0);
    let direct = Sim::new(instance.points())
        .radius(radius)
        .run(Protocol::Ghs(GhsVariant::Modified));
    assert_served_ledger(&doc, &direct);

    // Departures and a fault plan compose on one run.
    let (status, doc) = post(
        &addr,
        &format!(
            r#"{{"protocol": "ghs_modified", "n": {n}, "seed": {SEED}, "radius": {radius},
                "dead": [1, 40], "faults": {{"drop": 0.1, "seed": 3}}}}"#
        ),
    );
    assert_eq!(status, 200, "{doc:?}");
    let mut members = Membership::all_live(n);
    members.leave(1);
    members.leave(40);
    let direct = Sim::new(instance.points())
        .radius(radius)
        .members(members)
        .with_faults(FaultPlan::none().drop_probability(0.1).seed(3))
        .try_run(Protocol::Ghs(GhsVariant::Modified))
        .into_output()
        .expect("a lossy run finishes");
    assert_served_ledger(&doc, &direct);
}

#[test]
fn streamed_trace_matches_direct_jsonl_sink_bytes() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let (n, radius) = (60, 0.4);

    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .post(
            "/run",
            format!(
                r#"{{"protocol": "ghs_modified", "n": {n}, "seed": {SEED}, "radius": {radius}, "stream": "full"}}"#
            )
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.text();
    let result_line = body.lines().last().expect("result line");
    assert!(result_line.contains(r#""t":"result""#));

    // The stream before the result line must be byte-identical to a
    // direct JsonlSink attached to the same run.
    let instance = Instance::generate(SEED, n, 0);
    let mut sink = JsonlSink::new(Vec::new());
    let _ = Sim::new(instance.points())
        .radius(radius)
        .sink(&mut sink)
        .run(Protocol::Ghs(GhsVariant::Modified));
    let direct = String::from_utf8(sink.finish().unwrap()).unwrap();

    let streamed_prefix = &body[..body.len() - result_line.len() - 1];
    assert_eq!(streamed_prefix, direct);

    // The summary mode must drop per-message events but keep the rest.
    let resp = client
        .post(
            "/run",
            format!(
                r#"{{"protocol": "ghs_modified", "n": {n}, "seed": {SEED}, "radius": {radius}, "stream": "summary"}}"#
            )
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let summary_body = resp.text();
    assert!(!summary_body.contains(r#""t":"msg""#));
    let direct_no_msg: String = direct
        .lines()
        .filter(|l| !l.starts_with(r#"{"t":"msg""#))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    let summary_result = summary_body.lines().last().unwrap();
    let summary_prefix = &summary_body[..summary_body.len() - summary_result.len() - 1];
    assert_eq!(summary_prefix, direct_no_msg);
}

#[test]
fn tiny_cache_evicts_lru_and_counts_it() {
    let server = boot(2);
    let addr = server.addr().to_string();
    let req = |seed: u64| format!(r#"{{"protocol": "co_nnt", "n": 80, "seed": {seed}}}"#);

    // Three distinct keys through a capacity-2 cache...
    for seed in [1, 2, 3] {
        let (status, _) = post(&addr, &req(seed));
        assert_eq!(status, 200);
    }
    assert_eq!(cache_counter(&addr, "misses"), 3);
    assert_eq!(cache_counter(&addr, "evictions"), 1);
    // ...seed 1 was evicted (LRU), so re-requesting it misses again...
    let (status, _) = post(&addr, &req(1));
    assert_eq!(status, 200);
    assert_eq!(cache_counter(&addr, "misses"), 4);
    // ...while seed 3 is still resident.
    let (status, _) = post(&addr, &req(3));
    assert_eq!(status, 200);
    assert_eq!(cache_counter(&addr, "hits"), 1);
}

#[test]
fn every_registry_protocol_is_served() {
    let server = boot(4);
    let addr = server.addr().to_string();
    for name in Protocol::NAMES {
        let protocol = Protocol::from_name(name, 0).expect("registered name");
        let body = if protocol.needs_radius() {
            format!(r#"{{"protocol": "{name}", "n": 60, "radius": 0.4}}"#)
        } else {
            format!(r#"{{"protocol": "{name}", "n": 60}}"#)
        };
        let (status, doc) = post(&addr, &body);
        assert_eq!(status, 200, "{body}: {doc:?}");
        assert_eq!(doc.get("protocol").and_then(Json::as_str), Some(name));
    }
}

#[test]
fn invalid_request_shapes_get_typed_400_class_responses() {
    let server = boot(4);
    let addr = server.addr().to_string();

    // (body, expected status, expected error code)
    let cases: &[(&str, u16, &str)] = &[
        ("{not json", 400, "bad_json"),
        (r#"[1, 2, 3]"#, 400, "bad_json"),
        (r#"{"n": 100}"#, 400, "missing_field"),
        (
            r#"{"protocol": "ghs_modified", "radius": 0.3}"#,
            400,
            "missing_field",
        ),
        (
            r#"{"protocol": "kruskal", "n": 100}"#,
            400,
            "unknown_protocol",
        ),
        (
            r#"{"protocol": "eopt", "n": 100, "radios": 0.5}"#,
            400,
            "unknown_field",
        ),
        (r#"{"protocol": "eopt", "n": 0}"#, 400, "bad_field"),
        (r#"{"protocol": "eopt", "n": 200000}"#, 400, "bad_field"),
        (
            r#"{"protocol": "eopt", "n": 100, "trials": 1000}"#,
            400,
            "bad_field",
        ),
        (
            r#"{"protocol": "eopt", "n": 100, "trials": 2, "stream": "full"}"#,
            400,
            "conflict",
        ),
        // Empty sleep windows and out-of-range fault nodes are bad
        // fields, not parse panics.
        (
            r#"{"protocol": "ghs_modified", "n": 60, "radius": 0.4,
                "faults": {"sleeps": [[0, 5, 5]]}}"#,
            400,
            "bad_field",
        ),
        (
            r#"{"protocol": "ghs_modified", "n": 60, "radius": 0.4,
                "faults": {"crashes": [[999999, 3]]}}"#,
            400,
            "bad_field",
        ),
        (
            r#"{"protocol": "ghs_modified", "n": 60, "radius": 0.4,
                "faults": {"sleeps": [[60, 1, 5]]}}"#,
            400,
            "bad_field",
        ),
        // Config-level conflicts surface with the library's taxonomy.
        (r#"{"protocol": "ghs_modified", "n": 100}"#, 422, "config"),
    ];
    for (body, want_status, want_code) in cases {
        let (status, doc) = post(&addr, body);
        assert_eq!(status, *want_status, "{body}");
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some(*want_code),
            "{body}"
        );
    }

    // Routing errors.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/run").unwrap().status, 405);
    assert_eq!(client.post("/stats", b"{}").unwrap().status, 405);
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // Every rejected request released its connection: once the closed
    // clients' handlers exit, only this probe is open.
    let mut open = || {
        let health = Json::parse(&client.get("/healthz").unwrap().text()).unwrap();
        health
            .get("connections")
            .and_then(|c| c.get("open"))
            .and_then(Json::as_u64)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while open() != Some(1) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open(), Some(1), "a rejected request leaked its connection");

    // All of the above counted as client errors, none as server errors.
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let requests = stats.get("requests").unwrap();
    assert_eq!(requests.get("server_5xx").and_then(Json::as_u64), Some(0));
    assert!(requests.get("client_4xx").and_then(Json::as_u64).unwrap() >= cases.len() as u64);
}

#[test]
fn batch_requests_fan_out_and_report_per_trial_rows() {
    let server = boot(8);
    let addr = server.addr().to_string();
    let (status, doc) = post(
        &addr,
        r#"{"protocol": "ghs_modified", "n": 100, "radius": 0.3, "trials": 4}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("t").and_then(Json::as_str), Some("batch"));
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 4);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.get("trial").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(row.get("outcome").and_then(Json::as_str), Some("complete"));
        // Each trial is its own instance: a direct run must reproduce it.
        let instance = Instance::generate(SEED, 100, i as u64);
        let direct = Sim::new(instance.points())
            .radius(0.3)
            .run(Protocol::Ghs(GhsVariant::Modified));
        assert_eq!(
            row.get("energy_bits").and_then(Json::as_u64),
            Some(direct.stats.energy.to_bits())
        );
    }
}

#[test]
fn churn_requests_run_the_maintenance_loop() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let body = r#"{"protocol": "ghs_modified", "n": 60, "radius": 0.4,
        "churn": {"epochs": 3, "events": [
            {"epoch": 0, "op": "crash", "node": 7},
            {"epoch": 1, "op": "join", "x": 0.5, "y": 0.5},
            {"epoch": 2, "op": "sleep", "node": 11}
        ]}}"#;
    let (status, doc) = post(&addr, body);
    assert_eq!(status, 200);
    assert_eq!(doc.get("t").and_then(Json::as_str), Some("maintain"));
    let epochs = doc.get("epochs").and_then(Json::as_arr).expect("epochs");
    assert_eq!(epochs.len(), 3);
    for epoch in epochs {
        assert_eq!(
            epoch.get("ledger_conserved").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            epoch.get("forest_valid").and_then(Json::as_bool),
            Some(true)
        );
    }
    // Crash in epoch 0, join in epoch 1, sleep in epoch 2: 60 - 2 + 1.
    assert_eq!(doc.get("final_live").and_then(Json::as_u64), Some(59));
}

#[test]
fn faulty_and_repaired_runs_round_trip_the_outcome_lattice() {
    let server = boot(4);
    let addr = server.addr().to_string();

    // A lossy plan without repair; the outcome tag must be one of the
    // lattice values and fault counters must be present.
    let (status, doc) = post(
        &addr,
        r#"{"protocol": "ghs_modified", "n": 80, "radius": 0.35,
            "faults": {"drop": 0.2, "seed": 11, "retries": 2}}"#,
    );
    assert_eq!(status, 200);
    let tag = doc.get("outcome").and_then(Json::as_str).unwrap();
    assert!(["complete", "repaired", "degraded", "failed"].contains(&tag));
    assert!(doc.get("faults").is_some());

    // Same point with repair enabled must also succeed over HTTP.
    let (status, doc) = post(
        &addr,
        r#"{"protocol": "ghs_modified", "n": 80, "radius": 0.35, "repair": true,
            "faults": {"drop": 0.2, "seed": 11, "retries": 2}}"#,
    );
    assert_eq!(status, 200);
    let tag = doc.get("outcome").and_then(Json::as_str).unwrap();
    assert!(["complete", "repaired", "degraded"].contains(&tag));
}

#[test]
fn awake_tracking_round_trips_rows_stats_and_faults() {
    let server = boot(4);
    let addr = server.addr().to_string();

    // Untracked runs must not grow awake fields.
    let (status, doc) = post(
        &addr,
        r#"{"protocol": "ghs_modified", "n": 120, "radius": 0.3}"#,
    );
    assert_eq!(status, 200);
    assert!(doc.get("awake_rounds").is_none());

    // Tracked run: awake counters appear and match the direct Sim run.
    let (status, doc) = post(
        &addr,
        &format!(
            r#"{{"protocol": "ghs_modified", "n": 120, "seed": {SEED}, "radius": 0.3, "awake": true}}"#
        ),
    );
    assert_eq!(status, 200);
    let instance = Instance::generate(SEED, 120, 0);
    let direct = Sim::new(instance.points())
        .radius(0.3)
        .awake(true)
        .run(Protocol::Ghs(GhsVariant::Modified));
    let awake = direct.awake().expect("tracked run reports awake");
    assert_eq!(
        doc.get("awake_rounds").and_then(Json::as_u64),
        Some(awake.total)
    );
    assert_eq!(
        doc.get("awake_max").and_then(Json::as_u64),
        Some(awake.max_per_node)
    );
    // The all-awake run stays bit-identical to the untracked baseline.
    assert_eq!(
        doc.get("energy_bits").and_then(Json::as_u64),
        Some(direct.stats.energy.to_bits())
    );

    // The low-awake protocol implies tracking and beats the all-awake
    // max-per-node count.
    let (status, low) = post(
        &addr,
        &format!(r#"{{"protocol": "ghs_lowawake", "n": 120, "seed": {SEED}, "radius": 0.3}}"#),
    );
    assert_eq!(status, 200);
    let low_max = low.get("awake_max").and_then(Json::as_u64).unwrap();
    assert!(low_max < awake.max_per_node);

    // /stats accumulates awake counters across the two tracked runs.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = Json::parse(&client.get("/stats").expect("stats").text()).expect("stats json");
    let runs = stats
        .get("awake")
        .and_then(|a| a.get("runs"))
        .and_then(Json::as_u64)
        .expect("awake.runs");
    assert_eq!(runs, 2);
    let total = stats
        .get("awake")
        .and_then(|a| a.get("rounds_total"))
        .and_then(Json::as_u64)
        .expect("awake.rounds_total");
    assert!(total > 0);

    // Awake tracking composes with an effective fault plan.
    let (status, doc) = post(
        &addr,
        &format!(
            r#"{{"protocol": "ghs_modified", "n": 120, "seed": {SEED}, "radius": 0.3, "awake": true,
                "faults": {{"drop": 0.1, "seed": 3}}}}"#
        ),
    );
    assert_eq!(status, 200, "{doc:?}");
    let direct = Sim::new(instance.points())
        .radius(0.3)
        .awake(true)
        .with_faults(FaultPlan::none().drop_probability(0.1).seed(3))
        .try_run(Protocol::Ghs(GhsVariant::Modified))
        .into_output()
        .expect("a lossy run finishes");
    assert_served_ledger(&doc, &direct);
    let awake = direct.awake().expect("tracked run reports awake");
    assert_eq!(
        doc.get("awake_rounds").and_then(Json::as_u64),
        Some(awake.total)
    );
}

/// Asserts the /stats request counters conserve: total == 2xx + 4xx + 5xx.
fn assert_stats_conserved(addr: &str) {
    let mut client = Client::connect(addr).unwrap();
    assert_stats_conserved_on(&mut client);
}

/// Same conservation check over an already-open connection (needed when
/// the server's connection cap would turn a fresh one away).
fn assert_stats_conserved_on(client: &mut Client) {
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let requests = stats.get("requests").unwrap();
    let get = |f: &str| requests.get(f).and_then(Json::as_u64).unwrap();
    assert_eq!(
        get("total"),
        get("ok_2xx") + get("client_4xx") + get("server_5xx"),
        "request counters leaked"
    );
}

/// The acceptance pin: a standing session advanced epoch-by-epoch over a
/// live connection is bitwise identical to the one-shot `/run` churn
/// replay of the same timeline — per-epoch reports, the streamed trace
/// bytes, and the cumulative ledger at reclaim.
#[test]
fn standing_session_matches_replay_bitwise() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let (n, radius) = (60usize, 0.4f64);
    let mut client = Client::connect(&addr).unwrap();

    // One-shot replay of the 3-epoch timeline, streamed so the epoch
    // lines arrive as raw NDJSON bytes.
    let replay = client
        .post(
            "/run",
            format!(
                r#"{{"protocol": "ghs_modified", "n": {n}, "seed": {SEED}, "radius": {radius},
                    "stream": "summary",
                    "churn": {{"epochs": 3, "events": [
                        {{"epoch": 0, "op": "crash", "node": 7}},
                        {{"epoch": 1, "op": "join", "x": 0.5, "y": 0.5}},
                        {{"epoch": 2, "op": "sleep", "node": 11}}
                    ]}}}}"#
            )
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(replay.status, 200);
    let replay_text = replay.text();
    let replay_epoch_lines: Vec<&str> = replay_text
        .lines()
        .filter(|l| l.starts_with(r#"{"t":"epoch""#))
        .collect();
    assert_eq!(replay_epoch_lines.len(), 3);

    // The same three epochs, advanced one request at a time on a
    // standing session.
    let created = client
        .post(
            "/session",
            format!(r#"{{"n": {n}, "seed": {SEED}, "radius": {radius}}}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(created.status, 200, "{}", created.text());
    let created_doc = Json::parse(&created.text()).unwrap();
    let id = created_doc.get("id").and_then(Json::as_u64).unwrap();

    let batches = [
        r#"{"events": [{"op": "crash", "node": 7}]}"#,
        r#"{"events": [{"op": "join", "x": 0.5, "y": 0.5}]}"#,
        r#"{"events": [{"op": "sleep", "node": 11}]}"#,
    ];
    for (i, batch) in batches.iter().enumerate() {
        let resp = client
            .post(&format!("/session/{id}/advance"), batch.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = Json::parse(&resp.text()).unwrap();
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(i as u64 + 1));
        // The embedded per-epoch report must match the replay's epoch
        // object field by field (same renderer, same bits).
        let report = doc.get("report").expect("report");
        let replayed = Json::parse(replay_epoch_lines[i]).unwrap();
        for field in [
            "epoch",
            "live",
            "arrivals",
            "departures",
            "energy_bits",
            "messages",
            "rounds",
            "edges_added",
            "edges_removed",
            "fragments",
        ] {
            assert_eq!(
                report.get(field).and_then(Json::as_u64),
                replayed.get(field).and_then(Json::as_u64),
                "epoch {i} field {field}"
            );
        }
        assert_eq!(
            report.get("ledger_conserved").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            report.get("forest_valid").and_then(Json::as_bool),
            Some(true)
        );
    }

    // The trace tail replays the session's epoch lines — byte-identical
    // to the replay's streamed lines.
    let trace = client
        .get(&format!("/session/{id}/trace?from=0&wait_ms=0"))
        .unwrap();
    assert_eq!(trace.status, 200);
    let trace_text = trace.text();
    let trace_lines: Vec<&str> = trace_text
        .lines()
        .filter(|l| l.starts_with(r#"{"t":"epoch""#))
        .collect();
    assert_eq!(trace_lines, replay_epoch_lines, "trace bytes diverged");
    assert!(trace_text.contains(r#""t":"trace_tail""#));

    // DELETE reclaims with the conservation pin; the final cumulative
    // ledger must equal an in-process session folded the same way.
    let deleted = client.delete(&format!("/session/{id}")).unwrap();
    assert_eq!(deleted.status, 200);
    let deleted_doc = Json::parse(&deleted.text()).unwrap();
    assert_eq!(
        deleted_doc
            .get("conserved_at_reclaim")
            .and_then(Json::as_bool),
        Some(true)
    );
    let ledger = deleted_doc.get("ledger").unwrap();

    let instance = Instance::generate(SEED, n, 0);
    let mut direct = emst_core::MaintainSession::bootstrap(
        instance.points(),
        radius,
        MaintainStrategy::Incremental,
    );
    let timeline = emst_core::ChurnTimeline::new(3)
        .crash(0, 7)
        .join(1, 0.5, 0.5)
        .sleep(2, 11);
    for events in timeline.epochs() {
        direct.advance(events);
    }
    let expect = direct.ledger();
    assert_eq!(
        ledger.get("energy_bits").and_then(Json::as_u64),
        Some(expect.energy_bits),
        "cumulative energy diverged from the in-process session"
    );
    assert_eq!(
        ledger.get("messages").and_then(Json::as_u64),
        Some(expect.messages)
    );
    assert_eq!(
        ledger.get("rounds").and_then(Json::as_u64),
        Some(expect.rounds)
    );
    assert_eq!(ledger.get("epoch").and_then(Json::as_u64), Some(3));
    assert_eq!(ledger.get("conserved").and_then(Json::as_bool), Some(true));

    // Double-DELETE: the second reclaim of the same id is a typed 404.
    let again = client.delete(&format!("/session/{id}")).unwrap();
    assert_eq!(again.status, 404);
    assert_eq!(
        Json::parse(&again.text())
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("no_session")
    );
    assert_stats_conserved(&addr);
}

/// S1 regression: an idle keep-alive connection must be closed by the
/// server within the idle timeout, reclaiming the handler thread, not
/// pinned forever.
#[test]
fn idle_keepalive_connection_is_reclaimed_within_timeout() {
    let idle = Duration::from_millis(200);
    let server = boot_cfg(ServiceConfig {
        idle_timeout: idle,
        ..ServiceConfig::default()
    });
    let addr = server.addr();

    // The client-side guard is a multiple of the idle timeout, slack for a
    // loaded runner: a read that ends before it was ended by the server.
    let guard = idle * 25;
    let start = std::time::Instant::now();
    let mut idler = std::net::TcpStream::connect(addr).unwrap();
    idler.set_read_timeout(Some(guard)).unwrap();
    let mut buf = [0u8; 64];
    // Send nothing; the server must close (clean EOF) once the idle
    // timeout has passed.
    let read = idler.read(&mut buf);
    let elapsed = start.elapsed();
    assert!(
        elapsed < guard,
        "no idle close within the client's {guard:?} guard (read ended after {elapsed:?})"
    );
    let n = read.expect("server closed cleanly");
    assert_eq!(n, 0, "expected EOF, got {n} bytes");

    // The handler thread is reclaimed: the idle-close is counted and no
    // connection remains open besides the stats probe itself.
    let addr = addr.to_string();
    let mut client = Client::connect(&addr).unwrap();
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let lifecycle = stats.get("lifecycle").unwrap();
    assert_eq!(lifecycle.get("idle_closed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        lifecycle.get("connections_open").and_then(Json::as_u64),
        Some(1),
        "only the stats connection should remain"
    );
}

/// S2: both overflow paths (connection cap at accept, session-table cap)
/// are typed turn-aways carrying `Retry-After`.
#[test]
fn overflow_turnaways_carry_retry_after() {
    let server = boot_cfg(ServiceConfig {
        max_connections: 1,
        max_sessions: 1,
        retry_after_secs: 2,
        ..ServiceConfig::default()
    });
    let addr = server.addr().to_string();

    // Hold the single connection slot, then connect again: the accept
    // gate turns the second connection away with 503 + Retry-After. The
    // turn-away is written unprompted (the gate never reads a request),
    // so read it from a raw socket without sending anything — writing a
    // request would race the server's close and surface as RST.
    let holder = Client::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the handler register
    let mut second = std::net::TcpStream::connect(&addr).unwrap();
    let mut raw = String::new();
    second.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503 "), "got: {raw:?}");
    assert!(raw.contains("Retry-After: 2\r\n"), "got: {raw:?}");
    assert!(raw.contains(r#""code":"overloaded""#), "got: {raw:?}");
    drop(second);
    drop(holder);
    std::thread::sleep(Duration::from_millis(50)); // slot frees

    // Session-table overflow: 429 + Retry-After, and the first session
    // still works afterwards.
    let mut client = Client::connect(&addr).unwrap();
    let body = format!(r#"{{"n": 40, "seed": {SEED}, "radius": 0.5}}"#);
    let first = client.post("/session", body.as_bytes()).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let id = Json::parse(&first.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let overflow = client.post("/session", body.as_bytes()).unwrap();
    assert_eq!(overflow.status, 429);
    assert_eq!(overflow.retry_after, Some(2));
    assert_eq!(
        Json::parse(&overflow.text())
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("session_table_full")
    );
    let adv = client
        .post(&format!("/session/{id}/advance"), br#"{"events": []}"#)
        .unwrap();
    assert_eq!(adv.status, 200, "{}", adv.text());
    assert_stats_conserved_on(&mut client);
}

/// S3: malformed input on the hardened paths maps to typed 4xx (or a
/// dropped connection) with conserved counters — never a 500 or a hang.
#[test]
fn malformed_inputs_on_hardened_paths_are_typed() {
    let server = boot_cfg(ServiceConfig {
        request_timeout: Duration::from_millis(500),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let read_response = |stream: &mut std::net::TcpStream| -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    };

    // Truncated chunked request body: rejected as malformed HTTP (the
    // service only streams responses), connection dropped.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel")
        .unwrap();
    let resp = read_response(&mut raw);
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
    assert!(resp.contains("malformed_http"), "{resp:?}");

    // Oversized header block: typed 431.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "y".repeat(16 * 1024)
    );
    raw.write_all(huge.as_bytes()).unwrap();
    let resp = read_response(&mut raw);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp:?}");

    // A started-then-stalled request hits the per-request deadline: 408,
    // connection dropped, thread reclaimed.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /run HTTP/1.1\r\nContent-Le").unwrap();
    let resp = read_response(&mut raw);
    assert!(resp.starts_with("HTTP/1.1 408"), "{resp:?}");

    // Client disconnect mid-chunked-response: the server's write fails,
    // the handler exits, and the server stays fully live.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(
        format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            r#"{"protocol": "ghs_modified", "n": 2000, "seed": 7, "radius": 0.08, "stream": "full"}"#.len()
        )
        .as_bytes(),
    )
    .unwrap();
    raw.write_all(
        br#"{"protocol": "ghs_modified", "n": 2000, "seed": 7, "radius": 0.08, "stream": "full"}"#,
    )
    .unwrap();
    let mut first = [0u8; 256];
    let _ = raw.read(&mut first); // a few bytes of the stream...
    drop(raw); // ...then vanish mid-body

    std::thread::sleep(Duration::from_millis(100));
    let addr = addr.to_string();
    let mut client = Client::connect(&addr).unwrap();
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let requests = stats.get("requests").unwrap();
    let get = |f: &str| requests.get(f).and_then(Json::as_u64).unwrap();
    assert_eq!(get("server_5xx"), 0, "hardened paths must never 500");
    assert_eq!(
        get("total"),
        get("ok_2xx") + get("client_4xx") + get("server_5xx")
    );
}

/// An expired lease is reclaimed by the reaper with the conservation pin
/// intact, and later requests against the id are typed 404s.
#[test]
fn session_lease_expiry_reclaims_conserved() {
    let server = boot_cfg(ServiceConfig {
        session_ttl: Duration::from_millis(150),
        ..ServiceConfig::default()
    });
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let created = client
        .post(
            "/session",
            format!(r#"{{"n": 40, "seed": {SEED}, "radius": 0.5}}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(created.status, 200, "{}", created.text());
    let id = Json::parse(&created.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let adv = client
        .post(
            &format!("/session/{id}/advance"),
            br#"{"events": [{"op": "crash", "node": 3}]}"#,
        )
        .unwrap();
    assert_eq!(adv.status, 200);

    // Idle past the lease: the reaper reclaims the session.
    std::thread::sleep(Duration::from_millis(600));
    let gone = client
        .post(&format!("/session/{id}/advance"), br#"{"events": []}"#)
        .unwrap();
    assert_eq!(gone.status, 404);

    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let sessions = stats.get("sessions").unwrap();
    assert_eq!(sessions.get("expired").and_then(Json::as_u64), Some(1));
    assert_eq!(sessions.get("open").and_then(Json::as_u64), Some(0));
    assert_eq!(
        sessions.get("reclaim_violations").and_then(Json::as_u64),
        Some(0),
        "reclaim must observe the last-advance ledger bitwise"
    );
}

/// Session advances validate event node ids against the live universe
/// before touching core state: out-of-range ids are typed 400s and the
/// session remains advanceable.
#[test]
fn session_advance_rejects_out_of_universe_ids() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let created = client
        .post(
            "/session",
            format!(r#"{{"n": 40, "seed": {SEED}, "radius": 0.5}}"#).as_bytes(),
        )
        .unwrap();
    let id = Json::parse(&created.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    let bad = client
        .post(
            &format!("/session/{id}/advance"),
            br#"{"events": [{"op": "wake", "node": 40}]}"#,
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(
        Json::parse(&bad.text())
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("bad_field")
    );
    // A join in the same batch grows the universe, so id 40 becomes
    // addressable — order matters and is honored.
    let ok = client
        .post(
            &format!("/session/{id}/advance"),
            br#"{"events": [{"op": "join", "x": 0.2, "y": 0.8}, {"op": "sleep", "node": 40}]}"#,
        )
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert_stats_conserved(&addr);
}

/// One-shot `/run` churn timelines check node ids as session advances do,
/// against a universe that starts at `n` and grows with each join in
/// epoch order: an unknown id is a typed 400 for every op, never a panic
/// or a silently ignored event, and the connection goes on serving.
#[test]
fn churn_timelines_reject_out_of_universe_ids() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let run = |client: &mut Client, events: &str| {
        let body = format!(
            r#"{{"protocol": "ghs_modified", "n": 60, "radius": 0.4,
                "churn": {{"epochs": 2, "events": [{events}]}}}}"#
        );
        client.post("/run", body.as_bytes()).unwrap()
    };
    for event in [
        r#"{"epoch": 1, "op": "wake", "node": 6000}"#,
        r#"{"epoch": 1, "op": "move", "node": 6000, "x": 0.5, "y": 0.5}"#,
        r#"{"epoch": 1, "op": "crash", "node": 6000}"#,
        r#"{"epoch": 1, "op": "sleep", "node": 6000}"#,
        // Id 60 only exists once a join has applied.
        r#"{"epoch": 0, "op": "sleep", "node": 60}, {"epoch": 1, "op": "join", "x": 0.2, "y": 0.8}"#,
    ] {
        let bad = run(&mut client, event);
        assert_eq!(bad.status, 400, "{event}: {}", bad.text());
        assert_eq!(
            Json::parse(&bad.text())
                .unwrap()
                .get("code")
                .and_then(Json::as_str),
            Some("bad_field"),
            "{event}"
        );
        assert_eq!(client.get("/healthz").unwrap().status, 200, "{event}");
    }
    let ok = run(
        &mut client,
        r#"{"epoch": 0, "op": "join", "x": 0.2, "y": 0.8}, {"epoch": 1, "op": "sleep", "node": 60}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.text());
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    let requests = stats.get("requests").unwrap();
    assert_eq!(requests.get("server_5xx").and_then(Json::as_u64), Some(0));
    assert_stats_conserved_on(&mut client);
}

/// A trace long-poll parked on a quiet session wakes as soon as another
/// connection advances it.
#[test]
fn trace_long_poll_wakes_on_concurrent_advance() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let created = client
        .post(
            "/session",
            format!(r#"{{"n": 40, "seed": {SEED}, "radius": 0.5}}"#).as_bytes(),
        )
        .unwrap();
    let id = Json::parse(&created.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    let addr2 = addr.clone();
    let advancer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let mut other = Client::connect(&addr2).unwrap();
        let resp = other
            .post(&format!("/session/{id}/advance"), br#"{"events": []}"#)
            .unwrap();
        assert_eq!(resp.status, 200);
    });

    // A poll that returns inside its window was woken by the advance; one
    // that slept the window out returns no earlier than `wait`.
    let wait = Duration::from_millis(10_000);
    let start = std::time::Instant::now();
    let trace = client
        .get(&format!(
            "/session/{id}/trace?from=0&wait_ms={}",
            wait.as_millis()
        ))
        .unwrap();
    let elapsed = start.elapsed();
    advancer.join().unwrap();
    assert_eq!(trace.status, 200);
    let text = trace.text();
    assert!(text.contains(r#""t":"epoch""#), "{text:?}");
    assert!(text.contains(r#""next":1"#), "{text:?}");
    assert!(
        elapsed < wait,
        "long-poll should wake on advance, not sleep out its {wait:?} window (took {elapsed:?})"
    );
}

/// `/healthz` reports degraded while the session table is saturated and
/// recovers when a slot frees.
#[test]
fn healthz_degrades_on_session_saturation() {
    let server = boot_cfg(ServiceConfig {
        max_sessions: 1,
        ..ServiceConfig::default()
    });
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let degraded = |client: &mut Client| -> bool {
        Json::parse(&client.get("/healthz").unwrap().text())
            .unwrap()
            .get("degraded")
            .and_then(Json::as_bool)
            .unwrap()
    };
    assert!(!degraded(&mut client));
    let created = client
        .post(
            "/session",
            format!(r#"{{"n": 40, "seed": {SEED}, "radius": 0.5}}"#).as_bytes(),
        )
        .unwrap();
    let id = Json::parse(&created.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(degraded(&mut client), "saturated table must degrade health");
    assert_eq!(
        client.delete(&format!("/session/{id}")).unwrap().status,
        200
    );
    assert!(!degraded(&mut client), "freeing the slot must recover");
}

/// Graceful drain: idle keep-alive connections are nudged to a clean
/// close and reported as drained, not aborted.
#[test]
fn shutdown_drains_idle_connections_cleanly() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let a = Client::connect(&addr).unwrap();
    let b = Client::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // handlers register

    let report = server.shutdown(Drain {
        deadline: Duration::from_secs(5),
    });
    assert_eq!(report.aborted, 0, "idle connections must drain, not abort");
    assert_eq!(report.drained, 2);
    assert!(report.wall < Duration::from_secs(5));
    drop(a);
    drop(b);
}
