//! Typed decoding and validation of trial requests.
//!
//! Everything a client can get wrong becomes a [`RequestError`] with a
//! stable machine-readable code, never a panic: unknown fields are
//! rejected (a typo'd knob must not silently run a different
//! experiment), caps bound resource use, and configuration conflicts
//! that `Sim` reports as [`ConfigError`] pass through under the
//! `config` code.

use crate::json::{Json, JsonError};
use emst_core::{ChurnTimeline, ConfigError, MaintainStrategy, Protocol};
use emst_geom::{PathLoss, BASE_SEED};
use emst_radio::{EnergyConfig, FaultPlan};

/// Largest accepted instance; matches the scale tier the simulator is
/// qualified at.
pub const MAX_N: usize = 100_000;
/// Largest accepted batch fan-out.
pub const MAX_TRIALS: u64 = 64;
/// Largest accepted shard count.
pub const MAX_SHARDS: usize = 64;
/// Largest accepted retry budget for a fault plan.
pub const MAX_RETRIES: u64 = 16;
/// Largest accepted churn timeline (epochs and events).
pub const MAX_CHURN_EPOCHS: u64 = 256;
/// Largest accepted event batch in one standing-session advance.
pub const MAX_ADVANCE_EVENTS: usize = 1024;

/// How much trace to stream ahead of the result line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// No trace; one JSON result document.
    Off,
    /// NDJSON stream of everything except per-message events.
    Summary,
    /// NDJSON stream of every trace event.
    Full,
}

/// A validated trial request, ready for the run loop.
#[derive(Debug)]
pub struct TrialRequest {
    /// The decoded protocol; its registry name is echoed in responses.
    pub protocol: Protocol,
    /// Instance size.
    pub n: usize,
    /// Generation seed.
    pub seed: u64,
    /// First trial index; batch requests run `trial .. trial + trials`.
    pub trial: u64,
    /// Batch width (1 = single run).
    pub trials: u64,
    /// Execution shards handed to [`Sim::shards`](emst_core::Sim::shards).
    pub shards: usize,
    /// Communication radius, where the protocol needs one.
    pub radius: Option<f64>,
    /// Trace streaming mode.
    pub stream: StreamMode,
    /// Energy model.
    pub energy: EnergyConfig,
    /// Fault plan, if any (never a no-op plan — those decode to `None`,
    /// mirroring the `Sim::with_faults` elision contract).
    pub faults: Option<FaultPlan>,
    /// Node ids excluded from the run via membership (sorted, deduped).
    pub dead: Vec<usize>,
    /// Whether to enable the recovery runtime.
    pub repair: bool,
    /// Whether to track awake rounds (sleep/wake scheduling layer). The
    /// `ghs_lowawake` protocol implies tracking regardless of this flag.
    pub awake: bool,
    /// Churn maintenance request, if any.
    pub churn: Option<ChurnRequest>,
}

/// A decoded churn timeline plus the maintenance strategy to apply.
#[derive(Debug)]
pub struct ChurnRequest {
    /// The explicit event timeline.
    pub timeline: ChurnTimeline,
    /// Repair strategy per epoch.
    pub strategy: MaintainStrategy,
}

/// A validated `POST /session` body: the parameters of a standing
/// churn-maintenance session. The protocol is implicitly `ghs_modified`
/// (the only one churn maintenance runs over), so the body carries just
/// the instance point and the strategy.
#[derive(Debug)]
pub struct SessionRequest {
    /// Instance size.
    pub n: usize,
    /// Generation seed.
    pub seed: u64,
    /// Trial index (instance-cache key component).
    pub trial: u64,
    /// Maintenance radius.
    pub radius: f64,
    /// Repair strategy applied by every advance.
    pub strategy: MaintainStrategy,
}

impl SessionRequest {
    /// Parses and validates a session-creation body.
    pub fn parse(body: &str) -> Result<SessionRequest, RequestError> {
        let doc = Json::parse(body).map_err(RequestError::BadJson)?;
        let Some(keys) = doc.keys() else {
            return Err(RequestError::NotAnObject);
        };
        const TOP: &[&str] = &["n", "seed", "trial", "radius", "strategy"];
        for k in keys {
            if !TOP.contains(&k) {
                return Err(RequestError::UnknownField(k.to_string()));
            }
        }
        let n = bounded_usize(&doc, "n", 1, MAX_N)?.ok_or(RequestError::MissingField("n"))?;
        let seed = opt_u64(&doc, "seed")?.unwrap_or(BASE_SEED);
        let trial = opt_u64(&doc, "trial")?.unwrap_or(0);
        let radius = match doc.get("radius") {
            None => return Err(RequestError::MissingField("radius")),
            Some(v) => {
                let r = v
                    .as_f64()
                    .ok_or_else(|| bad("radius", "must be a number"))?;
                if !(r > 0.0 && r <= 2.0) {
                    return Err(bad("radius", "must be in (0, 2]"));
                }
                r
            }
        };
        let strategy = decode_strategy(doc.get("strategy"))?;
        Ok(SessionRequest {
            n,
            seed,
            trial,
            radius,
            strategy,
        })
    }
}

/// A validated `POST /session/{id}/advance` body: one epoch's worth of
/// churn events, carried as a single-epoch [`ChurnTimeline`].
#[derive(Debug)]
pub struct AdvanceRequest {
    /// One-epoch timeline holding this advance's events in order.
    pub timeline: ChurnTimeline,
}

impl AdvanceRequest {
    /// Parses and validates an advance body (`{"events": [...]}`; an
    /// absent or empty list is a valid quiet epoch).
    pub fn parse(body: &str) -> Result<AdvanceRequest, RequestError> {
        let doc = Json::parse(body).map_err(RequestError::BadJson)?;
        let Some(keys) = doc.keys() else {
            return Err(RequestError::NotAnObject);
        };
        for k in keys {
            if k != "events" {
                return Err(RequestError::UnknownField(k.to_string()));
            }
        }
        let mut timeline = ChurnTimeline::new(1);
        if let Some(events) = doc.get("events") {
            let arr = events
                .as_arr()
                .ok_or_else(|| bad("events", "must be an array of event objects"))?;
            if arr.len() > MAX_ADVANCE_EVENTS {
                return Err(bad(
                    "events",
                    format!("must hold at most {MAX_ADVANCE_EVENTS} events"),
                ));
            }
            for ev in arr {
                check_fields(ev, "events[..]", &["op", "node", "x", "y"])?;
                timeline = apply_event(timeline, 0, ev, "events")?;
            }
        }
        Ok(AdvanceRequest { timeline })
    }
}

/// Everything that can be wrong with a request, each with a stable code
/// for clients and tests to match on.
#[derive(Debug)]
pub enum RequestError {
    /// Body is not valid JSON.
    BadJson(JsonError),
    /// Body is valid JSON but not an object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field exists but has the wrong type or an out-of-range value.
    BadField {
        /// Dotted path of the offending field.
        field: &'static str,
        /// What was expected.
        why: String,
    },
    /// `protocol` names no known algorithm.
    UnknownProtocol(String),
    /// A field the schema does not define (likely a typo).
    UnknownField(String),
    /// Two valid fields that cannot be combined.
    Conflict(&'static str),
    /// A `Sim` configuration conflict (same taxonomy as the library).
    Config(ConfigError),
}

impl RequestError {
    /// Machine-readable error code for the JSON error document.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadJson(_) => "bad_json",
            RequestError::NotAnObject => "bad_json",
            RequestError::MissingField(_) => "missing_field",
            RequestError::BadField { .. } => "bad_field",
            RequestError::UnknownProtocol(_) => "unknown_protocol",
            RequestError::UnknownField(_) => "unknown_field",
            RequestError::Conflict(_) => "conflict",
            RequestError::Config(_) => "config",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadJson(e) => write!(f, "invalid json: {e}"),
            RequestError::NotAnObject => write!(f, "request body must be a json object"),
            RequestError::MissingField(name) => write!(f, "missing required field {name:?}"),
            RequestError::BadField { field, why } => write!(f, "field {field:?}: {why}"),
            RequestError::UnknownProtocol(p) => write!(
                f,
                "unknown protocol {p:?} (expected one of {})",
                Protocol::NAMES.join(", ")
            ),
            RequestError::UnknownField(name) => write!(f, "unknown field {name:?}"),
            RequestError::Conflict(what) => write!(f, "conflicting fields: {what}"),
            RequestError::Config(e) => write!(f, "configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> Self {
        RequestError::Config(e)
    }
}

impl TrialRequest {
    /// Parses and validates a request body.
    pub fn parse(body: &str) -> Result<TrialRequest, RequestError> {
        let doc = Json::parse(body).map_err(RequestError::BadJson)?;
        let Some(keys) = doc.keys() else {
            return Err(RequestError::NotAnObject);
        };
        const TOP: &[&str] = &[
            "protocol", "n", "seed", "trial", "trials", "shards", "root", "radius", "stream",
            "energy", "faults", "dead", "repair", "churn", "awake",
        ];
        for k in keys {
            if !TOP.contains(&k) {
                return Err(RequestError::UnknownField(k.to_string()));
            }
        }

        let protocol_name = req_str(&doc, "protocol")?;
        let n = bounded_usize(&doc, "n", 1, MAX_N)?.ok_or(RequestError::MissingField("n"))?;
        let root = bounded_usize(&doc, "root", 0, n.saturating_sub(1))?.unwrap_or(0);
        let protocol = Protocol::from_name(protocol_name, root)
            .ok_or_else(|| RequestError::UnknownProtocol(protocol_name.to_string()))?;

        let seed = opt_u64(&doc, "seed")?.unwrap_or(BASE_SEED);
        let trial = opt_u64(&doc, "trial")?.unwrap_or(0);
        let trials = match opt_u64(&doc, "trials")?.unwrap_or(1) {
            0 => return Err(bad("trials", "must be at least 1")),
            t if t > MAX_TRIALS => {
                return Err(bad("trials", format!("must be at most {MAX_TRIALS}")))
            }
            t => t,
        };
        let shards = bounded_usize(&doc, "shards", 1, MAX_SHARDS)?.unwrap_or(1);
        let radius = match doc.get("radius") {
            None => None,
            Some(v) => {
                let r = v
                    .as_f64()
                    .ok_or_else(|| bad("radius", "must be a number"))?;
                if !(r > 0.0 && r <= 2.0) {
                    return Err(bad("radius", "must be in (0, 2]"));
                }
                Some(r)
            }
        };
        let stream = match doc.get("stream").map(|v| v.as_str()) {
            None => StreamMode::Off,
            Some(Some("off")) => StreamMode::Off,
            Some(Some("summary")) => StreamMode::Summary,
            Some(Some("full")) => StreamMode::Full,
            Some(_) => return Err(bad("stream", "must be \"off\", \"summary\" or \"full\"")),
        };
        let repair = match doc.get("repair") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("repair", "must be a boolean"))?,
        };
        let awake = match doc.get("awake") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("awake", "must be a boolean"))?,
        };
        let energy = decode_energy(doc.get("energy"))?;
        let faults = decode_faults(doc.get("faults"), n)?;
        let dead = decode_dead(doc.get("dead"), n)?;
        let churn = decode_churn(doc.get("churn"))?;

        // Cross-field rules. Pure `Sim` conflicts (contention pairings,
        // missing radius) are left to `try_run_checked` so the service
        // shares the library's taxonomy; these are the service-level
        // combinations `Sim` cannot see.
        if !dead.is_empty() && !matches!(protocol, Protocol::Ghs(_)) {
            return Err(RequestError::Conflict(
                "dead (membership) applies to GHS protocols only",
            ));
        }
        if churn.is_some() {
            if protocol.name() != "ghs_modified" {
                return Err(RequestError::Conflict(
                    "churn maintenance runs over ghs_modified only",
                ));
            }
            if trials != 1 {
                return Err(RequestError::Conflict("churn excludes batch trials"));
            }
            if faults.is_some() {
                return Err(RequestError::Conflict(
                    "churn and a fault plan are mutually exclusive",
                ));
            }
            if !dead.is_empty() {
                return Err(RequestError::Conflict(
                    "churn manages membership itself; dead is not allowed",
                ));
            }
            if radius.is_none() {
                return Err(RequestError::MissingField("radius"));
            }
            if awake {
                return Err(RequestError::Conflict(
                    "churn maintenance does not track awake rounds",
                ));
            }
        }
        if trials > 1 && stream != StreamMode::Off {
            return Err(RequestError::Conflict(
                "streaming applies to single-trial requests only",
            ));
        }

        Ok(TrialRequest {
            protocol,
            n,
            seed,
            trial,
            trials,
            shards,
            radius,
            stream,
            energy,
            faults,
            dead,
            repair,
            churn,
            awake,
        })
    }
}

fn bad(field: &'static str, why: impl Into<String>) -> RequestError {
    RequestError::BadField {
        field,
        why: why.into(),
    }
}

fn req_str<'a>(doc: &'a Json, field: &'static str) -> Result<&'a str, RequestError> {
    doc.get(field)
        .ok_or(RequestError::MissingField(field))?
        .as_str()
        .ok_or_else(|| bad(field, "must be a string"))
}

fn opt_u64(doc: &Json, field: &'static str) -> Result<Option<u64>, RequestError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(field, "must be a non-negative integer")),
    }
}

fn bounded_usize(
    doc: &Json,
    field: &'static str,
    lo: usize,
    hi: usize,
) -> Result<Option<usize>, RequestError> {
    match opt_u64(doc, field)? {
        None => Ok(None),
        Some(x) => {
            let x = usize::try_from(x).map_err(|_| bad(field, "out of range"))?;
            if x < lo || x > hi {
                return Err(bad(field, format!("must be in [{lo}, {hi}]")));
            }
            Ok(Some(x))
        }
    }
}

fn decode_energy(v: Option<&Json>) -> Result<EnergyConfig, RequestError> {
    let Some(v) = v else {
        return Ok(EnergyConfig::paper());
    };
    check_fields(v, "energy", &["model", "a", "alpha", "rx", "idle"])?;
    match v.get("model").and_then(Json::as_str) {
        Some("paper") => Ok(EnergyConfig::paper()),
        Some("extended") => {
            let num = |field: &'static str, default: f64| -> Result<f64, RequestError> {
                match v.get(field) {
                    None => Ok(default),
                    Some(x) => {
                        let x = x.as_f64().ok_or_else(|| bad(field, "must be a number"))?;
                        if !(x.is_finite() && x >= 0.0) {
                            return Err(bad(field, "must be finite and non-negative"));
                        }
                        Ok(x)
                    }
                }
            };
            let paper = PathLoss::paper();
            let a = num("a", paper.a)?;
            let alpha = num("alpha", paper.alpha)?;
            if alpha < 1.0 {
                return Err(bad("alpha", "path-loss exponent must be at least 1"));
            }
            Ok(EnergyConfig::extended(
                PathLoss { a, alpha },
                num("rx", 0.0)?,
                num("idle", 0.0)?,
            ))
        }
        Some(_) => Err(bad("energy.model", "must be \"paper\" or \"extended\"")),
        None => Err(RequestError::MissingField("energy.model")),
    }
}

/// Decodes the fault plan; every crash and sleep entry must name a node
/// below `n`, and a sleep window must be non-empty.
fn decode_faults(v: Option<&Json>, n: usize) -> Result<Option<FaultPlan>, RequestError> {
    let Some(v) = v else { return Ok(None) };
    check_fields(
        v,
        "faults",
        &["drop", "seed", "retries", "crashes", "sleeps"],
    )?;
    let mut plan = FaultPlan::none();
    if let Some(p) = v.get("drop") {
        let p = p
            .as_f64()
            .ok_or_else(|| bad("faults.drop", "must be a number"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(bad("faults.drop", "must be in [0, 1]"));
        }
        plan = plan.drop_probability(p);
    }
    if let Some(s) = v.get("seed") {
        plan = plan.seed(
            s.as_u64()
                .ok_or_else(|| bad("faults.seed", "must be a non-negative integer"))?,
        );
    }
    if let Some(r) = v.get("retries") {
        let r = r
            .as_u64()
            .filter(|r| *r <= MAX_RETRIES)
            .ok_or_else(|| bad("faults.retries", format!("must be in [0, {MAX_RETRIES}]")))?;
        plan = plan.retries(r as u32);
    }
    if let Some(crashes) = v.get("crashes") {
        let arr = crashes
            .as_arr()
            .ok_or_else(|| bad("faults.crashes", "must be an array of [node, round]"))?;
        for entry in arr {
            let Some(pair) = entry.as_arr().filter(|p| p.len() == 2) else {
                return Err(bad("faults.crashes", "each entry must be [node, round]"));
            };
            let node = pair[0].as_u64().filter(|&u| u < n as u64).ok_or_else(|| {
                bad(
                    "faults.crashes",
                    format!("node must be an integer below n={n}"),
                )
            })?;
            let round = pair[1]
                .as_u64()
                .ok_or_else(|| bad("faults.crashes", "round must be an integer"))?;
            plan = plan.crash_at(node as usize, round);
        }
    }
    if let Some(sleeps) = v.get("sleeps") {
        let arr = sleeps
            .as_arr()
            .ok_or_else(|| bad("faults.sleeps", "must be an array of [node, from, to]"))?;
        for entry in arr {
            let Some(triple) = entry.as_arr().filter(|p| p.len() == 3) else {
                return Err(bad("faults.sleeps", "each entry must be [node, from, to]"));
            };
            let get = |i: usize, what: &'static str| {
                triple[i]
                    .as_u64()
                    .ok_or_else(|| bad("faults.sleeps", format!("{what} must be an integer")))
            };
            let (node, from, to) = (get(0, "node")?, get(1, "from")?, get(2, "to")?);
            if node >= n as u64 {
                return Err(bad("faults.sleeps", format!("node must be below n={n}")));
            }
            if from >= to {
                return Err(bad("faults.sleeps", "from must be below to"));
            }
            plan = plan.sleep_between(node as usize, from, to);
        }
    }
    // Mirror the Sim elision contract: a plan that injects nothing is the
    // same request as no plan.
    Ok(if plan.is_noop() { None } else { Some(plan) })
}

fn decode_dead(v: Option<&Json>, n: usize) -> Result<Vec<usize>, RequestError> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let arr = v
        .as_arr()
        .ok_or_else(|| bad("dead", "must be an array of node ids"))?;
    let mut dead = Vec::with_capacity(arr.len());
    for entry in arr {
        let u = entry
            .as_u64()
            .ok_or_else(|| bad("dead", "node ids must be non-negative integers"))?
            as usize;
        if u >= n {
            return Err(bad("dead", format!("node id {u} out of range for n={n}")));
        }
        dead.push(u);
    }
    dead.sort_unstable();
    dead.dedup();
    if dead.len() == n {
        return Err(bad("dead", "cannot exclude every node"));
    }
    Ok(dead)
}

fn decode_churn(v: Option<&Json>) -> Result<Option<ChurnRequest>, RequestError> {
    let Some(v) = v else { return Ok(None) };
    check_fields(v, "churn", &["epochs", "strategy", "events"])?;
    let epochs = v
        .get("epochs")
        .ok_or(RequestError::MissingField("churn.epochs"))?
        .as_u64()
        .filter(|e| (1..=MAX_CHURN_EPOCHS).contains(e))
        .ok_or_else(|| {
            bad(
                "churn.epochs",
                format!("must be in [1, {MAX_CHURN_EPOCHS}]"),
            )
        })? as usize;
    let strategy = decode_strategy(v.get("strategy"))?;
    let mut timeline = ChurnTimeline::new(epochs);
    if let Some(events) = v.get("events") {
        let arr = events
            .as_arr()
            .ok_or_else(|| bad("churn.events", "must be an array of event objects"))?;
        if arr.len() as u64 > MAX_CHURN_EPOCHS * 4 {
            return Err(bad("churn.events", "too many events"));
        }
        for ev in arr {
            check_fields(ev, "churn.events[..]", &["epoch", "op", "node", "x", "y"])?;
            let epoch = ev
                .get("epoch")
                .ok_or(RequestError::MissingField("churn.events[..].epoch"))?
                .as_u64()
                .filter(|e| (*e as usize) < epochs)
                .ok_or_else(|| bad("churn.events", "epoch out of range"))?
                as usize;
            timeline = apply_event(timeline, epoch, ev, "churn.events")?;
        }
    }
    Ok(Some(ChurnRequest { timeline, strategy }))
}

/// Decodes one event object's `op`/`node`/`x`/`y` and appends it to
/// `timeline` at `epoch`. Shared by the timeline (`/run` churn) and
/// standing-session (`/session/{id}/advance`) decoders; `what` names the
/// field path in errors.
fn apply_event(
    timeline: ChurnTimeline,
    epoch: usize,
    ev: &Json,
    what: &'static str,
) -> Result<ChurnTimeline, RequestError> {
    let op = ev
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(what, "op must be a string"))?;
    let node = || -> Result<usize, RequestError> {
        // Joins grow the id space beyond the original n, so later
        // events may legitimately address ids ≥ n; the session layer
        // validates those against the live universe.
        ev.get("node")
            .and_then(Json::as_u64)
            .map(|u| u as usize)
            .ok_or_else(|| bad(what, "node must be an integer"))
    };
    let coord = |field: &'static str| -> Result<f64, RequestError> {
        ev.get(field)
            .and_then(Json::as_f64)
            .filter(|c| (0.0..=1.0).contains(c))
            .ok_or_else(|| bad(what, format!("{field} must be in [0, 1]")))
    };
    Ok(match op {
        "join" => timeline.join(epoch, coord("x")?, coord("y")?),
        "crash" => timeline.crash(epoch, node()?),
        "sleep" => timeline.sleep(epoch, node()?),
        "wake" => timeline.wake(epoch, node()?),
        "move" => timeline.move_to(epoch, node()?, coord("x")?, coord("y")?),
        _ => {
            return Err(bad(
                what,
                "op must be one of join, crash, sleep, wake, move",
            ))
        }
    })
}

/// Decodes a `strategy` field; absent is the default (incremental).
fn decode_strategy(v: Option<&Json>) -> Result<MaintainStrategy, RequestError> {
    match v {
        None => Ok(MaintainStrategy::default()),
        Some(s) => s
            .as_str()
            .and_then(MaintainStrategy::from_name)
            .ok_or_else(|| bad("strategy", "must be \"incremental\" or \"recompute\"")),
    }
}

fn check_fields(v: &Json, what: &str, allowed: &[&str]) -> Result<(), RequestError> {
    let Some(keys) = v.keys() else {
        return Err(RequestError::BadField {
            field: "request",
            why: format!("{what} must be a json object"),
        });
    };
    for k in keys {
        if !allowed.contains(&k) {
            return Err(RequestError::UnknownField(format!("{what}.{k}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::GhsVariant;

    #[test]
    fn minimal_request_fills_defaults() {
        let r =
            TrialRequest::parse(r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5}"#).unwrap();
        assert_eq!(r.n, 50);
        assert_eq!(r.seed, BASE_SEED);
        assert_eq!(r.trials, 1);
        assert_eq!(r.shards, 1);
        assert_eq!(r.stream, StreamMode::Off);
        assert!(r.faults.is_none() && r.churn.is_none() && r.dead.is_empty() && !r.repair);
    }

    #[test]
    fn unknown_fields_and_protocols_are_rejected() {
        let e = TrialRequest::parse(r#"{"protocol": "ghs_modified", "n": 50, "radios": 0.5}"#)
            .unwrap_err();
        assert_eq!(e.code(), "unknown_field");
        let e = TrialRequest::parse(r#"{"protocol": "dijkstra", "n": 50}"#).unwrap_err();
        assert_eq!(e.code(), "unknown_protocol");
        assert_eq!(
            e.to_string(),
            "unknown protocol \"dijkstra\" (expected one of ghs_original, ghs_modified, \
             ghs_lowawake, eopt, co_nnt, nnt_xorder, nnt_id, bfs, election_flood, election_tree)"
        );
        let e = TrialRequest::parse("not json").unwrap_err();
        assert_eq!(e.code(), "bad_json");
        let e = TrialRequest::parse("[1, 2]").unwrap_err();
        assert_eq!(e.code(), "bad_json");
    }

    #[test]
    fn caps_are_enforced() {
        for (body, field) in [
            (r#"{"protocol": "eopt", "n": 0}"#, "n"),
            (r#"{"protocol": "eopt", "n": 100001}"#, "n"),
            (r#"{"protocol": "eopt", "n": 100, "trials": 65}"#, "trials"),
            (r#"{"protocol": "eopt", "n": 100, "trials": 0}"#, "trials"),
            (r#"{"protocol": "eopt", "n": 100, "shards": 65}"#, "shards"),
            (
                r#"{"protocol": "ghs_modified", "n": 100, "radius": -0.25}"#,
                "radius",
            ),
            (
                r#"{"protocol": "ghs_modified", "n": 100, "radius": 2.5}"#,
                "radius",
            ),
            (
                r#"{"protocol": "bfs", "n": 100, "radius": 0.3, "root": 100}"#,
                "root",
            ),
        ] {
            let e = TrialRequest::parse(body).unwrap_err();
            match e {
                RequestError::BadField { field: f, .. } => assert_eq!(f, field, "{body}"),
                other => panic!("{body}: expected BadField({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn noop_fault_plan_elides_to_none() {
        let r = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5,
                "faults": {"drop": 0.0, "retries": 3}}"#,
        )
        .unwrap();
        assert!(r.faults.is_none(), "a plan that injects nothing is no plan");
        let r = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5,
                "faults": {"drop": 0.05, "seed": 9, "retries": 3}}"#,
        )
        .unwrap();
        assert!(r.faults.is_some());
    }

    #[test]
    fn service_level_conflicts_are_typed() {
        // Streaming a batch.
        let e = TrialRequest::parse(
            r#"{"protocol": "eopt", "n": 100, "trials": 4, "stream": "summary"}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "conflict");
        // Membership on a non-GHS protocol.
        let e = TrialRequest::parse(r#"{"protocol": "eopt", "n": 100, "dead": [3]}"#).unwrap_err();
        assert_eq!(e.code(), "conflict");
        // Churn on the wrong protocol.
        let e = TrialRequest::parse(r#"{"protocol": "eopt", "n": 100, "churn": {"epochs": 2}}"#)
            .unwrap_err();
        assert_eq!(e.code(), "conflict");
        // Churn plus faults.
        let e = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 100, "radius": 0.5,
                "churn": {"epochs": 2},
                "faults": {"drop": 0.1}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "conflict");
    }

    #[test]
    fn churn_events_decode_into_a_timeline() {
        let r = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 30, "radius": 0.6,
                "churn": {"epochs": 3, "strategy": "recompute", "events": [
                    {"epoch": 0, "op": "crash", "node": 4},
                    {"epoch": 1, "op": "join", "x": 0.5, "y": 0.25},
                    {"epoch": 2, "op": "move", "node": 2, "x": 0.1, "y": 0.9}
                ]}}"#,
        )
        .unwrap();
        let churn = r.churn.unwrap();
        assert_eq!(churn.strategy, MaintainStrategy::Recompute);
        assert_eq!(churn.timeline.len(), 3);
        assert_eq!(churn.timeline.event_count(), 3);
    }

    #[test]
    fn dead_list_is_validated_sorted_and_deduped() {
        let r = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 10, "radius": 0.9, "dead": [7, 2, 7]}"#,
        )
        .unwrap();
        assert_eq!(r.dead, vec![2, 7]);
        let e = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 10, "radius": 0.9, "dead": [10]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "bad_field");
    }

    #[test]
    fn awake_field_and_lowawake_protocol_decode() {
        let r = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5, "awake": true}"#,
        )
        .unwrap();
        assert!(r.awake);
        let r =
            TrialRequest::parse(r#"{"protocol": "ghs_lowawake", "n": 50, "radius": 0.5}"#).unwrap();
        assert!(matches!(r.protocol, Protocol::Ghs(GhsVariant::LowAwake)));
        assert!(!r.awake, "the variant implies tracking; the flag stays raw");
        let e = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5, "awake": 1}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "bad_field");
        // Churn maintenance has no awake accounting.
        let e = TrialRequest::parse(
            r#"{"protocol": "ghs_modified", "n": 50, "radius": 0.5, "awake": true,
                "churn": {"epochs": 2}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "conflict");
    }

    #[test]
    fn extended_energy_model_decodes() {
        let r = TrialRequest::parse(
            r#"{"protocol": "eopt", "n": 100,
                "energy": {"model": "extended", "rx": 0.1, "idle": 0.01}}"#,
        )
        .unwrap();
        assert_eq!(r.energy.rx, 0.1);
        assert_eq!(r.energy.idle_per_round, 0.01);
        let e = TrialRequest::parse(
            r#"{"protocol": "eopt", "n": 100, "energy": {"model": "freebie"}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "bad_field");
    }
}
