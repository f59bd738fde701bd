//! # emst-service — simulation-as-a-service
//!
//! An HTTP/JSON front door over the [`emst_core::Sim`] builder: clients
//! POST an experiment point (protocol, `(seed, n, radius)`, fault plan,
//! membership, churn timeline, energy model) to `/run` and get back the
//! same bit-exact result a direct library call produces — energies are
//! reported with their `f64` bit patterns so equality is checkable, not
//! approximate.
//!
//! The pieces:
//!
//! * [`server`] — routing, validation, execution; hot parameter points
//!   are served from a bounded LRU [`emst_core::InstanceCache`], with
//!   hit/miss/eviction counters on `GET /stats`;
//! * [`request`] — typed request decoding: every malformed shape,
//!   out-of-cap value or config conflict becomes a [`request::RequestError`]
//!   with a stable code and a 400-class status, never a panic;
//! * [`session`] — the standing-session table: `POST /session` parks a
//!   live [`emst_core::MaintainSession`] under a keyed id with an idle
//!   lease, `POST /session/{id}/advance` steps churn epochs
//!   incrementally (bitwise identical to the one-shot replay — both run
//!   the same core type), `GET /session/{id}/trace` long-polls the
//!   NDJSON trace tail, `DELETE` (and lease expiry) reclaims with a
//!   bitwise ledger-conservation pin;
//! * [`http`] / [`client`] — hand-rolled HTTP/1.1 (the workspace vendors
//!   no async runtime): keep-alive fixed-length responses plus chunked
//!   `Transfer-Encoding` for NDJSON trace streaming via
//!   [`emst_radio::JsonlSink`] over [`http::ChunkedWriter`];
//! * [`json`] — re-export of [`emst_analysis::json`], the workspace's
//!   one JSON parser, behind request decoding.
//!
//! Lifecycle robustness: every accepted socket carries read/write
//! deadlines, idle keep-alive waits are bounded, the connection cap is
//! enforced at accept with `503` + `Retry-After` (session-table overflow
//! is `429` + `Retry-After`), and [`server::ServerHandle::shutdown`]
//! performs a real drain with a [`server::DrainReport`].
//!
//! Binaries: `emst_service` (the server), `load_gen` (closed-loop
//! benchmark clients writing `BENCH_service.json`, schema
//! `bench_service/v2`, honoring `Retry-After` with seeded backoff) and
//! `service_chaos` (the misbehaving-client harness behind the R7
//! experiment and the CI `service-chaos` job).

pub mod client;
pub mod http;
pub mod request;
pub mod server;
pub mod session;

pub use client::{Client, Response};
pub use emst_analysis::json;
pub use request::{AdvanceRequest, RequestError, SessionRequest, StreamMode, TrialRequest};
pub use server::{serve, Drain, DrainReport, ServerHandle, ServiceConfig};
pub use session::{SessionError, SessionTable, SessionTableStats, TraceTail};
