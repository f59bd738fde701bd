//! # emst-radio — synchronous radio-network simulator
//!
//! Implements the communication model of §II of the paper:
//!
//! * nodes at fixed positions in the unit square, adaptive transmission
//!   power, energy `w(u,v) = a·d(u,v)^α` per message ([`RadioNet`]);
//! * local broadcast: one transmission at power `ρ` costs `a·ρ^α` and
//!   reaches every node within distance `ρ`;
//! * synchronous rounds, collision-free delivery (the paper's RBN
//!   simplification), `O(log n)`-bit messages;
//! * exact energy/message accounting per message kind ([`EnergyLedger`]);
//! * a discrete-event executor for reactive per-node state machines
//!   ([`SyncEngine`] / [`NodeProtocol`]).

pub mod availability;
pub mod cache;
pub mod contention;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod membership;
pub mod network;
pub mod stats;
pub mod topology;
pub mod trace;

pub use availability::{Availability, AwakeStats};
pub use cache::{CacheStats, Lru, RowCache};
pub use contention::{ContentionConfig, ContentionOverflow};
pub use energy::{EnergyLedger, Tally};
pub use engine::{Ctx, Delivery, EngineError, NodeProtocol, RoundLimitExceeded, SyncEngine};
pub use fault::{backoff_stream_seed, fault_stream_seed, FaultKind, FaultPlan, FaultStats};
pub use membership::Membership;
pub use network::{Clock, EnergyConfig, RadioNet};
pub use stats::{RunStats, StatSnapshot};
pub use topology::Topology;
pub use trace::{
    ClassMask, CsvSink, EventClass, FilterSink, JsonlSink, MergeMark, MetricsSink, NullSink,
    PhaseKey, StageMark, TeeSink, TraceEvent, TraceSink,
};
