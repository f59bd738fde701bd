//! # emst-core — the paper's distributed MST algorithms
//!
//! Reproduction of the algorithmic contributions of *Energy-Optimal
//! Distributed Algorithms for Minimum Spanning Trees* (Choi, Khan, Kumar,
//! Pandurangan; SPAA'08 / IEEE JSAC'09), over the `emst-radio` simulator:
//!
//! * [`ghs`] — synchronous GHS in the **original** (test/accept/reject)
//!   and **modified** (§V-A neighbour-cache) variants, each opening with
//!   the hello broadcast through which nodes learn neighbour distances
//!   (§II denies them a-priori edge weights); the original at the
//!   connectivity radius is the paper's `Θ(log² n)`-energy baseline;
//! * [`eopt`] — the **two-step energy-optimal algorithm** of §V:
//!   percolation-radius GHS, giant detection, connectivity-radius GHS with
//!   a passive giant; `O(log n)` expected energy, exact MST output;
//! * [`nnt`] — **Co-NNT** (§VI): the coordinate-aware nearest-neighbour
//!   tree with `O(1)` expected energy and constant MST approximation,
//!   under both the diagonal rank (this paper) and the x-rank of \[15\].
//!
//! Every run goes through the unified [`Sim`] builder, which hands the
//! protocol's stage sequence to the shared execution environment
//! ([`ExecEnv`]) and returns its tree plus a [`emst_radio::RunStats`]
//! with exact per-message-kind energy attribution and per-stage
//! [`emst_radio::StageMark`] deltas; attach a [`emst_radio::TraceSink`]
//! via [`Sim::sink`] for per-round, per-phase, per-stage and per-node
//! observability.

pub mod bfs_tree;
pub mod election;
pub mod eopt;
pub mod exec;
pub mod ghs;
pub mod instance;
pub mod maintain;
pub mod nnt;
pub mod repair;
pub mod sim;

pub use bfs_tree::BfsNode;
pub use emst_radio::CacheStats;
pub use eopt::EoptConfig;
pub use exec::ExecEnv;
pub use ghs::{GhsEngine, GhsKinds, GhsVariant};
pub use instance::{Instance, InstanceCache, InstanceKey};
pub use maintain::{
    maintain, ChurnEvent, ChurnTimeline, EpochReport, MaintainReport, MaintainSession,
    MaintainStrategy, SessionLedger,
};
pub use nnt::{NntMsg, NntNode, RankScheme};
pub use repair::{RepairPolicy, RepairStats};
pub use sim::{
    BfsDetail, ConfigError, Detail, ElectionDetail, EoptDetail, GhsDetail, NntDetail, Protocol,
    RunError, RunOutcome, RunOutput, Sim,
};
