//! # emst-graph — graph substrate
//!
//! Graphs, union–find, connected components, spanning-tree validation and
//! the sequential MST baselines (Kruskal, Prim, Borůvka) that serve as
//! correctness oracles for the distributed protocols in `emst-core`.
//!
//! The central objects:
//!
//! * [`Graph`] — CSR adjacency with a canonical undirected edge list; the
//!   random geometric graph `G(n, r)` of §II is built with
//!   [`Graph::geometric`].
//! * [`UnionFind`] — disjoint-set forest used across the workspace.
//! * [`Components`] — BFS component labelling (Theorems 5.1/5.2 experiments).
//! * [`SpanningTree`] — validated tree with the generalised cost
//!   `Σ d^α` of §II.
//! * [`mst`] — sequential baselines and the exact Euclidean MST.

pub mod adjacency;
pub mod components;
pub mod delaunay;
pub mod mst;
pub mod proximity;
pub mod tree;
pub mod union_find;

pub use adjacency::{Edge, Graph};
pub use components::{is_connected, Components};
pub use delaunay::{delaunay_edges, euclidean_mst_delaunay};
pub use mst::{
    boruvka_mst, boruvka_run, disk_msf, euclidean_mst, kruskal_forest, kruskal_mst, prim_mst,
    BoruvkaRun,
};
pub use proximity::{gabriel_graph, rng_graph};
pub use tree::{SpanningTree, TreeError};
pub use union_find::UnionFind;
