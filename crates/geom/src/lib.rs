//! # emst-geom — geometry substrate
//!
//! Geometric foundations for the reproduction of *Energy-Optimal Distributed
//! Algorithms for Minimum Spanning Trees* (Choi, Khan, Kumar, Pandurangan;
//! SPAA'08 / IEEE JSAC'09):
//!
//! * [`Point`] — 2-D points with Euclidean / Chebyshev / power-law distances;
//! * [`PathLoss`] — the radiated-energy model `w(u,v) = a·d(u,v)^α` of §II;
//! * [`sampler`] — seeded uniform and Poisson instance generation;
//! * [`BucketGrid`] — a bucket-grid spatial index supporting disk queries,
//!   RGG edge enumeration, predicate-filtered nearest-neighbour search
//!   (Co-NNT's "nearest node of higher rank") and k-NN distances
//!   (the Lemma 4.1 lower-bound experiment);
//! * [`radii`] — the paper's canonical transmission radii.
//!
//! All heavier machinery (graphs, the radio simulator, the distributed
//! protocols) builds on this crate.

pub mod grid;
pub mod io;
pub mod metric;
pub mod point;
pub mod radii;
pub mod sampler;

pub use grid::BucketGrid;
pub use io::{load_points, read_points, save_points, write_points, IoError};
pub use metric::{Chebyshev, Euclidean, Metric, PathLoss};
pub use point::{diag_rank_less, x_rank_less, Point};
pub use radii::{
    connectivity_radius, nnt_probe_phases, nnt_probe_radius, paper_phase1_radius,
    paper_phase2_radius, percolation_radius, PAPER_PHASE1_MULTIPLIER, PAPER_PHASE2_MULTIPLIER,
};
pub use sampler::{mix_seed, poisson_count, poisson_points, trial_rng, uniform_points, BASE_SEED};
