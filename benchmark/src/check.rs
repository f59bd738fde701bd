//! Reference results the benchmark checks the program's outputs against.
//! Every check runs outside the timed regions.

use crate::report::fnv1a;
use emst_geom::{BucketGrid, Point};
use emst_graph::{euclidean_mst, kruskal_forest, Edge, Graph, SpanningTree};
use emst_radio::Membership;

/// Hash of a tree's edge set (sorted endpoint pairs), so a window can keep
/// one word per output instead of the tree.
pub fn tree_hash(tree: &SpanningTree) -> u64 {
    let mut bytes = Vec::with_capacity(tree.edges().len() * 8 + 8);
    bytes.extend_from_slice(&(tree.n() as u64).to_le_bytes());
    for (u, v) in tree.edge_pairs_sorted() {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Hash of the exact Euclidean MST of `points` — what every exact
/// protocol must output on a connected instance.
pub fn mst_hash(points: &[Point]) -> u64 {
    tree_hash(&euclidean_mst(points))
}

/// Minimum spanning forest of the live unit-disk subgraph at `radius`, by
/// Kruskal over a grid edge scan: the same ground truth the churn
/// property tests use, without their quadratic pair loop.
pub fn live_msf(points: &[Point], radius: f64, members: &Membership) -> SpanningTree {
    let grid = BucketGrid::for_radius(points, radius);
    let mut edges = Vec::new();
    grid.for_each_edge_within(radius, |u, v, d| {
        if members.is_live(u) && members.is_live(v) {
            edges.push(Edge::new(u, v, d));
        }
    });
    let n = points.len();
    SpanningTree::new(n, kruskal_forest(&Graph::from_edges(n, edges)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::{GhsVariant, Protocol, Sim};
    use emst_geom::{paper_phase2_radius, trial_rng, uniform_points};

    #[test]
    fn exact_protocols_match_the_reference_hash() {
        let pts = uniform_points(300, &mut trial_rng(5, 0));
        let out = Sim::new(&pts)
            .radius(paper_phase2_radius(300))
            .run(Protocol::Ghs(GhsVariant::Modified));
        assert_eq!(tree_hash(&out.tree), mst_hash(&pts));
        let mut other = out.tree.edges().to_vec();
        other.pop();
        assert_ne!(tree_hash(&SpanningTree::new(300, other)), mst_hash(&pts));
    }

    #[test]
    fn live_msf_ignores_dead_nodes() {
        let pts = uniform_points(120, &mut trial_rng(6, 0));
        let r = paper_phase2_radius(120);
        let mut members = Membership::all_live(120);
        assert!(live_msf(&pts, r, &members).same_edges(&euclidean_mst(&pts)));
        members.leave(7);
        let msf = live_msf(&pts, r, &members);
        assert!(msf.edges().iter().all(|e| e.u != 7 && e.v != 7));
        let restricted = Sim::new(&pts)
            .radius(r)
            .members(members)
            .run(Protocol::Ghs(GhsVariant::Modified));
        assert!(restricted.tree.same_edges(&msf));
    }
}
