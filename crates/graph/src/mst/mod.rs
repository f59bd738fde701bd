//! Sequential minimum-spanning-tree baselines.
//!
//! Three classical algorithms over explicit graphs — Kruskal, Prim and
//! Borůvka — plus the exact Euclidean MST of a point set. They serve as
//! correctness oracles for the distributed protocols (EOPT must output the
//! exact MST, Theorem 5.3) and as the quality baseline for the §VII
//! Co-NNT-vs-MST comparison.
//!
//! With generic-position inputs (all edge weights distinct, which holds with
//! probability 1 for random points) the MST is unique, so all algorithms
//! return the same edge set; a property test asserts exactly that.

mod boruvka;
mod kruskal;
mod prim;

pub use boruvka::{boruvka_mst, boruvka_run, BoruvkaRun};
pub use kruskal::{kruskal_forest, kruskal_mst};
pub use prim::prim_mst;

use crate::adjacency::{Edge, Graph};
use crate::components::Components;
use crate::tree::SpanningTree;
use emst_geom::Point;

/// Exact Euclidean MST of a point set.
///
/// ```
/// use emst_geom::Point;
/// let pts = [
///     Point::new(0.1, 0.1),
///     Point::new(0.2, 0.1),
///     Point::new(0.9, 0.9),
/// ];
/// let t = emst_graph::euclidean_mst(&pts);
/// assert!(t.is_valid());
/// assert_eq!(t.edges().len(), 2);
/// // Cost under any exponent α (§II): the same tree minimises them all.
/// assert!(t.cost(2.0) < t.cost(1.0));
/// ```
///
/// Strategy: build the RGG at a radius that is connected whp
/// (`2·√(ln n / n)`), take its MST — by the cut property, if the RGG is
/// connected its MST equals the MST of the complete Euclidean graph — and
/// double the radius until connectivity is reached (at `r ≥ √2` the RGG is
/// complete, so termination is guaranteed). Runs in `O(n log n)` expected
/// time instead of the `O(n²)` of Prim on the complete graph.
pub fn euclidean_mst(points: &[Point]) -> SpanningTree {
    let n = points.len();
    if n <= 1 {
        return SpanningTree::new(n, Vec::new());
    }
    let mut r = (2.0 * (n as f64).ln().max(1.0) / n as f64).sqrt();
    loop {
        let g = Graph::geometric(points, r);
        if Components::of(&g).is_connected() {
            return kruskal_mst(&g).expect("connected graph has an MST");
        }
        r *= 2.0;
        if r > 2.0 {
            // Complete graph fallback; cannot fail for distinct points.
            let g = Graph::geometric(points, 2.0);
            return kruskal_mst(&g).expect("complete graph has an MST");
        }
    }
}

/// Minimum spanning forest of the unit-disk graph at `radius` over the
/// nodes `live` accepts, by Kruskal over all `O(n²)` live pairs — the
/// ground truth a maintained (churned, slept, moved) forest must match
/// edge-for-edge. Dead nodes stay in the id space as isolated vertices.
pub fn disk_msf(points: &[Point], radius: f64, live: impl Fn(usize) -> bool) -> SpanningTree {
    let n = points.len();
    let mut edges = Vec::new();
    for u in (0..n).filter(|&u| live(u)) {
        for v in (u + 1..n).filter(|&v| live(v)) {
            let d = points[u].dist(&points[v]);
            if d <= radius {
                edges.push(Edge::new(u, v, d));
            }
        }
    }
    SpanningTree::new(n, kruskal_forest(&Graph::from_edges(n, edges)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points};

    /// O(n²) Prim over the complete Euclidean graph, as an oracle.
    fn brute_euclidean_mst(points: &[Point]) -> SpanningTree {
        let n = points.len();
        if n <= 1 {
            return SpanningTree::new(n, Vec::new());
        }
        let mut in_tree = vec![false; n];
        let mut best = vec![f64::INFINITY; n];
        let mut best_from = vec![0usize; n];
        in_tree[0] = true;
        for j in 1..n {
            best[j] = points[0].dist(&points[j]);
        }
        let mut edges = Vec::with_capacity(n - 1);
        for _ in 1..n {
            let u = (0..n)
                .filter(|&j| !in_tree[j])
                .min_by(|&a, &b| best[a].total_cmp(&best[b]))
                .unwrap();
            edges.push(Edge::new(best_from[u], u, best[u]));
            in_tree[u] = true;
            for j in 0..n {
                if !in_tree[j] {
                    let d = points[u].dist(&points[j]);
                    if d < best[j] {
                        best[j] = d;
                        best_from[j] = u;
                    }
                }
            }
        }
        SpanningTree::new(n, edges)
    }

    #[test]
    fn euclidean_mst_matches_brute_force() {
        for seed in 0..5 {
            let pts = uniform_points(120, &mut trial_rng(41, seed));
            let fast = euclidean_mst(&pts);
            let brute = brute_euclidean_mst(&pts);
            assert!(fast.is_valid());
            assert!(
                fast.same_edges(&brute),
                "seed {seed}: cost fast {} vs brute {}",
                fast.cost(1.0),
                brute.cost(1.0)
            );
        }
    }

    #[test]
    fn euclidean_mst_tiny_instances() {
        assert!(euclidean_mst(&[]).is_valid());
        assert!(euclidean_mst(&[Point::new(0.5, 0.5)]).is_valid());
        let two = euclidean_mst(&[Point::new(0.1, 0.1), Point::new(0.9, 0.9)]);
        assert!(two.is_valid());
        assert_eq!(two.edges().len(), 1);
    }

    #[test]
    fn euclidean_mst_handles_clustered_points() {
        // Two tight clusters far apart force the radius-doubling fallback.
        let mut rng = trial_rng(42, 0);
        let mut pts =
            emst_geom::sampler::uniform_points_in_rect(30, (0.0, 0.0), (0.01, 0.01), &mut rng);
        pts.extend(emst_geom::sampler::uniform_points_in_rect(
            30,
            (0.99, 0.99),
            (1.0, 1.0),
            &mut rng,
        ));
        let t = euclidean_mst(&pts);
        assert!(t.is_valid());
        // Exactly one long bridge edge between the clusters.
        let long = t.edges().iter().filter(|e| e.w > 0.5).count();
        assert_eq!(long, 1);
        assert!(t.same_edges(&brute_euclidean_mst(&pts)));
    }

    #[test]
    fn mst_cost_known_small_case() {
        // Unit-square corners: MST is any 3 sides; total length 3, and with
        // distinct perturbation the cost is near 3.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let t = euclidean_mst(&pts);
        assert!(t.is_valid());
        assert!((t.cost(1.0) - 3.0).abs() < 1e-9);
    }
}
