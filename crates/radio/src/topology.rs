//! Cached unit-disk topology: the CSR adjacency of the network at a fixed
//! operating radius.
//!
//! Fixed-radius protocols (GHS, BFS flood, discovery, leader election)
//! query the same disk neighbourhoods over and over. Rebuilding each
//! neighbour list from the [`BucketGrid`] on every broadcast allocates a
//! fresh `Vec` and re-scans the 3×3 block of grid cells around the node
//! per call; a [`Topology`] materialises all rows once per run in
//! compressed-sparse-row form, after which every query is a contiguous
//! slice lookup.
//!
//! **Determinism contract.** Rows are stored in *grid visit order* — the
//! exact order [`BucketGrid::for_neighbors_within`] yields neighbours
//! (cells row-major, CSR order within a cell). Every receiver list the
//! simulator hands to a protocol therefore has the same content *and
//! order* whether it came from the cached topology or a live grid query,
//! which keeps energy ledgers and golden traces bit-identical across the
//! two paths.
//!
//! **Nested radii.** On one grid, the rows at a smaller radius are the
//! rows at a larger one filtered by the grid's own acceptance test, in
//! the same order: [`Topology::restrict`] derives them without a second
//! grid scan. Their sorted view is sorted on first use, as a build's is.

use emst_geom::{BucketGrid, Point};
use std::sync::OnceLock;

/// CSR adjacency of the unit-disk graph at one operating radius.
///
/// Row `u` holds the neighbours of `u` within `radius` (excluding `u`
/// itself) in grid visit order, with their exact Euclidean distances.
#[derive(Debug)]
pub struct Topology {
    radius: f64,
    /// Row boundaries: row `u` is `nbr[offsets[u]..offsets[u+1]]`.
    offsets: Vec<u32>,
    /// Neighbour ids, concatenated row-major.
    nbr: Vec<u32>,
    /// Distances, parallel to `nbr`.
    dist: Vec<f64>,
    /// Lazily-built `(dist, id)`-sorted view of the rows (see
    /// [`Topology::sorted`]). Built at most once, then shared by every
    /// run holding this topology.
    sorted: OnceLock<SortedRows>,
}

/// Distance-sorted view of a [`Topology`]: the same rows, each reordered
/// ascending by `(dist, id)`. Row boundaries are the parent topology's
/// offsets; access goes through [`Topology::sorted_ids`] /
/// [`Topology::sorted_dists`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortedRows {
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        let sorted = OnceLock::new();
        if let Some(s) = self.sorted.get() {
            let _ = sorted.set(s.clone());
        }
        Topology {
            radius: self.radius,
            offsets: self.offsets.clone(),
            nbr: self.nbr.clone(),
            dist: self.dist.clone(),
            sorted,
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        // The sorted view is a cache derived from the base rows: two
        // topologies with equal rows are equal regardless of whether
        // either has materialised it yet.
        self.radius == other.radius
            && self.offsets == other.offsets
            && self.nbr == other.nbr
            && self.dist == other.dist
    }
}

impl Topology {
    /// Builds the adjacency for every node at `radius` by a single pass of
    /// grid disk queries ([`BucketGrid::extend_row`], the branchless form
    /// of [`BucketGrid::for_neighbors_within`]). O(n + m) memory for an
    /// m-edge unit-disk graph: the row arrays grow by doubling and are
    /// shrunk in place to their exact length at the end.
    pub fn build(grid: &BucketGrid<'_>, radius: f64) -> Self {
        assert!(radius >= 0.0, "negative topology radius");
        let n = grid.points().len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr: Vec<u32> = Vec::new();
        let mut dist: Vec<f64> = Vec::new();
        offsets.push(0u32);
        for u in 0..n {
            grid.extend_row(u, radius, &mut nbr, &mut dist);
            let end = u32::try_from(nbr.len()).expect("topology larger than u32 edge space");
            offsets.push(end);
        }
        nbr.shrink_to_fit();
        dist.shrink_to_fit();
        Topology {
            radius,
            offsets,
            nbr,
            dist,
            sorted: OnceLock::new(),
        }
    }

    /// The rows at `radius ≤ self.radius()` on the grid these rows were
    /// built on: equal to `Topology::build(&grid, radius)`, both views bit
    /// for bit, without scanning the grid. `points` are the grid's points.
    ///
    /// The build accepts `v` into row `u` when
    /// `points[u].dist_sq(&points[v]) <= radius * radius`, and visits
    /// candidates in [`BucketGrid::visit_order`]; a row at a smaller radius
    /// is therefore the larger row filtered by that test, in the same
    /// order. `sqrt` is correctly rounded and so monotone: a stored `dist`
    /// below `(radius * radius).sqrt()` passes the test and one above it
    /// fails, so only an entry equal to that cut recomputes `dist_sq`.
    ///
    /// The sorted view is built on first use, by the same `(dist, id)`
    /// sort as a build's, so restricting never forces this topology's own
    /// sorted view. Like a build's, the row arrays end at their exact
    /// length.
    pub fn restrict(&self, points: &[Point], radius: f64) -> Topology {
        assert!(
            (0.0..=self.radius).contains(&radius),
            "restriction radius {radius} outside [0, {}]",
            self.radius
        );
        assert_eq!(points.len(), self.n(), "points do not match the rows");
        let r_sq = radius * radius;
        let cut = r_sq.sqrt();
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut nbr: Vec<u32> = Vec::new();
        let mut dist: Vec<f64> = Vec::new();
        offsets.push(0u32);
        for (u, pu) in points.iter().enumerate() {
            for (&v, &d) in self.ids(u).iter().zip(self.dists(u)) {
                if d < cut || (d == cut && pu.dist_sq(&points[v as usize]) <= r_sq) {
                    nbr.push(v);
                    dist.push(d);
                }
            }
            offsets.push(u32::try_from(nbr.len()).expect("no larger than the parent rows"));
        }
        nbr.shrink_to_fit();
        dist.shrink_to_fit();
        Topology {
            radius,
            offsets,
            nbr,
            dist,
            sorted: OnceLock::new(),
        }
    }

    /// The `(dist, id)`-sorted view of the rows, built on first use and
    /// cached for the topology's lifetime. Protocols that scan rows in
    /// ascending-weight order (modified-GHS MOE search) borrow this
    /// instead of sorting private copies per run.
    ///
    /// Each row sorts one `u64` key per entry: the distance's bits with
    /// the low `⌈log₂ len⌉` bits replaced by the entry's index in the row.
    /// Distances are square roots of sums of squares, finite with the
    /// sign bit clear, so their bits order as `total_cmp` does; keys that
    /// agree above the index field (exact ties, or distances that differ
    /// only in the replaced bits) form runs that are re-sorted by
    /// `(dist bits, id)`. Ids and distances are then gathered through the
    /// index, into arrays of the rows' exact length.
    pub fn sorted(&self) -> &SortedRows {
        self.sorted.get_or_init(|| {
            let mut ids = Vec::with_capacity(self.nbr.len());
            let mut dists = Vec::with_capacity(self.nbr.len());
            let mut keys: Vec<u64> = Vec::new();
            for u in 0..self.n() {
                let (row_ids, row_d) = (self.ids(u), self.dists(u));
                let len = row_ids.len();
                if len == 0 {
                    continue;
                }
                let index_bits = usize::BITS - (len - 1).leading_zeros();
                let index = (1u64 << index_bits) - 1;
                keys.clear();
                keys.extend(row_d.iter().enumerate().map(|(k, d)| {
                    debug_assert!(
                        d.is_sign_positive(),
                        "row distance {d} has its sign bit set"
                    );
                    (d.to_bits() & !index) | k as u64
                }));
                keys.sort_unstable();
                let mut run = 0;
                for k in 1..=len {
                    if k == len || (keys[k] ^ keys[run]) & !index != 0 {
                        if k - run > 1 {
                            keys[run..k].sort_unstable_by_key(|&key| {
                                let j = (key & index) as usize;
                                (row_d[j].to_bits(), row_ids[j])
                            });
                        }
                        run = k;
                    }
                }
                for &key in &keys {
                    let j = (key & index) as usize;
                    ids.push(row_ids[j]);
                    dists.push(row_d[j]);
                }
            }
            SortedRows { ids, dists }
        })
    }

    /// Neighbour ids of `u` in ascending `(dist, id)` order.
    #[inline]
    pub fn sorted_ids(&self, u: usize) -> &[u32] {
        &self.sorted().ids[self.row(u)]
    }

    /// Distances parallel to [`Topology::sorted_ids`].
    #[inline]
    pub fn sorted_dists(&self, u: usize) -> &[f64] {
        &self.sorted().dists[self.row(u)]
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The operating radius the adjacency was built at.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total directed edge count (sum of row lengths).
    #[inline]
    pub fn directed_edges(&self) -> usize {
        self.nbr.len()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    #[inline]
    fn row(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Start of `u`'s row in the flat edge arrays, shared by both views:
    /// entry `k` of [`Topology::sorted_ids`]`(u)` (or [`Topology::ids`]`(u)`)
    /// is flat entry `row_offset(u) + k`, so per-edge protocol state fits
    /// one slab of [`Topology::directed_edges`] slots.
    #[inline]
    pub fn row_offset(&self, u: usize) -> usize {
        self.offsets[u] as usize
    }

    /// Neighbour ids of `u`, in grid visit order.
    #[inline]
    pub fn ids(&self, u: usize) -> &[u32] {
        &self.nbr[self.row(u)]
    }

    /// Distances parallel to [`Topology::ids`].
    #[inline]
    pub fn dists(&self, u: usize) -> &[f64] {
        &self.dist[self.row(u)]
    }

    /// Iterates `(neighbour, distance)` pairs of `u` in grid visit order.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row(u);
        self.nbr[r.clone()]
            .iter()
            .zip(&self.dist[r])
            .map(|(&v, &d)| (v as usize, d))
    }

    /// Appends `u`'s row to `out` (which the caller has cleared or wants
    /// extended) without allocating beyond `out`'s capacity growth.
    pub fn extend_row_into(&self, u: usize, out: &mut Vec<(usize, f64)>) {
        let r = self.row(u);
        out.reserve(r.len());
        for (&v, &d) in self.nbr[r.clone()].iter().zip(&self.dist[r]) {
            out.push((v as usize, d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{paper_phase1_radius, paper_phase2_radius, trial_rng, uniform_points};

    /// Both views of `t`, distances as bits.
    fn views(t: &Topology) -> [(Vec<u32>, Vec<u64>); 2] {
        [
            base_view(t),
            (t.sorted().ids.clone(), bits(&t.sorted().dists)),
        ]
    }

    /// The rows' ids and distance bits, in visit order.
    fn base_view(t: &Topology) -> (Vec<u32>, Vec<u64>) {
        (t.nbr.clone(), bits(&t.dist))
    }

    fn bits(d: &[f64]) -> Vec<u64> {
        d.iter().map(|d| d.to_bits()).collect()
    }

    /// The sorted view by a `(total_cmp, id)` comparison sort of each row,
    /// distances as bits.
    fn reference_sorted(t: &Topology) -> (Vec<u32>, Vec<u64>) {
        let mut want = (Vec::new(), Vec::new());
        for u in 0..t.n() {
            let mut row: Vec<(f64, u32)> = t.neighbors(u).map(|(v, d)| (d, v as u32)).collect();
            row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.0.extend(row.iter().map(|&(_, v)| v));
            want.1.extend(row.iter().map(|&(d, _)| d.to_bits()));
        }
        want
    }

    /// A `side × side` lattice of spacing `step` from `origin`, numbered
    /// from the top right so ids run against the grid's visit order;
    /// every seventh point doubled (a coincident pair) and every fifth
    /// moved by one ulp in `x` (distances equal but for their low bits).
    fn lattice(side: usize, step: f64, origin: f64) -> Vec<Point> {
        let mut pts = Vec::new();
        for (k, (i, j)) in (0..side)
            .rev()
            .flat_map(|j| (0..side).rev().map(move |i| (i, j)))
            .enumerate()
        {
            let mut p = Point::new(origin + i as f64 * step, origin + j as f64 * step);
            if k % 5 == 0 {
                p.x = f64::from_bits(p.x.to_bits() + 1);
            }
            pts.push(p);
            if k % 7 == 0 {
                pts.push(p);
            }
        }
        pts
    }

    #[test]
    fn sorted_view_equals_a_comparison_sort() {
        // Lattices put many exactly equal and near-equal distances in each
        // row (the key-tie runs); rows of up to about 130, 370 and 1 170
        // entries cover index fields of 8, 9 and 11 bits.
        let mut cases = vec![
            (lattice(40, 1.0 / 64.0, 0.1), 6.0 / 64.0),
            (lattice(18, 1.0 / 512.0, 0.4), 0.2),
            (lattice(32, 1.0 / 1024.0, 0.4), 0.2),
        ];
        cases.push((
            uniform_points(2000, &mut trial_rng(85, 0)),
            paper_phase2_radius(2000),
        ));
        let mut longest = 0;
        for (pts, r) in &cases {
            let rows = Topology::build(&BucketGrid::for_radius(pts, *r), *r);
            longest = longest.max((0..rows.n()).map(|u| rows.degree(u)).max().unwrap_or(0));
            let (ids, bits) = reference_sorted(&rows);
            assert_eq!(rows.sorted().ids, ids, "n {} r {r:e}", pts.len());
            let got: Vec<u64> = rows.sorted().dists.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, bits, "n {} r {r:e}", pts.len());
            assert_eq!(rows.sorted().ids.capacity(), rows.directed_edges());
        }
        assert!(longest > 1024, "longest row {longest}");
    }

    #[test]
    fn row_arrays_end_at_their_exact_length() {
        let pts = uniform_points(2000, &mut trial_rng(86, 0));
        let r2 = paper_phase2_radius(2000);
        let grid = BucketGrid::for_radius(&pts, r2);
        let rows = Topology::build(&grid, r2);
        let step1 = rows.restrict(&pts, paper_phase1_radius(2000));
        for t in [&rows, &step1] {
            assert!(t.directed_edges() > 0);
            assert_eq!(t.nbr.capacity(), t.nbr.len());
            assert_eq!(t.dist.capacity(), t.dist.len());
        }
    }

    #[test]
    fn restriction_equals_a_build_on_the_same_grid() {
        // Radii: paper r₁, r₂ (the rows' own) and 0, plus stored row
        // distances ±1 ulp, where an entry's `dist` can equal the cut while
        // its `dist_sq` falls on either side of `radius²`.
        let ulp = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        let (mut kept_ties, mut dropped_ties) = (0, 0);
        for n in [60, 2000, 20_000] {
            let r2 = paper_phase2_radius(n);
            for seed in 0..3 {
                let pts = uniform_points(n, &mut trial_rng(84, seed * 1000 + n as u64));
                let grid = BucketGrid::for_radius(&pts, r2);
                let rows = Topology::build(&grid, r2);
                let mut radii = vec![paper_phase1_radius(n), r2, 0.0];
                for &d in rows.dists(n / 3).iter().take(2) {
                    radii.extend([ulp(d, -1), d, ulp(d, 1)].map(|r| r.min(r2)));
                }
                for r in radii {
                    let cut = (r * r).sqrt();
                    for u in 0..n {
                        for (&v, &d) in rows.ids(u).iter().zip(rows.dists(u)) {
                            if d == cut && pts[u].dist_sq(&pts[v as usize]) <= r * r {
                                kept_ties += 1;
                            } else if d == cut {
                                dropped_ties += 1;
                            }
                        }
                    }
                    let restricted = rows.restrict(&pts, r);
                    let built = Topology::build(&grid, r);
                    assert_eq!(restricted.radius().to_bits(), r.to_bits());
                    assert_eq!(
                        restricted.offsets, built.offsets,
                        "n {n} seed {seed} r {r:e}"
                    );
                    // A sorted view is a function of its rows, which
                    // `sorted_view_equals_a_comparison_sort` checks: at
                    // n = 20 000 equal rows settle it, unsorted.
                    if n <= 2000 {
                        assert_eq!(
                            views(&restricted),
                            views(&built),
                            "n {n} seed {seed} r {r:e}"
                        );
                    } else {
                        assert_eq!(
                            base_view(&restricted),
                            base_view(&built),
                            "n {n} seed {seed} r {r:e}"
                        );
                    }
                }
            }
        }
        assert!(
            kept_ties > 0 && dropped_ties > 0,
            "ties {kept_ties} / {dropped_ties}"
        );
    }

    #[test]
    fn restriction_splits_equal_distances_at_the_cut() {
        // Two neighbours of node 2 at the origin with the same rounded
        // distance `d` but `dist_sq` one ulp apart: restricting to `d`
        // keeps (d, 0) (`dist_sq == d²`) and drops (d, b), which sorts
        // first by id.
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let d = (0..)
            .map(|k| f64::from_bits(0.1f64.to_bits() + k))
            .find(|&d| (d * d).sqrt() == d && next_up(d * d).sqrt() == d)
            .unwrap();
        let b = (next_up(d * d) - d * d).sqrt();
        let pts = [Point::new(d, b), Point::new(d, 0.0), Point::new(0.0, 0.0)];
        assert_eq!(pts[2].dist_sq(&pts[0]), next_up(d * d));
        assert_eq!(pts[2].dist_sq(&pts[1]), d * d);
        let grid = BucketGrid::for_radius(&pts, 0.2);
        let rows = Topology::build(&grid, 0.2);
        assert_eq!(rows.sorted_ids(2), [0, 1]);
        assert_eq!(rows.sorted_dists(2), [d, d]);
        let restricted = rows.restrict(&pts, d);
        assert_eq!(restricted.sorted_ids(2), [1]);
        assert_eq!(views(&restricted), views(&Topology::build(&grid, d)));
    }

    #[test]
    fn rows_match_grid_queries_exactly() {
        let pts = uniform_points(250, &mut trial_rng(81, 0));
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let topo = Topology::build(&grid, 0.08);
        assert_eq!(topo.n(), 250);
        assert!((topo.radius() - 0.08).abs() == 0.0);
        let mut total = 0;
        for u in 0..250 {
            let live = grid.neighbors_within(u, 0.08);
            assert_eq!(topo.degree(u), live.len());
            let row: Vec<(usize, f64)> = topo.neighbors(u).collect();
            assert_eq!(row, live, "node {u}");
            let mut buf = vec![(usize::MAX, 0.0)];
            buf.clear();
            topo.extend_row_into(u, &mut buf);
            assert_eq!(buf, live);
            total += live.len();
        }
        assert_eq!(topo.directed_edges(), total);
    }

    #[test]
    fn radius_beyond_grid_cell_is_exhaustive() {
        let pts = uniform_points(120, &mut trial_rng(82, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let topo = Topology::build(&grid, 0.4);
        for u in [0usize, 60, 119] {
            let brute = (0..120)
                .filter(|&v| v != u && pts[u].dist(&pts[v]) <= 0.4)
                .count();
            assert_eq!(topo.degree(u), brute);
        }
    }

    #[test]
    fn empty_and_isolated_rows() {
        let pts = uniform_points(10, &mut trial_rng(83, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let topo = Topology::build(&grid, 0.0);
        for u in 0..10 {
            assert_eq!(topo.degree(u), 0);
            assert!(topo.ids(u).is_empty());
            assert!(topo.dists(u).is_empty());
        }
    }
}
