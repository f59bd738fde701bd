//! Bucket-grid spatial index over points in the unit square.
//!
//! Random-geometric-graph construction, nearest-neighbour queries (Co-NNT),
//! k-nearest-neighbour distances (the Lemma 4.1 lower-bound experiment) and
//! percolation cell statistics all reduce to local queries on a uniform
//! grid. With cell size `Θ(r)` and `n` uniform points, a disk query of
//! radius `r` touches `O(1)` cells and `O(n r²)` points in expectation, so
//! building the whole RGG edge list costs `O(n + |E|)`.
//!
//! Point indices are stored as `u32` internally (the simulations run at
//! `n ≤ 10⁶`, far below `u32::MAX`), halving the index memory versus
//! `usize` — see the type-size guidance in the Rust Performance Book.

use crate::point::Point;
use std::ops::Range;

/// A uniform bucket grid over `[0,1]²`.
///
/// The grid borrows the point slice and keeps a cell-ordered copy of the
/// coordinates (16 B per point); it is cheap to rebuild whenever the
/// operating radius changes.
///
/// ```
/// use emst_geom::{BucketGrid, Point};
/// let pts = vec![
///     Point::new(0.50, 0.50),
///     Point::new(0.52, 0.50),
///     Point::new(0.90, 0.90),
/// ];
/// let grid = BucketGrid::for_radius(&pts, 0.1);
/// let nb = grid.neighbors_within(0, 0.1);
/// assert_eq!(nb.len(), 1);           // only the point 0.02 away
/// assert_eq!(nb[0].0, 1);
/// assert_eq!(grid.k_nearest(0, 2).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BucketGrid<'a> {
    points: &'a [Point],
    cell_size: f64,
    side: usize,
    /// CSR offsets: points of cell `c` are `order[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    order: Vec<u32>,
    /// Coordinates in cell order, `xy[k] = points[order[k]]`: the cells of
    /// one window row are adjacent in `order`, so a disk query reads each
    /// window row as one contiguous slice instead of gathering from
    /// `points`.
    xy: Vec<Point>,
}

/// The cell holding coordinate `v` along one axis: monotone in `v`, and
/// clamped to `0..side` (the cast saturates negative values to 0).
#[inline]
fn axis_cell(v: f64, cell_size: f64, side: usize) -> usize {
    ((v / cell_size) as usize).min(side - 1)
}

impl<'a> BucketGrid<'a> {
    /// Builds a grid with the given cell size (must be positive). Points are
    /// expected in the unit square; out-of-range coordinates are clamped to
    /// the boundary cells so queries remain correct for points *on* the
    /// border (x = 1.0 or y = 1.0).
    pub fn new(points: &'a [Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        assert!(
            points.len() < u32::MAX as usize,
            "too many points for u32 indices"
        );
        let side = ((1.0 / cell_size).ceil() as usize).max(1);
        let ncells = side * side;
        let mut counts = vec![0u32; ncells + 1];
        let cell_idx =
            |p: &Point| axis_cell(p.y, cell_size, side) * side + axis_cell(p.x, cell_size, side);
        for p in points {
            counts[cell_idx(p) + 1] += 1;
        }
        for c in 0..ncells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut order = vec![0u32; points.len()];
        let mut xy = vec![Point::default(); points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_idx(p);
            order[cursor[c] as usize] = i as u32;
            xy[cursor[c] as usize] = *p;
            cursor[c] += 1;
        }
        BucketGrid {
            points,
            cell_size,
            side,
            cell_start,
            order,
            xy,
        }
    }

    /// Convenience constructor sizing cells to the query radius, so a disk
    /// of that radius is covered by the 3×3 block of cells around its
    /// centre (see [`BucketGrid::for_each_in_disk`]).
    pub fn for_radius(points: &'a [Point], radius: f64) -> Self {
        // Cap the cell count: for very small radii a cell per radius would
        // allocate quadratically many empty cells. n cells per side keeps
        // build cost O(n) while still bounding points per cell.
        let n = points.len().max(1);
        let min_cell = 1.0 / (n as f64).sqrt().ceil().max(1.0) / 4.0;
        BucketGrid::new(points, radius.max(min_cell))
    }

    /// The points this grid indexes.
    #[inline]
    pub fn points(&self) -> &'a [Point] {
        self.points
    }

    /// Grid cell size.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Cells per side.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// The global visit order: point indices grouped by ascending
    /// row-major cell index, insertion order within each cell. Every
    /// [`BucketGrid::for_each_in_disk`] visit sequence is a subsequence
    /// of this array — consumers of cached adjacency rows rely on that
    /// to pair mutual edges with per-node cursors instead of searches.
    #[inline]
    pub fn visit_order(&self) -> &[u32] {
        &self.order
    }

    /// Number of points in grid cell `(cx, cy)`.
    pub fn cell_population(&self, cx: usize, cy: usize) -> usize {
        assert!(cx < self.side && cy < self.side, "cell out of range");
        let c = cy * self.side + cx;
        (self.cell_start[c + 1] - self.cell_start[c]) as usize
    }

    /// Grid coordinates of the cell containing `p`.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        (
            axis_cell(p.x, self.cell_size, self.side),
            axis_cell(p.y, self.cell_size, self.side),
        )
    }

    /// The cells a disk query of `radius` around `center` scans, as one
    /// range of positions in `order`/`xy` per window row (row-major, so
    /// the concatenation is a subsequence of [`BucketGrid::visit_order`]).
    ///
    /// The window is the cells holding the disk's bounding box
    /// `[c − R, c + R]²`, `R = radius·(1 + 1e-9) + 4·ε`, mapped through
    /// [`BucketGrid::cell_of`]. The pad covers rounding: a point the
    /// query accepts (`dist_sq ≤ radius²` in floating point) lies within
    /// `radius·(1 + 4·2⁻⁵³)` of `center` on each axis, and `c ± R`
    /// rounds to no closer than that for centres in the unit square.
    /// `cell_of` is monotone, so the accepted point's cell lies between
    /// the cells of the box's corners. With `cell_size ≥ radius` the
    /// window is at most 3×3 cells (4 wide for a centre within about
    /// `1e-9·radius` of a cell edge when the two are equal).
    #[inline]
    fn window(&self, center: &Point, radius: f64) -> impl Iterator<Item = Range<usize>> + '_ {
        let pad = radius * (1.0 + 1e-9) + 4.0 * f64::EPSILON;
        let (x0, y0) = self.cell_of(&Point::new(center.x - pad, center.y - pad));
        let (x1, y1) = self.cell_of(&Point::new(center.x + pad, center.y + pad));
        (y0..=y1).map(move |cy| {
            let row = cy * self.side;
            self.cell_start[row + x0] as usize..self.cell_start[row + x1 + 1] as usize
        })
    }

    #[inline]
    fn cell_points(&self, cx: usize, cy: usize) -> &[u32] {
        let c = cy * self.side + cx;
        &self.order[self.cell_start[c] as usize..self.cell_start[c + 1] as usize]
    }

    /// Calls `f(index, distance)` for every point within Euclidean distance
    /// `radius` of `center` (inclusive), including any point coincident with
    /// `center` itself; callers filter self-indices as needed.
    ///
    /// A point is accepted when `center.dist_sq(p) <= radius * radius`,
    /// and `distance` is that `dist_sq`'s square root. The visits are
    /// [`BucketGrid::visit_order`] restricted to the accepted points: the
    /// scanned window only has to cover them (see `window`), so its size
    /// never shows in the output.
    pub fn for_each_in_disk<F: FnMut(usize, f64)>(&self, center: &Point, radius: f64, mut f: F) {
        if radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        for span in self.window(center, radius) {
            for (&i, p) in self.order[span.clone()].iter().zip(&self.xy[span]) {
                let d_sq = center.dist_sq(p);
                if d_sq <= r_sq {
                    f(i as usize, d_sq.sqrt());
                }
            }
        }
    }

    /// Calls `f(j, dist)` for every point within `radius` of point `i`,
    /// excluding `i` itself — the zero-allocation form of
    /// [`BucketGrid::neighbors_within`].
    ///
    /// Visit order is deterministic and part of this type's contract:
    /// cells row-major (`cy` outer, `cx` inner), then insertion (CSR)
    /// order within each cell — identical to the order of the `Vec`
    /// returned by `neighbors_within`. Simulation layers replay this
    /// order when charging energy, so it must never change silently.
    pub fn for_neighbors_within<F: FnMut(usize, f64)>(&self, i: usize, radius: f64, mut f: F) {
        self.for_each_in_disk(&self.points[i], radius, |j, d| {
            if j != i {
                f(j, d);
            }
        });
    }

    /// Appends the row [`BucketGrid::for_neighbors_within`] visits for
    /// point `i` at `radius` to `ids` and `dists`: the same ids, in the
    /// same order, with the same distance bits.
    ///
    /// The scan has no data-dependent branch: each window candidate's
    /// `(j, dist_sq)` is written at the end of the row, which then
    /// advances by the accept bit `(dist_sq <= radius²) & (j != i)`, so
    /// the next candidate overwrites a rejected one; the kept entries'
    /// square roots are taken at the end. A window row that would overrun
    /// the vectors' capacity grows them to the next power of two that
    /// holds it, as doubling pushes would.
    pub fn extend_row(&self, i: usize, radius: f64, ids: &mut Vec<u32>, dists: &mut Vec<f64>) {
        debug_assert_eq!(ids.len(), dists.len(), "ids and distances out of step");
        if radius < 0.0 {
            return;
        }
        let center = &self.points[i];
        let r_sq = radius * radius;
        let row_start = ids.len();
        for span in self.window(center, radius) {
            let mut end = ids.len();
            let need = end + span.len();
            if need > ids.capacity() {
                ids.reserve_exact(need.next_power_of_two() - end);
            }
            if need > dists.capacity() {
                dists.reserve_exact(need.next_power_of_two() - end);
            }
            ids.resize(need, 0);
            dists.resize(need, 0.0);
            for (&j, p) in self.order[span.clone()].iter().zip(&self.xy[span]) {
                let d_sq = center.dist_sq(p);
                ids[end] = j;
                dists[end] = d_sq;
                end += usize::from((d_sq <= r_sq) & (j as usize != i));
            }
            ids.truncate(end);
            dists.truncate(end);
        }
        for d in &mut dists[row_start..] {
            *d = d.sqrt();
        }
    }

    /// Calls `f(j, dist)` for the neighbours [`BucketGrid::for_neighbors_within`]
    /// visits at `radius` whose `dist` is at most `bound`, in the same
    /// order, scanning only the window of the disk of radius
    /// `min(bound, radius)` — with cells sized to `radius`, 1 to 4 cells
    /// instead of 9 for a bound below it.
    ///
    /// The test is on `dist` itself, so an entry at exactly `bound` is
    /// visited even where `dist_sq` exceeds `bound * bound` by an ulp; such
    /// a point still lies inside the window's padded box. Only points with
    /// `dist_sq <= cut` reach the square root: `sqrt(x)` rounds to at most
    /// `bound` only if `x ≤ (bound + ulp(bound)/2)²`, which is below
    /// `bound² · (1 + 1e-9)` for a normal `bound²` and below
    /// `4 · f64::MIN_POSITIVE` otherwise.
    pub fn for_neighbors_within_bound<F: FnMut(usize, f64)>(
        &self,
        i: usize,
        radius: f64,
        bound: f64,
        mut f: F,
    ) {
        if radius < 0.0 || bound < 0.0 {
            return;
        }
        let center = &self.points[i];
        let r_sq = radius * radius;
        let cut = (bound * bound * (1.0 + 1e-9))
            .max(4.0 * f64::MIN_POSITIVE)
            .min(r_sq);
        for span in self.window(center, bound.min(radius)) {
            for (&j, p) in self.order[span.clone()].iter().zip(&self.xy[span]) {
                let d_sq = center.dist_sq(p);
                if d_sq <= cut && j as usize != i {
                    let d = d_sq.sqrt();
                    if d <= bound {
                        f(j as usize, d);
                    }
                }
            }
        }
    }

    /// Fills `out` with the neighbours of `i` within `radius` (excluding
    /// `i`), clearing it first — the scratch-buffer form of
    /// [`BucketGrid::neighbors_within`] for callers that query in a loop
    /// and want to reuse one allocation. Same deterministic visit order
    /// as [`BucketGrid::for_neighbors_within`].
    pub fn neighbors_within_into(&self, i: usize, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        self.for_neighbors_within(i, radius, |j, d| out.push((j, d)));
    }

    /// Indices and distances of all points within `radius` of point `i`,
    /// excluding `i` itself. Thin wrapper over
    /// [`BucketGrid::neighbors_within_into`] that allocates a fresh `Vec`.
    pub fn neighbors_within(&self, i: usize, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.neighbors_within_into(i, radius, &mut out);
        out
    }

    /// Number of points within `radius` of point `i`, excluding `i`.
    pub fn degree_within(&self, i: usize, radius: f64) -> usize {
        let mut deg = 0usize;
        self.for_each_in_disk(&self.points[i], radius, |j, _| {
            if j != i {
                deg += 1;
            }
        });
        deg
    }

    /// Calls `f(u, v, dist)` once per unordered pair `{u, v}` (with `u < v`)
    /// at Euclidean distance ≤ `radius` — the edge set of the RGG `G(n, r)`.
    pub fn for_each_edge_within<F: FnMut(usize, usize, f64)>(&self, radius: f64, mut f: F) {
        if radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        for (u, pu) in self.points.iter().enumerate() {
            for span in self.window(pu, radius) {
                for (&v, p) in self.order[span.clone()].iter().zip(&self.xy[span]) {
                    let v = v as usize;
                    if v <= u {
                        continue;
                    }
                    let d_sq = pu.dist_sq(p);
                    if d_sq <= r_sq {
                        f(u, v, d_sq.sqrt());
                    }
                }
            }
        }
    }

    /// Nearest point to `center` (excluding index `exclude`, pass
    /// `usize::MAX` to exclude nothing) among points satisfying `pred`.
    /// Expanding-ring search: after scanning all cells within Chebyshev cell
    /// distance `l`, any unscanned point is at Euclidean distance
    /// ≥ `l·cell_size`, so the current best is confirmed once it is within
    /// that bound.
    pub fn nearest_matching<P: FnMut(usize) -> bool>(
        &self,
        center: &Point,
        exclude: usize,
        mut pred: P,
    ) -> Option<(usize, f64)> {
        let (ccx, ccy) = self.cell_of(center);
        let mut best: Option<(usize, f64)> = None;
        let max_ring = self.side; // covers the whole square from any cell
        for ring in 0..=max_ring {
            // Confirmed: no unscanned point can beat the current best.
            if let Some((_, d)) = best {
                if d <= (ring as f64 - 1.0).max(0.0) * self.cell_size {
                    break;
                }
            }
            let mut visit = |cx: usize, cy: usize| {
                for &i in self.cell_points(cx, cy) {
                    let i = i as usize;
                    if i == exclude || !pred(i) {
                        continue;
                    }
                    let d = center.dist(&self.points[i]);
                    if best.is_none() || d < best.unwrap().1 {
                        best = Some((i, d));
                    }
                }
            };
            if ring == 0 {
                visit(ccx, ccy);
                continue;
            }
            let x0 = ccx as isize - ring as isize;
            let x1 = ccx as isize + ring as isize;
            let y0 = ccy as isize - ring as isize;
            let y1 = ccy as isize + ring as isize;
            let in_range = |v: isize| v >= 0 && (v as usize) < self.side;
            // Top and bottom rows of the ring.
            for cx in x0..=x1 {
                if in_range(cx) {
                    if in_range(y0) {
                        visit(cx as usize, y0 as usize);
                    }
                    if in_range(y1) {
                        visit(cx as usize, y1 as usize);
                    }
                }
            }
            // Left and right columns, excluding corners already visited.
            for cy in (y0 + 1)..y1 {
                if in_range(cy) {
                    if in_range(x0) {
                        visit(x0 as usize, cy as usize);
                    }
                    if in_range(x1) {
                        visit(x1 as usize, cy as usize);
                    }
                }
            }
        }
        best
    }

    /// The `k` nearest points to point `i` (excluding `i`), sorted by
    /// ascending distance. Returns fewer than `k` entries if the instance
    /// has fewer than `k + 1` points. Thin wrapper over
    /// [`BucketGrid::k_nearest_into`].
    pub fn k_nearest(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.k_nearest_into(i, k, &mut out);
        out
    }

    /// [`BucketGrid::k_nearest`] into a caller-supplied scratch buffer
    /// (cleared first). The ring expansion accumulates candidates in `out`
    /// itself, so a buffer reused across calls reaches a steady-state
    /// capacity and the query becomes allocation-free — the k-NN distance
    /// experiments call this once per node.
    pub fn k_nearest_into(&self, i: usize, k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        let center = &self.points[i];
        let (ccx, ccy) = self.cell_of(center);
        out.reserve(k + 8);
        let found = out;
        let max_ring = self.side;
        for ring in 0..=max_ring {
            // Stop once the k-th best is confirmed against unscanned rings.
            if found.len() >= k {
                found.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                found.truncate(k.max(found.len().min(4 * k)));
                let kth = found[k - 1].1;
                if kth <= (ring as f64 - 1.0).max(0.0) * self.cell_size {
                    found.truncate(k);
                    return;
                }
            }
            let mut visit = |cx: usize, cy: usize| {
                for &j in self.cell_points(cx, cy) {
                    let j = j as usize;
                    if j != i {
                        found.push((j, center.dist(&self.points[j])));
                    }
                }
            };
            if ring == 0 {
                visit(ccx, ccy);
                continue;
            }
            let x0 = ccx as isize - ring as isize;
            let x1 = ccx as isize + ring as isize;
            let y0 = ccy as isize - ring as isize;
            let y1 = ccy as isize + ring as isize;
            let in_range = |v: isize| v >= 0 && (v as usize) < self.side;
            for cx in x0..=x1 {
                if in_range(cx) {
                    if in_range(y0) {
                        visit(cx as usize, y0 as usize);
                    }
                    if in_range(y1) {
                        visit(cx as usize, y1 as usize);
                    }
                }
            }
            for cy in (y0 + 1)..y1 {
                if in_range(cy) {
                    if in_range(x0) {
                        visit(x0 as usize, cy as usize);
                    }
                    if in_range(x1) {
                        visit(x1 as usize, cy as usize);
                    }
                }
            }
        }
        found.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        found.truncate(k);
    }

    /// Distance from point `i` to its `k`-th nearest neighbour (1-indexed:
    /// `k = 1` is the nearest). `None` if fewer than `k` other points exist.
    pub fn kth_nearest_distance(&self, i: usize, k: usize) -> Option<f64> {
        let nn = self.k_nearest(i, k);
        if nn.len() == k {
            Some(nn[k - 1].1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{trial_rng, uniform_points};

    /// Brute-force disk query for cross-checking.
    fn brute_within(points: &[Point], center: &Point, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.dist(p) <= radius)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn disk_query_matches_brute_force() {
        let mut rng = trial_rng(11, 0);
        let pts = uniform_points(400, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.1);
        for qi in [0usize, 17, 200, 399] {
            let mut got = Vec::new();
            grid.for_each_in_disk(&pts[qi], 0.1, |j, _| got.push(j));
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, &pts[qi], 0.1), "query {qi}");
        }
    }

    #[test]
    fn disk_visits_are_subsequences_of_visit_order() {
        // The contract consumers of `visit_order` rely on: every disk
        // query visits points in the same relative order as the global
        // `visit_order` array, at any radius (including radii larger than
        // the cell size, where many rings are scanned).
        let mut rng = trial_rng(12, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let rank: std::collections::HashMap<usize, usize> = grid
            .visit_order()
            .iter()
            .enumerate()
            .map(|(pos, &i)| (i as usize, pos))
            .collect();
        for qi in [0usize, 33, 150, 299] {
            for r in [0.03, 0.08, 0.4, 2.0] {
                let mut prev = None;
                grid.for_each_in_disk(&pts[qi], r, |j, _| {
                    let pos = rank[&j];
                    if let Some(p) = prev {
                        assert!(p < pos, "query {qi} radius {r}: visit order diverged");
                    }
                    prev = Some(pos);
                });
            }
        }
        // And the order itself is a permutation of all indices.
        let mut all: Vec<u32> = grid.visit_order().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..pts.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn disk_query_includes_center_point() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.9, 0.9)];
        let grid = BucketGrid::new(&pts, 0.25);
        let mut got = Vec::new();
        grid.for_each_in_disk(&pts[0], 0.01, |j, _| got.push(j));
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn neighbors_within_excludes_self() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.52, 0.5),
            Point::new(0.9, 0.9),
        ];
        let grid = BucketGrid::new(&pts, 0.1);
        let nb = grid.neighbors_within(0, 0.05);
        assert_eq!(nb.len(), 1);
        assert_eq!(nb[0].0, 1);
        assert!((nb[0].1 - 0.02).abs() < 1e-12);
        assert_eq!(grid.degree_within(0, 0.05), 1);
    }

    #[test]
    fn edge_enumeration_matches_brute_force() {
        let mut rng = trial_rng(12, 0);
        let pts = uniform_points(200, &mut rng);
        let r = 0.12;
        let grid = BucketGrid::for_radius(&pts, r);
        let mut edges = Vec::new();
        grid.for_each_edge_within(r, |u, v, d| {
            assert!(u < v);
            assert!((pts[u].dist(&pts[v]) - d).abs() < 1e-12);
            edges.push((u, v));
        });
        edges.sort_unstable();
        let mut brute = Vec::new();
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                if pts[u].dist(&pts[v]) <= r {
                    brute.push((u, v));
                }
            }
        }
        assert_eq!(edges, brute);
    }

    #[test]
    fn edges_have_no_duplicates() {
        let mut rng = trial_rng(13, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.2);
        let mut seen = std::collections::HashSet::new();
        grid.for_each_edge_within(0.2, |u, v, _| {
            assert!(seen.insert((u, v)), "duplicate edge ({u},{v})");
        });
    }

    #[test]
    fn nearest_matching_finds_global_nearest() {
        let mut rng = trial_rng(14, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.05);
        for qi in [0usize, 50, 299] {
            let got = grid.nearest_matching(&pts[qi], qi, |_| true).unwrap();
            let brute = (0..pts.len())
                .filter(|&j| j != qi)
                .map(|j| (j, pts[qi].dist(&pts[j])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(got.0, brute.0, "query {qi}");
            assert!((got.1 - brute.1).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_matching_respects_predicate() {
        // Nearest point with a *higher diagonal rank* — the Co-NNT query.
        let mut rng = trial_rng(15, 0);
        let pts = uniform_points(250, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.05);
        use crate::point::diag_rank_less;
        for qi in 0..pts.len() {
            let got = grid.nearest_matching(&pts[qi], qi, |j| diag_rank_less(&pts[qi], &pts[j]));
            let brute = (0..pts.len())
                .filter(|&j| j != qi && diag_rank_less(&pts[qi], &pts[j]))
                .map(|j| (j, pts[qi].dist(&pts[j])))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match (got, brute) {
                (Some((gi, gd)), Some((bi, bd))) => {
                    assert_eq!(gi, bi, "query {qi}");
                    assert!((gd - bd).abs() < 1e-12);
                }
                (None, None) => {} // highest-ranked node has no successor
                (g, b) => panic!("mismatch at {qi}: {g:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn nearest_matching_none_when_no_match() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.6)];
        let grid = BucketGrid::new(&pts, 0.25);
        assert!(grid.nearest_matching(&pts[0], 0, |_| false).is_none());
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut rng = trial_rng(16, 0);
        let pts = uniform_points(150, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.08);
        for qi in [3usize, 75, 149] {
            for k in [1usize, 5, 20, 149] {
                let got = grid.k_nearest(qi, k);
                let mut brute: Vec<(usize, f64)> = (0..pts.len())
                    .filter(|&j| j != qi)
                    .map(|j| (j, pts[qi].dist(&pts[j])))
                    .collect();
                brute.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                brute.truncate(k);
                assert_eq!(got.len(), brute.len());
                for (g, b) in got.iter().zip(brute.iter()) {
                    assert!((g.1 - b.1).abs() < 1e-12, "q={qi} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_handles_small_instances() {
        let pts = vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)];
        let grid = BucketGrid::new(&pts, 0.5);
        assert_eq!(grid.k_nearest(0, 0).len(), 0);
        assert_eq!(grid.k_nearest(0, 1).len(), 1);
        assert_eq!(grid.k_nearest(0, 5).len(), 1); // only one other point
        assert!(grid.kth_nearest_distance(0, 2).is_none());
        assert!(grid.kth_nearest_distance(0, 1).is_some());
    }

    #[test]
    fn k_nearest_with_k_at_least_n_returns_everyone() {
        // k ≥ n must return all n−1 other points, sorted, without the ring
        // confirmation ever firing (it can't: there is no k-th candidate).
        let pts = uniform_points(40, &mut trial_rng(18, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        for k in [40usize, 41, 1000] {
            let got = grid.k_nearest(7, k);
            assert_eq!(got.len(), 39, "k={k}");
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn k_nearest_into_reuses_buffer_and_matches() {
        let pts = uniform_points(200, &mut trial_rng(19, 0));
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let mut buf = Vec::new();
        for qi in 0..pts.len() {
            grid.k_nearest_into(qi, 10, &mut buf);
            let fresh = grid.k_nearest(qi, 10);
            assert_eq!(buf.len(), fresh.len(), "query {qi}");
            for (a, b) in buf.iter().zip(fresh.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        grid.k_nearest_into(0, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn visitor_and_into_match_vec_api_exactly() {
        // All three query forms must agree element-for-element, in the
        // same visit order (the determinism contract).
        let pts = uniform_points(300, &mut trial_rng(20, 0));
        let grid = BucketGrid::for_radius(&pts, 0.07);
        let mut buf = Vec::new();
        for qi in [0usize, 9, 150, 299] {
            for r in [0.0, 0.03, 0.07, 0.4] {
                let legacy = grid.neighbors_within(qi, r);
                let mut visited = Vec::new();
                grid.for_neighbors_within(qi, r, |j, d| visited.push((j, d)));
                grid.neighbors_within_into(qi, r, &mut buf);
                assert_eq!(legacy, visited, "q={qi} r={r}");
                assert_eq!(legacy, buf, "q={qi} r={r}");
            }
        }
    }

    #[test]
    fn bounded_visits_keep_entries_at_the_bound() {
        // A bound equal to a neighbour's distance keeps it, down to
        // distances whose squares are subnormal or zero.
        for gap in [0.05, 1e-80, 1e-160, 1e-170, 0.0] {
            let pts = vec![
                Point::new(0.0, 0.0),
                Point::new(gap, 0.0),
                Point::new(0.0, 3.0 * gap),
                Point::new(0.3, 0.3),
            ];
            let grid = BucketGrid::for_radius(&pts, 0.1);
            let row = grid.neighbors_within(0, 0.1);
            for &(_, bound) in &row {
                let mut near = Vec::new();
                grid.for_neighbors_within_bound(0, 0.1, bound, |j, d| near.push((j, d)));
                let want: Vec<_> = row.iter().copied().filter(|&(_, d)| d <= bound).collect();
                assert_eq!(near, want, "gap {gap:e}, bound {bound:e}");
            }
        }
    }

    #[test]
    fn boundary_points_are_indexed() {
        // x = 1.0 and y = 1.0 must clamp into the last cell, not overflow.
        let pts = vec![Point::new(1.0, 1.0), Point::new(0.99, 0.99)];
        let grid = BucketGrid::new(&pts, 0.1);
        let nb = grid.neighbors_within(0, 0.05);
        assert_eq!(nb.len(), 1);
    }

    #[test]
    fn cell_population_counts_points() {
        let pts = vec![
            Point::new(0.05, 0.05),
            Point::new(0.06, 0.07),
            Point::new(0.95, 0.95),
        ];
        let grid = BucketGrid::new(&pts, 0.1);
        assert_eq!(grid.cell_population(0, 0), 2);
        assert_eq!(grid.cell_population(grid.side() - 1, grid.side() - 1), 1);
        let total: usize = (0..grid.side())
            .flat_map(|cy| (0..grid.side()).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| grid.cell_population(cx, cy))
            .sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn for_radius_caps_cell_count() {
        let pts = uniform_points(10, &mut trial_rng(17, 0));
        // Tiny radius must not allocate a huge grid.
        let grid = BucketGrid::for_radius(&pts, 1e-9);
        assert!(grid.side() <= 4 * 4 * 10); // bounded by ~4·sqrt(n) per side
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let pts = vec![Point::new(0.5, 0.5)];
        let _ = BucketGrid::new(&pts, 0.0);
    }

    #[test]
    fn empty_point_set_is_fine() {
        let pts: Vec<Point> = vec![];
        let grid = BucketGrid::new(&pts, 0.1);
        let mut called = false;
        grid.for_each_edge_within(0.5, |_, _, _| called = true);
        assert!(!called);
    }
}
