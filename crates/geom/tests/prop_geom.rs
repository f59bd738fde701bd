//! Property-based tests for the geometry substrate.

use emst_geom::{
    diag_rank_less, nnt_probe_phases, nnt_probe_radius, paper_phase2_radius, BucketGrid, PathLoss,
    Point,
};
use proptest::prelude::*;

fn unit_point() -> impl Strategy<Value = Point> {
    (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn point_cloud(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(unit_point(), 1..max)
}

/// `x` moved by `k` ulps (`x ≥ 0`); may leave the unit interval.
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// `(id, distance bits)` of the points the grid's own test accepts within
/// `r` of `center`, in visit order: the O(n) reference row.
fn reference_row(grid: &BucketGrid<'_>, center: &Point, r: f64) -> Vec<(usize, u64)> {
    let pts = grid.points();
    grid.visit_order()
        .iter()
        .map(|&v| v as usize)
        .filter_map(|v| {
            let d_sq = center.dist_sq(&pts[v]);
            (d_sq <= r * r).then(|| (v, d_sq.sqrt().to_bits()))
        })
        .collect()
}

/// Checks `for_each_in_disk`, `for_neighbors_within`, `extend_row`,
/// `for_neighbors_within_bound` and `for_each_edge_within` against the
/// reference rows at `r`, for every point of the grid: ids, order and
/// distance bits.
fn scans_match_reference(grid: &BucketGrid<'_>, r: f64) -> Result<(), String> {
    let (pts, cell) = (grid.points(), grid.cell_size());
    let at = |what: &str, u: usize| format!("{what} at {u} {:?}, cell {cell:e}, r {r:e}", pts[u]);
    let mut edges_want = Vec::new();
    for (u, pu) in pts.iter().enumerate() {
        let want = reference_row(grid, pu, r);
        let mut disk = Vec::new();
        grid.for_each_in_disk(pu, r, |v, d| disk.push((v, d.to_bits())));
        if disk != want {
            return Err(at("for_each_in_disk", u));
        }
        let want: Vec<_> = want.into_iter().filter(|&(v, _)| v != u).collect();
        let mut row = Vec::new();
        grid.for_neighbors_within(u, r, |v, d| row.push((v, d.to_bits())));
        if row != want {
            return Err(at("for_neighbors_within", u));
        }
        // The branchless kernel appends the same row after what the
        // vectors already hold, which it leaves alone.
        let (mut ids, mut dists) = (vec![7u32], vec![0.5f64]);
        grid.extend_row(u, r, &mut ids, &mut dists);
        let appended: Vec<_> = ids[1..]
            .iter()
            .zip(&dists[1..])
            .map(|(&v, d)| (v as usize, d.to_bits()))
            .collect();
        if (ids[0], dists[0]) != (7, 0.5) || appended != want {
            return Err(at("extend_row", u));
        }
        // A bound at one of the row's own distances keeps exactly the
        // entries at or below it, in row order.
        if let Some(&(_, b)) = want.get(want.len() / 2) {
            let bound = f64::from_bits(b);
            let mut near = Vec::new();
            grid.for_neighbors_within_bound(u, r, bound, |v, d| near.push((v, d.to_bits())));
            let below: Vec<_> = want
                .iter()
                .copied()
                .filter(|&(_, d)| f64::from_bits(d) <= bound)
                .collect();
            if near != below {
                return Err(at("for_neighbors_within_bound", u));
            }
        }
        edges_want.extend(
            want.iter()
                .filter(|&&(v, _)| v > u)
                .map(|&(v, d)| (u, v, d)),
        );
    }
    let mut edges = Vec::new();
    grid.for_each_edge_within(r, |u, v, d| edges.push((u, v, d.to_bits())));
    if edges != edges_want {
        return Err(format!("for_each_edge_within, cell {cell:e}, r {r:e}"));
    }
    Ok(())
}

/// `pts` with every other point moved onto the nearest vertical cell line
/// of `BucketGrid::for_radius(&pts, radius)`, ±2 ulps (a point that would
/// leave the unit square stays put).
fn snap_half_to_cell_lines(mut pts: Vec<Point>, radius: f64) -> Vec<Point> {
    let cell = BucketGrid::for_radius(&pts, radius).cell_size();
    for (i, p) in pts.iter_mut().enumerate().filter(|(i, _)| i % 2 == 0) {
        let x = ulps((p.x / cell).round() * cell, (i % 5) as i64 - 2);
        if (0.0..=1.0).contains(&x) {
            p.x = x;
        }
    }
    pts
}

/// Points on the cell lines `k·cell` and 1–2 ulps either side, on each
/// axis and both, and on `x = 1.0` / `y = 1.0`; each with partners at ±r
/// (and ±1–2 ulps) along each axis — where rounding in `dist_sq` and
/// `cell_of` can put an accepted neighbour one cell further than `r`
/// suggests.
fn cell_line_points(cell: f64, r: f64) -> Vec<Point> {
    let side = (1.0 / cell).ceil() as usize;
    let mut lines = vec![1.0, ulps(1.0, -1), ulps(1.0, -2)];
    for k in [1, 2, side / 2, side - 1] {
        lines.extend((-2..=2).map(|j| ulps(k as f64 * cell, j)));
    }
    let mid = (side / 2) as f64 * cell + 0.37 * cell;
    let mut base = Vec::new();
    for &b in &lines {
        base.extend([Point::new(b, mid), Point::new(mid, b), Point::new(b, b)]);
    }
    let mut pts = base.clone();
    for p in &base {
        for j in -2..=2 {
            pts.push(Point::new(ulps(p.x + r, j), p.y));
            pts.push(Point::new(ulps(p.x - r, j), p.y));
            pts.push(Point::new(p.x, ulps(p.y + r, j)));
            pts.push(Point::new(p.x, ulps(p.y - r, j)));
        }
    }
    pts.retain(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
    pts
}

/// The scanned window covers every accepted point, so the three grid
/// scans equal the reference rows even for points placed where rounding
/// bites: cells 0.125 and the n = 2000 r₂ and Co-NNT grids; radii one
/// cell (a run's own radius), 0.3 cells (EOPT step 1 on the r₂ grid),
/// 2 and 3.7 cells (later Co-NNT probes), each ±1 ulp.
#[test]
fn grid_scans_match_reference_rows_on_cell_lines() {
    for cell in [0.125, paper_phase2_radius(2000), nnt_probe_radius(2, 2000)] {
        for scale in [1.0, 0.3, 2.0, 3.7] {
            for k in -1..=1 {
                let r = ulps(scale * cell, k);
                let pts = cell_line_points(cell, r);
                if let Err(e) = scans_match_reference(&BucketGrid::new(&pts, cell), r) {
                    panic!("{e}");
                }
            }
        }
    }
}

proptest! {
    /// Metric axioms for the Euclidean distance.
    #[test]
    fn euclidean_triangle_inequality(a in unit_point(), b in unit_point(), c in unit_point()) {
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-12);
    }

    #[test]
    fn euclidean_symmetry(a in unit_point(), b in unit_point()) {
        prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-15);
    }

    /// L∞ ≤ L2 ≤ √2·L∞ in the plane.
    #[test]
    fn metric_equivalence(a in unit_point(), b in unit_point()) {
        let l2 = a.dist(&b);
        let linf = a.dist_linf(&b);
        prop_assert!(linf <= l2 + 1e-15);
        prop_assert!(l2 <= linf * std::f64::consts::SQRT_2 + 1e-15);
    }

    /// The diagonal rank is a strict total order on distinct points.
    #[test]
    fn diag_rank_total_order(a in unit_point(), b in unit_point()) {
        if a != b {
            prop_assert!(diag_rank_less(&a, &b) ^ diag_rank_less(&b, &a));
        } else {
            prop_assert!(!diag_rank_less(&a, &b));
        }
    }

    #[test]
    fn diag_rank_transitive(a in unit_point(), b in unit_point(), c in unit_point()) {
        if diag_rank_less(&a, &b) && diag_rank_less(&b, &c) {
            prop_assert!(diag_rank_less(&a, &c));
        }
    }

    /// Energy model: monotone in distance, scales as d^α.
    #[test]
    fn energy_monotone_in_distance(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0,
                                   alpha in 0.5f64..4.0) {
        let m = PathLoss::new(1.0, alpha);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.energy_for_distance(lo) <= m.energy_for_distance(hi) + 1e-15);
    }

    /// Grid disk queries equal the O(n²) reference rows (ids, order and
    /// distance bits) on random clouds and radii, every other point
    /// snapped to a cell line.
    #[test]
    fn grid_disk_matches_brute_force(pts in point_cloud(120), r in 0.0f64..0.7) {
        let pts = snap_half_to_cell_lines(pts, r.max(1e-3));
        let checked = scans_match_reference(&BucketGrid::for_radius(&pts, r.max(1e-3)), r);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    /// Edge enumeration yields each qualifying unordered pair exactly once,
    /// in the reference order, every other point snapped to a cell line.
    #[test]
    fn grid_edges_match_brute_force(pts in point_cloud(80), r in 0.01f64..0.8) {
        let pts = snap_half_to_cell_lines(pts, r);
        let checked = scans_match_reference(&BucketGrid::for_radius(&pts, r), r);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    /// Predicate-filtered nearest neighbour agrees with brute force.
    #[test]
    fn grid_nearest_matching_is_correct(pts in point_cloud(100), qraw in 0usize..1000) {
        let q = qraw % pts.len();
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let got = grid.nearest_matching(&pts[q], q, |j| diag_rank_less(&pts[q], &pts[j]));
        let brute = (0..pts.len())
            .filter(|&j| j != q && diag_rank_less(&pts[q], &pts[j]))
            .map(|j| (j, pts[q].dist(&pts[j])))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match (got, brute) {
            (Some((_, gd)), Some((_, bd))) => prop_assert!((gd - bd).abs() < 1e-12),
            (None, None) => {}
            (g, b) => prop_assert!(false, "mismatch {:?} vs {:?}", g, b),
        }
    }

    /// k-NN distances agree with brute force for all k.
    #[test]
    fn grid_k_nearest_is_correct(pts in point_cloud(60), qraw in 0usize..1000,
                                 k in 1usize..60) {
        let q = qraw % pts.len();
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let got = grid.k_nearest(q, k);
        let mut brute: Vec<f64> = (0..pts.len())
            .filter(|&j| j != q)
            .map(|j| pts[q].dist(&pts[j]))
            .collect();
        brute.sort_unstable_by(|a, b| a.total_cmp(b));
        brute.truncate(k);
        prop_assert_eq!(got.len(), brute.len());
        for (g, b) in got.iter().zip(brute.iter()) {
            prop_assert!((g.1 - b).abs() < 1e-12);
        }
    }

    /// The three neighbour-query forms (visitor, `_into` scratch buffer,
    /// legacy `Vec`) agree with each other in content *and order*, and the
    /// scans equal the O(n²) reference rows. The grid cell size is drawn
    /// independently of the query radius, so this exercises query radii both
    /// smaller and (much) larger than one cell; every other point is
    /// snapped to a cell line.
    #[test]
    fn neighbor_query_forms_agree_with_brute_force(
        pts in point_cloud(100),
        cell in 0.01f64..0.3,
        r in 0.0f64..1.2,
        qraw in 0usize..1000,
    ) {
        let q = qraw % pts.len();
        let pts = snap_half_to_cell_lines(pts, cell);
        let grid = BucketGrid::for_radius(&pts, cell);

        let legacy = grid.neighbors_within(q, r);
        let mut visited: Vec<(usize, f64)> = Vec::new();
        grid.for_neighbors_within(q, r, |j, d| visited.push((j, d)));
        let mut scratch = vec![(usize::MAX, f64::NAN)]; // must be cleared
        grid.neighbors_within_into(q, r, &mut scratch);

        // Exact agreement, including visit order and float bit patterns.
        prop_assert_eq!(legacy.len(), visited.len());
        prop_assert_eq!(legacy.len(), scratch.len());
        for ((a, b), c) in legacy.iter().zip(visited.iter()).zip(scratch.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.0, c.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            prop_assert_eq!(a.1.to_bits(), c.1.to_bits());
        }

        let checked = scans_match_reference(&grid, r);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    /// NNT probe schedule: the last probe radius always covers l, and the
    /// penultimate one does not overshoot by more than the doubling factor.
    #[test]
    fn nnt_probe_schedule_covers(l in 0.001f64..1.5, n in 2usize..100_000) {
        let m = nnt_probe_phases(l, n);
        prop_assert!(nnt_probe_radius(m, n) >= l - 1e-12);
        if m > 1 {
            prop_assert!(nnt_probe_radius(m - 1, n) < l + 1e-9);
        }
    }
}
