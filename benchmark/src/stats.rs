//! Order statistics: latency percentiles, the tail rule, and the
//! quartiles the repeatability driver reports.

/// Fewest samples that must lie beyond a percentile before it may be
/// reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail is chosen from, lowest first.
pub const TAIL_LADDER: [f64; 7] = [0.50, 0.75, 0.90, 0.95, 0.98, 0.99, 0.999];

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`] of
/// `count` samples above it (the median when none does).
///
/// Each workload applies this to its *nominal* sample count for the run
/// length, not to the count a run happened to reach: a faster program
/// completes more operations in the same window, and the tail must not
/// move to a higher percentile just because of that.
pub fn tail_level(count: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(q, count) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// How many of `count` samples lie beyond percentile `q`.
pub fn samples_beyond(q: f64, count: usize) -> usize {
    ((1.0 - q) * count as f64 + 1e-9).floor() as usize
}

/// Value at quantile `q` of `sorted` (ascending), interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        len => {
            let h = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Sorts a copy of `values` and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One finished operation of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When it finished, in seconds from the start of the window.
    pub end_s: f64,
    /// How long it took, in milliseconds.
    pub ms: f64,
    /// The host's slowdown when it ran (see [`crate::host`]).
    pub slow: f64,
}

/// Length of the sub-windows a measured window is cut into.
pub const SUBWINDOW_S: f64 = 2.0;

/// Sub-windows in a window of `span_s` seconds (at least one).
pub fn subwindows(span_s: f64) -> usize {
    ((span_s / SUBWINDOW_S).round() as usize).max(1)
}

/// The median, over the non-empty ones of `k` equal sub-windows of
/// `[0, span_s)`, of `f(operations that ended in the sub-window)`. An
/// operation that ends after the window counts in the last sub-window. A
/// statistic per sub-window, then the median across them, is not moved by
/// a slow spell that covers less than half of the run.
pub fn windowed(ops: &[Op], span_s: f64, k: usize, f: impl Fn(&[Op]) -> f64) -> f64 {
    let k = k.max(1);
    let width = span_s / k as f64;
    let mut per: Vec<Vec<Op>> = vec![Vec::new(); k];
    for op in ops {
        let w = ((op.end_s / width).max(0.0) as usize).min(k - 1);
        per[w].push(*op);
    }
    let values: Vec<f64> = per.iter().filter(|w| !w.is_empty()).map(|w| f(w)).collect();
    median(&values)
}

/// Latencies of `ops`, ascending.
pub fn latencies(ops: &[Op]) -> Vec<f64> {
    sorted(&ops.iter().map(|o| o.ms).collect::<Vec<_>>())
}

/// `(q1, median, q3)` of `values` by Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method), so
/// the spreads printed here match the ones computed from the raw values
/// with Python. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(999), 0.98);
        assert_eq!(tail_level(500), 0.98);
        assert_eq!(tail_level(499), 0.95);
        assert_eq!(tail_level(200), 0.95);
        assert_eq!(tail_level(199), 0.90);
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 0.50);
        assert_eq!(tail_level(10_000), 0.999);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_level(5), 0.50);
        for count in [20, 40, 100, 200, 1000, 10_000, 12_345] {
            assert!(samples_beyond(tail_level(count), count) >= MIN_BEYOND);
        }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn windowed_statistics_outvote_a_slow_spell() {
        // Ten operations a second for 10 s, 1 ms each, except a slow spell
        // in the fourth second: the per-window median ignores it.
        let ops: Vec<Op> = (0..100)
            .map(|i| {
                let end_s = i as f64 / 10.0 + 0.05;
                let ms = if (3.0..4.0).contains(&end_s) {
                    5.0
                } else {
                    1.0
                };
                Op {
                    end_s,
                    ms,
                    slow: 1.0,
                }
            })
            .collect();
        let p50 = |w: &[Op]| quantile(&latencies(w), 0.5);
        assert_eq!(windowed(&ops, 10.0, 5, p50), 1.0);
        assert_eq!(windowed(&ops, 10.0, 5, |w| w.len() as f64 / 2.0), 10.0);
        // One window covering everything is the plain statistic.
        assert_eq!(windowed(&ops, 10.0, 1, |w| w.len() as f64), 100.0);
        // Late finishers count in the last window; empty windows are skipped.
        let op = |end_s, ms| Op {
            end_s,
            ms,
            slow: 1.0,
        };
        let late = [op(12.0, 2.0), op(0.5, 4.0)];
        assert_eq!(windowed(&late, 10.0, 5, |w| w[0].ms), 3.0);
        assert_eq!(subwindows(20.0), 10);
        assert_eq!(subwindows(0.5), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
