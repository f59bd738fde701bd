//! Random instance generation.
//!
//! All experiments draw node positions uniformly at random in the unit
//! square (§II). The Theorem 5.2 proof machinery additionally uses Poisson
//! point processes (for spatial independence), so we provide an exact
//! Poisson sampler as well. Everything is seeded: a table or figure is
//! reproducible bit-for-bit from `(seed, parameters)`.

use crate::point::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `n` points uniformly at random in the unit square.
pub fn uniform_points<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// Draws `n` points uniformly in the axis-aligned rectangle
/// `[x0, x1] × [y0, y1]`.
pub fn uniform_points_in_rect<R: Rng + ?Sized>(
    n: usize,
    (x0, y0): (f64, f64),
    (x1, y1): (f64, f64),
    rng: &mut R,
) -> Vec<Point> {
    assert!(x0 <= x1 && y0 <= y1, "degenerate rectangle");
    (0..n)
        .map(|_| {
            Point::new(
                x0 + (x1 - x0) * rng.gen::<f64>(),
                y0 + (y1 - y0) * rng.gen::<f64>(),
            )
        })
        .collect()
}

/// Samples `N ~ Poisson(mu)` exactly.
///
/// Knuth's product-of-uniforms method for small means; for large means the
/// thinning identity `Poisson(μ) = Poisson(μ/2) + Poisson(μ/2)` is applied
/// recursively, which stays exact (unlike a normal approximation) at the
/// cost of O(μ) uniforms.
pub fn poisson_count<R: Rng + ?Sized>(mu: f64, rng: &mut R) -> usize {
    assert!(mu >= 0.0, "Poisson mean must be non-negative, got {mu}");
    if mu == 0.0 {
        return 0;
    }
    if mu <= 30.0 {
        // Knuth: count multiplications of uniforms until product < e^-mu.
        let limit = (-mu).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p < limit {
                return k;
            }
            k += 1;
        }
    }
    poisson_count(mu / 2.0, rng) + poisson_count(mu / 2.0, rng)
}

/// A homogeneous Poisson point process with intensity `intensity` on the
/// unit square: draws `N ~ Poisson(intensity)` and then `N` uniform points.
pub fn poisson_points<R: Rng + ?Sized>(intensity: f64, rng: &mut R) -> Vec<Point> {
    let n = poisson_count(intensity, rng);
    uniform_points(n, rng)
}

/// A deterministic RNG for trial `trial` of an experiment with base seed
/// `base`. Trials get well-separated streams via SplitMix64 mixing of the
/// pair, so adding trials never perturbs earlier ones.
pub fn trial_rng(base: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(mix_seed(base, trial))
}

/// The workspace-wide default experiment seed: the base every bench
/// binary, the trial service and the load generator fall back to when no
/// seed is given.
pub const BASE_SEED: u64 = 0xE0E7_2008;

/// SplitMix64 finaliser over `(base, trial)`; public so that experiment
/// binaries can log the effective per-trial seed.
pub fn mix_seed(base: u64, trial: u64) -> u64 {
    let mut z = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(trial)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_points_stay_in_unit_square() {
        let mut rng = trial_rng(1, 0);
        for p in uniform_points(1000, &mut rng) {
            assert!(p.in_unit_square(), "{p} escaped the unit square");
        }
    }

    #[test]
    fn uniform_points_count() {
        let mut rng = trial_rng(2, 0);
        assert_eq!(uniform_points(0, &mut rng).len(), 0);
        assert_eq!(uniform_points(17, &mut rng).len(), 17);
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = uniform_points(50, &mut trial_rng(7, 3));
        let b = uniform_points(50, &mut trial_rng(7, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_trials_differ() {
        let a = uniform_points(50, &mut trial_rng(7, 3));
        let b = uniform_points(50, &mut trial_rng(7, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn rect_sampling_respects_bounds() {
        let mut rng = trial_rng(3, 0);
        let pts = uniform_points_in_rect(500, (0.25, 0.5), (0.5, 0.75), &mut rng);
        for p in pts {
            assert!((0.25..=0.5).contains(&p.x));
            assert!((0.5..=0.75).contains(&p.y));
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = trial_rng(4, 0);
        assert_eq!(poisson_count(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_small_mean_statistics() {
        let mut rng = trial_rng(5, 0);
        let mu = 4.0;
        let trials = 20_000;
        let total: usize = (0..trials).map(|_| poisson_count(mu, &mut rng)).sum();
        let mean = total as f64 / trials as f64;
        // SE ≈ sqrt(mu/trials) ≈ 0.014; allow 5σ.
        assert!(
            (mean - mu).abs() < 0.08,
            "empirical mean {mean} too far from {mu}"
        );
    }

    #[test]
    fn poisson_large_mean_statistics() {
        let mut rng = trial_rng(6, 0);
        let mu = 500.0;
        let trials = 500;
        let samples: Vec<usize> = (0..trials).map(|_| poisson_count(mu, &mut rng)).collect();
        let mean = samples.iter().sum::<usize>() as f64 / trials as f64;
        // SE ≈ sqrt(500/500) = 1; allow 5σ.
        assert!(
            (mean - mu).abs() < 5.0,
            "empirical mean {mean} too far from {mu}"
        );
        // Variance should also be ≈ mu for a Poisson (sanity against a
        // broken splitting recursion, which would change the variance).
        let var = samples
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (trials - 1) as f64;
        assert!(
            (var / mu - 1.0).abs() < 0.35,
            "empirical variance {var} too far from {mu}"
        );
    }

    #[test]
    fn poisson_points_land_in_square() {
        let mut rng = trial_rng(8, 0);
        for p in poisson_points(200.0, &mut rng) {
            assert!(p.in_unit_square());
        }
    }

    #[test]
    fn mix_seed_spreads_nearby_inputs() {
        let s1 = mix_seed(42, 0);
        let s2 = mix_seed(42, 1);
        let s3 = mix_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // Hamming distance between adjacent trials should be substantial.
        assert!((s1 ^ s2).count_ones() > 10);
    }
}
