//! Reusable simulation instances: one point set, many runs.
//!
//! A benchmark sweep runs dozens of trials against the *same* `(seed, n,
//! radius)` instance. An [`Instance`] owns the points and a
//! [`RowCache`] of their topology rows, which
//! [`Sim::from_instance`](crate::Sim::from_instance) lends to every run:
//! a run fetches its rows from that cache exactly as a
//! [`Sim::new`](crate::Sim::new) run fetches them from its own, so the
//! two entry points differ only in how long the cache lives. The first
//! run over an instance builds the rows (and their lazily built sorted
//! view); later runs find them warm.
//!
//! **Determinism.** The cache keys rows by the run's grid radius as well
//! as their own: same grid cell size, same visit order, same row bits.
//! Ledgers, traces and stage marks are therefore bit-identical between
//! `Sim::new(points)` and `Sim::from_instance(&inst)` runs.

use emst_geom::{mix_seed, trial_rng, uniform_points, Point};
use emst_radio::{CacheStats, Lru, RowCache, Topology};
use std::sync::{Arc, Mutex};

/// A point set plus its cached topology rows, shared across runs.
///
/// Cheap to share by reference; the row cache is internally
/// synchronised, so parallel sweep workers can run trials off one
/// instance. The cache is *bounded* ([`RowCache::CAPACITY`] entries,
/// LRU eviction): a long-lived process sweeping many radii over one
/// instance holds a fixed number of row sets, not one per radius it ever
/// touched.
pub struct Instance {
    points: Vec<Point>,
    rows: RowCache,
}

impl Instance {
    /// Wraps an existing point set.
    pub fn new(points: Vec<Point>) -> Self {
        Instance {
            points,
            rows: RowCache::new(),
        }
    }

    /// The seeded `(seed, n, trial)` instance — the same point stream as
    /// the bench runner's generator (SplitMix64-mixed so distinct
    /// `(seed, n)` pairs never alias).
    pub fn generate(seed: u64, n: usize, trial: u64) -> Self {
        Self::new(uniform_points(
            n,
            &mut trial_rng(mix_seed(seed, n as u64), trial),
        ))
    }

    /// The instance's points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// The row cache every run over this instance fetches its rows from.
    #[inline]
    pub(crate) fn row_cache(&self) -> &RowCache {
        &self.rows
    }

    /// Appends a point (a node joining the universe) and returns its id.
    /// Every cached row set is invalidated: the cached rows cover the old
    /// point set, and a stale adjacency handed to a run would silently
    /// hide the new node from every neighbourhood query.
    pub fn push_point(&mut self, p: Point) -> usize {
        self.points.push(p);
        self.invalidate();
        self.points.len() - 1
    }

    /// Overwrites the position of node `u` (a node moving), invalidating
    /// the cached rows.
    pub fn update_point(&mut self, u: usize, p: Point) {
        self.points[u] = p;
        self.invalidate();
    }

    /// Drops every cached row set. Called by the mutating methods above;
    /// also available to callers that mutate positions in bulk through
    /// other means. Counters survive invalidation — they describe the
    /// cache's lifetime, not its current contents.
    pub fn invalidate(&mut self) {
        self.rows.clear();
    }

    /// Shared topology at `radius` over a grid sized for `radius` — the
    /// rows a run whose operating radius is `radius` fetches.
    pub fn topology(&self, radius: f64) -> Arc<Topology> {
        self.topology_with_grid(radius, radius)
    }

    /// Shared topology with rows at `radius` over a bucket grid sized for
    /// `grid_radius` — the rows a run operating at `grid_radius` fetches
    /// at `radius` (see [`RowCache::rows`]). EOPT's step-1 rows (radius
    /// `r1` on an `r2`-sized grid) differ in *order* from a standalone
    /// `r1` build, and order is determinism-bearing.
    pub fn topology_with_grid(&self, grid_radius: f64, radius: f64) -> Arc<Topology> {
        self.rows.rows(&self.points, None, grid_radius, radius)
    }

    /// Lifetime hit/miss/eviction counters of this instance's row cache.
    pub fn topology_cache_stats(&self) -> CacheStats {
        self.rows.stats()
    }
}

/// Key of one cached instance: the full seed of its point stream plus the
/// radius family it serves. See [`InstanceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceKey {
    /// Base seed of the point stream.
    pub seed: u64,
    /// Number of nodes.
    pub n: usize,
    /// Trial index within the `(seed, n)` stream.
    pub trial: u64,
    /// Bits of the operating radius the caller runs at (`to_bits`, so
    /// bitwise-equal radii share an entry and nothing else does).
    pub radius_bits: u64,
}

impl InstanceKey {
    /// Builds the key for a `(seed, n, trial)` instance served at
    /// `radius`.
    pub fn new(seed: u64, n: usize, trial: u64, radius: f64) -> Self {
        InstanceKey {
            seed,
            n,
            trial,
            radius_bits: radius.to_bits(),
        }
    }
}

/// A bounded, LRU-evicting store of generated [`Instance`]s keyed by
/// `(seed, n, trial, radius)` — the hot-parameter cache behind the trial
/// service.
///
/// Replaces the pattern of regenerating points and topology per request:
/// a hit hands back the shared [`Arc<Instance>`] whose cached rows are
/// already warm, so repeated requests for one parameter point pay only
/// the protocol run. Generation happens under the cache lock — N
/// concurrent first requests for one key perform exactly one generation
/// (and, via the instance's [`RowCache`] lock, one row build), so the hit
/// counter reads `N − 1`.
pub struct InstanceCache {
    inner: Mutex<Lru<InstanceKey, Arc<Instance>>>,
}

impl InstanceCache {
    /// Creates a cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        InstanceCache {
            inner: Mutex::new(Lru::new(capacity.max(1))),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.stats().capacity
    }

    /// The shared instance for `key`, generating (and possibly evicting
    /// the least recently used entry) on first request. Returns the
    /// instance and whether it was served from memory.
    pub fn get_or_generate(&self, key: InstanceKey) -> (Arc<Instance>, bool) {
        let mut inner = self.inner.lock().expect("instance cache poisoned");
        if let Some(inst) = inner.hit(&key) {
            return (inst, true);
        }
        let inst = Arc::new(Instance::generate(key.seed, key.n, key.trial));
        inner.insert(key, inst.clone());
        (inst, false)
    }

    /// Lifetime hit/miss/eviction counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("instance cache poisoned").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::BucketGrid;

    #[test]
    fn generate_matches_the_runner_stream() {
        let inst = Instance::generate(0xBEEF, 64, 3);
        let direct = uniform_points(64, &mut trial_rng(mix_seed(0xBEEF, 64), 3));
        assert_eq!(inst.points(), &direct[..]);
        assert_eq!(inst.n(), 64);
    }

    #[test]
    fn topology_is_memoised_per_key() {
        let inst = Instance::generate(0xBEEF, 50, 0);
        let a = inst.topology(0.3);
        let b = inst.topology(0.3);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one build");
        let c = inst.topology_with_grid(0.3, 0.2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.radius(), 0.2);
    }

    #[test]
    fn growth_invalidates_the_topology_cache() {
        let mut inst = Instance::generate(0xBEEF, 40, 0);
        let before = inst.topology(0.3);
        let id = inst.push_point(Point { x: 0.5, y: 0.5 });
        assert_eq!(id, 40);
        assert_eq!(inst.n(), 41);
        let after = inst.topology(0.3);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "growth must rebuild the adjacency"
        );
        assert_eq!(after.n(), 41);
        // Moves invalidate too: the same key rebuilds once more.
        inst.update_point(0, Point { x: 0.25, y: 0.25 });
        let moved = inst.topology(0.3);
        assert!(!Arc::ptr_eq(&after, &moved));
        assert_eq!(moved.n(), 41);
    }

    #[test]
    fn build_matches_a_run_local_build() {
        let inst = Instance::generate(7, 80, 0);
        let grid = BucketGrid::for_radius(inst.points(), 0.4);
        let direct = Topology::build(&grid, 0.25);
        assert_eq!(*inst.topology_with_grid(0.4, 0.25), direct);
    }

    #[test]
    fn smaller_radius_is_restricted_from_the_grid_rows() {
        let inst = Instance::generate(7, 400, 0);
        let (g, r) = (0.12, 0.05);
        let step1 = inst.topology_with_grid(g, r);
        let s = inst.topology_cache_stats();
        assert_eq!(
            (s.misses, s.hits, s.len),
            (2, 0, 2),
            "the grid rows are cached too"
        );
        let _ = inst.topology(g);
        assert_eq!(inst.topology_cache_stats().hits, 1);
        let grid = BucketGrid::for_radius(inst.points(), g);
        let direct = Topology::build(&grid, r);
        assert_eq!(*step1, direct);
        assert_eq!(step1.sorted(), direct.sorted());
    }

    #[test]
    fn concurrent_first_requests_build_once_per_key() {
        // Half the threads ask for the grid rows, half for a restriction
        // of them: whichever comes first, each key is built once and
        // every other request (the restriction's own fetch of the grid
        // rows included) is a hit.
        let inst = Instance::generate(77, 300, 0);
        let n_threads = 8;
        let start = std::sync::Barrier::new(n_threads);
        let got: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|i| {
                    let (inst, start) = (&inst, &start);
                    scope.spawn(move || {
                        start.wait();
                        inst.topology_with_grid(0.2, [0.2, 0.1][i % 2])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, t) in got.iter().enumerate() {
            assert!(Arc::ptr_eq(t, &got[i % 2]), "one shared build per key");
        }
        let s = inst.topology_cache_stats();
        assert_eq!((s.misses, s.hits, s.len), (2, n_threads as u64 - 1, 2));
    }

    #[test]
    fn topology_cache_is_bounded_and_lru() {
        let inst = Instance::generate(11, 30, 0);
        // Fill to capacity, oldest first.
        for i in 0..RowCache::CAPACITY {
            let _ = inst.topology(0.1 + 0.05 * i as f64);
        }
        // Touch the oldest entry so it is no longer the eviction victim.
        let refreshed = inst.topology(0.1);
        let s = inst.topology_cache_stats();
        assert_eq!(s.misses, RowCache::CAPACITY as u64);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.len, RowCache::CAPACITY);
        // One more key evicts the LRU entry (0.15), not the refreshed one.
        let _ = inst.topology(0.9);
        let s = inst.topology_cache_stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, RowCache::CAPACITY);
        assert!(
            Arc::ptr_eq(&refreshed, &inst.topology(0.1)),
            "refreshed entry must survive the eviction"
        );
        let rebuilt = inst.topology(0.15);
        assert_eq!(rebuilt.radius(), 0.15);
        let s = inst.topology_cache_stats();
        assert_eq!(s.evictions, 2, "re-requesting the victim rebuilds it");
        assert!((s.hit_rate() - s.hits as f64 / (s.hits + s.misses) as f64).abs() < 1e-15);
    }

    #[test]
    fn instance_cache_shares_hits_and_evicts_lru() {
        let cache = InstanceCache::new(2);
        assert_eq!(cache.capacity(), 2);
        let k1 = InstanceKey::new(1, 40, 0, 0.3);
        let k2 = InstanceKey::new(2, 40, 0, 0.3);
        let k3 = InstanceKey::new(1, 40, 0, 0.4); // same points, new radius family
        let (a, hit) = cache.get_or_generate(k1);
        assert!(!hit);
        let (b, hit) = cache.get_or_generate(k1);
        assert!(hit, "second request for one key must be a hit");
        assert!(Arc::ptr_eq(&a, &b), "hits share one instance");
        let (_, hit) = cache.get_or_generate(k2);
        assert!(!hit);
        // Recency is now [k2, k1]; inserting k3 evicts k1, the LRU key.
        let (_, hit) = cache.get_or_generate(k3);
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 3, 1, 2));
        let (c, hit) = cache.get_or_generate(k1);
        assert!(!hit, "evicted key must regenerate");
        assert!(!Arc::ptr_eq(&a, &c));
        // Identical content regardless of cache history.
        assert_eq!(a.points(), c.points());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn instance_cache_concurrent_same_key_builds_once() {
        let cache = std::sync::Arc::new(InstanceCache::new(4));
        let key = InstanceKey::new(77, 60, 0, 0.25);
        let n_threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..n_threads {
                let cache = cache.clone();
                scope.spawn(move || {
                    let (inst, _) = cache.get_or_generate(key);
                    let _ = inst.topology(0.25);
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one generation for N concurrent requests");
        assert_eq!(s.hits, n_threads - 1, "hit counter reads N - 1");
        // And the instance underneath performed exactly one topology build.
        let (inst, _) = cache.get_or_generate(key);
        assert_eq!(inst.topology_cache_stats().misses, 1);
    }
}
