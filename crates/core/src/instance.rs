//! Reusable simulation instances: one point set, many runs.
//!
//! A benchmark sweep runs dozens of trials against the *same* `(seed, n,
//! radius)` instance, and every [`Sim::new`](crate::Sim::new) run used to
//! rebuild the same bucket grid, CSR topology and `(dist, id)`-sorted
//! rows from scratch — at `n = 10⁵` those rebuilds cost more than the
//! protocol itself and were the dominant superlinear term in the scale
//! curve. An [`Instance`] owns the points and memoises the topology
//! builds behind shared handles, so
//! [`Sim::from_instance`](crate::Sim::from_instance) runs start with the
//! adjacency (and its lazily-built sorted view) already warm.
//!
//! **Determinism.** An installed topology is byte-for-byte the build the
//! run would have produced itself: same grid cell size (the run's
//! operating radius), same visit order, same row bits. Ledgers, traces
//! and stage marks are therefore bit-identical between
//! `Sim::new(points)` and `Sim::from_instance(&inst)` runs — the
//! instance only moves the build out of the timed run and shares it.
//!
//! **One scan per grid.** Rows at a smaller radius on a grid (EOPT's
//! step 1 at `r1` on the `r2` grid) are not built: they are restricted
//! from that grid's own rows ([`Topology::restrict`]), which is the same
//! topology bit for bit, sorted view included.

use emst_geom::{mix_seed, trial_rng, uniform_points, BucketGrid, Point};
use emst_radio::Topology;
use std::sync::{Arc, Mutex};

/// Capacity of the per-instance topology cache. A run needs at most two
/// entries (EOPT's two radii, the smaller restricted from the larger's
/// rows rather than built), and a paper sweep trial running GHS, EOPT and
/// Co-NNT over one instance holds those two (Co-NNT installs no rows);
/// four leaves headroom for a caller mixing radii over one instance
/// before LRU eviction kicks in.
const TOPOLOGY_CACHE_CAPACITY: usize = 4;

/// Counters of one bounded cache: how often it answered from memory, how
/// often it had to build, and how many entries the bound pushed out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered by an existing entry.
    pub hits: u64,
    /// Requests that had to build (and insert) a fresh entry.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// The capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of requests served from memory (0 when nothing was
    /// requested yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded, most-recently-used-first store behind both caches of this
/// module, with their lifetime counters. Entries are kept in recency
/// order: a hit moves its entry to the front, an insert beyond capacity
/// evicts the back (the least recently used key).
struct Lru<K, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The value for `key`, moved to the front; counts a hit.
    fn hit(&mut self, key: &K) -> Option<V> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        self.hits += 1;
        let entry = self.entries.remove(at);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts a fresh entry at the front, evicting the least recently
    /// used one beyond capacity; counts a miss.
    fn insert(&mut self, key: K, value: V) {
        self.misses += 1;
        self.entries.insert(0, (key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
    }

    /// Lifetime counters plus current occupancy.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// [`Instance`]'s topology memoisation, keyed by `(grid radius, row
/// radius)` bits.
type TopoCache = Lru<(u64, u64), Arc<Topology>>;

/// A point set plus memoised topology builds, shared across runs.
///
/// Cheap to share by reference; the topology cache is internally
/// synchronised, so parallel sweep workers can run trials off one
/// instance. The cache is *bounded* (`TOPOLOGY_CACHE_CAPACITY` entries,
/// LRU eviction): a long-lived process sweeping many radii over one
/// instance holds a fixed number of adjacency builds, not one per radius
/// it ever touched.
pub struct Instance {
    points: Vec<Point>,
    /// Bounded memoised builds keyed by `(grid radius, row radius)` —
    /// exact f64 bits, since every caller derives radii through the same
    /// expressions.
    topos: Mutex<TopoCache>,
}

impl Instance {
    /// Wraps an existing point set.
    pub fn new(points: Vec<Point>) -> Self {
        Instance {
            points,
            topos: Mutex::new(Lru::new(TOPOLOGY_CACHE_CAPACITY)),
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

    /// Appends a point (a node joining the universe) and returns its id.
    /// Every memoised topology build is invalidated: the cached rows
    /// cover the old point set, and a stale adjacency handed to a run
    /// would silently hide the new node from every neighbourhood query.
    pub fn push_point(&mut self, p: Point) -> usize {
        self.points.push(p);
        self.invalidate();
        self.points.len() - 1
    }

    /// Overwrites the position of node `u` (a node moving), invalidating
    /// the memoised topology builds.
    pub fn update_point(&mut self, u: usize, p: Point) {
        self.points[u] = p;
        self.invalidate();
    }

    /// Drops every memoised topology build. Called by the mutating
    /// methods above; also available to callers that mutate positions in
    /// bulk through other means. Counters survive invalidation — they
    /// describe the cache's lifetime, not its current contents.
    pub fn invalidate(&mut self) {
        self.topos
            .get_mut()
            .expect("instance cache poisoned")
            .entries
            .clear();
    }

    /// Shared topology at `radius`, built on first request (grid cell
    /// size = `radius`, matching a run whose operating radius is
    /// `radius`).
    pub fn topology(&self, radius: f64) -> Arc<Topology> {
        self.topology_with_grid(radius, radius)
    }

    /// Shared topology with rows at `radius` over a bucket grid sized for
    /// `grid_radius` — the exact build a run operating at `grid_radius`
    /// performs when it caches the adjacency at `radius`. Rows are in
    /// grid visit order, so the grid cell size is part of the cache key:
    /// EOPT's step-1 rows (radius `r1` on an `r2`-sized grid) differ in
    /// *order* from a standalone `r1` build, and order is
    /// determinism-bearing.
    ///
    /// A `radius` below `grid_radius` is restricted from the grid's own
    /// rows (`topology_with_grid(grid_radius, grid_radius)`, fetched or
    /// built and cached too) instead of scanning a second grid.
    ///
    /// The build happens under the cache lock, so concurrent first
    /// requests for one key perform exactly one build and everyone gets
    /// the same [`Arc`].
    pub fn topology_with_grid(&self, grid_radius: f64, radius: f64) -> Arc<Topology> {
        let mut cache = self.topos.lock().expect("instance cache poisoned");
        self.cached(&mut cache, grid_radius, radius)
    }

    /// [`Instance::topology_with_grid`] under the held cache lock.
    fn cached(&self, cache: &mut TopoCache, grid_radius: f64, radius: f64) -> Arc<Topology> {
        let key = (grid_radius.to_bits(), radius.to_bits());
        if let Some(t) = cache.hit(&key) {
            return t;
        }
        let t = if radius < grid_radius {
            let rows = self.cached(cache, grid_radius, grid_radius);
            Arc::new(rows.restrict(&self.points, radius))
        } else {
            let grid = BucketGrid::for_radius(&self.points, grid_radius);
            Arc::new(Topology::build(&grid, radius))
        };
        cache.insert(key, t.clone());
        t
    }

    /// Lifetime hit/miss/eviction counters of this instance's topology
    /// cache.
    pub fn topology_cache_stats(&self) -> CacheStats {
        self.topos.lock().expect("instance cache poisoned").stats()
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
/// a hit hands back the shared [`Arc<Instance>`] whose memoised topology
/// is already warm, so repeated requests for one parameter point pay only
/// the protocol run. Generation happens under the cache lock — N
/// concurrent first requests for one key perform exactly one generation
/// (and, via [`Instance`]'s own lock, one topology build), so the hit
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
        for i in 0..TOPOLOGY_CACHE_CAPACITY {
            let _ = inst.topology(0.1 + 0.05 * i as f64);
        }
        // Touch the oldest entry so it is no longer the eviction victim.
        let refreshed = inst.topology(0.1);
        let s = inst.topology_cache_stats();
        assert_eq!(s.misses, TOPOLOGY_CACHE_CAPACITY as u64);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.len, TOPOLOGY_CACHE_CAPACITY);
        // One more key evicts the LRU entry (0.15), not the refreshed one.
        let _ = inst.topology(0.9);
        let s = inst.topology_cache_stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, TOPOLOGY_CACHE_CAPACITY);
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
