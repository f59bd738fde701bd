//! Bounded caches: the LRU store with its counters, and the row cache
//! every run fetches its topology rows from.
//!
//! A [`RowCache`] is the one place [`Topology`] rows are made. Every
//! [`RadioNet`](crate::RadioNet) fetches its rows from one: its own, which
//! lives as long as the run, or one lent by the caller, which outlives it
//! (an instance's, shared by every run over the same points). The two
//! differ only in how long the cache lives, so a run's rows are the same
//! bits whichever it fetches from.

use crate::topology::Topology;
use emst_geom::{BucketGrid, Point};
use std::sync::{Arc, Mutex};

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

/// A bounded, most-recently-used-first store with its lifetime counters.
/// Entries are kept in recency order: a hit moves its entry to the front,
/// an insert beyond capacity evicts the back (the least recently used
/// key). Allocates nothing until its first insert.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    /// An empty store bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The value for `key`, moved to the front; counts a hit.
    pub fn hit(&mut self, key: &K) -> Option<V> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        self.hits += 1;
        let entry = self.entries.remove(at);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts a fresh entry at the front, evicting the least recently
    /// used one beyond capacity; counts a miss.
    pub fn insert(&mut self, key: K, value: V) {
        self.misses += 1;
        self.entries.insert(0, (key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
    }

    /// Drops every entry. The counters survive: they describe the store's
    /// lifetime, not its current contents.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops every entry whose key fails `keep`, keeping the others in
    /// recency order. Counters survive, as with [`Lru::clear`].
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.entries.retain(|(k, _)| keep(k));
    }

    /// Lifetime counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// The topology rows of one point set, built once per key and shared.
///
/// Keyed by the bits of `(grid radius, row radius)`: rows are in grid
/// visit order, so the grid's cell size is part of what they are. Rows at
/// the grid radius are built by one grid scan; rows at a smaller radius
/// (EOPT's step 1 at r₁ on the r₂ grid) are restricted from them
/// ([`Topology::restrict`]), which is the same topology bit for bit,
/// sorted view included. Bounded to [`RowCache::CAPACITY`] entries, LRU
/// eviction.
///
/// Internally synchronised, so parallel runs can share one cache: the
/// build happens under the lock, and concurrent first requests for one
/// key perform exactly one build and all get the same [`Arc`].
#[derive(Debug)]
pub struct RowCache {
    lru: Mutex<Lru<(u64, u64), Arc<Topology>>>,
}

impl Default for RowCache {
    fn default() -> Self {
        RowCache::new()
    }
}

impl RowCache {
    /// Entries held before eviction. A run fetches at most two (EOPT's
    /// two radii), and a paper sweep trial running GHS, EOPT and Co-NNT
    /// over one instance holds those two (Co-NNT fetches none); four
    /// leaves headroom for a caller mixing radii over one point set.
    pub const CAPACITY: usize = 4;

    /// An empty cache; allocates nothing until its first miss.
    pub fn new() -> Self {
        RowCache {
            lru: Mutex::new(Lru::new(Self::CAPACITY)),
        }
    }

    /// The rows at `radius` over `points` on a bucket grid sized for
    /// `grid_radius`: the cached entry, or the restriction of the grid
    /// radius's own rows (fetched or built, and cached too) when `radius`
    /// is below it, or a build. `grid` is that grid if the caller holds
    /// one; a build without it makes the grid.
    pub fn rows(
        &self,
        points: &[Point],
        grid: Option<&BucketGrid<'_>>,
        grid_radius: f64,
        radius: f64,
    ) -> Arc<Topology> {
        let mut lru = self.lru.lock().expect("row cache poisoned");
        Self::fetch(&mut lru, points, grid, grid_radius, radius)
    }

    /// [`RowCache::rows`] under the held lock.
    fn fetch(
        lru: &mut Lru<(u64, u64), Arc<Topology>>,
        points: &[Point],
        grid: Option<&BucketGrid<'_>>,
        grid_radius: f64,
        radius: f64,
    ) -> Arc<Topology> {
        let key = (grid_radius.to_bits(), radius.to_bits());
        if let Some(t) = lru.hit(&key) {
            return t;
        }
        let t = if radius < grid_radius {
            let rows = Self::fetch(lru, points, grid, grid_radius, grid_radius);
            Arc::new(rows.restrict(points, radius))
        } else if let Some(grid) = grid {
            Arc::new(Topology::build(grid, radius))
        } else {
            Arc::new(Topology::build(
                &BucketGrid::for_radius(points, grid_radius),
                radius,
            ))
        };
        lru.insert(key, t.clone());
        t
    }

    /// Drops every cached row set (the points changed). Counters survive.
    pub fn clear(&mut self) {
        self.lru.get_mut().expect("row cache poisoned").clear();
    }

    /// Drops the cached rows below `radius`, whatever their grid radius.
    /// Counters survive.
    pub fn drop_below(&mut self, radius: f64) {
        let lru = self.lru.get_mut().expect("row cache poisoned");
        lru.retain(|&(_, row_radius)| f64::from_bits(row_radius) >= radius);
    }

    /// Lifetime hit/miss/eviction counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().expect("row cache poisoned").stats()
    }
}
