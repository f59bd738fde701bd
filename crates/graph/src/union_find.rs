//! Disjoint-set forest (union–find) with union by rank and path halving.
//!
//! Used by Kruskal's algorithm, Borůvka's algorithm, connected-component
//! labelling, percolation cluster labelling, and by tests that validate the
//! fragment-merging behaviour of the distributed protocols. Operations are
//! amortised `O(α(n))`.

/// A disjoint-set forest over elements `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    /// Parent pointers; `parent[i] == i` for roots.
    parent: Vec<u32>,
    /// Rank upper bounds for roots.
    rank: Vec<u8>,
    /// Number of elements in each root's set (valid for roots only).
    size: Vec<u32>,
    /// Current number of disjoint sets.
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "too many elements for u32 indices");
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            size: vec![1; n],
            sets: n,
        }
    }

    /// Resets to `n` singleton sets — the state [`UnionFind::new`] builds —
    /// reusing the allocations, so a per-round union-find costs no heap
    /// traffic once its buffers have grown.
    pub fn reset(&mut self, n: usize) {
        assert!(n < u32::MAX as usize, "too many elements for u32 indices");
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.size.clear();
        self.size.resize(n, 1);
        self.sets = n;
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    #[inline]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x as usize
    }

    /// Representative of `x`'s set without mutation (no compression); useful
    /// for read-only contexts.
    pub fn find_const(&self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        self.size[hi] += self.size[lo];
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Canonical labelling: `labels[i]` is a dense id in `0..set_count()`
    /// shared by exactly the members of `i`'s set. Also returns per-label
    /// set sizes.
    pub fn labels(&mut self) -> (Vec<usize>, Vec<usize>) {
        let n = self.len();
        let mut label_of_root = vec![usize::MAX; n];
        let mut labels = vec![0usize; n];
        let mut sizes = Vec::new();
        for i in 0..n {
            let r = self.find(i);
            if label_of_root[r] == usize::MAX {
                label_of_root[r] = sizes.len();
                sizes.push(0);
            }
            labels[i] = label_of_root[r];
            sizes[labels[i]] += 1;
        }
        (labels, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        assert_eq!(uf.len(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
        assert!(!uf.same(0, 4));
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "repeat union must be a no-op");
        assert_eq!(uf.set_count(), 4);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert!(uf.union(0, 2));
        assert!(uf.same(1, 3));
        assert_eq!(uf.set_size(3), 4);
        assert_eq!(uf.set_count(), 3);
    }

    #[test]
    fn chain_unions_collapse_to_one_set() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.set_count(), 1);
        assert_eq!(uf.set_size(0), n);
        let root = uf.find(0);
        for i in 0..n {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn reset_reproduces_a_fresh_structure() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        uf.reset(5);
        assert_eq!(uf.set_count(), 5);
        assert_eq!(uf.len(), 5);
        // The same union sequence picks the same roots as on a new one.
        let mut fresh = UnionFind::new(5);
        for (a, b) in [(3, 4), (0, 4), (1, 2), (2, 0)] {
            assert_eq!(uf.union(a, b), fresh.union(a, b));
        }
        for i in 0..5 {
            assert_eq!(uf.find(i), fresh.find(i));
            assert_eq!(uf.set_size(i), fresh.set_size(i));
        }
    }

    #[test]
    fn find_const_agrees_with_find() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        for i in 0..10 {
            assert_eq!(uf.find_const(i), {
                let mut c = uf.clone();
                c.find(i)
            });
        }
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(1, 2);
        let (labels, sizes) = uf.labels();
        assert_eq!(sizes.len(), uf.set_count());
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[0], labels[5]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[4]);
        // Labels are a prefix of the naturals.
        let max = *labels.iter().max().unwrap();
        assert_eq!(max + 1, sizes.len());
        assert_eq!(sizes[labels[0]], 3);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        let (labels, sizes) = uf.labels();
        assert!(labels.is_empty());
        assert!(sizes.is_empty());
    }

    #[test]
    fn random_unions_match_reference_partition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 200;
        let mut uf = UnionFind::new(n);
        // Reference: naive partition via repeated relabeling.
        let mut label: Vec<usize> = (0..n).collect();
        for _ in 0..300 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let merged = uf.union(a, b);
            let (la, lb) = (label[a], label[b]);
            assert_eq!(merged, la != lb);
            if la != lb {
                for l in label.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                assert_eq!(uf.same(a, b), label[a] == label[b], "pair ({a},{b})");
            }
        }
    }
}
