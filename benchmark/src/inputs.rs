//! Workload inputs, generated from the `--seed` argument alone.
//!
//! The program under test receives only what these functions produce —
//! instance keys, request bodies and churn events — and, for the sweep,
//! the library's own seeded `(seed, n, trial)` point stream. Everything is
//! a pure function of the seed and the operation index, so a run is
//! repeatable and two commits measured with one seed do identical work.

use emst_core::ChurnEvent;
use emst_geom::{mix_seed, paper_phase2_radius, Point};

/// SplitMix64: a small, fixed generator for benchmark-side choices, so the
/// inputs do not change when the library's own generator does.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// The stream for `(seed, salt)`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Stream(mix_seed(seed, salt))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Instance sizes of the served mix: most requests are small, the rest put
/// a real `Sim` run and topology build on the request path.
pub const SERVE_SMALL_N: usize = 200;
/// The large size of the served mix.
pub const SERVE_LARGE_N: usize = 2000;
/// Hot seeds per size (cache hits once warm).
pub const SERVE_HOT_SEEDS: u64 = 8;
/// Requests per block of the served mix's fixed pattern.
const SERVE_BLOCK: u64 = 25;

const SALT_SERVE: u64 = 0x5E7E_0000_0000_0000;
const SALT_HOT: u64 = 0x0407;
const SALT_COLD: u64 = 0xC01D;
const SALT_CHURN: u64 = 0xC4E2_0000_0000_0000;

/// One served request's instance key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Instance size.
    pub n: usize,
    /// Generation seed sent in the request.
    pub seed: u64,
    /// Whether the seed is fresh (a cache miss by construction).
    pub cold: bool,
}

impl Key {
    /// The operating radius the request asks for.
    pub fn radius(&self) -> f64 {
        paper_phase2_radius(self.n)
    }

    /// The `POST /run` body: `ghs_modified` at the paper's radius.
    pub fn body(&self) -> String {
        format!(
            r#"{{"protocol":"ghs_modified","n":{},"seed":{},"radius":{}}}"#,
            self.n,
            self.seed,
            self.radius()
        )
    }
}

/// The key of request `i` of the served mix.
///
/// Sizes and cache misses follow a fixed pattern per block of 25 requests
/// — 20 % never-seen seeds, 20 % at the large size, one large cold key per
/// block — spread evenly through the block, so every stretch of a run
/// offers the same load and the cache holds the same mix of entries.
/// Every fifth request is large, so at the open loop's rate a large
/// request is due 20 ms after the one before it, longer than a never-seen
/// one takes (12–15 ms on the reference host): a large request waits
/// behind the one before it on its connection only when the host stalls.
/// The seed picks which hot key a hot request names.
pub fn request_key(seed: u64, i: u64) -> Key {
    let slot = i % SERVE_BLOCK;
    let cold = slot == 2 || (slot % 5 == 4 && slot != SERVE_BLOCK - 1);
    let n = if slot % 5 == 2 {
        SERVE_LARGE_N
    } else {
        SERVE_SMALL_N
    };
    let key_seed = if cold {
        mix_seed(seed ^ SALT_COLD, i)
    } else {
        hot_seed(
            seed,
            Stream::new(seed, SALT_SERVE ^ i).below(SERVE_HOT_SEEDS),
        )
    };
    Key {
        n,
        seed: key_seed,
        cold,
    }
}

fn hot_seed(seed: u64, k: u64) -> u64 {
    mix_seed(seed ^ SALT_HOT, k)
}

/// Every hot key of the mix (both sizes), for the cache warm-up.
pub fn hot_keys(seed: u64) -> Vec<Key> {
    [SERVE_SMALL_N, SERVE_LARGE_N]
        .into_iter()
        .flat_map(|n| {
            (0..SERVE_HOT_SEEDS).map(move |k| Key {
                n,
                seed: hot_seed(seed, k),
                cold: false,
            })
        })
        .collect()
}

/// Events per churn epoch: half moves, half sleep/wake toggles.
pub const CHURN_EVENTS_PER_EPOCH: usize = 20;

/// Seeded churn: each epoch moves `CHURN_EVENTS_PER_EPOCH / 2` live nodes
/// to uniform positions and toggles as many others — waking up to half of
/// the toggles' worth of sleepers and putting live nodes to sleep for the
/// rest. The id universe never grows and the sleeper pool settles at a
/// constant size after one epoch, so the cost of an epoch is stationary
/// and a longer run measures more of the same work.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    stream: Stream,
    live: Vec<bool>,
    asleep: Vec<usize>,
}

impl ChurnGen {
    /// Events for a session over `n` initially live nodes.
    pub fn new(seed: u64, n: usize) -> Self {
        ChurnGen {
            stream: Stream::new(seed, SALT_CHURN),
            live: vec![true; n],
            asleep: Vec::new(),
        }
    }

    /// The next epoch's events. Every event names a distinct node and is
    /// valid against the membership the previous epochs produced.
    pub fn next_epoch(&mut self) -> Vec<ChurnEvent> {
        let half = CHURN_EVENTS_PER_EPOCH / 2;
        let n = self.live.len() as u64;
        let mut touched = Vec::with_capacity(CHURN_EVENTS_PER_EPOCH);
        let mut events = Vec::with_capacity(CHURN_EVENTS_PER_EPOCH);
        let pick_live = |s: &mut Stream, live: &[bool], touched: &[usize]| loop {
            let u = s.below(n) as usize;
            if live[u] && !touched.contains(&u) {
                return u;
            }
        };
        for _ in 0..half {
            let u = pick_live(&mut self.stream, &self.live, &touched);
            touched.push(u);
            let p = Point::new(self.stream.next_f64(), self.stream.next_f64());
            events.push(ChurnEvent::Move(u, p));
        }
        let wakes = (half / 2).min(self.asleep.len());
        let mut woken = Vec::with_capacity(wakes);
        for _ in 0..wakes {
            let at = self.stream.below(self.asleep.len() as u64) as usize;
            let u = self.asleep.swap_remove(at);
            woken.push(u);
            events.push(ChurnEvent::Wake(u));
        }
        for _ in wakes..half {
            let u = pick_live(&mut self.stream, &self.live, &touched);
            touched.push(u);
            self.live[u] = false;
            self.asleep.push(u);
            events.push(ChurnEvent::Sleep(u));
        }
        for u in woken {
            self.live[u] = true;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::Instance;

    fn churn(seed: u64, epochs: usize) -> Vec<Vec<ChurnEvent>> {
        let mut g = ChurnGen::new(seed, 300);
        (0..epochs).map(|_| g.next_epoch()).collect()
    }

    fn bodies(seed: u64) -> Vec<String> {
        (0..200).map(|i| request_key(seed, i).body()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(churn(7, 40), churn(7, 40));
        assert_eq!(bodies(7), bodies(7));
        assert_eq!(hot_keys(7), hot_keys(7));
        for trial in [0, 1, 99] {
            assert_eq!(
                Instance::generate(7, 500, trial).points(),
                Instance::generate(7, 500, trial).points()
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(churn(7, 40), churn(8, 40));
        assert_ne!(bodies(7), bodies(8));
        assert_ne!(hot_keys(7), hot_keys(8));
        assert_ne!(
            Instance::generate(7, 500, 0).points(),
            Instance::generate(8, 500, 0).points()
        );
        // Within one seed, every trial is a fresh instance.
        assert_ne!(
            Instance::generate(7, 500, 0).points(),
            Instance::generate(7, 500, 1).points()
        );
    }

    #[test]
    fn served_mix_has_the_stated_shares_in_every_block() {
        let keys: Vec<Key> = (0..1000).map(|i| request_key(3, i)).collect();
        for block in keys.chunks(SERVE_BLOCK as usize) {
            let count = |f: &dyn Fn(&Key) -> bool| block.iter().filter(|k| f(k)).count();
            assert_eq!(count(&|k| k.n == SERVE_LARGE_N), 5);
            assert_eq!(count(&|k| k.cold), 5);
            assert_eq!(count(&|k| k.cold && k.n == SERVE_LARGE_N), 1);
        }
        let large: Vec<u64> = (0..1000)
            .filter(|&i| keys[i as usize].n == SERVE_LARGE_N)
            .collect();
        assert!(large.windows(2).all(|w| w[1] - w[0] == 5), "evenly spaced");
        let cold: Vec<u64> = keys.iter().filter(|k| k.cold).map(|k| k.seed).collect();
        let mut distinct = cold.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), cold.len(), "cold seeds never repeat");
        let hot = hot_keys(3);
        assert_eq!(hot.len(), 2 * SERVE_HOT_SEEDS as usize);
        assert!(keys.iter().filter(|k| !k.cold).all(|k| hot.contains(k)));
    }

    #[test]
    fn churn_events_stay_valid_and_stationary() {
        let n = 300;
        let mut g = ChurnGen::new(11, n);
        let mut live = vec![true; n];
        for epoch in 0..200 {
            let events = g.next_epoch();
            assert_eq!(events.len(), CHURN_EVENTS_PER_EPOCH);
            let mut ids: Vec<usize> = events
                .iter()
                .map(|e| match *e {
                    ChurnEvent::Move(u, _) | ChurnEvent::Sleep(u) | ChurnEvent::Wake(u) => u,
                    ChurnEvent::Join(_) | ChurnEvent::Crash(_) => {
                        panic!("universe must not change")
                    }
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), CHURN_EVENTS_PER_EPOCH, "one event per node");
            for e in &events {
                match *e {
                    ChurnEvent::Move(u, _) => assert!(live[u]),
                    ChurnEvent::Sleep(u) => {
                        assert!(live[u]);
                        live[u] = false;
                    }
                    ChurnEvent::Wake(u) => {
                        assert!(!live[u]);
                        live[u] = true;
                    }
                    _ => unreachable!(),
                }
            }
            if epoch > 0 {
                assert_eq!(
                    live.iter().filter(|&&l| !l).count(),
                    CHURN_EVENTS_PER_EPOCH / 2
                );
            }
        }
    }
}
