//! Deterministic fault injection for the radio layer.
//!
//! The paper assumes loss-free delivery (§II) and defers unreliable
//! channels to future work (§VIII); related work (Augustine–Moses–
//! Pandurangan's sleeping nodes, Chang's energy-charged listening) makes
//! robustness a first-class axis. A [`FaultPlan`] describes three fault
//! classes:
//!
//! * **message drops** — every (sender, receiver) delivery in round `r`
//!   independently fails with probability `p`;
//! * **crashes** — a node stops participating permanently from a given
//!   round on (it neither sends, receives, nor retries);
//! * **sleep windows** — a node misses all traffic during `[from, to)`
//!   rounds but transmits queued messages once awake again.
//!
//! The plan describes the adversary. At run time it answers only the link
//! question ([`FaultPlan::drop_coin`]); a network hands its crashes and
//! sleep windows to the one availability timeline
//! ([`crate::Availability`]), which also holds departures and scheduled
//! sleep, so all of them compose on one network.
//!
//! Drop coins are *stateless*: each is derived by hashing
//! `(seed, round, sender, receiver)` through the splitmix64 finalizer, so
//! outcomes are independent of execution order, thread count, and of the
//! ALOHA backoff RNG (the coin stream and the backoff stream are
//! domain-separated — see [`fault_stream_seed`] / [`backoff_stream_seed`]).

/// splitmix64 finalizer — the same avalanching mix used by
/// `emst_geom::mix_seed` for the trial fan-out, duplicated here so
/// `emst-radio` stays free of a geometry dependency for RNG plumbing.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain tag for the fault-coin stream.
const FAULT_DOMAIN: u64 = 0xFA17_7C01_4D0B_0001;
/// Domain tag for the ALOHA backoff stream.
const BACKOFF_DOMAIN: u64 = 0xBAC0_FF5E_ED5A_0002;

/// Derives the fault-coin stream seed from a user seed. Domain-separated
/// from [`backoff_stream_seed`] so loss coins cannot correlate with
/// backoff coins even when both layers are configured with the same seed.
#[inline]
pub fn fault_stream_seed(seed: u64) -> u64 {
    mix64(seed ^ FAULT_DOMAIN)
}

/// Derives the ALOHA backoff RNG seed from a user seed (see
/// [`fault_stream_seed`] for why the two streams are separated).
#[inline]
pub fn backoff_stream_seed(seed: u64) -> u64 {
    mix64(seed ^ BACKOFF_DOMAIN)
}

/// What went wrong with one transmission attempt or message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A delivery to one receiver failed (coin, sleeping or crashed
    /// receiver).
    Drop,
    /// A sender retransmitted a message some receiver had not confirmed.
    Retry,
    /// A message was abandoned: its sender crashed, or the retry budget
    /// ran out with receivers still waiting.
    Timeout,
}

impl FaultKind {
    /// Stable lowercase label used by the streaming sinks.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Retry => "retry",
            FaultKind::Timeout => "timeout",
        }
    }
}

/// Running counts of fault events observed by a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Failed deliveries (per receiver).
    pub drops: u64,
    /// Retransmissions (per extra attempt).
    pub retries: u64,
    /// Abandoned messages (sender crash or retry budget exhausted).
    pub timeouts: u64,
}

impl FaultStats {
    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.drops += other.drops;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
    }

    /// Bumps the counter for `kind`.
    pub(crate) fn note(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Drop => self.drops += 1,
            FaultKind::Retry => self.retries += 1,
            FaultKind::Timeout => self.timeouts += 1,
        }
    }

    /// True when no fault event was observed.
    pub fn is_clean(&self) -> bool {
        self.drops == 0 && self.retries == 0 && self.timeouts == 0
    }
}

/// A deterministic fault schedule for one protocol run.
///
/// Construct with builder calls; [`FaultPlan::none`] (or a default plan)
/// injects nothing and is guaranteed zero-cost: a network handed a no-op
/// plan stores nothing and takes the exact code paths of a fault-free run.
///
/// ```
/// use emst_radio::FaultPlan;
/// let plan = FaultPlan::none()
///     .drop_probability(0.05)
///     .seed(42)
///     .retries(4)
///     .crash_at(7, 100);
/// assert!(!plan.is_noop());
/// assert_eq!(plan.crashes(), &[(7, 100)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    drop_p: f64,
    seed: u64,
    /// Cached domain-separated coin stream seed.
    stream: u64,
    max_retries: u32,
    /// `(node, round)` — node crashes at the start of `round`.
    crash: Vec<(usize, u64)>,
    /// `(node, from, to)` — node sleeps during rounds `[from, to)`.
    sleep: Vec<(usize, u64, u64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no drops, no crashes, no sleep.
    pub fn none() -> Self {
        FaultPlan {
            drop_p: 0.0,
            seed: 0,
            stream: fault_stream_seed(0),
            max_retries: 3,
            crash: Vec::new(),
            sleep: Vec::new(),
        }
    }

    /// Sets the per-(sender, receiver, round) message-drop probability.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability {p} ∉ [0,1]");
        self.drop_p = p;
        self
    }

    /// Sets the coin-stream seed (domain-mixed internally).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.stream = fault_stream_seed(seed);
        self
    }

    /// Sets the retry budget: a message is retransmitted at most this many
    /// times beyond the first attempt before being abandoned.
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Crashes `node` permanently at the start of `round`.
    pub fn crash_at(mut self, node: usize, round: u64) -> Self {
        self.crash.push((node, round));
        self
    }

    /// Puts `node` to sleep during rounds `[from, to)`.
    pub fn sleep_between(mut self, node: usize, from: u64, to: u64) -> Self {
        assert!(from < to, "empty sleep window [{from}, {to})");
        self.sleep.push((node, from, to));
        self
    }

    /// True when the plan injects nothing (and may be elided entirely).
    pub fn is_noop(&self) -> bool {
        self.drop_p == 0.0 && self.crash.is_empty() && self.sleep.is_empty()
    }

    /// The configured drop probability.
    #[inline]
    pub fn drop_p(&self) -> f64 {
        self.drop_p
    }

    /// The configured retry budget.
    #[inline]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The user-facing seed.
    #[inline]
    pub fn coin_seed(&self) -> u64 {
        self.seed
    }

    /// The crash schedule: `(node, round)` pairs in insertion order.
    #[inline]
    pub fn crashes(&self) -> &[(usize, u64)] {
        &self.crash
    }

    /// The sleep schedule: `(node, from, to)` windows in insertion order.
    #[inline]
    pub fn sleeps(&self) -> &[(usize, u64, u64)] {
        &self.sleep
    }

    /// Number of discrete fault entries in the plan: one per crash, one
    /// per sleep window, plus one when a drop probability is set. The
    /// chaos shrinker minimises this count.
    pub fn entry_count(&self) -> usize {
        self.crash.len() + self.sleep.len() + usize::from(self.drop_p > 0.0)
    }

    /// Renders the plan as a copy-pastable builder expression — the chaos
    /// harness prints minimised failing plans in this form so a reproducer
    /// can be dropped straight into a test:
    ///
    /// ```
    /// use emst_radio::FaultPlan;
    /// let plan = FaultPlan::none().seed(7).drop_probability(0.2).crash_at(3, 9);
    /// assert_eq!(
    ///     plan.to_source(),
    ///     "FaultPlan::none().seed(7).retries(3).drop_probability(0.2).crash_at(3, 9)"
    /// );
    /// ```
    ///
    /// Float formatting uses `{:?}` (shortest round-tripping form), so the
    /// rebuilt plan draws bit-identical coins.
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "FaultPlan::none().seed({}).retries({})",
            self.seed, self.max_retries
        );
        if self.drop_p > 0.0 {
            write!(s, ".drop_probability({:?})", self.drop_p).unwrap();
        }
        for &(node, round) in &self.crash {
            write!(s, ".crash_at({node}, {round})").unwrap();
        }
        for &(node, from, to) in &self.sleep {
            write!(s, ".sleep_between({node}, {from}, {to})").unwrap();
        }
        s
    }

    /// The stateless drop coin for delivery `(src → dst)` in `round`:
    /// `true` means the message is lost. Independent of call order and of
    /// every other RNG stream in the system.
    #[inline]
    pub fn drop_coin(&self, round: u64, src: usize, dst: usize) -> bool {
        if self.drop_p <= 0.0 {
            return false;
        }
        if self.drop_p >= 1.0 {
            return true;
        }
        let mut h = self.stream;
        h = mix64(h ^ round);
        h = mix64(h ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = mix64(h ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.drop_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_is_noop() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::none().seed(99).retries(7).is_noop());
        assert!(!FaultPlan::none().drop_probability(0.01).is_noop());
        assert!(!FaultPlan::none().crash_at(0, 5).is_noop());
        assert!(!FaultPlan::none().sleep_between(0, 2, 4).is_noop());
    }

    #[test]
    fn drop_coin_is_stateless_and_seed_sensitive() {
        let a = FaultPlan::none().drop_probability(0.5).seed(1);
        // Same arguments, same coin, however many times it is asked.
        for round in 0..50u64 {
            for (s, d) in [(0usize, 1usize), (3, 7)] {
                assert_eq!(a.drop_coin(round, s, d), a.drop_coin(round, s, d));
            }
        }
        // Direction matters (src→dst vs dst→src are distinct links).
        let diff = (0..200u64)
            .filter(|&r| a.drop_coin(r, 2, 9) != a.drop_coin(r, 9, 2))
            .count();
        assert!(diff > 0, "link coins must be directional");
        // Different seeds give different streams.
        let b = FaultPlan::none().drop_probability(0.5).seed(2);
        let differs = (0..200u64)
            .filter(|&r| a.drop_coin(r, 0, 1) != b.drop_coin(r, 0, 1))
            .count();
        assert!(differs > 40, "seeds must decorrelate streams ({differs})");
    }

    #[test]
    fn drop_coin_rate_matches_probability() {
        let plan = FaultPlan::none().drop_probability(0.2).seed(77);
        let trials = 20_000u64;
        let drops = (0..trials)
            .filter(|&r| plan.drop_coin(r, (r % 13) as usize, (r % 17) as usize))
            .count();
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
        assert!(!FaultPlan::none().drop_coin(0, 0, 1), "p=0 never drops");
        let always = FaultPlan::none().drop_probability(1.0);
        assert!(always.drop_coin(0, 0, 1), "p=1 always drops");
    }

    #[test]
    fn fault_and_backoff_streams_are_domain_separated() {
        // Same user seed must yield unrelated stream seeds…
        for seed in [0u64, 1, 42, 0x5EED_3AC1, u64::MAX] {
            assert_ne!(fault_stream_seed(seed), backoff_stream_seed(seed));
        }
        // …and the derived bit sequences must be uncorrelated, not merely
        // offset: compare the low bits of successive mixes of each stream.
        let seed = 0x5EED_3AC1u64;
        let (mut f, mut b) = (fault_stream_seed(seed), backoff_stream_seed(seed));
        let mut agree = 0u32;
        for _ in 0..256 {
            f = mix64(f);
            b = mix64(b);
            if (f & 1) == (b & 1) {
                agree += 1;
            }
        }
        assert!(
            (64..=192).contains(&agree),
            "streams correlate: {agree}/256 bit agreements"
        );
    }

    #[test]
    fn fault_stats_merge_and_note() {
        let mut s = FaultStats::default();
        assert!(s.is_clean());
        s.note(FaultKind::Drop);
        s.note(FaultKind::Retry);
        s.note(FaultKind::Retry);
        s.note(FaultKind::Timeout);
        let mut t = FaultStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.drops, 2);
        assert_eq!(t.retries, 4);
        assert_eq!(t.timeouts, 2);
        assert!(!t.is_clean());
    }

    #[test]
    fn fault_kind_labels() {
        assert_eq!(FaultKind::Drop.label(), "drop");
        assert_eq!(FaultKind::Retry.label(), "retry");
        assert_eq!(FaultKind::Timeout.label(), "timeout");
    }

    #[test]
    #[should_panic(expected = "∉ [0,1]")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::none().drop_probability(1.5);
    }

    #[test]
    fn schedules_are_observable_and_counted() {
        let plan = FaultPlan::none()
            .drop_probability(0.1)
            .crash_at(3, 10)
            .crash_at(8, 2)
            .sleep_between(5, 2, 6);
        assert_eq!(plan.crashes(), &[(3, 10), (8, 2)]);
        assert_eq!(plan.sleeps(), &[(5, 2, 6)]);
        assert_eq!(plan.entry_count(), 4);
        assert_eq!(FaultPlan::none().entry_count(), 0);
        assert_eq!(FaultPlan::none().retries(9).entry_count(), 0);
    }

    #[test]
    fn to_source_round_trips_bitwise() {
        // The printed builder expression, re-evaluated, must equal the
        // plan — including the exact drop-probability bits, so the
        // reproducer draws the same coin stream.
        let plan = FaultPlan::none()
            .seed(0xC0FFEE)
            .retries(5)
            .drop_probability(0.07 + 0.13) // a value with a long decimal tail
            .crash_at(1, 4)
            .sleep_between(2, 3, 9);
        let rebuilt = FaultPlan::none()
            .seed(0xC0FFEE)
            .retries(5)
            .drop_probability(0.07 + 0.13)
            .crash_at(1, 4)
            .sleep_between(2, 3, 9);
        assert_eq!(plan, rebuilt);
        let src = plan.to_source();
        assert!(src.starts_with("FaultPlan::none().seed(12648430).retries(5)"));
        assert!(src.contains(".crash_at(1, 4)"));
        assert!(src.contains(".sleep_between(2, 3, 9)"));
        // The shortest round-trip form of 0.07+0.13 re-parses to the same
        // bits.
        let printed = format!("{:?}", 0.07f64 + 0.13f64);
        let reparsed: f64 = printed.parse().unwrap();
        assert_eq!(reparsed.to_bits(), (0.07f64 + 0.13f64).to_bits());
    }
}
