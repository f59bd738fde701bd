//! Availability: which nodes take part in round `r`, and what an absence
//! costs.
//!
//! The paper's model (§II) has every node send and listen in every
//! synchronous round. Three sources take nodes out of a round — the run's
//! [`Membership`], the adversary's [`FaultPlan`] and a low-awake
//! protocol's own sleep schedule — and one [`Availability`] per network
//! answers for all of them. The Augustine–Moses–Pandurangan sleeping
//! model (PAPERS.md) puts sleep and failure on this one per-round axis in
//! the same way.
//!
//! | Absence | Set by | Sends | Hears | Idle energy, awake rounds | Fault events |
//! |---|---|---|---|---|---|
//! | Departed | [`Membership`] (scheduled, whole run) | never: does not run, counts as done | no, silently | not charged, not counted | none |
//! | Crashed | [`FaultPlan::crash_at`] (adversarial) | no: inbox dropped, held messages time out | no: `Drop` | charged and counted | `Drop`, `Timeout` |
//! | Asleep, adversarial | [`FaultPlan::sleep_between`] | engine holds its messages and inbox | no: `Drop`, retried | charged and counted | `Drop`, `Retry` |
//! | Asleep, scheduled | low-awake [`RadioNet::sleep_node`] | never asked to (debug-asserted) | no, silently | not charged, not counted | none |
//!
//! Idle energy and awake rounds follow one predicate — a node counts
//! unless it departed or sleeps a scheduled window — so turning awake
//! tracking on never changes a charge. A scheduled window is pure
//! accounting: protocols open it only after a stage's charging round, so
//! it never gates a delivery.
//!
//! Every call site keeps asking the question it always asked; only the
//! answer lives here. The fault paths ask [`Availability::crashed`] and
//! [`Availability::down`] (and skip departed ids silently); clean
//! broadcasts ask [`Availability::hears`], which sees departures and
//! scheduled sleep only.
//!
//! **Elision.** A timeline with no departure, no adversarial entry and no
//! awake tracking is a no-op: the network stores none and clean runs
//! take the exact code paths they always did. Storage is allocated per
//! kind present, entries for ids `≥ n` are ignored, and departure and
//! crash queries are O(1).
//!
//! ```
//! use emst_geom::Point;
//! use emst_radio::{FaultPlan, Membership, RadioNet};
//! let pts: Vec<Point> = (0..4).map(|i| Point::new(0.2 * i as f64, 0.5)).collect();
//! let mut net = RadioNet::new(&pts, 0.3);
//! let mut members = Membership::all_live(4);
//! members.leave(2);
//! net.set_members(&members);
//! net.set_faults(FaultPlan::none().crash_at(1, 5).sleep_between(3, 2, 4));
//! net.track_awake();
//! net.sleep_node(0, 6, 9); // scheduled: node 0 sleeps rounds 6..9
//! let av = net.availability().expect("something is absent");
//! assert!(av.departed(2) && !av.hears(2, 0));
//! assert!(!av.crashed(1, 4) && av.crashed(1, 5));
//! assert!(av.down(3, 3) && !av.down(3, 4));
//! assert!(av.hears(3, 3), "adversarial sleep is the fault paths' business");
//! // Rounds 0..10: node 2 departed and node 0 sleeps 3 of them; the
//! // crashed and the adversarially asleep node still count.
//! net.advance_rounds(10);
//! let awake = net.awake_stats().expect("tracked");
//! assert_eq!((awake.total, awake.max_per_node), (10 + 10 + 7, 10));
//! ```
//!
//! [`RadioNet::sleep_node`]: crate::RadioNet::sleep_node

use crate::fault::FaultPlan;
use crate::membership::Membership;

/// Aggregate awake-round read-outs of a run, reported next to energy in
/// `RunStats` when awake rounds are tracked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AwakeStats {
    /// Total awake node-rounds summed over every node.
    pub total: u64,
    /// The largest per-node awake-round count — the awake complexity of
    /// the run in the Augustine–Moses–Pandurangan sense.
    pub max_per_node: u64,
}

/// Half-open round window `[from, to)`; `from >= to` is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Window {
    from: u64,
    to: u64,
}

impl Window {
    /// The empty window that any window widens to itself.
    const NONE: Window = Window {
        from: u64::MAX,
        to: 0,
    };

    #[inline]
    fn contains(&self, round: u64) -> bool {
        self.from <= round && round < self.to
    }

    /// Rounds of `[lo, hi)` covered by this window.
    #[inline]
    fn overlap(&self, lo: u64, hi: u64) -> u64 {
        self.to.min(hi).saturating_sub(self.from.max(lo))
    }
}

/// Scheduled sleep windows and awake-round counters, present only while
/// awake rounds are tracked.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tracking {
    /// One pending window per node; the clock advance consumes it, so a
    /// later [`Availability::sleep`] replaces the spent one.
    windows: Vec<Window>,
    rounds: Vec<u64>,
    /// Earliest window start / latest window end over all nodes: answers
    /// "might anyone sleep at round r?" in O(1).
    span: Window,
}

/// The per-node availability timeline of one network (see the module
/// docs for the semantics table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Availability {
    n: usize,
    /// Departure per id; empty when nobody departed.
    departed: Vec<bool>,
    departed_count: usize,
    /// Crash round per id (`u64::MAX`: never); empty without crashes.
    crash: Vec<u64>,
    /// The adversary's sleep windows, sorted by id.
    sleeps: Vec<(u32, Window)>,
    tracking: Option<Tracking>,
}

impl Availability {
    /// Everyone present in every round, nothing tracked.
    pub(crate) fn new(n: usize) -> Self {
        Availability {
            n,
            departed: Vec::new(),
            departed_count: 0,
            crash: Vec::new(),
            sleeps: Vec::new(),
            tracking: None,
        }
    }

    /// Takes the departures from `members`: every id below `n` that is
    /// not live. An all-live membership departs nobody.
    pub(crate) fn set_departures(&mut self, members: &Membership) {
        self.departed.clear();
        self.departed_count = 0;
        if members.is_all_live() {
            return;
        }
        self.departed = (0..self.n).map(|u| !members.is_live(u)).collect();
        self.departed_count = self.departed.iter().filter(|&&d| d).count();
        if self.departed_count == 0 {
            self.departed = Vec::new();
        }
    }

    /// Takes the adversary's crashes and sleep windows from `plan`,
    /// replacing any taken before. Its link coins stay with the plan.
    pub(crate) fn set_adversary(&mut self, plan: &FaultPlan) {
        let n = self.n;
        self.crash.clear();
        for &(u, round) in plan.crashes().iter().filter(|&&(u, _)| u < n) {
            if self.crash.is_empty() {
                self.crash = vec![u64::MAX; n];
            }
            self.crash[u] = self.crash[u].min(round);
        }
        self.sleeps = plan
            .sleeps()
            .iter()
            .filter(|&&(u, _, _)| u < n)
            .map(|&(u, from, to)| (u as u32, Window { from, to }))
            .collect();
        self.sleeps.sort_by_key(|&(u, _)| u);
    }

    /// Starts counting awake rounds (idempotent) and lets a protocol
    /// schedule sleep windows.
    pub(crate) fn track_awake(&mut self) {
        let n = self.n;
        self.tracking.get_or_insert_with(|| Tracking {
            windows: vec![Window::default(); n],
            rounds: vec![0; n],
            span: Window::NONE,
        });
    }

    /// Whether awake rounds are tracked.
    #[inline]
    pub fn is_tracking(&self) -> bool {
        self.tracking.is_some()
    }

    /// True when the timeline says nothing: nobody departed, the
    /// adversary has no crash or sleep entry, and awake rounds are not
    /// tracked.
    pub(crate) fn is_noop(&self) -> bool {
        self.departed_count == 0
            && self.crash.is_empty()
            && self.sleeps.is_empty()
            && self.tracking.is_none()
    }

    /// Whether any id departed.
    #[inline]
    pub fn has_departures(&self) -> bool {
        self.departed_count > 0
    }

    /// Whether `u` departed: it never runs for the whole run.
    #[inline]
    pub fn departed(&self, u: usize) -> bool {
        self.departed.get(u).copied().unwrap_or(false)
    }

    /// Whether the adversary has crashed `u` by `round`.
    #[inline]
    pub fn crashed(&self, u: usize, round: u64) -> bool {
        self.crash.get(u).is_some_and(|&c| round >= c)
    }

    /// Whether the adversary has `u` down at `round`: crashed, or inside
    /// one of its sleep windows.
    pub fn down(&self, u: usize, round: u64) -> bool {
        if self.crashed(u, round) {
            return true;
        }
        let start = self.sleeps.partition_point(|&(v, _)| (v as usize) < u);
        self.sleeps[start..]
            .iter()
            .take_while(|&&(v, _)| v as usize == u)
            .any(|(_, w)| w.contains(round))
    }

    /// Whether `u` sleeps a scheduled window at `round`.
    #[inline]
    pub fn scheduled_asleep(&self, u: usize, round: u64) -> bool {
        self.tracking
            .as_ref()
            .is_some_and(|t| t.windows[u].contains(round))
    }

    /// Whether `u` hears a clean transmission at `round`: it has not
    /// departed and sleeps no scheduled window. (Crashes and adversarial
    /// sleep are the fault paths' business.)
    #[inline]
    pub fn hears(&self, u: usize, round: u64) -> bool {
        !self.departed(u) && !self.scheduled_asleep(u, round)
    }

    /// Whether some node might not hear a clean transmission at `round`
    /// (conservative: never false when one does not). Lets the broadcast
    /// paths skip per-receiver checks when everyone hears.
    #[inline]
    pub(crate) fn filters_at(&self, round: u64) -> bool {
        self.has_departures()
            || self
                .tracking
                .as_ref()
                .is_some_and(|t| t.span.contains(round))
    }

    /// Schedules node `u` to sleep rounds `[from, to)`, replacing its
    /// previous window; an empty range clears it.
    ///
    /// # Panics
    ///
    /// If awake rounds are not tracked.
    pub(crate) fn sleep(&mut self, u: usize, from: u64, to: u64) {
        let t = self
            .tracking
            .as_mut()
            .expect("scheduled sleep requires awake tracking");
        t.windows[u] = Window { from, to };
        if from < to {
            t.span = Window {
                from: t.span.from.min(from),
                to: t.span.to.max(to),
            };
        }
    }

    /// Accounts the clock advancing from `from` to `to` (half-open) and
    /// returns the node-rounds that draw idle power: every node that has
    /// not departed, minus the rounds it sleeps a scheduled window. When
    /// tracking, each node's awake counter accrues its share.
    pub(crate) fn on_advance(&mut self, from: u64, to: u64) -> u64 {
        let k = to.saturating_sub(from);
        let Some(t) = self.tracking.as_mut() else {
            return k * (self.n - self.departed_count) as u64;
        };
        // No window can intersect the range: every present node is awake.
        let all_awake = t.span.overlap(from, to) == 0;
        let mut accrued = 0u64;
        for u in 0..self.n {
            if self.departed.get(u).copied().unwrap_or(false) {
                continue;
            }
            let inc = if all_awake {
                k
            } else {
                k - t.windows[u].overlap(from, to)
            };
            t.rounds[u] += inc;
            accrued += inc;
        }
        accrued
    }

    /// Aggregate awake read-outs; `None` unless tracking.
    pub fn awake_stats(&self) -> Option<AwakeStats> {
        self.tracking.as_ref().map(|t| AwakeStats {
            total: t.rounds.iter().sum(),
            max_per_node: t.rounds.iter().copied().max().unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked(n: usize) -> Availability {
        let mut av = Availability::new(n);
        av.track_awake();
        av
    }

    #[test]
    fn a_fresh_timeline_is_a_noop_until_something_is_set() {
        let mut av = Availability::new(3);
        assert!(av.is_noop());
        av.set_departures(&Membership::all_live(3));
        av.set_adversary(&FaultPlan::none().drop_probability(0.5));
        assert!(av.is_noop(), "all-live members and link loss say nothing");
        assert_eq!(av.on_advance(0, 4), 12);
        av.track_awake();
        assert!(!av.is_noop());
    }

    #[test]
    fn all_awake_accrues_every_round() {
        let mut av = tracked(4);
        assert_eq!(av.on_advance(0, 7), 28);
        assert_eq!(
            av.awake_stats(),
            Some(AwakeStats {
                total: 28,
                max_per_node: 7
            })
        );
    }

    #[test]
    fn scheduled_sleep_subtracts_exactly_its_overlap() {
        let mut av = tracked(2);
        av.sleep(1, 3, 8);
        assert!(av.filters_at(3) && !av.filters_at(8));
        assert!(av.scheduled_asleep(1, 3) && !av.hears(1, 7) && av.hears(1, 8));
        // 0..5: node 1 sleeps rounds 3 and 4; 5..10: rounds 5, 6 and 7.
        assert_eq!(av.on_advance(0, 5), 5 + 3);
        assert_eq!(av.on_advance(5, 10), 5 + 2);
        assert_eq!(av.awake_stats().unwrap().total, 15);
        av.sleep(0, 5, 5); // empty: clears
        assert!(av.hears(0, 5));
    }

    #[test]
    fn departures_are_never_counted_and_never_hear() {
        let mut members = Membership::all_live(3);
        members.leave(1);
        let mut av = Availability::new(3);
        av.set_departures(&members);
        assert!(av.has_departures() && av.filters_at(0));
        assert!(av.departed(1) && !av.departed(0) && !av.departed(99));
        assert_eq!(av.on_advance(0, 4), 8);
        av.track_awake();
        assert_eq!(av.on_advance(4, 8), 8);
        assert_eq!(av.awake_stats().unwrap().total, 8);
    }

    #[test]
    fn the_adversary_counts_and_ignores_foreign_ids() {
        let plan = FaultPlan::none()
            .crash_at(3, 10)
            .crash_at(3, 7)
            .crash_at(99, 0)
            .sleep_between(1, 2, 6)
            .sleep_between(1, 8, 9)
            .sleep_between(50, 0, 9);
        let mut av = tracked(5);
        av.set_adversary(&plan);
        assert!(!av.crashed(3, 6) && av.crashed(3, 7), "earliest crash wins");
        assert!(!av.crashed(4, 1000) && !av.crashed(99, 1000));
        assert!(av.down(1, 2) && av.down(1, 5) && !av.down(1, 6) && av.down(1, 8));
        assert!(av.down(3, 7), "crashed implies down");
        assert!(av.hears(1, 3) && av.hears(3, 50));
        // Crashed and adversarially asleep nodes still draw idle power.
        assert_eq!(av.on_advance(0, 10), 50);
        av.set_adversary(&FaultPlan::none());
        assert!(!av.down(1, 2) && !av.crashed(3, 50));
    }
}
