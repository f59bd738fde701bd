//! Node membership and lifecycle: which nodes currently participate in
//! the protocol, and how that set evolves across maintenance epochs.
//!
//! Every layer below this module historically assumed the implicit node
//! set `0..n`: topology rows, broadcast delivery, fault coins and the
//! GHS arenas were all indexed by a fixed array that never grew or
//! shrank. A [`Membership`] makes the live set explicit: node ids stay
//! *stable for the lifetime of the simulation* (a departed node keeps
//! its id and position slot), while the membership tracks which ids are
//! currently live and an epoch counter that advances once per
//! maintenance step.
//!
//! **Determinism contract.** A membership in which every id is live is
//! a *no-op*: [`RadioNet::set_members`](crate::RadioNet::set_members)
//! departs nobody, so static-topology runs take byte-identical code
//! paths and ledgers, traces and golden fixtures are unchanged by this
//! layer's existence.
//!
//! A network takes its departures from the membership into the one
//! availability timeline ([`crate::Availability`]), next to the fault
//! plan's crashes and sleep windows and a low-awake protocol's scheduled
//! sleep, so churn, faults and sleep compose on one network. The fault
//! plan's coin streams are keyed by node id, not array position, so they
//! stay stable under churn by construction.

/// The live set of a long-running simulation: stable node ids, the live
/// ids in ascending order, and an epoch counter.
///
/// ```
/// use emst_radio::Membership;
/// let mut m = Membership::all_live(4);
/// assert!(m.is_all_live());
/// m.leave(2);
/// m.advance_epoch();
/// assert_eq!(m.epoch(), 1);
/// assert_eq!(m.live_ids(), &[0, 1, 3]);
/// let joined = m.admit(4); // brand-new id grows the universe
/// assert_eq!(joined, 4);
/// assert_eq!(m.live_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Maintenance epoch: advanced once per churn step by the driver.
    epoch: u64,
    /// Liveness per node id (`alive.len()` = the id universe size).
    alive: Vec<bool>,
    /// Live ids in ascending order — the deterministic iteration order
    /// for every membership-aware stage.
    live: Vec<u32>,
}

impl Membership {
    /// A membership over ids `0..n`, all live, at epoch 0.
    pub fn all_live(n: usize) -> Self {
        Membership {
            epoch: 0,
            alive: vec![true; n],
            live: (0..n as u32).collect(),
        }
    }

    /// Size of the id universe (live and dead ids together).
    #[inline]
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Current maintenance epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch counter by one (the churn driver calls this
    /// once per maintenance step; epochs are monotone by construction).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Whether id `u` is currently live. Ids beyond the universe are dead.
    #[inline]
    pub fn is_live(&self, u: usize) -> bool {
        self.alive.get(u).copied().unwrap_or(false)
    }

    /// Number of live ids.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Live ids in ascending order.
    #[inline]
    pub fn live_ids(&self) -> &[u32] {
        &self.live
    }

    /// Whether every id in the universe is live — the no-op predicate
    /// under which the membership is elided from a network.
    pub fn is_all_live(&self) -> bool {
        self.live.len() == self.alive.len()
    }

    /// Marks id `u` dead (crash or sleep — the distinction lives in the
    /// churn driver; the network only needs liveness). Idempotent.
    pub fn leave(&mut self, u: usize) {
        if !self.is_live(u) {
            return;
        }
        self.alive[u] = false;
        let pos = self.live.partition_point(|&v| (v as usize) < u);
        self.live.remove(pos);
    }

    /// Marks id `u` live, growing the universe when `u` is a brand-new id
    /// (joins take the next free slot; re-admitting a sleeper reuses its
    /// stable id). Returns `u`. Idempotent for already-live ids.
    pub fn admit(&mut self, u: usize) -> usize {
        if u >= self.alive.len() {
            self.alive.resize(u + 1, false);
        }
        if self.alive[u] {
            return u;
        }
        self.alive[u] = true;
        let pos = self.live.partition_point(|&v| (v as usize) < u);
        self.live.insert(pos, u as u32);
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_live_is_noop() {
        let m = Membership::all_live(5);
        assert!(m.is_all_live());
        assert_eq!(m.n(), 5);
        assert_eq!(m.live_count(), 5);
        assert_eq!(m.epoch(), 0);
        for u in 0..5 {
            assert!(m.is_live(u));
        }
        assert!(!m.is_live(5), "ids beyond the universe are dead");
    }

    #[test]
    fn leave_removes_the_id() {
        let mut m = Membership::all_live(6);
        m.leave(1);
        m.leave(4);
        assert!(!m.is_all_live());
        assert_eq!(m.live_ids(), &[0, 2, 3, 5]);
        assert!(!m.is_live(1) && !m.is_live(4) && m.is_live(5));
        m.leave(1); // idempotent
        assert_eq!(m.live_count(), 4);
    }

    #[test]
    fn admit_revives_and_grows() {
        let mut m = Membership::all_live(3);
        m.leave(1);
        assert_eq!(m.admit(1), 1, "sleeper keeps its stable id");
        assert!(m.is_all_live());
        assert_eq!(m.live_ids(), &[0, 1, 2]);
        assert_eq!(m.admit(5), 5, "join grows the universe");
        assert_eq!(m.n(), 6);
        assert!(!m.is_all_live(), "id 3 and 4 were never admitted");
        assert_eq!(m.live_ids(), &[0, 1, 2, 5]);
        m.admit(5); // idempotent
        assert_eq!(m.live_count(), 4);
    }

    #[test]
    fn epochs_are_monotone() {
        let mut m = Membership::all_live(2);
        for k in 1..=5 {
            m.advance_epoch();
            assert_eq!(m.epoch(), k);
        }
    }

    #[test]
    fn churn_round_trip_keeps_live_ids_consistent() {
        let mut m = Membership::all_live(8);
        for &u in &[0usize, 3, 7, 2] {
            m.leave(u);
        }
        for &u in &[3usize, 9, 0] {
            m.admit(u);
        }
        let live: Vec<u32> = (0..m.n() as u32)
            .filter(|&u| m.is_live(u as usize))
            .collect();
        assert_eq!(m.live_ids(), &live[..]);
        assert_eq!(m.live_count(), m.live_ids().len());
    }
}
