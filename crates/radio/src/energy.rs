//! Energy accounting.
//!
//! The paper's headline metric is the **energy complexity** `Σᵢ wᵢ` where
//! `wᵢ` is the weight (radiated energy) of the edge carrying the i-th
//! message (§II). The [`EnergyLedger`] tracks that sum exactly, broken down
//! by message kind so experiments can attribute energy to protocol stages
//! (initiate vs test vs report vs announce, …).

use std::fmt;

/// Message count and accumulated energy for one message kind, or, as a
/// [`TraceSink`](crate::TraceSink), for a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Number of transmissions.
    pub messages: u64,
    /// Total radiated energy.
    pub energy: f64,
}

impl Tally {
    pub(crate) fn add(&mut self, energy: f64) {
        self.messages += 1;
        self.energy += energy;
    }

    fn merge(&mut self, other: &Tally) {
        self.messages += other.messages;
        self.energy += other.energy;
    }
}

/// Accumulates messages and energy, per message kind and in total.
///
/// Kinds are `&'static str` labels chosen by the protocols
/// (`"ghs/initiate"`, `"nnt/request"`, …). The per-kind table is a small
/// `Vec` kept sorted by label, so reports stay deterministic while the
/// per-message hot path is a memoized index check instead of a tree walk
/// — a run only ever touches a dozen kinds but charges millions of
/// messages, and protocols charge long runs of the same kind.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    total: Tally,
    /// `(kind, tally)` pairs sorted by kind label.
    by_kind: Vec<(&'static str, Tally)>,
    /// Index of the most recently charged kind (perf memo only; validated
    /// by label comparison before use).
    last: usize,
    /// Reception cost (extended model; zero under the paper's §II model).
    rx: Tally,
    /// Idle/listen cost (extended model; zero under the paper's §II model).
    idle: Tally,
}

impl EnergyLedger {
    /// Fresh empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transmission of the given kind and energy.
    pub fn charge(&mut self, kind: &'static str, energy: f64) {
        debug_assert!(
            energy.is_finite() && energy >= 0.0,
            "bad energy charge {energy} for kind {kind}"
        );
        self.total.add(energy);
        if let Some(entry) = self.by_kind.get_mut(self.last) {
            if entry.0 == kind {
                entry.1.add(energy);
                return;
            }
        }
        let idx = self.kind_index(kind);
        self.by_kind[idx].1.add(energy);
        self.last = idx;
    }

    /// Index of `kind` in the sorted table, inserting a zero tally if absent.
    fn kind_index(&mut self, kind: &'static str) -> usize {
        match self.by_kind.binary_search_by(|e| e.0.cmp(kind)) {
            Ok(i) => i,
            Err(i) => {
                self.by_kind.insert(i, (kind, Tally::default()));
                i
            }
        }
    }

    /// Total *radiated* (transmit) energy over all messages so far — the
    /// paper's energy-complexity metric.
    #[inline]
    pub fn total_energy(&self) -> f64 {
        self.total.energy
    }

    /// Records `count` receptions at `energy_each` per reception (the
    /// extended model of §VIII; the paper's model has zero rx cost).
    pub fn charge_rx(&mut self, count: u64, energy_each: f64) {
        debug_assert!(energy_each >= 0.0 && energy_each.is_finite());
        self.rx.messages += count;
        self.rx.energy += count as f64 * energy_each;
    }

    /// Records idle/listen energy (extended model).
    pub fn charge_idle(&mut self, energy: f64) {
        debug_assert!(energy >= 0.0 && energy.is_finite());
        self.idle.messages += 1;
        self.idle.energy += energy;
    }

    /// Total reception energy (0 under the paper's model).
    #[inline]
    pub fn rx_energy(&self) -> f64 {
        self.rx.energy
    }

    /// Number of receptions recorded.
    #[inline]
    pub fn rx_count(&self) -> u64 {
        self.rx.messages
    }

    /// Total idle/listen energy (0 under the paper's model).
    #[inline]
    pub fn idle_energy(&self) -> f64 {
        self.idle.energy
    }

    /// Whole-radio energy: transmit + receive + idle.
    #[inline]
    pub fn full_energy(&self) -> f64 {
        self.total.energy + self.rx.energy + self.idle.energy
    }

    /// Total number of transmissions so far.
    #[inline]
    pub fn total_messages(&self) -> u64 {
        self.total.messages
    }

    /// Tally for one message kind (zero tally if never charged).
    pub fn kind(&self, kind: &str) -> Tally {
        match self.by_kind.binary_search_by(|e| e.0.cmp(kind)) {
            Ok(i) => self.by_kind[i].1,
            Err(_) => Tally::default(),
        }
    }

    /// Iterates `(kind, tally)` in deterministic (sorted) order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &Tally)> {
        self.by_kind.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another ledger into this one (used when a protocol composes
    /// sub-protocols that ran on separate network handles).
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.total.merge(&other.total);
        self.rx.merge(&other.rx);
        self.idle.merge(&other.idle);
        for &(k, ref v) in &other.by_kind {
            let idx = self.kind_index(k);
            self.by_kind[idx].1.merge(v);
        }
    }

    /// Energy attributed to kinds whose label starts with `prefix` —
    /// protocols namespace their kinds (`"ghs/…"`, `"nnt/…"`).
    pub fn energy_with_prefix(&self, prefix: &str) -> f64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.energy)
            .sum()
    }

    /// Messages attributed to kinds whose label starts with `prefix`.
    pub fn messages_with_prefix(&self, prefix: &str) -> u64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.messages)
            .sum()
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total: {} msgs, {:.6} energy",
            self.total.messages, self.total.energy
        )?;
        for (k, t) in &self.by_kind {
            writeln!(
                f,
                "  {k:<24} {:>10} msgs  {:>12.6} energy",
                t.messages, t.energy
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut l = EnergyLedger::new();
        l.charge("a", 0.25);
        l.charge("a", 0.25);
        l.charge("b", 1.0);
        assert_eq!(l.total_messages(), 3);
        assert!((l.total_energy() - 1.5).abs() < 1e-15);
        assert_eq!(l.kind("a").messages, 2);
        assert!((l.kind("a").energy - 0.5).abs() < 1e-15);
        assert_eq!(l.kind("missing"), Tally::default());
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = EnergyLedger::new();
        a.charge("x", 1.0);
        let mut b = EnergyLedger::new();
        b.charge("x", 2.0);
        b.charge("y", 3.0);
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert!((a.total_energy() - 6.0).abs() < 1e-12);
        assert_eq!(a.kind("x").messages, 2);
        assert!((a.kind("y").energy - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_queries() {
        let mut l = EnergyLedger::new();
        l.charge("ghs/initiate", 1.0);
        l.charge("ghs/report", 2.0);
        l.charge("nnt/request", 4.0);
        assert!((l.energy_with_prefix("ghs/") - 3.0).abs() < 1e-12);
        assert_eq!(l.messages_with_prefix("ghs/"), 2);
        assert!((l.energy_with_prefix("nnt/") - 4.0).abs() < 1e-12);
        assert_eq!(l.energy_with_prefix("zzz/"), 0.0);
    }

    #[test]
    fn kinds_iterate_sorted() {
        let mut l = EnergyLedger::new();
        l.charge("b", 1.0);
        l.charge("a", 1.0);
        l.charge("c", 1.0);
        let order: Vec<&str> = l.kinds().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_mentions_kinds() {
        let mut l = EnergyLedger::new();
        l.charge("hello", 0.5);
        let s = format!("{l}");
        assert!(s.contains("hello"));
        assert!(s.contains("total: 1 msgs"));
    }

    #[test]
    fn zero_energy_message_is_counted() {
        // A message over distance 0 still counts toward message complexity.
        let mut l = EnergyLedger::new();
        l.charge("k", 0.0);
        assert_eq!(l.total_messages(), 1);
        assert_eq!(l.total_energy(), 0.0);
    }
}
