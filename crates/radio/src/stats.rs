//! Run statistics: the (energy, messages, rounds) triple the paper's
//! evaluation reports, captured from a network after a protocol run.

use crate::availability::AwakeStats;
use crate::energy::EnergyLedger;
use crate::fault::FaultStats;
use crate::network::RadioNet;
use crate::trace::StageMark;
use std::fmt;

/// A point-in-time snapshot of a network's run-wide counters, used by the
/// stage runtime to compute per-stage deltas: snapshot before a stage,
/// [`StatSnapshot::delta`] after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatSnapshot {
    energy: f64,
    messages: u64,
    rounds: u64,
    faults: FaultStats,
    /// Total awake node-rounds at capture time; `None` when the network
    /// does not track awake rounds.
    awake: Option<u64>,
}

impl StatSnapshot {
    /// Captures the network's current totals. O(1) without awake
    /// tracking; O(n) with it (stage boundaries only).
    pub fn capture(net: &RadioNet<'_>) -> Self {
        StatSnapshot {
            energy: net.ledger().total_energy(),
            messages: net.ledger().total_messages(),
            rounds: net.clock().now(),
            faults: net.fault_stats(),
            awake: net.awake_stats().map(|a| a.total),
        }
    }

    /// The resources consumed since this snapshot, stamped with the
    /// stage's identity. `round` in the mark is the network's current
    /// round (the round the stage ended at).
    pub fn delta(
        &self,
        net: &RadioNet<'_>,
        scope: &'static str,
        name: &'static str,
        index: u64,
    ) -> StageMark {
        let now = StatSnapshot::capture(net);
        StageMark {
            round: now.rounds,
            scope,
            name,
            index,
            energy: now.energy - self.energy,
            messages: now.messages - self.messages,
            rounds: now.rounds - self.rounds,
            faults: FaultStats {
                drops: now.faults.drops - self.faults.drops,
                retries: now.faults.retries - self.faults.retries,
                timeouts: now.faults.timeouts - self.faults.timeouts,
            },
            awake: match (now.awake, self.awake) {
                (Some(a), Some(b)) => Some(a - b),
                // Tracking switched on mid-stage attributes its whole
                // total to that stage; never happens in practice (the
                // runtime enables it before the first stage).
                (Some(a), None) => Some(a),
                _ => None,
            },
        }
    }
}

/// Summary of one protocol execution.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total radiated (transmit) energy — the paper's energy complexity.
    pub energy: f64,
    /// Reception energy under the extended model (0 under §II's model).
    pub rx_energy: f64,
    /// Idle/listen energy under the extended model (0 under §II's model).
    pub idle_energy: f64,
    /// Total number of transmissions (message complexity).
    pub messages: u64,
    /// Synchronous rounds consumed (time complexity).
    pub rounds: u64,
    /// Drop/retry/timeout counters (all zero in fault-free runs).
    pub faults: FaultStats,
    /// Awake-round read-outs (total + max-per-node); `None` unless the
    /// run tracked awake rounds.
    pub awake: Option<AwakeStats>,
    /// Full per-kind ledger for attribution.
    pub ledger: EnergyLedger,
}

impl RunStats {
    /// Snapshot from a network handle.
    pub fn capture(net: &RadioNet<'_>) -> Self {
        let ledger = net.ledger().clone();
        RunStats {
            energy: ledger.total_energy(),
            rx_energy: ledger.rx_energy(),
            idle_energy: ledger.idle_energy(),
            messages: ledger.total_messages(),
            rounds: net.clock().now(),
            faults: net.fault_stats(),
            awake: net.awake_stats(),
            ledger,
        }
    }

    /// Whole-radio energy: transmit + receive + idle.
    pub fn full_energy(&self) -> f64 {
        self.energy + self.rx_energy + self.idle_energy
    }

    /// Folds another run's statistics into this one (sequential protocol
    /// composition: rounds add, ledgers merge).
    pub fn absorb(&mut self, other: &RunStats) {
        self.ledger.merge(&other.ledger);
        self.energy = self.ledger.total_energy();
        self.rx_energy = self.ledger.rx_energy();
        self.idle_energy = self.ledger.idle_energy();
        self.messages = self.ledger.total_messages();
        self.rounds += other.rounds;
        self.faults.merge(&other.faults);
        // Sequential composition over the same node set: totals add and
        // the per-node maxima add as an upper bound (the true combined
        // max would need per-node vectors, which the aggregates drop).
        self.awake = match (self.awake, other.awake) {
            (Some(a), Some(b)) => Some(AwakeStats {
                total: a.total + b.total,
                max_per_node: a.max_per_node + b.max_per_node,
            }),
            (a, b) => a.or(b),
        };
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy {:.6}, {} msgs, {} rounds",
            self.energy, self.messages, self.rounds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::Point;

    #[test]
    fn capture_reflects_ledger_and_clock() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.6, 0.8)];
        let mut net = RadioNet::new(&pts, 1.5);
        net.unicast(0, 1, "x");
        net.clock_mut().advance(3);
        let s = RunStats::capture(&net);
        assert!((s.energy - 1.0).abs() < 1e-12);
        assert_eq!(s.messages, 1);
        assert_eq!(s.rounds, 3);
        assert_eq!(s.ledger.kind("x").messages, 1);
    }

    #[test]
    fn absorb_adds_rounds_and_merges_energy() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.unicast(0, 1, "a");
        net.clock_mut().advance(2);
        let mut s1 = RunStats::capture(&net);
        let mut net2 = RadioNet::new(&pts, 1.0);
        net2.exchange(0, 1, "b");
        net2.clock_mut().advance(5);
        let s2 = RunStats::capture(&net2);
        s1.absorb(&s2);
        assert_eq!(s1.messages, 3);
        assert_eq!(s1.rounds, 7);
        assert!((s1.energy - 0.75).abs() < 1e-12);
        assert_eq!(s1.ledger.kind("b").messages, 2);
    }

    #[test]
    fn display_is_informative() {
        let s = RunStats {
            energy: 1.5,
            rx_energy: 0.0,
            idle_energy: 0.0,
            messages: 10,
            rounds: 4,
            faults: FaultStats::default(),
            awake: None,
            ledger: EnergyLedger::new(),
        };
        let txt = format!("{s}");
        assert!(txt.contains("10 msgs"));
        assert!(txt.contains("4 rounds"));
    }
}
