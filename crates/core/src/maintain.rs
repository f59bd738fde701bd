//! Long-lived churn maintenance: keep a minimum spanning forest correct
//! across epochs of joins, crashes, sleeps, wakes and moves — without
//! rebuilding it from scratch.
//!
//! The paper's target deployments (energy-constrained radio networks)
//! live for months. The one-shot pipeline — generate points, run GHS,
//! read the tree — models a single construction; this module models the
//! rest of the deployment's life. A [`ChurnTimeline`] lists membership
//! events per *epoch* (one maintenance step), and [`maintain`] drives
//! the forest through them under one of two strategies:
//!
//! * [`MaintainStrategy::Recompute`] — the naive baseline: every epoch
//!   with events re-runs restricted modified GHS from singletons over
//!   the current live set (full hello round + full phase cascade).
//! * [`MaintainStrategy::Incremental`] — localized repair. Departures
//!   first: surviving tree edges are *seeded* into a fresh engine with
//!   zero radio traffic (survivors still hold their neighbour tables
//!   and §V-A caches from the previous epoch; a departed neighbour is
//!   detected by lease expiry — silence is free), the largest surviving
//!   fragment is marked passive (the trunk neither searches nor
//!   initiates), and only the orphaned fragments run modified-GHS
//!   phases to reattach. Arrivals second: each joiner pays one hello
//!   broadcast, hears one reply per live neighbour, and the incident
//!   edges are folded into the forest by a cycle-property fix-up
//!   (connect exchanges for adopted edges, one teardown message per
//!   evicted tree edge).
//!
//! ## Correctness
//!
//! Both strategies produce the *exact* minimum spanning forest of the
//! live unit-disk graph each epoch (pinned by proptest against
//! Kruskal):
//!
//! * **Departures.** Every surviving tree edge is in the MSF of the
//!   reduced live graph (removing vertices removes cycles, never adds
//!   them — the cycle property can only relax), so seeding them is
//!   sound; every edge the reconnection phases add is the proposing
//!   fragment's true minimum outgoing edge, so the cut property makes
//!   the completion exact. The passive trunk cannot block completion:
//!   edges are symmetric, so any trunk-adjacent orphan proposes the
//!   shared edge itself.
//! * **Arrivals.** `MSF(E_old ∪ E_A) = MSF(MSF(E_old) ∪ E_A)` when
//!   `E_A` carries every edge incident to an arrival (including
//!   arrival–arrival edges) — the standard sparsification identity. The
//!   driver runs that Kruskal over `forest ∪ E_A` and charges the
//!   protocol messages the fix-up would cost.
//!
//! Both strategies share tie-breaking with [`emst_graph::kruskal_forest`]
//! (ascending `(w, u, v)` on normalized endpoints), so forests agree
//! edge-for-edge, not merely in weight.
//!
//! ## Accounting
//!
//! Every epoch runs against a fresh [`ExecEnv`] with a [`Tally`] sink,
//! and each [`EpochReport`] records whether the sink reproduced the
//! epoch's ledger *bitwise* (`ledger_conserved`) — the chaos harness
//! turns any mismatch into a violation. The headline
//! metric is [`MaintainReport::energy_per_maintained_round`].

use crate::exec::ExecEnv;
use crate::ghs::{GhsEngine, GhsKinds, GhsVariant};
use crate::repair::survivor_fragments;
use emst_geom::Point;
use emst_graph::{Edge, SpanningTree, UnionFind};
use emst_radio::{EnergyConfig, Membership, RunStats, Tally};

/// Message kind for dismantling an evicted tree edge (one unicast per
/// eviction, charged under the `maintain` scope like every other
/// maintenance message).
const TEARDOWN: &str = "maintain/teardown";

/// One membership/lifecycle event inside an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// A brand-new node joins at this position; its id is the next free
    /// slot of the id universe at the moment the event applies.
    Join(Point),
    /// Node `u` crashes (permanent departure; the id stays reserved).
    Crash(usize),
    /// Node `u` powers down (departure; may [`ChurnEvent::Wake`] later).
    Sleep(usize),
    /// Sleeping node `u` rejoins with its stable id and position.
    Wake(usize),
    /// Node `u` moves to a new position: a departure from the old
    /// position and an arrival at the new one, in the same epoch.
    Move(usize, Point),
}

/// A deterministic churn schedule: one list of events per maintenance
/// epoch. Built with chainable setters, and serializable back to the
/// exact builder expression via [`ChurnTimeline::to_source`] (the chaos
/// harness prints that as the repro for any violation).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTimeline {
    epochs: Vec<Vec<ChurnEvent>>,
}

impl ChurnTimeline {
    /// A timeline with `epochs` empty epochs.
    pub fn new(epochs: usize) -> Self {
        ChurnTimeline {
            epochs: vec![Vec::new(); epochs],
        }
    }

    fn push(mut self, epoch: usize, ev: ChurnEvent) -> Self {
        assert!(
            epoch < self.epochs.len(),
            "epoch {epoch} out of range (timeline has {})",
            self.epochs.len()
        );
        self.epochs[epoch].push(ev);
        self
    }

    /// Adds a [`ChurnEvent::Join`] at `(x, y)` to `epoch`.
    pub fn join(self, epoch: usize, x: f64, y: f64) -> Self {
        self.push(epoch, ChurnEvent::Join(Point { x, y }))
    }

    /// Adds a [`ChurnEvent::Crash`] of node `u` to `epoch`.
    pub fn crash(self, epoch: usize, u: usize) -> Self {
        self.push(epoch, ChurnEvent::Crash(u))
    }

    /// Adds a [`ChurnEvent::Sleep`] of node `u` to `epoch`.
    pub fn sleep(self, epoch: usize, u: usize) -> Self {
        self.push(epoch, ChurnEvent::Sleep(u))
    }

    /// Adds a [`ChurnEvent::Wake`] of node `u` to `epoch`.
    pub fn wake(self, epoch: usize, u: usize) -> Self {
        self.push(epoch, ChurnEvent::Wake(u))
    }

    /// Adds a [`ChurnEvent::Move`] of node `u` to `(x, y)` in `epoch`.
    pub fn move_to(self, epoch: usize, u: usize, x: f64, y: f64) -> Self {
        self.push(epoch, ChurnEvent::Move(u, Point { x, y }))
    }

    /// The per-epoch event lists.
    pub fn epochs(&self) -> &[Vec<ChurnEvent>] {
        &self.epochs
    }

    /// Number of epochs (including empty ones).
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the timeline has no epochs.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Whether no epoch carries any event — a no-op timeline, under
    /// which [`maintain`] is the bootstrap run and nothing else.
    pub fn is_noop(&self) -> bool {
        self.epochs.iter().all(|e| e.is_empty())
    }

    /// Total event count across all epochs.
    pub fn event_count(&self) -> usize {
        self.epochs.iter().map(|e| e.len()).sum()
    }

    /// The Rust builder expression reconstructing this exact timeline —
    /// the repro string the chaos harness prints next to a violation.
    /// `{:?}` on `f64` prints the shortest digits that round-trip, so
    /// rebuilding from the printed source reproduces positions bitwise
    /// (the same contract `FaultPlan::to_source` pins).
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("ChurnTimeline::new({})", self.epochs.len());
        for (e, events) in self.epochs.iter().enumerate() {
            for ev in events {
                let _ = match *ev {
                    ChurnEvent::Join(p) => write!(s, ".join({e}, {:?}, {:?})", p.x, p.y),
                    ChurnEvent::Crash(u) => write!(s, ".crash({e}, {u})"),
                    ChurnEvent::Sleep(u) => write!(s, ".sleep({e}, {u})"),
                    ChurnEvent::Wake(u) => write!(s, ".wake({e}, {u})"),
                    ChurnEvent::Move(u, p) => {
                        write!(s, ".move_to({e}, {u}, {:?}, {:?})", p.x, p.y)
                    }
                };
            }
        }
        s
    }
}

/// How [`maintain`] reacts to an epoch's membership changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintainStrategy {
    /// Localized repair: zero-cost cache restore + seeded reconnection
    /// for departures, per-arrival hello/connect traffic for joins. The
    /// default.
    #[default]
    Incremental,
    /// From-scratch restricted GHS over the live set every epoch with
    /// events — the baseline incremental maintenance is measured
    /// against.
    Recompute,
}

impl MaintainStrategy {
    /// The strategy's name on the wire and in BENCH documents.
    pub const fn name(self) -> &'static str {
        match self {
            MaintainStrategy::Incremental => "incremental",
            MaintainStrategy::Recompute => "recompute",
        }
    }

    /// Looks a strategy up by [`MaintainStrategy::name`].
    pub fn from_name(name: &str) -> Option<MaintainStrategy> {
        [MaintainStrategy::Incremental, MaintainStrategy::Recompute]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// Per-epoch read-out of one maintenance step.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The membership epoch this step advanced to (monotone from 1).
    pub epoch: u64,
    /// Live nodes after the step.
    pub live: usize,
    /// Ids that arrived this epoch (joins, wakes, move-ins).
    pub arrivals: usize,
    /// Ids that departed this epoch (crashes, sleeps, move-outs).
    pub departures: usize,
    /// Radiated energy spent by this epoch's maintenance traffic.
    pub energy: f64,
    /// Messages sent by this epoch's maintenance traffic.
    pub messages: u64,
    /// Synchronous rounds consumed by this epoch.
    pub rounds: u64,
    /// Forest edges added this epoch.
    pub edges_added: usize,
    /// Forest edges removed this epoch (dead-incident + evicted).
    pub edges_removed: usize,
    /// Forest components over the live set after the step.
    pub fragments: usize,
    /// Whether the trace sink reproduced this epoch's ledger bitwise
    /// (energy) and exactly (messages) — the conservation invariant.
    pub ledger_conserved: bool,
    /// Whether the forest is acyclic with every endpoint live.
    pub forest_valid: bool,
}

/// Result of a full [`maintain`] run: the bootstrap construction, one
/// [`EpochReport`] per timeline epoch, and the final state.
#[derive(Debug, Clone)]
pub struct MaintainReport {
    /// The strategy that produced this report.
    pub strategy: MaintainStrategy,
    /// Operating radius of every construction and repair pass.
    pub radius: f64,
    /// Energy of the initial full construction (identical across
    /// strategies — both bootstrap with clean modified GHS).
    pub bootstrap_energy: f64,
    /// Messages of the initial full construction.
    pub bootstrap_messages: u64,
    /// Rounds of the initial full construction.
    pub bootstrap_rounds: u64,
    /// Whether the bootstrap ledger was reproduced bitwise by its sink.
    pub bootstrap_conserved: bool,
    /// One report per timeline epoch, in order.
    pub epochs: Vec<EpochReport>,
    /// Final positions (grown by joins, overwritten by moves).
    pub points: Vec<Point>,
    /// Final membership (epoch counter = timeline length).
    pub members: Membership,
    /// The maintained forest over the final id universe.
    pub forest: Vec<Edge>,
}

impl MaintainReport {
    /// The maintained forest as a [`SpanningTree`] over the final
    /// universe (dead ids are isolated vertices).
    pub fn tree(&self) -> SpanningTree {
        SpanningTree::new(self.points.len(), self.forest.clone())
    }

    /// Total maintenance energy across all epochs (bootstrap excluded).
    pub fn maintenance_energy(&self) -> f64 {
        self.epochs.iter().map(|e| e.energy).sum()
    }

    /// Total maintenance messages across all epochs.
    pub fn maintenance_messages(&self) -> u64 {
        self.epochs.iter().map(|e| e.messages).sum()
    }

    /// Total maintained rounds across all epochs.
    pub fn maintenance_rounds(&self) -> u64 {
        self.epochs.iter().map(|e| e.rounds).sum()
    }

    /// The headline metric: maintenance energy per maintained round
    /// (0 when no epoch consumed any round).
    pub fn energy_per_maintained_round(&self) -> f64 {
        let rounds = self.maintenance_rounds();
        if rounds == 0 {
            0.0
        } else {
            self.maintenance_energy() / rounds as f64
        }
    }
}

/// Runs `f` against a fresh environment restricted to `members` with a
/// [`Tally`] sink, returning its output, the run stats and whether the
/// sink reproduced the ledger bitwise (energy) and exactly (messages).
fn run_step<R>(
    points: &[Point],
    radius: f64,
    members: &Membership,
    f: impl FnOnce(&mut ExecEnv<'_>) -> R,
) -> (R, RunStats, bool) {
    let mut sink = Tally::default();
    let mut env = ExecEnv::new(
        points,
        radius,
        EnergyConfig::paper(),
        None,
        None,
        Some(&mut sink),
    );
    env.set_members(members);
    let out = f(&mut env);
    let (stats, _marks) = env.finish();
    let conserved =
        sink.energy.to_bits() == stats.energy.to_bits() && sink.messages == stats.messages;
    (out, stats, conserved)
}

/// A cumulative accounting snapshot of a maintenance session: bootstrap
/// plus every advanced epoch, with energy carried as exact bits so two
/// snapshots compare bitwise, never approximately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLedger {
    /// Membership epoch the session has advanced to.
    pub epoch: u64,
    /// Bit pattern of the cumulative radiated energy (bootstrap +
    /// maintenance, summed in epoch order).
    pub energy_bits: u64,
    /// Cumulative messages.
    pub messages: u64,
    /// Cumulative synchronous rounds.
    pub rounds: u64,
    /// Whether every step so far conserved its ledger bitwise.
    pub conserved: bool,
}

/// A *standing* churn-maintenance session: the persistent state
/// [`maintain`] threads through its epoch loop, split out so a caller
/// (the service's `/session` endpoints, a REPL, a long-horizon drift
/// study) can advance epochs incrementally instead of replaying a whole
/// timeline per request.
///
/// [`maintain`] itself is a thin replay wrapper over this type — one
/// `bootstrap` plus one [`MaintainSession::advance`] per timeline epoch
/// — so a session advanced epoch-by-epoch is *bitwise identical* to a
/// replayed timeline by construction, not by parallel maintenance of
/// two code paths.
#[derive(Debug, Clone)]
pub struct MaintainSession {
    strategy: MaintainStrategy,
    radius: f64,
    points: Vec<Point>,
    members: Membership,
    forest: Vec<Edge>,
    kinds: &'static GhsKinds,
    bootstrap_energy: f64,
    bootstrap_messages: u64,
    bootstrap_rounds: u64,
    bootstrap_conserved: bool,
    total_energy: f64,
    total_messages: u64,
    total_rounds: u64,
    conserved: bool,
}

impl MaintainSession {
    /// Runs the bootstrap construction (clean modified GHS over the
    /// all-live initial points — bit-identical to a plain
    /// [`crate::Sim`] run; the all-live membership is elided) and
    /// returns the session poised at epoch 0.
    pub fn bootstrap(initial_points: &[Point], radius: f64, strategy: MaintainStrategy) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "maintenance radius must be positive"
        );
        let points: Vec<Point> = initial_points.to_vec();
        let members = Membership::all_live(points.len());
        let kinds = GhsKinds::for_scope("maintain");
        let (forest, boot_stats, boot_conserved) = run_step(&points, radius, &members, |env| {
            crate::ghs::drive(env, radius, GhsVariant::Modified)
                .tree
                .edges()
                .to_vec()
        });
        MaintainSession {
            strategy,
            radius,
            points,
            members,
            forest,
            kinds,
            bootstrap_energy: boot_stats.energy,
            bootstrap_messages: boot_stats.messages,
            bootstrap_rounds: boot_stats.rounds,
            bootstrap_conserved: boot_conserved,
            total_energy: boot_stats.energy,
            total_messages: boot_stats.messages,
            total_rounds: boot_stats.rounds,
            conserved: boot_conserved,
        }
    }

    /// The strategy every [`MaintainSession::advance`] applies.
    pub fn strategy(&self) -> MaintainStrategy {
        self.strategy
    }

    /// The operating radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The current id universe size (grown by joins). Ids at or beyond
    /// this bound may only enter via [`ChurnEvent::Join`].
    pub fn universe(&self) -> usize {
        self.points.len()
    }

    /// Current positions (grown by joins, overwritten by moves).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Current membership (epoch counter = number of advances so far).
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// The maintained forest over the current id universe.
    pub fn forest(&self) -> &[Edge] {
        &self.forest
    }

    /// The maintained forest as a [`SpanningTree`] over the current
    /// universe (dead ids are isolated vertices).
    pub fn tree(&self) -> SpanningTree {
        SpanningTree::new(self.points.len(), self.forest.clone())
    }

    /// Bootstrap stats as `(energy, messages, rounds, conserved)`.
    pub fn bootstrap_stats(&self) -> (f64, u64, u64, bool) {
        (
            self.bootstrap_energy,
            self.bootstrap_messages,
            self.bootstrap_rounds,
            self.bootstrap_conserved,
        )
    }

    /// The cumulative ledger snapshot. Pure read-out: calling this any
    /// number of times between advances returns the same bits — the
    /// reclaim-conservation pin the service layer enforces (ledger at
    /// reclaim == ledger at last advance, bitwise).
    pub fn ledger(&self) -> SessionLedger {
        SessionLedger {
            epoch: self.members.epoch(),
            energy_bits: self.total_energy.to_bits(),
            messages: self.total_messages,
            rounds: self.total_rounds,
            conserved: self.conserved,
        }
    }

    /// Advances the session one epoch, applying `events` and repairing
    /// the forest under the session's strategy. This is the exact body
    /// of [`maintain`]'s epoch loop.
    pub fn advance(&mut self, events: &[ChurnEvent]) -> EpochReport {
        let MaintainSession {
            strategy,
            radius,
            points,
            members,
            forest,
            kinds,
            ..
        } = self;
        let (strategy, radius, kinds) = (*strategy, *radius, *kinds);
        members.advance_epoch();
        // Classify the epoch's events. Position updates (joins, moves)
        // apply immediately: a mover is dead during the departure
        // sub-step, so its slot's position is not read until it
        // re-arrives at the new coordinates.
        let mut departures: Vec<usize> = Vec::new();
        let mut arrivals: Vec<usize> = Vec::new();
        for ev in events {
            match *ev {
                ChurnEvent::Join(p) => {
                    points.push(p);
                    arrivals.push(points.len() - 1);
                }
                ChurnEvent::Crash(u) | ChurnEvent::Sleep(u) => {
                    if members.is_live(u) {
                        departures.push(u);
                    }
                }
                ChurnEvent::Wake(u) => {
                    assert!(u < points.len(), "wake of unknown id {u}");
                    if !members.is_live(u) {
                        arrivals.push(u);
                    }
                }
                ChurnEvent::Move(u, p) => {
                    assert!(u < points.len(), "move of unknown id {u}");
                    points[u] = p;
                    if members.is_live(u) {
                        departures.push(u);
                    }
                    arrivals.push(u);
                }
            }
        }
        departures.sort_unstable();
        departures.dedup();
        arrivals.sort_unstable();
        arrivals.dedup();

        let mut energy = 0.0f64;
        let mut messages = 0u64;
        let mut rounds = 0u64;
        let mut conserved = true;
        let mut edges_added = 0usize;
        let mut edges_removed = 0usize;

        // Departures apply first under both strategies: dead-incident
        // tree edges leave the forest (surviving edges stay in the MSF
        // of the reduced graph by the cycle property).
        for &d in &departures {
            members.leave(d);
        }
        let kept = forest.len();
        forest.retain(|e| members.is_live(e.u as usize) && members.is_live(e.v as usize));
        edges_removed += kept - forest.len();

        match strategy {
            MaintainStrategy::Incremental => {
                // Sub-step (a): reconnect the orphans cut off by the
                // departures. Skipped when no tree edge was lost — a
                // departure that owned no tree edge was graph-isolated,
                // so the forest is already the MSF of the reduced live
                // set. (`edges_removed > 0` implies a live→dead
                // transition this epoch, so the membership is not
                // all-live and the engine runs in restricted mode.)
                if edges_removed > 0 {
                    let seeded: Vec<(usize, usize, f64)> = forest
                        .iter()
                        .map(|e| (e.u as usize, e.v as usize, e.w))
                        .collect();
                    let (new_forest, stats, ok) = run_step(points, radius, members, |env| {
                        let mut eng = GhsEngine::new(env.net(), GhsVariant::Modified);
                        eng.seed_forest(&seeded);
                        if let Some((f, size)) = eng.largest_fragment() {
                            if size > 1 {
                                eng.mark_passive(f);
                            }
                        }
                        env.stage(kinds.scope, "restore", |net| {
                            eng.restore_neighbor_caches(net, radius)
                        });
                        env.stage(kinds.scope, "reconnect", |net| eng.run_phases(net, kinds));
                        eng.tree().edges().to_vec()
                    });
                    edges_added += new_forest.len() - forest.len();
                    *forest = new_forest;
                    energy += stats.energy;
                    messages += stats.messages;
                    rounds += stats.rounds;
                    conserved &= ok;
                }
                // Sub-step (b): fold the arrivals in. Each joiner pays
                // one hello broadcast, hears one reply per live
                // neighbour, and the driver runs the sparsification
                // Kruskal over `forest ∪ E_A` — charging a connect
                // exchange per adopted arrival edge and one teardown
                // message per evicted tree edge.
                if !arrivals.is_empty() {
                    for &a in &arrivals {
                        members.admit(a);
                    }
                    let members: &Membership = members;
                    let old_forest = std::mem::take(forest);
                    let ((adopted, evicted), stats, ok) =
                        run_step(points, radius, members, |env| {
                            env.stage(kinds.scope, "arrivals", |net| {
                                for &a in &arrivals {
                                    net.local_broadcast_silent(a, radius, kinds.hello);
                                }
                                // Each arrival's row is one grid query, in
                                // the order a cached topology row has, so
                                // the replies are charged in that order.
                                let mut fresh: Vec<Edge> = Vec::new();
                                let mut row = Vec::new();
                                for &a in &arrivals {
                                    net.neighbors_into(a, radius, &mut row);
                                    for &(v, d) in row.iter().filter(|&&(v, _)| members.is_live(v))
                                    {
                                        net.unicast(v, a, kinds.hello);
                                        fresh.push(Edge::new(a, v, d));
                                    }
                                }
                                // Kruskal over `forest ∪ E_A` in the global
                                // `(w, u, v)` order, walking candidate indices:
                                // `i < old_forest.len()` is old-forest edge
                                // `i`, the rest are arrival edges. No
                                // old-forest edge touches an arrival (movers
                                // lost theirs as departures), so the only
                                // repeats are arrival–arrival edges heard
                                // from both ends, with equal bits; the union
                                // rejects the second copy. The old forest is
                                // mostly the last epoch's Kruskal output, in
                                // order, which the run-aware stable sort
                                // merges instead of re-sorting.
                                let edge = |i: u32| match old_forest.get(i as usize) {
                                    Some(e) => *e,
                                    None => fresh[i as usize - old_forest.len()],
                                };
                                let mut order: Vec<u32> =
                                    (0..(old_forest.len() + fresh.len()) as u32).collect();
                                order.sort_by(|&i, &j| {
                                    let (a, b) = (edge(i), edge(j));
                                    a.w.total_cmp(&b.w).then(a.u.cmp(&b.u)).then(a.v.cmp(&b.v))
                                });
                                let mut uf = UnionFind::new(net.n());
                                let mut adopted: Vec<Edge> = Vec::new();
                                let mut evicted = vec![false; old_forest.len()];
                                for &i in &order {
                                    let e = edge(i);
                                    if uf.union(e.u as usize, e.v as usize) {
                                        adopted.push(e);
                                        if i as usize >= old_forest.len() {
                                            net.exchange(e.u as usize, e.v as usize, kinds.connect);
                                        }
                                    } else if let Some(gone) = evicted.get_mut(i as usize) {
                                        *gone = true;
                                    }
                                }
                                // Teardowns in old-forest order, which fixes
                                // the order the ledger sums their energy in.
                                for (e, _) in old_forest.iter().zip(&evicted).filter(|(_, &g)| g) {
                                    net.unicast(e.u as usize, e.v as usize, TEARDOWN);
                                }
                                let evicted = evicted.iter().filter(|&&g| g).count();
                                // hello, reply, connect, teardown slots.
                                net.advance_rounds(4);
                                (adopted, evicted)
                            })
                        });
                    edges_removed += evicted;
                    edges_added += adopted.len() - (old_forest.len() - evicted);
                    *forest = adopted;
                    energy += stats.energy;
                    messages += stats.messages;
                    rounds += stats.rounds;
                    conserved &= ok;
                }
            }
            MaintainStrategy::Recompute => {
                for &a in &arrivals {
                    members.admit(a);
                }
                if !departures.is_empty() || !arrivals.is_empty() {
                    let (new_forest, stats, ok) = run_step(points, radius, members, |env| {
                        let mut eng = GhsEngine::new(env.net(), GhsVariant::Modified);
                        env.stage(kinds.scope, "discover", |net| {
                            eng.discover(net, radius, kinds)
                        });
                        env.stage(kinds.scope, "phases", |net| eng.run_phases(net, kinds));
                        eng.tree().edges().to_vec()
                    });
                    // Diff against the departure-reduced forest so
                    // added/removed counts mean the same thing under
                    // both strategies.
                    let mut old: Vec<(u32, u32)> = forest.iter().map(|e| (e.u, e.v)).collect();
                    old.sort_unstable();
                    let mut shared = 0usize;
                    for e in &new_forest {
                        if old.binary_search(&(e.u, e.v)).is_ok() {
                            shared += 1;
                        }
                    }
                    edges_added += new_forest.len() - shared;
                    edges_removed += forest.len() - shared;
                    *forest = new_forest;
                    energy += stats.energy;
                    messages += stats.messages;
                    rounds += stats.rounds;
                    conserved &= ok;
                }
            }
        }

        let n_now = points.len();
        let alive: Vec<bool> = (0..n_now).map(|u| members.is_live(u)).collect();
        let tree = SpanningTree::new(n_now, forest.clone());
        let forest_valid = tree.validate_forest().is_ok()
            && forest
                .iter()
                .all(|e| alive[e.u as usize] && alive[e.v as usize]);
        let report = EpochReport {
            epoch: members.epoch(),
            live: members.live_count(),
            arrivals: arrivals.len(),
            departures: departures.len(),
            energy,
            messages,
            rounds,
            edges_added,
            edges_removed,
            fragments: survivor_fragments(n_now, &tree, &alive),
            ledger_conserved: conserved,
            forest_valid,
        };
        self.total_energy += energy;
        self.total_messages += messages;
        self.total_rounds += rounds;
        self.conserved &= conserved;
        report
    }
}

/// Drives the forest through `timeline` at `radius` under `strategy`.
///
/// A pure replay over [`MaintainSession`]: one
/// [`MaintainSession::bootstrap`] (identical for both strategies, and
/// bit-identical to a plain [`crate::Sim`] run — the all-live
/// membership is elided) plus one [`MaintainSession::advance`] per
/// timeline epoch. A standing session advanced with the same events in
/// the same order therefore reproduces this report's ledgers bitwise.
/// See the module docs for the per-epoch mechanics and the correctness
/// argument.
pub fn maintain(
    initial_points: &[Point],
    radius: f64,
    timeline: &ChurnTimeline,
    strategy: MaintainStrategy,
) -> MaintainReport {
    let mut session = MaintainSession::bootstrap(initial_points, radius, strategy);
    let epochs: Vec<EpochReport> = timeline
        .epochs()
        .iter()
        .map(|events| session.advance(events))
        .collect();
    let (bootstrap_energy, bootstrap_messages, bootstrap_rounds, bootstrap_conserved) =
        session.bootstrap_stats();
    let MaintainSession {
        points,
        members,
        forest,
        ..
    } = session;
    MaintainReport {
        strategy,
        radius,
        bootstrap_energy,
        bootstrap_messages,
        bootstrap_rounds,
        bootstrap_conserved,
        epochs,
        points,
        members,
        forest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, Sim};
    use emst_geom::{paper_phase2_radius, trial_rng, uniform_points};
    use emst_graph::disk_msf;

    #[test]
    fn noop_timeline_is_exactly_the_bootstrap_run() {
        let pts = uniform_points(150, &mut trial_rng(0xC0FFEE, 0));
        let r = paper_phase2_radius(150);
        let plain = Sim::new(&pts)
            .radius(r)
            .run(Protocol::Ghs(GhsVariant::Modified));
        for strategy in [MaintainStrategy::Incremental, MaintainStrategy::Recompute] {
            let rep = maintain(&pts, r, &ChurnTimeline::new(3), strategy);
            assert!(rep.bootstrap_conserved);
            assert_eq!(rep.bootstrap_energy.to_bits(), plain.stats.energy.to_bits());
            assert_eq!(rep.bootstrap_messages, plain.stats.messages);
            assert!(rep.tree().same_edges(&plain.tree));
            assert_eq!(rep.epochs.len(), 3);
            for e in &rep.epochs {
                assert_eq!(e.energy, 0.0);
                assert_eq!(e.messages, 0);
                assert!(e.ledger_conserved && e.forest_valid);
            }
            assert_eq!(rep.members.epoch(), 3);
        }
    }

    #[test]
    fn incremental_matches_recompute_and_kruskal_under_mixed_churn() {
        let pts = uniform_points(120, &mut trial_rng(0xC0FFEF, 0));
        let r = paper_phase2_radius(120);
        let tl = ChurnTimeline::new(4)
            .crash(0, 7)
            .crash(0, 55)
            .sleep(1, 12)
            .join(1, 0.41, 0.43)
            .move_to(2, 30, 0.6, 0.6)
            .wake(3, 12)
            .crash(3, 99);
        let inc = maintain(&pts, r, &tl, MaintainStrategy::Incremental);
        let rec = maintain(&pts, r, &tl, MaintainStrategy::Recompute);
        assert_eq!(inc.members, rec.members);
        assert_eq!(inc.points, rec.points);
        assert!(inc.tree().same_edges(&rec.tree()), "strategies disagree");
        let truth = disk_msf(&inc.points, r, |u| inc.members.is_live(u));
        assert!(inc.tree().same_edges(&truth), "incremental is not the MSF");
        for rep in [&inc, &rec] {
            for e in &rep.epochs {
                assert!(e.ledger_conserved, "epoch {} leaked energy", e.epoch);
                assert!(e.forest_valid, "epoch {} broke the forest", e.epoch);
            }
        }
        // Epochs are monotone and complete.
        let seen: Vec<u64> = inc.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn departure_only_epoch_repairs_locally() {
        let pts = uniform_points(100, &mut trial_rng(0xC0FF10, 0));
        let r = paper_phase2_radius(100);
        let tl = ChurnTimeline::new(1).crash(0, 50);
        let inc = maintain(&pts, r, &tl, MaintainStrategy::Incremental);
        let truth = disk_msf(&inc.points, r, |u| inc.members.is_live(u));
        assert!(inc.tree().same_edges(&truth));
        let rec = maintain(&pts, r, &tl, MaintainStrategy::Recompute);
        assert!(
            inc.epochs[0].messages < rec.epochs[0].messages,
            "incremental ({}) should send fewer messages than recompute ({})",
            inc.epochs[0].messages,
            rec.epochs[0].messages
        );
    }

    #[test]
    fn timeline_source_round_trips() {
        let tl = ChurnTimeline::new(3)
            .join(0, 0.125, 0.75)
            .crash(0, 4)
            .sleep(1, 2)
            .wake(2, 2)
            .move_to(2, 1, 0.3333333333333333, 0.1);
        let src = tl.to_source();
        assert_eq!(
            src,
            "ChurnTimeline::new(3).join(0, 0.125, 0.75).crash(0, 4).sleep(1, 2)\
             .wake(2, 2).move_to(2, 1, 0.3333333333333333, 0.1)"
        );
        // Rebuilding through the printed builder calls reproduces the
        // timeline exactly (the chaos harness relies on this).
        let rebuilt = ChurnTimeline::new(3)
            .join(0, 0.125, 0.75)
            .crash(0, 4)
            .sleep(1, 2)
            .wake(2, 2)
            .move_to(2, 1, 0.3333333333333333, 0.1);
        assert_eq!(tl, rebuilt);
        assert_eq!(tl.event_count(), 5);
        assert!(!tl.is_noop());
        assert!(ChurnTimeline::new(2).is_noop());
    }

    #[test]
    #[should_panic(expected = "epoch 5 out of range")]
    fn out_of_range_epoch_panics() {
        let _ = ChurnTimeline::new(2).crash(5, 0);
    }
}
