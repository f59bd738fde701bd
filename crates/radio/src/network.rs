//! The radio network: positions, power-controlled transmission primitives,
//! and the synchronous round clock.
//!
//! Model (§II of the paper):
//!
//! * nodes are points in the unit square; the unit-disk graph at the
//!   operating radius defines who can hear whom;
//! * nodes set their transmission power adaptively, so a unicast to a node
//!   at distance `d` costs `a·d^α` and a *local broadcast* at power `ρ`
//!   costs `a·ρ^α` while reaching every node within `ρ`;
//! * communication is synchronous, one message per node per time step, and
//!   collision-free (RBN with the paper's no-collision simplification);
//! * a message carries `O(log n)` bits — message size is tracked only as a
//!   count since energy is size-independent in the model.

use crate::availability::{Availability, AwakeStats};
use crate::energy::EnergyLedger;
use crate::fault::{FaultKind, FaultPlan, FaultStats};
use crate::membership::Membership;
use crate::topology::Topology;
use crate::trace::{TraceEvent, TraceSink};
use emst_geom::{BucketGrid, PathLoss, Point};

/// Energy configuration: the paper's radiated-energy model plus the
/// extended per-reception and idle/listen costs that §VIII defers to
/// future work (after Min & Chandrakasan's critique that transmit-only
/// accounting understates radio energy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Transmit path-loss model `w = a·d^α`.
    pub loss: PathLoss,
    /// Energy consumed per message *received* (0 in the paper's model).
    pub rx: f64,
    /// Energy consumed per node per round spent awake (0 in the paper's
    /// model).
    pub idle_per_round: f64,
}

impl EnergyConfig {
    /// The paper's §II model: transmit-only.
    pub fn paper() -> Self {
        EnergyConfig {
            loss: PathLoss::paper(),
            rx: 0.0,
            idle_per_round: 0.0,
        }
    }

    /// An extended model with explicit rx/idle costs.
    ///
    /// Does not validate the costs: a malformed configuration is reported
    /// through the typed [`EnergyConfig::check`] path (surfaced as a
    /// `ConfigError` by `Sim::validate`), not a panic — a long-lived
    /// service must be able to reject a bad energy config as a value.
    pub fn extended(loss: PathLoss, rx: f64, idle_per_round: f64) -> Self {
        EnergyConfig {
            loss,
            rx,
            idle_per_round,
        }
    }

    /// Validates the per-reception and idle costs, naming the offending
    /// field. Both must be finite and non-negative (`NaN` fails both
    /// comparisons and is rejected).
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.rx >= 0.0 && self.rx.is_finite()) {
            return Err("rx");
        }
        if !(self.idle_per_round >= 0.0 && self.idle_per_round.is_finite()) {
            return Err("idle_per_round");
        }
        Ok(())
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig::paper()
    }
}

/// Synchronous round clock. Protocols advance it by the true round cost of
/// each communication stage (e.g. a fragment broadcast advances by the
/// fragment-tree depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    rounds: u64,
}

impl Clock {
    /// Current round.
    #[inline]
    pub fn now(&self) -> u64 {
        self.rounds
    }

    /// Advances by one round.
    #[inline]
    pub fn tick(&mut self) {
        self.rounds += 1;
    }

    /// Advances by `n` rounds.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.rounds += n;
    }
}

/// A radio network over a fixed set of node positions.
///
/// Owns the energy ledger and round clock; borrows the positions. The
/// spatial grid is sized for `max_query_radius` but queries at larger radii
/// remain correct (they just scan more cells).
///
/// An optional [`TraceSink`] can be attached with [`RadioNet::set_sink`];
/// every transmission, clock advance, and protocol-reported phase/merge is
/// then mirrored to it as a [`TraceEvent`]. Without a sink, no event is
/// even constructed.
///
/// ```
/// use emst_geom::Point;
/// use emst_radio::RadioNet;
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
/// let mut net = RadioNet::new(&pts, 1.0);
/// net.unicast(0, 1, "demo/ping");           // energy d² = 0.25
/// net.local_broadcast(1, 0.6, "demo/hello"); // energy 0.6² = 0.36
/// assert_eq!(net.ledger().total_messages(), 2);
/// assert!((net.ledger().total_energy() - 0.61).abs() < 1e-12);
/// ```
pub struct RadioNet<'a> {
    points: &'a [Point],
    config: EnergyConfig,
    grid: BucketGrid<'a>,
    /// Cached CSR adjacency at one operating radius (see
    /// [`RadioNet::cache_topology`]); `None` until a protocol opts in.
    /// Behind an `Arc` so an [`RadioNet::install_topology`] caller (the
    /// instance-reuse API) can share one build across many runs.
    topo: Option<std::sync::Arc<Topology>>,
    /// Pre-built topologies registered by [`RadioNet::install_topology`];
    /// consulted by [`RadioNet::cache_topology`] before building, so a
    /// run that switches radii (EOPT) can have every radius prewarmed.
    prewarmed: Vec<std::sync::Arc<Topology>>,
    ledger: EnergyLedger,
    clock: Clock,
    sink: Option<&'a mut dyn TraceSink>,
    /// Fault schedule; `None` when fault injection is disabled (a no-op
    /// plan is stored as `None`, so disabled runs take identical paths).
    /// At run time it answers only the link question (its drop coins);
    /// its crashes and sleep windows live in `avail`.
    faults: Option<FaultPlan>,
    /// Drop/retry/timeout counters, reported through [`RadioNet::note_fault`].
    fault_stats: FaultStats,
    /// Who takes part in each round; `None` when nobody departs, the
    /// adversary has no crash or sleep entry and awake rounds are not
    /// tracked, so such runs take identical paths.
    avail: Option<Availability>,
}

impl std::fmt::Debug for RadioNet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioNet")
            .field("n", &self.n())
            .field("config", &self.config)
            .field("ledger", &self.ledger)
            .field("clock", &self.clock)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> RadioNet<'a> {
    /// Creates a network with the paper's default energy model
    /// (`w = d²`).
    pub fn new(points: &'a [Point], max_query_radius: f64) -> Self {
        RadioNet::with_loss(points, max_query_radius, PathLoss::paper())
    }

    /// Creates a network with an explicit path-loss model (rx/idle stay 0).
    pub fn with_loss(points: &'a [Point], max_query_radius: f64, loss: PathLoss) -> Self {
        RadioNet::with_config(
            points,
            max_query_radius,
            EnergyConfig {
                loss,
                ..EnergyConfig::paper()
            },
        )
    }

    /// Creates a network with a full energy configuration.
    pub fn with_config(points: &'a [Point], max_query_radius: f64, config: EnergyConfig) -> Self {
        assert!(
            max_query_radius > 0.0,
            "need a positive query radius, got {max_query_radius}"
        );
        RadioNet {
            points,
            config,
            grid: BucketGrid::for_radius(points, max_query_radius),
            topo: None,
            prewarmed: Vec::new(),
            ledger: EnergyLedger::new(),
            clock: Clock::default(),
            sink: None,
            faults: None,
            fault_stats: FaultStats::default(),
            avail: None,
        }
    }

    /// Installs a fault schedule. A no-op plan ([`FaultPlan::is_noop`]) is
    /// discarded so fault-free runs keep their exact pre-fault behaviour
    /// (bit-identical ledgers and traces). The plan's crashes and sleep
    /// windows go to the availability timeline, replacing earlier ones.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.update_availability(|av| av.set_adversary(&plan));
        self.faults = (!plan.is_noop()).then_some(plan);
    }

    /// Takes the run's departures from `members`: every id that is not
    /// live. Departed nodes keep their array slots (stable ids) but never
    /// run, hear or idle-charge. An all-live membership departs nobody,
    /// so static runs keep their exact behaviour.
    pub fn set_members(&mut self, members: &Membership) {
        self.update_availability(|av| av.set_departures(members));
    }

    /// Starts counting awake rounds (idempotent). Charges stay
    /// bit-identical; the awake read-outs become `Some`, and protocols
    /// may schedule sleep with [`RadioNet::sleep_node`].
    pub fn track_awake(&mut self) {
        self.update_availability(Availability::track_awake);
    }

    /// Applies `f` to the availability timeline, storing `None` when the
    /// result says nothing.
    fn update_availability(&mut self, f: impl FnOnce(&mut Availability)) {
        let n = self.n();
        let mut av = self.avail.take().unwrap_or_else(|| Availability::new(n));
        f(&mut av);
        self.avail = (!av.is_noop()).then_some(av);
    }

    /// The availability timeline, if anything is absent or tracked.
    #[inline]
    pub fn availability(&self) -> Option<&Availability> {
        self.avail.as_ref()
    }

    /// Whether `u` departed (see [`Availability::departed`]).
    #[inline]
    pub fn departed(&self, u: usize) -> bool {
        self.avail.as_ref().is_some_and(|av| av.departed(u))
    }

    /// Whether the adversary has crashed `u` by `round`.
    #[inline]
    pub fn crashed(&self, u: usize, round: u64) -> bool {
        self.avail.as_ref().is_some_and(|av| av.crashed(u, round))
    }

    /// Whether the adversary has `u` down at `round` (crashed or asleep).
    #[inline]
    pub fn down(&self, u: usize, round: u64) -> bool {
        self.avail.as_ref().is_some_and(|av| av.down(u, round))
    }

    /// Whether a transmission by `src` in `round` reaches `dst` under the
    /// fault plan: `dst` is not down and the drop coin passes.
    #[inline]
    pub fn delivers(&self, round: u64, src: usize, dst: usize) -> bool {
        !self.down(dst, round)
            && !self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.drop_coin(round, src, dst))
    }

    /// Whether awake rounds are tracked.
    #[inline]
    pub fn awake_tracked(&self) -> bool {
        self.avail.as_ref().is_some_and(Availability::is_tracking)
    }

    /// Schedules node `u` to sleep rounds `[from, to)`, replacing its
    /// previous window; an empty range clears it.
    ///
    /// # Panics
    ///
    /// If awake rounds are not tracked.
    pub fn sleep_node(&mut self, u: usize, from: u64, to: u64) {
        self.avail
            .as_mut()
            .expect("sleep_node requires awake tracking")
            .sleep(u, from, to);
    }

    /// Aggregate awake read-outs; `None` when tracking is not enabled.
    /// O(n) — called at stage boundaries only.
    pub fn awake_stats(&self) -> Option<AwakeStats> {
        self.avail.as_ref().and_then(Availability::awake_stats)
    }

    /// Degree of `u` at `radius` counting only the neighbours that hear
    /// a clean transmission right now (see [`Availability::hears`]).
    /// Equals [`RadioNet::degree`] when everyone hears.
    pub fn hearing_degree(&self, u: usize, radius: f64) -> usize {
        let round = self.clock.now();
        let Some(av) = self.avail.as_ref().filter(|av| av.filters_at(round)) else {
            return self.degree(u, radius);
        };
        match self.topology_at(radius) {
            Some(t) => t
                .ids(u)
                .iter()
                .filter(|&&v| av.hears(v as usize, round))
                .count(),
            None => {
                let mut deg = 0usize;
                self.grid.for_neighbors_within(u, radius, |v, _| {
                    deg += usize::from(av.hears(v, round));
                });
                deg
            }
        }
    }

    /// Debug check shared by every clean transmission: departed nodes
    /// never run, and no protocol asks a scheduled sleeper to transmit.
    #[inline]
    fn debug_assert_sender(&self, u: usize) {
        debug_assert!(!self.departed(u), "transmission from departed node {u}");
        debug_assert!(
            !self
                .avail
                .as_ref()
                .is_some_and(|av| av.scheduled_asleep(u, self.clock.now())),
            "transmission from sleeping node {u}"
        );
    }

    /// The active fault schedule, if fault injection is enabled.
    #[inline]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Fault counters accumulated so far.
    #[inline]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Records one fault event: bumps the matching counter and mirrors a
    /// [`TraceEvent::Fault`] to the sink, if any.
    pub fn note_fault(
        &mut self,
        what: FaultKind,
        kind: &'static str,
        src: usize,
        dst: Option<usize>,
    ) {
        self.fault_stats.note(what);
        let round = self.clock.now();
        self.emit(|| TraceEvent::Fault {
            round,
            what,
            kind,
            src,
            dst,
        });
    }

    /// Attaches a trace sink: every subsequent transmission, clock advance
    /// and protocol-reported phase/merge is mirrored to it. The sink
    /// borrow lives as long as the network's point borrow.
    pub fn set_sink(&mut self, sink: &'a mut dyn TraceSink) {
        self.sink = Some(sink);
    }

    /// Detaches the current sink, if any.
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    /// Whether a trace sink is attached (events are being emitted).
    #[inline]
    pub fn traced(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event to the sink if one is attached; the closure defers
    /// event construction so untraced runs pay nothing.
    #[inline]
    fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&build());
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Node positions.
    #[inline]
    pub fn points(&self) -> &'a [Point] {
        self.points
    }

    /// Position of node `u`.
    #[inline]
    pub fn pos(&self, u: usize) -> Point {
        self.points[u]
    }

    /// Euclidean distance between two nodes.
    #[inline]
    pub fn dist(&self, u: usize, v: usize) -> f64 {
        self.points[u].dist(&self.points[v])
    }

    /// The path-loss model in force.
    #[inline]
    pub fn loss(&self) -> PathLoss {
        self.config.loss
    }

    /// The full energy configuration.
    #[inline]
    pub fn config(&self) -> EnergyConfig {
        self.config
    }

    /// Read access to the energy ledger.
    #[inline]
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Read access to the round clock.
    #[inline]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Mutable clock access for protocols that account rounds themselves.
    #[inline]
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Builds (or reuses) the cached CSR adjacency at `radius`. Fixed-radius
    /// protocols call this once up front; every subsequent neighbour query
    /// or broadcast at a bitwise-equal radius is then a slice lookup
    /// instead of a grid scan. A second call with the same radius is free.
    ///
    /// The cached rows are in grid visit order — identical content and
    /// order to a live [`BucketGrid`] query — so switching a protocol onto
    /// the cache cannot change its energy ledger or trace.
    pub fn cache_topology(&mut self, radius: f64) {
        if self
            .topo
            .as_ref()
            .is_some_and(|t| radius_close(t.radius(), radius))
        {
            return;
        }
        if let Some(t) = self
            .prewarmed
            .iter()
            .find(|t| radius_close(t.radius(), radius))
        {
            self.topo = Some(t.clone());
            return;
        }
        self.topo = Some(std::sync::Arc::new(Topology::build(&self.grid, radius)));
    }

    /// Installs a pre-built shared topology (the instance-reuse fast path):
    /// subsequent [`RadioNet::cache_topology`] calls at the same radius
    /// reuse it instead of rebuilding. The rows must describe this
    /// network's points — [`crate::Topology::build`] over the same
    /// positions — which `Sim::from_instance` guarantees by construction.
    pub fn install_topology(&mut self, topo: std::sync::Arc<Topology>) {
        if self.topo.is_none() {
            self.topo = Some(topo.clone());
        }
        self.prewarmed.push(topo);
    }

    /// Shared handle to the cached topology, if one has been built —
    /// lets a caller keep the build alive past this run (instance reuse).
    #[inline]
    pub fn topology_handle(&self) -> Option<std::sync::Arc<Topology>> {
        self.topo.clone()
    }

    /// The cached topology, if one has been built.
    #[inline]
    pub fn topology(&self) -> Option<&Topology> {
        self.topo.as_deref()
    }

    /// The cached topology *at this radius*, if present. Callers that may
    /// run at varying radii use this to take the fast path only when it is
    /// actually valid. The match tolerates a couple of ulps (see
    /// `radius_close`): a caller that recomputes the operating radius
    /// through a different floating-point expression must not silently
    /// fall back to live-grid queries — that was a silent 4× slowdown.
    #[inline]
    pub fn topology_at(&self, radius: f64) -> Option<&Topology> {
        self.topo
            .as_deref()
            .filter(|t| radius_close(t.radius(), radius))
    }

    /// Neighbours of `u` within `radius` with distances (the unit-disk
    /// neighbourhood at the current operating radius).
    pub fn neighbors(&self, u: usize, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.neighbors_into(u, radius, &mut out);
        out
    }

    /// Fills `out` with the neighbours of `u` within `radius`, reusing the
    /// buffer's capacity. Served from the cached topology when it matches,
    /// otherwise from the grid; both produce the same list in the same
    /// order.
    pub fn neighbors_into(&self, u: usize, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if let Some(t) = self.topology_at(radius) {
            t.extend_row_into(u, out);
        } else {
            self.grid.neighbors_within_into(u, radius, out);
        }
    }

    /// Calls `f(v, dist)` for the entries of `u`'s row at `radius` (see
    /// [`RadioNet::neighbors_into`]) with `dist <= bound`, in row order:
    /// the cached topology's row with the farther entries skipped, or
    /// the grid cells of the disk of radius `min(bound, radius)`.
    pub fn for_neighbors_within_bound(
        &self,
        u: usize,
        radius: f64,
        bound: f64,
        mut f: impl FnMut(usize, f64),
    ) {
        if let Some(t) = self.topology_at(radius) {
            for (v, d) in t.neighbors(u).filter(|&(_, d)| d <= bound) {
                f(v, d);
            }
        } else {
            self.grid.for_neighbors_within_bound(u, radius, bound, f);
        }
    }

    /// Degree of `u` at `radius`.
    pub fn degree(&self, u: usize, radius: f64) -> usize {
        if let Some(t) = self.topology_at(radius) {
            t.degree(u)
        } else {
            self.grid.degree_within(u, radius)
        }
    }

    /// The spatial index (for read-only geometric queries by protocols).
    #[inline]
    pub fn grid(&self) -> &BucketGrid<'a> {
        &self.grid
    }

    /// Sends one message from `u` to `v` with power exactly reaching `v`:
    /// charges `a·d(u,v)^α`. Power control may exceed any nominal unit-disk
    /// radius (Co-NNT escalates beyond it), so no radius check is applied
    /// here; radius-disciplined protocols should assert on their side.
    pub fn unicast(&mut self, u: usize, v: usize, kind: &'static str) {
        assert!(u != v, "node {u} cannot unicast to itself");
        self.debug_assert_sender(u);
        debug_assert!(!self.departed(v), "unicast {u}→{v} to a departed node");
        let e = self.config.loss.energy(&self.points[u], &self.points[v]);
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(1, self.config.rx);
        }
        let round = self.clock.now();
        let power = if self.sink.is_some() {
            self.points[u].dist(&self.points[v])
        } else {
            0.0
        };
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: Some(v),
            power,
            energy: e,
        });
    }

    /// [`RadioNet::unicast`] with the transmit energy precomputed by the
    /// caller — identical charges and trace event, but the (cacheable)
    /// path-loss evaluation is skipped. The energy must be exactly
    /// `loss().energy(&pos(u), &pos(v))`; protocols use this to memoise
    /// tree-edge energies that are charged once per phase.
    pub fn unicast_with_energy(&mut self, u: usize, v: usize, kind: &'static str, e: f64) {
        assert!(u != v, "node {u} cannot unicast to itself");
        self.debug_assert_sender(u);
        debug_assert_eq!(
            e.to_bits(),
            self.config
                .loss
                .energy(&self.points[u], &self.points[v])
                .to_bits(),
            "prepaid unicast energy must match the live path-loss value"
        );
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(1, self.config.rx);
        }
        let round = self.clock.now();
        let power = if self.sink.is_some() {
            self.points[u].dist(&self.points[v])
        } else {
            0.0
        };
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: Some(v),
            power,
            energy: e,
        });
    }

    /// A request/reply exchange between `u` and `v`: two messages, total
    /// energy `2·a·d^α` (§II's bidirectional cost).
    pub fn exchange(&mut self, u: usize, v: usize, kind: &'static str) {
        self.unicast(u, v, kind);
        self.unicast(v, u, kind);
    }

    /// Local broadcast: `u` transmits once at power `radius`, reaching every
    /// node within `radius`. Charges `a·radius^α` for the single
    /// transmission and returns the receivers (excluding `u`).
    pub fn local_broadcast(
        &mut self,
        u: usize,
        radius: f64,
        kind: &'static str,
    ) -> Vec<(usize, f64)> {
        let mut receivers = Vec::new();
        self.local_broadcast_into(u, radius, kind, &mut receivers);
        receivers
    }

    /// [`RadioNet::local_broadcast`] into a caller-owned scratch buffer:
    /// identical charges, receivers, and trace event, but no per-call
    /// allocation once the buffer has warmed up. The receiver list is
    /// served from the cached topology when one matches `radius`.
    pub fn local_broadcast_into(
        &mut self,
        u: usize,
        radius: f64,
        kind: &'static str,
        receivers: &mut Vec<(usize, f64)>,
    ) {
        assert!(radius >= 0.0, "negative broadcast radius");
        self.debug_assert_sender(u);
        let e = self.config.loss.energy_for_distance(radius);
        self.ledger.charge(kind, e);
        receivers.clear();
        if let Some(t) = self.topology_at(radius) {
            t.extend_row_into(u, receivers);
        } else {
            self.grid.neighbors_within_into(u, radius, receivers);
        }
        // Departed and scheduled-asleep nodes are not delivered to: the
        // transmission still radiates (and is charged) at full power. The
        // `filters_at` pre-check keeps runs where everyone hears on the
        // identical path (no retain call at all).
        let round = self.clock.now();
        if let Some(av) = self.avail.as_ref().filter(|av| av.filters_at(round)) {
            receivers.retain(|&(v, _)| av.hears(v, round));
        }
        if self.config.rx > 0.0 {
            self.ledger
                .charge_rx(receivers.len() as u64, self.config.rx);
        }
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: None,
            power: radius,
            energy: e,
        });
    }

    /// Charges a broadcast without materialising the receiver list (for
    /// protocols that already know their neighbourhood).
    /// NOTE: under a non-zero rx cost this still charges receivers (via a
    /// degree query) so the two broadcast flavours stay energy-equivalent.
    pub fn local_broadcast_silent(&mut self, u: usize, radius: f64, kind: &'static str) {
        assert!(radius >= 0.0, "negative broadcast radius");
        self.debug_assert_sender(u);
        let e = self.config.loss.energy_for_distance(radius);
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            let deg = self.hearing_degree(u, radius) as u64;
            self.ledger.charge_rx(deg, self.config.rx);
        }
        let round = self.clock.now();
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: None,
            power: radius,
            energy: e,
        });
    }

    /// Advances the round clock by one, charging idle energy for every
    /// node under the extended model. All protocol code advances time
    /// through this (or [`RadioNet::advance_rounds`]) so idle accounting
    /// cannot be bypassed.
    pub fn tick_round(&mut self) {
        self.advance_rounds(1);
    }

    /// Advances the round clock by `k`, charging `idle_per_round` per
    /// node-round that draws idle power: departed nodes and scheduled
    /// sleepers pay nothing, crashed and adversarially asleep ones do.
    /// Awake rounds are accounted here too — every clock movement goes
    /// through this, so protocols cannot bypass it.
    pub fn advance_rounds(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        let from = self.clock.now();
        self.clock.advance(k);
        let to = self.clock.now();
        let node_rounds = match self.avail.as_mut() {
            None => k * self.points.len() as u64,
            Some(av) => av.on_advance(from, to),
        };
        if self.config.idle_per_round > 0.0 {
            // An exact integer below 2^53, so `k·count` and a per-window
            // sum of the same count charge bit-identically.
            self.ledger
                .charge_idle(node_rounds as f64 * self.config.idle_per_round);
        }
        self.emit(|| TraceEvent::Rounds { from, to });
    }

    /// Charges one transmission attempt by `src` at an explicit power and
    /// energy — used by the contention layer to account ALOHA retries
    /// (each retry radiates the full transmit energy again).
    pub fn charge_attempt(&mut self, kind: &'static str, src: usize, power: f64, energy: f64) {
        self.charge_tx(kind, src, None, power, energy);
    }

    /// [`RadioNet::charge_attempt`] with an explicit destination: one
    /// transmit charge (no reception accounting — the caller decides which
    /// receivers actually hear it). The reliability layer uses this so
    /// retried unicasts keep their `dst` in the trace.
    pub fn charge_tx(
        &mut self,
        kind: &'static str,
        src: usize,
        dst: Option<usize>,
        power: f64,
        energy: f64,
    ) {
        self.ledger.charge(kind, energy);
        let round = self.clock.now();
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src,
            dst,
            power,
            energy,
        });
    }

    /// Reports a protocol phase transition to the trace sink (no energy or
    /// clock effect). `scope` namespaces the protocol (`"ghs"`, `"eopt1"`,
    /// …), `index` counts phases within it, `stage` labels the step.
    pub fn note_phase(&mut self, scope: &'static str, index: u64, stage: &'static str) {
        let round = self.clock.now();
        self.emit(|| TraceEvent::Phase {
            round,
            scope,
            index,
            stage,
        });
    }

    /// Reports a fragment merge to the trace sink (no energy or clock
    /// effect): `absorbed` fragments joined the fragment led by `leader`,
    /// which now has `size` members.
    pub fn note_merge(&mut self, leader: usize, absorbed: usize, size: usize) {
        let round = self.clock.now();
        self.emit(|| TraceEvent::Merge {
            round,
            leader,
            absorbed,
            size,
        });
    }

    /// Publishes a completed stage's resource deltas to the sink (pure
    /// telemetry: no ledger or clock effect). Called by the stage runtime
    /// at every stage boundary.
    pub fn note_stage(&mut self, mark: crate::trace::StageMark) {
        self.emit(|| TraceEvent::Stage(mark));
    }

    /// Charges `count` successful receptions under the extended model
    /// (no-op when the rx cost is zero).
    pub fn charge_receptions(&mut self, count: u64) {
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(count, self.config.rx);
        }
    }

    /// Takes the ledger out (e.g. to merge into a parent protocol's stats),
    /// leaving an empty one.
    pub fn take_ledger(&mut self) -> EnergyLedger {
        std::mem::take(&mut self.ledger)
    }
}

/// Whether a cached-topology radius matches a query radius.
///
/// Bitwise equality plus a two-ulp tolerance: operating radii are always
/// recomputed through closed-form expressions (`paper_phase2_radius` and
/// friends), so a mismatch of one or two ulps means "the same radius via a
/// different floating-point expression", not a different operating radius.
/// Serving the cache there is sound — a node whose distance falls strictly
/// between two radii a couple of ulps apart would change the neighbourhood,
/// but positions are continuous samples and such coincidences do not occur
/// at f64 resolution. Genuinely different radii (protocol phase changes)
/// differ by many orders of magnitude more and still rebuild/fall through.
fn radius_close(cached: f64, query: f64) -> bool {
    if cached.to_bits() == query.to_bits() {
        return true;
    }
    cached.is_finite()
        && query.is_finite()
        && cached > 0.0
        && query > 0.0
        && cached.to_bits().abs_diff(query.to_bits()) <= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points};

    #[test]
    fn clock_advances() {
        let mut c = Clock::default();
        assert_eq!(c.now(), 0);
        c.tick();
        c.advance(4);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn unicast_charges_squared_distance() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.unicast(0, 1, "t");
        assert!((net.ledger().total_energy() - 0.25).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 1);
    }

    #[test]
    fn exchange_is_twice_unicast() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.exchange(0, 1, "t");
        assert!((net.ledger().total_energy() - 0.5).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot unicast to itself")]
    fn self_unicast_rejected() {
        let pts = vec![Point::new(0.0, 0.0)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.unicast(0, 0, "t");
    }

    #[test]
    fn broadcast_charges_radius_power_and_reaches_disk() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.55, 0.5),
            Point::new(0.9, 0.9),
        ];
        let mut net = RadioNet::new(&pts, 1.0);
        let rcv = net.local_broadcast(0, 0.1, "b");
        assert_eq!(rcv.len(), 1);
        assert_eq!(rcv[0].0, 1);
        assert!((net.ledger().total_energy() - 0.01).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 1);
    }

    #[test]
    fn broadcast_silent_charges_same_energy() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.5)];
        let mut a = RadioNet::new(&pts, 1.0);
        let mut b = RadioNet::new(&pts, 1.0);
        a.local_broadcast(0, 0.2, "b");
        b.local_broadcast_silent(0, 0.2, "b");
        assert_eq!(a.ledger().total_energy(), b.ledger().total_energy());
    }

    #[test]
    fn neighbors_respect_radius() {
        let pts = uniform_points(300, &mut trial_rng(71, 0));
        let net = RadioNet::new(&pts, 0.1);
        for u in [0usize, 100, 299] {
            let nb = net.neighbors(u, 0.1);
            for &(v, d) in &nb {
                assert!(d <= 0.1 + 1e-12);
                assert!((net.dist(u, v) - d).abs() < 1e-12);
            }
            assert_eq!(net.degree(u, 0.1), nb.len());
            let brute = (0..300)
                .filter(|&v| v != u && pts[u].dist(&pts[v]) <= 0.1)
                .count();
            assert_eq!(nb.len(), brute);
        }
    }

    #[test]
    fn queries_beyond_grid_radius_are_correct() {
        // Grid sized for 0.05 but queried at 0.5 must still be exhaustive.
        let pts = uniform_points(200, &mut trial_rng(72, 0));
        let net = RadioNet::new(&pts, 0.05);
        let nb = net.neighbors(7, 0.5);
        let brute = (0..200)
            .filter(|&v| v != 7 && pts[7].dist(&pts[v]) <= 0.5)
            .count();
        assert_eq!(nb.len(), brute);
    }

    #[test]
    fn cached_topology_broadcasts_are_bit_identical() {
        // The same broadcast sequence, once against the grid and once
        // against the cached topology, must produce identical receiver
        // lists (content and order) and identical ledgers.
        let pts = uniform_points(200, &mut trial_rng(73, 0));
        let r = 0.09;
        let mut plain = RadioNet::new(&pts, r);
        let mut cached = RadioNet::new(&pts, r);
        cached.cache_topology(r);
        assert!(cached.topology_at(r).is_some());
        assert!(cached.topology_at(r * 0.5).is_none());
        let mut buf = Vec::new();
        for u in 0..200 {
            let a = plain.local_broadcast(u, r, "b");
            cached.local_broadcast_into(u, r, "b", &mut buf);
            assert_eq!(a.len(), buf.len(), "node {u}");
            for (x, y) in a.iter().zip(buf.iter()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
            assert_eq!(plain.degree(u, r), cached.degree(u, r));
        }
        assert_eq!(
            plain.ledger().total_energy().to_bits(),
            cached.ledger().total_energy().to_bits()
        );
        assert_eq!(
            plain.ledger().total_messages(),
            cached.ledger().total_messages()
        );
    }

    #[test]
    fn cache_topology_is_idempotent_and_radius_checked() {
        let pts = uniform_points(50, &mut trial_rng(74, 0));
        let mut net = RadioNet::new(&pts, 0.1);
        assert!(net.topology().is_none());
        net.cache_topology(0.1);
        let edges = net.topology().unwrap().directed_edges();
        net.cache_topology(0.1); // no-op rebuild
        assert_eq!(net.topology().unwrap().directed_edges(), edges);
        net.cache_topology(0.2); // different radius → rebuilt
        assert!(net.topology_at(0.2).is_some());
        assert!(net.topology_at(0.1).is_none());
        assert!(net.topology().unwrap().directed_edges() >= edges);
    }

    #[test]
    fn neighbors_into_matches_neighbors_under_cache_mismatch() {
        // A cached topology at a *different* radius must not poison
        // queries at other radii: they fall through to the grid. A bound
        // at a row's middle distance keeps the row's entries up to it,
        // from the cached row and from the grid alike.
        let pts = uniform_points(150, &mut trial_rng(75, 0));
        let mut net = RadioNet::new(&pts, 0.05);
        net.cache_topology(0.05);
        let (mut buf, mut near) = (Vec::new(), Vec::new());
        for u in [0usize, 70, 149] {
            for r in [0.02, 0.05, 0.3] {
                net.neighbors_into(u, r, &mut buf);
                assert_eq!(buf, net.neighbors(u, r), "u={u} r={r}");
                let bound = buf.get(buf.len() / 2).map_or(r, |&(_, d)| d);
                near.clear();
                net.for_neighbors_within_bound(u, r, bound, |v, d| near.push((v, d)));
                buf.retain(|&(_, d)| d <= bound);
                assert_eq!(near, buf, "u={u} r={r} bound={bound}");
            }
        }
    }

    #[test]
    fn topology_cache_tolerates_ulp_recomputed_radius() {
        // Regression: a caller recomputing the operating radius through a
        // different floating-point expression lands a few ulps off; the
        // bitwise compare used to miss the cache silently (a 4× slowdown),
        // and a second `cache_topology` call used to rebuild from scratch.
        let pts = uniform_points(120, &mut trial_rng(76, 0));
        let r = (9.0f64 * (120f64).ln() / 120.0).sqrt();
        let mut net = RadioNet::new(&pts, r);
        net.cache_topology(r);
        for ulps in [1u64, 2] {
            let r_off = f64::from_bits(r.to_bits() + ulps);
            assert!(
                net.topology_at(r_off).is_some(),
                "+{ulps} ulp must still hit the cache"
            );
            let r_off = f64::from_bits(r.to_bits() - ulps);
            assert!(
                net.topology_at(r_off).is_some(),
                "-{ulps} ulp must still hit the cache"
            );
        }
        // Genuinely different radii still miss (and rebuild on request).
        assert!(net.topology_at(r * 0.5).is_none());
        assert!(net.topology_at(r * 1.01).is_none());
        let r_near = f64::from_bits(r.to_bits() + 1);
        net.cache_topology(r_near); // must be a no-op, not a rebuild
        assert_eq!(net.topology().unwrap().radius().to_bits(), r.to_bits());
    }

    #[test]
    fn noop_fault_plan_is_discarded() {
        use crate::fault::FaultPlan;
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.set_faults(FaultPlan::none().seed(9).retries(7));
        assert!(net.faults().is_none(), "no-op plans must be elided");
        net.set_faults(FaultPlan::none().drop_probability(0.1));
        assert!(net.faults().is_some());
        assert!(net.fault_stats().is_clean());
    }

    #[test]
    fn all_live_membership_is_discarded() {
        use crate::membership::Membership;
        let pts = uniform_points(10, &mut trial_rng(77, 0));
        let mut net = RadioNet::new(&pts, 0.3);
        net.set_members(&Membership::all_live(10));
        assert!(
            net.availability().is_none(),
            "all-live memberships must be elided"
        );
        let mut m = Membership::all_live(10);
        m.leave(3);
        net.set_members(&m);
        assert!(net.availability().is_some());
        assert!(!net.departed(0) && net.departed(3));
    }

    #[test]
    fn membership_filters_delivery_and_reception() {
        use crate::membership::Membership;
        let pts = uniform_points(120, &mut trial_rng(78, 0));
        let r = 0.2;
        let mut m = Membership::all_live(120);
        for u in (0..120).step_by(3) {
            m.leave(u);
        }
        let mut net = RadioNet::with_config(
            &pts,
            r,
            EnergyConfig::extended(PathLoss::paper(), 0.001, 0.0),
        );
        net.cache_topology(r);
        net.set_members(&m);
        let mut plain = RadioNet::new(&pts, r);
        plain.cache_topology(r);
        let mut buf = Vec::new();
        for u in [1usize, 50, 119] {
            net.local_broadcast_into(u, r, "b", &mut buf);
            assert!(buf.iter().all(|&(v, _)| m.is_live(v)), "dead receiver");
            assert_eq!(buf.len(), net.hearing_degree(u, r));
            let full: Vec<_> = plain
                .local_broadcast(u, r, "b")
                .into_iter()
                .filter(|&(v, _)| m.is_live(v))
                .collect();
            assert_eq!(buf, full, "live sublist must keep grid visit order");
        }
        // Silent broadcasts charge receptions for live neighbours only.
        let before = net.ledger().rx_count();
        net.local_broadcast_silent(1, r, "b");
        assert_eq!(
            net.ledger().rx_count() - before,
            net.hearing_degree(1, r) as u64
        );
    }

    #[test]
    fn membership_faults_and_tracking_share_one_timeline() {
        use crate::fault::FaultPlan;
        use crate::membership::Membership;
        let pts = uniform_points(6, &mut trial_rng(79, 0));
        let mut net = RadioNet::with_config(
            &pts,
            0.3,
            EnergyConfig::extended(PathLoss::paper(), 0.0, 1.0),
        );
        net.set_faults(FaultPlan::none().drop_probability(0.1).crash_at(2, 0));
        let mut m = Membership::all_live(6);
        m.leave(0);
        net.set_members(&m);
        net.track_awake();
        assert!(net.departed(0) && net.crashed(2, 0) && net.down(2, 0));
        assert!(!net.delivers(0, 1, 2), "a crashed receiver never hears");
        // The departed node draws no idle power; the crashed one does.
        net.advance_rounds(3);
        assert_eq!(net.awake_stats().unwrap().total, 15);
        assert_eq!(net.ledger().idle_energy(), 15.0);
        // Dropping the plan keeps the departure and the tracking.
        net.set_faults(FaultPlan::none());
        assert!(net.faults().is_none() && !net.crashed(2, 0));
        assert!(net.departed(0) && net.awake_tracked());
    }

    #[test]
    fn note_fault_counts_and_traces() {
        use crate::fault::FaultKind;
        use crate::trace::MetricsSink;
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut sink = MetricsSink::new();
        {
            let mut net = RadioNet::new(&pts, 1.0);
            net.set_sink(&mut sink);
            net.note_fault(FaultKind::Drop, "t", 0, Some(1));
            net.note_fault(FaultKind::Retry, "t", 0, Some(1));
            net.note_fault(FaultKind::Retry, "t", 0, None);
            net.note_fault(FaultKind::Timeout, "t", 1, None);
            let fs = net.fault_stats();
            assert_eq!((fs.drops, fs.retries, fs.timeouts), (1, 2, 1));
        }
        assert_eq!(sink.fault_drops(), 1);
        assert_eq!(sink.fault_retries(), 2);
        assert_eq!(sink.fault_timeouts(), 1);
    }

    #[test]
    fn charge_tx_keeps_destination_in_trace() {
        use crate::trace::{TraceEvent, TraceSink};
        #[derive(Default)]
        struct Last(Option<TraceEvent>);
        impl TraceSink for Last {
            fn record(&mut self, e: &TraceEvent) {
                self.0 = Some(e.clone());
            }
        }
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut sink = Last::default();
        {
            let mut net = RadioNet::new(&pts, 1.0);
            net.set_sink(&mut sink);
            net.charge_tx("t", 0, Some(1), 0.5, 0.25);
            assert!((net.ledger().total_energy() - 0.25).abs() < 1e-15);
        }
        match sink.0 {
            Some(TraceEvent::Message { dst, power, .. }) => {
                assert_eq!(dst, Some(1));
                assert!((power - 0.5).abs() < 1e-15);
            }
            other => panic!("expected a message event, got {other:?}"),
        }
    }

    #[test]
    fn take_ledger_resets() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let mut net = RadioNet::new(&pts, 1.5);
        net.unicast(0, 1, "t");
        let l = net.take_ledger();
        assert_eq!(l.total_messages(), 1);
        assert_eq!(net.ledger().total_messages(), 0);
    }

    #[test]
    fn custom_loss_model_applies() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        let mut net = RadioNet::with_loss(&pts, 1.0, PathLoss::new(2.0, 1.0));
        net.unicast(0, 1, "t");
        assert!((net.ledger().total_energy() - 1.0).abs() < 1e-15); // 2·0.5¹
    }
}
