//! Synchronous discrete-event engine for reactive per-node protocols.
//!
//! The engine executes the model of §II directly: time is a sequence of
//! rounds; in each round every node reads the messages delivered to it
//! (those sent in the previous round), updates its local state, and emits at
//! most a bounded number of transmissions, each charged to the energy
//! ledger at send time. Neighbour discovery and Co-NNT run on this engine
//! as genuine message-passing state machines; the GHS family uses
//! stage-orchestrated simulation (see `emst-core::ghs`) under the standard
//! synchroniser abstraction.

use crate::contention::{resolve_round, ContentionConfig, ContentionOverflow, PendingTx, SlotRng};
use crate::fault::{backoff_stream_seed, FaultKind};
use crate::network::RadioNet;
use emst_geom::Point;

/// A message delivered to a node, with the measured distance to the sender
/// (the RSSI abstraction: receivers can estimate the sender's distance).
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Sender node id.
    pub from: usize,
    /// Euclidean distance to the sender.
    pub dist: f64,
    /// Payload.
    pub msg: M,
}

/// A transmission requested by a node during its round callback.
#[derive(Debug, Clone)]
enum Outgoing<M> {
    Unicast {
        to: usize,
        kind: &'static str,
        msg: M,
    },
    Broadcast {
        radius: f64,
        kind: &'static str,
        msg: M,
    },
}

/// Per-round context handed to a node: identity, geometry it is entitled to
/// know, and the outbox.
pub struct Ctx<'c, M> {
    me: usize,
    pos: Point,
    n: usize,
    round: u64,
    outbox: &'c mut Vec<(usize, Outgoing<M>)>,
}

impl<'c, M> Ctx<'c, M> {
    /// This node's id.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// This node's position. (Only coordinate-aware protocols such as
    /// Co-NNT may consult it — the GHS family must not, per §II; that
    /// discipline is by convention, enforced in code review of protocols.)
    #[inline]
    pub fn pos(&self) -> Point {
        self.pos
    }

    /// Network size `n`, which §VI assumes nodes know approximately.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queues a unicast to `to`; delivered next round, energy `a·d^α`.
    pub fn unicast(&mut self, to: usize, kind: &'static str, msg: M) {
        self.outbox
            .push((self.me, Outgoing::Unicast { to, kind, msg }));
    }

    /// Queues a local broadcast at power `radius`; delivered next round to
    /// every node within `radius`, energy `a·radius^α` once.
    pub fn broadcast(&mut self, radius: f64, kind: &'static str, msg: M) {
        self.outbox
            .push((self.me, Outgoing::Broadcast { radius, kind, msg }));
    }
}

/// A reactive per-node protocol.
pub trait NodeProtocol {
    /// Message payload type.
    type Msg: Clone;

    /// Called once per round for every node, with the messages delivered
    /// this round (sent last round). `inbox` order is deterministic:
    /// ascending sender id, unicasts before broadcast receptions from the
    /// same round.
    fn on_round(&mut self, inbox: &[Delivery<Self::Msg>], ctx: &mut Ctx<'_, Self::Msg>);

    /// True when this node has terminated (it may still receive messages).
    fn done(&self) -> bool;
}

/// Error from [`SyncEngine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundLimitExceeded {
    /// The limit that was hit.
    pub max_rounds: u64,
}

impl std::fmt::Display for RoundLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol did not quiesce within {} rounds",
            self.max_rounds
        )
    }
}

impl std::error::Error for RoundLimitExceeded {}

/// Error from [`SyncEngine::try_run`]: either the protocol did not quiesce
/// in time, or the contention layer overflowed its slot budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The round budget ran out before quiescence.
    RoundLimit(RoundLimitExceeded),
    /// The MAC layer hit [`ContentionConfig::max_slots_per_round`].
    Contention(ContentionOverflow),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RoundLimit(e) => e.fmt(f),
            EngineError::Contention(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RoundLimitExceeded> for EngineError {
    fn from(e: RoundLimitExceeded) -> Self {
        EngineError::RoundLimit(e)
    }
}

impl From<ContentionOverflow> for EngineError {
    fn from(e: ContentionOverflow) -> Self {
        EngineError::Contention(e)
    }
}

/// A message held by the reliability layer until every intended receiver
/// has heard it (or the retry budget runs out).
struct ReliableTx<M> {
    from: usize,
    kind: &'static str,
    /// `Some` for unicast-shaped messages (kept in trace events).
    dst: Option<usize>,
    power: f64,
    energy: f64,
    /// Receivers (with distances) still waiting for this message.
    pending: Vec<(usize, f64)>,
    attempts: u32,
    msg: M,
}

/// Synchronous executor: one protocol instance per node over a
/// [`RadioNet`].
pub struct SyncEngine<'a, P: NodeProtocol> {
    net: RadioNet<'a>,
    nodes: Vec<P>,
    inboxes: Vec<Vec<Delivery<P::Msg>>>,
    /// Reusable receiver buffer for broadcast fan-out — one allocation for
    /// the whole run instead of one per broadcast.
    rx_scratch: Vec<(usize, f64)>,
    /// Pooled outbox: taken at the start of each round, drained by the
    /// transmit path, returned with its capacity intact.
    outbox: Vec<(usize, Outgoing<P::Msg>)>,
    /// Pooled per-node inbox view: each node's inbox is swapped in here
    /// for its callback and swapped back cleared, so the per-node buffers
    /// keep their capacity instead of being dropped every round.
    inbox_scratch: Vec<Delivery<P::Msg>>,
    /// Pooled survivor list for the reliability layer's per-transmission
    /// retry filtering.
    still_scratch: Vec<(usize, f64)>,
    /// Pooled drain buffer for the retry queue.
    retry_scratch: Vec<ReliableTx<P::Msg>>,
    contention: Option<(ContentionConfig, SlotRng)>,
    /// Messages awaiting retransmission under the fault path.
    retry_queue: Vec<ReliableTx<P::Msg>>,
    /// Logical protocol rounds executed. Equals the clock under
    /// collision-free delivery; under contention one logical round spans
    /// many clock rounds (MAC slots), and protocols are scheduled by the
    /// logical counter so their phase arithmetic is MAC-agnostic.
    logical_round: u64,
}

impl<'a, P: NodeProtocol> SyncEngine<'a, P> {
    /// Creates an engine; `nodes.len()` must equal the network size.
    pub fn new(net: RadioNet<'a>, nodes: Vec<P>) -> Self {
        assert_eq!(
            net.n(),
            nodes.len(),
            "one protocol instance per network node required"
        );
        let n = nodes.len();
        SyncEngine {
            net,
            nodes,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            rx_scratch: Vec::new(),
            outbox: Vec::new(),
            inbox_scratch: Vec::new(),
            still_scratch: Vec::new(),
            retry_scratch: Vec::new(),
            contention: None,
            retry_queue: Vec::new(),
            logical_round: 0,
        }
    }

    /// Creates an engine whose transmissions contend under slotted ALOHA +
    /// RBN interference (§VIII) instead of the paper's collision-free
    /// assumption. Each logical round expands into MAC slots; every
    /// attempt radiates full transmit energy and the clock advances by the
    /// number of slots used.
    ///
    /// The backoff RNG is seeded through [`backoff_stream_seed`], a
    /// splitmix64 stream domain-separated from the fault-coin stream, so
    /// configuring both layers with the same seed cannot correlate loss
    /// with backoff.
    pub fn with_contention(net: RadioNet<'a>, nodes: Vec<P>, cfg: ContentionConfig) -> Self {
        assert!(
            net.faults().is_none(),
            "fault injection composes with the collision-free engine only"
        );
        let mut eng = SyncEngine::new(net, nodes);
        let rng = SlotRng::new(backoff_stream_seed(cfg.seed));
        eng.contention = Some((cfg, rng));
        eng
    }

    /// Executes one round. Returns `true` if any message was transmitted.
    /// Panics on a contention-slot overflow; [`SyncEngine::try_step`] is
    /// the non-panicking variant.
    pub fn step(&mut self) -> bool {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes one round, surfacing a MAC-layer slot overflow as a typed
    /// error instead of a panic. Everything charged and delivered before
    /// the overflow stands.
    pub fn try_step(&mut self) -> Result<bool, ContentionOverflow> {
        let n = self.nodes.len();
        let round = self.logical_round;
        self.logical_round += 1;
        let clock_round = self.net.clock().now();
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        // Deliver: swap each inbox out, call the node, collect sends. The
        // swap-in/swap-back dance (instead of dropping a taken inbox)
        // keeps every per-node buffer's capacity, so steady-state rounds
        // allocate nothing.
        let mut inbox = std::mem::take(&mut self.inbox_scratch);
        for i in 0..n {
            if let Some(av) = self.net.availability() {
                if av.departed(i) || av.crashed(i, clock_round) {
                    // Departed or crashed: discards whatever arrived,
                    // computes nothing.
                    self.inboxes[i].clear();
                    continue;
                }
                if av.down(i, clock_round) {
                    // Adversarially asleep: the inbox holds until the
                    // node wakes.
                    continue;
                }
            }
            std::mem::swap(&mut self.inboxes[i], &mut inbox);
            let mut ctx = Ctx {
                me: i,
                pos: self.net.pos(i),
                n,
                round,
                outbox: &mut outbox,
            };
            self.nodes[i].on_round(&inbox, &mut ctx);
            inbox.clear();
            std::mem::swap(&mut self.inboxes[i], &mut inbox);
        }
        self.inbox_scratch = inbox;
        let sent = !outbox.is_empty();
        if self.contention.is_some() {
            let res = self.transmit_contended(&mut outbox);
            self.outbox = outbox;
            res?;
        } else if self.net.faults().is_some() {
            self.transmit_faulty(&mut outbox);
            self.outbox = outbox;
        } else {
            self.transmit_collision_free(&mut outbox);
            self.outbox = outbox;
        }
        // Deterministic inbox order: by sender id (stable by arrival within
        // equal senders). The collision-free path delivers in ascending
        // sender order already, so the pre-check keeps steady-state rounds
        // away from the sort's scratch allocation.
        for inbox in &mut self.inboxes {
            if !inbox.windows(2).all(|w| w[0].from <= w[1].from) {
                inbox.sort_by_key(|d| d.from);
            }
        }
        Ok(sent)
    }

    /// The paper's §II semantics: every transmission is delivered in one
    /// attempt; one logical round is one clock round.
    fn transmit_collision_free(&mut self, outbox: &mut Vec<(usize, Outgoing<P::Msg>)>) {
        for (from, out) in outbox.drain(..) {
            match out {
                Outgoing::Unicast { to, kind, msg } => {
                    self.net.unicast(from, to, kind);
                    let dist = self.net.dist(from, to);
                    self.inboxes[to].push(Delivery { from, dist, msg });
                }
                Outgoing::Broadcast { radius, kind, msg } => {
                    self.net
                        .local_broadcast_into(from, radius, kind, &mut self.rx_scratch);
                    for &(to, dist) in &self.rx_scratch {
                        self.inboxes[to].push(Delivery {
                            from,
                            dist,
                            msg: msg.clone(),
                        });
                    }
                }
            }
        }
        self.net.tick_round();
    }

    /// Lossy collision-free semantics: each transmission is charged per
    /// attempt; deliveries are filtered by the fault plan's stateless drop
    /// coins and the availability timeline; undelivered messages are
    /// retried in subsequent rounds up to
    /// [`FaultPlan::max_retries`](crate::FaultPlan::max_retries) extra
    /// attempts, then abandoned with a timeout. Departed receivers are
    /// skipped silently.
    fn transmit_faulty(&mut self, outbox: &mut Vec<(usize, Outgoing<P::Msg>)>) {
        let max_retries = self
            .net
            .faults()
            .expect("faulty path requires a plan")
            .max_retries();
        let round = self.net.clock().now();
        let loss = self.net.loss();
        // Rotate the retry queue through the pooled drain buffer so the
        // requeue below reuses the old queue's capacity.
        std::mem::swap(&mut self.retry_queue, &mut self.retry_scratch);
        let mut queue = std::mem::take(&mut self.retry_scratch);
        for (from, out) in outbox.drain(..) {
            match out {
                Outgoing::Unicast { to, kind, msg } => {
                    let d = self.net.dist(from, to);
                    queue.push(ReliableTx {
                        from,
                        kind,
                        dst: Some(to),
                        power: d,
                        energy: loss.energy_for_distance(d),
                        pending: vec![(to, d)],
                        attempts: 0,
                        msg,
                    });
                }
                Outgoing::Broadcast { radius, kind, msg } => {
                    self.net.neighbors_into(from, radius, &mut self.rx_scratch);
                    queue.push(ReliableTx {
                        from,
                        kind,
                        dst: None,
                        power: radius,
                        energy: loss.energy_for_distance(radius),
                        pending: self.rx_scratch.clone(),
                        attempts: 0,
                        msg,
                    });
                }
            }
        }
        let mut delivered = 0u64;
        for mut tx in queue.drain(..) {
            if self.net.crashed(tx.from, round) {
                // The sender crashed with the message in hand: abandoned,
                // nothing radiated.
                self.net
                    .note_fault(FaultKind::Timeout, tx.kind, tx.from, tx.dst);
                continue;
            }
            if self.net.down(tx.from, round) {
                // A sleeping sender holds the message (uncharged) and
                // transmits once awake.
                self.retry_queue.push(tx);
                continue;
            }
            tx.attempts += 1;
            if tx.attempts > 1 {
                self.net
                    .note_fault(FaultKind::Retry, tx.kind, tx.from, tx.dst);
            }
            // Every attempt radiates full transmit energy, delivered or not.
            self.net
                .charge_tx(tx.kind, tx.from, tx.dst, tx.power, tx.energy);
            let mut still = std::mem::take(&mut self.still_scratch);
            for (v, d) in tx.pending.drain(..) {
                if self.net.departed(v) {
                    // A departed receiver is not there to wait for.
                } else if self.net.crashed(v, round) {
                    // A crashed receiver will never ack: count the loss
                    // once and stop waiting for it.
                    self.net
                        .note_fault(FaultKind::Drop, tx.kind, tx.from, Some(v));
                } else if self.net.delivers(round, tx.from, v) {
                    self.inboxes[v].push(Delivery {
                        from: tx.from,
                        dist: d,
                        msg: tx.msg.clone(),
                    });
                    delivered += 1;
                } else {
                    self.net
                        .note_fault(FaultKind::Drop, tx.kind, tx.from, Some(v));
                    still.push((v, d));
                }
            }
            if still.is_empty() {
                self.still_scratch = still;
                continue;
            }
            if tx.attempts > max_retries {
                self.net
                    .note_fault(FaultKind::Timeout, tx.kind, tx.from, tx.dst);
                still.clear();
                self.still_scratch = still;
            } else {
                std::mem::swap(&mut tx.pending, &mut still);
                self.still_scratch = still; // the drained old pending buffer
                self.retry_queue.push(tx);
            }
        }
        self.retry_scratch = queue;
        // rx energy only for messages actually heard.
        self.net.charge_receptions(delivered);
        self.net.tick_round();
    }

    /// §VIII semantics: the round's transmissions contend in MAC slots
    /// until every intended receiver has heard its message; retries are
    /// charged in full and the clock advances by the slot count.
    fn transmit_contended(
        &mut self,
        outbox: &mut Vec<(usize, Outgoing<P::Msg>)>,
    ) -> Result<(), ContentionOverflow> {
        let positions = self.net.points();
        let loss = self.net.loss();
        let mut pending: Vec<PendingTx> = Vec::with_capacity(outbox.len());
        let mut payloads: Vec<P::Msg> = Vec::with_capacity(outbox.len());
        for (from, out) in outbox.drain(..) {
            match out {
                Outgoing::Unicast { to, kind, msg } => {
                    let d = positions[from].dist(&positions[to]);
                    pending.push(PendingTx {
                        from,
                        radius: d,
                        waiting: vec![to],
                        energy_per_attempt: loss.energy_for_distance(d),
                        kind,
                    });
                    payloads.push(msg);
                }
                Outgoing::Broadcast { radius, kind, msg } => {
                    self.net.neighbors_into(from, radius, &mut self.rx_scratch);
                    let waiting: Vec<usize> = self
                        .rx_scratch
                        .iter()
                        .map(|&(v, _)| v)
                        .filter(|&v| !self.net.departed(v))
                        .collect();
                    pending.push(PendingTx {
                        from,
                        radius,
                        waiting,
                        energy_per_attempt: loss.energy_for_distance(radius),
                        kind,
                    });
                    payloads.push(msg);
                }
            }
        }
        // Transmissions with no in-range receiver still radiate once.
        let mut attempts: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.waiting.is_empty())
            .map(|(i, _)| i)
            .collect();
        let froms: Vec<usize> = pending.iter().map(|t| t.from).collect();
        let kinds: Vec<&'static str> = pending.iter().map(|t| t.kind).collect();
        let radii: Vec<f64> = pending.iter().map(|t| t.radius).collect();
        let energies: Vec<f64> = pending.iter().map(|t| t.energy_per_attempt).collect();
        let mut delivered: Vec<(usize, usize)> = Vec::new();
        let (cfg, rng) = self.contention.as_mut().expect("contended path");
        let resolved = resolve_round(
            cfg,
            rng,
            positions,
            &mut pending,
            |i, v| delivered.push((i, v)),
            |i| attempts.push(i),
        );
        // Attempts radiated and receptions heard before an overflow stay
        // charged and delivered; only the unresolved remainder is lost.
        for &i in &attempts {
            self.net
                .charge_attempt(kinds[i], froms[i], radii[i], energies[i]);
        }
        self.net.charge_receptions(delivered.len() as u64);
        for (i, v) in delivered {
            self.inboxes[v].push(Delivery {
                from: froms[i],
                dist: positions[froms[i]].dist(&positions[v]),
                msg: payloads[i].clone(),
            });
        }
        match resolved {
            Ok(slots) => {
                self.net.advance_rounds(slots.max(1) as u64);
                Ok(())
            }
            Err(e) => {
                self.net.advance_rounds(e.slots as u64);
                Err(e)
            }
        }
    }

    /// Runs until quiescence — every node reports `done()` and no messages
    /// are in flight — or fails after `max_rounds`. Panics on a contention
    /// overflow; use [`SyncEngine::try_run`] for the graceful path.
    pub fn run(&mut self, max_rounds: u64) -> Result<u64, RoundLimitExceeded> {
        match self.try_run(max_rounds) {
            Ok(r) => Ok(r),
            Err(EngineError::RoundLimit(e)) => Err(e),
            Err(EngineError::Contention(e)) => panic!("{e}"),
        }
    }

    /// [`SyncEngine::run`] with every failure mode surfaced as a typed
    /// error. Quiescence additionally requires the reliability layer's
    /// retry queue to be empty; departed and crashed nodes count as done.
    pub fn try_run(&mut self, max_rounds: u64) -> Result<u64, EngineError> {
        let start = self.logical_round;
        loop {
            let elapsed = self.logical_round - start;
            if elapsed >= max_rounds {
                return Err(RoundLimitExceeded { max_rounds }.into());
            }
            let sent = self.try_step()?;
            let pending =
                self.inboxes.iter().any(|b| !b.is_empty()) || !self.retry_queue.is_empty();
            if !sent && !pending && self.all_done() {
                return Ok(self.logical_round - start);
            }
        }
    }

    /// Every node has terminated (departed and crashed nodes count as
    /// terminated).
    fn all_done(&self) -> bool {
        let round = self.net.clock().now();
        self.nodes
            .iter()
            .enumerate()
            .all(|(i, p)| p.done() || self.net.departed(i) || self.net.crashed(i, round))
    }

    /// The underlying network (ledger, clock, geometry).
    #[inline]
    pub fn net(&self) -> &RadioNet<'a> {
        &self.net
    }

    /// The protocol instances.
    #[inline]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the engine, returning network and nodes.
    pub fn into_parts(self) -> (RadioNet<'a>, Vec<P>) {
        (self.net, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::Point;

    /// Toy protocol: node 0 floods a token by local broadcast; every node
    /// re-broadcasts the first time it hears it. Tests delivery, energy
    /// accounting, and quiescence.
    struct Flood {
        has_token: bool,
        announced: bool,
        radius: f64,
    }

    impl NodeProtocol for Flood {
        type Msg = ();

        fn on_round(&mut self, inbox: &[Delivery<()>], ctx: &mut Ctx<'_, ()>) {
            if !inbox.is_empty() {
                self.has_token = true;
            }
            if self.has_token && !self.announced {
                self.announced = true;
                ctx.broadcast(self.radius, "flood", ());
            }
        }

        fn done(&self) -> bool {
            self.announced
        }
    }

    fn flood_net(pts: &[Point], radius: f64) -> (u64, f64, usize) {
        let net = RadioNet::new(pts, radius);
        let nodes = (0..pts.len())
            .map(|i| Flood {
                has_token: i == 0,
                announced: false,
                radius,
            })
            .collect();
        let mut eng = SyncEngine::new(net, nodes);
        let rounds = eng.run(10_000).expect("flood must quiesce");
        let informed = eng.nodes().iter().filter(|f| f.has_token).count();
        (rounds, eng.net().ledger().total_energy(), informed)
    }

    #[test]
    fn flood_reaches_connected_line() {
        // 5 nodes in a line, spacing 0.2, radius 0.25: hop-by-hop flood.
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(0.1 + 0.2 * i as f64, 0.5))
            .collect();
        let (rounds, energy, informed) = flood_net(&pts, 0.25);
        assert_eq!(informed, 5);
        // 5 broadcasts at radius 0.25 → energy 5·0.0625.
        assert!((energy - 5.0 * 0.0625).abs() < 1e-12);
        // One hop per round plus the final quiet round.
        assert!((5..=7).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn flood_stops_at_gap() {
        // Two clusters with a gap wider than the radius.
        let pts = vec![
            Point::new(0.1, 0.5),
            Point::new(0.2, 0.5),
            Point::new(0.8, 0.5),
            Point::new(0.9, 0.5),
        ];
        let net = RadioNet::new(&pts, 0.15);
        let nodes = (0..4)
            .map(|i| Flood {
                has_token: i == 0,
                announced: false,
                radius: 0.15,
            })
            .collect();
        let mut eng = SyncEngine::new(net, nodes);
        // Nodes 2,3 never announce → run() would hit the limit; use steps.
        for _ in 0..20 {
            eng.step();
        }
        let informed = eng.nodes().iter().filter(|f| f.has_token).count();
        assert_eq!(informed, 2);
    }

    /// Ping-pong protocol: tests unicast delivery, distances, and inbox
    /// determinism.
    struct PingPong {
        peer: usize,
        is_server: bool,
        got: u32,
        want: u32,
        last_dist: f64,
    }

    impl NodeProtocol for PingPong {
        type Msg = u32;

        fn on_round(&mut self, inbox: &[Delivery<u32>], ctx: &mut Ctx<'_, u32>) {
            if ctx.round() == 0 && !self.is_server {
                ctx.unicast(self.peer, "ping", 0);
                return;
            }
            for d in inbox {
                self.got += 1;
                self.last_dist = d.dist;
                if d.msg + 1 < self.want {
                    ctx.unicast(self.peer, "pong", d.msg + 1);
                }
            }
        }

        fn done(&self) -> bool {
            self.got > 0 || !self.is_server
        }
    }

    #[test]
    fn ping_pong_measures_distance() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let net = RadioNet::new(&pts, 1.0);
        let nodes = vec![
            PingPong {
                peer: 1,
                is_server: false,
                got: 0,
                want: 4,
                last_dist: 0.0,
            },
            PingPong {
                peer: 0,
                is_server: true,
                got: 0,
                want: 4,
                last_dist: 0.0,
            },
        ];
        let mut eng = SyncEngine::new(net, nodes);
        eng.run(100).unwrap();
        let (net, nodes) = eng.into_parts();
        assert_eq!(net.ledger().total_messages(), 4); // 0,1,2,3 volley
        assert!((net.ledger().total_energy() - 4.0 * 0.25).abs() < 1e-12);
        assert!((nodes[1].last_dist - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_times_out_on_livelock() {
        // A protocol that never goes quiet.
        struct Chatter;
        impl NodeProtocol for Chatter {
            type Msg = ();
            fn on_round(&mut self, _inbox: &[Delivery<()>], ctx: &mut Ctx<'_, ()>) {
                ctx.broadcast(0.1, "noise", ());
            }
            fn done(&self) -> bool {
                false
            }
        }
        let pts = vec![Point::new(0.5, 0.5)];
        let net = RadioNet::new(&pts, 1.0);
        let mut eng = SyncEngine::new(net, vec![Chatter]);
        let err = eng.run(25).unwrap_err();
        assert_eq!(err.max_rounds, 25);
        assert!(format!("{err}").contains("25 rounds"));
    }

    #[test]
    #[should_panic(expected = "one protocol instance per network node")]
    fn engine_rejects_mismatched_counts() {
        let pts = vec![Point::new(0.5, 0.5)];
        let net = RadioNet::new(&pts, 1.0);
        let _ = SyncEngine::<Flood>::new(net, vec![]);
    }

    fn run_flood_line(contended: bool) -> (u64, f64, u64, usize) {
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(0.1 + 0.2 * i as f64, 0.5))
            .collect();
        let nodes: Vec<Flood> = (0..5)
            .map(|i| Flood {
                has_token: i == 0,
                announced: false,
                radius: 0.25,
            })
            .collect();
        let net = RadioNet::new(&pts, 0.25);
        let mut eng = if contended {
            SyncEngine::with_contention(net, nodes, crate::ContentionConfig::default())
        } else {
            SyncEngine::new(net, nodes)
        };
        eng.run(100_000).expect("flood quiesces");
        let informed = eng.nodes().iter().filter(|f| f.has_token).count();
        (
            eng.net().clock().now(),
            eng.net().ledger().total_energy(),
            eng.net().ledger().total_messages(),
            informed,
        )
    }

    #[test]
    fn contended_flood_delivers_everything_at_higher_cost() {
        let (rounds_cf, energy_cf, msgs_cf, informed_cf) = run_flood_line(false);
        let (rounds_ct, energy_ct, msgs_ct, informed_ct) = run_flood_line(true);
        assert_eq!(informed_cf, 5);
        assert_eq!(informed_ct, 5, "contention must not lose messages");
        // The chain flood never has simultaneous transmitters, so no
        // collisions occur: message/energy cost matches the collision-free
        // run exactly, and only *time* inflates (idle ALOHA slots while
        // the lone transmitter waits for its coin).
        assert_eq!(msgs_ct, msgs_cf);
        assert!((energy_ct - energy_cf).abs() < 1e-12);
        assert!(rounds_ct > rounds_cf, "{rounds_ct} vs {rounds_cf}");
    }

    #[test]
    fn simultaneous_broadcasts_pay_collision_retries() {
        // Every node holds the token from the start: all five broadcast in
        // round 0 and mutually interfere — retries are mandatory.
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(0.1 + 0.2 * i as f64, 0.5))
            .collect();
        let mk = || -> Vec<Flood> {
            (0..5)
                .map(|_| Flood {
                    has_token: true,
                    announced: false,
                    radius: 0.25,
                })
                .collect()
        };
        let net_cf = RadioNet::new(&pts, 0.25);
        let mut cf = SyncEngine::new(net_cf, mk());
        cf.run(100).unwrap();
        let net_ct = RadioNet::new(&pts, 0.25);
        // A seed whose backoff stream exhibits same-slot collisions for
        // this instance (some streams happen to separate all five
        // transmitters in time and never collide).
        let cfg = crate::ContentionConfig {
            seed: 17,
            ..Default::default()
        };
        let mut ct = SyncEngine::with_contention(net_ct, mk(), cfg);
        ct.run(100_000).unwrap();
        let (m_cf, e_cf) = (
            cf.net().ledger().total_messages(),
            cf.net().ledger().total_energy(),
        );
        let (m_ct, e_ct) = (
            ct.net().ledger().total_messages(),
            ct.net().ledger().total_energy(),
        );
        assert_eq!(m_cf, 5);
        assert!(m_ct > m_cf, "collisions must force retries: {m_ct}");
        assert!(e_ct > e_cf);
        // Constant-factor overhead, as the paper claims for RBN contention
        // resolution.
        assert!(e_ct < 30.0 * e_cf, "energy blow-up {e_ct} vs {e_cf}");
        // Every node still ends up having heard someone (inbox effects are
        // observable through announced: all announced trivially here), and
        // crucially delivery completed without the livelock guard firing.
    }

    #[test]
    fn contended_runs_are_deterministic() {
        let a = run_flood_line(true);
        let b = run_flood_line(true);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn contention_overflow_is_a_typed_error_via_try_run() {
        // Two always-on transmitters jamming a middle receiver can never
        // resolve; try_run must surface the overflow, not panic, and the
        // attempts radiated before the cap must stay charged.
        let pts = vec![
            Point::new(0.4, 0.5),
            Point::new(0.6, 0.5),
            Point::new(0.5, 0.5),
        ];
        struct Blaster;
        impl NodeProtocol for Blaster {
            type Msg = ();
            fn on_round(&mut self, _inbox: &[Delivery<()>], ctx: &mut Ctx<'_, ()>) {
                if ctx.round() == 0 && ctx.me() < 2 {
                    ctx.broadcast(0.2, "jam", ());
                }
            }
            fn done(&self) -> bool {
                true
            }
        }
        let cfg = crate::ContentionConfig {
            attempt_probability: 1.0,
            max_slots_per_round: 40,
            ..Default::default()
        };
        let net = RadioNet::new(&pts, 0.2);
        let mut eng = SyncEngine::with_contention(net, vec![Blaster, Blaster, Blaster], cfg);
        let err = eng.try_run(10).unwrap_err();
        match err {
            EngineError::Contention(o) => {
                assert_eq!(o.unresolved, 2);
                assert_eq!(o.slots, 40);
            }
            other => panic!("expected contention overflow, got {other:?}"),
        }
        // p=1: both transmitters radiated in each of the 40 slots.
        assert_eq!(eng.net().ledger().total_messages(), 80);
        assert_eq!(eng.net().clock().now(), 40);
    }

    fn faulty_flood_line(plan: crate::FaultPlan) -> (RunStatsTriple, crate::FaultStats, usize) {
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(0.1 + 0.2 * i as f64, 0.5))
            .collect();
        let nodes: Vec<Flood> = (0..5)
            .map(|i| Flood {
                has_token: i == 0,
                announced: false,
                radius: 0.25,
            })
            .collect();
        let mut net = RadioNet::new(&pts, 0.25);
        net.set_faults(plan);
        let mut eng = SyncEngine::new(net, nodes);
        match eng.try_run(500) {
            // A flood severed by crashes/undelivered tokens leaves the
            // uninformed nodes not-done forever; the round limit is the
            // graceful exit for those degraded runs.
            Ok(_) | Err(EngineError::RoundLimit(_)) => {}
            Err(e) => panic!("{e}"),
        }
        let informed = eng.nodes().iter().filter(|f| f.has_token).count();
        let net = eng.net();
        (
            (
                net.clock().now(),
                net.ledger().total_energy(),
                net.ledger().total_messages(),
            ),
            net.fault_stats(),
            informed,
        )
    }

    type RunStatsTriple = (u64, f64, u64);

    #[test]
    fn noop_fault_plan_is_bit_identical_to_clean_run() {
        let (clean_rounds, clean_energy, clean_msgs, _) = run_flood_line(false);
        let ((rounds, energy, msgs), stats, informed) = faulty_flood_line(crate::FaultPlan::none());
        assert_eq!(informed, 5);
        assert_eq!(rounds, clean_rounds);
        assert_eq!(energy.to_bits(), clean_energy.to_bits());
        assert_eq!(msgs, clean_msgs);
        assert!(stats.is_clean());
    }

    #[test]
    fn drops_force_charged_retries_and_ledger_conservation() {
        let plan = crate::FaultPlan::none().drop_probability(0.3).seed(11);
        let ((_, energy, msgs), stats, informed) = faulty_flood_line(plan);
        let (_, clean_energy, clean_msgs, _) = run_flood_line(false);
        assert_eq!(informed, 5, "bounded retries should still flood whp");
        // Conservation: every attempt (original + retries) charges exactly
        // one full-energy message; abandoned messages charge nothing extra.
        assert_eq!(msgs, clean_msgs + stats.retries);
        let expected = (msgs as f64) * 0.0625; // all broadcasts at r=0.25
        assert!((energy - expected).abs() < 1e-12, "{energy} vs {expected}");
        assert!(energy > clean_energy, "retries must cost energy");
        assert!(stats.drops > 0, "p=0.3 over 5 hops should drop something");
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let plan = || crate::FaultPlan::none().drop_probability(0.25).seed(5);
        let a = faulty_flood_line(plan());
        let b = faulty_flood_line(plan());
        assert_eq!(a.0 .0, b.0 .0);
        assert_eq!(a.0 .1.to_bits(), b.0 .1.to_bits());
        assert_eq!(a.0 .2, b.0 .2);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn certain_loss_times_out_after_bounded_retries() {
        // p = 1: nothing is ever delivered; each broadcast is attempted
        // 1 + max_retries times, then abandoned, and the run still
        // quiesces (degraded, not hung).
        let plan = crate::FaultPlan::none().drop_probability(1.0).retries(2);
        let ((_, _, msgs), stats, informed) = faulty_flood_line(plan);
        assert_eq!(informed, 1, "only the seeded node has the token");
        // Node 0 broadcasts: 3 attempts (1 + 2 retries), then timeout.
        assert_eq!(msgs, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 1);
        // One neighbour (node 1) misses each of the 3 attempts.
        assert_eq!(stats.drops, 3);
    }

    #[test]
    fn crashed_node_stops_and_flood_routes_stop_with_it() {
        // Crash node 1 (the only bridge from node 0) before the flood
        // starts: the token cannot spread, yet the run quiesces.
        let plan = crate::FaultPlan::none().crash_at(1, 0);
        let (_, stats, informed) = faulty_flood_line(plan);
        assert_eq!(informed, 1);
        // Node 0's broadcast reaches only node 1, which is crashed: the
        // delivery is dropped once and never retried to a dead receiver.
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.timeouts, 0, "no receiver left waiting");
    }

    #[test]
    fn sleeping_node_delays_but_does_not_lose_the_flood() {
        // Node 1 sleeps for rounds [0, 4): node 0's broadcast is retried
        // until node 1 wakes, then the flood completes end to end.
        let plan = crate::FaultPlan::none().sleep_between(1, 0, 4).retries(10);
        let ((rounds, _, _), stats, informed) = faulty_flood_line(plan);
        assert_eq!(informed, 5, "sleep must delay, not lose, the token");
        assert!(
            stats.retries >= 3,
            "retries while asleep: {}",
            stats.retries
        );
        assert!(rounds >= 8, "wake-up delay must show up in rounds");
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn rx_energy_only_on_actual_delivery() {
        use crate::network::EnergyConfig;
        // Extended model under faults: rx is charged per heard message,
        // not per attempt.
        let pts: Vec<Point> = (0..3)
            .map(|i| Point::new(0.3 + 0.2 * i as f64, 0.5))
            .collect();
        let cfg = EnergyConfig::extended(emst_geom::PathLoss::paper(), 0.01, 0.0);
        let mk = |i: usize| Flood {
            has_token: i == 0,
            announced: false,
            radius: 0.25,
        };
        let mut net = RadioNet::with_config(&pts, 0.25, cfg);
        net.set_faults(crate::FaultPlan::none().drop_probability(0.4).seed(3));
        let mut eng = SyncEngine::new(net, (0..3).map(mk).collect());
        eng.try_run(1000).unwrap();
        let ledger = eng.net().ledger();
        let stats = eng.net().fault_stats();
        // Clean receptions would be 4 (b0→{1}, b1→{0,2}, b2→{1}); under
        // faults a node hears each message exactly once (drops are retried
        // until delivered within budget), so rx_count stays 4 while drops
        // record the failed attempts — and rx energy must track rx_count,
        // not attempt count.
        assert!(stats.drops > 0, "p=0.4 must have dropped something");
        assert_eq!(ledger.rx_count(), 4);
        assert!((ledger.rx_energy() - ledger.rx_count() as f64 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn extended_energy_model_charges_rx_and_idle() {
        use crate::network::EnergyConfig;
        let pts: Vec<Point> = (0..3)
            .map(|i| Point::new(0.3 + 0.2 * i as f64, 0.5))
            .collect();
        let cfg = EnergyConfig::extended(emst_geom::PathLoss::paper(), 0.01, 0.001);
        let net = RadioNet::with_config(&pts, 0.25, cfg);
        let nodes: Vec<Flood> = (0..3)
            .map(|i| Flood {
                has_token: i == 0,
                announced: false,
                radius: 0.25,
            })
            .collect();
        let mut eng = SyncEngine::new(net, nodes);
        let rounds = eng.run(100).unwrap();
        let ledger = eng.net().ledger();
        // 3 broadcasts; node 1 hears nodes 0 and 2, node 0 and 2 hear 1 and
        // each other (distance 0.4 > 0.25? positions 0.3,0.5,0.7: 0-1 and
        // 1-2 in range (0.2), 0-2 out of range (0.4)). Receptions: b0→{1},
        // b1→{0,2}, b2→{1} = 4.
        assert_eq!(ledger.rx_count(), 4);
        assert!((ledger.rx_energy() - 0.04).abs() < 1e-12);
        // Idle: n·rounds·0.001.
        assert!((ledger.idle_energy() - 3.0 * rounds as f64 * 0.001).abs() < 1e-12);
        assert!(ledger.full_energy() > ledger.total_energy());
    }
}
