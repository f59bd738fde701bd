//! The GHS family: synchronous Gallager–Humblet–Spira MST construction,
//! in the original (test/accept/reject) and modified (neighbour-cache,
//! §V-A) variants.
//!
//! ## Phase structure
//!
//! Execution proceeds in Borůvka-style phases under the standard
//! synchroniser abstraction (the variant the authors simulate in §VII).
//! Per phase, every *active* fragment runs:
//!
//! 1. **Initiate** — the leader broadcasts along the fragment tree
//!    (`size−1` messages, `depth` rounds);
//! 2. **MOE search** — each member finds its minimum outgoing edge:
//!    *original*: probe incident edges in ascending weight order with
//!    test/accept/reject exchanges (2 messages each; a rejected edge is
//!    marked on both sides and never re-tested — fragments only grow);
//!    *modified*: a free lookup in the cached neighbour fragment table
//!    (§V-A), kept exact by announcements;
//! 3. **Report** — convergecast of candidates to the leader
//!    (`size−1` messages, `depth` rounds);
//! 4. **Change-root + connect** — the leader forwards authority along the
//!    tree path to the MOE endpoint, which sends *connect* over the MOE;
//! 5. **Merge** — fragments joined by connect edges coalesce; the new
//!    fragment id is the higher endpoint of the merge's core edge, or the
//!    passive (giant) fragment's id when one is involved, so giant members
//!    never re-announce (§V-A's second technique);
//! 6. **Announce** (*modified only*) — every node whose fragment id changed
//!    makes one local broadcast at the operating radius; receivers update
//!    their caches.
//!
//! All messages are charged hop-by-hop at true distances; the round clock
//! advances by the depth of each broadcast/convergecast stage (fragments
//! progress in parallel, so stages cost the *maximum* depth over active
//! fragments).
//!
//! ## Reliability
//!
//! When the underlying network carries a [`FaultPlan`], every control
//! message goes through an ack/retry envelope ([`GhsEngine`] retries a
//! lost unicast up to the plan's budget, charging full transmit energy
//! per attempt). A fragment whose initiate/report traffic is lost
//! simply *stalls* for the phase — it is retried next phase rather than
//! being marked exhausted. Hellos and announcements are one-shot: a lost
//! hello hides one direction of an edge (its entry stays rejected, or
//! uncached), and a lost announcement leaves a neighbour cache stale,
//! which the merge stage tolerates by accepting connect edges through a
//! union-find (duplicate, cyclic, or stale-internal edges are discarded
//! instead of corrupting the forest). Faulty and fault-free runs search
//! the same shared sorted rows; per-entry state over those rows carries
//! the difference, and fault-free runs produce bit-identical ledgers.
//!
//! ## Correctness
//!
//! Every added edge is the minimum outgoing edge of some fragment at the
//! time of addition, so by the cut property the final forest is the minimum
//! spanning forest of the visible graph `G(points, radius)` — tests verify
//! agreement with Kruskal edge-for-edge. The two-phase EOPT algorithm
//! (`crate::eopt`) drives this same engine at two radii.

use emst_graph::{Edge, SpanningTree};
use emst_radio::{Availability, FaultKind, FaultPlan, RadioNet, Topology};
use std::collections::VecDeque;
use std::ops::Range;

/// Sentinel for a fragment without an entry in `chosen_at`.
const NONE: u32 = u32::MAX;

/// Which MOE-search mechanism to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhsVariant {
    /// Classical GHS: test/accept/reject message exchanges.
    Original,
    /// §V-A modified GHS: neighbour fragment-id cache + announcements.
    Modified,
    /// The awake-optimised variant: modified GHS whose nodes sleep the
    /// tail of every stage their fragment finishes early, and sleep
    /// whole stages once their fragment is exhausted — waking exactly
    /// at stage boundaries (the scheduled merge/announce windows).
    /// Identical forest, messages and rounds to [`GhsVariant::Modified`];
    /// what drops is the per-node awake-round count (the Augustine–
    /// Moses–Pandurangan awake complexity). Implies awake tracking:
    /// `RunStats::awake` is always `Some` for this variant.
    LowAwake,
}

impl GhsVariant {
    /// Whether this variant uses the §V-A modified machinery (fragment-id
    /// caches + announcements) — everything except [`GhsVariant::Original`].
    #[inline]
    pub fn is_modified(self) -> bool {
        !matches!(self, GhsVariant::Original)
    }
}

/// Message-kind labels for one GHS execution, so composite algorithms
/// (EOPT) can attribute energy per step.
#[derive(Debug, Clone, Copy)]
pub struct GhsKinds {
    /// Scope label for trace phase events (`"ghs"`, `"eopt1"`, …); also
    /// the namespace prefix of every kind below.
    pub scope: &'static str,
    /// Hello/announce broadcast that seeds discovery and the id caches.
    pub hello: &'static str,
    /// Initiate broadcast along fragment trees.
    pub initiate: &'static str,
    /// Test/accept/reject exchanges (original variant only).
    pub test: &'static str,
    /// Report convergecast.
    pub report: &'static str,
    /// Change-root forwarding.
    pub chroot: &'static str,
    /// Connect over the chosen MOE.
    pub connect: &'static str,
    /// Fragment-id announcements (modified variant only).
    pub announce: &'static str,
    /// Fragment-size computation traffic (EOPT step 2 preamble).
    pub size: &'static str,
}

impl GhsKinds {
    /// The kind table for `scope`, deriving every label as
    /// `"{scope}/{stage}"` and interning the result (message kinds are
    /// `&'static str` ledger keys). The first call for a scope leaks one
    /// small allocation; later calls return the cached table. This
    /// subsumes the hand-written per-scope const tables the EOPT steps
    /// used to carry: `for_scope("ghs")` yields exactly the historical
    /// `ghs/hello`, …, labels, `for_scope("eopt2/recover")` nests the
    /// recovery pass under the `eopt2/` namespace so step-level prefix
    /// sums (`eopt1/` + `eopt2/` = total) keep holding.
    pub fn for_scope(scope: &str) -> &'static GhsKinds {
        use std::collections::BTreeMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<BTreeMap<String, &'static GhsKinds>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
        let mut map = cache.lock().expect("kind interner poisoned");
        if let Some(kinds) = map.get(scope) {
            return kinds;
        }
        fn leak(s: String) -> &'static str {
            Box::leak(s.into_boxed_str())
        }
        let kinds: &'static GhsKinds = Box::leak(Box::new(GhsKinds {
            scope: leak(scope.to_owned()),
            hello: leak(format!("{scope}/hello")),
            initiate: leak(format!("{scope}/initiate")),
            test: leak(format!("{scope}/test")),
            report: leak(format!("{scope}/report")),
            chroot: leak(format!("{scope}/chroot")),
            connect: leak(format!("{scope}/connect")),
            announce: leak(format!("{scope}/announce")),
            size: leak(format!("{scope}/size")),
        }));
        map.insert(scope.to_owned(), kinds);
        kinds
    }
}

/// A candidate outgoing edge `(w, u, v)` with the global tie-break order
/// `(w, min(u,v), max(u,v))`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    w: f64,
    u: u32,
    v: u32,
}

/// Low-awake stage scheduling: called immediately before a stage advances
/// `advance` rounds, puts every node to sleep for the part of the stage it
/// does not participate in. A stage's message charging all happens at the
/// stage-start round, so windows opening at `now + 1` (or later) can never
/// miss a delivery; windows close exactly at the next stage's charging
/// round, so everyone is back up when traffic resumes.
///
/// `bounds[ai]` is active fragment `ai`'s run of the member array `order`,
/// and `costs[ai]` its own cost for this stage (tree depth for
/// broadcast/convergecast stages, path length + 1 for change-root); the
/// stage advances `max_cost + extra` rounds, `extra` being its retry
/// surcharge under a link-loss plan (0 without one). A fragment's members
/// sleep the `[now + max(cost, 1) + extra, now + advance)` tail. Nodes in
/// `idle` (members of passive/exhausted fragments) have no stage work at
/// all and sleep `[now + 1, now + advance)`.
fn schedule_stage_sleep(
    net: &mut RadioNet<'_>,
    order: &[u32],
    bounds: &[(u32, u32, u32)],
    costs: &[u64],
    idle: &[u32],
    max_cost: u64,
    extra: u64,
) {
    let advance = max_cost + extra;
    if advance == 0 || !net.awake_tracked() {
        return;
    }
    let now = net.clock().now();
    for (ai, &(_f, s, e)) in bounds.iter().enumerate() {
        let own = costs.get(ai).copied().unwrap_or(advance).max(1) + extra;
        if own >= advance {
            continue;
        }
        for &u in &order[s as usize..e as usize] {
            net.sleep_node(u as usize, now + own, now + advance);
        }
    }
    if advance > 1 {
        for &u in idle {
            net.sleep_node(u as usize, now + 1, now + advance);
        }
    }
}

impl Cand {
    fn key(&self) -> (f64, u32, u32) {
        let (a, b) = if self.u < self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        };
        (self.w, a, b)
    }

    fn better_than(&self, other: &Cand) -> bool {
        let (sw, sa, sb) = self.key();
        let (ow, oa, ob) = other.key();
        sw.total_cmp(&ow).then_with(|| (sa, sb).cmp(&(oa, ob))) == std::cmp::Ordering::Less
    }
}

/// The synchronous GHS engine.
///
/// Constructed with singleton fragments; [`GhsEngine::discover`] seeds
/// neighbour tables (and, for the modified variant, the id caches) at a
/// given radius; [`GhsEngine::run_phases`] merges fragments to quiescence.
/// EOPT calls `discover` twice with different radii around a passivation
/// step.
///
/// The engine holds no borrow of the network: every stage method takes
/// `&mut RadioNet` explicitly, so callers (the [`crate::ExecEnv`] stage
/// runtime, examples composing repair scenarios) interleave engine stages
/// with other traffic on the same network. Who takes part in a round is
/// asked of the network's availability timeline at each stage: with
/// departures, discovery and MOE search are restricted to present ids and
/// departed ids degrade to zero-cost singleton fragments.
pub struct GhsEngine {
    /// Node count, mirrored from the network at construction.
    n: usize,
    variant: GhsVariant,
    radius: f64,
    /// Fragment id per node (the id of some node — the fragment leader).
    frag: Vec<u32>,
    /// Parent in the fragment tree; `parent[u] == u` for leaders.
    parent: Vec<u32>,
    /// Memoised transmit energy of each node's parent edge
    /// (`INFINITY` = not computed / parent changed). Tree edges are
    /// charged once per phase per direction, so caching the path-loss
    /// evaluation removes two random point loads per control message;
    /// distances are exactly symmetric, so one entry serves both
    /// directions bit-identically.
    parent_energy: Vec<f64>,
    /// Arena-backed membership: every node once, grouped by fragment —
    /// live fragments ascending, each fragment's members ascending in its
    /// run `member_at[f]..member_at[f] + frag_size[f]`. Fragment ids are
    /// node ids, so both slabs are `n`-sized and indexed directly, and a
    /// stable counting pass over `frag` lays the array out again after
    /// every merging phase ([`GhsEngine::regroup`]).
    member_order: Vec<u32>,
    /// Start of each live fragment's run in `member_order`.
    member_at: Vec<u32>,
    /// Member count per live fragment id.
    frag_size: Vec<u32>,
    /// Live fragment ids, ascending — the arena's deterministic iteration
    /// order, identical to the sorted member map it replaced.
    live: Vec<u32>,
    /// Liveness slab mirroring `live` for O(1) membership tests.
    is_live: Vec<bool>,
    /// Reusable per-phase scratch: `(frag, start, end)` bounds of the
    /// active fragments' runs in `member_order`.
    active_bounds: Vec<(u32, u32, u32)>,
    /// Reusable per-phase scratch: best candidate / stalled flag per
    /// active-fragment index, and delivered connects per fragment id.
    cand_scratch: Vec<Option<Cand>>,
    stalled_scratch: Vec<bool>,
    delivered_scratch: Vec<(u32, Cand)>,
    /// Reusable merge scratch: relabeled nodes, in merge-group order.
    changed_scratch: Vec<u32>,
    /// Merge-stage union-find over dense fragment indices (a fragment's
    /// position in `live`, held per id in `live_index`), reset per stage.
    uf: emst_graph::UnionFind,
    live_index: Vec<u32>,
    /// Per fragment id, its entry in the merge stage's `chosen` list
    /// (`NONE` outside a merge stage, and for fragments without one).
    chosen_at: Vec<u32>,
    /// Reusable merge scratch: union-find root per dense index, and live
    /// fragments grouped by root with the group bounds.
    group_roots: Vec<u32>,
    group_frags: Vec<u32>,
    group_off: Vec<u32>,
    /// Reusable merge scratch: accepted edges annotated with fragment
    /// endpoints (as accepted, then grouped by root), plus CSR adjacency
    /// + BFS state for the fragment-level re-rooting walk.
    group_edges_scratch: Vec<GroupEdge>,
    group_edges_sorted: Vec<GroupEdge>,
    reflip_arcs: Vec<(u32, u32)>,
    reflip_off: Vec<u32>,
    reflip_adj: Vec<(u32, u32)>,
    reflip_visited: Vec<bool>,
    reflip_queue: VecDeque<u32>,
    /// Per-node scan cursor into the topology's sorted rows. Entries
    /// before the cursor joined the node's own fragment in an earlier
    /// phase (clean modified runs) or are rejected (original variant);
    /// fragments only ever merge and rejects are permanent, so each row is
    /// scanned O(deg) total across all phases instead of O(deg) per phase.
    /// Restricted modified runs keep only the memoised candidate; faulty
    /// modified runs scan from the row head (see [`GhsEngine::moe_cached`]).
    moe_state: Vec<MoeSlot>,
    /// Original variant under a fault plan: one reject bit per directed
    /// sorted-row entry, entry `k` of `u`'s row at bit
    /// `Topology::row_offset(u) + k`. A reject sets the bits of both
    /// sides, and [`GhsEngine::discover`] rejects up front every entry
    /// that touches a departed id or whose hello was not delivered. Empty
    /// without a plan: a node's rejects then lie behind its own cursor,
    /// and the peer reads that cursor ([`GhsEngine::local_moe_original`]).
    rejected: Vec<u64>,
    /// Faulty modified runs: each sorted-row entry's cached fragment id
    /// (§V-A), at the same flat position as a reject bit; `UNHEARD` where
    /// the entry's hello was not delivered. Written by the hello, the
    /// announcements and the merge-stage heal; empty in fault-free runs,
    /// whose caches are exact and read as live fragment ids.
    frag_cache: Vec<u32>,
    tree_edges: Vec<Edge>,
    /// Per fragment id: does not search for MOEs (the giant in EOPT step
    /// 2). Set only on live ids.
    passive: Vec<bool>,
    /// Per fragment id: no outgoing edge at the current radius. Set only
    /// on live ids.
    inactive: Vec<bool>,
    phases: usize,
    /// Epoch-stamped visited marks for depth computation.
    visit_mark: Vec<u32>,
    visit_epoch: u32,
    /// Reusable frontier buffers for depth computation.
    depth_val: Vec<u32>,
    depth_path: Vec<u32>,
    /// Retry budget of the network's fault plan, read at construction;
    /// `None` (no plan) keeps every code path byte-identical to the
    /// pre-fault engine.
    retries: Option<u32>,
    /// Extra rounds consumed by retransmissions in the current stage
    /// (max over fragments, like stage depths); drained per stage.
    stage_extra: u64,
    /// Stale cache entries healed by the last phase's merge stage —
    /// cache repair is forward progress a barren-phase cutoff must not
    /// count against the run.
    healed_last_phase: usize,
    /// Worker-thread count for the sharded MOE stage (1 = in-place
    /// sequential). See [`GhsEngine::set_shards`].
    shards: usize,
    /// Per-shard `(position, candidate)` output buffers and replay
    /// cursors, reused across phases.
    shard_results: Vec<Vec<(u32, Cand)>>,
    shard_idx: Vec<usize>,
}

impl GhsEngine {
    /// Fresh engine: every node is its own single-node fragment. The node
    /// count and the fault plan's retry budget are read from `net`; the
    /// network itself is passed to each stage method explicitly.
    pub fn new(net: &RadioNet<'_>, variant: GhsVariant) -> Self {
        let n = net.n();
        GhsEngine {
            n,
            variant,
            radius: 0.0,
            frag: (0..n as u32).collect(),
            parent: (0..n as u32).collect(),
            parent_energy: vec![f64::INFINITY; n],
            member_order: (0..n as u32).collect(),
            member_at: (0..n as u32).collect(),
            frag_size: vec![1; n],
            live: (0..n as u32).collect(),
            is_live: vec![true; n],
            active_bounds: Vec::new(),
            cand_scratch: Vec::new(),
            stalled_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
            changed_scratch: Vec::new(),
            uf: emst_graph::UnionFind::new(0),
            live_index: vec![0; n],
            chosen_at: vec![NONE; n],
            group_roots: Vec::new(),
            group_frags: Vec::new(),
            group_off: Vec::new(),
            group_edges_scratch: Vec::new(),
            group_edges_sorted: Vec::new(),
            reflip_arcs: Vec::new(),
            reflip_off: Vec::new(),
            reflip_adj: Vec::new(),
            reflip_visited: Vec::new(),
            reflip_queue: VecDeque::new(),
            moe_state: Vec::new(),
            rejected: Vec::new(),
            frag_cache: Vec::new(),
            tree_edges: Vec::new(),
            passive: vec![false; n],
            inactive: vec![false; n],
            phases: 0,
            visit_mark: vec![0; n],
            visit_epoch: 0,
            depth_val: vec![0; n],
            depth_path: Vec::new(),
            retries: net.faults().map(FaultPlan::max_retries),
            stage_extra: 0,
            healed_last_phase: 0,
            shards: 1,
            shard_results: Vec::new(),
            shard_idx: Vec::new(),
        }
    }

    /// Sets the worker-thread count for the per-round sharded MOE stage.
    ///
    /// The modified variant's stage B is pure computation (cache/topology
    /// scans, zero messages), so with `shards > 1` it is partitioned
    /// across scoped worker threads under a **fixed shard→node mapping**
    /// (contiguous blocks of node-id space) and reduced back in the exact
    /// sequential visit order. Ledgers, traces and stage marks are
    /// bit-identical to the single-thread run for any shard count —
    /// pinned by `tests/shard_identity.rs`. The original variant's stage
    /// B exchanges test/accept/reject messages and always runs
    /// sequentially.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Number of executed merge phases so far.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Fragment id of node `u`.
    pub fn frag_of(&self, u: usize) -> usize {
        self.frag[u] as usize
    }

    /// The accumulated spanning forest.
    pub fn tree(&self) -> SpanningTree {
        SpanningTree::new(self.n, self.tree_edges.clone())
    }

    /// Live fragment ids in ascending order — the deterministic iteration
    /// order every stage uses (so floating-point energy summation is
    /// reproducible). Pair with [`GhsEngine::members_of`] to walk the
    /// arena without copying it.
    pub fn live_fragments(&self) -> &[u32] {
        &self.live
    }

    /// The members of fragment `frag` in ascending node order: its run of
    /// the engine's member array, read in place. Empty if `frag` is not a
    /// live fragment id.
    pub fn members_of(&self, frag: usize) -> &[u32] {
        if self.is_live.get(frag).copied().unwrap_or(false) {
            &self.member_order[self.run(frag as u32)]
        } else {
            &[]
        }
    }

    /// The positions of live fragment `f`'s run in `member_order`.
    #[inline]
    fn run(&self, f: u32) -> Range<usize> {
        let at = self.member_at[f as usize] as usize;
        at..at + self.frag_size[f as usize] as usize
    }

    /// Lays `member_order` out again from `frag` with a stable counting
    /// pass: the live ids are collected ascending from `is_live`, each
    /// run's end is a prefix sum of `frag_size` over them, and every node,
    /// from the highest id down, takes the slot just before its
    /// fragment's end. Runs come out in ascending fragment order with
    /// their members ascending, and `member_at` ends at each run's start.
    /// O(n); reads only `frag`, `frag_size` and `is_live`.
    fn regroup(&mut self) {
        self.live.clear();
        let mut end = 0;
        for f in 0..self.n {
            if self.is_live[f] {
                self.live.push(f as u32);
                end += self.frag_size[f];
                self.member_at[f] = end;
            }
        }
        for u in (0..self.n).rev() {
            let at = &mut self.member_at[self.frag[u] as usize];
            *at -= 1;
            self.member_order[*at as usize] = u as u32;
        }
    }

    /// Size of fragment `frag` (0 if not a live fragment id).
    pub fn fragment_size(&self, frag: usize) -> usize {
        if self.is_live.get(frag).copied().unwrap_or(false) {
            self.frag_size[frag] as usize
        } else {
            0
        }
    }

    /// Current number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.live.len()
    }

    /// Sorted (descending) fragment sizes.
    pub fn fragment_sizes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .live
            .iter()
            .map(|&f| self.frag_size[f as usize] as usize)
            .collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Ids of fragments currently marked passive.
    pub fn passive_fragments(&self) -> Vec<usize> {
        self.live
            .iter()
            .filter(|&&f| self.passive[f as usize])
            .map(|&f| f as usize)
            .collect()
    }

    /// Clears all passivity (EOPT's recovery pass).
    pub fn clear_passive(&mut self) {
        self.passive.fill(false);
        self.inactive.fill(false);
    }

    /// Marks the fragment with id `frag` passive: it stops searching for
    /// outgoing edges and only accepts connections, keeping its id across
    /// merges. EOPT uses this for declared giants; the repair stage uses
    /// it to keep the surviving trunk silent while orphaned fragments
    /// reconnect to it.
    pub fn mark_passive(&mut self, frag: usize) {
        assert!(
            self.is_live.get(frag).copied().unwrap_or(false),
            "mark_passive: {frag} is not a live fragment id"
        );
        self.passive[frag] = true;
    }

    /// Id and size of the largest current fragment (ties broken by the
    /// higher id, deterministically). `None` on an empty engine.
    pub fn largest_fragment(&self) -> Option<(usize, usize)> {
        self.live
            .iter()
            .map(|&f| (f as usize, self.frag_size[f as usize] as usize))
            .max_by_key(|&(f, len)| (len, f))
    }

    /// Seeds the engine with an existing forest: the given `(u, v, w)`
    /// edges become fragment-internal tree edges with **no radio traffic**
    /// — used for repair scenarios where surviving nodes already know
    /// their tree neighbours from an earlier construction. Each seeded
    /// fragment's id/leader is its maximum member id. Must be called on a
    /// fresh engine (before any phases); the edges must form a forest.
    pub fn seed_forest(&mut self, edges: &[(usize, usize, f64)]) {
        assert_eq!(self.phases, 0, "seed_forest requires a fresh engine");
        let n = self.n;
        let mut uf = emst_graph::UnionFind::new(n);
        let mut arcs = Vec::with_capacity(2 * edges.len());
        for &(u, v, w) in edges {
            assert!(uf.union(u, v), "seed edges must form a forest");
            self.tree_edges.push(Edge::new(u, v, w));
            arcs.extend([(u as u32, v as u32), (v as u32, u as u32)]);
        }
        // Adjacency of the seed forest, needed only to orient it here:
        // later merges re-root by path reversal and read no adjacency.
        let (mut off, mut adj) = (Vec::new(), Vec::new());
        counting_sort(&arcs, n, |&(u, _)| u as usize, &mut off, &mut adj);
        let (labels, sizes) = uf.labels();
        let mut leader_of_label: Vec<u32> = vec![0; sizes.len()];
        for (u, &l) in labels.iter().enumerate() {
            leader_of_label[l] = leader_of_label[l].max(u as u32);
        }
        for (u, &l) in labels.iter().enumerate() {
            self.frag[u] = leader_of_label[l];
        }
        self.is_live.fill(false);
        for (&leader, &size) in leader_of_label.iter().zip(&sizes) {
            self.is_live[leader as usize] = true;
            self.frag_size[leader as usize] = size as u32;
        }
        self.regroup();
        // Orient every seeded tree towards its leader (BFS from it).
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        for &leader in &leader_of_label {
            seen[leader as usize] = true;
            self.parent[leader as usize] = leader;
            queue.push_back(leader);
            while let Some(u) = queue.pop_front() {
                for &(_, v) in &adj[off[u as usize] as usize..off[u as usize + 1] as usize] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        self.parent[v as usize] = u;
                        self.parent_energy[v as usize] = f64::INFINITY;
                        queue.push_back(v);
                    }
                }
            }
        }
    }

    /// Neighbour discovery + id announcement at `radius`: every present
    /// node makes one local broadcast carrying its id and current fragment
    /// id (`O(log n)`-bit payload). One synchronous round, one message per
    /// present node. Resets reject marks, the MOE search state and the
    /// exhausted-fragment set — a larger radius can expose new outgoing
    /// edges.
    ///
    /// Every run searches the topology's shared sorted rows — with
    /// departures, the original variant skips every entry that touches a
    /// departed id — except fault-free restricted runs of the modified
    /// variants, which read each visited node's topology row on demand.
    /// Under a fault plan each hello is a one-shot broadcast that
    /// can miss some receivers, so a node may hear a neighbour that never
    /// heard it: a delivered hello clears the receiver's reject bit for
    /// the sender (original variant) or caches the sender's fragment id
    /// (modified variants), and an undelivered one leaves the entry
    /// hidden. A missed hello only hides an edge, never corrupts one.
    pub fn discover(&mut self, net: &mut RadioNet<'_>, radius: f64, kinds: &GhsKinds) {
        assert!(radius > 0.0, "discovery radius must be positive");
        net.note_phase(kinds.scope, self.phases as u64, "discover");
        self.radius = radius;
        // The whole run operates at this radius, and every node searches:
        // build the CSR adjacency once so discovery, every row read and
        // every announce broadcast are slice lookups.
        net.cache_topology(radius);
        self.reset_search(net);
        // Hello round: one local broadcast per present node, charged like a
        // table-returning discovery (same kind, energy, rx count, and trace
        // event per node, one round on the clock). Departed ids never
        // transmit.
        let topo = net.topology_handle().expect("cached above");
        for u in 0..self.n {
            if net.departed(u) {
                continue;
            }
            if self.retries.is_none() {
                net.local_broadcast_silent(u, radius, kinds.hello);
            } else {
                lossy_broadcast(net, &topo, u, radius, kinds.hello, |_, _| {});
            }
        }
        net.tick_round();
    }

    /// Resets the MOE search at `self.radius`: every slot unscanned, no
    /// fragment exhausted, and, under a fault plan, the per-entry state
    /// of the hello round at the current clock. Without a plan no
    /// per-entry state is kept: clean modified runs read live fragment
    /// ids directly (announces keep the §V-A caches *exact* here — every
    /// row-holder is in announce range — so the cache IS the live id), and
    /// original runs read departures and cursors
    /// ([`GhsEngine::local_moe_original`]). Under a plan every entry
    /// starts hidden — rejected (original variant) or `UNHEARD` (modified
    /// variants) — and opens when its id's hello reaches the row's owner:
    /// departed ids neither send nor hear, so a departed node's scan finds
    /// nothing, and a hello is lost to a down sender or a drop coin. The
    /// coins are stateless, so this is the delivery the hello round draws.
    /// The sorted view is forced now so phase timings don't absorb the
    /// one-time build; with an instance's rows it may already be built.
    /// Restricted modified runs read rows on demand and build nothing
    /// here.
    fn reset_search(&mut self, net: &mut RadioNet<'_>) {
        self.moe_state.clear();
        self.moe_state.resize(self.n, MoeSlot::UNSCANNED);
        self.rejected.clear();
        self.frag_cache.clear();
        self.inactive.fill(false);
        if self.reads_rows_on_demand(net) {
            return;
        }
        // A no-op after `discover`; `restore_neighbor_caches` builds here.
        net.cache_topology(self.radius);
        let topo = net.topology_at(self.radius).expect("cached above");
        let _ = topo.sorted();
        if self.retries.is_none() {
            return;
        }
        let modified = self.variant.is_modified();
        if modified {
            self.frag_cache.resize(topo.directed_edges(), UNHEARD);
        } else {
            self.rejected
                .resize(topo.directed_edges().div_ceil(64), u64::MAX);
        }
        let round = net.clock().now();
        for v in (0..self.n).filter(|&v| !net.departed(v)) {
            let base = topo.row_offset(v);
            for (k, &u) in topo.sorted_ids(v).iter().enumerate() {
                let u = u as usize;
                if net.departed(u) || net.down(u, round) || !net.delivers(round, u, v) {
                    continue;
                }
                if modified {
                    self.frag_cache[base + k] = self.frag[u];
                } else {
                    clear_bit(&mut self.rejected, base + k);
                }
            }
        }
    }

    /// Whether stage B reads each visited node's row on demand: a
    /// fault-free run of a modified variant with departures.
    fn reads_rows_on_demand(&self, net: &RadioNet<'_>) -> bool {
        self.retries.is_none() && self.variant.is_modified() && has_departures(net)
    }

    /// Prepares the MOE search at `radius` with **zero radio traffic**:
    /// the incremental maintenance loop calls this instead of
    /// [`GhsEngine::discover`] at the start of an epoch, because
    /// surviving nodes already hold their neighbour tables (and §V-A
    /// caches) from the previous epoch, and a departed neighbour is
    /// detected by lease expiry — silence costs no transmissions. It
    /// resets the MOE slots and the exhausted-fragment set. For the
    /// modified variants it builds nothing (rows are read on demand); for
    /// the original variant it caches the topology, whose departed
    /// entries the search skips. The network must carry the departures
    /// (`RadioNet::set_members`) and no fault plan.
    pub fn restore_neighbor_caches(&mut self, net: &mut RadioNet<'_>, radius: f64) {
        assert!(radius > 0.0, "restore radius must be positive");
        assert!(
            self.retries.is_none() && has_departures(net),
            "restore_neighbor_caches requires a fault-free network with departures"
        );
        self.radius = radius;
        self.reset_search(net);
    }

    /// Sends `u → v` through the ack/retry envelope when a fault schedule
    /// is active (plain unicast otherwise). Every attempt charges the full
    /// transmit energy; reception is charged only on actual delivery.
    /// Returns whether the message got through. Extra rounds consumed by
    /// retries accumulate into [`GhsEngine::take_stage_extra`] (max over
    /// the stage — fragments retry in parallel).
    fn reliable_unicast(
        &mut self,
        net: &mut RadioNet<'_>,
        u: usize,
        v: usize,
        kind: &'static str,
    ) -> bool {
        let Some(max_retries) = self.retries else {
            net.unicast(u, v, kind);
            return true;
        };
        let base = net.clock().now();
        let d = net.dist(u, v);
        let energy = net.loss().energy_for_distance(d);
        for attempt in 0..=max_retries {
            let round = base + attempt as u64;
            if net.crashed(u, round) {
                // Dead sender: the message is abandoned, uncharged.
                net.note_fault(FaultKind::Timeout, kind, u, Some(v));
                self.stage_extra = self.stage_extra.max(attempt as u64);
                return false;
            }
            if attempt > 0 {
                net.note_fault(FaultKind::Retry, kind, u, Some(v));
            }
            net.charge_tx(kind, u, Some(v), d, energy);
            if net.delivers(round, u, v) {
                net.charge_receptions(1);
                self.stage_extra = self.stage_extra.max(attempt as u64);
                return true;
            }
            net.note_fault(FaultKind::Drop, kind, u, Some(v));
        }
        net.note_fault(FaultKind::Timeout, kind, u, Some(v));
        self.stage_extra = self.stage_extra.max(max_retries as u64);
        false
    }

    /// Drains the retry-round surcharge accumulated since the last call.
    fn take_stage_extra(&mut self) -> u64 {
        std::mem::take(&mut self.stage_extra)
    }

    /// Depth of the fragment tree rooted at `leader`: the maximum
    /// parent-chain length over `members`, computed by walking parent
    /// pointers with per-epoch memoisation. Each node's depth is
    /// established exactly once, so a whole fragment costs O(members)
    /// flat-array reads — no adjacency-list traversal.
    fn depth_of(&mut self, leader: u32, members: &[u32]) -> u64 {
        self.visit_epoch += 1;
        let epoch = self.visit_epoch;
        self.visit_mark[leader as usize] = epoch;
        self.depth_val[leader as usize] = 0;
        let mut path = std::mem::take(&mut self.depth_path);
        let mut maxd = 0u32;
        for &u in members {
            let mut v = u;
            path.clear();
            while self.visit_mark[v as usize] != epoch {
                path.push(v);
                v = self.parent[v as usize];
            }
            let mut d = self.depth_val[v as usize];
            for &w in path.iter().rev() {
                d += 1;
                self.visit_mark[w as usize] = epoch;
                self.depth_val[w as usize] = d;
            }
            maxd = maxd.max(d);
        }
        self.depth_path = path;
        maxd as u64
    }

    /// Memoised transmit energy of `u`'s parent edge (computing and
    /// caching it on first use after a parent change).
    #[inline]
    fn parent_edge_energy(&mut self, net: &RadioNet<'_>, u: usize) -> f64 {
        let e = self.parent_energy[u];
        if e != f64::INFINITY {
            return e;
        }
        let e = net
            .loss()
            .energy(&net.pos(u), &net.pos(self.parent[u] as usize));
        self.parent_energy[u] = e;
        e
    }

    /// [`GhsEngine::reliable_unicast`] specialised to `u`'s parent edge
    /// (`up` = child→parent direction): fault-free runs charge the
    /// memoised edge energy without re-evaluating the path-loss model.
    fn reliable_unicast_parent(
        &mut self,
        net: &mut RadioNet<'_>,
        child: usize,
        up: bool,
        kind: &'static str,
    ) -> bool {
        let p = self.parent[child] as usize;
        let (src, dst) = if up { (child, p) } else { (p, child) };
        if self.retries.is_none() {
            let e = self.parent_edge_energy(net, child);
            net.unicast_with_energy(src, dst, kind, e);
            return true;
        }
        self.reliable_unicast(net, src, dst, kind)
    }

    /// Charges one message per tree edge of `members` in the top-down
    /// direction (initiate-style broadcast). Returns whether every tree
    /// edge was traversed successfully (always true without faults).
    fn charge_broadcast(
        &mut self,
        net: &mut RadioNet<'_>,
        members: &[u32],
        kind: &'static str,
    ) -> bool {
        let mut ok = true;
        for &u in members {
            if self.parent[u as usize] != u {
                ok &= self.reliable_unicast_parent(net, u as usize, false, kind);
            }
        }
        ok
    }

    /// Charges one message per tree edge in the bottom-up direction
    /// (report-style convergecast). Returns whether every hop succeeded.
    fn charge_convergecast(
        &mut self,
        net: &mut RadioNet<'_>,
        members: &[u32],
        kind: &'static str,
    ) -> bool {
        let mut ok = true;
        for &u in members {
            if self.parent[u as usize] != u {
                ok &= self.reliable_unicast_parent(net, u as usize, true, kind);
            }
        }
        ok
    }

    /// Clean-run MOE of node `u`: same result as the cache lookup (clean
    /// caches are exact, so `cache[v] == frag[v]` at every read), served
    /// from the topology's shared sorted rows. The cursor skips the prefix
    /// that already belongs to `u`'s fragment — sound because fragments
    /// only merge: once `v` shares `u`'s fragment they share it forever.
    fn local_moe_clean(&mut self, topo: &Topology, u: usize) -> Option<Cand> {
        Self::moe_scan(topo, &self.frag, &mut self.moe_state[u], u)
    }

    /// The cursor scan behind [`GhsEngine::local_moe_clean`], shared with
    /// the sharded stage's workers (no `&self` so a worker can borrow its
    /// slot block mutably while `frag` stays shared).
    fn moe_scan(topo: &Topology, frag: &[u32], slot: &mut MoeSlot, u: usize) -> Option<Cand> {
        let my = frag[u];
        if slot.v == MOE_EXHAUSTED {
            return None;
        }
        if slot.v != MOE_UNSCANNED && frag[slot.v as usize] != my {
            // Candidate still foreign: the prefix before the cursor is
            // all same-fragment (permanently), so it is still the MOE.
            return Some(Cand {
                w: slot.w,
                u: u as u32,
                v: slot.v,
            });
        }
        let ids = topo.sorted_ids(u);
        let mut k = slot.cursor as usize;
        while k < ids.len() && frag[ids[k] as usize] == my {
            k += 1;
        }
        slot.cursor = k as u32;
        if k < ids.len() {
            slot.v = ids[k];
            slot.w = topo.sorted_dists(u)[k];
            Some(Cand {
                w: slot.w,
                u: u as u32,
                v: slot.v,
            })
        } else {
            slot.v = MOE_EXHAUSTED;
            None
        }
    }

    /// Restricted-run MOE of node `u` (modified variants with departures
    /// and no fault plan), a zero-message lookup: the smallest `(dist, id)`
    /// entry of `u`'s row among present neighbours in another fragment —
    /// the first such entry of the sorted row, found without sorting. The
    /// row is read through [`RadioNet::for_neighbors_within_bound`]: the
    /// topology's row after `discover`, a grid query after
    /// [`GhsEngine::restore_neighbor_caches`]. Live fragment ids stand in
    /// for the §V-A caches, which are exact in fault-free runs (every
    /// row-holder is within announce range).
    ///
    /// `best` is the fragment's best candidate so far in this phase. A
    /// node that must search visits only the entries within `best`'s
    /// distance: one beyond it loses to `best` whatever its ids. A hit is
    /// then still `u`'s exact minimum; a miss leaves the slot unscanned,
    /// never exhausted, since farther foreign entries may exist.
    ///
    /// A hit is memoised in `u`'s slot. Fragments only merge and
    /// departures are fixed for the run, so `u`'s present foreign
    /// neighbours only shrink: a memoised candidate that is still foreign
    /// is still the minimum. A departed node has no MOE.
    fn local_moe_restricted(
        &mut self,
        net: &RadioNet<'_>,
        u: usize,
        best: Option<&Cand>,
    ) -> Option<Cand> {
        let my = self.frag[u];
        let slot = &mut self.moe_state[u];
        if slot.v == MOE_EXHAUSTED {
            return None;
        }
        if slot.v == MOE_UNSCANNED || self.frag[slot.v as usize] == my {
            let bound = best.map(|c| c.w);
            let mut found: Option<(f64, u32)> = None;
            if !net.departed(u) {
                let frag = &self.frag;
                let radius = self.radius;
                net.for_neighbors_within_bound(u, radius, bound.unwrap_or(radius), |v, d| {
                    if frag[v] == my || net.departed(v) {
                        return;
                    }
                    let v = v as u32;
                    match found {
                        Some((fd, fv)) if d.total_cmp(&fd).then(v.cmp(&fv)).is_ge() => {}
                        _ => found = Some((d, v)),
                    }
                });
            }
            let Some((w, v)) = found else {
                slot.v = if bound.is_some() {
                    MOE_UNSCANNED
                } else {
                    MOE_EXHAUSTED
                };
                return None;
            };
            (slot.v, slot.w) = (v, w);
        }
        Some(Cand {
            w: slot.w,
            u: u as u32,
            v: slot.v,
        })
    }

    /// Faulty-run MOE of node `u` under the modified variants, a
    /// zero-message lookup: the first entry of `u`'s sorted row that `u`
    /// heard at discovery and whose cached fragment id is not `u`'s own.
    /// A lost announcement leaves an entry stale, so a neighbour already
    /// absorbed can look foreign again: the scan starts at the row head
    /// every time, and the merge stage heals a stale pick.
    fn moe_cached(topo: &Topology, cache: &[u32], my: u32, u: usize) -> Option<Cand> {
        let ids = topo.sorted_ids(u);
        let base = topo.row_offset(u);
        let k = cache[base..base + ids.len()]
            .iter()
            .position(|&f| f != my && f != UNHEARD)?;
        Some(Cand {
            w: topo.sorted_dists(u)[k],
            u: u as u32,
            v: ids[k],
        })
    }

    /// MOE of node `u` under the original variant, for clean, restricted
    /// and faulty runs alike: probe the unrejected entries of its shared
    /// sorted row in ascending `(dist, id)` order with test/accept/reject
    /// exchanges. Returns the candidate and the number of exchanges.
    ///
    /// The slot cursor resumes past the node's rejected prefix, and a
    /// departed node finds nothing. A fault-free exchange is charged at
    /// the row distance, bit-for-bit the `pos(u).dist(pos(v))` either
    /// direction would evaluate.
    ///
    /// Without a plan, every reject moves the rejecting node's cursor past
    /// the entry, and every entry behind a cursor is rejected: so `u`'s
    /// entry `(w, v)` counts as rejected when `v` departed or when
    /// `(w, u)` lies behind `v`'s cursor, which `v`'s slot answers from
    /// the key under it with no search of `v`'s row; a reject writes
    /// nothing. Under a plan, reject marks are bits of `rejected`, which
    /// [`GhsEngine::discover`] sets up front on every entry whose hello
    /// was not delivered, and three rules apply: each exchange goes
    /// through [`GhsEngine::reliable_unicast`]; a lost exchange counts
    /// toward the stage's rounds, leaves its entry open and the scan moves
    /// on (the entry is tested again next phase); and the cursor never
    /// passes an open entry. A cursor then stops short of later rejects
    /// and a lost hello hides an edge from one side only, so a reject sets
    /// the bits of both `u`'s entry and `v`'s entry for `u`
    /// ([`sorted_slot`]) and no peer cursor is read.
    fn local_moe_original(
        &mut self,
        net: &mut RadioNet<'_>,
        topo: &Topology,
        u: usize,
        kinds: &GhsKinds,
    ) -> (Option<Cand>, u64) {
        if net.departed(u) {
            return (None, 0);
        }
        let my = self.frag[u];
        let (ids, dists) = (topo.sorted_ids(u), topo.sorted_dists(u));
        let base = topo.row_offset(u);
        let faulty = self.retries.is_some();
        let mut exchanges = 0u64;
        let mut found = None;
        let mut open = None;
        let mut k = self.moe_state[u].cursor as usize;
        while k < ids.len() {
            let (v, w) = (ids[k], dists[k]);
            let rejected = if faulty {
                bit(&self.rejected, base + k)
            } else {
                net.departed(v as usize) || self.moe_state[v as usize].passed(w, u as u32)
            };
            if !rejected {
                exchanges += 1;
                let through = if faulty {
                    self.reliable_unicast(net, u, v as usize, kinds.test)
                        && self.reliable_unicast(net, v as usize, u, kinds.test)
                } else {
                    let e = net.loss().energy_for_distance(w);
                    net.unicast_with_energy(u, v as usize, kinds.test, e);
                    net.unicast_with_energy(v as usize, u, kinds.test, e);
                    true
                };
                if !through {
                    // Nothing was learned about this edge.
                    open.get_or_insert(k);
                } else if self.frag[v as usize] != my {
                    found = Some(Cand { w, u: u as u32, v });
                    break;
                } else if faulty {
                    // Reject, permanently, on both sides.
                    set_bit(&mut self.rejected, base + k);
                    let back = sorted_slot(topo, v as usize, w, u as u32);
                    set_bit(&mut self.rejected, topo.row_offset(v as usize) + back);
                }
            }
            k += 1;
        }
        // Every entry before the cursor is rejected now.
        self.moe_state[u] = MoeSlot::at(ids, dists, open.unwrap_or(k));
        (found, exchanges)
    }

    /// The sharded MOE stage (modified variant only): partitions nodes
    /// across `shards` scoped worker threads and reduces candidates back
    /// deterministically.
    ///
    /// **Mapping.** Node `u` belongs to shard `u / ceil(n / shards)` —
    /// contiguous blocks of node-id space, fixed for the whole run. The
    /// per-node scan cursors are `split_at_mut` along the same blocks, so
    /// every cursor write is provably disjoint; all other engine state
    /// (`frag`, the fragment caches, the shared sorted topology) is
    /// read-only during the stage.
    ///
    /// **Reduce.** Each worker emits `(position, candidate)` pairs in
    /// ascending position order over the active fragments' runs of the
    /// member array. The orchestrating thread then replays the exact sequential
    /// visit order, folding each position's candidate with the same
    /// `better_than` comparison the unsharded loop uses — so the winning
    /// candidate per fragment (and therefore every downstream message,
    /// ledger charge and trace event) is bit-identical for any shard
    /// count.
    #[allow(clippy::needless_range_loop)] // `p` is the position value itself
    fn moe_sharded(
        &mut self,
        topo: &Topology,
        order: &[u32],
        bounds: &[(u32, u32, u32)],
        stalled: &[bool],
        cand: &mut [Option<Cand>],
        shards: usize,
    ) {
        let n = self.n;
        let block = n.div_ceil(shards);
        let mut results = std::mem::take(&mut self.shard_results);
        results.resize_with(shards, Vec::new);
        for r in &mut results {
            r.clear();
        }
        {
            let frag = &self.frag;
            // Faulty runs read their caches; clean runs scan with cursors.
            let cache = self.retries.is_some().then_some(self.frag_cache.as_slice());
            let mut cursor_blocks: Vec<&mut [MoeSlot]> = Vec::with_capacity(shards);
            let mut rest: &mut [MoeSlot] = &mut self.moe_state;
            for _ in 0..shards {
                let take = block.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                cursor_blocks.push(head);
                rest = tail;
            }
            std::thread::scope(|sc| {
                for (s, (cursor, out)) in cursor_blocks
                    .into_iter()
                    .zip(results.iter_mut())
                    .enumerate()
                {
                    let lo = s * block;
                    let hi = ((s + 1) * block).min(n);
                    sc.spawn(move || {
                        for (ai, &(_f, s0, e0)) in bounds.iter().enumerate() {
                            if stalled[ai] {
                                continue;
                            }
                            for p in s0 as usize..e0 as usize {
                                let u = order[p] as usize;
                                if u < lo || u >= hi {
                                    continue;
                                }
                                let c = match cache {
                                    Some(cache) => Self::moe_cached(topo, cache, frag[u], u),
                                    // local_moe_clean against this shard's
                                    // slot block.
                                    None => Self::moe_scan(topo, frag, &mut cursor[u - lo], u),
                                };
                                if let Some(c) = c {
                                    out.push((p as u32, c));
                                }
                            }
                        }
                    });
                }
            });
        }
        // Deterministic reduce: walk positions in the sequential order and
        // pop each shard's stream in lockstep (streams are position-sorted
        // by construction).
        let mut idx = std::mem::take(&mut self.shard_idx);
        idx.clear();
        idx.resize(shards, 0);
        for (ai, &(_f, s0, e0)) in bounds.iter().enumerate() {
            if stalled[ai] {
                continue;
            }
            for p in s0 as usize..e0 as usize {
                let s = order[p] as usize / block;
                if let Some(&(pp, c)) = results[s].get(idx[s]) {
                    if pp as usize == p {
                        idx[s] += 1;
                        match &cand[ai] {
                            Some(best) if !c.better_than(best) => {}
                            _ => cand[ai] = Some(c),
                        }
                    }
                }
            }
        }
        self.shard_idx = idx;
        self.shard_results = results;
    }

    /// Executes one phase. Returns the number of fragment merges performed
    /// (0 means the engine has quiesced at this radius).
    fn phase(&mut self, net: &mut RadioNet<'_>, kinds: &GhsKinds) -> usize {
        self.healed_last_phase = 0;
        // The active fragments' runs of the member array, in ascending
        // fragment order, so every stage below iterates fragments exactly
        // as the old sorted member map did. The array is held locally
        // until the merge stage, which lays it out again.
        let order = std::mem::take(&mut self.member_order);
        let mut bounds = std::mem::take(&mut self.active_bounds);
        bounds.clear();
        // Low-awake bookkeeping: members of passive/exhausted fragments do
        // nothing for the rest of this radius (exhausted fragments have no
        // outgoing edges, and edges are symmetric, so nobody connects *to*
        // them either) — they sleep through every stage of the phase,
        // waking only at stage boundaries.
        let low_awake = self.variant == GhsVariant::LowAwake;
        let mut idle_nodes: Vec<u32> = Vec::new();
        for &f in &self.live {
            let run = self.run(f);
            if self.passive[f as usize] || self.inactive[f as usize] {
                if low_awake {
                    idle_nodes.extend_from_slice(&order[run]);
                }
                continue;
            }
            bounds.push((f, run.start as u32, run.end as u32));
        }
        if bounds.is_empty() {
            self.member_order = order;
            self.active_bounds = bounds;
            return 0;
        }
        self.phases += 1;
        let phase_no = self.phases as u64;

        // Stage A: initiate broadcasts. Fragments whose initiate traffic is
        // lost *stall* for this phase: their members never got the go-ahead,
        // so they neither search nor report, and are retried next phase.
        net.note_phase(kinds.scope, phase_no, "initiate");
        let mut max_depth = 0u64;
        let mut stalled = std::mem::take(&mut self.stalled_scratch);
        stalled.clear();
        stalled.resize(bounds.len(), false);
        // Per-fragment stage cost (its own tree depth): a low-awake
        // fragment sleeps the tail of the stage once its own broadcast or
        // convergecast is done, while the deepest fragment stays up.
        let mut depths: Vec<u64> = Vec::new();
        for (ai, &(f, s, e)) in bounds.iter().enumerate() {
            let members = &order[s as usize..e as usize];
            let d = self.depth_of(f, members);
            max_depth = max_depth.max(d);
            if low_awake {
                depths.push(d);
                debug_assert_eq!(depths.len(), ai + 1);
            }
            if !self.charge_broadcast(net, members, kinds.initiate) {
                stalled[ai] = true;
            }
        }
        let extra = self.take_stage_extra();
        if low_awake {
            schedule_stage_sleep(net, &order, &bounds, &depths, &idle_nodes, max_depth, extra);
        }
        net.advance_rounds(max_depth + extra);

        // Stage B: local MOE search.
        net.note_phase(kinds.scope, phase_no, "test");
        let mut cand = std::mem::take(&mut self.cand_scratch); // best per fragment
        cand.clear();
        cand.resize(bounds.len(), None);
        let mut max_exchanges = 0u64;
        // Every run searches the shared sorted topology rows (an owned
        // handle, so `net` stays free for the original variant's test
        // exchanges below), except fault-free restricted modified runs,
        // which read rows on demand.
        let on_demand = self.reads_rows_on_demand(net);
        let topo =
            (!on_demand).then(|| net.topology_handle().expect("discover cached this radius"));
        let faulty = self.retries.is_some();
        let shard_count = if self.variant.is_modified() && !on_demand {
            self.shards.min(self.n.max(1))
        } else {
            // The original variant's MOE search exchanges messages, and
            // on-demand rows are read through the network — both stay on
            // the orchestrating thread.
            1
        };
        if shard_count > 1 {
            self.moe_sharded(
                topo.as_deref()
                    .expect("only on-demand runs lack the shared rows"),
                &order,
                &bounds,
                &stalled,
                &mut cand,
                shard_count,
            );
        } else {
            for (ai, &(_f, s, e)) in bounds.iter().enumerate() {
                if stalled[ai] {
                    continue;
                }
                for &u in &order[s as usize..e as usize] {
                    let u = u as usize;
                    let (c, ex) = match (&topo, self.variant) {
                        (Some(topo), GhsVariant::Original) => {
                            self.local_moe_original(net, topo, u, kinds)
                        }
                        (Some(topo), _) if faulty => {
                            (Self::moe_cached(topo, &self.frag_cache, self.frag[u], u), 0)
                        }
                        (Some(topo), _) => (self.local_moe_clean(topo, u), 0),
                        (None, _) => (self.local_moe_restricted(net, u, cand[ai].as_ref()), 0),
                    };
                    max_exchanges = max_exchanges.max(ex);
                    if let Some(c) = c {
                        match &cand[ai] {
                            Some(best) if !c.better_than(best) => {}
                            _ => cand[ai] = Some(c),
                        }
                    }
                }
            }
        }
        let extra = self.take_stage_extra();
        net.advance_rounds(2 * max_exchanges + extra);

        // Stage C: report convergecasts. A lost report means the leader
        // never learns the candidate: the fragment stalls (and must not be
        // marked exhausted below).
        net.note_phase(kinds.scope, phase_no, "report");
        for (ai, &(_f, s, e)) in bounds.iter().enumerate() {
            if stalled[ai] {
                continue;
            }
            let members = &order[s as usize..e as usize];
            if !self.charge_convergecast(net, members, kinds.report) {
                cand[ai] = None;
                stalled[ai] = true;
            }
        }
        let extra = self.take_stage_extra();
        if low_awake {
            // The report convergecast costs each fragment its own depth
            // again, so stage A's per-fragment costs apply verbatim.
            schedule_stage_sleep(net, &order, &bounds, &depths, &idle_nodes, max_depth, extra);
        }
        net.advance_rounds(max_depth + extra);

        // Fragments with no outgoing edge are exhausted at this radius —
        // but only if their control traffic actually went through.
        for (ai, &(f, _, _)) in bounds.iter().enumerate() {
            if cand[ai].is_none() && !stalled[ai] {
                self.inactive[f as usize] = true;
            }
        }
        if cand.iter().all(|c| c.is_none()) {
            self.member_order = order;
            self.active_bounds = bounds;
            self.cand_scratch = cand;
            self.stalled_scratch = stalled;
            return 0;
        }

        // Stage D: change-root along the leader→endpoint path, then connect.
        // Under faults a lost hop or connect abandons the candidate for the
        // phase (the fragment picks a fresh MOE next phase).
        net.note_phase(kinds.scope, phase_no, "change-root");
        let mut max_path = 0u64;
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        delivered.clear();
        // Per-fragment stage cost: path length + 1 connect round; a
        // fragment without a candidate (just exhausted) has cost 0 and
        // sleeps all but the stage's first round.
        let mut paths: Vec<u64> = if low_awake {
            vec![0; bounds.len()]
        } else {
            Vec::new()
        };
        for (ai, &(f, _, _)) in bounds.iter().enumerate() {
            let Some(c) = cand[ai] else { continue };
            // Walk the MOE endpoint → leader path; messages are charged in
            // that (upward) traversal order, one hop at a time. Authority
            // flows leader → endpoint; a failed hop stops it.
            let mut hops = 0u64;
            let mut cur = c.u;
            let mut ok = true;
            while cur != f {
                let p = self.parent[cur as usize];
                hops += 1;
                if ok {
                    ok = self.reliable_unicast_parent(net, cur as usize, false, kinds.chroot);
                }
                cur = p;
            }
            max_path = max_path.max(hops);
            if low_awake {
                paths[ai] = hops + 1;
            }
            if ok {
                ok = self.reliable_unicast(net, c.u as usize, c.v as usize, kinds.connect);
            }
            if ok {
                delivered.push((f, c));
            }
        }
        let extra = self.take_stage_extra();
        if low_awake {
            schedule_stage_sleep(
                net,
                &order,
                &bounds,
                &paths,
                &idle_nodes,
                max_path + 1,
                extra,
            );
        }
        net.advance_rounds(max_path + 1 + extra);

        // Stage E: merge bookkeeping (no messages).
        self.member_order = order;
        let merges = self.merge(net, &delivered);
        self.healed_last_phase = merges.healed;

        // Stage F: announcements (modified variant).
        let changed = std::mem::take(&mut self.changed_scratch);
        if self.variant.is_modified() && !changed.is_empty() {
            net.note_phase(kinds.scope, phase_no, "announce");
            if faulty {
                // A missed receiver keeps a stale cache entry, which the
                // union-find merge acceptance tolerates.
                let topo = topo.expect("faulty runs search the shared rows");
                for &u in &changed {
                    let new_frag = self.frag[u as usize];
                    let cache = &mut self.frag_cache;
                    let deliver = |v: usize, d: f64| {
                        // `v` may never have heard `u`'s hello; then it
                        // has no cache entry to refresh.
                        let slot = topo.row_offset(v) + sorted_slot(&topo, v, d, u);
                        if cache[slot] != UNHEARD {
                            cache[slot] = new_frag;
                        }
                    };
                    lossy_broadcast(net, &topo, u as usize, self.radius, kinds.announce, deliver);
                }
            } else {
                // Clean runs charge the announce broadcasts but skip
                // the per-receiver cache writes entirely: every node
                // holding a row entry for `u` is within announce range
                // (rows and broadcasts use the same radius), so the
                // caches stay exact and stage B reads the live
                // fragment ids instead. Ledger and trace are identical
                // — cache maintenance was pure memory traffic.
                for &u in &changed {
                    net.local_broadcast_silent(u as usize, self.radius, kinds.announce);
                }
            }
            net.advance_rounds(1);
        }
        // Hand every scratch buffer back for the next phase.
        self.changed_scratch = changed;
        self.active_bounds = bounds;
        self.cand_scratch = cand;
        self.stalled_scratch = stalled;
        self.delivered_scratch = delivered;
        merges.merged_groups
    }

    /// Coalesces fragments along the chosen connect edges (`chosen` is
    /// sorted ascending by fragment id). Leaves the nodes whose fragment id
    /// changed in `self.changed_scratch` (in merge-group order) and returns
    /// the number of merged groups.
    ///
    /// One stage costs O(live fragments + absorbed members + n): fragments
    /// are grouped by union-find root with stable counting sorts, flags and
    /// chosen edges are read from id-indexed slabs, only the absorbed
    /// fragments' runs are relabelled, a stage that merged anything lays
    /// the member array out again ([`GhsEngine::regroup`]), and every
    /// buffer is reused across stages.
    fn merge(&mut self, net: &mut RadioNet<'_>, chosen: &[(u32, Cand)]) -> MergeResult {
        self.changed_scratch.clear();
        let nlive = self.live.len();
        // Union-find over dense fragment indices (entries of `live_index`
        // for dead ids are stale but never read — every lookup goes
        // through a live id).
        for (i, &f) in self.live.iter().enumerate() {
            self.live_index[f as usize] = i as u32;
        }
        self.uf.reset(nlive);
        // An edge is accepted iff it joins two fragments not already
        // grouped this stage. In fault-free runs this is exactly the old
        // mutual-choice dedup (unique weights admit only 2-cycles among
        // MOE choices); under faults it additionally discards stale
        // cache picks that turned out fragment-internal and ≥3-cycles
        // among non-minimum candidates — either would corrupt the forest.
        // Accepted edges are annotated with their (pre-merge) fragment
        // endpoints and, after all unions, their group root — the
        // fragment-level spanning tree each merge group re-roots along.
        let mut group_edges = std::mem::take(&mut self.group_edges_scratch);
        group_edges.clear();
        // Candidates that were fragment-internal before this stage: a stale
        // announce cache proposed an edge to a node already merged in. The
        // delivered connect doubles as the real protocol's "same fragment"
        // reply, so the proposer's cache entry is healed below — without
        // this, a stale fragment re-proposes the same internal edge every
        // phase and livelocks until the barren-phase cutoff. Empty in
        // fault-free runs (accurate caches only pick outgoing edges).
        let mut stale: Vec<Cand> = Vec::new();
        for (k, &(f, cand)) in chosen.iter().enumerate() {
            self.chosen_at[f as usize] = k as u32;
            let g = self.frag[cand.v as usize];
            if g == f {
                stale.push(cand);
            } else if self.uf.union(
                self.live_index[f as usize] as usize,
                self.live_index[g as usize] as usize,
            ) {
                let (a, b) = if cand.u < cand.v {
                    (cand.u, cand.v)
                } else {
                    (cand.v, cand.u)
                };
                self.tree_edges
                    .push(Edge::new(a as usize, b as usize, cand.w));
                group_edges.push(GroupEdge {
                    root: 0, // filled below once the unions settle
                    frag_u: f,
                    frag_v: g,
                    u: cand.u,
                    v: cand.v,
                });
            }
        }
        // Group fragments and accepted edges by union-find root with stable
        // counting sorts. `live` is ascending, so each class comes out as a
        // contiguous run with members in ascending order, and the runs in
        // ascending root order — the grouping a sort of `(root, fragment)`
        // pairs gives. Edges keep their acceptance order within a group.
        let mut roots = std::mem::take(&mut self.group_roots);
        roots.clear();
        for i in 0..nlive {
            roots.push(self.uf.find(i) as u32);
        }
        let live_index = &self.live_index;
        let root_of = |f: u32| roots[live_index[f as usize] as usize] as usize;
        for ge in group_edges.iter_mut() {
            ge.root = root_of(ge.frag_u) as u32;
        }
        let mut off = std::mem::take(&mut self.group_off);
        let mut edges = std::mem::take(&mut self.group_edges_sorted);
        counting_sort(
            &group_edges,
            nlive,
            |ge| ge.root as usize,
            &mut off,
            &mut edges,
        );
        let mut frags = std::mem::take(&mut self.group_frags);
        counting_sort(&self.live, nlive, |&f| root_of(f), &mut off, &mut frags);
        let mut ge_cursor = 0usize;
        let mut merged_groups = 0usize;
        for r in 0..nlive {
            let group = &frags[off[r] as usize..off[r + 1] as usize];
            if group.len() < 2 {
                continue;
            }
            merged_groups += 1;
            // New fragment id: a passive member's id if present (the giant
            // keeps its id), else the higher endpoint of the group's core
            // edge (its minimum chosen edge, which both sides selected).
            let mut passive_id: Option<u32> = None;
            for &f in group {
                if self.passive[f as usize] {
                    assert!(
                        passive_id.is_none(),
                        "two passive fragments cannot be joined (no fragment \
                         chose an edge out of a passive one)"
                    );
                    passive_id = Some(f);
                }
            }
            let new_id = if let Some(p) = passive_id {
                p
            } else {
                let core = group
                    .iter()
                    .filter_map(|&f| {
                        let k = self.chosen_at[f as usize];
                        (k != NONE).then(|| &chosen[k as usize].1)
                    })
                    .min_by(|a, b| {
                        a.key().0.total_cmp(&b.key().0).then_with(|| {
                            let ka = (a.key().1, a.key().2);
                            let kb = (b.key().1, b.key().2);
                            ka.cmp(&kb)
                        })
                    })
                    .expect("non-trivial group has at least one chosen edge");
                core.u.max(core.v)
            };
            // The new leader's pre-merge fragment — the BFS root of the
            // fragment-level re-attachment walk below. A fragment's id is
            // one of its members, so `new_id` was a live id iff it is
            // `f_star`, and no other group's fragment carries it.
            let f_star = self.frag[new_id as usize];
            // This group's slice of the accepted edges (both lists are in
            // root order; singleton groups own no edges, so skipping them
            // cannot desynchronise the cursor).
            let ge_start = ge_cursor;
            while ge_cursor < edges.len() && edges[ge_cursor].root == r as u32 {
                ge_cursor += 1;
            }
            debug_assert_eq!(ge_cursor - ge_start, group.len() - 1);
            // Relabel the absorbed fragments' runs in group order (each run
            // ascending), so `changed` — and thus announce order — is their
            // concatenation. The runs stay where they are until the regroup
            // below. A passive flag already sits on `new_id`; an inactive
            // one ends with its fragment.
            let mut size = 0;
            for &f in group {
                let run = self.run(f);
                size += run.len() as u32;
                if f != new_id {
                    for &u in &self.member_order[run.clone()] {
                        self.frag[u as usize] = new_id;
                    }
                    self.changed_scratch
                        .extend_from_slice(&self.member_order[run]);
                }
                self.inactive[f as usize] = false;
                self.is_live[f as usize] = false;
            }
            net.note_merge(new_id as usize, group.len() - 1, size as usize);
            self.frag_size[new_id as usize] = size;
            self.is_live[new_id as usize] = true;
            self.reflip_group(new_id, f_star, group, &edges[ge_start..ge_cursor]);
        }
        if merged_groups > 0 {
            self.regroup();
        }
        for &(f, _) in chosen {
            self.chosen_at[f as usize] = NONE;
        }
        // Heal the stale cache entries detected above with the peer's
        // post-merge fragment id, so the proposer skips (or correctly
        // re-evaluates) the edge next phase.
        if !stale.is_empty() {
            let topo = net
                .topology_at(self.radius)
                .expect("discover cached this radius");
            for cand in &stale {
                let u = cand.u as usize;
                self.frag_cache[topo.row_offset(u) + sorted_slot(topo, u, cand.w, cand.v)] =
                    self.frag[cand.v as usize];
            }
        }
        self.group_roots = roots;
        self.group_off = off;
        self.group_frags = frags;
        self.group_edges_scratch = group_edges;
        self.group_edges_sorted = edges;
        MergeResult {
            merged_groups,
            healed: stale.len(),
        }
    }

    /// Reverses the parent chain from `r` to its old root, making `r` the
    /// root of its (old) fragment tree — `O(path length)` instead of a
    /// whole-fragment BFS. The resulting orientation is the unique
    /// "towards `r`" one, so it is bit-identical to a full re-rooting.
    fn flip_to_root(&mut self, r: u32) {
        let mut prev = r;
        let mut cur = self.parent[r as usize];
        self.parent[r as usize] = r;
        self.parent_energy[r as usize] = f64::INFINITY;
        while cur != prev {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = prev;
            self.parent_energy[cur as usize] = f64::INFINITY;
            prev = cur;
            cur = next;
        }
    }

    /// Re-roots a merge group's combined tree at `new_id` by walking the
    /// fragment-level spanning tree (`edges`) breadth-first from
    /// `f_star` (= `new_id`'s old fragment) and reversing one
    /// root-to-attachment parent path per old fragment. Total cost is
    /// `O(k + Σ path lengths)` for a `k`-fragment group, against the
    /// whole-fragment BFS it replaces; the final parent orientation
    /// ("towards `new_id`") is unique on a tree, so the result is
    /// bit-identical.
    fn reflip_group(&mut self, new_id: u32, f_star: u32, group: &[u32], edges: &[GroupEdge]) {
        let k = group.len();
        let local = |f: u32| {
            group
                .binary_search(&f)
                .expect("edge endpoint outside its merge group")
        };
        // Adjacency over the group's dense fragment indices: each edge's
        // two `(endpoint, edge)` arcs, grouped by endpoint.
        let mut arcs = std::mem::take(&mut self.reflip_arcs);
        let mut off = std::mem::take(&mut self.reflip_off);
        let mut adj = std::mem::take(&mut self.reflip_adj);
        arcs.clear();
        for (ei, e) in edges.iter().enumerate() {
            let ei = ei as u32;
            arcs.extend([(local(e.frag_u) as u32, ei), (local(e.frag_v) as u32, ei)]);
        }
        counting_sort(&arcs, k, |&(l, _)| l as usize, &mut off, &mut adj);
        let mut visited = std::mem::take(&mut self.reflip_visited);
        visited.clear();
        visited.resize(k, false);
        let mut queue = std::mem::take(&mut self.reflip_queue);
        queue.clear();
        let start = local(f_star);
        visited[start] = true;
        queue.push_back(start as u32);
        self.flip_to_root(new_id);
        while let Some(fi) = queue.pop_front() {
            let fi = fi as usize;
            for &(_, ei) in &adj[off[fi] as usize..off[fi + 1] as usize] {
                let e = edges[ei as usize];
                // Orient the edge away from the visited side.
                let (child_f, attach, connector) = if local(e.frag_u) == fi {
                    (e.frag_v, e.v, e.u)
                } else {
                    (e.frag_u, e.u, e.v)
                };
                let ci = local(child_f);
                if !visited[ci] {
                    visited[ci] = true;
                    self.flip_to_root(attach);
                    self.parent[attach as usize] = connector;
                    self.parent_energy[attach as usize] = f64::INFINITY;
                    queue.push_back(ci as u32);
                }
            }
        }
        self.reflip_arcs = arcs;
        self.reflip_off = off;
        self.reflip_adj = adj;
        self.reflip_visited = visited;
        self.reflip_queue = queue;
    }

    /// Runs phases until no active fragment can merge. Returns the number
    /// of phases executed by this call.
    pub fn run_phases(&mut self, net: &mut RadioNet<'_>, kinds: &GhsKinds) -> usize {
        self.run_phases_with_patience(net, kinds, Self::DEFAULT_PATIENCE)
    }

    /// Default barren-phase budget for fault-injected runs (see
    /// [`GhsEngine::run_phases_with_patience`]).
    pub const DEFAULT_PATIENCE: usize = 4;

    /// Runs phases until no active fragment can merge, with an explicit
    /// *patience* — the number of consecutive barren phases tolerated
    /// under an active fault plan before giving up. The repair stage grows
    /// this budget per escalation attempt (round slack); fault-free runs
    /// ignore it (a barren phase is then a proof of quiescence). Returns
    /// the number of phases executed by this call.
    pub fn run_phases_with_patience(
        &mut self,
        net: &mut RadioNet<'_>,
        kinds: &GhsKinds,
        patience: usize,
    ) -> usize {
        let before = self.phases;
        if self.retries.is_none() {
            // A phase with zero merges means no active fragment found an
            // outgoing edge (any found edge merges something), so every
            // active fragment was just marked exhausted and the engine has
            // quiesced at this radius.
            while self.phase(net, kinds) > 0 {}
        } else {
            // Under faults a merge-free phase can also mean "everything
            // stalled on lost control traffic" (stalled fragments are
            // deliberately not marked exhausted) or "the chosen candidates
            // were stale and got healed". Both are retried: healing is
            // monotone progress (after the last merge no new staleness is
            // created, so the backlog strictly drains), and stalls redraw
            // fresh retry coins next phase. Only a bounded number of
            // consecutive phases with *neither* merges nor heals give up,
            // accepting the forest as-is (the run is then reported as
            // degraded by the `Sim` layer, which may hand it to the repair
            // stage).
            let patience = patience.max(1);
            let mut barren = 0usize;
            while barren < patience {
                if self.phase(net, kinds) > 0 || self.healed_last_phase > 0 {
                    barren = 0;
                } else {
                    barren += 1;
                }
            }
        }
        self.phases - before
    }

    /// EOPT step-2 preamble: every fragment computes its size by a
    /// broadcast + convergecast along its tree and the leader's verdict is
    /// broadcast back (`3·(size−1)` messages per fragment, `3·depth`
    /// rounds). Fragments larger than `threshold` become passive. Returns
    /// `(fragment id, size, passive?)` rows.
    pub fn classify_passive_by_size(
        &mut self,
        net: &mut RadioNet<'_>,
        threshold: f64,
        kinds: &GhsKinds,
    ) -> Vec<(usize, usize, bool)> {
        net.note_phase(kinds.scope, self.phases as u64, "size");
        let mut rows = Vec::new();
        let mut max_depth = 0u64;
        // Held locally so the charging methods can borrow the engine.
        let order = std::mem::take(&mut self.member_order);
        for idx in 0..self.live.len() {
            let f = self.live[idx];
            let members = &order[self.run(f)];
            max_depth = max_depth.max(self.depth_of(f, members));
            let mut ok = self.charge_broadcast(net, members, kinds.size); // size request
            ok &= self.charge_convergecast(net, members, kinds.size); // partial sums
            ok &= self.charge_broadcast(net, members, kinds.size); // verdict

            // A fragment whose size traffic was lost cannot prove its size
            // and must not go passive (passivation on a wrong count would
            // freeze a fragment that still needs to merge).
            let passive = ok && members.len() as f64 > threshold;
            if passive {
                self.passive[f as usize] = true;
            }
            rows.push((f as usize, members.len(), passive));
        }
        self.member_order = order;
        let extra = self.take_stage_extra();
        net.advance_rounds(3 * max_depth + extra);
        rows.sort_unstable_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

/// Whether `net` departs some id, restricting the run to the others.
fn has_departures(net: &RadioNet<'_>) -> bool {
    net.availability().is_some_and(Availability::has_departures)
}

/// Bit `i` of a word-packed bit slab.
#[inline]
fn bit(slab: &[u64], i: usize) -> bool {
    (slab[i / 64] >> (i % 64)) & 1 != 0
}

/// Sets bit `i` of a word-packed bit slab.
#[inline]
fn set_bit(slab: &mut [u64], i: usize) {
    slab[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a word-packed bit slab.
#[inline]
fn clear_bit(slab: &mut [u64], i: usize) {
    slab[i / 64] &= !(1 << (i % 64));
}

/// Position of neighbour `id` at distance `dist` in `u`'s `(dist, id)`-sorted
/// topology row: a binary search for the first entry at `dist`, then a
/// walk over the (rare) equal-distance entries before `id`. Row distances
/// are exactly symmetric, so the bits `id`'s row holds for `u` find `u`'s
/// entry for `id`. Only runs under a fault plan search: the original
/// variant's reverse reject write, and the modified variants' faulty
/// announcements and merge-stage heal. Fault-free original runs read the
/// peer's cursor instead ([`GhsEngine::local_moe_original`]).
fn sorted_slot(topo: &Topology, u: usize, dist: f64, id: u32) -> usize {
    let (ids, dists) = (topo.sorted_ids(u), topo.sorted_dists(u));
    let lo = dists.partition_point(|d| d.total_cmp(&dist).is_lt());
    lo + ids[lo..]
        .iter()
        .position(|&v| v == id)
        .expect("topology rows are symmetric")
}

/// One lossy local broadcast by `u` at `radius` under a fault plan: the
/// faulty hello and announcement, which are one-shot (a broadcast has no
/// ack channel). A down sender transmits nothing and draws one timeout
/// event. Otherwise the transmission is charged once, and each present
/// neighbour `v` at distance `d`, in row order, either receives it —
/// `on_delivery(v, d)` — or draws a drop event. Departed ids are skipped
/// silently.
fn lossy_broadcast(
    net: &mut RadioNet<'_>,
    topo: &Topology,
    u: usize,
    radius: f64,
    kind: &'static str,
    mut on_delivery: impl FnMut(usize, f64),
) {
    let round = net.clock().now();
    if net.down(u, round) {
        net.note_fault(FaultKind::Timeout, kind, u, None);
        return;
    }
    let energy = net.loss().energy_for_distance(radius);
    net.charge_tx(kind, u, None, radius, energy);
    let mut delivered = 0u64;
    for (v, d) in topo.neighbors(u) {
        if net.departed(v) {
            continue;
        }
        if net.delivers(round, u, v) {
            on_delivery(v, d);
            delivered += 1;
        } else {
            net.note_fault(FaultKind::Drop, kind, u, Some(v));
        }
    }
    net.charge_receptions(delivered);
}

/// Stable counting sort: writes `items` into `out` grouped by bucket
/// `key(item) < buckets`, and bucket `b`'s range into `off[b]..off[b + 1]`.
/// Linear in items plus buckets, with no comparisons; both buffers are
/// reused.
fn counting_sort<T: Copy + Default>(
    items: &[T],
    buckets: usize,
    key: impl Fn(&T) -> usize,
    off: &mut Vec<u32>,
    out: &mut Vec<T>,
) {
    off.clear();
    off.resize(buckets + 2, 0);
    for x in items {
        off[key(x) + 2] += 1;
    }
    for b in 2..off.len() {
        off[b] += off[b - 1];
    }
    // `off[b + 1]` now holds bucket `b`'s start; placing moves it to the end.
    out.clear();
    out.resize(items.len(), T::default());
    for x in items {
        let slot = &mut off[key(x) + 1];
        out[*slot as usize] = *x;
        *slot += 1;
    }
    off.pop();
}

/// Per-node MOE scan state: a resume cursor into the node's shared
/// sorted row plus the id and weight of the entry under the cursor.
///
/// In a clean modified run that entry is the node's current outgoing
/// candidate. While it stays foreign, a stage-B visit reads this 16-byte
/// slot and probes `frag[]` once; the sorted row itself is only touched
/// again when the candidate gets absorbed into the node's own fragment and
/// the cursor has to advance (amortised O(row) over the whole run).
///
/// In the original variant every entry before the cursor is rejected, and
/// the entry under it is re-tested each phase like any unrejected one.
/// Its `(w, v)` is the sort key of that entry — `(+∞, u32::MAX)` past the
/// row end, `(−∞, MOE_UNSCANNED)` before the first scan — so a peer asks
/// whether its own entry lies behind the cursor with one comparison
/// ([`MoeSlot::passed`]).
#[derive(Clone, Copy)]
struct MoeSlot {
    cursor: u32,
    /// Row id under the cursor; `MOE_UNSCANNED` before the first scan,
    /// `MOE_EXHAUSTED` once the row holds no foreign entry (permanent,
    /// since fragments only merge).
    v: u32,
    w: f64,
}

const MOE_UNSCANNED: u32 = u32::MAX;
const MOE_EXHAUSTED: u32 = u32::MAX - 1;

/// A `frag_cache` entry whose hello was not delivered. Fragment ids are
/// node ids, so no live id collides with it.
const UNHEARD: u32 = u32::MAX;

impl MoeSlot {
    /// Nothing scanned; as an original-variant key, below every entry.
    const UNSCANNED: MoeSlot = MoeSlot {
        cursor: 0,
        v: MOE_UNSCANNED,
        w: f64::NEG_INFINITY,
    };

    /// Original variant: the slot of a scan that stopped at entry `cursor`
    /// of the sorted row `(ids, dists)`, keyed by that entry.
    fn at(ids: &[u32], dists: &[f64], cursor: usize) -> MoeSlot {
        MoeSlot {
            cursor: cursor as u32,
            v: ids.get(cursor).copied().unwrap_or(u32::MAX),
            w: dists.get(cursor).copied().unwrap_or(f64::INFINITY),
        }
    }

    /// Original variant: whether the entry `(dist, id)` of this node's row
    /// lies behind its cursor — rows are sorted by `(dist, id)` with
    /// distinct ids, so it does exactly when it sorts before the key.
    #[inline]
    fn passed(&self, dist: f64, id: u32) -> bool {
        dist.total_cmp(&self.w).then(id.cmp(&self.v)).is_lt()
    }
}

/// An accepted merge edge annotated with its (pre-merge) fragment
/// endpoints and, once the union-find settles, its merge-group root —
/// together the edges of one group form the fragment-level spanning tree
/// the group's trees are re-attached along.
#[derive(Clone, Copy, Default)]
struct GroupEdge {
    /// Union-find root (dense index) identifying the merge group.
    root: u32,
    /// Fragment that proposed the edge (contains `u`).
    frag_u: u32,
    /// Fragment on the receiving end (contains `v`).
    frag_v: u32,
    u: u32,
    v: u32,
}

/// Internal result of a merge stage.
struct MergeResult {
    merged_groups: usize,
    /// Stale cache entries corrected (fault-injected runs only).
    healed: usize,
}

/// Result of the GHS stage composition (tree + protocol read-outs; stats
/// and stage marks live on the [`crate::ExecEnv`]).
pub(crate) struct GhsRun {
    pub tree: SpanningTree,
    pub phases: usize,
}

/// GHS as a stage sequence against the shared execution environment:
/// neighbour discovery, then merge phases to quiescence.
pub(crate) fn drive(env: &mut crate::ExecEnv<'_>, radius: f64, variant: GhsVariant) -> GhsRun {
    let kinds = GhsKinds::for_scope("ghs");
    let mut eng = GhsEngine::new(env.net(), variant);
    eng.set_shards(env.shards());
    env.stage(kinds.scope, "discover", |net| {
        eng.discover(net, radius, kinds)
    });
    env.stage(kinds.scope, "phases", |net| eng.run_phases(net, kinds));
    GhsRun {
        tree: eng.tree(),
        phases: eng.phases(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, RunOutput, Sim};
    use emst_geom::{paper_phase2_radius, trial_rng, uniform_points, Point};
    use emst_graph::{kruskal_forest, Graph};

    fn run(points: &[Point], radius: f64, variant: GhsVariant) -> RunOutput {
        Sim::new(points).radius(radius).run(Protocol::Ghs(variant))
    }

    fn phases_of(out: &RunOutput) -> usize {
        out.detail.as_ghs().expect("GHS run").phases
    }

    fn check_matches_kruskal(points: &[Point], radius: f64, variant: GhsVariant) -> RunOutput {
        let out = run(points, radius, variant);
        let g = Graph::geometric(points, radius);
        let forest = kruskal_forest(&g);
        let reference = SpanningTree::new(points.len(), forest);
        assert!(
            out.tree.same_edges(&reference),
            "GHS {variant:?} tree differs from Kruskal forest (n={}, r={radius})",
            points.len()
        );
        out
    }

    #[test]
    fn for_scope_reproduces_historic_labels_and_interns() {
        let k = GhsKinds::for_scope("ghs");
        assert_eq!(k.scope, "ghs");
        assert_eq!(k.hello, "ghs/hello");
        assert_eq!(k.size, "ghs/size");
        let r = GhsKinds::for_scope("eopt2/recover");
        assert_eq!(r.connect, "eopt2/recover/connect");
        // Interned: the same table (same address) comes back.
        assert!(std::ptr::eq(k, GhsKinds::for_scope("ghs")));
    }

    #[test]
    fn modified_ghs_builds_exact_mst_small() {
        let pts = uniform_points(60, &mut trial_rng(101, 0));
        let r = paper_phase2_radius(60);
        let out = check_matches_kruskal(&pts, r, GhsVariant::Modified);
        assert!(phases_of(&out) >= 1);
        assert!(out.stats.energy > 0.0);
    }

    #[test]
    fn original_ghs_builds_exact_mst_small() {
        let pts = uniform_points(60, &mut trial_rng(102, 0));
        let r = paper_phase2_radius(60);
        check_matches_kruskal(&pts, r, GhsVariant::Original);
    }

    #[test]
    fn clean_moe_cursor_matches_full_scan() {
        // Invariants behind the clean-run MOE fast path: the topology's
        // sorted rows are the grid rows reordered by `(dist, id)`, and the
        // cursor-resumed scan returns exactly what a from-scratch scan of
        // the row against live fragment ids would.
        let pts = uniform_points(250, &mut trial_rng(105, 1));
        let r = paper_phase2_radius(250);
        let mut net = RadioNet::new(&pts, r);
        let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
        let kinds = GhsKinds::for_scope("ghs");
        eng.discover(&mut net, r, kinds);
        let topo = net.topology_handle().expect("cached by discover");
        for u in 0..pts.len() {
            let mut row: Vec<(f64, u32)> = topo.neighbors(u).map(|(v, d)| (d, v as u32)).collect();
            row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let ids: Vec<u32> = row.iter().map(|&(_, v)| v).collect();
            assert_eq!(topo.sorted_ids(u), ids.as_slice(), "row {u}");
        }
        // Merge a few fragments, then check the cursor scan against a
        // cursor-free reference on every node.
        eng.run_phases(&mut net, kinds);
        for u in 0..pts.len() {
            let reference = topo
                .sorted_ids(u)
                .iter()
                .zip(topo.sorted_dists(u))
                .find(|(&v, _)| eng.frag[v as usize] != eng.frag[u])
                .map(|(&v, &d)| (v, d));
            let got = eng.local_moe_clean(&topo, u).map(|c| (c.v, c.w));
            assert_eq!(got, reference, "node {u}");
        }
    }

    #[test]
    fn both_variants_agree_across_seeds() {
        for seed in 0..4 {
            let pts = uniform_points(150, &mut trial_rng(103, seed));
            let r = paper_phase2_radius(150);
            let a = run(&pts, r, GhsVariant::Modified);
            let b = run(&pts, r, GhsVariant::Original);
            assert!(a.tree.same_edges(&b.tree), "seed {seed}");
        }
    }

    #[test]
    fn disconnected_radius_yields_min_spanning_forest() {
        let pts = uniform_points(200, &mut trial_rng(104, 0));
        let r = emst_geom::paper_phase1_radius(200); // percolation regime
        let out = check_matches_kruskal(&pts, r, GhsVariant::Modified);
        assert!(out.fragments > 1, "phase-1 radius should not connect");
    }

    #[test]
    fn modified_uses_fewer_messages_than_original() {
        let pts = uniform_points(300, &mut trial_rng(105, 0));
        let r = paper_phase2_radius(300);
        let orig = run(&pts, r, GhsVariant::Original);
        let modi = run(&pts, r, GhsVariant::Modified);
        // Test traffic scales with |E|; announcements with n·phases. At the
        // connectivity radius |E| ≫ n, so the modified variant must win on
        // messages.
        assert!(
            modi.stats.messages < orig.stats.messages,
            "modified {} vs original {}",
            modi.stats.messages,
            orig.stats.messages
        );
        // No test messages in the modified run, none rejected twice in the
        // original one.
        assert_eq!(modi.stats.ledger.kind("ghs/test").messages, 0);
        assert!(orig.stats.ledger.kind("ghs/test").messages > 0);
        // Announcements only in the modified run.
        assert!(modi.stats.ledger.kind("ghs/announce").messages > 0);
        assert_eq!(orig.stats.ledger.kind("ghs/announce").messages, 0);
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let pts = uniform_points(500, &mut trial_rng(106, 0));
        let r = paper_phase2_radius(500);
        let out = run(&pts, r, GhsVariant::Modified);
        assert!(
            phases_of(&out) as f64 <= (500f64).log2() + 2.0,
            "phases = {}",
            phases_of(&out)
        );
    }

    #[test]
    fn two_nodes() {
        let pts = vec![Point::new(0.4, 0.5), Point::new(0.6, 0.5)];
        let out = run(&pts, 0.5, GhsVariant::Modified);
        assert_eq!(out.tree.edges().len(), 1);
        assert!(out.tree.is_valid());
        assert_eq!(out.fragments, 1);
    }

    #[test]
    fn single_node() {
        let pts = vec![Point::new(0.5, 0.5)];
        let out = run(&pts, 0.5, GhsVariant::Modified);
        assert!(out.tree.is_valid());
        assert_eq!(out.tree.edges().len(), 0);
        assert_eq!(out.fragments, 1);
    }

    #[test]
    fn original_rejects_each_edge_at_most_once() {
        // Message bound: test messages ≤ 2·(2·|E|) + 2·n·phases
        // (each edge rejected once per side, plus ≤1 accept probe per node
        // per phase).
        let pts = uniform_points(250, &mut trial_rng(107, 0));
        let r = paper_phase2_radius(250);
        let g = Graph::geometric(&pts, r);
        let out = run(&pts, r, GhsVariant::Original);
        let tests = out.stats.ledger.kind("ghs/test").messages;
        let bound = 2 * (2 * g.m() as u64) + 2 * (250 * phases_of(&out) as u64);
        assert!(tests <= bound, "tests {tests} > bound {bound}");
    }

    #[test]
    fn rounds_and_energy_are_positive_and_finite() {
        let pts = uniform_points(100, &mut trial_rng(108, 0));
        let r = paper_phase2_radius(100);
        let out = run(&pts, r, GhsVariant::Modified);
        assert!(out.stats.rounds > 0);
        assert!(out.stats.energy.is_finite() && out.stats.energy > 0.0);
        assert!(out.stats.messages as usize >= 100); // at least the hellos
    }

    #[test]
    fn seed_forest_preserves_fragments_and_completes_mst() {
        use emst_radio::RadioNet;
        let pts = uniform_points(120, &mut trial_rng(109, 0));
        let r = paper_phase2_radius(120);
        // First compute the true MST, then seed the engine with half of
        // its edges: the run must complete it to the same tree (seeded
        // MST edges are always consistent with the cut property).
        let full = run(&pts, r, GhsVariant::Modified);
        let seed_edges: Vec<(usize, usize, f64)> = full
            .tree
            .edges()
            .iter()
            .take(60)
            .map(|e| (e.u as usize, e.v as usize, e.w))
            .collect();
        let mut net = RadioNet::new(&pts, r);
        let kinds = GhsKinds::for_scope("ghs");
        let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
        eng.seed_forest(&seed_edges);
        let frag_before = eng.fragment_count();
        eng.discover(&mut net, r, kinds);
        eng.run_phases(&mut net, kinds);
        let tree = eng.tree();
        assert_eq!(frag_before, 120 - 60);
        assert!(
            tree.same_edges(&full.tree),
            "seeded run must converge to the same MST"
        );
        // Cheaper than the full run (fewer phases of merging to do).
        assert!(net.ledger().total_energy() < full.stats.energy);
    }

    #[test]
    #[should_panic(expected = "forest")]
    fn seed_forest_rejects_cycles() {
        use emst_radio::RadioNet;
        let pts = uniform_points(4, &mut trial_rng(110, 0));
        let net = RadioNet::new(&pts, 0.5);
        let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
        eng.seed_forest(&[(0, 1, 0.1), (1, 2, 0.1), (2, 0, 0.1)]);
    }

    #[test]
    fn passive_fragment_only_accepts_connections() {
        use emst_radio::RadioNet;
        // Build a full MST but mark the (single) final fragment passive
        // halfway: classify with threshold 0 so every fragment becomes
        // passive, then confirm run_phases makes no progress (passive
        // fragments never search).
        let pts = uniform_points(80, &mut trial_rng(111, 0));
        let r = paper_phase2_radius(80);
        let mut net = RadioNet::new(&pts, r);
        let kinds = GhsKinds::for_scope("ghs");
        let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
        eng.discover(&mut net, r, kinds);
        // All singletons; make everything passive.
        let rows = eng.classify_passive_by_size(&mut net, 0.0, kinds);
        assert!(rows.iter().all(|r| r.2), "threshold 0 ⇒ all passive");
        let phases = eng.run_phases(&mut net, kinds);
        assert_eq!(phases, 0, "all-passive network must stay frozen");
        assert_eq!(eng.fragment_count(), 80);
        // Clearing passivity unfreezes the run.
        eng.clear_passive();
        eng.run_phases(&mut net, kinds);
        assert_eq!(eng.fragment_count(), 1);
        assert!(eng.tree().is_valid());
    }

    #[test]
    fn per_kind_attribution_is_complete() {
        let pts = uniform_points(150, &mut trial_rng(112, 0));
        let r = paper_phase2_radius(150);
        let out = run(&pts, r, GhsVariant::Original);
        let known = [
            "ghs/hello",
            "ghs/initiate",
            "ghs/test",
            "ghs/report",
            "ghs/chroot",
            "ghs/connect",
            "ghs/announce",
            "ghs/size",
        ];
        let sum: u64 = known
            .iter()
            .map(|k| out.stats.ledger.kind(k).messages)
            .sum();
        assert_eq!(sum, out.stats.messages, "unattributed messages exist");
        // Hello is exactly one broadcast per node.
        assert_eq!(out.stats.ledger.kind("ghs/hello").messages, 150);
        // A spanning run sends exactly n−1 connects plus duplicates for
        // mutually-chosen core edges: between n−1 and 2(n−1).
        let connects = out.stats.ledger.kind("ghs/connect").messages;
        assert!((149..=298).contains(&connects), "connects = {connects}");
    }

    /// Passive and inactive fragment ids, ascending.
    fn flagged(eng: &GhsEngine) -> (Vec<u32>, Vec<u32>) {
        let ids = |slab: &[bool]| {
            (0..slab.len() as u32)
                .filter(|&f| slab[f as usize])
                .collect()
        };
        (ids(&eng.passive), ids(&eng.inactive))
    }

    /// The merge arena's invariants: `live` is ascending and equals the
    /// `is_live` ids; `member_order` is a permutation of the nodes; each
    /// live fragment's run starts where the previous one ends (the first
    /// at 0, the last ending at n), so runs are `frag_size` long and laid
    /// out in ascending fragment order; each run is strictly ascending,
    /// labelled with its fragment, rooted at it, and what `members_of`
    /// returns; flags sit on live ids only.
    fn check_arena(eng: &GhsEngine, ctx: &str) {
        let n = eng.n;
        assert!(
            eng.live.windows(2).all(|w| w[0] < w[1]),
            "{ctx}: live not ascending"
        );
        let flagged_live: Vec<u32> = (0..n as u32).filter(|&f| eng.is_live[f as usize]).collect();
        assert_eq!(eng.live, flagged_live, "{ctx}: live != is_live ids");
        let mut sorted = eng.member_order.clone();
        sorted.sort_unstable();
        assert!(
            sorted.iter().copied().eq(0..n as u32),
            "{ctx}: member_order is not a permutation of the nodes"
        );
        let mut end = 0;
        for &f in &eng.live {
            assert_eq!(
                eng.member_at[f as usize], end,
                "{ctx}: run of {f} does not follow the previous fragment's"
            );
            end += eng.frag_size[f as usize];
            let members = &eng.member_order[eng.run(f)];
            assert_eq!(
                eng.members_of(f as usize),
                members,
                "{ctx}: members_of({f})"
            );
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: members of {f} not strictly ascending"
            );
            for &u in members {
                let u = u as usize;
                assert_eq!(eng.frag[u], f, "{ctx}: frag[{u}]");
                let mut root = u;
                for _ in 0..members.len() {
                    root = eng.parent[root] as usize;
                }
                assert_eq!(
                    root, f as usize,
                    "{ctx}: parent chain of {u} does not end at {f}"
                );
            }
        }
        assert_eq!(end as usize, n, "{ctx}: runs must cover the nodes");
        let (passive, inactive) = flagged(eng);
        for f in passive.iter().chain(&inactive) {
            assert!(eng.is_live[*f as usize], "{ctx}: flag on dead id {f}");
        }
    }

    /// The original variant's reject state over the shared sorted rows,
    /// with the hellos of `hello_round` recomputed from the network.
    /// Without a plan an entry counts as rejected when either endpoint
    /// departed or it lies behind either node's cursor (the engine keeps
    /// no reject bits then); under one, when its bit is set. Then: an
    /// entry whose hello never reached the row's owner (it touches a
    /// departed id, or a plan lost it) is rejected; any other rejected
    /// entry joins two nodes of one fragment; every entry before a node's
    /// cursor is rejected, so the cursor never passes a lost test
    /// exchange; each slot holds the key of the entry under its cursor
    /// (`(+∞, u32::MAX)` past the row end; unscanned slots sit at 0).
    /// Without a plan, u→v counts as rejected exactly when v→u does;
    /// under one, a rejected entry whose hello was heard has the peer's
    /// bit set too (the reverse write).
    fn check_rejects(
        eng: &GhsEngine,
        topo: &Topology,
        net: &RadioNet<'_>,
        hello_round: u64,
        ctx: &str,
    ) {
        let heard = |from: usize, to: usize| {
            !net.departed(from)
                && !net.departed(to)
                && !net.down(from, hello_round)
                && net.delivers(hello_round, from, to)
        };
        let pos = |a: usize, b: usize| {
            topo.sorted_ids(a)
                .iter()
                .position(|&x| x as usize == b)
                .expect("rows are symmetric")
        };
        let clean = eng.retries.is_none();
        assert!(
            !clean || eng.rejected.is_empty(),
            "{ctx}: a run without a plan keeps a reject slab"
        );
        let behind = |a: usize, k: usize| k < eng.moe_state[a].cursor as usize;
        // Entry `k` of `a`'s row, which holds `b`.
        let counts = |a: usize, k: usize, b: usize| {
            if clean {
                net.departed(a) || net.departed(b) || behind(a, k) || behind(b, pos(b, a))
            } else {
                bit(&eng.rejected, topo.row_offset(a) + k)
            }
        };
        for u in 0..eng.n {
            let (ids, dists) = (topo.sorted_ids(u), topo.sorted_dists(u));
            let slot = eng.moe_state[u];
            let cursor = slot.cursor as usize;
            let key = (slot.w.to_bits(), slot.v);
            let under = match (ids.get(cursor), dists.get(cursor)) {
                (Some(&v), Some(&w)) => (w.to_bits(), v),
                _ => (f64::INFINITY.to_bits(), u32::MAX),
            };
            assert!(
                key == under
                    || (cursor == 0 && key == (f64::NEG_INFINITY.to_bits(), MOE_UNSCANNED)),
                "{ctx}: slot of {u} is not keyed by the entry under its cursor {cursor}"
            );
            for (k, &v) in ids.iter().enumerate() {
                let v = v as usize;
                let rejected = counts(u, k, v);
                if clean {
                    assert_eq!(
                        rejected,
                        counts(v, pos(v, u), u),
                        "{ctx}: {u}→{v} and {v}→{u} differ on rejection"
                    );
                }
                if !heard(v, u) {
                    assert!(rejected, "{ctx}: unheard entry {v} of {u} not rejected");
                } else if rejected {
                    assert_eq!(
                        eng.frag[u], eng.frag[v],
                        "{ctx}: rejected edge {u}–{v} joins two fragments"
                    );
                    assert!(
                        clean || bit(&eng.rejected, topo.row_offset(v) + pos(v, u)),
                        "{ctx}: {u}→{v} is rejected under a plan but {v}→{u} is open"
                    );
                }
                assert!(
                    k >= cursor || rejected,
                    "{ctx}: entry {k} of {u} is before its cursor {cursor} but not rejected"
                );
            }
        }
    }

    /// The restricted search's memo slots against each node's present
    /// foreign neighbours, read from its full row: a slot is unscanned;
    /// exhausted, with none within radius; or holds `(v, w)` with none
    /// below it by `(dist, id)`. So while `v` is foreign it is the node's
    /// exact nearest present foreign neighbour, at distance `w`; once a
    /// merge has absorbed `v`, nothing foreign lies at or below `(w, v)`.
    fn check_restricted_slots(eng: &GhsEngine, net: &RadioNet<'_>, ctx: &str) {
        for u in 0..eng.n {
            let my = eng.frag[u];
            let nearest = net
                .neighbors(u, eng.radius)
                .into_iter()
                .filter(|&(v, _)| !net.departed(u) && !net.departed(v) && eng.frag[v] != my)
                .map(|(v, d)| (d, v as u32))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let slot = eng.moe_state[u];
            match slot.v {
                MOE_UNSCANNED => {}
                MOE_EXHAUSTED => assert_eq!(
                    nearest, None,
                    "{ctx}: node {u} is exhausted beside a present foreign neighbour"
                ),
                v if eng.frag[v as usize] != my => assert_eq!(
                    nearest.map(|(d, x)| (d.to_bits(), x)),
                    Some((slot.w.to_bits(), v)),
                    "{ctx}: node {u}'s memo is not its nearest present foreign neighbour"
                ),
                v => assert!(
                    !nearest.is_some_and(|(d, x)| d.total_cmp(&slot.w).then(x.cmp(&v)).is_le()),
                    "{ctx}: node {u} has a foreign neighbour at or below its absorbed memo"
                ),
            }
        }
    }

    /// Runs `eng` to quiescence one `phase()` at a time — stopping like
    /// `run_phases` does — and checks the arena after every phase, plus
    /// that a merging phase announces exactly the relabelled nodes, that
    /// each passive fragment keeps its id and its flag, and, for an
    /// original run, its reject state. A restricted modified run's memo
    /// slots are checked before every phase. Returns the most fragments a
    /// passive one absorbed in a single phase.
    fn phases_checked(
        eng: &mut GhsEngine,
        net: &mut RadioNet<'_>,
        kinds: &GhsKinds,
        ctx: &str,
    ) -> usize {
        check_arena(eng, ctx);
        // Original-variant cases enter right after `discover`, whose
        // hellos went out in the round it just ticked.
        let hello_round = net.clock().now().saturating_sub(1);
        let (mut barren, mut most_absorbed) = (0, 0);
        loop {
            let passive_before = eng.passive_fragments();
            let live_before = eng.live.clone();
            let frag_before = eng.frag.clone();
            if eng.reads_rows_on_demand(net) {
                check_restricted_slots(
                    eng,
                    net,
                    &format!("{ctx}, before phase {}", eng.phases() + 1),
                );
            }
            let merged = eng.phase(net, kinds);
            let ctx = format!("{ctx}, phase {}", eng.phases());
            check_arena(eng, &ctx);
            if merged > 0 {
                // The merge stage announces exactly the relabelled nodes.
                let mut changed = eng.changed_scratch.clone();
                changed.sort_unstable();
                let relabelled: Vec<u32> = (0..eng.n as u32)
                    .filter(|&u| eng.frag[u as usize] != frag_before[u as usize])
                    .collect();
                assert_eq!(
                    changed, relabelled,
                    "{ctx}: changed is not the relabelled nodes"
                );
            }
            if eng.variant == GhsVariant::Original {
                let topo = net.topology_at(eng.radius).expect("cached by discover");
                check_rejects(eng, topo, net, hello_round, &ctx);
            }
            let passive_after = eng.passive_fragments();
            for &p in &passive_before {
                assert!(
                    passive_after.contains(&p),
                    "{ctx}: passive {p} lost its id or flag"
                );
                // Node `g` was in fragment `g` before the phase.
                let absorbed = live_before
                    .iter()
                    .filter(|&&g| g as usize != p && eng.frag_of(g as usize) == p)
                    .count();
                most_absorbed = most_absorbed.max(absorbed);
            }
            if eng.retries.is_none() {
                if merged == 0 {
                    break;
                }
            } else if merged > 0 || eng.healed_last_phase > 0 {
                barren = 0;
            } else {
                barren += 1;
                if barren == GhsEngine::DEFAULT_PATIENCE {
                    break;
                }
            }
        }
        most_absorbed
    }

    fn kruskal_tree(points: &[Point], radius: f64) -> SpanningTree {
        SpanningTree::new(
            points.len(),
            kruskal_forest(&Graph::geometric(points, radius)),
        )
    }

    #[test]
    fn merge_arena_invariants_hold_after_every_phase() {
        use crate::EoptConfig;
        let n = 400;
        let kinds = GhsKinds::for_scope("ghs");
        let mut giant_absorbed = Vec::new();
        for seed in 0..4 {
            let pts = uniform_points(n, &mut trial_rng(114, seed));
            let r = paper_phase2_radius(n);
            let reference = kruskal_tree(&pts, r);

            // Every variant from singletons.
            for variant in [
                GhsVariant::Original,
                GhsVariant::Modified,
                GhsVariant::LowAwake,
            ] {
                let mut net = RadioNet::new(&pts, r);
                if variant == GhsVariant::LowAwake {
                    net.track_awake();
                }
                let mut eng = GhsEngine::new(&net, variant);
                eng.discover(&mut net, r, kinds);
                phases_checked(
                    &mut eng,
                    &mut net,
                    kinds,
                    &format!("seed {seed}, {variant:?}"),
                );
                assert!(
                    eng.tree().same_edges(&reference),
                    "seed {seed}, {variant:?}"
                );
                assert_eq!(
                    net.ledger().kind("ghs/test").messages > 0,
                    variant == GhsVariant::Original,
                    "seed {seed}, {variant:?}: only the original variant tests"
                );
                assert!(
                    eng.rejected.is_empty(),
                    "seed {seed}, {variant:?}: a run without a plan keeps a reject slab"
                );
            }

            // Every variant restricted to a live set (every seventh id
            // departed), against the live subgraph's Kruskal forest.
            let mut members = emst_radio::Membership::all_live(n);
            for u in (seed as usize..n).step_by(7) {
                members.leave(u);
            }
            let live_msf = emst_graph::disk_msf(&pts, r, |u| members.is_live(u));
            for variant in [
                GhsVariant::Original,
                GhsVariant::Modified,
                GhsVariant::LowAwake,
            ] {
                let mut net = RadioNet::new(&pts, r);
                net.set_members(&members);
                if variant == GhsVariant::LowAwake {
                    net.track_awake();
                }
                let mut eng = GhsEngine::new(&net, variant);
                eng.discover(&mut net, r, kinds);
                let ctx = format!("seed {seed}, restricted {variant:?}");
                phases_checked(&mut eng, &mut net, kinds, &ctx);
                assert!(eng.tree().same_edges(&live_msf), "{ctx}");
            }

            // A maintenance epoch over that live set: the live forest
            // minus every fifth edge seeded, its largest fragment passive,
            // rows read from the grid (no topology is cached).
            let seeded: Vec<(usize, usize, f64)> = live_msf
                .edges()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 0)
                .map(|(_, e)| (e.u as usize, e.v as usize, e.w))
                .collect();
            let mut net = RadioNet::new(&pts, r);
            net.set_members(&members);
            let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
            let ctx = format!("seed {seed}, restricted seeded");
            eng.seed_forest(&seeded);
            check_arena(&eng, &format!("{ctx}, seed_forest"));
            let (trunk, _) = eng.largest_fragment().expect("non-empty");
            eng.mark_passive(trunk);
            eng.restore_neighbor_caches(&mut net, r);
            phases_checked(&mut eng, &mut net, kinds, &ctx);
            assert!(net.topology().is_none(), "{ctx}: rows came from a topology");
            assert!(eng.tree().same_edges(&live_msf), "{ctx}");

            // EOPT: step 1, size classification, then step 2 with the
            // passive giant absorbing the small fragments.
            let cfg = EoptConfig::default();
            let (r1, r2) = (cfg.radius1(n), cfg.radius2(n).max(cfg.radius1(n)));
            let (k1, k2) = (GhsKinds::for_scope("eopt1"), GhsKinds::for_scope("eopt2"));
            let mut net = RadioNet::new(&pts, r2);
            let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
            eng.discover(&mut net, r1, k1);
            let ctx = format!("seed {seed}, eopt");
            phases_checked(&mut eng, &mut net, k1, &format!("{ctx} step 1"));
            eng.classify_passive_by_size(&mut net, cfg.giant_threshold(n), k1);
            check_arena(&eng, &format!("{ctx} size"));
            assert!(
                !eng.passive_fragments().is_empty(),
                "{ctx}: no giant declared"
            );
            eng.discover(&mut net, r2, k2);
            giant_absorbed.push(phases_checked(
                &mut eng,
                &mut net,
                k2,
                &format!("{ctx} step 2"),
            ));
            if eng.passive_fragments().len() > 1 {
                eng.clear_passive();
                phases_checked(&mut eng, &mut net, k2, &format!("{ctx} recovery"));
            }
            assert!(eng.tree().same_edges(&kruskal_tree(&pts, r2)), "{ctx}");

            // Maintain/repair start: a seeded forest (the MST minus every
            // fifth edge) with its largest fragment passive.
            let seeded: Vec<(usize, usize, f64)> = reference
                .edges()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 0)
                .map(|(_, e)| (e.u as usize, e.v as usize, e.w))
                .collect();
            let mut net = RadioNet::new(&pts, r);
            let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
            let ctx = format!("seed {seed}, seeded");
            eng.seed_forest(&seeded);
            check_arena(&eng, &format!("{ctx}, seed_forest"));
            let (trunk, _) = eng.largest_fragment().expect("non-empty");
            eng.mark_passive(trunk);
            eng.discover(&mut net, r, kinds);
            phases_checked(&mut eng, &mut net, kinds, &ctx);
            assert_eq!(
                eng.live_fragments(),
                &[trunk as u32],
                "{ctx}: trunk keeps its id"
            );
            assert!(eng.tree().same_edges(&reference), "{ctx}");

            // Lossy fault plans: drops, retries, stale caches — and, at the
            // higher rate, tables asymmetric enough that a fragment marked
            // exhausted is still chosen, and absorbed, by a neighbour.
            for (drop, variant) in [0.2, 0.6]
                .into_iter()
                .flat_map(|p| [(p, GhsVariant::Original), (p, GhsVariant::Modified)])
            {
                let mut net = RadioNet::new(&pts, r);
                net.set_faults(
                    FaultPlan::none()
                        .seed(seed)
                        .drop_probability(drop)
                        .retries(1),
                );
                let mut eng = GhsEngine::new(&net, variant);
                eng.discover(&mut net, r, kinds);
                let ctx = format!("seed {seed}, lossy {drop} {variant:?}");
                phases_checked(&mut eng, &mut net, kinds, &ctx);
            }
        }
        assert!(
            giant_absorbed.iter().all(|&k| k >= 2),
            "a passive giant should absorb several fragments in one phase: {giant_absorbed:?}"
        );

        // The bounded search's tie: fragment {2, 3} searches, {0, 1} is
        // passive, and node 4 is departed so the run is restricted. Nodes 2
        // and 3 have their nearest foreign neighbours, 1 and 0, at the same
        // distance bits, and 3, visited after 2, wins on ids: (w, 0, 3) <
        // (w, 1, 2). So 3 must see an entry at exactly the bound 2 set.
        let pts = [(0.6, 0.55), (0.6, 0.5), (0.5, 0.5), (0.5, 0.55), (0.9, 0.9)]
            .map(|(x, y)| Point::new(x, y));
        let r = 0.2;
        let d = |a: usize, b: usize| pts[a].dist(&pts[b]);
        assert_eq!(d(2, 1).to_bits(), d(3, 0).to_bits());
        let mut members = emst_radio::Membership::all_live(pts.len());
        members.leave(4);
        let live_msf = emst_graph::disk_msf(&pts, r, |u| members.is_live(u));
        for from_topology in [false, true] {
            let mut net = RadioNet::new(&pts, r);
            net.set_members(&members);
            let mut eng = GhsEngine::new(&net, GhsVariant::Modified);
            eng.seed_forest(&[(0, 1, d(0, 1)), (2, 3, d(2, 3))]);
            eng.mark_passive(eng.frag_of(0));
            if from_topology {
                eng.discover(&mut net, r, kinds);
            } else {
                eng.restore_neighbor_caches(&mut net, r);
            }
            let ctx = format!("tie, rows from the topology: {from_topology}");
            phases_checked(&mut eng, &mut net, kinds, &ctx);
            assert!(
                eng.tree().edges().iter().any(|e| (e.u, e.v) == (0, 3)),
                "{ctx}: {:?}",
                eng.tree().edges()
            );
            assert!(eng.tree().same_edges(&live_msf), "{ctx}");
        }
    }

    #[test]
    fn merge_sort_helpers_match_a_comparison_sort() {
        use rand::Rng;
        let mut rng = trial_rng(115, 0);
        let (mut off, mut out) = (Vec::new(), Vec::new());
        // Counting sort is stable and reports bucket bounds.
        let items: Vec<(u32, u32)> = (0..500).map(|i| (rng.gen_range(0..37u32), i)).collect();
        counting_sort(&items, 37, |&(k, _)| k as usize, &mut off, &mut out);
        let mut expected = items.clone();
        expected.sort_by_key(|&(k, _)| k);
        assert_eq!(out, expected);
        for b in 0..37 {
            let bucket = &out[off[b] as usize..off[b + 1] as usize];
            assert!(bucket.iter().all(|&(k, _)| k == b as u32));
        }
    }

    #[test]
    fn deeper_fragments_cost_more_rounds() {
        // A path-like instance (collinear points) yields deep fragment
        // trees; rounds must exceed those of a compact instance of equal
        // size.
        let line: Vec<Point> = (0..60)
            .map(|i| Point::new(0.05 + 0.015 * i as f64, 0.5))
            .collect();
        let blob = uniform_points(60, &mut trial_rng(113, 0));
        let line_out = run(&line, 0.05, GhsVariant::Modified);
        let blob_out = run(&blob, paper_phase2_radius(60), GhsVariant::Modified);
        assert_eq!(line_out.fragments, 1);
        assert!(
            line_out.stats.rounds > blob_out.stats.rounds,
            "line {} vs blob {}",
            line_out.stats.rounds,
            blob_out.stats.rounds
        );
    }
}
