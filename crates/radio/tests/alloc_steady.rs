//! Steady-state allocation discipline of the round engine.
//!
//! The engine's per-round hot path runs out of pooled buffers (outbox,
//! inbox views, retry drain) that grow during the first few rounds and
//! are then recycled, so a long run must not touch the allocator at all
//! once warm — that guarantee is what keeps large-n runs flat, and it is
//! easy to break silently (a `collect()` in the delivery loop, a map
//! rebuilt per round). This test pins it with a counting global
//! allocator: run a message-heavy protocol for a warm-up window, arm the
//! counter, run on, and require zero allocations.
//!
//! The counter is armed only around the measured `step()` calls, and only
//! on the test's own thread: the engine is single-threaded, while the test
//! harness runs threads of its own whose allocations must not count. The
//! protocol payload is `Copy`, so the only possible hits are the engine's
//! own.

use emst_geom::{uniform_points, Point};
use emst_radio::{Ctx, Delivery, NodeProtocol, RadioNet, SyncEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations count. Const-initialised and
    /// destructor-free, so reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation if the calling thread is armed.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every node unicasts a counter to its successor each round and
/// broadcasts at a short radius every fourth round — enough traffic to
/// exercise both transmission paths and the delivery fan-out.
struct Chatter {
    me: usize,
    n: usize,
    radius: f64,
    seen: u64,
    rounds: u64,
    limit: u64,
}

impl NodeProtocol for Chatter {
    type Msg = u64;

    fn on_round(&mut self, inbox: &[Delivery<u64>], ctx: &mut Ctx<'_, u64>) {
        self.seen += inbox.len() as u64;
        self.rounds += 1;
        ctx.unicast((self.me + 1) % self.n, "alloc/ring", self.seen);
        if self.rounds.is_multiple_of(4) {
            ctx.broadcast(self.radius, "alloc/burst", self.rounds);
        }
    }

    fn done(&self) -> bool {
        self.rounds >= self.limit
    }
}

#[test]
fn engine_steady_state_allocates_nothing() {
    let mut rng = emst_geom::trial_rng(4242, 0);
    let pts: Vec<Point> = uniform_points(200, &mut rng);
    let radius = emst_geom::paper_phase2_radius(pts.len());
    let net = RadioNet::new(&pts, radius);
    let n = pts.len();
    let nodes: Vec<Chatter> = (0..n)
        .map(|me| Chatter {
            me,
            n,
            radius: radius / 2.0,
            seen: 0,
            rounds: 0,
            limit: 10_000,
        })
        .collect();
    let mut engine = SyncEngine::new(net, nodes);

    // Warm-up: pools grow to their high-water marks (both message kinds
    // appear in the ledger, every broadcast cell is materialised).
    for _ in 0..32 {
        assert!(engine.step(), "protocol terminated during warm-up");
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    for _ in 0..256 {
        assert!(engine.step(), "protocol terminated during measurement");
    }
    ARMED.with(|armed| armed.set(false));

    let hits = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        hits, 0,
        "engine hot path allocated {hits} times across 256 warm rounds — \
         a per-round allocation crept in"
    );
}
