//! Distributed leader election — the problem the paper's lower bound is
//! really about.
//!
//! Section IV derives the `Ω(log n)` energy bound from Korach, Moran and
//! Zaks' message lower bound for *leader election / spanning tree
//! construction*, the two being classically equivalent. Two elections are
//! implemented over the radio model:
//!
//! * [`Protocol::ElectionFlood`](crate::Protocol::ElectionFlood) — the
//!   folklore max-id flood: every node repeatedly broadcasts the largest
//!   id it has heard whenever that value improves. Simple, `O(diameter)`
//!   time, but a node may re-announce up to `O(log n)` times in
//!   expectation (each improvement halves the candidates that could beat
//!   it), so the energy is `Θ(log² n)`-ish at the connectivity radius —
//!   the same class as plain GHS.
//! * [`Protocol::ElectionTree`](crate::Protocol::ElectionTree) — election
//!   along a BFS spanning tree: build the flooding tree
//!   ([`crate::bfs_tree`]), convergecast the maximum id to the root, and
//!   broadcast the winner back down. Exactly `n + 2(n−1)` messages and
//!   `Θ(log n)` energy — matching the Theorem 4.1 lower bound, and a
//!   concrete witness that the spanning-tree ↔ election equivalence
//!   preserves energy optimality.
//!
//! Both run through the shared [`crate::ExecEnv`], so they honour the
//! configured energy model, fault plan, contention layer and trace sink
//! like every other protocol (historically they silently ignored all
//! four).

use crate::sim::RunError;
use emst_graph::SpanningTree;
use emst_radio::{Ctx, Delivery, NodeProtocol};

/// Max-id flooding node.
#[derive(Debug)]
struct FloodElect {
    radius: f64,
    best: usize,
    announced: Option<usize>,
}

impl NodeProtocol for FloodElect {
    type Msg = usize;

    fn on_round(&mut self, inbox: &[Delivery<usize>], ctx: &mut Ctx<'_, usize>) {
        for d in inbox {
            self.best = self.best.max(d.msg);
        }
        if self.announced != Some(self.best) {
            self.announced = Some(self.best);
            ctx.broadcast(self.radius, "elect/flood", self.best);
        }
    }

    fn done(&self) -> bool {
        self.announced == Some(self.best)
    }
}

/// Result of a leader election (leader/agreement read-outs plus the tree
/// the election ran over: empty forest for the flood, the BFS tree for the
/// tree election; stats live on the [`crate::ExecEnv`]).
pub(crate) struct ElectionRun {
    pub tree: SpanningTree,
    pub leader: usize,
    pub agreed: bool,
}

/// Leader election by max-id flooding at `radius`, as a single reactive
/// stage against the shared execution environment.
pub(crate) fn drive_flood(
    env: &mut crate::ExecEnv<'_>,
    radius: f64,
) -> Result<ElectionRun, RunError> {
    let n = env.n();
    env.cache_topology(radius);
    let nodes: Vec<FloodElect> = (0..n)
        .map(|i| FloodElect {
            radius,
            best: i,
            announced: None,
        })
        .collect();
    // Logical round budget; under faults each re-announcement wave can be
    // stretched by the retry budget.
    let mut budget = 4 * n as u64 + 16;
    if env.faulted() {
        budget += n as u64 * env.retry_slack() + 8;
    }
    // A flood starved by losses still yields a (possibly disagreeing)
    // per-node view: tolerate the round-limit overrun under faults.
    let nodes = env.run_nodes_tolerant("elect", "flood", nodes, budget)?;
    // Departed nodes never run, and a node crashed before the flood
    // reaches it stops hearing it: both keep a stale `best`. The leader
    // and the agreement are taken over the nodes still up at the last
    // round only.
    let up = running_at_end(env);
    let present = || {
        nodes
            .iter()
            .zip(&up)
            .filter(|&(_, &up)| up)
            .map(|(e, _)| e.best)
    };
    let leader = present().max().unwrap_or(0);
    let agreed = present().all(|best| best == leader);
    Ok(ElectionRun {
        tree: SpanningTree::new(n, Vec::new()),
        leader,
        agreed,
    })
}

/// Per node: neither departed nor crashed at the network's current round
/// (the run's last, once it has finished).
fn running_at_end(env: &crate::ExecEnv<'_>) -> Vec<bool> {
    let net = env.net();
    let round = net.clock().now();
    (0..env.n())
        .map(|u| !net.departed(u) && !net.crashed(u, round))
        .collect()
}

/// Leader election along a BFS spanning tree: one flood to build the tree
/// (`n` broadcasts), a convergecast of the maximum id (`n−1` unicasts),
/// and a winner broadcast down the tree (`n−1` unicasts) — both tree legs
/// as one orchestrated stage on the same shared network.
pub(crate) fn drive_tree(
    env: &mut crate::ExecEnv<'_>,
    radius: f64,
) -> Result<ElectionRun, RunError> {
    let n = env.n();
    let bfs = crate::bfs_tree::drive(env, radius, 0)?;
    let tree = bfs.tree;
    let adj = tree.adjacency();
    // Orientation: parent via BFS from the root.
    let mut parent = vec![usize::MAX; n];
    parent[0] = 0;
    let mut order = vec![0usize];
    let mut qi = 0;
    while qi < order.len() {
        let u = order[qi];
        qi += 1;
        for &v in &adj[u] {
            if parent[v] == usize::MAX {
                parent[v] = u;
                order.push(v);
            }
        }
    }
    let mut submax: Vec<usize> = (0..n).collect();
    let leader = env.stage("elect", "convergecast", |net| {
        // Convergecast (leaf → root): each non-root reports its subtree
        // max.
        for &u in order.iter().rev() {
            if parent[u] != u && parent[u] != usize::MAX {
                net.unicast(u, parent[u], "elect/convergecast");
                let p = parent[u];
                submax[p] = submax[p].max(submax[u]);
            }
        }
        let leader = submax[0];
        // Winner broadcast (root → leaves).
        for &u in &order {
            if parent[u] != u && parent[u] != usize::MAX {
                net.unicast(parent[u], u, "elect/winner");
            }
        }
        net.advance_rounds(2 * tree.depth_from(0) as u64);
        leader
    });
    // Agreement holds when the tree reaches every node still up at the
    // last round; departed nodes never join it, and a node that crashed
    // takes no part in the outcome whether it joined or not.
    let agreed = running_at_end(env)
        .iter()
        .zip(&parent)
        .all(|(&up, &p)| !up || p != usize::MAX);
    Ok(ElectionRun {
        tree,
        leader,
        agreed,
    })
}

#[cfg(test)]
mod tests {
    use crate::{ElectionDetail, Protocol, RunOutput, Sim};
    use emst_geom::{paper_phase2_radius, trial_rng, uniform_points, Point};
    use emst_radio::{FaultPlan, Membership};

    fn flood(pts: &[Point], r: f64) -> RunOutput {
        Sim::new(pts).radius(r).run(Protocol::ElectionFlood)
    }

    fn tree(pts: &[Point], r: f64) -> RunOutput {
        Sim::new(pts).radius(r).run(Protocol::ElectionTree)
    }

    fn election(out: &RunOutput) -> &ElectionDetail {
        out.detail.as_election().expect("election run")
    }

    #[test]
    fn flood_elects_global_max() {
        let n = 300;
        let pts = uniform_points(n, &mut trial_rng(1001, 0));
        let out = flood(&pts, paper_phase2_radius(n));
        assert_eq!(election(&out).leader, n - 1);
        assert!(election(&out).agreed);
        assert!(out.stats.messages >= n as u64);
    }

    #[test]
    fn tree_elects_global_max_with_exact_message_count() {
        let n = 300;
        let pts = uniform_points(n, &mut trial_rng(1002, 0));
        let out = tree(&pts, paper_phase2_radius(n));
        assert_eq!(election(&out).leader, n - 1);
        assert!(election(&out).agreed);
        // n tree broadcasts + (n−1) up + (n−1) down.
        assert_eq!(out.stats.messages, (n + 2 * (n - 1)) as u64);
        // The tree the election ran over is the BFS tree itself.
        assert_eq!(out.tree.edges().len(), n - 1);
    }

    #[test]
    fn tree_election_is_cheaper_than_flooding() {
        let n = 800;
        let pts = uniform_points(n, &mut trial_rng(1003, 0));
        let r = paper_phase2_radius(n);
        let f = flood(&pts, r);
        let t = tree(&pts, r);
        assert_eq!(election(&f).leader, election(&t).leader);
        assert!(
            t.stats.energy < f.stats.energy,
            "tree {} vs flood {}",
            t.stats.energy,
            f.stats.energy
        );
    }

    #[test]
    fn disconnected_instance_elects_component_leader() {
        let pts = vec![
            Point::new(0.1, 0.1),
            Point::new(0.12, 0.1),
            Point::new(0.9, 0.9),
        ];
        let out = flood(&pts, 0.1);
        // Node 2 never hears 0/1 and stays its own leader.
        assert!(!election(&out).agreed);
        assert_eq!(election(&out).leader, 2);
        let t = tree(&pts, 0.1);
        assert!(!election(&t).agreed);
        assert_eq!(election(&t).leader, 1, "root component max id");
    }

    #[test]
    fn departed_nodes_neither_lead_nor_block_agreement() {
        let n = 200;
        let pts = uniform_points(n, &mut trial_rng(1001, 0));
        let mut members = Membership::all_live(n);
        members.leave(199);
        members.leave(17);
        for protocol in [Protocol::ElectionFlood, Protocol::ElectionTree] {
            let out = Sim::new(&pts)
                .radius(paper_phase2_radius(n))
                .members(members.clone())
                .run(protocol);
            let detail = election(&out);
            assert_eq!(detail.leader, 198, "{protocol:?}");
            assert!(detail.agreed, "{protocol:?}");
        }
    }

    #[test]
    fn nodes_crashed_before_the_flood_do_not_block_agreement() {
        // Node 17 (not the maximum) is down from round 0: it never hears
        // the flood nor joins the tree, and keeps its own id.
        let n = 200;
        let pts = uniform_points(n, &mut trial_rng(1001, 0));
        for protocol in [Protocol::ElectionFlood, Protocol::ElectionTree] {
            let out = Sim::new(&pts)
                .radius(paper_phase2_radius(n))
                .with_faults(FaultPlan::none().crash_at(17, 0))
                .run(protocol);
            let detail = election(&out);
            assert_eq!(detail.leader, n - 1, "{protocol:?}");
            assert!(detail.agreed, "{protocol:?}");
        }
    }

    #[test]
    fn single_node_elects_itself() {
        let pts = vec![Point::new(0.5, 0.5)];
        let out = flood(&pts, 0.2);
        assert_eq!(election(&out).leader, 0);
        assert!(election(&out).agreed);
    }

    #[test]
    fn lossy_fault_plan_changes_election_stats() {
        // Regression: elections used to build a bare `RadioNet::new` that
        // silently ignored the configured fault plan (and energy model).
        // Through the shared env a lossy plan must visibly perturb the run.
        let n = 200;
        let pts = uniform_points(n, &mut trial_rng(1005, 0));
        let r = paper_phase2_radius(n);
        let clean = flood(&pts, r);
        let plan = FaultPlan::none().drop_probability(0.2).seed(11).retries(2);
        let outcome = Sim::new(&pts)
            .radius(r)
            .with_faults(plan)
            .try_run(Protocol::ElectionFlood);
        let faults = outcome.faults();
        assert!(faults.drops > 0, "lossy plan must actually drop messages");
        let out = outcome
            .output()
            .expect("lossy flood still yields per-node views")
            .clone();
        assert!(
            out.stats.messages != clean.stats.messages
                || out.stats.energy != clean.stats.energy
                || out.stats.rounds != clean.stats.rounds,
            "fault plan left no trace on election stats"
        );
    }
}
