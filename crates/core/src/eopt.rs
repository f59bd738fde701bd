//! EOPT — the paper's energy-optimal two-step distributed MST algorithm
//! (§V).
//!
//! **Step 1.** Every node limits its radius to `r₁ = √(c₁/n)` (percolation
//! regime) and runs modified GHS. By Theorem 5.2 the surviving fragments
//! are, whp, one giant fragment of `Θ(n)` nodes plus small fragments of at
//! most `β·log² n` nodes trapped in small regions. Sending a message costs
//! only `O(1/n)` here, so the `O(n log n)` messages of this step cost
//! `O(log n)` energy in total.
//!
//! **Step 2.** Each fragment computes its size by broadcast/convergecast;
//! fragments above the `β·log² n` threshold declare themselves giant and
//! become *passive* (they only accept connections and keep their fragment
//! id, so their members never announce). All nodes raise their radius to
//! `r₂ = √(c₂·log n/n)` (connectivity regime, Theorem 5.1) and modified
//! GHS resumes on the remaining small fragments — only `O(log log n)`
//! phases whp, because each small region holds `O(log² n)` fragments.
//!
//! The output is the **exact** MST of `G(points, r₂)` — every added edge is
//! a fragment MOE, and the step-1 radius restriction is harmless because a
//! fragment strictly contained in its `G(r₁)`-component has its *global*
//! MOE within distance `r₁` (the cut property at work; see DESIGN.md).
//!
//! Robustness beyond the paper: if more than one fragment crosses the giant
//! threshold (possible at small `n` or an aggressive threshold), two
//! passive fragments could stall without merging. The implementation then
//! runs a *recovery pass* — one more modified-GHS round with passivity
//! cleared — and reports it in the outcome so experiments can count how
//! often the theorem's "unique giant" prediction failed.

use crate::ghs::{GhsEngine, GhsKinds, GhsVariant};
use crate::sim::EoptDetail;
use emst_geom::{paper_phase1_radius, paper_phase2_radius};
use emst_graph::SpanningTree;

/// EOPT parameters. `Default` reproduces §VII: `r₁ = 1.4·√(1/n)`,
/// `r₂ = 1.6·√(ln n/n)`, giant threshold `β·ln² n` with `β = 1`.
#[derive(Debug, Clone, Copy)]
pub struct EoptConfig {
    /// Step-1 radius multiplier `m₁` in `r₁ = m₁·√(1/n)`.
    pub phase1_multiplier: f64,
    /// Step-2 radius multiplier `m₂` in `r₂ = m₂·√(ln n/n)`.
    pub phase2_multiplier: f64,
    /// Giant threshold coefficient `β`: a fragment is giant when its size
    /// exceeds `β·ln² n`.
    pub beta: f64,
}

impl Default for EoptConfig {
    fn default() -> Self {
        EoptConfig::PAPER
    }
}

impl EoptConfig {
    /// The §VII parameters (also the `Default`).
    pub const PAPER: EoptConfig = EoptConfig {
        phase1_multiplier: emst_geom::PAPER_PHASE1_MULTIPLIER,
        phase2_multiplier: emst_geom::PAPER_PHASE2_MULTIPLIER,
        beta: 1.0,
    };

    /// Step-1 radius for `n` nodes.
    pub fn radius1(&self, n: usize) -> f64 {
        paper_phase1_radius(n) * (self.phase1_multiplier / emst_geom::PAPER_PHASE1_MULTIPLIER)
    }

    /// Step-2 radius for `n` nodes.
    pub fn radius2(&self, n: usize) -> f64 {
        paper_phase2_radius(n) * (self.phase2_multiplier / emst_geom::PAPER_PHASE2_MULTIPLIER)
    }

    /// Giant-size threshold for `n` nodes: `β·ln² n` (natural log; the
    /// asymptotic statement is base-independent).
    pub fn giant_threshold(&self, n: usize) -> f64 {
        let l = (n.max(2) as f64).ln();
        self.beta * l * l
    }
}

/// Result of the EOPT stage composition (tree + the [`EoptDetail`]
/// read-outs; stats and stage marks live on the [`crate::ExecEnv`]).
pub(crate) struct EoptRun {
    pub tree: SpanningTree,
    pub detail: EoptDetail,
}

/// EOPT as its §V two-step stage composition against the shared execution
/// environment: percolation-regime GHS (`eopt1/*` stages), size
/// classification, connectivity-regime GHS with passive giants
/// (`eopt2/*`), and the beyond-paper recovery pass when multiple giants
/// stalled (`eopt2/recover`). Per-step energy/message attribution in the
/// returned detail comes from the stage deltas, not from ledger prefix
/// matching.
pub(crate) fn drive(env: &mut crate::ExecEnv<'_>, cfg: &EoptConfig) -> EoptRun {
    let n = env.n();
    // `ln 1 = 0` would degenerate the connectivity radius; clamp the size
    // used for radii so single-node instances still get positive power.
    let r1 = cfg.radius1(n.max(2));
    let r2 = cfg.radius2(n.max(2)).max(r1);
    let k1 = GhsKinds::for_scope("eopt1");
    let k2 = GhsKinds::for_scope("eopt2");
    let marks_from = env.stage_marks().len();
    let mut eng = GhsEngine::new(env.net(), GhsVariant::Modified);
    eng.set_shards(env.shards());

    // Step 1: percolation-regime GHS.
    env.stage(k1.scope, "discover", |net| eng.discover(net, r1, k1));
    let phases_step1 = env.stage(k1.scope, "phases", |net| eng.run_phases(net, k1));
    let fragments_after_step1 = eng.fragment_count();
    let largest_fragment = eng.fragment_sizes().first().copied().unwrap_or(0);

    // Step 2 preamble: size computation and giant declaration.
    let rows = env.stage(k1.scope, "size", |net| {
        eng.classify_passive_by_size(net, cfg.giant_threshold(n.max(2)), k1)
    });
    let giants_declared = rows.iter().filter(|r| r.2).count();

    // Step 2: connectivity-regime GHS with passive giant(s). The hello
    // broadcast doubles as the fresh id announcement at the new radius.
    env.stage(k2.scope, "discover", |net| eng.discover(net, r2, k2));
    let phases_step2 = env.stage(k2.scope, "phases", |net| eng.run_phases(net, k2));

    // Recovery (beyond the paper): multiple passive giants can stall.
    // Its kinds live under `eopt2/recover/` so the recovery cost is
    // separable while still counting toward the `eopt2/` step total.
    let mut recovery_used = false;
    if eng.fragment_count() > 1 && giants_declared > 1 {
        recovery_used = true;
        eng.clear_passive();
        let kr = GhsKinds::for_scope("eopt2/recover");
        env.stage(kr.scope, "phases", |net| eng.run_phases(net, kr));
    }

    // Per-step attribution from the stage deltas this drive recorded:
    // everything under the `eopt1` scope is step 1, the rest (`eopt2`,
    // `eopt2/recover`) is step 2.
    let (mut energy_step1, mut messages_step1) = (0.0f64, 0u64);
    let (mut energy_step2, mut messages_step2) = (0.0f64, 0u64);
    for mark in &env.stage_marks()[marks_from..] {
        if mark.scope == "eopt1" {
            energy_step1 += mark.energy;
            messages_step1 += mark.messages;
        } else {
            energy_step2 += mark.energy;
            messages_step2 += mark.messages;
        }
    }

    EoptRun {
        tree: eng.tree(),
        detail: EoptDetail {
            phases_step1,
            phases_step2,
            fragments_after_step1,
            largest_fragment,
            giants_declared,
            recovery_used,
            energy_step1,
            energy_step2,
            messages_step1,
            messages_step2,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, RunOutput, Sim};
    use emst_geom::{trial_rng, uniform_points, Point};
    use emst_graph::{kruskal_forest, Graph};

    fn run(pts: &[Point]) -> RunOutput {
        Sim::new(pts).run(Protocol::Eopt(EoptConfig::default()))
    }

    fn eopt_of(out: &RunOutput) -> &EoptDetail {
        out.detail.as_eopt().expect("EOPT run")
    }

    #[test]
    fn eopt_builds_exact_mst_of_connectivity_graph() {
        for seed in 0..4 {
            let pts = uniform_points(300, &mut trial_rng(201, seed));
            let out = run(&pts);
            let cfg = EoptConfig::default();
            let g = Graph::geometric(&pts, cfg.radius2(300));
            let reference = SpanningTree::new(300, kruskal_forest(&g));
            assert!(
                out.tree.same_edges(&reference),
                "seed {seed}: EOPT differs from Kruskal"
            );
        }
    }

    #[test]
    fn eopt_matches_euclidean_mst_when_connected() {
        let pts = uniform_points(400, &mut trial_rng(202, 0));
        let out = run(&pts);
        if out.fragments == 1 {
            let emst = emst_graph::euclidean_mst(&pts);
            assert!(out.tree.same_edges(&emst), "EOPT must be the exact MST");
        }
    }

    #[test]
    fn step1_leaves_giant_and_small_fragments() {
        let pts = uniform_points(2000, &mut trial_rng(203, 0));
        let out = run(&pts);
        let d = eopt_of(&out);
        // At c₁ = 1.96 the giant holds a constant fraction of nodes.
        assert!(
            d.largest_fragment > 2000 / 10,
            "giant too small: {}",
            d.largest_fragment
        );
        assert!(d.fragments_after_step1 > 1);
        assert!(d.giants_declared >= 1);
    }

    #[test]
    fn eopt_uses_less_energy_than_ghs() {
        let pts = uniform_points(1500, &mut trial_rng(204, 0));
        let out = run(&pts);
        let ghs = Sim::new(&pts)
            .radius(EoptConfig::default().radius2(1500))
            .run(Protocol::Ghs(GhsVariant::Original));
        assert!(
            out.stats.energy < ghs.stats.energy,
            "EOPT {} vs GHS {}",
            out.stats.energy,
            ghs.stats.energy
        );
    }

    #[test]
    fn energy_attribution_covers_both_steps() {
        let pts = uniform_points(500, &mut trial_rng(205, 0));
        let out = run(&pts);
        let e1 = out.stats.ledger.energy_with_prefix("eopt1/");
        let e2 = out.stats.ledger.energy_with_prefix("eopt2/");
        assert!(e1 > 0.0 && e2 > 0.0);
        assert!((e1 + e2 - out.stats.energy).abs() < 1e-9);
        // Step-1 messages are cheap: mean energy per message far below the
        // step-2 mean (r₁² ≪ r₂²).
        let m1 = out.stats.ledger.messages_with_prefix("eopt1/") as f64;
        let m2 = out.stats.ledger.messages_with_prefix("eopt2/") as f64;
        assert!(e1 / m1 < e2 / m2);
    }

    #[test]
    fn stage_attribution_matches_ledger_prefixes() {
        let pts = uniform_points(400, &mut trial_rng(207, 0));
        let out = run(&pts);
        let d = eopt_of(&out);
        // The per-step fields derive from stage deltas; the ledger derives
        // from per-message kind accounting. They must agree exactly.
        let e1 = out.stats.ledger.energy_with_prefix("eopt1/");
        let e2 = out.stats.ledger.energy_with_prefix("eopt2/");
        assert!((d.energy_step1 - e1).abs() < 1e-9);
        assert!((d.energy_step2 - e2).abs() < 1e-9);
        assert_eq!(
            d.messages_step1,
            out.stats.ledger.messages_with_prefix("eopt1/")
        );
        assert_eq!(
            d.messages_step2,
            out.stats.ledger.messages_with_prefix("eopt2/")
        );
        assert_eq!(d.messages_step1 + d.messages_step2, out.stats.messages);
    }

    #[test]
    fn tiny_instances() {
        for n in [1usize, 2, 3, 5] {
            let pts = uniform_points(n, &mut trial_rng(206, n as u64));
            let out = run(&pts);
            // At tiny n the graph may be disconnected; the tree must still
            // be a valid forest (edge count n − fragments).
            assert_eq!(out.tree.edges().len(), n - out.fragments, "n = {n}");
        }
    }

    #[test]
    fn config_radii_scale_correctly() {
        let cfg = EoptConfig {
            phase1_multiplier: 2.8,
            phase2_multiplier: 3.2,
            beta: 2.0,
        };
        let n = 100;
        assert!((cfg.radius1(n) - 2.8 * (1.0 / 100.0f64).sqrt()).abs() < 1e-12);
        assert!((cfg.radius2(n) - 3.2 * ((100.0f64).ln() / 100.0).sqrt()).abs() < 1e-12);
        let l = (100f64).ln();
        assert!((cfg.giant_threshold(n) - 2.0 * l * l).abs() < 1e-12);
    }
}
