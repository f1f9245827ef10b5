//! The multilevel partitioning algorithm — the paper's contribution.
//!
//! Three phases, each in its own module:
//!
//! 1. [`mod@coarsen`] — fanout coarsening from the primary inputs produces the
//!    hierarchical graph sequence `G0 … Gm` (concurrency phase);
//! 2. [`initial`] — a balanced k-way partition of the coarsest graph
//!    (load-balance phase);
//! 3. [`refine`] — greedy k-way refinement applied at every level while
//!    projecting the partition back to `G0` (communication phase).
//!
//! The decoupling of concurrency, load balance and communication into
//! separate phases is the design argument of the paper's Section 3.
//!
//! Cost per level, with `pins = N_V + N_E` of that level's graph: a
//! coarsening round is one DFS plus one sort of the surviving edges,
//! `O(pins + N_E log N_E)`; a refinement pass is `O(k·pins)` at worst
//! and `O(k·N_V + N_E)` plus the boundary's share of that in practice
//! (see [`refine`]), with at most `max_iters` passes. For a fixed `k`
//! nothing grows faster than the graph — in particular not with the
//! square of a net's size — and the number of levels is bounded
//! (`max_levels`), which is what makes this the "fast linear time
//! heuristic" of Section 1: measured at ~0.6–1.0 µs per pin from 1k to
//! 100k gates (`cargo bench --bench partitioners`, `multilevel_scaling`).

pub mod coarsen;
pub mod initial;
pub mod refine;
pub mod schemes;

use crate::graph::CircuitGraph;
use crate::partitioning::Partitioning;
use crate::Partitioner;
use coarsen::{coarsen, CoarsenConfig};
use refine::{greedy_refine, rebalance, GreedyConfig, RefineStats};
use schemes::{coarsen_matching, CoarsenScheme};

/// Configuration of the full multilevel pipeline. The coarsening
/// threshold is [`CoarsenConfig::for_k`]'s and the refiner runs with
/// [`GreedyConfig::default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MultilevelConfig {
    /// Coarsening scheme (the paper's fanout scheme by default; matching
    /// variants for the ablation study).
    pub scheme: CoarsenScheme,
}

/// The multilevel partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultilevelPartitioner {
    /// Pipeline configuration.
    pub config: MultilevelConfig,
}

/// Detailed result of a multilevel run, for analysis and benches.
#[derive(Debug, Clone)]
pub struct MultilevelReport {
    /// The final partitioning of `G0`.
    pub partitioning: Partitioning,
    /// Vertex counts of `G0 … Gm`.
    pub level_sizes: Vec<usize>,
    /// Refinement statistics per level, coarsest first.
    pub refine_stats: Vec<RefineStats>,
}

impl MultilevelPartitioner {
    /// Run the pipeline and keep per-phase statistics.
    pub fn partition_with_report(&self, g: &CircuitGraph, k: usize, seed: u64) -> MultilevelReport {
        let ccfg = CoarsenConfig::for_k(k);
        let gcfg = GreedyConfig::default();

        // Phase 1: coarsen.
        let hierarchy = match self.config.scheme {
            CoarsenScheme::Fanout => coarsen(g, &ccfg),
            scheme => coarsen_matching(g, scheme, &ccfg, seed),
        };
        let mut level_sizes = vec![g.len()];
        level_sizes.extend(hierarchy.iter().map(|l| l.graph.len()));

        // Phase 2: initial partition at the coarsest level.
        let coarsest: &CircuitGraph = hierarchy.last().map(|l| &l.graph).unwrap_or(g);
        let mut p = initial::initial_partition(coarsest, k, seed);

        // Phase 3: refine at the coarsest level, then project level by
        // level back to G0, refining at each intermediate level
        // (paper Figure 2).
        let mut refine_stats = Vec::with_capacity(hierarchy.len() + 1);
        rebalance(coarsest, &mut p, gcfg.balance_eps, seed);
        refine_stats.push(greedy_refine(coarsest, &mut p, &gcfg, seed));

        for (idx, level) in hierarchy.iter().enumerate().rev() {
            // Project to the next finer graph: fine vertex v belongs to the
            // partition of its globule (∀ v ∈ V_ij : P[v] = P[V_ij]).
            p = p.project(&level.map);
            let fine_graph: &CircuitGraph = if idx == 0 { g } else { &hierarchy[idx - 1].graph };
            rebalance(fine_graph, &mut p, gcfg.balance_eps, seed ^ idx as u64);
            refine_stats.push(greedy_refine(fine_graph, &mut p, &gcfg, seed ^ idx as u64));
        }

        debug_assert!(p.is_valid_for(g));
        MultilevelReport { partitioning: p, level_sizes, refine_stats }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> &'static str {
        "Multilevel"
    }

    fn partition(&self, g: &CircuitGraph, k: usize, seed: u64) -> Partitioning {
        self.partition_with_report(g, k, seed).partitioning
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{RandomPartitioner, TopologicalPartitioner};
    use crate::metrics::{concurrency, edge_cut, imbalance};
    use pls_netlist::IscasSynth;

    fn g0(gates: usize, seed: u64) -> CircuitGraph {
        CircuitGraph::from_netlist(&IscasSynth::small(gates, seed).build())
    }

    #[test]
    fn produces_valid_balanced_partitions() {
        let g = g0(500, 1);
        for k in [2, 4, 8] {
            let p = MultilevelPartitioner::default().partition(&g, k, 0);
            assert!(p.is_valid_for(&g));
            assert!(p.sizes().iter().all(|&s| s > 0), "empty partition at k={k}");
            assert!(imbalance(&g, &p) <= 1.12, "imbalance {} at k={k}", imbalance(&g, &p));
        }
    }

    #[test]
    fn beats_random_on_cut() {
        let g = g0(600, 2);
        let ml = MultilevelPartitioner::default().partition(&g, 8, 0);
        let rand = RandomPartitioner.partition(&g, 8, 0);
        assert!(
            edge_cut(&g, &ml) < edge_cut(&g, &rand) / 2,
            "multilevel cut {} should be far below random {}",
            edge_cut(&g, &ml),
            edge_cut(&g, &rand)
        );
    }

    #[test]
    fn beats_topological_on_cut() {
        let g = g0(600, 3);
        let ml = MultilevelPartitioner::default().partition(&g, 8, 0);
        let topo = TopologicalPartitioner.partition(&g, 8, 0);
        assert!(edge_cut(&g, &ml) < edge_cut(&g, &topo));
    }

    #[test]
    fn keeps_reasonable_concurrency() {
        // The design claim: multilevel balances cut *and* concurrency.
        let g = g0(600, 4);
        let ml = MultilevelPartitioner::default().partition(&g, 4, 0);
        let c = concurrency(&g, &ml);
        assert!(c > 0.4, "concurrency {c} too low — input cones were not separated");
    }

    #[test]
    fn report_shows_shrinking_levels_and_improving_cut() {
        let g = g0(800, 5);
        let rep = MultilevelPartitioner::default().partition_with_report(&g, 4, 0);
        assert!(rep.level_sizes.len() >= 2, "expected at least one coarse level");
        assert!(rep.level_sizes.windows(2).all(|w| w[1] < w[0]));
        for rs in &rep.refine_stats {
            assert!(rs.cut_after <= rs.cut_before);
        }
    }

    #[test]
    fn works_when_graph_already_tiny() {
        let g = g0(30, 6);
        let p = MultilevelPartitioner::default().partition(&g, 2, 0);
        assert!(p.is_valid_for(&g));
        assert!(p.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn deterministic_for_seed() {
        let g = g0(400, 7);
        let a = MultilevelPartitioner::default().partition(&g, 4, 11);
        let b = MultilevelPartitioner::default().partition(&g, 4, 11);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn scales_to_paper_benchmarks() {
        let n = IscasSynth::s9234().build();
        let g = CircuitGraph::from_netlist(&n);
        let p = MultilevelPartitioner::default().partition(&g, 8, 0);
        assert!(p.is_valid_for(&g));
        assert!(imbalance(&g, &p) <= 1.12);
    }
}
