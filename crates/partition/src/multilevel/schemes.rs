//! Alternative coarsening schemes — the paper's §6 names "different
//! schemes for coarsening" as ongoing work; these are the two standard
//! comparators from the multilevel literature \[8, 12\], used by the
//! `coarsening` ablation bench.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::{CircuitGraph, VertexId};
use crate::multilevel::coarsen::{coarsen_with, contract, CoarseLevel, CoarsenConfig, UNGROUPED};

/// Which pairing rule one coarsening round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoarsenScheme {
    /// The paper's scheme: depth-first from the primary inputs, merging a
    /// vertex with the readers on its fanout (implemented in
    /// [`fn@crate::multilevel::coarsen::coarsen`]).
    #[default]
    Fanout,
    /// Heavy-edge matching (Karypis–Kumar \[12\]): visit vertices in random
    /// order, match each with its unmatched neighbour across the heaviest
    /// edge.
    HeavyEdge,
    /// Random matching (Hendrickson–Leland \[8\] baseline): visit vertices
    /// in random order, match each with a random unmatched neighbour.
    Random,
}

/// Run one matching-based coarsening round (HeavyEdge or Random). Returns
/// `None` when no merge happened (coarsening has converged).
pub fn matching_round(
    g: &CircuitGraph,
    scheme: CoarsenScheme,
    cfg: &CoarsenConfig,
    seed: u64,
) -> Option<CoarseLevel> {
    assert_ne!(scheme, CoarsenScheme::Fanout, "Fanout uses coarsen_round");
    let n = g.len();
    let cap = ((g.total_weight() as f64 / cfg.k as f64) * cfg.max_globule_frac).ceil() as u64;
    let cap = cap.max(2);

    let mut group_of = vec![UNGROUPED; n];
    let mut groups = 0u32;
    let mut any_merge = false;

    let mut order: Vec<VertexId> = g.vertices().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    for &v in &order {
        if group_of[v as usize] != UNGROUPED {
            continue;
        }
        // Candidate partners: unmatched neighbours, obeying the input
        // constraint and the weight cap.
        let candidates = g.neighbors(v).filter(|&(w, _)| {
            group_of[w as usize] == UNGROUPED
                && w != v
                && !(g.is_input(v) && g.is_input(w))
                && g.vweight(v) + g.vweight(w) <= cap
        });
        let partner = match scheme {
            CoarsenScheme::HeavyEdge => {
                // Hyperedge-aware rating: beyond raw edge weight, prefer a
                // partner whose merge *absorbs* a whole driver net (the
                // net's only reader is the other endpoint) — absorbed nets
                // can never be cut at coarser levels, which is what the
                // λ−1 objective rewards. The paper's Fanout scheme gets
                // this for free by contracting entire fanout sets.
                candidates
                    .max_by_key(|&(w, ew)| {
                        let absorbs = (g.fanout(v).len() == 1
                            && g.fanout(v).first().is_some_and(|&(r, _)| r == w))
                            || (g.fanout(w).len() == 1
                                && g.fanout(w).first().is_some_and(|&(r, _)| r == v));
                        (ew + absorbs as u64, std::cmp::Reverse(w))
                    })
                    .map(|(w, _)| w)
            }
            CoarsenScheme::Random => {
                let all: Vec<VertexId> = candidates.map(|(w, _)| w).collect();
                if all.is_empty() {
                    None
                } else {
                    Some(all[rng.gen_range_idx(all.len())])
                }
            }
            CoarsenScheme::Fanout => unreachable!(),
        };
        let gid = groups;
        groups += 1;
        group_of[v as usize] = gid;
        if let Some(w) = partner {
            group_of[w as usize] = gid;
            any_merge = true;
        }
    }

    any_merge.then(|| contract(g, group_of, groups as usize))
}

/// Tiny deterministic index sampler (avoids importing `Rng` just for one
/// call site; `StdRng` already provides the entropy).
trait GenRangeIdx {
    fn gen_range_idx(&mut self, n: usize) -> usize;
}
impl GenRangeIdx for StdRng {
    fn gen_range_idx(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.gen_range(0..n)
    }
}

/// Run the full matching-based coarsening loop (analog of
/// [`crate::multilevel::coarsen::coarsen`] for the ablation schemes).
pub fn coarsen_matching(
    g0: &CircuitGraph,
    scheme: CoarsenScheme,
    cfg: &CoarsenConfig,
    seed: u64,
) -> Vec<CoarseLevel> {
    coarsen_with(g0, cfg, |g, levels| matching_round(g, scheme, cfg, seed ^ levels.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_netlist::IscasSynth;

    fn g0(gates: usize, seed: u64) -> CircuitGraph {
        CircuitGraph::from_netlist(&IscasSynth::small(gates, seed).build())
    }

    #[test]
    fn heavy_edge_shrinks_and_preserves_weight() {
        let g = g0(400, 1);
        let levels = coarsen_matching(&g, CoarsenScheme::HeavyEdge, &CoarsenConfig::for_k(4), 0);
        assert!(!levels.is_empty());
        let mut prev = g.len();
        for l in &levels {
            assert!(l.graph.len() < prev);
            assert_eq!(l.graph.total_weight(), g.total_weight());
            prev = l.graph.len();
        }
    }

    #[test]
    fn random_matching_shrinks() {
        let g = g0(400, 2);
        let levels = coarsen_matching(&g, CoarsenScheme::Random, &CoarsenConfig::for_k(4), 0);
        assert!(!levels.is_empty());
        assert!(levels.last().unwrap().graph.len() < g.len() / 2);
    }

    #[test]
    fn matching_halves_at_best_per_round() {
        // A matching merges at most pairs, so each round shrinks by ≤ 2×.
        let g = g0(300, 3);
        let levels = coarsen_matching(&g, CoarsenScheme::HeavyEdge, &CoarsenConfig::for_k(2), 0);
        let mut prev = g.len();
        for l in &levels {
            assert!(l.graph.len() * 2 >= prev, "matching cannot shrink more than 2x");
            prev = l.graph.len();
        }
    }

    #[test]
    fn inputs_never_match_together() {
        let g = g0(300, 4);
        for scheme in [CoarsenScheme::HeavyEdge, CoarsenScheme::Random] {
            let levels = coarsen_matching(&g, scheme, &CoarsenConfig::for_k(4), 0);
            let mut graph = g.clone();
            for l in &levels {
                let mut inputs_in = vec![0usize; l.graph.len()];
                for v in graph.vertices() {
                    if graph.is_input(v) {
                        inputs_in[l.map[v as usize] as usize] += 1;
                    }
                }
                assert!(inputs_in.iter().all(|&c| c <= 1), "{scheme:?} merged inputs");
                graph = l.graph.clone();
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = g0(300, 5);
        let a = coarsen_matching(&g, CoarsenScheme::HeavyEdge, &CoarsenConfig::for_k(4), 9);
        let b = coarsen_matching(&g, CoarsenScheme::HeavyEdge, &CoarsenConfig::for_k(4), 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.map, y.map);
        }
    }
}
