//! Coarsening phase of the multilevel algorithm (paper §3, Figure 1).
//!
//! Produces the hierarchical sequence `G0, G1, …, Gm`: each round combines
//! sets of connected vertices ("globules") into single vertices of the next
//! graph using the *fanout scheme* — coarsening starts from the primary
//! input vertices, proceeds depth-first, and a chosen vertex is combined
//! with the vertices on its fanout. Constraints from the paper:
//!
//! * a vertex is coarsened at most once per level;
//! * two globules that both contain a primary input are never combined
//!   (this preserves concurrency — input cones stay separable);
//! * rounds after the first start from the vertices that were just added
//!   to a globule in the previous round (extending linear chains);
//! * coarsening halts when the number of globules falls below a threshold
//!   or when no further combination is possible.
//!
//! One practical constraint is added on top of the paper's description: a
//! globule's weight is capped so that no single coarse vertex can exceed a
//! fraction of a partition, protecting the load balance the later phases
//! must deliver (without a cap, a high-fanout net would swallow thousands
//! of gates into one unsplittable vertex).

use crate::graph::{CircuitGraph, VertexId};

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarse graph `G_{i+1}`.
    pub graph: CircuitGraph,
    /// Map from each vertex of the finer graph `G_i` to its globule in
    /// `G_{i+1}`.
    pub map: Vec<u32>,
    /// Seed hints for the next round: coarse vertices formed by an actual
    /// merge (paper: coarsening "starts from vertices that were just added
    /// to a globule in the previous level").
    pub merged: Vec<bool>,
}

/// Configuration of the coarsening phase.
#[derive(Debug, Clone, Copy)]
pub struct CoarsenConfig {
    /// Stop when the coarse graph has at most this many vertices.
    pub threshold: usize,
    /// Hard cap on rounds (safety valve; the threshold normally triggers
    /// first).
    pub max_levels: usize,
    /// Maximum globule weight as a fraction of `total_weight / k`; `0.25`
    /// means no globule may exceed a quarter of an average partition.
    pub max_globule_frac: f64,
    /// The `k` the final partitioning will use (for the weight cap).
    pub k: usize,
}

impl CoarsenConfig {
    /// Defaults matched to the paper's setting: coarsen until ~max(64, 8k)
    /// globules remain.
    pub fn for_k(k: usize) -> CoarsenConfig {
        CoarsenConfig {
            threshold: (8 * k).max(64),
            max_levels: 24,
            max_globule_frac: 0.25,
            k: k.max(1),
        }
    }
}

/// Run the coarsening phase, returning the hierarchy `[G0→G1, G1→G2, …]`.
/// The returned vector is empty when `g0` is already below the threshold.
pub fn coarsen(g0: &CircuitGraph, cfg: &CoarsenConfig) -> Vec<CoarseLevel> {
    coarsen_with(g0, cfg, |g, levels| {
        let seeds: Vec<VertexId> = match levels.last() {
            // Round 1 starts from the primary inputs.
            None => g.input_vertices(),
            // Later rounds: globules formed by a merge, in id order.
            Some(prev) => g.vertices().filter(|&v| prev.merged[v as usize]).collect(),
        };
        coarsen_round(g, &seeds, cfg)
    })
}

/// Grow a hierarchy one `round` at a time — each round sees the coarsest
/// graph so far (borrowed from the level that owns it) and the levels
/// built before it — until the graph is at most `cfg.threshold` vertices,
/// `cfg.max_levels` is reached, or a round finds nothing to combine.
pub(crate) fn coarsen_with(
    g0: &CircuitGraph,
    cfg: &CoarsenConfig,
    mut round: impl FnMut(&CircuitGraph, &[CoarseLevel]) -> Option<CoarseLevel>,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    while levels.len() < cfg.max_levels {
        let current = levels.last().map_or(g0, |l| &l.graph);
        if current.len() <= cfg.threshold {
            break;
        }
        match round(current, &levels) {
            Some(level) => levels.push(level),
            None => break, // no combination possible (e.g. all input globules)
        }
    }
    levels
}

/// Marks a vertex no globule has claimed yet in a round's `group_of` map.
pub(crate) const UNGROUPED: u32 = u32::MAX;

/// One coarsening round over `g`. Returns `None` if no merge happened.
fn coarsen_round(g: &CircuitGraph, seeds: &[VertexId], cfg: &CoarsenConfig) -> Option<CoarseLevel> {
    let n = g.len();
    let cap = ((g.total_weight() as f64 / cfg.k as f64) * cfg.max_globule_frac).ceil() as u64;
    let cap = cap.max(2); // always allow at least a pairwise merge

    let mut group_of: Vec<u32> = vec![UNGROUPED; n];
    let mut groups = 0u32;
    let mut any_merge = false;

    // Depth-first worklist: seeds first (paper's "just added" vertices, or
    // the primary inputs in round one), then every remaining vertex.
    let mut visited = vec![false; n];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut outs: Vec<(VertexId, u64)> = Vec::new();

    for root in seeds.iter().copied().chain(g.vertices()) {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        stack.push(root);
        while let Some(v) = stack.pop() {
            // DFS continuation regardless of grouping.
            for &(w, _) in g.fanout(v).iter().rev() {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
            if group_of[v as usize] != UNGROUPED {
                continue; // coarsened already this round
            }
            // v seeds a new globule and grabs the unmatched vertices on
            // its fanout (its output signal's readers).
            let gid = groups;
            groups += 1;
            group_of[v as usize] = gid;
            let mut weight = g.vweight(v);
            let mut has_input = g.is_input(v);
            // Heaviest edges first so the strongest signal bundle is the
            // one kept together when the cap binds.
            outs.clear();
            outs.extend_from_slice(g.fanout(v));
            outs.sort_by_key(|&(w, ew)| (std::cmp::Reverse(ew), w));
            for &(w, _) in &outs {
                if group_of[w as usize] != UNGROUPED {
                    continue;
                }
                if has_input && g.is_input(w) {
                    continue; // two input globules must not combine
                }
                if weight + g.vweight(w) > cap {
                    continue; // globule weight cap
                }
                group_of[w as usize] = gid;
                weight += g.vweight(w);
                has_input |= g.is_input(w);
                any_merge = true;
            }
        }
    }

    any_merge.then(|| contract(g, group_of, groups as usize))
}

/// Contract `g` along `group_of` (fine vertex → globule id, `groups` ids
/// in all): vertex weights are sums; the coarse edge set of a globule
/// "becomes the union of the edges of the vertices … from which it was
/// originally composed" (paper §3), with internal edges dropped and
/// parallel edges merged by weight.
pub(crate) fn contract(g: &CircuitGraph, group_of: Vec<u32>, groups: usize) -> CoarseLevel {
    let mut vweight = vec![0u64; groups];
    let mut is_input = vec![false; groups];
    let mut members = vec![0u32; groups];
    let mut edges: Vec<(u32, u32, u64)> = Vec::with_capacity(g.num_edges());
    for v in g.vertices() {
        let gv = group_of[v as usize];
        vweight[gv as usize] += g.vweight(v);
        is_input[gv as usize] |= g.is_input(v);
        members[gv as usize] += 1;
        for &(w, ew) in g.fanout(v) {
            let gw = group_of[w as usize];
            if gw != gv {
                edges.push((gv, gw, ew));
            }
        }
    }
    // One sort brings parallel edges together and leaves every fanout
    // list ordered by reader id.
    edges.sort_unstable_by_key(|&(from, to, _)| (from, to));
    let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); groups];
    for (from, to, ew) in edges {
        match fanout[from as usize].last_mut() {
            Some(last) if last.0 == to => last.1 += ew,
            _ => fanout[from as usize].push((to, ew)),
        }
    }

    let graph = CircuitGraph::from_parts(g.name().to_string(), vweight, fanout, is_input);
    let merged = members.iter().map(|&m| m > 1).collect();
    CoarseLevel { graph, map: group_of, merged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_netlist::IscasSynth;

    fn g0(gates: usize, seed: u64) -> CircuitGraph {
        CircuitGraph::from_netlist(&IscasSynth::small(gates, seed).build())
    }

    #[test]
    fn hierarchy_shrinks_monotonically() {
        let g = g0(400, 5);
        let levels = coarsen(&g, &CoarsenConfig::for_k(4));
        assert!(!levels.is_empty());
        let mut prev = g.len();
        for l in &levels {
            assert!(l.graph.len() < prev, "each round must shrink the graph");
            prev = l.graph.len();
        }
    }

    #[test]
    fn total_weight_is_preserved() {
        let g = g0(400, 5);
        for l in coarsen(&g, &CoarsenConfig::for_k(4)) {
            assert_eq!(l.graph.total_weight(), g.total_weight());
        }
    }

    #[test]
    fn map_is_a_partition_of_fine_vertices() {
        let g = g0(300, 9);
        let levels = coarsen(&g, &CoarsenConfig::for_k(4));
        let mut fine = g.len();
        for l in &levels {
            assert_eq!(l.map.len(), fine);
            // Every fine vertex maps to a valid coarse vertex; every coarse
            // vertex is hit (globules are non-empty and disjoint by
            // construction — V_{i+1,k} ∩ V_{i+1,l} = ∅).
            let mut hit = vec![false; l.graph.len()];
            for &c in &l.map {
                assert!((c as usize) < l.graph.len());
                hit[c as usize] = true;
            }
            assert!(hit.iter().all(|&h| h));
            fine = l.graph.len();
        }
    }

    #[test]
    fn input_globules_never_combine() {
        let g = g0(300, 9);
        let levels = coarsen(&g, &CoarsenConfig::for_k(4));
        // Count fine input vertices mapping into each coarse vertex — a
        // coarse vertex may contain at most one primary input.
        let mut graph = g.clone();
        for l in &levels {
            let mut inputs_in = vec![0usize; l.graph.len()];
            for v in graph.vertices() {
                if graph.is_input(v) {
                    inputs_in[l.map[v as usize] as usize] += 1;
                }
            }
            assert!(inputs_in.iter().all(|&c| c <= 1), "merged input globules");
            // And the coarse input flag must match.
            for c in l.graph.vertices() {
                assert_eq!(l.graph.is_input(c), inputs_in[c as usize] == 1);
            }
            graph = l.graph.clone();
        }
        // Number of input globules is invariant.
        let last = levels.last().unwrap();
        assert_eq!(last.graph.input_vertices().len(), g.input_vertices().len());
    }

    #[test]
    fn coarse_edges_are_union_of_fine_edges() {
        let g = g0(200, 3);
        let levels = coarsen(&g, &CoarsenConfig::for_k(2));
        let l = &levels[0];
        // Recompute expected coarse edge weights from the fine graph.
        let mut expect = std::collections::HashMap::new();
        for v in g.vertices() {
            for &(w, ew) in g.fanout(v) {
                let (cv, cw) = (l.map[v as usize], l.map[w as usize]);
                if cv != cw {
                    *expect.entry((cv, cw)).or_insert(0u64) += ew;
                }
            }
        }
        let mut got = std::collections::HashMap::new();
        for v in l.graph.vertices() {
            for &(w, ew) in l.graph.fanout(v) {
                got.insert((v, w), ew);
            }
        }
        assert_eq!(expect, got);
    }

    #[test]
    fn threshold_stops_coarsening() {
        let g = g0(500, 7);
        let cfg = CoarsenConfig { threshold: 200, ..CoarsenConfig::for_k(2) };
        let levels = coarsen(&g, &cfg);
        // Once below threshold, no more rounds: the second-to-last level
        // must still be above it.
        if levels.len() >= 2 {
            assert!(levels[levels.len() - 2].graph.len() > 200);
        }
        assert!(!levels.is_empty());
    }

    #[test]
    fn globule_weight_cap_is_respected() {
        let g = g0(600, 1);
        let cfg = CoarsenConfig::for_k(8);
        let cap = ((g.total_weight() as f64 / cfg.k as f64) * cfg.max_globule_frac).ceil() as u64;
        for l in coarsen(&g, &cfg) {
            for v in l.graph.vertices() {
                // The cap is recomputed from the (invariant) total weight
                // each round, so it holds globally; seeds heavier than the
                // cap pass through alone without growing.
                assert!(
                    l.graph.vweight(v) <= cap.max(2),
                    "globule weight {} exceeds cap {}",
                    l.graph.vweight(v),
                    cap
                );
            }
        }
    }

    #[test]
    fn already_small_graph_yields_empty_hierarchy() {
        let g = g0(20, 2);
        let levels = coarsen(&g, &CoarsenConfig { threshold: 100, ..CoarsenConfig::for_k(2) });
        assert!(levels.is_empty());
    }

    #[test]
    fn determinism() {
        let g = g0(300, 4);
        let a = coarsen(&g, &CoarsenConfig::for_k(4));
        let b = coarsen(&g, &CoarsenConfig::for_k(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.map, y.map);
        }
    }
}
