//! Greedy k-way refinement (paper §3, "Refinement").
//!
//! "The greedy refinement algorithm selects a vertex at random and computes
//! the gain in the cut-set for every partition that the vertex can be moved
//! to. The partition with maximum gain is then selected for the move. A
//! move is feasible if it reduces the cut-set and preserves load balance.
//! Once a vertex is selected for a move, it is locked, preventing its move
//! until an iteration of the greedy algorithm finishes."
//!
//! Gains count signal weight in *both* directions (fanout and fanin): an
//! edge crossing a partition boundary costs a message whichever way it
//! points.
//!
//! On top of the edge gain, the refiner is *hyperedge-aware*: each driver
//! net `{d} ∪ fanout(d)` is one hyperedge, and a move also changes the
//! connectivity-1 objective (`Σ (λ−1)`, see
//! [`crate::metrics::connectivity_cut`]) — pulling the last pin of a net
//! out of a part drops λ, pushing the first pin into a new part raises
//! it. The λ gain ranks moves *within* the edge-gain classes: the edge
//! gain stays primary and a move is only taken when it does not increase
//! the edge cut, so the classic invariant (cut never increases) is
//! preserved while ties break toward fewer distinct boundary nets —
//! exactly what the compiled-block engine's bundled messages reward.
//!
//! # Cost
//!
//! The λ gain is read from a net × part pin-count table (`PinTable`)
//! built once per call in `O(pins)` (`pins = N_V + N_E`: one per driver
//! plus one per edge) and kept current in `O(fanin + 1)` per applied
//! move.
//!
//! A pass shuffles every vertex but evaluates only the *dirty* ones (all
//! of them in the first pass). An evaluation costs `O(degree)` for an
//! interior vertex; a boundary vertex pays `O(k + degree)` for its
//! connectivity and one table row per incident net, `O(fanin + 1)`, per
//! adjacent part. It leaves the vertex clean unless some adjacent part
//! would take it, room or not — loads change during a pass, so a blocked
//! target can open later. A move re-dirties the moved vertex, its
//! neighbours and those readers of its fanin nets whose λ gain it can
//! raise (see `mark_dirty`). So after the first pass a pass costs
//! `O(N_V)` for the shuffle plus the neighbourhoods of the last pass's
//! moves, instead of the whole boundary again. The partition is the one
//! evaluating every vertex every pass gives, move for move: the
//! `#[cfg(test)]` reference refiner is that oracle, and debug builds
//! re-evaluate every clean vertex from scratch after each pass. Nothing
//! grows with the square of a net's size (recounting each incident net
//! per vertex, as the reference does, costs `Σ |net|²` a pass).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::{CircuitGraph, VertexId};
use crate::metrics::edge_cut;
use crate::partitioning::Partitioning;

/// Configuration of the greedy refiner.
#[derive(Debug, Clone, Copy)]
pub struct GreedyConfig {
    /// Allowed load slack: max partition load ≤ `(1 + eps) * total / k`.
    pub balance_eps: f64,
    /// Maximum iterations (passes); the paper observes convergence "in a
    /// few iterations", so the default is small.
    pub max_iters: usize,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        // A tight balance bound matters more than the last few cut points:
        // the makespan of an optimistic simulation tracks the most-loaded
        // node directly, so 3% slack beats the customary 10%.
        GreedyConfig { balance_eps: 0.03, max_iters: 8 }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Cut before refinement.
    pub cut_before: u64,
    /// Cut after refinement.
    pub cut_after: u64,
    /// Total vertex moves applied.
    pub moves: usize,
    /// Iterations executed before convergence.
    pub iters: usize,
}

/// Weight of `v`'s connections into each partition (only partitions that
/// actually neighbour `v` get entries; the caller reads `conn[p]`).
fn connectivity(g: &CircuitGraph, p: &Partitioning, v: VertexId, conn: &mut [u64]) {
    conn.iter_mut().for_each(|c| *c = 0);
    for (w, ew) in g.neighbors(v) {
        conn[p.part(w) as usize] += u64::from(ew);
    }
}

/// Pins of every driver net per part: `pins[d·k + q]` counts the members
/// of net `{d} ∪ fanout(d)` that sit in part `q` — the driver once and
/// each distinct reader once, so a self-loop vertex holds two pins of its
/// own net. A net spans `λ` parts iff `λ` entries of its row are nonzero;
/// a vertex with no readers has a single-pin row that never contributes.
struct PinTable {
    k: usize,
    pins: Vec<u32>,
}

impl PinTable {
    /// Count every pin once: `O(N_V + N_E)`.
    fn build(g: &CircuitGraph, p: &Partitioning) -> PinTable {
        let k = p.k;
        let mut pins = vec![0u32; g.len() * k];
        for d in g.vertices() {
            let row = &mut pins[d as usize * k..][..k];
            row[p.part(d) as usize] += 1;
            for &(r, _) in g.fanout(d) {
                row[p.part(r) as usize] += 1;
            }
        }
        PinTable { k, pins }
    }

    /// Per-part pin counts of the net driven by `d`.
    fn row(&self, d: VertexId) -> &[u32] {
        &self.pins[d as usize * self.k..][..self.k]
    }

    /// Move `v`'s pins — its driver pin and one reader pin per fanin net
    /// — from part `from` to part `to`.
    fn apply_move(&mut self, g: &CircuitGraph, v: VertexId, from: u32, to: u32) {
        for d in incident_nets(g, v) {
            let row = &mut self.pins[d as usize * self.k..][..self.k];
            row[from as usize] -= 1;
            row[to as usize] += 1;
        }
    }

    /// Add to each target's `lgain` the change in `Σ (λ−1)` from moving
    /// `v` out of `from` into its part, positive = improvement: a net
    /// whose only `from` pins are `v`'s leaves the part (λ−1), a net with
    /// no pin in the target yet enters it (λ+1). A self-loop makes `v`'s
    /// own net one of its fanin nets too, with two of `v`'s pins in it.
    fn add_lambda_gains(&self, g: &CircuitGraph, v: VertexId, from: u32, targets: &mut [Target]) {
        let self_loop = self_loop_weight(g, v) > 0;
        for d in incident_nets(g, v) {
            let row = self.row(d);
            let mine = 1 + u32::from(d == v && self_loop);
            let leaves = i64::from(row[from as usize] == mine);
            for t in targets.iter_mut() {
                t.lgain += leaves - i64::from(row[t.to as usize] == 0);
            }
        }
    }
}

/// Drivers of the nets `v` has a pin in: the one it drives, then one per
/// fanin (`v` itself again if it reads its own output).
fn incident_nets(g: &CircuitGraph, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
    std::iter::once(v).chain(g.fanin(v).iter().map(|&(u, _)| u))
}

/// Weight of the edge `v → v`, 0 if `v` does not read its own output.
fn self_loop_weight(g: &CircuitGraph, v: VertexId) -> u64 {
    g.fanin(v).iter().find(|&&(u, _)| u == v).map_or(0, |&(_, w)| u64::from(w))
}

/// λ gains are bounded by the number of incident nets (≤ fanin + 1), far
/// below this scale, so edge gain stays strictly primary.
const EDGE_SCALE: i64 = 1 << 20;

/// Moving the vertex in hand to an adjacent part `to`.
#[derive(Debug, Clone, Copy)]
struct Target {
    to: u32,
    /// Change in edge cut, positive = improvement.
    egain: i64,
    /// Change in `Σ (λ−1)`, positive = improvement.
    lgain: i64,
}

impl Target {
    /// Edge gain first; the λ gain ranks moves within an edge-gain class.
    fn rank(self) -> i64 {
        self.egain * EDGE_SCALE + self.lgain
    }

    /// Whether the move is taken when it is the best one with room: it
    /// never increases the edge cut, and a zero-edge-gain move must
    /// strictly improve connectivity.
    fn improves(self) -> bool {
        self.egain > 0 || (self.egain == 0 && self.lgain > 0)
    }
}

/// Fill `targets` with every part adjacent to `v` except its own, room or
/// not (moving to a non-adjacent part never reduces the cut). An interior
/// vertex has none and never touches the pin table.
fn adjacent_targets(
    g: &CircuitGraph,
    p: &Partitioning,
    table: &PinTable,
    v: VertexId,
    conn: &mut [u64],
    targets: &mut Vec<Target>,
) {
    let from = p.part(v);
    targets.clear();
    if g.neighbors(v).all(|(w, _)| p.part(w) == from) {
        return;
    }
    connectivity(g, p, v, conn);
    targets.extend((0..p.k as u32).filter(|&to| to != from && conn[to as usize] > 0).map(|to| {
        let egain = conn[to as usize] as i64 - conn[from as usize] as i64;
        Target { to, egain, lgain: 0 }
    }));
    table.add_lambda_gains(g, v, from, targets);
}

/// Mark dirty every vertex the move of `v` from `from` to `to` can have
/// given an improving move: a clean vertex stays clean while none of its
/// gains rises. `v` and its neighbours (their connectivity moved) are
/// marked outright, which covers the pins of the net `v`
/// drives and the driver of each fanin net. Any other reader of a fanin
/// net sees the net only through its pin-table row (already updated),
/// and its λ gain rises only where the move left a single pin in `from`
/// (that reader may now empty the part) or put the first pin in `to`
/// (readers elsewhere may now join the part for free).
fn mark_dirty(
    g: &CircuitGraph,
    table: &PinTable,
    v: VertexId,
    from: u32,
    to: u32,
    dirty: &mut [bool],
) {
    dirty[v as usize] = true;
    for (w, _) in g.neighbors(v) {
        dirty[w as usize] = true;
    }
    for &(u, _) in g.fanin(v) {
        let row = table.row(u);
        if row[from as usize] == 1 || row[to as usize] == 1 {
            for &(r, _) in g.fanout(u) {
                dirty[r as usize] = true;
            }
        }
    }
}

/// Whether every clean vertex, re-evaluated from scratch, still has no
/// adjacent part it would move to. The dirty set's invariant, for debug
/// builds.
fn clean_vertices_stay_put(g: &CircuitGraph, p: &Partitioning, dirty: &[bool]) -> bool {
    let table = PinTable::build(g, p);
    let mut conn = vec![0u64; p.k];
    let mut targets = Vec::with_capacity(p.k);
    g.vertices().filter(|&v| !dirty[v as usize]).all(|v| {
        adjacent_targets(g, p, &table, v, &mut conn, &mut targets);
        !targets.iter().any(|t| t.improves())
    })
}

/// Run greedy k-way refinement in place. Returns statistics.
pub fn greedy_refine(
    g: &CircuitGraph,
    p: &mut Partitioning,
    cfg: &GreedyConfig,
    seed: u64,
) -> RefineStats {
    let k = p.k;
    let cut_before = edge_cut(g, p);
    let mut cut = cut_before as i64;
    let mut loads = p.loads(g);
    let lmax = (((g.total_weight() as f64 / k as f64) * (1.0 + cfg.balance_eps)).ceil()) as u64;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<VertexId> = g.vertices().collect();
    let mut conn = vec![0u64; k];
    let mut table = PinTable::build(g, p);
    let mut targets: Vec<Target> = Vec::with_capacity(k);
    // A vertex is clean when its last evaluation found no adjacent part
    // it would move to and no move since can have raised one of its
    // gains: evaluating it again would find the same, so a pass skips it.
    let mut dirty = vec![true; g.len()];
    let mut moves = 0usize;
    let mut iters = 0usize;

    for _ in 0..cfg.max_iters {
        iters += 1;
        order.shuffle(&mut rng);
        let mut moved_this_iter = 0usize;
        // Locks are per-iteration: a moved vertex stays put until the next
        // pass.
        for &v in &order {
            if !dirty[v as usize] {
                continue;
            }
            adjacent_targets(g, p, &table, v, &mut conn, &mut targets);
            // Cleanliness ignores room: loads change during a pass, and a
            // full part that would take `v` can gain room later.
            if !targets.iter().any(|t| t.improves()) {
                dirty[v as usize] = false;
                continue;
            }
            // Best target with room by rank, the lighter part on a tie.
            let weight = g.vweight(v);
            let mut best: Option<Target> = None;
            for &t in targets.iter().filter(|t| loads[t.to as usize] + weight <= lmax) {
                match best {
                    Some(b)
                        if t.rank() < b.rank()
                            || (t.rank() == b.rank()
                                && loads[t.to as usize] >= loads[b.to as usize]) => {}
                    _ => best = Some(t),
                }
            }
            let Some(best) = best.filter(|b| b.improves()) else {
                continue;
            };
            let from = p.part(v);
            loads[from as usize] -= weight;
            loads[best.to as usize] += weight;
            p.set(v, best.to);
            table.apply_move(g, v, from, best.to);
            // `conn[from]` counts a self-loop edge in both directions
            // although it can never be cut.
            cut -= best.egain + 2 * self_loop_weight(g, v) as i64;
            mark_dirty(g, &table, v, from, best.to, &mut dirty);
            moved_this_iter += 1;
        }
        debug_assert!(
            table.pins == PinTable::build(g, p).pins,
            "incremental pin counts drifted from a from-scratch rebuild"
        );
        debug_assert!(
            clean_vertices_stay_put(g, p, &dirty),
            "a vertex left clean has an improving move"
        );
        moves += moved_this_iter;
        if moved_this_iter == 0 {
            break; // converged
        }
    }

    debug_assert_eq!(cut as u64, edge_cut(g, p), "tracked cut drifted from a recount");
    RefineStats { cut_before, cut_after: cut as u64, moves, iters }
}

/// Restore feasibility when a projected partition exceeds the balance
/// bound (coarse globules are chunky, so the initial phase can overshoot).
/// Moves boundary vertices out of overloaded partitions, preferring moves
/// that lose the least cut. Runs before [`greedy_refine`].
pub fn rebalance(g: &CircuitGraph, p: &mut Partitioning, balance_eps: f64, seed: u64) -> usize {
    let k = p.k;
    let mut loads = p.loads(g);
    let lmax = (((g.total_weight() as f64 / k as f64) * (1.0 + balance_eps)).ceil()) as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1A_9CE5);
    let mut conn = vec![0u64; k];
    let mut moves = 0usize;

    // Bounded effort: each pass scans all vertices once.
    for _ in 0..4 {
        if loads.iter().all(|&l| l <= lmax) {
            break;
        }
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.shuffle(&mut rng);
        for &v in &order {
            let from = p.part(v);
            if loads[from as usize] <= lmax {
                continue;
            }
            connectivity(g, p, v, &mut conn);
            // Least-loss target with capacity.
            let mut best: Option<(u32, i64)> = None;
            for to in 0..k as u32 {
                if to == from || loads[to as usize] + g.vweight(v) > lmax {
                    continue;
                }
                let gain = conn[to as usize] as i64 - conn[from as usize] as i64;
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((to, gain));
                }
            }
            if let Some((to, _)) = best {
                loads[from as usize] -= g.vweight(v);
                loads[to as usize] += g.vweight(v);
                p.set(v, to);
                moves += 1;
            }
        }
    }
    moves
}

/// The refiner as it was before the pin table: every vertex recounts the
/// pins of each incident net from scratch (`Σ |net|²` per pass). Kept as
/// the oracle [`greedy_refine`] must match move for move.
#[cfg(test)]
mod reference {
    use super::*;

    /// Per-part pin counts of every hyperedge incident to `v` (the net `v`
    /// drives plus the net of each fanin), *excluding `v` itself* — the
    /// residual counts that decide how moving `v` changes each net's λ.
    fn incident_net_counts(
        g: &CircuitGraph,
        p: &Partitioning,
        v: VertexId,
        k: usize,
        scratch: &mut Vec<Vec<u32>>,
    ) -> usize {
        let mut nets = 0usize;
        let fill = |d: VertexId, scratch: &mut Vec<Vec<u32>>, nets: &mut usize| {
            if *nets == scratch.len() {
                scratch.push(vec![0u32; k]);
            }
            let row = &mut scratch[*nets];
            row.iter_mut().for_each(|c| *c = 0);
            if d != v {
                row[p.part(d) as usize] += 1;
            }
            for &(r, _) in g.fanout(d) {
                if r != v {
                    row[p.part(r) as usize] += 1;
                }
            }
            *nets += 1;
        };
        if !g.fanout(v).is_empty() {
            fill(v, scratch, &mut nets);
        }
        for &(u, _) in g.fanin(v) {
            fill(u, scratch, &mut nets);
        }
        nets
    }

    /// Change in `Σ (λ−1)` from moving `v` (currently in `from`) to `to`.
    fn lambda_gain(net_counts: &[Vec<u32>], nets: usize, from: u32, to: u32) -> i64 {
        let mut gain = 0i64;
        for row in net_counts.iter().take(nets) {
            gain += (row[from as usize] == 0) as i64 - (row[to as usize] == 0) as i64;
        }
        gain
    }

    pub fn greedy_refine(
        g: &CircuitGraph,
        p: &mut Partitioning,
        cfg: &GreedyConfig,
        seed: u64,
    ) -> RefineStats {
        let k = p.k;
        let cut_before = edge_cut(g, p);
        let mut loads = p.loads(g);
        let lmax = (((g.total_weight() as f64 / k as f64) * (1.0 + cfg.balance_eps)).ceil()) as u64;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<VertexId> = g.vertices().collect();
        let mut conn = vec![0u64; k];
        let mut net_scratch: Vec<Vec<u32>> = Vec::new();
        let mut moves = 0usize;
        let mut iters = 0usize;

        for _ in 0..cfg.max_iters {
            iters += 1;
            order.shuffle(&mut rng);
            let mut moved_this_iter = 0usize;
            for &v in &order {
                let from = p.part(v);
                connectivity(g, p, v, &mut conn);
                let nets = incident_net_counts(g, p, v, k, &mut net_scratch);
                let mut best: Option<(u32, i64, i64)> = None;
                for to in 0..k as u32 {
                    if to == from || conn[to as usize] == 0 {
                        continue;
                    }
                    let egain = conn[to as usize] as i64 - conn[from as usize] as i64;
                    if loads[to as usize] + g.vweight(v) > lmax {
                        continue;
                    }
                    let ranked = egain * EDGE_SCALE + lambda_gain(&net_scratch, nets, from, to);
                    match best {
                        Some((bt, _, br))
                            if ranked < br
                                || (ranked == br && loads[to as usize] >= loads[bt as usize]) => {}
                        _ => best = Some((to, egain, ranked)),
                    }
                }
                if let Some((to, egain, ranked)) = best {
                    if egain > 0 || (egain == 0 && ranked > 0) {
                        loads[from as usize] -= g.vweight(v);
                        loads[to as usize] += g.vweight(v);
                        p.set(v, to);
                        moved_this_iter += 1;
                    }
                }
            }
            moves += moved_this_iter;
            if moved_this_iter == 0 {
                break;
            }
        }

        RefineStats { cut_before, cut_after: edge_cut(g, p), moves, iters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomPartitioner;
    use crate::metrics::imbalance;
    use crate::multilevel::coarsen::{coarsen, CoarsenConfig};
    use crate::Partitioner;
    use pls_netlist::IscasSynth;

    fn g0(gates: usize, seed: u64) -> CircuitGraph {
        CircuitGraph::from_netlist(&IscasSynth::small(gates, seed).build())
    }

    /// Refine the same start with [`greedy_refine`] and the recounting
    /// reference; both must agree on every vertex and every statistic.
    fn assert_matches_reference(g: &CircuitGraph, start: &Partitioning, cfg: &GreedyConfig) {
        let (mut fast, mut slow) = (start.clone(), start.clone());
        let fast_stats = greedy_refine(g, &mut fast, cfg, 7);
        let slow_stats = reference::greedy_refine(g, &mut slow, cfg, 7);
        let what = format!("{} n={} k={}", g.name(), g.len(), start.k);
        assert_eq!(fast.assignment, slow.assignment, "assignment differs: {what}");
        assert_eq!(fast_stats, slow_stats, "stats differ: {what}");
    }

    #[test]
    fn matches_reference_across_sizes_and_parts() {
        for gates in [300, 800, 2_000, 5_000] {
            let g = g0(gates, gates as u64);
            for k in [2, 3, 4, 8, 16] {
                let start = RandomPartitioner.partition(&g, k, 1);
                assert_matches_reference(&g, &start, &GreedyConfig::default());
            }
        }
    }

    #[test]
    fn matches_reference_on_every_level_of_a_hierarchy() {
        // Coarse graphs carry the weighted vertices, merged edge weights
        // and large nets that unit-weight G0 does not.
        let g = CircuitGraph::from_netlist(&IscasSynth::s9234().build());
        let levels = coarsen(&g, &CoarsenConfig::for_k(8));
        assert!(levels.len() > 3);
        for graph in std::iter::once(&g).chain(levels.iter().map(|l| &l.graph)) {
            for k in [2, 8] {
                let start = RandomPartitioner.partition(graph, k, 2);
                // Coarse globules are chunky: leave room to move them.
                let cfg = GreedyConfig { balance_eps: 0.10, ..Default::default() };
                assert_matches_reference(graph, &start, &cfg);
            }
        }
    }

    #[test]
    fn matches_reference_with_a_self_loop_vertex() {
        // Vertex 2 reads its own output (a register holding its value):
        // it owns two pins of its own net, and its self-edge can never be
        // cut although `connectivity` counts it.
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); 8];
        // Drivers 0 and 1 are anchored to 3 and 4 by heavy edges, so when
        // they sit apart from vertex 2 it is 2 that crosses over.
        fanout[0] = vec![(2, 3), (3, 5)];
        fanout[1] = vec![(2, 3), (4, 5)];
        fanout[2] = vec![(2, 1), (5, 1), (6, 1)];
        fanout[5] = vec![(7, 1)];
        fanout[6] = vec![(7, 1)];
        let mut is_input = vec![false; 8];
        is_input[0] = true;
        is_input[1] = true;
        let g = CircuitGraph::from_parts("loop".into(), vec![1; 8], fanout, is_input);
        let cfg = GreedyConfig { balance_eps: 0.5, ..Default::default() };
        let mut moved_the_loop = false;
        for k in [2u32, 3] {
            // Every assignment of the 8 vertices, so the self-loop vertex
            // is moved from and into every neighbourhood.
            for code in 0..k.pow(8) {
                let asg: Vec<u32> = (0..8).map(|i| code / k.pow(i) % k).collect();
                let start = Partitioning::new(k as usize, asg);
                assert_matches_reference(&g, &start, &cfg);
                let mut p = start.clone();
                greedy_refine(&g, &mut p, &cfg, 7);
                moved_the_loop |= p.part(2) != start.part(2);
            }
        }
        assert!(moved_the_loop, "the case never moved the self-loop vertex");
    }

    #[test]
    fn matches_reference_on_a_star_net() {
        // One driver, 5 000 readers: the reference recounts the whole net
        // for each of its pins (25 M pin visits a pass), the table reads
        // one row.
        let readers = 5_000u32;
        let n = readers as usize + 1;
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
        fanout[0] = (1..=readers).map(|r| (r, 1)).collect();
        let mut is_input = vec![false; n];
        is_input[0] = true;
        let g = CircuitGraph::from_parts("star".into(), vec![1; n], fanout, is_input);
        for k in [2, 8] {
            let start = RandomPartitioner.partition(&g, k, 3);
            assert_matches_reference(&g, &start, &GreedyConfig::default());
        }
    }

    #[test]
    fn matches_reference_when_a_full_part_gains_room() {
        // Vertex 3 ("v") sits in part 0 while both its drivers, 6 and 7,
        // sit in part 1, which is full (load 5 = lmax; vertex 4 weighs 2).
        // Vertex 5 ("x") sits in part 1 while both its drivers, 1 and 2,
        // sit in part 0, which has room; x shares no net with v. Seed 7
        // visits v before x, so in the first pass v's only improving
        // move is blocked, then x's move frees room in part 1, and v must
        // move in the second pass. Judging v clean over the parts with
        // room alone would skip it from then on.
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); 8];
        fanout[1] = vec![(0, 5), (5, 1)];
        fanout[2] = vec![(0, 5), (5, 1)];
        fanout[6] = vec![(3, 1), (4, 5)];
        fanout[7] = vec![(3, 1), (4, 5)];
        let is_input = vec![false, true, true, false, false, false, true, true];
        let g =
            CircuitGraph::from_parts("room".into(), vec![1, 1, 1, 1, 2, 1, 1, 1], fanout, is_input);
        let start = Partitioning::new(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let cfg = GreedyConfig::default();
        let mut one_pass = start.clone();
        reference::greedy_refine(&g, &mut one_pass, &GreedyConfig { max_iters: 1, ..cfg }, 7);
        assert_eq!((one_pass.part(3), one_pass.part(5)), (0, 0), "pass 1 moves x, not v");
        let mut converged = start.clone();
        let stats = reference::greedy_refine(&g, &mut converged, &cfg, 7);
        assert_eq!((converged.part(3), stats.moves, stats.iters), (1, 2, 3), "pass 2 moves v");
        assert_matches_reference(&g, &start, &cfg);
    }

    #[test]
    fn refinement_never_increases_cut() {
        let g = g0(300, 1);
        for seed in 0..5 {
            let mut p = RandomPartitioner.partition(&g, 4, seed);
            let stats = greedy_refine(&g, &mut p, &GreedyConfig::default(), seed);
            assert!(stats.cut_after <= stats.cut_before);
            assert_eq!(stats.cut_after, edge_cut(&g, &p));
        }
    }

    #[test]
    fn refinement_substantially_improves_random() {
        let g = g0(500, 2);
        let mut p = RandomPartitioner.partition(&g, 4, 0);
        let stats = greedy_refine(&g, &mut p, &GreedyConfig::default(), 0);
        assert!(
            (stats.cut_after as f64) < 0.8 * stats.cut_before as f64,
            "greedy should recover >20% of a random partition's cut: {stats:?}"
        );
    }

    #[test]
    fn refinement_preserves_balance() {
        let g = g0(400, 3);
        let cfg = GreedyConfig::default();
        let mut p = RandomPartitioner.partition(&g, 4, 0);
        greedy_refine(&g, &mut p, &cfg, 0);
        assert!(imbalance(&g, &p) <= 1.0 + cfg.balance_eps + 0.01);
    }

    #[test]
    fn converges_in_few_iterations() {
        // The paper: "the greedy algorithm was found to converge in a few
        // iterations".
        let g = g0(400, 4);
        let mut p = RandomPartitioner.partition(&g, 8, 0);
        let stats =
            greedy_refine(&g, &mut p, &GreedyConfig { max_iters: 50, ..Default::default() }, 0);
        assert!(stats.iters <= 15, "took {} iterations", stats.iters);
    }

    #[test]
    fn zero_cut_partition_stays_zero_cut() {
        // Two disconnected chains, one per partition: cut 0, nothing moves.
        let fanout = vec![vec![(1, 1)], vec![], vec![(3, 1)], vec![]];
        let g = CircuitGraph::from_parts(
            "two".into(),
            vec![1; 4],
            fanout,
            vec![true, false, true, false],
        );
        let mut p = Partitioning::new(2, vec![0, 0, 1, 1]);
        let stats = greedy_refine(&g, &mut p, &GreedyConfig::default(), 0);
        assert_eq!(stats.cut_after, 0);
        assert_eq!(p.assignment, vec![0, 0, 1, 1]);
    }

    #[test]
    fn hyperedge_awareness_breaks_ties_toward_fewer_cut_nets() {
        // Vertex 1 ("v") reads driver 0 ("h", part 0) and driver 2 ("g",
        // part 1), so moving v to part 1 has zero edge gain (one crossing
        // edge either way) — but v is g's net's *last* pin in part 0, so
        // the move drops that net's λ. Every other vertex is pinned: h and
        // g see equal connectivity both ways, y (vertex 4) is blocked by
        // the balance bound thanks to the weight-4 ballast (vertex 5), and
        // z (vertex 3) has no foreign neighbour.
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); 6];
        fanout[0] = vec![(1, 1), (4, 1)]; // h drives v and y
        fanout[2] = vec![(1, 1), (3, 1)]; // g drives v and z
        let g = CircuitGraph::from_parts(
            "tie".into(),
            vec![1, 1, 1, 1, 1, 4],
            fanout,
            vec![true, false, true, false, false, false],
        );
        use crate::metrics::connectivity_cut;
        let start = Partitioning::new(2, vec![0, 0, 1, 1, 1, 0]);
        // No move has a strict edge gain, and both nets are cut.
        let (cut, lambda) = (edge_cut(&g, &start), connectivity_cut(&g, &start));
        assert_eq!((cut, lambda), (2, 2));
        let mut p = start.clone();
        greedy_refine(&g, &mut p, &GreedyConfig { balance_eps: 0.2, ..Default::default() }, 1);
        assert!(connectivity_cut(&g, &p) < lambda, "λ should drop via zero-edge-gain moves");
        // And never at the price of edge cut.
        assert!(edge_cut(&g, &p) <= cut);
    }

    #[test]
    fn rebalance_restores_feasibility() {
        let g = g0(300, 5);
        // Everything in partition 0: grossly infeasible for k=4.
        let mut p = Partitioning::new(4, vec![0; g.len()]);
        rebalance(&g, &mut p, 0.10, 0);
        let loads = p.loads(&g);
        let lmax = ((g.total_weight() as f64 / 4.0) * 1.10).ceil() as u64;
        assert!(loads.iter().all(|&l| l <= lmax), "loads {loads:?} exceed {lmax}");
    }

    #[test]
    fn deterministic_for_seed() {
        let g = g0(300, 6);
        let mut p1 = RandomPartitioner.partition(&g, 4, 9);
        let mut p2 = p1.clone();
        greedy_refine(&g, &mut p1, &GreedyConfig::default(), 3);
        greedy_refine(&g, &mut p2, &GreedyConfig::default(), 3);
        assert_eq!(p1.assignment, p2.assignment);
    }
}
