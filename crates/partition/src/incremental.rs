//! Incremental (online) refinement for dynamic load balancing.
//!
//! The offline refiners in [`crate::refiners`] minimise *edge cut* over a
//! structural circuit graph. At run time the quantity that matters is the
//! *observed* load: events executed per LP in the last GVT window, and the
//! messages actually exchanged — not the static fanout structure. This
//! module applies the same FM-style single-vertex gain machinery to a
//! [`LoadGraph`] built from those observations, producing a bounded list
//! of single-LP moves that simultaneously reduces remote traffic and load
//! imbalance.
//!
//! Everything here is a deterministic function of its inputs: vertices are
//! scanned in id order, targets in part order, and ties break toward the
//! lowest (vertex, target) pair — so a simulation that feeds it
//! deterministic window statistics stays byte-reproducible.

/// A small, live graph of observed per-LP load and communication.
///
/// Vertices are LP ids (`0..n`); vertex weight is the LP's observed load
/// (e.g. events executed this window) and edge weight is the observed
/// message traffic between two LPs, accumulated symmetrically. Both are in
/// the same unit (events per window), so the refiner can trade them off
/// without a scale factor.
#[derive(Debug, Clone)]
pub struct LoadGraph {
    loads: Vec<u64>,
    adj: Vec<Vec<(u32, u64)>>,
}

impl LoadGraph {
    /// Build a graph with the given per-vertex loads and no edges.
    pub fn new(loads: Vec<u64>) -> LoadGraph {
        let n = loads.len();
        LoadGraph { loads, adj: vec![Vec::new(); n] }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Observed load of vertex `v`.
    pub fn load(&self, v: u32) -> u64 {
        self.loads[v as usize]
    }

    /// Accumulate `w` units of traffic between `a` and `b` (symmetric;
    /// repeated calls add up; self-edges are ignored).
    pub fn add_comm(&mut self, a: u32, b: u32, w: u64) {
        if a == b || w == 0 {
            return;
        }
        for (x, y) in [(a, b), (b, a)] {
            match self.adj[x as usize].iter_mut().find(|(v, _)| *v == y) {
                Some((_, ew)) => *ew += w,
                None => self.adj[x as usize].push((y, w)),
            }
        }
    }

    /// Neighbours of `v` with accumulated edge weights, in insertion order.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.adj[v as usize].iter().copied()
    }
}

/// One accepted migration: move LP `lp` from part `from` to part `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The vertex (LP) to move.
    pub lp: u32,
    /// Its current part.
    pub from: u32,
    /// Its new part.
    pub to: u32,
}

/// Knobs for [`refine`].
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Maximum moves per call (bounds migration traffic per LB round).
    pub max_moves: usize,
    /// Balance slack: no move may push a part's load above
    /// `avg * (1 + balance_eps)`.
    pub balance_eps: f64,
    /// Minimum traffic gain for a move whose source part is *not*
    /// overloaded. Migration is not free — moving an LP costs a state
    /// transfer now, while a traffic gain pays back one message per
    /// window — so marginal positive-gain moves (gain 1–2) never amortise
    /// and just flap LPs between parts round after round.
    pub min_comm_gain: u64,
}

impl Default for IncrementalConfig {
    fn default() -> IncrementalConfig {
        IncrementalConfig { max_moves: 8, balance_eps: 0.10, min_comm_gain: 0 }
    }
}

/// D-value of `v` toward `to`: external traffic toward `to` minus internal
/// traffic kept inside `from` (identical in spirit to the FM gain in
/// [`crate::refiners`], but over all k parts at once).
fn comm_gain(g: &LoadGraph, assignment: &[u32], v: u32, from: u32, to: u32) -> i64 {
    let mut ext = 0i64;
    let mut int = 0i64;
    for (w, ew) in g.neighbors(v) {
        let pw = assignment[w as usize];
        if pw == to {
            ext += ew as i64;
        } else if pw == from {
            int += ew as i64;
        }
    }
    ext - int
}

/// Greedy incremental refinement: repeatedly apply the single best
/// positive-gain move (traffic gain plus load-transfer gain, one unit
/// each), locking each vertex after it moves, until no feasible positive
/// move remains or `cfg.max_moves` is reached.
///
/// Anti-churn rule: a move is only considered if its source part is above
/// the balance bound *or* it strictly reduces traffic. Without it, once
/// the overloaded part has been drained the tiny residual load differences
/// between parts keep generating positive-gain shuffles whose real
/// migration cost dwarfs their benefit.
///
/// `assignment` is updated in place; the accepted moves are returned in
/// application order. Deterministic for fixed inputs.
pub fn refine(
    g: &LoadGraph,
    assignment: &mut [u32],
    parts: usize,
    cfg: &IncrementalConfig,
) -> Vec<Move> {
    assert_eq!(assignment.len(), g.len(), "assignment length must match graph");
    if parts < 2 || g.is_empty() {
        return Vec::new();
    }
    let mut part_load = vec![0u64; parts];
    let mut total = 0u64;
    for v in 0..g.len() {
        let l = g.load(v as u32);
        part_load[assignment[v] as usize] += l;
        total += l;
    }
    let lmax = ((total as f64 / parts as f64) * (1.0 + cfg.balance_eps)).ceil() as u64;

    let mut locked = vec![false; g.len()];
    let mut moves = Vec::new();
    while moves.len() < cfg.max_moves {
        // Best (vertex, target) over all unlocked vertices; ties break to
        // the lowest (vertex, target) because strict `>` keeps the first.
        let mut best: Option<(u32, u32, i64)> = None;
        for v in 0..g.len() as u32 {
            if locked[v as usize] {
                continue;
            }
            let from = assignment[v as usize];
            let w = g.load(v);
            for to in 0..parts as u32 {
                if to == from || part_load[to as usize] + w > lmax {
                    continue;
                }
                // Load-transfer gain: positive when the source is heavier
                // than the target by more than the vertex itself (the move
                // strictly narrows the gap).
                let balance =
                    part_load[from as usize] as i64 - part_load[to as usize] as i64 - w as i64;
                let cg = comm_gain(g, assignment, v, from, to);
                if part_load[from as usize] <= lmax && cg <= cfg.min_comm_gain as i64 {
                    continue; // anti-churn: see the function docs
                }
                let gain = cg + balance;
                if best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((v, to, gain));
                }
            }
        }
        let Some((v, to, gain)) = best else { break };
        if gain <= 0 {
            break;
        }
        let from = assignment[v as usize];
        assignment[v as usize] = to;
        part_load[from as usize] -= g.load(v);
        part_load[to as usize] += g.load(v);
        locked[v as usize] = true;
        moves.push(Move { lp: v, from, to });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_load(g: &LoadGraph, asg: &[u32], parts: usize) -> u64 {
        let mut pl = vec![0u64; parts];
        for (v, &p) in asg.iter().enumerate() {
            pl[p as usize] += g.load(v as u32);
        }
        pl.into_iter().max().unwrap()
    }

    #[test]
    fn empty_graph_no_moves() {
        let g = LoadGraph::new(vec![]);
        let mut asg: Vec<u32> = vec![];
        assert!(refine(&g, &mut asg, 4, &IncrementalConfig::default()).is_empty());
    }

    #[test]
    fn balanced_input_is_left_alone() {
        let g = LoadGraph::new(vec![10, 10, 10, 10]);
        let mut asg = vec![0, 0, 1, 1];
        let moves = refine(&g, &mut asg, 2, &IncrementalConfig::default());
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn skewed_load_is_spread_out() {
        // All the load on part 0; refinement must shed it.
        let g = LoadGraph::new(vec![100, 100, 100, 100, 1, 1, 1, 1]);
        let mut asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let before = max_load(&g, &asg, 2);
        let moves = refine(
            &g,
            &mut asg,
            2,
            &IncrementalConfig { max_moves: 8, balance_eps: 0.10, min_comm_gain: 0 },
        );
        assert!(!moves.is_empty());
        assert!(max_load(&g, &asg, 2) < before);
        for m in &moves {
            assert_eq!(asg[m.lp as usize], m.to);
        }
    }

    #[test]
    fn comm_affinity_picks_the_connected_vertex() {
        // Two equal-load candidates on the hot part; the one that talks to
        // part 1 is the one that should move there.
        let mut g = LoadGraph::new(vec![50, 50, 1]);
        g.add_comm(1, 2, 40);
        let mut asg = vec![0, 0, 1];
        let moves = refine(
            &g,
            &mut asg,
            2,
            &IncrementalConfig { max_moves: 1, balance_eps: 0.20, min_comm_gain: 0 },
        );
        assert_eq!(moves, vec![Move { lp: 1, from: 0, to: 1 }]);
    }

    #[test]
    fn respects_max_moves_and_balance_bound() {
        let g = LoadGraph::new(vec![30; 12]);
        let mut asg = vec![0u32; 12];
        let cfg = IncrementalConfig { max_moves: 3, balance_eps: 0.10, min_comm_gain: 0 };
        let moves = refine(&g, &mut asg, 3, &cfg);
        assert!(moves.len() <= 3);
        let total: u64 = (0..12).map(|v| g.load(v)).sum();
        let lmax = ((total as f64 / 3.0) * 1.10).ceil() as u64;
        let mut pl = [0u64; 3];
        for (v, &p) in asg.iter().enumerate() {
            pl[p as usize] += g.load(v as u32);
        }
        for (p, &l) in pl.iter().enumerate() {
            // Part 0 started over the bound; it may only have shrunk.
            assert!(l <= lmax || p == 0, "part {p} load {l} > lmax {lmax}");
        }
    }

    #[test]
    fn no_churn_when_within_balance_tolerance() {
        // Part 0 carries 13, part 1 carries 11, lmax = 14: moving the
        // weight-1 vertex would be a positive-gain move, but both parts
        // are inside the tolerance and there is no traffic to save.
        let g = LoadGraph::new(vec![6, 6, 1, 5, 5, 1]);
        let mut asg = vec![0, 0, 0, 1, 1, 1];
        let moves = refine(&g, &mut asg, 2, &IncrementalConfig::default());
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn deterministic_across_calls() {
        let mut g = LoadGraph::new(vec![9, 7, 5, 3, 2, 8, 1, 6]);
        g.add_comm(0, 5, 4);
        g.add_comm(1, 2, 3);
        g.add_comm(3, 7, 2);
        let run = || {
            let mut asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
            let m = refine(&g, &mut asg, 2, &IncrementalConfig::default());
            (asg, m)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_part_never_moves() {
        let g = LoadGraph::new(vec![5, 50, 500]);
        let mut asg = vec![0, 0, 0];
        assert!(refine(&g, &mut asg, 1, &IncrementalConfig::default()).is_empty());
        assert_eq!(asg, vec![0, 0, 0]);
    }
}
