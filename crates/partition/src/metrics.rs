//! Partition quality metrics: edge cut, hyperedge (net) cut, load
//! imbalance and concurrency.
//!
//! The paper evaluates partitions indirectly through simulation behaviour
//! (execution time, message counts, rollbacks); these static metrics are
//! the analytical proxies it discusses — cut-set size drives
//! inter-processor communication, imbalance drives idling, and per-level
//! partition spread drives exploitable concurrency.
//!
//! # Graph vs hypergraph cut
//!
//! A driver net is really one *hyperedge* `{v} ∪ fanout(v)`: the plain
//! edge cut counts a net crossing k parts k times, while the simulator
//! pays per (destination part, toggle). The two hypergraph metrics map
//! exactly onto the two gatesim execution modes:
//!
//! - [`edge_cut`] (directed crossing edge weight, weight = pin count) is
//!   the remote message count per toggle in gate-per-LP mode — one `Wire`
//!   message per (reader, pin);
//! - [`connectivity_cut`] (Σ per net of λ−1, where λ is the number of
//!   parts the net touches) is the bundled message count per toggle in
//!   compiled-block mode — one `Ports` update per (driver, external
//!   reading block).

use crate::graph::CircuitGraph;
use crate::partitioning::Partitioning;

/// Total weight of directed edges whose endpoints lie in different
/// partitions — the paper's "cut-set … the number of edges that cross over
/// partitions".
pub fn edge_cut(g: &CircuitGraph, p: &Partitioning) -> u64 {
    let mut cut = 0;
    for v in g.vertices() {
        let pv = p.part(v);
        for &(w, ew) in g.fanout(v) {
            if p.part(w) != pv {
                cut += u64::from(ew);
            }
        }
    }
    cut
}

/// Number of distinct parts touched by the driver net of `v` — the
/// hypergraph connectivity λ of the hyperedge `{v} ∪ fanout(v)`. Zero for
/// vertices that drive nothing (no hyperedge).
fn net_lambda(g: &CircuitGraph, p: &Partitioning, v: crate::graph::VertexId) -> u32 {
    if g.fanout(v).is_empty() {
        return 0;
    }
    let mut seen = 0u64; // parts fit in a bitset for k ≤ 64; fall back below
    let mut extra: Vec<u32> = Vec::new();
    let mut lambda = 0u32;
    let mut mark = |part: u32| {
        if part < 64 {
            if seen & (1 << part) == 0 {
                seen |= 1 << part;
                lambda += 1;
            }
        } else if !extra.contains(&part) {
            extra.push(part);
            lambda += 1;
        }
    };
    mark(p.part(v));
    for &(r, _) in g.fanout(v) {
        mark(p.part(r));
    }
    lambda
}

/// Connectivity-1 cut: `Σ over driver nets of (λ − 1)` with unit net
/// weight, where λ is the number of distinct parts the net `{v} ∪
/// fanout(v)` touches. This is the exact number of bundled boundary
/// messages per driver toggle in compiled-block mode, and the standard
/// hypergraph-partitioning objective (the "(λ−1) metric").
pub fn connectivity_cut(g: &CircuitGraph, p: &Partitioning) -> u64 {
    let mut cut = 0u64;
    for v in g.vertices() {
        cut += net_lambda(g, p, v).saturating_sub(1) as u64;
    }
    cut
}

/// Number of cut nets: driver nets whose pins span more than one part
/// (λ ≥ 2). The coarsest hyperedge metric — insensitive to *how many*
/// parts a net touches, so it complements [`connectivity_cut`].
pub fn cut_nets(g: &CircuitGraph, p: &Partitioning) -> u64 {
    let mut cut = 0u64;
    for v in g.vertices() {
        if net_lambda(g, p, v) >= 2 {
            cut += 1;
        }
    }
    cut
}

/// External degree of each part: the number of nets with at least one pin
/// inside the part and at least one pin outside it. A part's external
/// degree counts the distinct nets it must exchange boundary traffic on;
/// `Σ external_degree == Σ over cut nets of λ` (each cut net contributes
/// once per part it touches).
pub fn external_degree(g: &CircuitGraph, p: &Partitioning) -> Vec<u64> {
    let mut deg = vec![0u64; p.k];
    let mut touched: Vec<u32> = Vec::new();
    for v in g.vertices() {
        if g.fanout(v).is_empty() {
            continue;
        }
        touched.clear();
        let mut push = |part: u32| {
            if !touched.contains(&part) {
                touched.push(part);
            }
        };
        push(p.part(v));
        for &(r, _) in g.fanout(v) {
            push(p.part(r));
        }
        if touched.len() >= 2 {
            for &part in &touched {
                deg[part as usize] += 1;
            }
        }
    }
    deg
}

/// Load imbalance: `max_load / (total_weight / k)`. 1.0 is perfect.
pub fn imbalance(g: &CircuitGraph, p: &Partitioning) -> f64 {
    let loads = p.loads(g);
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let avg = g.total_weight() as f64 / p.k as f64;
    if avg == 0.0 {
        1.0
    } else {
        max / avg
    }
}

/// Concurrency score in `(0, 1]`: the mean, over topological levels
/// (weighted by level population), of
/// `distinct partitions holding gates of the level / min(k, level size)`.
///
/// A partitioning where every level is spread across all processors scores
/// 1 (all processors can be busy at every wavefront); one where each level
/// sits in a single partition scores near `1/k` (the simulation serializes,
/// the failure mode the paper attributes to DFS and Cluster at high node
/// counts). Requires level information (graphs built from a netlist).
pub fn concurrency(g: &CircuitGraph, p: &Partitioning) -> f64 {
    assert!(g.has_levels(), "concurrency metric needs a level-annotated graph");
    let depth = g.vertices().filter_map(|v| g.level(v)).max().unwrap_or(0) as usize + 1;
    let mut present: Vec<Vec<bool>> = vec![vec![false; p.k]; depth];
    let mut pop = vec![0usize; depth];
    for v in g.vertices() {
        let l = g.level(v).unwrap() as usize;
        present[l][p.part(v) as usize] = true;
        pop[l] += 1;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for l in 0..depth {
        if pop[l] == 0 {
            continue;
        }
        let distinct = present[l].iter().filter(|&&b| b).count();
        let ceiling = p.k.min(pop[l]);
        num += pop[l] as f64 * distinct as f64 / ceiling as f64;
        den += pop[l] as f64;
    }
    num / den
}

/// A compact quality report used by benches and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// See [`edge_cut`].
    pub edge_cut: u64,
    /// See [`connectivity_cut`] (the hypergraph λ−1 objective).
    pub connectivity_cut: u64,
    /// See [`cut_nets`].
    pub cut_nets: u64,
    /// See [`imbalance`].
    pub imbalance: f64,
    /// See [`concurrency`] (`None` when the graph has no levels).
    pub concurrency: Option<f64>,
}

/// Compute all metrics at once.
pub fn quality(g: &CircuitGraph, p: &Partitioning) -> QualityReport {
    QualityReport {
        edge_cut: edge_cut(g, p),
        connectivity_cut: connectivity_cut(g, p),
        cut_nets: cut_nets(g, p),
        imbalance: imbalance(g, p),
        concurrency: g.has_levels().then(|| concurrency(g, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_netlist::bench_format::parse;

    fn chain_graph() -> CircuitGraph {
        // A -> B -> C -> D (ids 0..4 with A input).
        let n = parse("c", "INPUT(A)\nOUTPUT(D)\nB = NOT(A)\nC = NOT(B)\nD = NOT(C)\n").unwrap();
        CircuitGraph::from_netlist(&n)
    }

    #[test]
    fn cut_counts_crossing_edges() {
        let g = chain_graph();
        // Split the chain in the middle: A,B | C,D → one crossing edge.
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert_eq!(edge_cut(&g, &p), 1);
        // All in one partition → zero cut.
        let p0 = Partitioning::new(2, vec![0, 0, 0, 0]);
        assert_eq!(edge_cut(&g, &p0), 0);
        // Alternating → every edge crosses.
        let pa = Partitioning::new(2, vec![0, 1, 0, 1]);
        assert_eq!(edge_cut(&g, &pa), 3);
    }

    #[test]
    fn imbalance_of_even_split_is_one() {
        let g = chain_graph();
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert!((imbalance(&g, &p) - 1.0).abs() < 1e-9);
        let p_bad = Partitioning::new(2, vec![0, 0, 0, 1]);
        assert!((imbalance(&g, &p_bad) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn concurrency_prefers_spread_levels() {
        // Two parallel chains: A->B->C and X->Y->Z. Levels: {A,X}, {B,Y}, {C,Z}.
        let n = parse(
            "par",
            "INPUT(A)\nINPUT(X)\nOUTPUT(C)\nOUTPUT(Z)\nB = NOT(A)\nC = NOT(B)\nY = NOT(X)\nZ = NOT(Y)\n",
        )
        .unwrap();
        let g = CircuitGraph::from_netlist(&n);
        // ids: A=0, X=1, B=2, C=3, Y=4, Z=5
        // Chain-per-partition: every level spread over both partitions.
        let spread = Partitioning::new(2, vec![0, 1, 0, 0, 1, 1]);
        // Level-per-partition impossible with k=2 and 3 levels; use a split
        // where levels 1 and 2 each live in one partition.
        let serial = Partitioning::new(2, vec![0, 0, 1, 1, 1, 1]);
        assert!(concurrency(&g, &spread) > concurrency(&g, &serial));
        assert!((concurrency(&g, &spread) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quality_bundles_all() {
        let g = chain_graph();
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        let q = quality(&g, &p);
        assert_eq!(q.edge_cut, 1);
        assert_eq!(q.connectivity_cut, 1);
        assert_eq!(q.cut_nets, 1);
        assert!(q.concurrency.is_some());
    }

    /// A star net: one driver feeding four readers. One hyperedge of five
    /// pins — the plain edge cut overcounts exactly as the module docs
    /// describe.
    fn star_graph() -> CircuitGraph {
        CircuitGraph::from_parts(
            "star".into(),
            vec![1; 5],
            vec![vec![(1, 1), (2, 1), (3, 1), (4, 1)], vec![], vec![], vec![], vec![]],
            vec![true, false, false, false, false],
        )
    }

    #[test]
    fn connectivity_counts_each_net_once_per_external_part() {
        let g = star_graph();
        // Driver with two readers in part 1 and two in part 2: λ = 3.
        let p = Partitioning::new(3, vec![0, 1, 1, 2, 2]);
        assert_eq!(edge_cut(&g, &p), 4); // four crossing edges
        assert_eq!(connectivity_cut(&g, &p), 2); // but only two destination parts
        assert_eq!(cut_nets(&g, &p), 1);
        assert_eq!(external_degree(&g, &p), vec![1, 1, 1]);
        // Everything together: no cut at all.
        let p0 = Partitioning::new(3, vec![0; 5]);
        assert_eq!(connectivity_cut(&g, &p0), 0);
        assert_eq!(cut_nets(&g, &p0), 0);
        assert_eq!(external_degree(&g, &p0), vec![0, 0, 0]);
    }

    #[test]
    fn connectivity_equals_edge_cut_on_fanout_one_nets() {
        // Every net has exactly one reader (unit weight), so λ−1 per net
        // and crossing-edge weight coincide for any assignment.
        let g = chain_graph();
        for asg in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![1, 1, 1, 1], vec![1, 0, 0, 1]] {
            let p = Partitioning::new(2, asg);
            assert_eq!(connectivity_cut(&g, &p), edge_cut(&g, &p));
        }
    }

    #[test]
    fn external_degree_sums_to_lambda_over_cut_nets() {
        let g = star_graph();
        let p = Partitioning::new(3, vec![0, 1, 1, 2, 2]);
        let total: u64 = external_degree(&g, &p).iter().sum();
        // One cut net with λ = 3.
        assert_eq!(total, 3);
        assert_eq!(total, connectivity_cut(&g, &p) + cut_nets(&g, &p));
    }
}
