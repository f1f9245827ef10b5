//! Weighted circuit-graph view shared by all partitioning algorithms.
//!
//! Partitioners operate on `G = (V, E)` where vertices carry a weight (the
//! number of original gates they subsume — 1 for every vertex of the
//! original circuit, more for multilevel globules) and edges carry a weight
//! (signal multiplicity between the two endpoints). The directed structure
//! (fanout/fanin) is preserved because several of the paper's algorithms —
//! DFS, Cluster, Cone, Topological and fanout coarsening — are inherently
//! directional; cut and refinement computations use the undirected view.
//!
//! Weights are stored in 32 bits, so an adjacency entry is 8 bytes. Every
//! constructor checks that the graph's total vertex weight and total edge
//! weight fit in a [`Weight`]; a coarse graph's totals are at most its
//! finer graph's, so no merge of vertices or parallel edges can overflow.
//! Sums over many vertices or edges (loads, cuts, [`CircuitGraph::total_weight`])
//! are `u64`.

use pls_netlist::{levelize, Csr, Netlist};

/// Vertex id within a [`CircuitGraph`].
pub type VertexId = u32;

/// Weight of a vertex or an edge as stored.
pub type Weight = u32;

/// A weighted, directed circuit graph (with undirected iteration helpers).
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    name: String,
    vweight: Vec<Weight>,
    /// Directed out-edges `(reader, weight)` of each vertex, one flat
    /// array for the whole graph. Deduplicated (parallel signals merged
    /// into the weight) on graphs built from a netlist or by contraction.
    fanout: Adjacency,
    /// Directed in-edges `(driver, weight)`: the transpose of `fanout`,
    /// each vertex's drivers in ascending id order.
    fanin: Adjacency,
    /// Whether the vertex contains a primary input of the original circuit
    /// (the multilevel "input globule" property).
    is_input: Vec<bool>,
    /// Whether the vertex may be duplicated by the logic-replication pass.
    /// Sequential elements (DFFs) are excluded: a replica would need its
    /// own clocking history, so only combinational gates and primary
    /// inputs (which replay the same deterministic stimulus stream) are
    /// safe to copy.
    replicable: Vec<bool>,
    /// Topological level of each vertex. Present on graphs built from a
    /// netlist; `None` on coarsened graphs (levels are meaningless there).
    level: Option<Vec<u32>>,
    total_weight: u64,
}

impl CircuitGraph {
    /// Build the level-0 graph of a netlist: one unit-weight vertex per
    /// gate, one edge per driver→reader signal connection (multi-pin reads
    /// merged into the edge weight).
    pub fn from_netlist(netlist: &Netlist) -> CircuitGraph {
        let n = netlist.len();
        // Every pin read weighs 1.
        assert_weights_fit(netlist.name(), n as u64, netlist.num_edges() as u64);
        let mut fanout = Csr::with_capacity(n, netlist.num_edges());
        let mut readers: Vec<VertexId> = Vec::new();
        for id in netlist.ids() {
            readers.clear();
            readers.extend_from_slice(netlist.fanout(id));
            readers.sort_unstable();
            for &r in &readers {
                push_edge(&mut fanout, id, r, 1);
            }
        }
        let fanout = finish(fanout, n);
        let lv = levelize(netlist);
        let is_input = netlist.ids().map(|g| netlist.is_input(g)).collect();
        let replicable = netlist.ids().map(|g| !netlist.is_dff(g)).collect();
        CircuitGraph {
            name: netlist.name().to_string(),
            vweight: vec![1; n],
            fanin: transpose(&fanout),
            fanout,
            is_input,
            replicable,
            level: Some(lv.level),
            total_weight: n as u64,
        }
    }

    /// Assemble a graph from raw parts (used by tests and by
    /// activity-weighted graphs); parallel edges listed next to each other
    /// merge by weight.
    ///
    /// # Panics
    ///
    /// If the total vertex weight or the total edge weight exceeds
    /// [`Weight::MAX`].
    pub fn from_parts(
        name: String,
        vweight: Vec<u64>,
        fanout: Vec<Vec<(VertexId, u64)>>,
        is_input: Vec<bool>,
    ) -> CircuitGraph {
        assert_eq!(fanout.len(), vweight.len());
        let vertex_total = vweight.iter().fold(0u64, |t, &w| t.saturating_add(w));
        let edge_total = fanout.iter().flatten().fold(0u64, |t, &(_, ew)| t.saturating_add(ew));
        assert_weights_fit(&name, vertex_total, edge_total);
        // Each weight is at most its total, so none is truncated.
        let vweight = vweight.into_iter().map(|w| w as Weight).collect();
        let edges = fanout.iter().enumerate().flat_map(|(v, outs)| {
            outs.iter().map(move |&(w, ew)| (v as VertexId, w, ew as Weight))
        });
        CircuitGraph::from_edges(name, vweight, edges, is_input)
    }

    /// A level-less, all-replicable graph over `(driver, reader, weight)`
    /// edges in ascending driver order. Consecutive edges between the same
    /// pair merge by weight, so edges sorted by `(driver, reader)` come out
    /// deduplicated: the coarsener writes its contracted edges straight in.
    /// The weights must come from a checked graph (a contraction's totals
    /// are at most its finer graph's), so no merge overflows.
    pub(crate) fn from_edges(
        name: String,
        vweight: Vec<Weight>,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
        is_input: Vec<bool>,
    ) -> CircuitGraph {
        let n = vweight.len();
        assert_eq!(is_input.len(), n);
        let edges = edges.into_iter();
        let mut fanout = Csr::with_capacity(n, edges.size_hint().0);
        for (from, to, w) in edges {
            push_edge(&mut fanout, from, to, w);
        }
        let fanout = finish(fanout, n);
        let total_weight = vweight.iter().map(|&w| u64::from(w)).sum();
        CircuitGraph {
            name,
            vweight,
            fanin: transpose(&fanout),
            fanout,
            is_input,
            replicable: vec![true; n],
            level: None,
            total_weight,
        }
    }

    /// Override the per-vertex replication eligibility (see
    /// [`Self::is_replicable`]), so a test can mark vertices of a graph
    /// built with [`Self::from_parts`] (all-replicable) as sequential
    /// elements the planner must never copy.
    #[cfg(test)]
    pub fn with_replicable(mut self, replicable: Vec<bool>) -> CircuitGraph {
        assert_eq!(replicable.len(), self.len());
        self.replicable = replicable;
        self
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vweight.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vweight.is_empty()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.len() as VertexId
    }

    /// Weight of a vertex, widened so that loads sum without casts.
    pub fn vweight(&self, v: VertexId) -> u64 {
        u64::from(self.vweight[v as usize])
    }

    /// Sum of all vertex weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Directed out-edges of `v`.
    pub fn fanout(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.fanout.row(v as usize)
    }

    /// Directed in-edges of `v`.
    pub fn fanin(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.fanin.row(v as usize)
    }

    /// Undirected neighbourhood: fanout then fanin. A vertex pair
    /// connected in both directions appears twice; cut metrics count each
    /// directed edge once, so this is only used for gain computations
    /// where the duplication is intentional (both signals would cross).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.fanout(v).iter().copied().chain(self.fanin(v).iter().copied())
    }

    /// Whether the vertex contains a primary input.
    pub fn is_input(&self, v: VertexId) -> bool {
        self.is_input[v as usize]
    }

    /// Whether the logic-replication pass may duplicate this vertex into
    /// other parts. False for sequential elements (DFFs) on graphs built
    /// from a netlist; coarse graphs default to `true` (replication only
    /// runs at the finest level).
    pub fn is_replicable(&self, v: VertexId) -> bool {
        self.replicable[v as usize]
    }

    /// Ids of all input vertices, ascending.
    pub fn input_vertices(&self) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.is_input(v)).collect()
    }

    /// Topological level of `v`, if this graph was built from a netlist.
    pub fn level(&self, v: VertexId) -> Option<u32> {
        self.level.as_ref().map(|l| l[v as usize])
    }

    /// Whether level information is available.
    pub fn has_levels(&self) -> bool {
        self.level.is_some()
    }

    /// Number of distinct undirected edges (each driver→reader pair once).
    pub fn num_edges(&self) -> usize {
        self.fanout.values().len()
    }
}

/// Directed edges `(other end, weight)` of each vertex, as compressed
/// sparse rows: a whole adjacency is two allocations however many
/// vertices it has, and 8 bytes per edge.
type Adjacency = Csr<(VertexId, Weight)>;

const _: () = assert!(std::mem::size_of::<(VertexId, Weight)>() == 8);
const _: () = assert!(std::mem::size_of::<Weight>() == 4);

/// The one overflow check on a graph's weights: its total vertex weight
/// and total edge weight fit in a [`Weight`], so every vertex, every edge
/// and every sum of them a contraction or a parallel-edge merge forms does
/// too.
fn assert_weights_fit(name: &str, vertex_total: u64, edge_total: u64) {
    let max = u64::from(Weight::MAX);
    assert!(
        vertex_total <= max && edge_total <= max,
        "graph `{name}`: total vertex weight {vertex_total} or total edge weight \
         {edge_total} exceeds the 32-bit weight limit {max}"
    );
}

/// Append `from → to` to `table`, whose rows are filled in ascending
/// `from`: the rows before `from` are closed first, and an edge to the
/// open row's last reader merges into that edge by weight.
fn push_edge(table: &mut Adjacency, from: VertexId, to: VertexId, w: Weight) {
    debug_assert!(table.rows() <= from as usize, "rows filled out of order");
    while table.rows() < from as usize {
        table.close_row();
    }
    let open = table.offsets()[table.rows()] as usize;
    match table.values_mut()[open..].last_mut() {
        Some(last) if last.0 == to => last.1 += w,
        _ => table.push((to, w)),
    }
}

/// Close every row of `table` up to vertex `n`.
fn finish(mut table: Adjacency, n: usize) -> Adjacency {
    while table.rows() < n {
        table.close_row();
    }
    assert_eq!(table.rows(), n, "an edge's driver is out of range");
    table
}

/// The reversed table: row `w` lists `(v, weight)` for every edge
/// `v → w`, in ascending `v`. A counting sort, `O(N_V + N_E)`.
fn transpose(table: &Adjacency) -> Adjacency {
    let rows = table.rows();
    Csr::by_row(
        rows,
        (0..rows).flat_map(|v| {
            table.row(v).iter().map(move |&(w, ew)| (w as usize, (v as VertexId, ew)))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_netlist::bench_format::parse;

    fn sample() -> CircuitGraph {
        let n = parse(
            "g",
            "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nC = NAND(A, B)\nD = AND(C, C)\nY = NOT(D)\n",
        )
        .unwrap();
        CircuitGraph::from_netlist(&n)
    }

    #[test]
    fn unit_weights_from_netlist() {
        let g = sample();
        assert_eq!(g.len(), 5);
        assert_eq!(g.total_weight(), 5);
        for v in g.vertices() {
            assert_eq!(g.vweight(v), 1);
        }
    }

    #[test]
    fn multi_pin_read_merges_into_edge_weight() {
        let g = sample();
        // D reads C twice → one edge with weight 2.
        let c = 2; // id order: A,B,C,D,Y
        let d = 3;
        let e = g.fanout(c).iter().find(|&&(w, _)| w == d).unwrap();
        assert_eq!(e.1, 2);
    }

    #[test]
    fn fanin_mirrors_fanout() {
        let g = sample();
        for v in g.vertices() {
            for &(w, ew) in g.fanout(v) {
                assert!(g.fanin(w).contains(&(v, ew)));
            }
        }
    }

    #[test]
    fn input_flags() {
        let g = sample();
        assert!(g.is_input(0));
        assert!(g.is_input(1));
        assert!(!g.is_input(2));
        assert_eq!(g.input_vertices(), vec![0, 1]);
    }

    #[test]
    fn levels_present_on_netlist_graphs() {
        let g = sample();
        assert!(g.has_levels());
        assert_eq!(g.level(0), Some(0));
        assert_eq!(g.level(4), Some(3)); // Y = NOT(AND(NAND,NAND))
    }

    #[test]
    fn from_parts_round_trip() {
        let g = CircuitGraph::from_parts(
            "p".into(),
            vec![2, 3],
            vec![vec![(1, 5)], vec![]],
            vec![true, false],
        );
        assert_eq!(g.total_weight(), 5);
        assert_eq!(g.fanin(1), &[(0, 5)]);
        assert!(!g.has_levels());
    }

    #[test]
    #[should_panic(
        expected = "graph `heavy`: total vertex weight 2 or total edge weight 4294967296"
    )]
    fn total_edge_weight_beyond_32_bits_is_refused() {
        // Each edge fits in 32 bits; merged, they would not.
        let half = 1u64 << 31;
        CircuitGraph::from_parts(
            "heavy".into(),
            vec![1, 1],
            vec![vec![(1, half), (1, half)], vec![]],
            vec![true, false],
        );
    }
}
