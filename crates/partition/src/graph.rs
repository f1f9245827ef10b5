//! Weighted circuit-graph view shared by all partitioning algorithms.
//!
//! Partitioners operate on `G = (V, E)` where vertices carry a weight (the
//! number of original gates they subsume — 1 for every vertex of the
//! original circuit, more for multilevel globules) and edges carry a weight
//! (signal multiplicity between the two endpoints). The directed structure
//! (fanout/fanin) is preserved because several of the paper's algorithms —
//! DFS, Cluster, Cone, Topological and fanout coarsening — are inherently
//! directional; cut and refinement computations use the undirected view.

use pls_netlist::{levelize, Netlist};

/// Vertex id within a [`CircuitGraph`].
pub type VertexId = u32;

/// A weighted, directed circuit graph (with undirected iteration helpers).
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    name: String,
    vweight: Vec<u64>,
    /// Directed out-edges `(reader, weight)`, deduplicated.
    fanout: Vec<Vec<(VertexId, u64)>>,
    /// Directed in-edges `(driver, weight)`, deduplicated.
    fanin: Vec<Vec<(VertexId, u64)>>,
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
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
        let mut fanin: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
        for id in netlist.ids() {
            let mut outs: Vec<VertexId> = netlist.fanout(id).to_vec();
            outs.sort_unstable();
            let mut i = 0;
            while i < outs.len() {
                let mut j = i;
                while j < outs.len() && outs[j] == outs[i] {
                    j += 1;
                }
                let w = (j - i) as u64;
                fanout[id as usize].push((outs[i], w));
                fanin[outs[i] as usize].push((id, w));
                i = j;
            }
        }
        let lv = levelize(netlist);
        let is_input = netlist.ids().map(|g| netlist.is_input(g)).collect();
        let replicable = netlist.ids().map(|g| !netlist.is_dff(g)).collect();
        CircuitGraph {
            name: netlist.name().to_string(),
            vweight: vec![1; n],
            fanout,
            fanin,
            is_input,
            replicable,
            level: Some(lv.level),
            total_weight: n as u64,
        }
    }

    /// Assemble a graph from raw parts (used by the coarsener and tests).
    pub fn from_parts(
        name: String,
        vweight: Vec<u64>,
        fanout: Vec<Vec<(VertexId, u64)>>,
        is_input: Vec<bool>,
    ) -> CircuitGraph {
        let n = vweight.len();
        assert_eq!(fanout.len(), n);
        assert_eq!(is_input.len(), n);
        let mut fanin: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
        for (v, outs) in fanout.iter().enumerate() {
            for &(w, ew) in outs {
                fanin[w as usize].push((v as VertexId, ew));
            }
        }
        let total_weight = vweight.iter().sum();
        let replicable = vec![true; n];
        CircuitGraph {
            name,
            vweight,
            fanout,
            fanin,
            is_input,
            replicable,
            level: None,
            total_weight,
        }
    }

    /// Override the per-vertex replication eligibility (see
    /// [`Self::is_replicable`]). Graphs built with [`Self::from_parts`]
    /// default to all-replicable; tests and coarseners use this to model
    /// sequential elements.
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

    /// Weight of a vertex.
    pub fn vweight(&self, v: VertexId) -> u64 {
        self.vweight[v as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Directed out-edges of `v`.
    pub fn fanout(&self, v: VertexId) -> &[(VertexId, u64)] {
        &self.fanout[v as usize]
    }

    /// Directed in-edges of `v`.
    pub fn fanin(&self, v: VertexId) -> &[(VertexId, u64)] {
        &self.fanin[v as usize]
    }

    /// Undirected neighbourhood: fanout then fanin. A vertex pair
    /// connected in both directions appears twice; cut metrics count each
    /// directed edge once, so this is only used for gain computations
    /// where the duplication is intentional (both signals would cross).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        self.fanout[v as usize].iter().copied().chain(self.fanin[v as usize].iter().copied())
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
        self.fanout.iter().map(|o| o.len()).sum()
    }
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
}
