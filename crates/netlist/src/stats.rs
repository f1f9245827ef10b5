//! Circuit statistics — regenerates the paper's Table 1 and validates that
//! synthetic benchmarks are structurally ISCAS-like.

use crate::gate::GateKind;
use crate::levelize::levelize;
use crate::netlist::Netlist;

/// Summary statistics of a circuit graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Primary input count (Table 1 "Inputs").
    pub inputs: usize,
    /// Combinational gate count (Table 1 "Gates").
    pub gates: usize,
    /// Primary output count (Table 1 "Outputs").
    pub outputs: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Directed edge (signal pin connection) count.
    pub edges: usize,
    /// Combinational depth (number of levels - 1).
    pub depth: usize,
    /// Mean fanout over all vertices.
    pub avg_fanout: f64,
    /// Maximum fanout.
    pub max_fanout: usize,
    /// Mean fanin over logic gates.
    pub avg_fanin: f64,
    /// Gate-kind histogram in [`GateKind::ALL`] order.
    pub kind_histogram: Vec<(GateKind, usize)>,
}

impl CircuitStats {
    /// Compute statistics for a netlist.
    pub fn of(netlist: &Netlist) -> CircuitStats {
        let lv = levelize(netlist);
        let mut kind_histogram: Vec<(GateKind, usize)> =
            GateKind::ALL.iter().map(|&k| (k, 0)).collect();
        for g in netlist.gates() {
            let slot = kind_histogram.iter_mut().find(|(k, _)| *k == g.kind).expect("kind in ALL");
            slot.1 += 1;
        }
        let n = netlist.len();
        let total_fanout: usize = netlist.ids().map(|g| netlist.fanout(g).len()).sum();
        let max_fanout = netlist.ids().map(|g| netlist.fanout(g).len()).max().unwrap_or(0);
        let logic = netlist.num_logic_gates();
        let total_fanin: usize =
            netlist.ids().filter(|&g| !netlist.is_input(g)).map(|g| netlist.fanin(g).len()).sum();

        CircuitStats {
            name: netlist.name().to_string(),
            inputs: netlist.inputs().len(),
            gates: netlist.num_logic_gates() - netlist.dffs().len(),
            outputs: netlist.outputs().len(),
            dffs: netlist.dffs().len(),
            edges: netlist.num_edges(),
            depth: lv.depth().saturating_sub(1),
            avg_fanout: total_fanout as f64 / n as f64,
            max_fanout,
            avg_fanin: if logic == 0 { 0.0 } else { total_fanin as f64 / logic as f64 },
            kind_histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse;

    #[test]
    fn stats_of_tiny_circuit() {
        let n =
            parse("t", "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nC = NAND(A, B)\nD = DFF(C)\nY = NOT(D)\n")
                .unwrap();
        let s = CircuitStats::of(&n);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.gates, 2); // NAND + NOT; DFF counted separately
        assert_eq!(s.dffs, 1);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.edges, 4);
        assert_eq!(s.depth, 1); // NAND at 1, DFF at 0, NOT at 1
    }

    #[test]
    fn histogram_counts_every_gate() {
        let n = parse("h", "INPUT(A)\nOUTPUT(Y)\nY = NOT(A)\n").unwrap();
        let s = CircuitStats::of(&n);
        let total: usize = s.kind_histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(total, n.len());
    }
}
