//! The circuit graph: a dense, index-based gate-level netlist.
//!
//! This is the directed graph `G = (V, E)` of the paper's Section 3:
//! vertices are logic gates (and primary inputs and flip-flops), edges are
//! the signals that interconnect them. Fanin is stored per gate in pin
//! order; fanout adjacency is derived when the netlist is frozen by the
//! builder.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};

/// An immutable, validated gate-level circuit.
///
/// Construct one with [`NetlistBuilder`], by parsing a `.bench` file
/// ([`crate::bench_format::parse`]), or with the synthetic benchmark
/// generator ([`crate::generate::IscasSynth`]).
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Derived fanout adjacency: `fanout[g]` lists every gate with `g` in
    /// its fanin, once per pin that reads it (a gate reading the same
    /// signal on two pins appears twice, matching event routing needs).
    fanout: Vec<Vec<GateId>>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    by_name: BTreeMap<String, GateId>,
}

impl Netlist {
    /// Circuit name (e.g. `"s9234"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (vertices), counting primary inputs and DFFs.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the netlist has no gates (never true for a built netlist).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id as usize]
    }

    /// All gates in id order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Ids of all gates, `0..len`.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        0..self.gates.len() as GateId
    }

    /// Fanout of a gate: every reader, once per reading pin.
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        &self.fanout[id as usize]
    }

    /// Fanin of a gate in pin order.
    pub fn fanin(&self, id: GateId) -> &[GateId] {
        &self.gates[id as usize].fanin
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs (gates whose output signal is observable).
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// All D flip-flops.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Look a gate up by its output signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Number of directed edges (sum of fanin arities). This is the `N_E`
    /// of the paper's complexity claim for the multilevel heuristic.
    pub fn num_edges(&self) -> usize {
        self.gates.iter().map(|g| g.fanin.len()).sum()
    }

    /// Number of logic gates excluding primary inputs (the paper's Table 1
    /// "Gates" column counts the circuit's gates, not its input pads).
    pub fn num_logic_gates(&self) -> usize {
        self.gates.len() - self.inputs.len()
    }

    /// Whether `id` is a primary input.
    pub fn is_input(&self, id: GateId) -> bool {
        self.gates[id as usize].kind.is_input()
    }

    /// Whether `id` is a DFF.
    pub fn is_dff(&self, id: GateId) -> bool {
        self.gates[id as usize].kind.is_sequential()
    }
}

/// Mutable builder for [`Netlist`]. Validates on [`NetlistBuilder::build`]:
/// names unique, arities legal, no dangling references, and no
/// combinational cycles (cycles must pass through a DFF).
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
    by_name: BTreeMap<String, GateId>,
}

impl NetlistBuilder {
    /// Start building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder { name: name.into(), ..Default::default() }
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if no gates were added yet.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Declare a primary input. Returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        self.add_gate(name, GateKind::Input, vec![])
    }

    /// Add a gate with explicit fanin ids. Returns its id.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        let id = self.gates.len() as GateId;
        match self.by_name.entry(name.into()) {
            Entry::Occupied(taken) => Err(NetlistError::DuplicateName(taken.key().clone())),
            Entry::Vacant(free) => {
                self.gates.push(Gate::new(free.key().clone(), kind, fanin));
                free.insert(id);
                Ok(id)
            }
        }
    }

    /// Mark an existing gate's output signal as a primary output.
    pub fn mark_output(&mut self, id: GateId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Look up a gate id by name (for parsers resolving forward refs).
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Replace the fanin lists of previously-added gates. Used by parsers
    /// that allocate all gate ids first and resolve references second.
    pub fn set_fanins(&mut self, resolved: Vec<(GateId, Vec<GateId>)>) {
        for (id, fanin) in resolved {
            self.gates[id as usize].fanin = fanin;
        }
    }

    /// Validate and freeze into an immutable [`Netlist`].
    pub fn build(self) -> Result<Netlist, NetlistError> {
        if self.gates.is_empty() {
            return Err(NetlistError::Empty);
        }
        let n = self.gates.len();

        // Arity and reference validation.
        for g in &self.gates {
            let (lo, hi) = g.kind.arity();
            if g.fanin.len() < lo || g.fanin.len() > hi {
                return Err(NetlistError::BadArity {
                    gate: g.name.clone(),
                    kind: g.kind.bench_name(),
                    got: g.fanin.len(),
                });
            }
            for &f in &g.fanin {
                if f as usize >= n {
                    return Err(NetlistError::UndefinedSignal {
                        gate: g.name.clone(),
                        signal: format!("#{f}"),
                    });
                }
            }
        }

        // Derive fanout adjacency.
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); n];
        for (i, g) in self.gates.iter().enumerate() {
            for &f in &g.fanin {
                fanout[f as usize].push(i as GateId);
            }
        }

        // Combinational cycle check: DFS over the graph with DFF outputs
        // treated as sources (a DFF's fanin edge does not propagate
        // combinationally within a delta cycle).
        // colors: 0 = white, 1 = on stack, 2 = done.
        let mut color = vec![0u8; n];
        let mut stack: Vec<(GateId, usize)> = Vec::new();
        for start in 0..n as GateId {
            if color[start as usize] != 0 {
                continue;
            }
            stack.push((start, 0));
            color[start as usize] = 1;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                // A DFF breaks combinational propagation: do not traverse
                // its fanout from within this DFS — its readers see a
                // registered value.
                let outs: &[GateId] = if self.gates[v as usize].kind.is_sequential() {
                    &[]
                } else {
                    &fanout[v as usize]
                };
                if *next < outs.len() {
                    let w = outs[*next];
                    *next += 1;
                    match color[w as usize] {
                        0 => {
                            color[w as usize] = 1;
                            stack.push((w, 0));
                        }
                        1 => {
                            return Err(NetlistError::CombinationalCycle {
                                through: self.gates[w as usize].name.clone(),
                            });
                        }
                        _ => {}
                    }
                } else {
                    color[v as usize] = 2;
                    stack.pop();
                }
            }
        }

        let inputs: Vec<GateId> = self
            .gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_input())
            .map(|(i, _)| i as GateId)
            .collect();
        let dffs: Vec<GateId> = self
            .gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(i, _)| i as GateId)
            .collect();

        Ok(Netlist {
            name: self.name,
            gates: self.gates,
            fanout,
            inputs,
            outputs: self.outputs,
            dffs,
            by_name: self.by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // a, b inputs; n1 = NAND(a,b); o = NOT(n1); output o
        let mut b = NetlistBuilder::new("tiny");
        let a = b.add_input("a").unwrap();
        let bb = b.add_input("b").unwrap();
        let n1 = b.add_gate("n1", GateKind::Nand, vec![a, bb]).unwrap();
        let o = b.add_gate("o", GateKind::Not, vec![n1]).unwrap();
        b.mark_output(o);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_derives_fanout() {
        let n = tiny();
        assert_eq!(n.len(), 4);
        assert_eq!(n.num_logic_gates(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        let a = n.find("a").unwrap();
        let n1 = n.find("n1").unwrap();
        assert_eq!(n.fanout(a), &[n1]);
        assert_eq!(n.fanin(n1).len(), 2);
        assert_eq!(n.num_edges(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetlistBuilder::new("dup");
        b.add_input("x").unwrap();
        assert!(matches!(b.add_input("x"), Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.add_input("a").unwrap();
        b.add_gate("g", GateKind::And, vec![a]).unwrap(); // AND needs >= 2
        assert!(matches!(b.build(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NetlistBuilder::new("cyc");
        let a = b.add_input("a").unwrap();
        // g1 = AND(a, g2); g2 = NOT(g1) — a combinational loop.
        // Builder allows forward references by id, so reserve slots:
        let g1 = b.add_gate("g1", GateKind::And, vec![a, 2]).unwrap();
        let _g2 = b.add_gate("g2", GateKind::Not, vec![g1]).unwrap();
        assert!(matches!(b.build(), Err(NetlistError::CombinationalCycle { .. })));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.add_input("a").unwrap();
        // q = DFF(g1); g1 = AND(a, q) — legal sequential loop.
        let g1 = b.add_gate("g1", GateKind::And, vec![a, 2]).unwrap();
        let q = b.add_gate("q", GateKind::Dff, vec![g1]).unwrap();
        b.mark_output(q);
        let n = b.build().expect("sequential loop must be accepted");
        assert_eq!(n.dffs(), &[q]);
    }

    #[test]
    fn dangling_reference_rejected() {
        let mut b = NetlistBuilder::new("dangle");
        let a = b.add_input("a").unwrap();
        b.add_gate("g", GateKind::Not, vec![a + 40]).unwrap();
        assert!(matches!(b.build(), Err(NetlistError::UndefinedSignal { .. })));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(NetlistBuilder::new("e").build(), Err(NetlistError::Empty)));
    }

    #[test]
    fn multi_pin_reader_appears_twice_in_fanout() {
        let mut b = NetlistBuilder::new("mp");
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", GateKind::And, vec![a, a]).unwrap();
        b.mark_output(g);
        let n = b.build().unwrap();
        assert_eq!(n.fanout(a), &[g, g]);
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut b = NetlistBuilder::new("oo");
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", GateKind::Not, vec![a]).unwrap();
        b.mark_output(g);
        b.mark_output(g);
        assert_eq!(b.build().unwrap().outputs().len(), 1);
    }
}
