//! The circuit graph: a dense, index-based gate-level netlist.
//!
//! This is the directed graph `G = (V, E)` of the paper's Section 3:
//! vertices are logic gates (and primary inputs and flip-flops), edges are
//! the signals that interconnect them.
//!
//! Storage is a handful of flat arrays, whatever the gate count: every
//! gate name in one string arena cut by offsets, one kind per gate, and
//! fanin and fanout as compressed sparse rows (one offsets array and one
//! id array each). Fanin rows are in pin order; the fanout table is the
//! counting-sort transpose of fanin, derived when the builder freezes
//! the netlist. Names resolve through a deterministic open-addressing
//! index over the arena, so a lookup hashes the borrowed key and compares
//! it against arena slices — no owned key is ever made.

use crate::csr::Csr;
use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};

/// An arena offset or table length as `u32`, the width every flat table
/// of the netlist indexes with.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("netlist tables are indexed by u32")
}

/// Gate names: one arena, cut by offsets, and an open-addressing index
/// over it (linear probing, load at most one half, FNV-1a hashes, so the
/// table is the same on every run).
#[derive(Debug, Clone)]
struct Names {
    arena: String,
    /// Name `id` is `arena[start[id]..start[id + 1]]`.
    start: Vec<u32>,
    /// Power-of-two probe table of ids; [`Names::EMPTY`] marks a free slot.
    slots: Vec<GateId>,
}

impl Names {
    const EMPTY: GateId = GateId::MAX;

    /// Room for `names` names of `bytes` bytes in total without regrowth.
    fn with_capacity(names: usize, bytes: usize) -> Names {
        let mut start = Vec::with_capacity(names + 1);
        start.push(0);
        Names {
            arena: String::with_capacity(bytes),
            start,
            slots: vec![Self::EMPTY; (2 * names).next_power_of_two().max(16)],
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn range(&self, id: GateId) -> std::ops::Range<usize> {
        self.start[id as usize] as usize..self.start[id as usize + 1] as usize
    }

    fn get(&self, id: GateId) -> &str {
        &self.arena[self.range(id)]
    }

    fn hash(name: &str) -> usize {
        let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        // Fold the high bits in: the mask keeps only the low ones.
        (h ^ (h >> 32)) as usize
    }

    /// The probe slot holding `name`, or the free slot it would take.
    fn probe(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(name) & mask;
        loop {
            let id = self.slots[i];
            // Bytes, not `str`: a probe need not check char boundaries.
            if id == Self::EMPTY || self.arena.as_bytes()[self.range(id)] == *name.as_bytes() {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn find(&self, name: &str) -> Option<GateId> {
        Some(self.slots[self.probe(name)]).filter(|&id| id != Self::EMPTY)
    }

    /// Append `name` as the next id, or `None` if it is taken.
    fn push(&mut self, name: &str) -> Option<GateId> {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(name);
        if self.slots[slot] != Self::EMPTY {
            return None;
        }
        let id = offset(self.len());
        assert!(id != Self::EMPTY, "gate ids are u32");
        self.arena.push_str(name);
        self.start.push(offset(self.arena.len()));
        self.slots[slot] = id;
        Some(id)
    }

    /// Double the probe table and re-insert every name.
    fn grow(&mut self) {
        self.slots = vec![Self::EMPTY; self.slots.len() * 2];
        for id in 0..offset(self.len()) {
            let slot = self.probe(self.get(id));
            self.slots[slot] = id;
        }
    }
}

/// An immutable, validated gate-level circuit.
///
/// Construct one with [`NetlistBuilder`], by parsing a `.bench` file
/// ([`crate::bench_format::parse`]), or with the synthetic benchmark
/// generator ([`crate::generate::IscasSynth`]).
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    names: Names,
    kinds: Vec<GateKind>,
    /// Driving gates of each gate, in pin order.
    fanin: Csr<GateId>,
    /// Derived fanout adjacency: row `g` lists every gate with `g` in its
    /// fanin, ascending, once per pin that reads it (a gate reading the
    /// same signal on two pins appears twice, matching event routing
    /// needs).
    fanout: Csr<GateId>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
}

impl Netlist {
    /// Circuit name (e.g. `"s9234"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (vertices), counting primary inputs and DFFs.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the netlist has no gates (never true for a built netlist).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The gate with the given id, borrowed from the netlist's tables.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        Gate { name: self.names.get(id), kind: self.kind(id), fanin: self.fanin(id) }
    }

    /// The kind of a gate (without building its [`Gate`] view).
    pub fn kind(&self, id: GateId) -> GateKind {
        self.kinds[id as usize]
    }

    /// All gates in id order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate<'_>> + '_ {
        (0..self.len() as GateId).map(|id| self.gate(id))
    }

    /// Ids of all gates, `0..len`.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        0..self.len() as GateId
    }

    /// Fanout of a gate: every reader, once per reading pin.
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        self.fanout.row(id as usize)
    }

    /// Fanin of a gate in pin order.
    pub fn fanin(&self, id: GateId) -> &[GateId] {
        self.fanin.row(id as usize)
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
        self.names.find(name)
    }

    /// Number of directed edges (sum of fanin arities). This is the `N_E`
    /// of the paper's complexity claim for the multilevel heuristic.
    pub fn num_edges(&self) -> usize {
        self.fanin.values().len()
    }

    /// Number of logic gates excluding primary inputs (the paper's Table 1
    /// "Gates" column counts the circuit's gates, not its input pads).
    pub fn num_logic_gates(&self) -> usize {
        self.len() - self.inputs.len()
    }

    /// Whether `id` is a primary input.
    pub fn is_input(&self, id: GateId) -> bool {
        self.kind(id).is_input()
    }

    /// Whether `id` is a DFF.
    pub fn is_dff(&self, id: GateId) -> bool {
        self.kind(id).is_sequential()
    }
}

/// Mutable builder for [`Netlist`]. Validates on [`NetlistBuilder::build`]:
/// names unique, arities legal, no dangling references, and no
/// combinational cycles (cycles must pass through a DFF).
///
/// The builder fills the netlist's flat tables directly, fanin rows in id
/// order. [`NetlistBuilder::add_gate`] declares a gate and closes its row
/// at once; the parser declares every name first (forward references are
/// legal) and then closes the rows one by one.
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    names: Names,
    kinds: Vec<GateKind>,
    /// Fanin rows closed so far (one per gate once all are closed).
    fanin: Csr<GateId>,
    outputs: Vec<GateId>,
    is_output: Vec<bool>,
}

impl NetlistBuilder {
    /// Start building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0, 0, 0)
    }

    /// Start building a circuit with room for `gates` gates whose names
    /// total `name_bytes` bytes and `pins` fanin pins in all.
    pub(crate) fn with_capacity(
        name: impl Into<String>,
        gates: usize,
        name_bytes: usize,
        pins: usize,
    ) -> Self {
        NetlistBuilder {
            name: name.into(),
            names: Names::with_capacity(gates, name_bytes),
            kinds: Vec::with_capacity(gates),
            fanin: Csr::with_capacity(gates, pins),
            outputs: Vec::new(),
            is_output: Vec::with_capacity(gates),
        }
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no gates were added yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Declare a primary input. Returns its id.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> Result<GateId, NetlistError> {
        self.add_gate(name, GateKind::Input, [])
    }

    /// Add a gate with explicit fanin ids. Returns its id.
    pub fn add_gate(
        &mut self,
        name: impl AsRef<str>,
        kind: GateKind,
        fanin: impl AsRef<[GateId]>,
    ) -> Result<GateId, NetlistError> {
        debug_assert_eq!(self.fanin.rows(), self.len(), "a fanin row is still open");
        let id = self.declare(name.as_ref(), kind)?;
        self.fanin.push_row(fanin.as_ref().iter().copied());
        Ok(id)
    }

    /// Append a gate without closing its fanin row.
    pub(crate) fn declare(&mut self, name: &str, kind: GateKind) -> Result<GateId, NetlistError> {
        let id = self.names.push(name).ok_or_else(|| NetlistError::DuplicateName(name.into()))?;
        self.kinds.push(kind);
        self.is_output.push(false);
        Ok(id)
    }

    /// Append one pin to the first open fanin row.
    pub(crate) fn push_pin(&mut self, driver: GateId) {
        self.fanin.push(driver);
    }

    /// Close the first open fanin row with the pins pushed since the last.
    pub(crate) fn close_row(&mut self) {
        debug_assert!(self.fanin.rows() < self.len(), "no fanin row is open");
        self.fanin.close_row();
    }

    /// Rewire pin `pin` of an added gate to `driver`. Generators add
    /// flip-flops with a placeholder D input and wire it once the logic
    /// that feeds it exists. Panics if gate `id` has no pin `pin`.
    pub fn set_fanin(&mut self, id: GateId, pin: usize, driver: GateId) {
        self.fanin.row_mut(id as usize)[pin] = driver;
    }

    /// Mark an existing gate's output signal as a primary output. Outputs
    /// keep their first-declaration order; marking one twice is a no-op.
    /// Panics if no gate `id` was added.
    pub fn mark_output(&mut self, id: GateId) {
        if !std::mem::replace(&mut self.is_output[id as usize], true) {
            self.outputs.push(id);
        }
    }

    /// Look up a gate id by name (for parsers resolving forward refs).
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names.find(name)
    }

    /// Validate and freeze into an immutable [`Netlist`].
    pub fn build(self) -> Result<Netlist, NetlistError> {
        if self.kinds.is_empty() {
            return Err(NetlistError::Empty);
        }
        assert_eq!(self.fanin.rows(), self.len(), "every fanin row must be closed");
        let n = self.kinds.len();

        // Arity and reference validation.
        for id in 0..n as GateId {
            let (kind, fanin) = (self.kinds[id as usize], self.fanin.row(id as usize));
            let (lo, hi) = kind.arity();
            if fanin.len() < lo || fanin.len() > hi {
                return Err(NetlistError::BadArity {
                    gate: self.names.get(id).into(),
                    kind: kind.bench_name(),
                    got: fanin.len(),
                });
            }
            if let Some(f) = fanin.iter().find(|&&f| f as usize >= n) {
                return Err(NetlistError::UndefinedSignal {
                    gate: self.names.get(id).into(),
                    signal: format!("#{f}"),
                });
            }
        }

        // Fanout: the transpose of fanin, readers ascending.
        let fanin = &self.fanin;
        let fanout = Csr::by_row(
            n,
            (0..n).flat_map(|i| fanin.row(i).iter().map(move |&f| (f as usize, i as GateId))),
        );

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
                let outs: &[GateId] = if self.kinds[v as usize].is_sequential() {
                    &[]
                } else {
                    fanout.row(v as usize)
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
                                through: self.names.get(w).into(),
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

        let having = |pred: fn(GateKind) -> bool| -> Vec<GateId> {
            (0..n as GateId).filter(|&id| pred(self.kinds[id as usize])).collect()
        };
        let inputs = having(GateKind::is_input);
        let dffs = having(GateKind::is_sequential);

        Ok(Netlist {
            name: self.name,
            names: self.names,
            kinds: self.kinds,
            fanin: self.fanin,
            fanout,
            inputs,
            outputs: self.outputs,
            dffs,
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
        // ... and at most 255, the widest gate the simulators represent.
        for (width, ok) in [(255, true), (256, false)] {
            let mut b = NetlistBuilder::new("wide");
            let a = b.add_input("a").unwrap();
            b.add_gate("g", GateKind::Xor, vec![a; width]).unwrap();
            assert_eq!(b.build().is_ok(), ok, "{width} inputs");
        }
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

    #[test]
    fn outputs_keep_first_declaration_order() {
        let mut b = NetlistBuilder::new("order");
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", GateKind::Not, [a]).unwrap();
        let h = b.add_gate("h", GateKind::Buf, [a]).unwrap();
        for id in [h, a, h, g, a] {
            b.mark_output(id);
        }
        assert_eq!(b.build().unwrap().outputs(), &[h, a, g]);
    }

    #[test]
    fn set_fanin_rewires_one_pin() {
        let mut b = NetlistBuilder::new("rewire");
        let a = b.add_input("a").unwrap();
        let q = b.add_gate("q", GateKind::Dff, [a]).unwrap();
        let g = b.add_gate("g", GateKind::Not, [q]).unwrap();
        b.set_fanin(q, 0, g);
        let n = b.build().unwrap();
        assert_eq!(n.fanin(q), &[g]);
        assert_eq!(n.fanout(g), &[q]);
        assert!(n.fanout(a).is_empty());
    }

    #[test]
    fn the_name_index_survives_growth() {
        // From an empty builder the probe table doubles many times; every
        // name stays found and no absent one appears.
        let mut b = NetlistBuilder::new("grow");
        for i in 0..5000 {
            assert_eq!(b.add_input(format!("n{i}")).unwrap(), i);
        }
        for i in 0..5000 {
            assert_eq!(b.find(&format!("n{i}")), Some(i));
        }
        assert_eq!(b.find("n5000"), None);
        assert_eq!(b.find(""), None);
        assert!(matches!(b.add_input("n4999"), Err(NetlistError::DuplicateName(_))));
    }
}
