//! Gate types of the ISCAS'89 cell library and the `Gate` vertex record.

/// Identifier of a gate (vertex) inside a [`crate::Netlist`].
///
/// Gates are stored in a dense vector; ids are indices into it. Using a
/// 32-bit id keeps the adjacency structures compact, which matters for the
/// ten-thousand-gate benchmarks the paper evaluates.
pub type GateId = u32;

/// The functional kind of a gate.
///
/// This is the ISCAS'89 cell library (the `.bench` format's gate set) plus
/// an explicit `Input` kind for primary inputs. Primary *outputs* are not a
/// gate kind: the `.bench` format marks existing signals as observable, so
/// the netlist keeps a separate output list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input; has no fanin and is driven by the testbench/stimulus.
    Input,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (odd parity).
    Xor,
    /// N-input XNOR (even parity).
    Xnor,
    /// Inverter.
    Not,
    /// Non-inverting buffer.
    Buf,
    /// D flip-flop (the ISCAS'89 `DFF` cell). Its single fanin is the D
    /// input; clocking is implicit (one global clock), which is the
    /// convention of the `.bench` format.
    Dff,
}

impl GateKind {
    /// All kinds, in a stable order (useful for histograms and tests).
    pub const ALL: [GateKind; 10] = [
        GateKind::Input,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Dff,
    ];

    /// The keyword used for this kind in the `.bench` format.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Dff => "DFF",
        }
    }

    /// Parse a `.bench` gate keyword (case-insensitive). `BUF` and `BUFF`
    /// are both accepted; real ISCAS'89 files use `BUFF`.
    pub fn from_bench_name(s: &str) -> Option<GateKind> {
        let up = s.to_ascii_uppercase();
        Some(match up.as_str() {
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "DFF" => GateKind::Dff,
            _ => return None,
        })
    }

    /// Whether this kind is a sequential (state-holding) element.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Whether this kind is a primary input.
    pub fn is_input(self) -> bool {
        matches!(self, GateKind::Input)
    }

    /// The widest n-ary gate: a pin number travels in one byte and a
    /// compiled op counts its operands in one, so 255 inputs is the most
    /// both execution engines can represent.
    pub const MAX_ARITY: usize = 255;

    /// Legal fanin arity range `(min, max)` for this kind.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input => (0, 0),
            GateKind::Not | GateKind::Buf | GateKind::Dff => (1, 1),
            _ => (2, Self::MAX_ARITY),
        }
    }
}

/// One vertex of the circuit graph: a logic gate, flip-flop or primary input.
///
/// Fanin order is significant (it defines input pin numbering for
/// simulation); fanout is derived and stored by the [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Signal name of this gate's output (its `.bench` identifier).
    pub name: String,
    /// Functional kind.
    pub kind: GateKind,
    /// Driving gates, one per input pin, in pin order.
    pub fanin: Vec<GateId>,
}

impl Gate {
    /// Create a gate record. Arity is validated later by the netlist
    /// builder, not here, so that partially-constructed netlists can exist
    /// while parsing.
    pub fn new(name: impl Into<String>, kind: GateKind, fanin: Vec<GateId>) -> Self {
        Gate { name: name.into(), kind, fanin }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_name_round_trips() {
        for k in GateKind::ALL {
            if k == GateKind::Input {
                continue; // INPUT is a declaration, not a gate keyword
            }
            assert_eq!(GateKind::from_bench_name(k.bench_name()), Some(k));
        }
    }

    #[test]
    fn bench_name_is_case_insensitive() {
        assert_eq!(GateKind::from_bench_name("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_name("Dff"), Some(GateKind::Dff));
        assert_eq!(GateKind::from_bench_name("buf"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_name("inv"), Some(GateKind::Not));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(GateKind::from_bench_name("MUX"), None);
        assert_eq!(GateKind::from_bench_name(""), None);
    }

    #[test]
    fn arity_ranges() {
        assert_eq!(GateKind::Input.arity(), (0, 0));
        assert_eq!(GateKind::Not.arity(), (1, 1));
        assert_eq!(GateKind::Dff.arity(), (1, 1));
        assert_eq!(GateKind::Nand.arity(), (2, 255));
    }

    #[test]
    fn sequential_flag() {
        assert!(GateKind::Dff.is_sequential());
        assert!(!GateKind::And.is_sequential());
        assert!(GateKind::Input.is_input());
    }
}
