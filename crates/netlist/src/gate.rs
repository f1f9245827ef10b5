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
        // Every keyword is at most four bytes: uppercase into a stack
        // buffer rather than a new string.
        let mut up = [0u8; 4];
        up.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        up.make_ascii_uppercase();
        Some(match &up[..s.len()] {
            b"AND" => GateKind::And,
            b"NAND" => GateKind::Nand,
            b"OR" => GateKind::Or,
            b"NOR" => GateKind::Nor,
            b"XOR" => GateKind::Xor,
            b"XNOR" => GateKind::Xnor,
            b"NOT" | b"INV" => GateKind::Not,
            b"BUF" | b"BUFF" => GateKind::Buf,
            b"DFF" => GateKind::Dff,
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

/// One vertex of the circuit graph — a logic gate, flip-flop or primary
/// input — as a view borrowed from the [`crate::Netlist`]'s tables.
///
/// Fanin order is significant (it defines input pin numbering for
/// simulation); fanout is derived and stored by the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate<'a> {
    /// Signal name of this gate's output (its `.bench` identifier).
    pub name: &'a str,
    /// Functional kind.
    pub kind: GateKind,
    /// Driving gates, one per input pin, in pin order.
    pub fanin: &'a [GateId],
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
        assert_eq!(GateKind::from_bench_name("FROB"), None);
        assert_eq!(GateKind::from_bench_name("BUFFER"), None);
        assert_eq!(GateKind::from_bench_name("AN"), None);
    }

    #[test]
    fn mixed_case_keywords_parse() {
        assert_eq!(GateKind::from_bench_name("nAnD"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_name("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_name("Inv"), Some(GateKind::Not));
        assert_eq!(GateKind::from_bench_name("dff"), Some(GateKind::Dff));
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
