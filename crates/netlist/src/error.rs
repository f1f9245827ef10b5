//! Error type for netlist construction and `.bench` parsing.

use std::fmt;

/// Errors produced while building or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// Two gates declared with the same output signal name.
    DuplicateName(String),
    /// A gate references a signal that is never defined.
    UndefinedSignal {
        /// The gate whose fanin is broken.
        gate: String,
        /// The missing signal name.
        signal: String,
    },
    /// Gate has an illegal number of inputs for its kind.
    BadArity {
        /// The offending gate.
        gate: String,
        /// Its kind's `.bench` keyword.
        kind: &'static str,
        /// The fanin count it was given.
        got: usize,
    },
    /// The combinational part of the circuit contains a cycle (cycles are
    /// only legal through DFFs).
    CombinationalCycle {
        /// A gate on the cycle.
        through: String,
    },
    /// `.bench` parse error with line number.
    Parse {
        /// 1-based line number in the `.bench` text.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The netlist is empty.
    Empty,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            NetlistError::UndefinedSignal { gate, signal } => {
                write!(f, "gate `{gate}` references undefined signal `{signal}`")
            }
            NetlistError::BadArity { gate, kind, got } => {
                write!(f, "gate `{gate}` of kind {kind} has illegal fanin count {got}")
            }
            NetlistError::CombinationalCycle { through } => {
                write!(f, "combinational cycle detected through `{through}`")
            }
            NetlistError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            NetlistError::Empty => write!(f, "netlist has no gates"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        let e = NetlistError::DuplicateName("G12".into());
        assert!(e.to_string().contains("G12"));
        let e = NetlistError::Parse { line: 7, msg: "bad token".into() };
        assert!(e.to_string().contains("line 7"));
    }
}
