//! Combinational gate evaluation over four-valued logic: over a slice of
//! pin values ([`eval_gate`], the reference), and over pins packed two
//! bits each ([`PackedPins`], what a gate-per-LP gate keeps in its state).

use pls_netlist::GateKind;

use crate::value::Value;

/// Evaluate a combinational gate of the given kind over its input values.
///
/// # Panics
///
/// Panics on [`GateKind::Input`] and [`GateKind::Dff`] — primary inputs
/// are driven by stimulus and flip-flops are stateful elements evaluated
/// by the simulator, not by this pure function — and on empty inputs.
pub fn eval_gate(kind: GateKind, inputs: &[Value]) -> Value {
    assert!(!inputs.is_empty(), "eval_gate needs at least one input");
    match kind {
        GateKind::And => inputs.iter().copied().reduce(Value::and).unwrap(),
        GateKind::Nand => inputs.iter().copied().reduce(Value::and).unwrap().not(),
        GateKind::Or => inputs.iter().copied().reduce(Value::or).unwrap(),
        GateKind::Nor => inputs.iter().copied().reduce(Value::or).unwrap().not(),
        GateKind::Xor => inputs.iter().copied().reduce(Value::xor).unwrap(),
        GateKind::Xnor => inputs.iter().copied().reduce(Value::xor).unwrap().not(),
        GateKind::Not => inputs[0].not(),
        GateKind::Buf => inputs[0].input_view(),
        GateKind::Input | GateKind::Dff => {
            panic!("{kind:?} is not combinationally evaluable")
        }
    }
}

/// The input pins of one gate at two bits each, in `W` words: up to
/// `32·W` pins, and never more than [`GateKind::MAX_ARITY`]. A gate-per-LP
/// gate keeps up to 32 pins as one `PackedPins<1>` inline in its state and
/// boxes the `PackedPins<8>` that holds any wider gate; both are the same
/// code. Each pin keeps its exact [`Value`]; evaluation reads `Z` as `X`,
/// as [`eval_gate`] does. Pins past the gate's width stay `V0` and are
/// never set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPins<const W: usize>([u64; W]);

impl<const W: usize> PackedPins<W> {
    /// The most pins `W` words hold: `32·W`, capped at
    /// [`GateKind::MAX_ARITY`].
    pub const CAPACITY: usize =
        if 32 * W < GateKind::MAX_ARITY { 32 * W } else { GateKind::MAX_ARITY };

    /// `width` pins, every one `X` (not yet driven).
    ///
    /// # Panics
    /// If `width` exceeds [`Self::CAPACITY`].
    pub fn new(width: usize) -> Self {
        assert!(
            width <= Self::CAPACITY,
            "{W} word(s) hold at most {} pins, not {width}",
            Self::CAPACITY
        );
        let mut pins = PackedPins([0; W]);
        for pin in 0..width {
            pins.set(pin, Value::X);
        }
        pins
    }

    /// The value of pin `pin`.
    pub fn get(&self, pin: usize) -> Value {
        match (self.0[pin / 32] >> (2 * (pin % 32))) & 3 {
            0 => Value::V0,
            1 => Value::V1,
            2 => Value::X,
            _ => Value::Z,
        }
    }

    /// Set pin `pin` to `v`.
    pub fn set(&mut self, pin: usize, v: Value) {
        let (word, shift) = (pin / 32, 2 * (pin % 32));
        self.0[word] = (self.0[word] & !(3 << shift)) | ((v as u64) << shift);
    }

    /// [`eval_gate`] over the first `width` pins, from three popcounts:
    /// the pins that are `V1`, the pins that are `X` or `Z`, and the rest,
    /// which are `V0`. (The encoding is `Value`'s discriminant: `V0` = 00,
    /// `V1` = 01, `X` = 10, `Z` = 11, so the high bit marks an unknown.)
    ///
    /// # Panics
    /// As [`eval_gate`], and if `width` is zero or exceeds
    /// [`Self::CAPACITY`].
    pub fn eval(&self, kind: GateKind, width: usize) -> Value {
        assert!((1..=Self::CAPACITY).contains(&width), "cannot evaluate {width} pins");
        const LOW: u64 = 0x5555_5555_5555_5555;
        let (mut ones, mut unknown) = (0, 0);
        for &w in &self.0[..width.div_ceil(32)] {
            let high = (w >> 1) & LOW;
            unknown += high.count_ones() as usize;
            ones += (w & !high & LOW).count_ones() as usize;
        }
        let zeros = width - ones - unknown;
        let and = || match (zeros, unknown) {
            (0, 0) => Value::V1,
            (0, _) => Value::X,
            _ => Value::V0,
        };
        let or = || match (ones, unknown) {
            (0, 0) => Value::V0,
            (0, _) => Value::X,
            _ => Value::V1,
        };
        let xor = || if unknown > 0 { Value::X } else { Value::from_bool(ones % 2 == 1) };
        match kind {
            GateKind::And => and(),
            GateKind::Nand => and().not(),
            GateKind::Or => or(),
            GateKind::Nor => or().not(),
            GateKind::Xor => xor(),
            GateKind::Xnor => xor().not(),
            GateKind::Not => self.get(0).not(),
            GateKind::Buf => self.get(0).input_view(),
            GateKind::Input | GateKind::Dff => {
                panic!("{kind:?} is not combinationally evaluable")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Value::*;

    #[test]
    fn two_input_gates() {
        assert_eq!(eval_gate(GateKind::And, &[V1, V1]), V1);
        assert_eq!(eval_gate(GateKind::Nand, &[V1, V1]), V0);
        assert_eq!(eval_gate(GateKind::Or, &[V0, V0]), V0);
        assert_eq!(eval_gate(GateKind::Nor, &[V0, V0]), V1);
        assert_eq!(eval_gate(GateKind::Xor, &[V1, V0]), V1);
        assert_eq!(eval_gate(GateKind::Xnor, &[V1, V0]), V0);
    }

    #[test]
    fn wide_gates_reduce_left_to_right() {
        assert_eq!(eval_gate(GateKind::And, &[V1, V1, V1, V0]), V0);
        assert_eq!(eval_gate(GateKind::Or, &[V0, V0, V1]), V1);
        // XOR over N inputs is odd parity.
        assert_eq!(eval_gate(GateKind::Xor, &[V1, V1, V1]), V1);
        assert_eq!(eval_gate(GateKind::Xor, &[V1, V1, V1, V1]), V0);
    }

    #[test]
    fn unary_gates() {
        assert_eq!(eval_gate(GateKind::Not, &[V0]), V1);
        assert_eq!(eval_gate(GateKind::Buf, &[V1]), V1);
        assert_eq!(eval_gate(GateKind::Buf, &[Z]), X, "buffer resolves Z to X");
    }

    #[test]
    fn controlling_values_beat_x() {
        assert_eq!(eval_gate(GateKind::And, &[V0, X]), V0);
        assert_eq!(eval_gate(GateKind::Nand, &[V0, X]), V1);
        assert_eq!(eval_gate(GateKind::Or, &[V1, X]), V1);
        assert_eq!(eval_gate(GateKind::Nor, &[V1, X]), V0);
    }

    #[test]
    #[should_panic]
    fn input_kind_panics() {
        eval_gate(GateKind::Input, &[V0]);
    }

    #[test]
    #[should_panic]
    fn dff_kind_panics() {
        eval_gate(GateKind::Dff, &[V0]);
    }

    /// Pessimism check: replacing any single known input by X never turns a
    /// known output into a *different* known output (monotonicity of the
    /// Kleene extension). This is the property that makes X-propagation
    /// safe for logic verification.
    #[test]
    fn x_monotonicity() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for a in [V0, V1] {
                for b in [V0, V1] {
                    let known = eval_gate(kind, &[a, b]);
                    for (xa, xb) in [(X, b), (a, X)] {
                        let fuzzy = eval_gate(kind, &[xa, xb]);
                        assert!(
                            fuzzy == known || fuzzy == X,
                            "{kind:?}({a},{b})={known} but with X gave {fuzzy}"
                        );
                    }
                }
            }
        }
    }
}
