//! Property-style tests for four-valued logic: the algebraic laws
//! gate-level simulation correctness rests on, checked over a
//! deterministic sweep of random vectors (the offline build has no
//! proptest, so cases are generated with an explicit PRNG).

use pls_logic::{eval_gate, PackedPins, Value};
use pls_netlist::GateKind;

const VALUES: [Value; 4] = [Value::V0, Value::V1, Value::X, Value::Z];
const NARY: [GateKind; 6] =
    [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor, GateKind::Xor, GateKind::Xnor];

/// splitmix64 — drives the case sweeps deterministically.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn value(s: &mut u64) -> Value {
    VALUES[(mix(s) % 4) as usize]
}

fn inputs(s: &mut u64) -> Vec<Value> {
    let n = 2 + mix(s) % 4;
    (0..n).map(|_| value(s)).collect()
}

#[test]
fn nary_gates_are_permutation_invariant() {
    let mut s = 1u64;
    for _ in 0..256 {
        let kind = NARY[(mix(&mut s) % 6) as usize];
        let mut ins = inputs(&mut s);
        let before = eval_gate(kind, &ins);
        let (a, b) = ((mix(&mut s) as usize) % ins.len(), (mix(&mut s) as usize) % ins.len());
        ins.swap(a, b);
        assert_eq!(eval_gate(kind, &ins), before);
    }
}

#[test]
fn x_never_creates_certainty() {
    // Replacing one input with X can only keep the output or turn it
    // unknown — never flip a known output to the other known value.
    let mut s = 2u64;
    for _ in 0..256 {
        let kind = NARY[(mix(&mut s) % 6) as usize];
        let ins = inputs(&mut s);
        let known = eval_gate(kind, &ins);
        let mut fuzzed = ins.clone();
        let p = (mix(&mut s) as usize) % ins.len();
        fuzzed[p] = Value::X;
        let fuzzy = eval_gate(kind, &fuzzed);
        assert!(
            fuzzy == known || fuzzy == Value::X,
            "{kind:?}{ins:?} = {known}, X-poisoned gave {fuzzy}"
        );
    }
}

#[test]
fn z_behaves_exactly_like_x_at_gate_inputs() {
    let mut s = 3u64;
    for _ in 0..256 {
        let kind = NARY[(mix(&mut s) % 6) as usize];
        let mut with_x = inputs(&mut s);
        let mut with_z = with_x.clone();
        let p = (mix(&mut s) as usize) % with_x.len();
        with_x[p] = Value::X;
        with_z[p] = Value::Z;
        assert_eq!(eval_gate(kind, &with_x), eval_gate(kind, &with_z));
    }
}

#[test]
fn negated_kinds_are_exact_complements() {
    let mut s = 4u64;
    for _ in 0..256 {
        let ins = inputs(&mut s);
        for (pos, neg) in [
            (GateKind::And, GateKind::Nand),
            (GateKind::Or, GateKind::Nor),
            (GateKind::Xor, GateKind::Xnor),
        ] {
            assert_eq!(eval_gate(pos, &ins).not(), eval_gate(neg, &ins));
        }
    }
}

#[test]
fn wide_gates_reduce_like_folds() {
    let mut s = 5u64;
    for _ in 0..256 {
        let ins = inputs(&mut s);
        let and_fold = ins.iter().copied().reduce(Value::and).unwrap();
        assert_eq!(eval_gate(GateKind::And, &ins), and_fold);
        let or_fold = ins.iter().copied().reduce(Value::or).unwrap();
        assert_eq!(eval_gate(GateKind::Or, &ins), or_fold);
        let xor_fold = ins.iter().copied().reduce(Value::xor).unwrap();
        assert_eq!(eval_gate(GateKind::Xor, &ins), xor_fold);
    }
}

#[test]
fn known_inputs_give_known_outputs() {
    let mut s = 6u64;
    for _ in 0..256 {
        let kind = NARY[(mix(&mut s) % 6) as usize];
        let n = 2 + mix(&mut s) % 4;
        let ins: Vec<Value> =
            (0..n).map(|_| Value::from_bool(mix(&mut s).is_multiple_of(2))).collect();
        assert!(eval_gate(kind, &ins).is_known());
    }
}

#[test]
fn stimulus_streams_are_independent_and_reproducible() {
    use pls_logic::InputStream;
    let mut s = 7u64;
    for _ in 0..64 {
        let seed = mix(&mut s) % 10_000;
        let (a, b) = ((mix(&mut s) % 64) as u32, (mix(&mut s) % 64) as u32);
        let run = |input: u32| -> Vec<Option<Value>> {
            let mut st = InputStream::new(seed, input, 0.5);
            (0..32).map(|_| st.tick()).collect()
        };
        assert_eq!(run(a), run(a));
        if a != b {
            // Streams for different inputs differ (overwhelmingly likely
            // over 32 ticks; equality would signal a seeding bug).
            assert_ne!(run(a), run(b));
        }
    }
}

#[test]
fn packed_evaluation_equals_eval_gate_at_every_width() {
    // Every kind at every width `GateKind::arity` allows, up to the
    // capacity: several random pin vectors each (X and Z included), plus
    // the all-known and all-unknown corners where the counts are extreme.
    let mut s = 8u64;
    for kind in GateKind::ALL.into_iter().filter(|k| !matches!(k, GateKind::Input | GateKind::Dff))
    {
        let (lo, hi) = kind.arity();
        for width in lo..=hi {
            let mut cases: Vec<Vec<Value>> =
                (0..4).map(|_| (0..width).map(|_| value(&mut s)).collect()).collect();
            cases.push(vec![Value::V1; width]);
            cases.push(vec![Value::Z; width]);
            cases.push(
                (0..width).map(|_| Value::from_bool(!mix(&mut s).is_multiple_of(64))).collect(),
            );
            for pins in cases {
                let reference = eval_gate(kind, &pins);
                assert_eq!(
                    packed::<8>(kind, &pins),
                    reference,
                    "{kind:?} over {width} pins {pins:?}"
                );
                if width <= PackedPins::<1>::CAPACITY {
                    assert_eq!(
                        packed::<1>(kind, &pins),
                        reference,
                        "{kind:?} over {width} pins {pins:?}"
                    );
                }
            }
        }
    }
}

/// `kind` over `pins`, evaluated from a `PackedPins<W>`.
fn packed<const W: usize>(kind: GateKind, pins: &[Value]) -> Value {
    let mut packed = PackedPins::<W>::new(pins.len());
    for (pin, &v) in pins.iter().enumerate() {
        packed.set(pin, v);
    }
    packed.eval(kind, pins.len())
}

#[test]
fn packed_capacities_are_one_word_and_the_widest_gate() {
    assert_eq!(PackedPins::<1>::CAPACITY, 32);
    assert_eq!(PackedPins::<8>::CAPACITY, GateKind::MAX_ARITY);
    assert_eq!(std::mem::size_of::<PackedPins<1>>(), 8);
}

#[test]
#[should_panic(expected = "at most 32 pins")]
fn one_word_refuses_a_33rd_pin() {
    PackedPins::<1>::new(33);
}

#[test]
fn packed_pins_round_trip_across_word_boundaries() {
    round_trip::<8>(&[0, 31, 32, 63, 64, 95, 96, 127, 128, 191, 192, 253, 254]);
    round_trip::<1>(&[0, 1, 15, 16, 30, 31]);
}

/// Set `probes` of a full-width `PackedPins<W>` at random, checking each
/// read-back and that no other pin moved.
fn round_trip<const W: usize>(probes: &[usize]) {
    let mut s = 9u64;
    let width = PackedPins::<W>::CAPACITY;
    let mut packed = PackedPins::<W>::new(width);
    let mut reference = vec![Value::X; width];
    for _ in 0..4 {
        for &pin in probes {
            let v = value(&mut s);
            packed.set(pin, v);
            reference[pin] = v;
            assert_eq!(packed.get(pin), v, "pin {pin}");
        }
        // Setting one pin never disturbs its neighbours.
        assert!((0..width).all(|pin| packed.get(pin) == reference[pin]));
    }
}
