//! Property-style tests for the netlist substrate: generator validity,
//! format round-trips, and levelization invariants over a deterministic
//! sweep of generated circuits (the offline build has no proptest, so the
//! cases are enumerated explicitly).

use pls_netlist::{bench_format, levelize, topo_order, CircuitStats, IscasSynth};

/// splitmix64 — drives the case sweeps deterministically.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64 deterministic (gates, seed) cases in the original proptest ranges.
fn cases() -> Vec<(usize, u64)> {
    let mut s = 0x5EED_u64;
    (0..64).map(|_| ((10 + mix(&mut s) % 590) as usize, mix(&mut s) % 10_000)).collect()
}

#[test]
fn generator_produces_valid_netlists() {
    for (gates, seed) in cases() {
        let synth = IscasSynth::small(gates, seed);
        let n = synth.build(); // panics/builder-errors would fail the test
        assert_eq!(n.num_logic_gates() - n.dffs().len(), gates);
        assert!(n.inputs().len() >= 2);
        assert!(!n.outputs().is_empty());
        // Fanin/fanout are mutually consistent.
        for id in n.ids() {
            for &f in n.fanin(id) {
                assert!(n.fanout(f).contains(&id));
            }
        }
    }
}

#[test]
fn bench_format_round_trips() {
    for (gates, seed) in cases().into_iter().take(32) {
        let n1 = IscasSynth::small(gates.min(300), seed).build();
        let text = bench_format::write(&n1);
        let n2 = bench_format::parse(n1.name(), &text).unwrap();
        assert_eq!(n1.len(), n2.len());
        // Structure identical under name mapping.
        for id in n1.ids() {
            let g1 = n1.gate(id);
            let id2 = n2.find(g1.name).expect("same names");
            let g2 = n2.gate(id2);
            assert_eq!(g1.kind, g2.kind);
            let f1: Vec<&str> = g1.fanin.iter().map(|&f| n1.gate(f).name).collect();
            let f2: Vec<&str> = g2.fanin.iter().map(|&f| n2.gate(f).name).collect();
            assert_eq!(f1, f2);
        }
        let o1: Vec<&str> = n1.outputs().iter().map(|&o| n1.gate(o).name).collect();
        let o2: Vec<&str> = n2.outputs().iter().map(|&o| n2.gate(o).name).collect();
        assert_eq!(o1, o2);
    }
}

#[test]
fn levelization_respects_combinational_edges() {
    for (gates, seed) in cases().into_iter().take(32) {
        let n = IscasSynth::small(gates.min(300), seed).build();
        let lv = levelize(&n);
        for id in n.ids() {
            if n.is_input(id) || n.is_dff(id) {
                assert_eq!(lv.level[id as usize], 0);
                continue;
            }
            // A combinational gate sits strictly above all its fanins
            // (DFF fanins count as level-0 sources).
            for &f in n.fanin(id) {
                let fl = if n.is_dff(f) { 0 } else { lv.level[f as usize] };
                assert!(lv.level[id as usize] > fl);
            }
        }
    }
}

#[test]
fn topo_order_is_consistent_permutation() {
    for (gates, seed) in cases().into_iter().take(32) {
        let n = IscasSynth::small(gates.min(300), seed).build();
        let order = topo_order(&n);
        assert_eq!(order.len(), n.len());
        let mut seen = vec![false; n.len()];
        let mut pos = vec![0usize; n.len()];
        for (i, &g) in order.iter().enumerate() {
            assert!(!seen[g as usize], "duplicate in topo order");
            seen[g as usize] = true;
            pos[g as usize] = i;
        }
        for id in n.ids() {
            if n.is_input(id) || n.is_dff(id) {
                continue;
            }
            for &f in n.fanin(id) {
                if !n.is_dff(f) {
                    assert!(pos[f as usize] < pos[id as usize]);
                }
            }
        }
    }
}

#[test]
fn stats_are_internally_consistent() {
    for (gates, seed) in cases().into_iter().take(32) {
        let n = IscasSynth::small(gates.min(300), seed).build();
        let s = CircuitStats::of(&n);
        assert_eq!(s.inputs + s.gates + s.dffs, n.len());
        assert_eq!(s.edges, n.num_edges());
        let hist_total: usize = s.kind_histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(hist_total, n.len());
        assert!(s.avg_fanout > 0.0);
        assert!(s.max_fanout >= 1);
    }
}

/// The `.bench` parser must never panic — arbitrary text yields either
/// a netlist or a structured error.
#[test]
fn parser_never_panics_on_garbage() {
    let mut s = 0xF055_u64;
    for _ in 0..256 {
        let lines = mix(&mut s) % 20;
        let mut text = String::new();
        for _ in 0..lines {
            let len = mix(&mut s) % 41;
            for _ in 0..len {
                text.push((b' ' + (mix(&mut s) % 95) as u8) as char);
            }
            text.push('\n');
        }
        let _ = bench_format::parse("fuzz", &text);
    }
}

/// Near-valid input: random mutations of a valid file still never panic
/// (they hit the deeper parse/validate paths garbage misses).
#[test]
fn parser_never_panics_on_mutations() {
    let mut s = 0x0BAD_C0DE_u64;
    for _ in 0..256 {
        let n = IscasSynth::small(30, mix(&mut s) % 500).build();
        let mut text = bench_format::write(&n);
        let pos = ((mix(&mut s) % 400) as usize).min(text.len()); // pure ASCII
        let insert_len = mix(&mut s) % 21;
        let insert: String =
            (0..insert_len).map(|_| (b' ' + (mix(&mut s) % 95) as u8) as char).collect();
        text.insert_str(pos, &insert);
        let _ = bench_format::parse("mut", &text);
    }
}
