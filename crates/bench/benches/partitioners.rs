//! Partitioner runtime benchmark — substantiates the paper's §1 claim that
//! the multilevel heuristic is a *fast linear time* algorithm (`O(N_E)`):
//! its runtime should scale with circuit size like the trivially-linear
//! Random partitioner does, across the three paper benchmarks, and its
//! cost per pin (`N_V + N_E`) should stay flat from 1k to 100k gates.

use pls_bench::bench_case;
use pls_netlist::IscasSynth;
use pls_partition::{all_partitioners, CircuitGraph, Partitioner};

fn main() {
    let circuits: Vec<(String, CircuitGraph)> = IscasSynth::paper_suite()
        .iter()
        .map(|s| {
            let n = s.build();
            (n.name().to_string(), CircuitGraph::from_netlist(&n))
        })
        .collect();

    for (name, graph) in &circuits {
        for strategy in all_partitioners() {
            bench_case("partition_k8", &format!("{}/{name}", strategy.name()), 20, || {
                strategy.partition(graph, 8, 0)
            });
        }
    }

    // Linearity probe: multilevel runtime over growing synthetic sizes,
    // with ns per pin beside the time so super-linear growth shows as a
    // rising column. The series has to reach circuits whose largest nets
    // hold thousands of pins: a `Σ |net|²` term is invisible below that
    // (the 1k–8k points alone once read "near-linear" over a quadratic
    // refiner).
    let sizes = [1_000usize, 2_000, 4_000, 8_000, 32_000];
    let series =
        sizes.iter().map(|&gates| (gates.to_string(), IscasSynth::small(gates, 1), 15)).chain([(
            "frontend_100k".to_string(),
            IscasSynth::new("synth100k", 666, 100_000, 1428),
            5,
        )]);
    for (label, synth, samples) in series {
        let g = CircuitGraph::from_netlist(&synth.build());
        let pins = g.len() + g.num_edges();
        let ml = pls_partition::MultilevelPartitioner::default();
        let min = bench_case("multilevel_scaling", &label, samples, || ml.partition(&g, 8, 0));
        println!(
            "multilevel_scaling/{label}: {pins} pins, {:.0} ns/pin",
            min.as_nanos() as f64 / pins as f64
        );
    }
}
