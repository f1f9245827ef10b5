//! Std-only micro-benchmarks (the offline build has no criterion): wall
//! time of the partitioning stages and of single kernel runs, all
//! reported through [`bench_events`] as ns per unit of work.

use std::hint::black_box;

use pls_gatesim::ExecModel;
use pls_netlist::IscasSynth;
use pls_partition::{all_partitioners, CircuitGraph, MultilevelPartitioner, Partitioner};
use pls_timewarp::{Backend, Cancellation, KernelConfig, Simulator};

use crate::bench_events;
use crate::kernel_scenarios::GateSetup;

/// Time `f`, which returns how many `unit`s of work it did, and print one
/// line. The work's result must be consumed inside `f`.
fn timed(label: &str, unit: &str, samples: usize, f: impl FnMut() -> u64) {
    let m = bench_events(samples, f);
    println!(
        "{label}: median {:.1} ns/{unit} (min {:.1}), {:.3} ms/run ({} {unit}s, {samples} samples)",
        m.median_ns_per_event,
        m.min_ns_per_event,
        m.median_ns_per_event * m.events as f64 / 1e6,
        m.events
    );
}

/// [`timed`] per pin of `g` (`N_V + N_E`): the unit partitioning work is
/// linear in.
fn timed_per_pin<T>(label: &str, samples: usize, g: &CircuitGraph, mut f: impl FnMut() -> T) {
    let pins = (g.len() + g.num_edges()) as u64;
    timed(label, "pin", samples, || {
        black_box(f());
        pins
    });
}

/// Partitioner runtime — substantiates the paper's §1 claim that the
/// multilevel heuristic is a *fast linear time* algorithm (`O(N_E)`): its
/// runtime should scale with circuit size like the trivially-linear
/// Random partitioner does, across the three paper benchmarks, and its
/// cost per pin should stay flat from 1k to 100k gates.
pub fn partitioners() {
    for synth in IscasSynth::paper_suite() {
        let graph = CircuitGraph::from_netlist(&synth.build());
        for strategy in all_partitioners() {
            let label = format!("partition_k8/{}/{}", strategy.name(), graph.name());
            timed_per_pin(&label, 20, &graph, || strategy.partition(&graph, 8, 0));
        }
    }

    // Linearity probe: multilevel runtime over growing synthetic sizes;
    // super-linear growth shows as a rising ns/pin. The series has to
    // reach circuits whose largest nets hold thousands of pins: a
    // `Σ |net|²` term is invisible below that (the 1k–8k points alone once
    // read "near-linear" over a quadratic refiner).
    let sizes = [1_000usize, 2_000, 4_000, 8_000, 32_000];
    let series =
        sizes.iter().map(|&gates| (gates.to_string(), IscasSynth::small(gates, 1), 15)).chain([(
            "frontend_100k".to_string(),
            IscasSynth::new("synth100k", 666, 100_000, 1428),
            5,
        )]);
    for (label, synth, samples) in series {
        let g = CircuitGraph::from_netlist(&synth.build());
        let ml = MultilevelPartitioner;
        let label = format!("multilevel_scaling/{label}");
        timed_per_pin(&label, samples, &g, || ml.partition(&g, 8, 0));
    }
}

/// Time Warp kernel micro-benchmarks on the scenario suite's 800-gate
/// circuit: sequential event throughput, the virtual platform's protocol
/// overhead, telemetry overhead, lazy cancellation, and checkpoint
/// interval sensitivity (WARPED's periodic state saving, one of the design
/// choices DESIGN.md calls out). The tracked hot-path suite itself is
/// `bench_kernel`.
pub fn kernel() {
    let gates = GateSetup::synthetic(false);
    let app = gates.config(ExecModel::GatePerLp, None).build_app(&gates.netlist);
    let platform = Backend::Platform { assignment: &gates.part.assignment, nodes: 4 };
    let case = |name: &str, backend: Backend<'_>, record: bool, kernel: KernelConfig| {
        timed(&format!("kernel/{name}"), "event", 10, || {
            let mut sim = Simulator::new(&app).config(kernel);
            if record {
                sim = sim.record(10);
            }
            sim.run(backend).unwrap().stats.events_processed
        });
    };

    let default = KernelConfig::default();
    case("sequential_800g", Backend::Sequential, false, default);
    case("platform4_800g", platform, false, default);
    // The difference vs the line above is the telemetry overhead.
    case("platform4_800g_recorded", platform, true, default);
    let lazy = KernelConfig { cancellation: Cancellation::Lazy, ..default };
    case("platform4_800g_lazy", platform, false, lazy);
    for checkpoint_interval in [1u32, 4, 16] {
        let name = format!("checkpoint_interval/{checkpoint_interval}");
        case(&name, platform, false, KernelConfig { checkpoint_interval, ..default });
    }
}
