//! Std-only micro-benchmarks (the offline build has no criterion): wall
//! time of the partitioning stages and of single kernel runs, all
//! reported through [`bench_events`] as ns per unit of work.

use std::hint::black_box;

use pls_gatesim::ExecModel;
use pls_netlist::IscasSynth;
use pls_partition::multilevel::refine::{greedy_refine, GreedyConfig};
use pls_partition::refiners::{fm_refine, kl_refine};
use pls_partition::{
    all_partitioners, metrics, CircuitGraph, CoarsenScheme, MultilevelConfig,
    MultilevelPartitioner, Partitioner, Partitioning, RandomPartitioner,
};
use pls_timewarp::{Backend, Cancellation, KernelConfig, Simulator};

use crate::kernel_scenarios::GateSetup;
use crate::{bench_events, s9234};

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
pub fn partitioners(_args: &[String]) {
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
        let ml = MultilevelPartitioner::default();
        let label = format!("multilevel_scaling/{label}");
        timed_per_pin(&label, samples, &g, || ml.partition(&g, 8, 0));
    }
}

/// A refiner at full strength (for the cut it reaches) or bounded (for
/// timing: full-strength KL takes seconds per run).
type Refiner<'a> = &'a dyn Fn(&mut Partitioning, bool);

/// Refinement ablation — the paper (§3, citing \[12\]) chose the greedy
/// refiner because it "converges in a few iterations" and "has been shown
/// to yield better partitions with reduced edge-cut compared to other
/// refinement algorithms (e.g., Kernighan-Lin and Fiduccia-Mattheyses)".
/// Reproduces that comparison from the same random start: the cut each
/// refiner achieves (stderr, once) and its wall time.
pub fn refinement(_args: &[String]) {
    let (_, g) = s9234();
    let start = RandomPartitioner.partition(&g, 8, 0);
    let refiners: [(&str, Refiner); 3] = [
        ("greedy", &|p, _| {
            greedy_refine(&g, p, &GreedyConfig::default(), 0);
        }),
        ("kl", &|p, full| {
            kl_refine(&g, p, if full { 4 } else { 1 }, if full { 64 } else { 24 });
        }),
        ("fm", &|p, full| {
            fm_refine(&g, p, if full { 4 } else { 2 }, 0.03);
        }),
    ];
    let refined = |refine: Refiner, full| {
        let mut p = start.clone();
        refine(&mut p, full);
        p
    };

    let cuts = refiners.map(|(_, refine)| metrics::edge_cut(&g, &refined(refine, true)));
    eprintln!(
        "refinement quality on s9234 k=8 from random cut {}: greedy → {}, KL → {}, FM → {}",
        metrics::edge_cut(&g, &start),
        cuts[0],
        cuts[1],
        cuts[2]
    );
    for (name, refine) in refiners {
        timed_per_pin(&format!("refine_s9234_k8/{name}"), 10, &g, || refined(refine, false));
    }
}

/// Coarsening-scheme ablation — the paper's §6 lists "different schemes
/// for coarsening" as ongoing research. Compares the paper's fanout scheme
/// with heavy-edge matching \[12\] and random matching \[8\]: the final cut
/// and the simulated concurrency each scheme's partition achieves (stderr,
/// once) and the pipeline's wall time.
pub fn coarsening(_args: &[String]) {
    let (_, g) = s9234();
    for (name, scheme) in [
        ("fanout", CoarsenScheme::Fanout),
        ("heavy_edge", CoarsenScheme::HeavyEdge),
        ("random_matching", CoarsenScheme::Random),
    ] {
        let ml = MultilevelPartitioner { config: MultilevelConfig { scheme } };
        let q = metrics::quality(&g, &ml.partition(&g, 8, 0));
        eprintln!(
            "coarsening {:?} on s9234 k=8: cut={} imbalance={:.3} concurrency={:.2}",
            scheme,
            q.edge_cut,
            q.imbalance,
            q.concurrency.unwrap_or(0.0)
        );
        let label = format!("multilevel_coarsening_s9234_k8/{name}");
        timed_per_pin(&label, 15, &g, || ml.partition(&g, 8, 0));
    }
}

/// Time Warp kernel micro-benchmarks on the scenario suite's 800-gate
/// circuit: sequential event throughput, the virtual platform's protocol
/// overhead, telemetry overhead, lazy cancellation, and checkpoint
/// interval sensitivity (WARPED's periodic state saving, one of the design
/// choices DESIGN.md calls out). The tracked hot-path suite itself is
/// `bench_kernel`.
pub fn kernel(_args: &[String]) {
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
