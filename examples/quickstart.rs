//! Quickstart: build a circuit, partition it with the multilevel
//! heuristic, simulate it on virtual workstations, and compare against
//! the sequential baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parlogsim::prelude::*;

fn main() {
    // 1. A circuit. Here the synthetic s9234-class benchmark; real
    //    ISCAS'89 netlists load with `bench_format::parse(name, text)`.
    let netlist = IscasSynth::s9234().build();
    let stats = CircuitStats::of(&netlist);
    println!(
        "circuit {}: {} inputs, {} gates, {} DFFs, {} outputs, depth {}",
        stats.name, stats.inputs, stats.gates, stats.dffs, stats.outputs, stats.depth
    );

    // 2. Partition it 8 ways with the paper's three-phase multilevel
    //    algorithm and look at the static quality.
    let graph = CircuitGraph::from_netlist(&netlist);
    let report = MultilevelPartitioner.partition_with_report(&graph, 8, 0);
    println!(
        "multilevel hierarchy: {:?} vertices per level, final cut {}",
        report.level_sizes,
        metrics::edge_cut(&graph, &report.partitioning)
    );
    let q = metrics::quality(&graph, &report.partitioning);
    println!(
        "quality: edge cut {}, imbalance {:.3}, concurrency {:.2}",
        q.edge_cut,
        q.imbalance,
        q.concurrency.unwrap()
    );

    // 3. Simulate: sequential baseline, then Time Warp on 8 virtual
    //    Pentium-II-class workstations.
    let cfg = SimConfig { end_time: 400, ..Default::default() };
    let seq = run_seq_baseline(&netlist, &cfg);
    println!("sequential: {} events, {:.2} modeled seconds", seq.events, seq.exec_time_s);
    let par =
        Cell::new(&netlist, &graph, &cfg).nodes(8).run_with(&report.partitioning, "Multilevel");
    println!(
        "8-node Time Warp: {:.2} modeled seconds ({:.1}x speedup), \
         {} application messages, {} rollbacks",
        par.exec_time_s,
        seq.exec_time_s / par.exec_time_s,
        par.stats.app_messages,
        par.stats.rollbacks()
    );
    assert_eq!(
        par.stats.events_committed, seq.events,
        "optimistic run must commit the same history"
    );

    // 4. Same run with the compiled gate-block engine: each partition
    //    block's combinational cone becomes one fused LP.
    let mut ccfg = cfg.clone();
    ccfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
    let fused =
        Cell::new(&netlist, &graph, &ccfg).nodes(8).run_with(&report.partitioning, "Multilevel");
    println!(
        "8-node compiled blocks: {:.2} modeled seconds, {} block activations, {} ops, \
         {} kernel events (vs {} per-gate)",
        fused.exec_time_s,
        fused.stats.block_activations,
        fused.stats.ops_executed,
        fused.stats.events_processed,
        par.stats.events_processed
    );
    assert!(fused.stats.events_committed > 0);
}
