//! Time Warp kernel tuning study: aggressive vs lazy cancellation and
//! checkpoint-interval sensitivity — the WARPED design choices the paper's
//! framework exposes, measured on one circuit/partition.
//!
//! ```sh
//! cargo run --release --example kernel_tuning
//! ```

use parlogsim::prelude::*;

fn run(
    netlist: &parlogsim::netlist::Netlist,
    graph: &CircuitGraph,
    nodes: usize,
    kernel: KernelConfig,
    label: &str,
) {
    let part = MultilevelPartitioner.partition(graph, nodes, 0);
    let mut cfg = SimConfig { end_time: 400, ..Default::default() };
    cfg.platform.kernel = kernel;
    let m = Cell::new(netlist, graph, &cfg).nodes(nodes).run_with(&part, label);
    println!(
        "{:<26} time {:>6.2}s  rollbacks {:>6}  remote antis {:>6}  committed {}",
        label,
        m.exec_time_s,
        m.stats.rollbacks(),
        m.stats.anti_messages_remote,
        m.stats.events_committed
    );
}

fn main() {
    let netlist = IscasSynth::s9234().build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let nodes = 8;
    println!("s9234 on {nodes} nodes, multilevel partition\n");

    println!("cancellation strategy:");
    run(
        &netlist,
        &graph,
        nodes,
        KernelConfig { cancellation: Cancellation::Aggressive, ..Default::default() },
        "  aggressive",
    );
    run(
        &netlist,
        &graph,
        nodes,
        KernelConfig { cancellation: Cancellation::Lazy, ..Default::default() },
        "  lazy",
    );

    println!("\ncheckpoint interval (state saving period):");
    for interval in [1u32, 2, 4, 8, 16] {
        run(
            &netlist,
            &graph,
            nodes,
            KernelConfig { checkpoint_interval: interval, ..Default::default() },
            &format!("  every {interval} batch(es)"),
        );
    }

    println!("\nGVT period (batches between fossil collections):");
    for period in [64u64, 512, 4096] {
        run(
            &netlist,
            &graph,
            nodes,
            KernelConfig { gvt_period: period, ..Default::default() },
            &format!("  gvt every {period}"),
        );
    }

    println!("\noptimism window (None = pure Time Warp; 0 = conservative lock-step):");
    for window in [None, Some(200u64), Some(50), Some(10), Some(0)] {
        let label = match window {
            None => "  unthrottled".to_string(),
            Some(w) => format!("  window {w}"),
        };
        run(
            &netlist,
            &graph,
            nodes,
            KernelConfig { window, gvt_period: 64, ..Default::default() },
            &label,
        );
    }
}
