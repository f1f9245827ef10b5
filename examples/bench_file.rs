//! Simulate a real ISCAS'89 `.bench` netlist file: parse, report its
//! Table-1 characteristics, partition with every strategy and simulate.
//! Falls back to the embedded s27 benchmark when no path is given, so it
//! runs out of the box.
//!
//! ```sh
//! cargo run --release --example bench_file -- path/to/s5378.bench 4
//! cargo run --release --example bench_file            # embedded s27
//! ```

use parlogsim::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let netlist = match args.get(1) {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("circuit");
            bench_format::parse(name, &text).unwrap_or_else(|e| {
                eprintln!("parse error in {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            println!("(no file given — using the embedded ISCAS'89 s27 benchmark)\n");
            parlogsim::netlist::data::s27()
        }
    };
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let stats = CircuitStats::of(&netlist);
    println!(
        "{}: {} inputs, {} gates, {} DFFs, {} outputs, {} edges, depth {}",
        stats.name, stats.inputs, stats.gates, stats.dffs, stats.outputs, stats.edges, stats.depth
    );

    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: 400, ..Default::default() };
    let seq = run_seq_baseline(&netlist, &cfg);
    println!("sequential: {} events, {:.3} modeled s\n", seq.events, seq.exec_time_s);

    for strategy in all_partitioners() {
        let m = Cell::new(&netlist, &graph, &cfg).nodes(nodes).run(strategy.as_ref());
        println!(
            "{:<14} {nodes} nodes: {:.3}s, cut {}, {} msgs, {} rollbacks",
            m.strategy,
            m.exec_time_s,
            m.edge_cut,
            m.stats.app_messages,
            m.stats.rollbacks()
        );
    }
}
