//! Partitioner shoot-out: the scenario of the paper's Section 5 in
//! miniature. For one circuit and node count, run all six strategies,
//! print static quality (cut / balance / concurrency) next to the dynamic
//! outcome (modeled time / messages / rollbacks), and rank them.
//!
//! ```sh
//! cargo run --release --example partitioner_shootout -- [circuit] [nodes]
//! # circuit ∈ {s5378, s9234, s15850}, default s9234; nodes default 8
//! ```

use parlogsim::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let circuit = args.get(1).map(String::as_str).unwrap_or("s9234");
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);

    let synth = match circuit {
        "s5378" => IscasSynth::s5378(),
        "s9234" => IscasSynth::s9234(),
        "s15850" => IscasSynth::s15850(),
        other => {
            eprintln!("unknown circuit `{other}`; use s5378|s9234|s15850");
            std::process::exit(1);
        }
    };
    let netlist = synth.build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: 400, ..Default::default() };

    let seq = run_seq_baseline(&netlist, &cfg);
    println!("{circuit} on {nodes} nodes (sequential: {:.2}s)\n", seq.exec_time_s);
    println!(
        "{:<14} {:>7} {:>6} {:>5} | {:>8} {:>9} {:>9} {:>8}",
        "strategy", "cut", "imbal", "conc", "time(s)", "messages", "rollbacks", "speedup"
    );

    let mut results = Vec::new();
    for strategy in all_partitioners() {
        let part = strategy.partition(&graph, nodes, 0);
        let q = metrics::quality(&graph, &part);
        let m = Cell::new(&netlist, &graph, &cfg).nodes(nodes).run_with(&part, strategy.name());
        println!(
            "{:<14} {:>7} {:>6.3} {:>5.2} | {:>8.2} {:>9} {:>9} {:>7.1}x",
            m.strategy,
            q.edge_cut,
            q.imbalance,
            q.concurrency.unwrap(),
            m.exec_time_s,
            m.stats.app_messages,
            m.stats.rollbacks(),
            seq.exec_time_s / m.exec_time_s
        );
        results.push(m);
    }

    results.sort_by(|a, b| a.exec_time_s.total_cmp(&b.exec_time_s));
    println!("\nwinner: {} ({:.2}s)", results[0].strategy, results[0].exec_time_s);
}
