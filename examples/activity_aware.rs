//! Activity-aware multilevel partitioning — the paper's §6 future work,
//! implemented and measured. A short sequential pre-simulation profiles
//! per-signal event rates; the multilevel partitioner then operates on an
//! activity-weighted graph, so hot signals stay inside partitions. The
//! example compares plain vs activity-aware multilevel on actual simulated
//! message counts and execution time.
//!
//! ```sh
//! cargo run --release --example activity_aware
//! ```

use parlogsim::gatesim::{activity_weighted_graph, ActivityProfile};
use parlogsim::prelude::*;

fn main() {
    let netlist = IscasSynth::s9234().build();
    let cfg = SimConfig { end_time: 400, ..Default::default() };
    let nodes = 8;

    // Profile: 50 time units of sequential simulation (an eighth of the
    // real run) is enough to rank signals by activity.
    let t0 = std::time::Instant::now();
    let profile = ActivityProfile::measure(&netlist, &cfg, 50);
    println!("profiled {} transitions over 50 t.u. in {:?}", profile.total(), t0.elapsed());

    let plain_graph = CircuitGraph::from_netlist(&netlist);
    let hot_graph = activity_weighted_graph(&netlist, &profile);
    let ml = MultilevelPartitioner;

    let seq = run_seq_baseline(&netlist, &cfg);
    println!("sequential: {:.2} modeled s\n", seq.exec_time_s);

    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>9}",
        "variant", "messages", "rollbacks", "time(s)", "speedup"
    );
    for (label, graph) in [("multilevel", &plain_graph), ("multilevel+activity", &hot_graph)] {
        let part = ml.partition(graph, nodes, 0);
        // Always *simulate* on the real netlist; only the partition differs.
        let m = Cell::new(&netlist, &plain_graph, &cfg).nodes(nodes).run_with(&part, label);
        println!(
            "{:<22} {:>10} {:>10} {:>9.2} {:>8.2}x",
            label,
            m.stats.app_messages,
            m.stats.rollbacks(),
            m.exec_time_s,
            seq.exec_time_s / m.exec_time_s
        );
    }
}
