//! Cost-model sensitivity study: how the partitioning ranking shifts when
//! the platform changes from the paper's 1999 workstation cluster to a
//! modern one (events ~170× cheaper, network ~40× cheaper, and a *lower*
//! communication-to-computation ratio). The crossovers move — exactly the
//! effect the paper's conclusions anticipate when it calls the multilevel
//! heuristic's balance between concurrency and communication an
//! "equilibrium" for its platform.

use pls_gatesim::{run_seq_baseline, Cell, SimConfig};
use pls_netlist::IscasSynth;
use pls_partition::{all_partitioners, CircuitGraph};
use pls_timewarp::CostModel;

fn main() {
    let netlist = IscasSynth::s9234().build();
    let graph = CircuitGraph::from_netlist(&netlist);

    for (label, cost) in [
        ("Pentium II + Fast Ethernet (paper platform)", CostModel::pentium_ii_fast_ethernet()),
        ("modern cluster", CostModel::modern_cluster()),
    ] {
        let mut cfg = SimConfig { end_time: 400, ..Default::default() };
        cfg.platform.cost = cost;
        let seq = run_seq_baseline(&netlist, &cfg);
        println!(
            "\n== {label} (comm/compute ratio {:.1}, sequential {:.3}s)",
            cost.comm_compute_ratio(),
            seq.exec_time_s
        );
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>9}",
            "strategy", "time(s)", "messages", "rollbacks", "speedup"
        );
        let mut rows = Vec::new();
        for strategy in all_partitioners() {
            let m = Cell::new(&netlist, &graph, &cfg).nodes(8).run(strategy.as_ref());
            rows.push(m);
        }
        rows.sort_by(|a, b| a.exec_time_s.total_cmp(&b.exec_time_s));
        for m in rows {
            println!(
                "{:<14} {:>10.3} {:>10} {:>10} {:>8.2}x",
                m.strategy,
                m.exec_time_s,
                m.stats.app_messages,
                m.stats.rollbacks(),
                seq.exec_time_s / m.exec_time_s
            );
        }
    }
}
