//! Replication study — the paper "repeated \[experiments\] five times and
//! the average was used as the representative value". Our platform is
//! deterministic for a fixed stimulus, so the analog of run-to-run noise
//! is *stimulus-seed* variation: this binary re-runs the s9234 column of
//! Table 2 under five different input-vector seeds and reports mean and
//! spread per strategy, showing which conclusions are robust to the
//! workload draw (all of them, it turns out).

use pls_gatesim::{run_seq_baseline, Cell, SimConfig};
use pls_logic::StimulusConfig;
use pls_netlist::IscasSynth;
use pls_partition::{all_partitioners, CircuitGraph};

const SEEDS: [u64; 5] = [0xCAFE, 0xBEEF, 0xF00D, 0x5EED, 0xD1CE];

fn main() {
    let netlist = IscasSynth::s9234().build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let nodes = 8;

    println!("s9234 on {nodes} nodes, {} stimulus seeds\n", SEEDS.len());
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "strategy", "mean(s)", "min(s)", "max(s)", "mean msgs", "mean rb"
    );

    let mut seq_times = Vec::new();
    for &seed in &SEEDS {
        let mut cfg = SimConfig { end_time: 400, ..Default::default() };
        cfg.stim = StimulusConfig { seed, ..cfg.stim };
        seq_times.push(run_seq_baseline(&netlist, &cfg).exec_time_s);
    }
    let seq_mean = seq_times.iter().sum::<f64>() / SEEDS.len() as f64;

    let mut summary: Vec<(String, f64)> = Vec::new();
    for strategy in all_partitioners() {
        let mut times = Vec::new();
        let mut msgs = 0u64;
        let mut rbs = 0u64;
        for &seed in &SEEDS {
            let mut cfg = SimConfig { end_time: 400, ..Default::default() };
            cfg.stim = StimulusConfig { seed, ..cfg.stim };
            let m = Cell::new(&netlist, &graph, &cfg).nodes(nodes).run(strategy.as_ref());
            times.push(m.exec_time_s);
            msgs += m.stats.app_messages;
            rbs += m.stats.rollbacks();
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>11} {:>10}",
            strategy.name(),
            mean,
            min,
            max,
            msgs / SEEDS.len() as u64,
            rbs / SEEDS.len() as u64
        );
        summary.push((strategy.name().to_string(), mean));
    }

    summary.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "\nsequential mean: {seq_mean:.2}s; fastest strategy across seeds: {} \
         ({:.2}s mean, {:.2}x speedup)",
        summary[0].0,
        summary[0].1,
        seq_mean / summary[0].1
    );
}
