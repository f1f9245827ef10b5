//! The report's sections beyond the paper's evaluation: cost-model
//! sensitivity and robustness across stimulus seeds. Both read their
//! paper-platform, seed-0xCAFE cells from the report's own [`Grid`] and
//! run only the cells whose configuration differs.

use pls_gatesim::SimConfig;
use pls_logic::StimulusConfig;
use pls_timewarp::CostModel;

use crate::{Grid, STRATEGY_ORDER};

/// Ratio of remote-message total cost to local event execution — the
/// knob that decides how much a large cut-set hurts.
fn comm_compute_ratio(cost: &CostModel) -> f64 {
    (cost.msg_send_ns + cost.net_latency_ns + cost.msg_wire_ns + cost.msg_recv_ns) as f64
        / cost.event_exec_ns as f64
}

/// Cost-model sensitivity study: how the partitioning ranking shifts when
/// the platform changes from the paper's 1999 workstation cluster (the
/// report grid `paper`) to a modern one (events ~170× cheaper, network
/// ~40× cheaper, and a *lower* communication-to-computation ratio). The
/// crossovers move — exactly the effect the paper's conclusions
/// anticipate when it calls the multilevel heuristic's balance between
/// concurrency and communication an "equilibrium" for its platform.
pub(crate) fn sensitivity(paper: &mut Grid) {
    let mut cfg = paper.config().clone();
    cfg.platform.cost = CostModel::modern_cluster();
    let mut modern = Grid::new(cfg);

    println!("\n## Cost-model sensitivity — s9234 on 8 nodes, paper platform vs modern cluster");
    for (label, grid) in
        [("Pentium II + Fast Ethernet (paper platform)", paper), ("modern cluster", &mut modern)]
    {
        let ratio = comm_compute_ratio(&grid.config().platform.cost);
        let seq = grid.sequential("s9234").exec_time_s;
        println!("\n### {label}: comm/compute ratio {ratio:.1}, sequential {seq:.3} s\n");
        println!("| Strategy | Time (s) | Messages | Rollbacks | Speedup |");
        println!("|---|---|---|---|---|");
        let mut rows = STRATEGY_ORDER.map(|s| grid.cell("s9234", s, 8));
        rows.sort_by(|a, b| a.exec_time_s.total_cmp(&b.exec_time_s));
        for m in rows {
            println!(
                "| {} | {:.3} | {} | {} | {:.2}x |",
                m.strategy,
                m.exec_time_s,
                m.stats.app_messages,
                m.stats.rollbacks(),
                seq / m.exec_time_s
            );
        }
    }
}

/// Stimulus seeds of the replication study after the report grid's own.
const MORE_SEEDS: [u64; 4] = [0xBEEF, 0xF00D, 0x5EED, 0xD1CE];

/// Replication study — the paper "repeated \[experiments\] five times and
/// the average was used as the representative value". Our platform is
/// deterministic for a fixed stimulus, so the analog of run-to-run noise
/// is *stimulus-seed* variation: the s9234 column of Table 2 at 8 nodes
/// under the report grid's seed and four more, with mean and spread per
/// strategy, showing which conclusions are robust to the workload draw.
pub(crate) fn replicate(grid: &mut Grid) {
    let base = grid.config().clone();
    let mut more = MORE_SEEDS.map(|seed| {
        Grid::new(SimConfig { stim: StimulusConfig { seed, ..base.stim }, ..base.clone() })
    });
    let mut grids: Vec<&mut Grid> = std::iter::once(grid).chain(&mut more).collect();
    let runs = grids.len();
    let seeds: Vec<String> = grids.iter().map(|g| format!("{:#X}", g.config().stim.seed)).collect();

    println!("\n## Seed replication — s9234 on 8 nodes, {runs} stimulus seeds\n");
    println!("Seeds {} (the first is every other section's).\n", seeds.join(", "));
    println!("| Strategy | Mean (s) | Min (s) | Max (s) | Mean msgs | Mean rollbacks |");
    println!("|---|---|---|---|---|---|");

    let seq_mean =
        grids.iter_mut().map(|g| g.sequential("s9234").exec_time_s).sum::<f64>() / runs as f64;
    let mut summary: Vec<(&str, f64)> = Vec::new();
    for strategy in STRATEGY_ORDER {
        let cells: Vec<_> = grids.iter_mut().map(|g| g.cell("s9234", strategy, 8)).collect();
        let times: Vec<f64> = cells.iter().map(|m| m.exec_time_s).collect();
        let msgs: u64 = cells.iter().map(|m| m.stats.app_messages).sum();
        let rbs: u64 = cells.iter().map(|m| m.stats.rollbacks()).sum();
        let mean = times.iter().sum::<f64>() / runs as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "| {strategy} | {mean:.2} | {min:.2} | {max:.2} | {} | {} |",
            msgs / runs as u64,
            rbs / runs as u64
        );
        summary.push((strategy, mean));
    }

    summary.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (fastest, mean) = summary[0];
    println!(
        "\nSequential mean: {seq_mean:.2} s; fastest strategy across seeds: {fastest} \
         ({mean:.2} s mean, {:.2}x speedup).",
        seq_mean / mean
    );
}
