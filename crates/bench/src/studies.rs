//! The report's sections beyond the paper's evaluation: cost-model
//! sensitivity, robustness across stimulus seeds, and static vs dynamic
//! load balancing. The first two read their paper-platform, seed-0xCAFE
//! cells from the report's own [`Grid`] and run only the cells whose
//! configuration differs.

use pls_gatesim::SimConfig;
use pls_logic::StimulusConfig;
use pls_timewarp::CostModel;

use crate::kernel_scenarios::{committed, hotspot_setup, platform4, round_robin};
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

fn block(n: usize, parts: usize) -> Vec<u32> {
    let per = n.div_ceil(parts);
    (0..n).map(|i| (i / per) as u32).collect()
}

/// Static vs dynamic load balancing on the rotating-hotspot workload —
/// the experiment behind the "static vs dynamic partitioning" appendix
/// in `EXPERIMENTS.md`.
///
/// Four configurations of the exact same workload:
///
/// * `static block`   — contiguous placement (best locality, worst balance)
/// * `static striped` — round-robin placement (best balance, worst locality)
/// * `dynamic (from block / from striped)` — the same two starting
///   placements with LP migration at GVT commit (default greedy policy);
///   converging from both extremes shows the balancer finds the tracking
///   placement rather than inheriting a lucky start
///
/// Each runs once, and this prints what repeats exactly from run to run:
/// the modeled execution time (the virtual-cluster clock), rollbacks,
/// remote messages, events processed and committed, balancing rounds and
/// migrations. The dynamic rows are then compared with the best static
/// one on modeled time.
pub(crate) fn dynlb() {
    let (model, pcfg, lb) = hotspot_setup(false);
    println!("\n## Static vs dynamic load balancing — rotating hotspot\n");
    println!(
        "{} LPs, {} phases x {} vt, hot window {}, 4 nodes; modeled seconds.\n",
        model.lps, model.phases, model.phase_len, model.hot_width
    );

    let blk = block(model.lps, 4);
    let striped = round_robin(model.lps, 4);
    let rows = [
        ("static block", &blk, None),
        ("static striped", &striped, None),
        ("dynamic (from block)", &blk, Some(lb)),
        ("dynamic (from striped)", &striped, Some(lb)),
    ]
    .map(|(name, assignment, lb)| {
        (name, platform4(model, assignment.clone(), pcfg, lb, committed)())
    });

    println!(
        "| Placement | Modeled s | Rollbacks | Remote | Processed | Committed | Rounds | Migrations |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (name, o) in &rows {
        println!(
            "| {name} | {:.4} | {} | {} | {} | {} | {} | {} |",
            o.modeled_s,
            o.stats.rollbacks(),
            o.stats.app_messages,
            o.stats.events_processed,
            o.stats.events_committed,
            o.stats.lb_rounds,
            o.stats.migrations,
        );
    }

    let (best, best_static) = rows[..2]
        .iter()
        .min_by(|a, b| a.1.modeled_s.total_cmp(&b.1.modeled_s))
        .expect("two static rows");
    println!();
    for (name, o) in &rows[2..] {
        println!(
            "- {name} vs best static ({best}): modeled {:+.1}%",
            100.0 * (o.modeled_s / best_static.modeled_s - 1.0),
        );
    }
}
