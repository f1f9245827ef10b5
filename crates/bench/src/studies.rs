//! Extension studies beyond the paper's evaluation: cost-model
//! sensitivity, robustness across stimulus seeds, and static vs dynamic
//! load balancing. Each runs its own cells (nothing here is cached).

use pls_gatesim::{run_seq_baseline, Cell, SimConfig};
use pls_logic::StimulusConfig;
use pls_partition::all_partitioners;
use pls_timewarp::CostModel;

use crate::kernel_scenarios::{committed, hotspot_setup, measure, platform4, round_robin};
use crate::{paper_sim_config, s9234};

/// Cost-model sensitivity study: how the partitioning ranking shifts when
/// the platform changes from the paper's 1999 workstation cluster to a
/// modern one (events ~170× cheaper, network ~40× cheaper, and a *lower*
/// communication-to-computation ratio). The crossovers move — exactly the
/// effect the paper's conclusions anticipate when it calls the multilevel
/// heuristic's balance between concurrency and communication an
/// "equilibrium" for its platform.
pub fn sensitivity(_args: &[String]) {
    let (netlist, graph) = s9234();

    for (label, cost) in [
        ("Pentium II + Fast Ethernet (paper platform)", CostModel::pentium_ii_fast_ethernet()),
        ("modern cluster", CostModel::modern_cluster()),
    ] {
        let mut cfg = paper_sim_config();
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

const SEEDS: [u64; 5] = [0xCAFE, 0xBEEF, 0xF00D, 0x5EED, 0xD1CE];

/// Replication study — the paper "repeated \[experiments\] five times and
/// the average was used as the representative value". Our platform is
/// deterministic for a fixed stimulus, so the analog of run-to-run noise
/// is *stimulus-seed* variation: re-run the s9234 column of Table 2 under
/// five different input-vector seeds and report mean and spread per
/// strategy, showing which conclusions are robust to the workload draw
/// (all of them, it turns out).
pub fn replicate(_args: &[String]) {
    let (netlist, graph) = s9234();
    let nodes = 8;
    let cfgs = SEEDS.map(|seed| {
        let cfg = paper_sim_config();
        SimConfig { stim: StimulusConfig { seed, ..cfg.stim }, ..cfg }
    });

    println!("s9234 on {nodes} nodes, {} stimulus seeds\n", SEEDS.len());
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "strategy", "mean(s)", "min(s)", "max(s)", "mean msgs", "mean rb"
    );

    let seq_times = cfgs.each_ref().map(|cfg| run_seq_baseline(&netlist, cfg).exec_time_s);
    let seq_mean = seq_times.iter().sum::<f64>() / SEEDS.len() as f64;

    let mut summary: Vec<(String, f64)> = Vec::new();
    for strategy in all_partitioners() {
        let mut times = Vec::new();
        let mut msgs = 0u64;
        let mut rbs = 0u64;
        for cfg in &cfgs {
            let m = Cell::new(&netlist, &graph, cfg).nodes(nodes).run(strategy.as_ref());
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

fn block(n: usize, parts: usize) -> Vec<u32> {
    let per = n.div_ceil(parts);
    (0..n).map(|i| (i / per) as u32).collect()
}

/// Static vs dynamic load balancing on the rotating-hotspot workload —
/// the experiment behind the "static vs dynamic partitioning" appendix
/// in `EXPERIMENTS.md` (`--smoke` shrinks it).
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
/// For each, this prints the modeled execution time (the virtual-cluster
/// clock), rollbacks, remote messages, migrations, and host ns per
/// *committed* event (committed, not processed: the useful work is the
/// same across all four, the wasted work is not).
pub fn dynlb(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 7 };
    let (model, pcfg, lb) = hotspot_setup(smoke);
    eprintln!(
        "rotating hotspot: {} LPs, {} phases x {} vt, hot window {}, 4 nodes, {samples} samples",
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
        let mut run = platform4(model, assignment.clone(), pcfg, lb, None, committed);
        let (m, o) = measure(samples, &mut run);
        (name, m.median_ns_per_event, o)
    });

    println!(
        "{:<22} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>12}",
        "placement",
        "modeled s",
        "rollbk",
        "remote",
        "processed",
        "committed",
        "rounds",
        "migr",
        "ns/committed"
    );
    for (name, ns_per_committed, o) in &rows {
        println!(
            "{:<22} {:>10.4} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>12.1}",
            name,
            o.modeled_s,
            o.stats.rollbacks(),
            o.stats.app_messages,
            o.stats.events_processed,
            o.stats.events_committed,
            o.stats.lb_rounds,
            o.stats.migrations,
            ns_per_committed,
        );
    }

    let (best, best_ns, best_static) = rows[..2]
        .iter()
        .min_by(|a, b| a.2.modeled_s.total_cmp(&b.2.modeled_s))
        .expect("two static rows");
    for (name, ns_per_committed, o) in &rows[2..] {
        println!(
            "{name} vs best static ({best}): modeled {:+.1}%, ns/committed {:+.1}%",
            100.0 * (o.modeled_s / best_static.modeled_s - 1.0),
            100.0 * (ns_per_committed / best_ns - 1.0),
        );
    }
}
