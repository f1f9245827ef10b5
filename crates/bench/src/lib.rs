//! The experiment harness: the paper's evaluation with its extension
//! studies, benchmarks and the determinism fingerprint, each one entry
//! point that `parlogsim` runs as a subcommand of the same name.
//!
//! The paper's tables and figures and the studies beyond them are one
//! report ([`paper::report`]), which draws every cell from in-memory
//! [`Grid`] runners, so every table, figure and study that reads a cell
//! reads the same run — exactly how the paper derives Figures 4–6 and
//! Table 2 from the same experiments. Its output is checked in as
//! `tests/golden/report.md`.

#![warn(missing_docs)]

pub mod bench_kernel;
pub mod detcheck;
mod kernel_scenarios;
pub mod micro;
pub mod paper;
mod studies;

use std::collections::HashMap;

use pls_gatesim::{run_seq_baseline, Cell, RunMetrics, SeqMetrics, SimConfig};
use pls_netlist::{IscasSynth, Netlist};
use pls_partition::CircuitGraph;

/// Strategy display order of the paper's Table 2 columns.
pub const STRATEGY_ORDER: [&str; 6] =
    ["Random", "DFS", "Cluster", "Topological", "Multilevel", "ConePartition"];

/// Node counts of Table 2 rows.
pub const TABLE2_NODES: [usize; 4] = [2, 4, 6, 8];
/// Node counts of the Figure 4–6 x axis.
pub const FIGURE_NODES: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The workload configuration used for every reported experiment.
///
/// A 400-time-unit run (≈40 stimulus vectors at period 10) on the
/// Pentium-II/Fast-Ethernet cost model. Deterministic; change the seed or
/// horizon here and every table/figure shifts consistently.
pub fn paper_sim_config() -> SimConfig {
    SimConfig { end_time: 400, ..Default::default() }
}

/// Names of the three benchmark circuits of the paper's Table 1.
pub const PAPER_CIRCUITS: [&str; 3] = ["s5378", "s9234", "s15850"];

/// The three benchmark circuits of the paper's Table 1.
pub fn paper_circuits() -> Vec<Netlist> {
    IscasSynth::paper_suite().iter().map(|s| s.build()).collect()
}

/// Experiment-grid runner over one [`SimConfig`]: it builds each circuit,
/// sequential baseline and cell at most once and keeps them in memory, so
/// every table, figure and study of a report that reads the same cell
/// reads the same run.
pub struct Grid {
    cfg: SimConfig,
    cells: HashMap<(String, String, usize), RunMetrics>,
    seq: HashMap<String, SeqMetrics>,
    circuits: Vec<(Netlist, CircuitGraph)>,
}

impl Grid {
    /// An empty grid whose every run uses `cfg`.
    pub fn new(cfg: SimConfig) -> Grid {
        Grid { cfg, cells: HashMap::new(), seq: HashMap::new(), circuits: Vec::new() }
    }

    /// The configuration every run of this grid uses.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn circuit(&mut self, name: &str) -> usize {
        if let Some(i) = self.circuits.iter().position(|(n, _)| n.name() == name) {
            return i;
        }
        let synth = IscasSynth::by_name(name).unwrap_or_else(|| {
            panic!("unknown paper circuit `{name}` (valid: {})", PAPER_CIRCUITS.join(", "))
        });
        let netlist = synth.build();
        let graph = CircuitGraph::from_netlist(&netlist);
        self.circuits.push((netlist, graph));
        self.circuits.len() - 1
    }

    /// Sequential baseline for a circuit, run on first use.
    pub fn sequential(&mut self, circuit: &str) -> SeqMetrics {
        if let Some(m) = self.seq.get(circuit) {
            return m.clone();
        }
        let ix = self.circuit(circuit);
        let m = run_seq_baseline(&self.circuits[ix].0, &self.cfg);
        self.seq.insert(circuit.to_string(), m.clone());
        m
    }

    /// One grid cell, run on first use.
    pub fn cell(&mut self, circuit: &str, strategy: &str, nodes: usize) -> RunMetrics {
        let key = (circuit.to_string(), strategy.to_string(), nodes);
        if let Some(m) = self.cells.get(&key) {
            return m.clone();
        }
        eprintln!("  running {circuit} / {strategy} / {nodes} nodes …");
        let ix = self.circuit(circuit);
        let part = pls_partition::partitioner_by_name(strategy)
            .unwrap_or_else(|| panic!("unknown strategy `{strategy}`"));
        let (netlist, graph) = &self.circuits[ix];
        let m = Cell::new(netlist, graph, &self.cfg).nodes(nodes).run(part.as_ref());
        self.cells.insert(key, m.clone());
        m
    }
}

/// Summary of repeated samples of one scenario, in ns per processed event
/// (the unit `BENCH_kernel.json` tracks across PRs — see
/// `docs/TELEMETRY.md`).
#[derive(Debug, Clone, Copy)]
pub struct BenchSummary {
    /// Median ns/event across samples (the tracked headline number).
    pub median_ns_per_event: f64,
    /// Fastest sample's ns/event.
    pub min_ns_per_event: f64,
    /// Events processed per run (identical across samples — the
    /// scenarios are deterministic).
    pub events: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Run `f` `samples` times (after one warm-up) and summarize ns/event.
/// `f` returns the number of events the run processed; the result of the
/// work itself must be consumed inside `f` (wrap in
/// [`std::hint::black_box`] as needed).
pub fn bench_events(samples: usize, mut f: impl FnMut() -> u64) -> BenchSummary {
    assert!(samples >= 1);
    std::hint::black_box(f()); // warm-up
    let mut rates: Vec<f64> = Vec::with_capacity(samples);
    let mut events = 0u64;
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        events = std::hint::black_box(f());
        let wall = t0.elapsed();
        assert!(events > 0, "a benchmark scenario processed no events");
        rates.push(wall.as_nanos() as f64 / events as f64);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("ns/event is finite"));
    let median = if rates.len() % 2 == 1 {
        rates[rates.len() / 2]
    } else {
        (rates[rates.len() / 2 - 1] + rates[rates.len() / 2]) / 2.0
    };
    BenchSummary { median_ns_per_event: median, min_ns_per_event: rates[0], events, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_partition::all_partitioners;

    #[test]
    fn strategy_order_matches_registry() {
        let names: Vec<&str> = all_partitioners().iter().map(|p| p.name()).collect();
        for s in STRATEGY_ORDER {
            assert!(names.contains(&s), "{s} missing from registry");
        }
    }
}
