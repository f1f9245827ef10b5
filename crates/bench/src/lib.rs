//! Shared experiment harness for the table/figure binaries.
//!
//! Every binary (`table1`, `table2`, `fig4`, `fig5`, `fig6`, `all`) draws
//! its cells from one grid runner that caches [`RunMetrics`] rows in a CSV
//! under `target/experiments/`, so re-running a figure after the table has
//! run costs nothing and all outputs come from the same runs — exactly how
//! the paper derives Figures 4–6 and Table 2 from the same experiments.

#![warn(missing_docs)]

pub mod kernel_scenarios;

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use pls_gatesim::{run_seq_baseline, Cell, RunMetrics, SeqMetrics, SimConfig};
use pls_netlist::{IscasSynth, Netlist};
use pls_partition::CircuitGraph;
use pls_timewarp::TimeSeries;

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

/// The three benchmark circuits of the paper's Table 1.
pub fn paper_circuits() -> Vec<Netlist> {
    IscasSynth::paper_suite().iter().map(|s| s.build()).collect()
}

/// Cached experiment-grid runner.
pub struct Grid {
    cfg: SimConfig,
    cache_path: PathBuf,
    cells: HashMap<(String, String, usize), RunMetrics>,
    seq: HashMap<String, SeqMetrics>,
    circuits: Vec<(Netlist, CircuitGraph)>,
}

impl Grid {
    /// Fingerprint of everything that affects cell values: cost model,
    /// kernel knobs and workload. A cache written under a different
    /// fingerprint is stale and must be discarded, not silently reused.
    fn config_fingerprint(cfg: &SimConfig) -> String {
        format!(
            "v4:{:?}:{:?}:end{}:clk{}:stim{}-{}-{}:dynlb{:?}:exec{}",
            cfg.platform.cost,
            cfg.platform.kernel,
            cfg.end_time,
            cfg.clock_period,
            cfg.stim.seed,
            cfg.stim.period,
            cfg.stim.toggle_prob,
            cfg.dynlb,
            cfg.exec,
        )
    }

    /// Open (or create) the grid with the standard configuration and cache
    /// location `target/experiments/grid.csv`.
    pub fn open() -> Grid {
        let dir =
            PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                .join("experiments");
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        let cache_path = dir.join("grid.csv");
        let mut grid = Grid {
            cfg: paper_sim_config(),
            cache_path,
            cells: HashMap::new(),
            seq: HashMap::new(),
            circuits: Vec::new(),
        };
        grid.load_cache();
        grid
    }

    /// The simulation configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn circuit(&mut self, name: &str) -> usize {
        if let Some(i) = self.circuits.iter().position(|(n, _)| n.name() == name) {
            return i;
        }
        let synth = match name {
            "s5378" => IscasSynth::s5378(),
            "s9234" => IscasSynth::s9234(),
            "s15850" => IscasSynth::s15850(),
            other => panic!("unknown paper circuit `{other}`"),
        };
        let netlist = synth.build();
        let graph = CircuitGraph::from_netlist(&netlist);
        self.circuits.push((netlist, graph));
        self.circuits.len() - 1
    }

    /// Sequential baseline for a circuit (cached in memory only — it takes
    /// well under a second).
    pub fn sequential(&mut self, circuit: &str) -> SeqMetrics {
        if let Some(m) = self.seq.get(circuit) {
            return m.clone();
        }
        let ix = self.circuit(circuit);
        let m = run_seq_baseline(&self.circuits[ix].0, &self.cfg);
        self.seq.insert(circuit.to_string(), m.clone());
        m
    }

    /// One grid cell, from cache or by running it.
    pub fn cell(&mut self, circuit: &str, strategy: &str, nodes: usize) -> RunMetrics {
        let key = (circuit.to_string(), strategy.to_string(), nodes);
        if let Some(m) = self.cells.get(&key) {
            return m.clone();
        }
        let ix = self.circuit(circuit);
        let part = pls_partition::partitioner_by_name(strategy)
            .unwrap_or_else(|| panic!("unknown strategy `{strategy}`"));
        let (netlist, graph) = &self.circuits[ix];
        eprintln!("  running {circuit} / {strategy} / {nodes} nodes …");
        let m = Cell::new(netlist, graph, &self.cfg).nodes(nodes).run(part.as_ref());
        self.cells.insert(key, m.clone());
        self.save_cache();
        m
    }

    /// Re-run one cell with the [`TimeSeries`] probe attached and return
    /// the per-virtual-time-bucket telemetry alongside the metrics. Not
    /// cached (the CSV cache holds aggregates only); intended for the
    /// figure binaries' `--trace` mode, which dumps a handful of series.
    /// Returns `None` for the series when the run dies out of memory.
    pub fn trace_cell(
        &mut self,
        circuit: &str,
        strategy: &str,
        nodes: usize,
        bucket_width: u64,
    ) -> (RunMetrics, Option<TimeSeries>) {
        let ix = self.circuit(circuit);
        let part = pls_partition::partitioner_by_name(strategy)
            .unwrap_or_else(|| panic!("unknown strategy `{strategy}`"));
        let (netlist, graph) = &self.circuits[ix];
        let partitioning = part.partition(graph, nodes, 0);
        eprintln!("  tracing {circuit} / {strategy} / {nodes} nodes …");
        let m = Cell::new(netlist, graph, &self.cfg)
            .nodes(nodes)
            .record(bucket_width)
            .run_with(&partitioning, part.name());
        let series = m.telemetry.clone();
        (m, series)
    }

    /// Directory the cache (and any trace exports) live in.
    pub fn experiments_dir(&self) -> PathBuf {
        self.cache_path.parent().expect("cache has a parent dir").to_path_buf()
    }

    /// Run (or load) every cell of the full grid: all circuits × all
    /// strategies × the union of Table 2 and Figure node counts (figures
    /// only use s9234).
    pub fn run_all(&mut self) -> Vec<RunMetrics> {
        let mut out = Vec::new();
        for c in ["s5378", "s9234", "s15850"] {
            let nodes: &[usize] = if c == "s9234" { &FIGURE_NODES } else { &TABLE2_NODES };
            for &n in nodes {
                for s in STRATEGY_ORDER {
                    out.push(self.cell(c, s, n));
                }
            }
        }
        out
    }

    fn load_cache(&mut self) {
        let Ok(text) = std::fs::read_to_string(&self.cache_path) else { return };
        // First line is the config fingerprint; a mismatch means the cost
        // model or workload changed since the cache was written.
        let expected = format!("# {}", Self::config_fingerprint(&self.cfg));
        if text.lines().next() != Some(expected.as_str()) {
            eprintln!("experiment cache is from a different configuration; discarding");
            return;
        }
        for line in text.lines().skip(2) {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 17 {
                continue;
            }
            let m = RunMetrics {
                circuit: f[0].to_string(),
                strategy: f[1].to_string(),
                nodes: f[2].parse().unwrap_or(0),
                exec_time_s: f[3].parse().unwrap_or(f64::NAN),
                app_messages: f[4].parse().unwrap_or(0),
                rollbacks: f[5].parse().unwrap_or(0),
                events_committed: f[6].parse().unwrap_or(0),
                events_processed: f[7].parse().unwrap_or(0),
                remote_antis: f[8].parse().unwrap_or(0),
                edge_cut: f[9].parse().unwrap_or(0),
                connectivity_cut: f[10].parse().unwrap_or(0),
                replicated_gates: f[11].parse().unwrap_or(0),
                messages_saved: f[12].parse().unwrap_or(0),
                migrations: f[13].parse().unwrap_or(0),
                out_of_memory: f[14] == "true",
                block_activations: f[15].parse().unwrap_or(0),
                ops_executed: f[16].parse().unwrap_or(0),
                telemetry: None,
            };
            self.cells.insert((m.circuit.clone(), m.strategy.clone(), m.nodes), m);
        }
    }

    fn save_cache(&self) {
        let mut text = format!("# {}\n", Self::config_fingerprint(&self.cfg));
        text.push_str(
            "circuit,strategy,nodes,exec_time_s,app_messages,rollbacks,events_committed,events_processed,remote_antis,edge_cut,connectivity_cut,replicated_gates,messages_saved,migrations,out_of_memory,block_activations,ops_executed\n",
        );
        let mut rows: Vec<&RunMetrics> = self.cells.values().collect();
        rows.sort_by(|a, b| {
            (&a.circuit, &a.strategy, a.nodes).cmp(&(&b.circuit, &b.strategy, b.nodes))
        });
        for m in rows {
            text.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                m.circuit,
                m.strategy,
                m.nodes,
                m.exec_time_s,
                m.app_messages,
                m.rollbacks,
                m.events_committed,
                m.events_processed,
                m.remote_antis,
                m.edge_cut,
                m.connectivity_cut,
                m.replicated_gates,
                m.messages_saved,
                m.migrations,
                m.out_of_memory,
                m.block_activations,
                m.ops_executed
            ));
        }
        let tmp = self.cache_path.with_extension("csv.tmp");
        let mut f = std::fs::File::create(&tmp).expect("write cache");
        f.write_all(text.as_bytes()).expect("write cache");
        std::fs::rename(&tmp, &self.cache_path).expect("replace cache");
    }
}

/// Minimal micro-benchmark timer for the `cargo bench` binaries (the
/// offline build has no criterion): a couple of warm-up rounds, then
/// `samples` timed rounds, reporting min and mean wall time and returning
/// the min. The result is passed through [`std::hint::black_box`] so the
/// optimizer cannot discard the benchmarked work.
pub fn bench_case<T>(
    group: &str,
    name: &str,
    samples: usize,
    mut f: impl FnMut() -> T,
) -> std::time::Duration {
    assert!(samples >= 1);
    for _ in 0..2 {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    let min = times.iter().min().unwrap();
    let mean = times.iter().sum::<std::time::Duration>() / samples as u32;
    println!("{group}/{name}: min {min:?}  mean {mean:?}  ({samples} samples)");
    *min
}

/// One timed sample of a kernel benchmark scenario: wall time and the
/// number of events the run processed (the denominator of ns/event).
#[derive(Debug, Clone, Copy)]
pub struct BenchSample {
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Events processed by the run.
    pub events: u64,
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

/// Render a simple ASCII series table: one labelled row of values per
/// strategy over the node counts, plus a bar to eyeball the shape at the
/// highest node count.
pub fn render_series(
    title: &str,
    ylabel: &str,
    nodes: &[usize],
    series: &[(String, Vec<f64>)],
) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!("{:<14}", "nodes"));
    for n in nodes {
        out.push_str(&format!("{n:>10}"));
    }
    out.push('\n');
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .filter(|x| x.is_finite())
        .fold(0.0f64, f64::max);
    for (name, vals) in series {
        out.push_str(&format!("{name:<14}"));
        for v in vals {
            if v.is_nan() {
                out.push_str(&format!("{:>10}", "OOM"));
            } else if *v == v.round() && *v < 1e9 {
                out.push_str(&format!("{:>10}", *v as u64));
            } else {
                out.push_str(&format!("{v:>10.2}"));
            }
        }
        out.push('\n');
        if max > 0.0 {
            if let Some(last) = vals.last().filter(|v| v.is_finite()) {
                let w = ((last / max) * 40.0).round() as usize;
                out.push_str(&format!("{:<14}{}\n", "", "#".repeat(w.max(1))));
            }
        }
    }
    out.push_str(&format!("({ylabel})\n"));
    out
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

    #[test]
    fn render_series_handles_nan_and_ints() {
        let s = render_series(
            "t",
            "secs",
            &[2, 4],
            &[("A".into(), vec![1.0, f64::NAN]), ("B".into(), vec![0.5, 2.0])],
        );
        assert!(s.contains("OOM"));
        assert!(s.contains('A') && s.contains('B'));
    }
}
