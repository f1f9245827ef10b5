//! The experiment harness: every table, figure, study, benchmark and the
//! determinism fingerprint, each one entry point that `parlogsim` runs as
//! a subcommand of the same name.
//!
//! The table/figure entry points ([`paper`]: `table2`, `fig4`, `fig5`,
//! `fig6`, `report`, `all`) draw their cells from one [`Grid`] runner that
//! caches [`RunMetrics`] rows in a CSV under `target/experiments/`, so
//! re-running a figure after the table has run costs nothing and all
//! outputs come from the same runs — exactly how the paper derives
//! Figures 4–6 and Table 2 from the same experiments.

#![warn(missing_docs)]

pub mod bench_kernel;
pub mod detcheck;
mod kernel_scenarios;
pub mod micro;
pub mod paper;
pub mod studies;

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use pls_gatesim::{run_seq_baseline, Cell, RunMetrics, SeqMetrics, SimConfig};
use pls_netlist::{IscasSynth, Netlist};
use pls_partition::CircuitGraph;
use pls_timewarp::{KernelStats, VTime};

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

/// The paper's figure circuit and its graph.
pub fn s9234() -> (Netlist, CircuitGraph) {
    let netlist = IscasSynth::s9234().build();
    let graph = CircuitGraph::from_netlist(&netlist);
    (netlist, graph)
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
    /// Fingerprint of everything that affects cell values: the whole
    /// configuration, field for field. A cache written under a different
    /// fingerprint is stale and must be discarded, not silently reused.
    fn config_fingerprint(cfg: &SimConfig) -> String {
        format!("# {cfg:?}")
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
        eprintln!("  running {circuit} / {strategy} / {nodes} nodes …");
        let ix = self.circuit(circuit);
        let part = pls_partition::partitioner_by_name(strategy)
            .unwrap_or_else(|| panic!("unknown strategy `{strategy}`"));
        let (netlist, graph) = &self.circuits[ix];
        let m = Cell::new(netlist, graph, &self.cfg).nodes(nodes).run(part.as_ref());
        self.cells.insert(key, m.clone());
        self.save_cache();
        m
    }

    /// Run (or load) every cell of the full grid: all circuits × all
    /// strategies × the union of Table 2 and Figure node counts (figures
    /// only use s9234).
    pub fn run_all(&mut self) -> Vec<RunMetrics> {
        let mut out = Vec::new();
        for c in PAPER_CIRCUITS {
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
        let Some(rows) = parse_cache(&self.cfg, &text) else {
            eprintln!("experiment cache is from a different configuration; discarding");
            return;
        };
        for m in rows {
            self.cells.insert((m.circuit.clone(), m.strategy.clone(), m.nodes), m);
        }
    }

    fn save_cache(&self) {
        let mut rows: Vec<&RunMetrics> = self.cells.values().collect();
        rows.sort_by(|a, b| {
            (&a.circuit, &a.strategy, a.nodes).cmp(&(&b.circuit, &b.strategy, b.nodes))
        });
        let text = render_cache(&self.cfg, &rows);
        let tmp = self.cache_path.with_extension("csv.tmp");
        let mut f = std::fs::File::create(&tmp).expect("write cache");
        f.write_all(text.as_bytes()).expect("write cache");
        std::fs::rename(&tmp, &self.cache_path).expect("replace cache");
    }
}

/// The cache columns that are not kernel counters, in row order; the
/// counters follow under their [`KernelStats::COUNTERS`] names, then
/// `final_gvt`.
const CACHE_KEY_COLUMNS: &str =
    "circuit,strategy,nodes,exec_time_s,edge_cut,connectivity_cut,out_of_memory";

fn cache_header() -> String {
    let mut h = String::from(CACHE_KEY_COLUMNS);
    for c in KernelStats::COUNTERS {
        h.push(',');
        h.push_str(c.name);
    }
    h.push_str(",final_gvt");
    h
}

/// The cache file: config fingerprint, header, one row per cell.
fn render_cache(cfg: &SimConfig, rows: &[&RunMetrics]) -> String {
    let mut text = format!("{}\n{}\n", Grid::config_fingerprint(cfg), cache_header());
    for m in rows {
        text.push_str(&format!(
            "{},{},{},{},{},{},{}",
            m.circuit,
            m.strategy,
            m.nodes,
            m.exec_time_s,
            m.edge_cut,
            m.connectivity_cut,
            m.out_of_memory
        ));
        for (_, v) in m.stats.iter() {
            text.push_str(&format!(",{v}"));
        }
        text.push_str(&format!(",{}\n", m.stats.final_gvt.ticks()));
    }
    text
}

/// Rows of a cache file, or `None` when it was written under another
/// configuration or another set of columns (a counter added, removed or
/// renamed since) — stale either way.
fn parse_cache(cfg: &SimConfig, text: &str) -> Option<Vec<RunMetrics>> {
    let mut lines = text.lines();
    if lines.next()? != Grid::config_fingerprint(cfg) || lines.next()? != cache_header() {
        return None;
    }
    Some(lines.filter_map(parse_cache_row).collect())
}

fn parse_cache_row(line: &str) -> Option<RunMetrics> {
    let mut f = line.split(',');
    let mut m = RunMetrics {
        circuit: f.next()?.to_string(),
        strategy: f.next()?.to_string(),
        nodes: f.next()?.parse().ok()?,
        exec_time_s: f.next()?.parse().ok()?,
        edge_cut: f.next()?.parse().ok()?,
        connectivity_cut: f.next()?.parse().ok()?,
        out_of_memory: f.next()?.parse().ok()?,
        stats: KernelStats::default(),
        telemetry: None,
    };
    for c in KernelStats::COUNTERS {
        *(c.get_mut)(&mut m.stats) = f.next()?.parse().ok()?;
    }
    m.stats.final_gvt = VTime::from(f.next()?.parse::<u64>().ok()?);
    f.next().is_none().then_some(m)
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

    #[test]
    fn fingerprint_covers_every_config_field() {
        use pls_logic::DelayModel;
        use pls_partition::ReplicationConfig;

        let base = Grid::config_fingerprint(&paper_sim_config());
        let flip = |field: &str, edit: fn(&mut SimConfig)| {
            let mut cfg = paper_sim_config();
            edit(&mut cfg);
            assert_ne!(Grid::config_fingerprint(&cfg), base, "{field} is not fingerprinted");
        };
        flip("delay", |c| c.delay = DelayModel::Unit(1));
        flip("replication", |c| c.replication = Some(ReplicationConfig::default()));
        flip("state_limit_per_node", |c| c.platform.state_limit_per_node = Some(1 << 20));
        assert!(!base.contains('\n'), "the fingerprint must stay one cache line");
    }

    fn cached_row(stats: KernelStats) -> RunMetrics {
        RunMetrics {
            circuit: "s9234".into(),
            strategy: "Multilevel".into(),
            nodes: 8,
            exec_time_s: 1.25,
            stats,
            edge_cut: 321,
            connectivity_cut: 300,
            out_of_memory: false,
            telemetry: None,
        }
    }

    #[test]
    fn cache_round_trips_normal_and_oom_rows() {
        let cfg = paper_sim_config();
        let mut stats = KernelStats { final_gvt: VTime::INF, ..Default::default() };
        for (i, c) in (1u64..).zip(KernelStats::COUNTERS) {
            *(c.get_mut)(&mut stats) = 1000 * i + 7;
        }
        let ok = cached_row(stats);
        let oom = RunMetrics {
            strategy: "DFS".into(),
            nodes: 2,
            exec_time_s: f64::NAN,
            stats: KernelStats::default(),
            out_of_memory: true,
            ..ok.clone()
        };
        let text = render_cache(&cfg, &[&ok, &oom]);
        let mut back = parse_cache(&cfg, &text).expect("same config, same columns");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], ok);
        // NaN != NaN: check it, then compare the rest of the row.
        assert!(back[1].exec_time_s.is_nan());
        back[1].exec_time_s = 0.0;
        assert_eq!(back[1], RunMetrics { exec_time_s: 0.0, ..oom });
    }

    #[test]
    fn cache_with_another_header_or_config_is_discarded() {
        let cfg = paper_sim_config();
        let row = cached_row(KernelStats::default());
        let text = render_cache(&cfg, &[&row]);
        assert_eq!(parse_cache(&cfg, &text).map(|r| r.len()), Some(1));

        // A counter renamed since the file was written: same width, other
        // header — the rows must not be read positionally.
        let renamed = text.replacen("app_messages", "application_msgs", 1);
        assert!(parse_cache(&cfg, &renamed).is_none());
        let other_cfg = SimConfig { end_time: 401, ..paper_sim_config() };
        assert!(parse_cache(&other_cfg, &text).is_none());
        // A truncated row is skipped, not zero-filled.
        let cut = &text[..text.trim_end().rfind(',').unwrap()];
        assert_eq!(parse_cache(&cfg, cut).map(|r| r.len()), Some(0));
    }
}
