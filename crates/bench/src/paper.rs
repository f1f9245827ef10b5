//! The paper's evaluation — Tables 1–2, Figures 4–6 and the
//! paper-vs-measured report — rendered from the one cached [`Grid`] of
//! runs, exactly how the paper derives them from the same experiments.

use pls_gatesim::RunMetrics;
use pls_netlist::CircuitStats;

use crate::{
    paper_circuits, render_series, Grid, FIGURE_NODES, PAPER_CIRCUITS, STRATEGY_ORDER, TABLE2_NODES,
};

/// Run the full experiment grid (every cell behind Table 2 and Figures
/// 4–6) and leave the results in `target/experiments/grid.csv`; the
/// table/figure subcommands then render instantly from the cache.
pub fn all(_args: &[String]) {
    let t0 = std::time::Instant::now();
    let mut grid = Grid::open();
    for c in PAPER_CIRCUITS {
        let seq = grid.sequential(c);
        eprintln!("{c}: sequential = {:.2} modeled secs ({} events)", seq.exec_time_s, seq.events);
    }
    let rows = grid.run_all();
    eprintln!("grid complete: {} cells in {:?}", rows.len(), t0.elapsed());
    eprintln!("render with: cargo run --release -p pls-bench -- table2 (fig4, fig5, fig6)");
}

/// The paper's **Table 1** — characteristics of the benchmark circuits
/// (inputs / gates / outputs), plus the extra structural statistics our
/// synthetic substitutes are matched on.
pub fn table1(_args: &[String]) {
    println!("Table 1. Characteristics of benchmarks");
    println!("{:<10} {:>6} {:>6} {:>7}", "Circuit", "Inputs", "Gates", "Outputs");
    let stats: Vec<CircuitStats> = paper_circuits().iter().map(CircuitStats::of).collect();
    for s in &stats {
        println!("{}", s.table1_row());
    }
    println!();
    println!("Structural detail (synthetic ISCAS'89-class substitutes):");
    println!(
        "{:<10} {:>6} {:>7} {:>7} {:>10} {:>10}",
        "Circuit", "DFFs", "Edges", "Depth", "AvgFanout", "MaxFanout"
    );
    for s in &stats {
        println!(
            "{:<10} {:>6} {:>7} {:>7} {:>10.2} {:>10}",
            s.name, s.dffs, s.edges, s.depth, s.avg_fanout, s.max_fanout
        );
    }
}

/// The paper's **Table 2** — simulation time (modeled seconds) for every
/// circuit × partitioning strategy × node count, with the sequential
/// baseline.
///
/// The paper omitted the s15850 2-node cell because those runs exhausted
/// the 128 MB workstations; our virtual nodes have no such limit, so the
/// cell is reported with a footnote.
pub fn table2(_args: &[String]) {
    let mut grid = Grid::open();
    println!("Table 2. Simulation time (modeled secs) per partitioning algorithm");
    println!(
        "{:<8} {:>9} {:>5} {:>9} {:>9} {:>9} {:>11} {:>10} {:>9}",
        "Circuit",
        "SeqTime",
        "Nodes",
        "Random",
        "DFS",
        "Cluster",
        "Topological",
        "Multilevel",
        "Cone"
    );
    for circuit in PAPER_CIRCUITS {
        let seq = grid.sequential(circuit);
        for (i, &nodes) in TABLE2_NODES.iter().enumerate() {
            let mut row = if i == 0 {
                format!("{:<8} {:>9.2} {:>5}", circuit, seq.exec_time_s, nodes)
            } else {
                format!("{:<8} {:>9} {:>5}", "", "", nodes)
            };
            for s in STRATEGY_ORDER {
                let m = grid.cell(circuit, s, nodes);
                let w = match s {
                    "Topological" => 11,
                    "Multilevel" => 10,
                    _ => 9,
                };
                if m.out_of_memory {
                    row.push_str(&format!(" {:>w$}", "OOM", w = w));
                } else {
                    row.push_str(&format!(" {:>w$.2}", m.exec_time_s, w = w));
                }
            }
            println!("{row}");
        }
    }
    println!();
    println!("note: the paper omitted s15850 at 2 nodes (its 128 MB workstations ran");
    println!("out of memory); the virtual platform reports the cell normally.");
}

/// One of the paper's s9234 figures: a metric of every strategy's cell
/// over the node counts.
pub struct Figure {
    /// Subcommand name and `--trace` file prefix.
    name: &'static str,
    /// Title and y-axis label of the ASCII rendering.
    title: &'static str,
    ylabel: &'static str,
    /// Heading and cell precision of the report's markdown table.
    heading: &'static str,
    decimals: usize,
    /// Whether the figure carries the flat sequential line.
    sequential_line: bool,
    metric: fn(&RunMetrics) -> f64,
}

/// **Figure 4** — execution time, **Figure 5** — inter-node application
/// messages, **Figure 6** — total rollbacks, each vs number of nodes.
pub const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig4",
        title: "Figure 4. s9234 Execution Times",
        ylabel: "Execution Time - secs",
        heading: "Figure 4 — s9234 execution time (modeled secs) vs nodes",
        decimals: 2,
        sequential_line: true,
        metric: |m| m.exec_time_s,
    },
    Figure {
        name: "fig5",
        title: "Figure 5. Messaging statistics for s9234 model",
        ylabel: "Number of Application Messages",
        heading: "Figure 5 — s9234 application messages vs nodes",
        decimals: 0,
        sequential_line: false,
        metric: |m| m.stats.app_messages as f64,
    },
    Figure {
        name: "fig6",
        title: "Figure 6. Rollback behaviour of s9234",
        ylabel: "Total Number of Rollbacks",
        heading: "Figure 6 — s9234 total rollbacks vs nodes",
        decimals: 0,
        sequential_line: false,
        metric: |m| m.stats.rollbacks() as f64,
    },
];

/// Render one figure as an ASCII series table.
pub fn figure(fig: &Figure, grid: &mut Grid) {
    let mut series = Vec::new();
    if fig.sequential_line {
        let seq = grid.sequential("s9234").exec_time_s;
        series.push(("Sequential".to_string(), vec![seq; FIGURE_NODES.len()]));
    }
    for s in STRATEGY_ORDER {
        let vals = FIGURE_NODES.iter().map(|&n| (fig.metric)(&grid.cell("s9234", s, n))).collect();
        series.push((s.to_string(), vals));
    }
    print!("{}", render_series(fig.title, fig.ylabel, &FIGURE_NODES, &series));
}

/// [`figure`], and with `--trace` additionally re-run the 8-node cell of
/// every strategy with the telemetry probe attached and write one JSONL
/// time series per strategy under `target/experiments/` — showing *when*
/// in virtual time the traffic or the rollbacks cluster, not just their
/// total.
pub fn traced_figure(fig: &Figure, args: &[String]) {
    let mut grid = Grid::open();
    figure(fig, &mut grid);
    if !args.iter().any(|a| a == "--trace") {
        return;
    }
    let bucket = grid.config().end_time / 20;
    let dir = grid.experiments_dir();
    for s in STRATEGY_ORDER {
        let Some(ts) = grid.trace_cell("s9234", s, 8, bucket) else {
            eprintln!("  {s}: out of memory, no series");
            continue;
        };
        let path = dir.join(format!("{}_{}_s9234_8n.jsonl", fig.name, s.to_lowercase()));
        std::fs::write(&path, ts.to_jsonl()).expect("write trace");
        eprintln!("  wrote {} buckets to {}", ts.len(), path.display());
    }
}

/// One circuit's block of the paper's Table 2: per node count, the six
/// strategy columns (`None` = a row the paper omitted after running out of
/// memory).
type PaperRows = [(usize, Option<[f64; 6]>); 4];

/// The paper's Table 2 (seconds on 8 dual-PII workstations): circuit,
/// sequential seconds, rows.
const PAPER_TABLE2: [(&str, f64, PaperRows); 3] = [
    (
        "s5378",
        149.96,
        [
            (2, Some([166.44, 118.72, 97.45, 128.63, 91.66, 166.54])),
            (4, Some([116.11, 84.80, 83.28, 331.45, 84.07, 113.11])),
            (6, Some([131.95, 76.12, 96.86, 194.34, 63.61, 96.07])),
            (8, Some([101.89, 81.09, 78.62, 152.91, 52.94, 76.56])),
        ],
    ),
    (
        "s9234",
        651.24,
        [
            (2, Some([675.07, 473.90, 417.63, 577.14, 529.39, 701.10])),
            (4, Some([496.30, 424.41, 322.02, 434.85, 341.84, 502.60])),
            (6, Some([520.80, 320.98, 373.41, 539.59, 316.96, 414.65])),
            (8, Some([383.32, 489.97, 415.02, 360.90, 290.31, 351.35])),
        ],
    ),
    (
        "s15850",
        2154.21,
        [
            (2, None),
            (4, Some([2090.82, 1279.19, 1317.28, 2272.62, 1043.43, 1832.24])),
            (6, Some([1434.79, 906.08, 1351.17, 1439.99, 943.91, 1363.40])),
            (8, Some([1407.33, 947.64, 1215.64, 2735.07, 864.03, 1176.36])),
        ],
    ),
];

/// The paper-vs-measured markdown report consumed by EXPERIMENTS.md: every
/// table and figure, measured from the grid cache, formatted next to the
/// paper's published values where the paper gives them numerically
/// (Table 2); figures are compared by shape.
pub fn report(_args: &[String]) {
    let mut grid = Grid::open();

    println!("## Table 1 — benchmark characteristics\n");
    println!("| Circuit | Inputs (paper / ours) | Gates (paper / ours) | Outputs (paper / ours) |");
    println!("|---|---|---|---|");
    for (netlist, (pi, pg, po)) in
        paper_circuits().iter().zip([(35, 2779, 49), (36, 5597, 39), (77, 10383, 150)])
    {
        let s = CircuitStats::of(netlist);
        println!(
            "| {} | {pi} / {} | {pg} / {} | {po} / {} |",
            s.name, s.inputs, s.gates, s.outputs
        );
    }

    println!("\n## Table 2 — simulation time per strategy (paper secs / our modeled secs)\n");
    println!("| Circuit | Nodes | Random | DFS | Cluster | Topological | Multilevel | Cone |");
    println!("|---|---|---|---|---|---|---|---|");
    for (circuit, _paper_seq, rows) in PAPER_TABLE2 {
        for (nodes, paper) in rows {
            let mut line = format!("| {circuit} | {nodes} |");
            for (si, strategy) in STRATEGY_ORDER.iter().enumerate() {
                let ours = grid.cell(circuit, strategy, nodes);
                let paper = paper.map_or("OOM".to_string(), |row| format!("{:.0}", row[si]));
                line.push_str(&format!(" {paper} / {:.2} |", ours.exec_time_s));
            }
            println!("{line}");
        }
    }
    println!("\nSequential baselines (paper / ours):");
    for (circuit, paper_seq, _) in PAPER_TABLE2 {
        let seq = grid.sequential(circuit);
        println!("- {circuit}: {paper_seq:.0} s / {:.2} s", seq.exec_time_s);
    }

    // Who-wins analysis (the shape claim).
    println!("\n### Winner per cell (ours)\n");
    println!("| Circuit | 2 | 4 | 6 | 8 |");
    println!("|---|---|---|---|---|");
    for circuit in PAPER_CIRCUITS {
        let mut line = format!("| {circuit} |");
        for &nodes in &TABLE2_NODES {
            let best = STRATEGY_ORDER
                .iter()
                .map(|s| (grid.cell(circuit, s, nodes).exec_time_s, *s))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap();
            line.push_str(&format!(" {} |", best.1));
        }
        println!("{line}");
    }

    // Speedup claim of the paper's conclusion.
    println!("\n### Speedup at 8 nodes (16 CPUs), multilevel vs sequential\n");
    for circuit in PAPER_CIRCUITS {
        let seq = grid.sequential(circuit);
        let ml = grid.cell(circuit, "Multilevel", 8);
        println!(
            "- {circuit}: {:.2}x (paper claims \"less than half the sequential time\", i.e. >= 2x)",
            seq.exec_time_s / ml.exec_time_s
        );
    }

    for fig in &FIGURES {
        println!("\n## {}\n", fig.heading);
        let mut header = String::from("| Strategy |");
        for n in FIGURE_NODES {
            header.push_str(&format!(" {n} |"));
        }
        println!("{header}");
        println!("|---|{}", "---|".repeat(FIGURE_NODES.len()));
        for strategy in STRATEGY_ORDER {
            let mut line = format!("| {strategy} |");
            for &n in &FIGURE_NODES {
                let v = (fig.metric)(&grid.cell("s9234", strategy, n));
                line.push_str(&format!(" {:.*} |", fig.decimals, v));
            }
            println!("{line}");
        }
        if fig.sequential_line {
            let seq = grid.sequential("s9234");
            println!("\nSequential line: {:.2} s at every x.", seq.exec_time_s);
        }
    }
}
