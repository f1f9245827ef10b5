//! The paper's evaluation — Tables 1–2 and Figures 4–6 next to the
//! paper's published values — and the extension studies after it, as one
//! markdown report, [`report`], whose cells all come from one in-memory
//! [`Grid`] of runs, exactly how the paper derives them from the same
//! experiments. `tests/golden/report.md` is its checked-in output.

use pls_gatesim::RunMetrics;
use pls_netlist::{CircuitStats, Netlist};

use crate::{
    paper_circuits, paper_sim_config, studies, Grid, FIGURE_NODES, PAPER_CIRCUITS, STRATEGY_ORDER,
    TABLE2_NODES,
};

/// One of the paper's s9234 figures: a metric of every strategy's cell
/// over the node counts.
struct Figure {
    /// Heading and cell precision of the markdown table.
    heading: &'static str,
    decimals: usize,
    /// Whether the figure carries the flat sequential line.
    sequential_line: bool,
    metric: fn(&RunMetrics) -> f64,
}

/// **Figure 4** — execution time, **Figure 5** — inter-node application
/// messages, **Figure 6** — total rollbacks, each vs number of nodes.
const FIGURES: [Figure; 3] = [
    Figure {
        heading: "Figure 4 — s9234 execution time (modeled secs) vs nodes",
        decimals: 2,
        sequential_line: true,
        metric: |m| m.exec_time_s,
    },
    Figure {
        heading: "Figure 5 — s9234 application messages vs nodes",
        decimals: 0,
        sequential_line: false,
        metric: |m| m.stats.app_messages as f64,
    },
    Figure {
        heading: "Figure 6 — s9234 total rollbacks vs nodes",
        decimals: 0,
        sequential_line: false,
        metric: |m| m.stats.rollbacks() as f64,
    },
];

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

/// The paper's **Table 1** over `circuits` (the three of
/// [`paper_circuits`]): the paper's inputs, gates and outputs next to
/// ours, then the structural statistics the synthetic substitutes are
/// matched on, which the paper does not give.
fn table1(circuits: &[Netlist]) -> String {
    let mut text = String::from("## Table 1 — benchmark characteristics\n\n");
    text.push_str(
        "| Circuit | Inputs (paper / ours) | Gates (paper / ours) | Outputs (paper / ours) \
         | DFFs | Edges | Depth | Avg fanout | Max fanout |\n",
    );
    text.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for (netlist, (pi, pg, po)) in
        circuits.iter().zip([(35, 2779, 49), (36, 5597, 39), (77, 10383, 150)])
    {
        let s = CircuitStats::of(netlist);
        text.push_str(&format!(
            "| {} | {pi} / {} | {pg} / {} | {po} / {} |",
            s.name, s.inputs, s.gates, s.outputs
        ));
        text.push_str(&format!(
            " {} | {} | {} | {:.2} | {} |\n",
            s.dffs, s.edges, s.depth, s.avg_fanout, s.max_fanout
        ));
    }
    text
}

/// The paper-vs-measured markdown report consumed by EXPERIMENTS.md, and
/// the one renderer of every deterministic study on it: every table and
/// figure, each cell run once, formatted next to the paper's published
/// values where the paper gives them numerically (Tables 1–2; figures
/// are compared by shape), then the cost-model sensitivity and seed
/// replication studies.
pub fn report() {
    let mut grid = Grid::new(paper_sim_config());

    print!("{}", table1(&paper_circuits()));
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

    studies::sensitivity(&mut grid);
    studies::replicate(&mut grid);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_paper_circuits_with_paper_and_our_counts() {
        let text = table1(&paper_circuits());
        let mut lines = text.lines().skip_while(|l| !l.starts_with("| Circuit |"));
        let header: Vec<&str> = lines.next().expect("header").split(" | ").collect();
        assert_eq!(header[4], "DFFs", "{text}");
        let rows: Vec<Vec<&str>> = lines.skip(1).map(|l| l.split(" | ").collect()).collect();
        assert_eq!(rows.len(), 3, "{text}");
        for (row, (circuit, gates, dffs)) in
            rows.iter().zip([("s5378", 2779, 179), ("s9234", 5597, 211), ("s15850", 10383, 534)])
        {
            assert_eq!(row[0], format!("| {circuit}"));
            assert_eq!(row[2], format!("{gates} / {gates}"), "{circuit}: paper / ours");
            assert_eq!(row[4], dffs.to_string(), "{circuit}: DFFs");
        }
    }

    /// EXPERIMENTS.md's Table 2 is the report's, row for row: each row of
    /// the page's Table 2 block appears verbatim in the checked-in report
    /// that `scripts/check.sh` holds `parlogsim report` to.
    #[test]
    fn experiments_table2_rows_are_the_golden_reports() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect(f);
        let (page, golden) = (read("EXPERIMENTS.md"), read("tests/golden/report.md"));
        let rows: Vec<&str> = page
            .lines()
            .skip_while(|l| !l.starts_with("## Table 2"))
            .skip(1)
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert_eq!(
            rows.len(),
            2 + 12,
            "EXPERIMENTS.md's Table 2 block moved:\n{}",
            rows.join("\n")
        );
        for row in rows {
            assert!(
                golden.lines().any(|l| l == row),
                "EXPERIMENTS.md row not in the report: {row}"
            );
        }
    }
}
