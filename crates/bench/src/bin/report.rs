//! Generate the paper-vs-measured markdown report consumed by
//! EXPERIMENTS.md: every table and figure, measured from the grid cache,
//! formatted next to the paper's published values where the paper gives
//! them numerically (Table 2); figures are compared by shape.

use pls_bench::{Grid, FIGURE_NODES, STRATEGY_ORDER, TABLE2_NODES};
use pls_netlist::CircuitStats;

/// One circuit's block of the paper's Table 2: name, sequential seconds,
/// and per-node-count rows of the six strategy columns (`None` = cell the
/// paper omitted after running out of memory).
type PaperRows = [(usize, [Option<f64>; 6]); 4];

/// The paper's Table 2 (seconds on 8 dual-PII workstations).
const PAPER_TABLE2: [(&str, f64, PaperRows); 3] = [
    (
        "s5378",
        149.96,
        [
            (2, [Some(166.44), Some(118.72), Some(97.45), Some(128.63), Some(91.66), Some(166.54)]),
            (4, [Some(116.11), Some(84.80), Some(83.28), Some(331.45), Some(84.07), Some(113.11)]),
            (6, [Some(131.95), Some(76.12), Some(96.86), Some(194.34), Some(63.61), Some(96.07)]),
            (8, [Some(101.89), Some(81.09), Some(78.62), Some(152.91), Some(52.94), Some(76.56)]),
        ],
    ),
    (
        "s9234",
        651.24,
        [
            (
                2,
                [
                    Some(675.07),
                    Some(473.90),
                    Some(417.63),
                    Some(577.14),
                    Some(529.39),
                    Some(701.10),
                ],
            ),
            (
                4,
                [
                    Some(496.30),
                    Some(424.41),
                    Some(322.02),
                    Some(434.85),
                    Some(341.84),
                    Some(502.60),
                ],
            ),
            (
                6,
                [
                    Some(520.80),
                    Some(320.98),
                    Some(373.41),
                    Some(539.59),
                    Some(316.96),
                    Some(414.65),
                ],
            ),
            (
                8,
                [
                    Some(383.32),
                    Some(489.97),
                    Some(415.02),
                    Some(360.90),
                    Some(290.31),
                    Some(351.35),
                ],
            ),
        ],
    ),
    (
        "s15850",
        2154.21,
        [
            (2, [None, None, None, None, None, None]),
            (
                4,
                [
                    Some(2090.82),
                    Some(1279.19),
                    Some(1317.28),
                    Some(2272.62),
                    Some(1043.43),
                    Some(1832.24),
                ],
            ),
            (
                6,
                [
                    Some(1434.79),
                    Some(906.08),
                    Some(1351.17),
                    Some(1439.99),
                    Some(943.91),
                    Some(1363.40),
                ],
            ),
            (
                8,
                [
                    Some(1407.33),
                    Some(947.64),
                    Some(1215.64),
                    Some(2735.07),
                    Some(864.03),
                    Some(1176.36),
                ],
            ),
        ],
    ),
];

fn main() {
    let mut grid = Grid::open();

    println!("## Table 1 — benchmark characteristics\n");
    println!("| Circuit | Inputs (paper / ours) | Gates (paper / ours) | Outputs (paper / ours) |");
    println!("|---|---|---|---|");
    for (netlist, (pi, pg, po)) in
        pls_bench::paper_circuits().iter().zip([(35, 2779, 49), (36, 5597, 39), (77, 10383, 150)])
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
                match paper[si] {
                    Some(p) => line.push_str(&format!(" {p:.0} / {:.2} |", ours.exec_time_s)),
                    None => line.push_str(&format!(" OOM / {:.2} |", ours.exec_time_s)),
                }
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
    for circuit in ["s5378", "s9234", "s15850"] {
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
    for circuit in ["s5378", "s9234", "s15850"] {
        let seq = grid.sequential(circuit);
        let ml = grid.cell(circuit, "Multilevel", 8);
        println!(
            "- {circuit}: {:.2}x (paper claims \"less than half the sequential time\", i.e. >= 2x)",
            seq.exec_time_s / ml.exec_time_s
        );
    }

    for (title, metric) in [
        ("Figure 4 — s9234 execution time (modeled secs) vs nodes", "time"),
        ("Figure 5 — s9234 application messages vs nodes", "messages"),
        ("Figure 6 — s9234 total rollbacks vs nodes", "rollbacks"),
    ] {
        println!("\n## {title}\n");
        let mut header = String::from("| Strategy |");
        for n in FIGURE_NODES {
            header.push_str(&format!(" {n} |"));
        }
        println!("{header}");
        println!("|---|{}", "---|".repeat(FIGURE_NODES.len()));
        for strategy in STRATEGY_ORDER {
            let mut line = format!("| {strategy} |");
            for &n in &FIGURE_NODES {
                let m = grid.cell("s9234", strategy, n);
                match metric {
                    "time" => line.push_str(&format!(" {:.2} |", m.exec_time_s)),
                    "messages" => line.push_str(&format!(" {} |", m.stats.app_messages)),
                    _ => line.push_str(&format!(" {} |", m.stats.rollbacks())),
                }
            }
            println!("{line}");
        }
        if metric == "time" {
            let seq = grid.sequential("s9234");
            println!("\nSequential line: {:.2} s at every x.", seq.exec_time_s);
        }
    }
}
