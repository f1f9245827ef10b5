//! Regenerate the paper's **Figure 6** — rollback behaviour of the s9234
//! model: total rollbacks vs number of nodes.
//!
//! With `--trace`, additionally re-runs the 8-node cell of every strategy
//! with the telemetry probe attached and writes one JSONL time series per
//! strategy under `target/experiments/` — showing *when* in virtual time
//! the rollbacks cluster, not just their total.

use pls_bench::{render_series, Grid, FIGURE_NODES, STRATEGY_ORDER};

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    let mut grid = Grid::open();
    let mut series = Vec::new();
    for s in STRATEGY_ORDER {
        let vals = FIGURE_NODES
            .iter()
            .map(|&n| grid.cell("s9234", s, n).stats.rollbacks() as f64)
            .collect();
        series.push((s.to_string(), vals));
    }
    print!(
        "{}",
        render_series(
            "Figure 6. Rollback behaviour of s9234",
            "Total Number of Rollbacks",
            &FIGURE_NODES,
            &series
        )
    );
    if trace {
        let bucket = grid.config().end_time / 20;
        let dir = grid.experiments_dir();
        for s in STRATEGY_ORDER {
            let (_, telemetry) = grid.trace_cell("s9234", s, 8, bucket);
            let Some(ts) = telemetry else {
                eprintln!("  {s}: out of memory, no series");
                continue;
            };
            let path = dir.join(format!("fig6_{}_s9234_8n.jsonl", s.to_lowercase()));
            std::fs::write(&path, ts.to_jsonl()).expect("write trace");
            eprintln!("  wrote {} buckets to {}", ts.len(), path.display());
        }
    }
}
