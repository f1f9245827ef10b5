//! The benchmark's declarations: every metric (name, unit, direction,
//! bound) and the run length, declared once. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to disk (`--print-contract`);
//! a harness test fails when the file and this registry disagree.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;
use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds`, and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] =
    &["cargo", "run", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric. End-to-end metrics carry the bound: the share of
/// the parent's median by which the metric may worsen before a change
/// counts as a regression. Per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`, unique across both lists.
    pub name: &'static str,
    /// Unit (`s`, `1/s`, `MB`, `count`, `ratio`, `ns`, `bytes`).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// What a user of the system sees (reported with `--trace 0`). One bound
/// per metric has to cover all five workloads, and `--seed` reselects the
/// stimulus, which alone moves the simulated work by 6–8 % from seed to
/// seed on the short-horizon rows; README.md lists the spreads measured
/// per row that these bounds are three times of.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("e2e_wall_s", "s", Lower, 0.25),
    e2e("sim_events_per_s", "1/s", Higher, 0.25),
    e2e("modeled_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer metrics (reported with `--trace 1`); layers are the crates.
pub const PER_LAYER: &[Metric] = &[
    layer("netlist.parse_s", "s", Lower),
    layer("netlist.gates", "count", Higher),
    layer("netlist.text_bytes", "bytes", Higher),
    layer("partition.graph_build_s", "s", Lower),
    layer("partition.coarsen_s", "s", Lower),
    layer("partition.initial_s", "s", Lower),
    layer("partition.refine_s", "s", Lower),
    layer("partition.total_s", "s", Lower),
    layer("partition.levels", "count", Lower),
    layer("partition.refine_moves", "count", Lower),
    layer("partition.refine_iters", "count", Lower),
    layer("partition.edge_cut", "count", Lower),
    layer("partition.connectivity_cut", "count", Lower),
    layer("partition.imbalance", "ratio", Lower),
    layer("partition.concurrency", "ratio", Higher),
    layer("partition.replicate_plan_s", "s", Lower),
    layer("partition.replicas", "count", Lower),
    layer("gatesim.build_s", "s", Lower),
    layer("gatesim.lps", "count", Lower),
    layer("gatesim.fingerprint_s", "s", Lower),
    layer("gatesim.ops_executed", "count", Lower),
    layer("gatesim.block_activations", "count", Lower),
    layer("gatesim.run_ns_per_op", "ns", Lower),
    layer("timewarp.run_s", "s", Lower),
    layer("timewarp.run_ns_per_event", "ns", Lower),
    layer("timewarp.events_processed", "count", Lower),
    layer("timewarp.events_committed", "count", Higher),
    layer("timewarp.efficiency", "ratio", Higher),
    layer("timewarp.rollbacks", "count", Lower),
    layer("timewarp.events_rolled_back", "count", Lower),
    layer("timewarp.antis_sent", "count", Lower),
    layer("timewarp.remote_messages", "count", Lower),
    layer("timewarp.remote_antis", "count", Lower),
    layer("timewarp.messages_saved", "count", Higher),
    layer("timewarp.comm_batches", "count", Lower),
    layer("timewarp.gvt_rounds", "count", Lower),
    layer("timewarp.states_saved", "count", Lower),
    layer("timewarp.events_coasted", "count", Lower),
    layer("timewarp.state_queue_high_water", "count", Lower),
    layer("timewarp.oracle_run_s", "s", Lower),
    layer("timewarp.speedup_vs_sequential", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Escape a string for a JSON document (the harness writes only ASCII
/// names and short messages, but failure reasons can quote anything).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn string_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(w.why))
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        )
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        string_list(COMMAND),
        string_list(PATHS),
        rows(workloads),
        rows(END_TO_END.iter().map(metric).collect()),
        rows(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_bounds_and_directions_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b} outside (0, 0.25]", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn workloads_are_well_formed() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(well_formed_name(w.name), "bad workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        // 4 + 22 runs per workload, two builds, inside the driver's cap.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `--print-contract`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
