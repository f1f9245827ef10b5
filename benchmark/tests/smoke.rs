//! Harness tests against the real binary in its `--smoke` variant
//! (~300-gate circuits, one set-up, one timed iteration): every workload
//! emits every declared metric in the driver's result format, the traced
//! run writes a loadable trace, the suite form writes its results, and a
//! child that overruns its limit is killed and booked as failed.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use pipeline_bench::contract::{Metric, END_TO_END, PER_LAYER};
use pipeline_bench::parent::run_workload;
use pipeline_bench::workloads::WORKLOADS;
use pipeline_bench::RunOptions;

const EXE: &str = env!("CARGO_BIN_EXE_pipeline-bench");

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// The number after `"<name>": {"value": ` in a result line, after
/// checking the unit that follows it.
fn metric_value(line: &str, m: &Metric) -> f64 {
    let key = format!("\"{}\": {{\"value\": ", m.name);
    let at = line.find(&key).unwrap_or_else(|| panic!("{} missing from {line}", m.name));
    let rest = &line[at + key.len()..];
    let (number, tail) = rest.split_once(',').expect("value is followed by its unit");
    assert!(
        tail.starts_with(&format!(" \"unit\": \"{}\"}}", m.unit)),
        "{}: unit is not {:?} in {line}",
        m.name,
        m.unit
    );
    number.parse().unwrap_or_else(|e| panic!("{}: value {number:?}: {e}", m.name))
}

#[test]
fn every_workload_emits_every_declared_metric_in_both_trace_modes() {
    let dir = out_dir("per_workload");
    for w in WORKLOADS {
        for (trace, declared, other) in [("0", END_TO_END, PER_LAYER), ("1", PER_LAYER, END_TO_END)]
        {
            let out = Command::new(EXE)
                .args(["--smoke", "--workload", w.name, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--out"])
                .arg(&dir)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(out.status.success(), "{} --trace {trace} failed:\n{stdout}", w.name);
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains(", \"failed\": 0, \"metrics\": {"),
                "{}: unexpected result line {line}",
                w.name
            );
            for m in declared {
                let v = metric_value(line, m);
                assert!(v.is_finite(), "{}: {} = {v}", w.name, m.name);
                if m.bound.is_some() {
                    assert!(v > 0.0, "{}: end-to-end metric {} must never be 0", w.name, m.name);
                }
            }
            assert_eq!(line.matches("\"unit\"").count(), declared.len(), "{line}");
            for m in other {
                assert!(!line.contains(&format!("\"{}\"", m.name)), "{} leaked: {line}", m.name);
            }
        }
        // The traced run left a Chrome trace with one span per stage.
        let trace = std::fs::read_to_string(dir.join(format!("trace.{}.json", w.name)))
            .expect("the traced run writes its trace");
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        for stage in [
            "iteration",
            "netlist.parse",
            "partition.graph_build",
            "partition.coarsen",
            "partition.initial",
            "partition.total",
            "partition.quality",
            "gatesim.build",
            "timewarp.run",
            "gatesim.fingerprint",
            "timewarp.oracle_run",
        ] {
            assert!(trace.contains(&format!("\"name\": \"{stage}\"")), "{}: no {stage}", w.name);
        }
        assert!(trace.contains(&format!("\"workload\": \"{}\"", w.name)));
    }
}

#[test]
fn the_suite_form_runs_every_workload_and_writes_its_results() {
    let dir = out_dir("suite");
    let out = Command::new(EXE)
        .args(["--smoke", "--seed", "11", "--out"])
        .arg(&dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "suite failed:\n{stdout}");
    assert!(stdout.contains("nproc=") && stdout.contains("rustc=") && stdout.contains("git="));
    let results =
        std::fs::read_to_string(dir.join("results.json")).expect("the suite writes results.json");
    assert!(results.contains("\"seed\": 11"));
    for w in WORKLOADS {
        assert!(results.contains(&format!("\"{}\": {{\"correct\": true", w.name)), "{}", w.name);
        assert!(stdout.contains(&format!("== {} ==", w.name)));
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert_eq!(
            results.matches(&format!("\"{}\": ", m.name)).count(),
            WORKLOADS.len(),
            "{} is not reported once per workload",
            m.name
        );
    }
}

#[test]
fn a_child_over_its_limit_is_killed_and_booked_as_failed() {
    let opts = RunOptions {
        seed: 3,
        seconds: 60.0,
        trace: false,
        smoke: false,
        out_dir: out_dir("limit"),
        limit: Duration::from_millis(200),
    };
    let report = run_workload(Path::new(EXE), &WORKLOADS[0], &opts);
    assert!(!report.correct);
    assert!(report.attempted >= 1 && report.failed >= 1, "{report:?}");
    assert!(report.problem.as_deref().is_some_and(|p| p.contains("killed after")), "{report:?}");
}

#[test]
fn an_unknown_workload_is_refused_with_the_valid_names() {
    let out = Command::new(EXE).args(["--workload", "nope"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown workload `nope`") && stderr.contains(WORKLOADS[0].name));
}

#[test]
fn the_readme_documents_every_metric_and_workload() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("benchmark/README.md");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(readme.contains(&format!("`{}`", m.name)), "README lacks metric {}", m.name);
    }
    for w in WORKLOADS {
        assert!(readme.contains(&format!("`{}`", w.name)), "README lacks workload {}", w.name);
    }
}
