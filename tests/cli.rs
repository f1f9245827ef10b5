//! Integration tests for the `parlogsim` command-line binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parlogsim"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "`parlogsim {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn stats_on_builtin_circuit() {
    let out = run_ok(&["stats", "s27"]);
    assert!(out.contains("inputs:     4"));
    assert!(out.contains("flip-flops: 3"));
}

#[test]
fn generate_parse_simulate_round_trip() {
    let dir = std::env::temp_dir().join("parlogsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("synth200.bench");
    let p = path.to_str().unwrap();

    run_ok(&["generate", "200", "-o", p]);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("INPUT("));

    let stats = run_ok(&["stats", p]);
    assert!(stats.contains("gates:      200"), "{stats}");

    let sim = run_ok(&["simulate", p, "-k", "4", "--end", "100"]);
    assert!(sim.contains("sequential:"));
    assert!(sim.contains("Multilevel on 4 nodes (gate-per-lp):"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn partition_reports_quality_for_every_strategy() {
    for strategy in ["random", "dfs", "cluster", "topological", "multilevel", "conepartition"] {
        let out = run_ok(&["partition", "s27", "-k", "2", "-s", strategy]);
        assert!(out.contains("edge cut:"), "{strategy}: {out}");
        assert!(out.contains("imbalance:"), "{strategy}: {out}");
    }
}

#[test]
fn partition_rejects_unknown_strategy() {
    let out = cli().args(["partition", "s27", "-s", "metis"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn vcd_output_is_well_formed() {
    let out = run_ok(&["vcd", "s27", "--end", "80"]);
    assert!(out.starts_with("$date"));
    assert!(out.contains("$enddefinitions $end"));
    assert!(out.contains("$var wire 1"));
    assert!(out.lines().any(|l| l.starts_with('#')), "no value changes");
}

#[test]
fn simulate_synth_spec() {
    let out = run_ok(&["simulate", "synth:100", "-k", "2", "--end", "60", "-s", "random"]);
    assert!(out.contains("Random on 2 nodes (gate-per-lp):"));
}

#[test]
fn simulate_compiled_exec_reports_block_work() {
    let out = run_ok(&["simulate", "synth:150", "-k", "4", "--end", "100", "--exec", "compiled"]);
    assert!(out.contains("(compiled)"), "{out}");
    assert!(out.contains("block activations"), "{out}");
    assert!(out.contains("ops"), "{out}");
}

#[test]
fn simulate_rejects_unknown_exec_model() {
    let out = cli().args(["simulate", "s27", "--exec", "jit"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown exec model"), "{err}");
    assert!(err.contains("gate-per-lp") && err.contains("compiled"), "{err}");
}

#[test]
fn simulate_rejects_fault_on_missing_node() {
    let out =
        cli().args(["simulate", "s27", "-k", "8", "--faults", "drop:9:250"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node 9 does not exist"), "{err}");
}

#[test]
fn simulate_trace_writes_jsonl_series() {
    let dir = std::env::temp_dir().join("parlogsim_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let p = path.to_str().unwrap();

    let out =
        run_ok(&["simulate", "s27", "-k", "2", "--end", "200", "--trace", p, "--bucket", "50"]);
    assert!(out.contains("sequential:"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.is_empty(), "trace file is empty");
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
        assert!(line.contains("\"events\":"));
        assert!(line.contains("\"vt_lo\":"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_prints_table_and_exports_csv() {
    let table = run_ok(&["trace", "s27", "-k", "2", "--end", "200", "--bucket", "50"]);
    assert!(table.contains("bucket width 50 vt"), "{table}");
    assert!(table.contains("total"));

    let csv =
        run_ok(&["trace", "s27", "-k", "2", "--end", "200", "--bucket", "50", "--format", "csv"]);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("bucket,vt_lo,vt_hi,"), "{header}");
    let cols = header.split(',').count();
    for l in lines {
        assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
    }
}

#[test]
fn trace_rejects_unknown_format() {
    let out = cli().args(["trace", "s27", "--format", "xml"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn hotspots_lists_offenders() {
    let out = run_ok(&["hotspots", "synth:150", "-k", "4", "--end", "120"]);
    assert!(out.contains("rollbacks total"));
    assert!(out.contains("gate"));
}

#[test]
fn dot_renders_partitioned_graph() {
    let out = run_ok(&["dot", "s27", "-k", "2", "-s", "dfs"]);
    assert!(out.starts_with("digraph"));
    assert!(out.contains("fillcolor"));
    assert!(out.contains("->"));
}
