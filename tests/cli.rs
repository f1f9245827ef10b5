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

/// Every way to get a flag wrong is exit code 2, nothing on stdout and a
/// first stderr line naming the flag — never a run on silent defaults.
#[test]
fn bad_flags_are_rejected_by_name() {
    let subcommands = [
        ("stats", "s27"),
        ("generate", "50"),
        ("partition", "s27"),
        ("simulate", "s27"),
        ("trace", "s27"),
        ("vcd", "s27"),
        ("hotspots", "s27"),
        ("dot", "s27"),
    ];
    // (arguments after the positional, the flag stderr must name)
    let mut rows: Vec<(&str, &str, Vec<&str>, &str)> = Vec::new();
    for (cmd, arg) in subcommands {
        rows.push((cmd, arg, vec!["--bogus"], "--bogus"));
        rows.push((cmd, arg, vec!["--replicat"], "--replicat"));
    }
    // A flag of another subcommand.
    rows.push(("stats", "s27", vec!["--dynlb"], "--dynlb"));
    rows.push(("generate", "50", vec!["-k", "2"], "-k"));
    rows.push(("partition", "s27", vec!["--end", "100"], "--end"));
    rows.push(("simulate", "s27", vec!["--format", "csv"], "--format"));
    rows.push(("trace", "s27", vec!["--dynlb"], "--dynlb"));
    rows.push(("vcd", "s27", vec!["-k", "2"], "-k"));
    rows.push(("hotspots", "s27", vec!["--replicate"], "--replicate"));
    rows.push(("dot", "s27", vec!["--trace", "t.jsonl"], "--trace"));
    // A value flag at the end of the line.
    rows.push(("generate", "50", vec!["-o"], "-o"));
    rows.push(("partition", "s27", vec!["-k"], "-k"));
    rows.push(("simulate", "s27", vec!["--end"], "--end"));
    rows.push(("simulate", "s27", vec!["--dynlb", "--fault-seed"], "--fault-seed"));
    rows.push(("trace", "s27", vec!["--bucket"], "--bucket"));
    rows.push(("vcd", "s27", vec!["--end"], "--end"));
    rows.push(("hotspots", "s27", vec!["-s"], "-s"));
    rows.push(("dot", "s27", vec!["-k", "2", "-o"], "-o"));
    // A value that is not a number.
    for cmd in ["partition", "simulate", "trace", "hotspots", "dot"] {
        rows.push((cmd, "s27", vec!["-k", "abc"], "-k"));
    }
    for cmd in ["simulate", "trace", "vcd", "hotspots"] {
        rows.push((cmd, "s27", vec!["--end", "xyz"], "--end"));
    }
    for cmd in ["simulate", "trace"] {
        rows.push((cmd, "s27", vec!["--bucket", "wide"], "--bucket"));
    }
    rows.push(("simulate", "s27", vec!["--fault-seed", "lucky"], "--fault-seed"));
    rows.push(("simulate", "s27", vec!["--end", "-5"], "--end"));
    // The first offender is named.
    rows.push((
        "simulate",
        "s27",
        vec!["-k", "abc", "--end", "xyz", "--replicat", "--bogus"],
        "-k",
    ));

    for (cmd, arg, flags, named) in rows {
        let line = format!("parlogsim {cmd} {arg} {}", flags.join(" "));
        let out = cli().arg(cmd).arg(arg).args(&flags).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{line}`:\n{err}");
        assert!(out.stdout.is_empty(), "`{line}` printed to stdout");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.split(['`', ' ']).any(|w| w == named), "`{line}`: {first}");
    }
}

#[test]
fn zero_counts_and_surplus_arguments_are_rejected() {
    for (args, message) in [
        (&["partition", "s27", "-k", "0"][..], "-k must be >= 1"),
        (&["dot", "s27", "-k", "0"], "-k must be >= 1"),
        (&["trace", "s27", "--bucket", "0"], "--bucket must be >= 1"),
        (&["simulate", "s27", "--trace", "t.jsonl", "--bucket", "0"], "--bucket must be >= 1"),
        (&["stats", "s27", "c17"], "unexpected argument `c17`"),
        (&["simulate", "s27", "-k", "2", "-k", "4"], "flag `-k` given twice"),
        (&["partition", "-k", "4"], "missing <circuit> argument"),
        (&["partition", "s27", "-s", "replicated"], "unknown strategy `replicated`"),
    ] {
        let out = cli().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(err.lines().next().unwrap_or_default().contains(message), "{args:?}: {err}");
    }
}

/// Subcommands and the flags each accepts, read off `parlogsim --help`:
/// the synopsis lines `  parlogsim NAME <arg> [-x V] [--flag]…`, which
/// continue on lines indented up to a `[`.
fn accepted_flags() -> std::collections::BTreeMap<String, Vec<String>> {
    let help = run_ok(&["--help"]);
    let mut accepted = std::collections::BTreeMap::new();
    let mut current: Option<&mut Vec<String>> = None;
    for line in help.lines() {
        if let Some(synopsis) = line.strip_prefix("  parlogsim ") {
            let name = synopsis.split(' ').next().unwrap().to_string();
            current = Some(accepted.entry(name).or_insert_with(Vec::new));
        } else if !line.trim_start().starts_with('[') {
            current = None;
        }
        if let Some(flags) = current.as_deref_mut() {
            flags.extend(
                line.split_whitespace()
                    .filter_map(|w| w.strip_prefix('['))
                    .map(|w| w.trim_end_matches(']').to_string()),
            );
        }
    }
    accepted
}

#[test]
fn help_lists_every_subcommand_with_its_flags() {
    let accepted = accepted_flags();
    let names: Vec<&str> = accepted.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        ["dot", "generate", "hotspots", "partition", "simulate", "stats", "trace", "vcd"]
    );
    assert_eq!(accepted["stats"], Vec::<String>::new());
    assert_eq!(accepted["vcd"], ["-o", "--end"]);
    assert_eq!(
        accepted["simulate"],
        [
            "-k",
            "-s",
            "--end",
            "--dynlb",
            "--exec",
            "--replicate",
            "--trace",
            "--bucket",
            "--faults",
            "--fault-seed"
        ]
    );
    // What the synopsis offers is accepted: a run with every flag of the
    // subcommand passes argument checking (exit 2 is reserved for it).
    let out = cli().args(["vcd", "s27", "-o", "/dev/null", "--end", "40"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Every `parlogsim <subcommand> …` command line the docs show names a
/// subcommand that exists and only flags that subcommand accepts.
#[test]
fn the_docs_name_only_command_lines_that_exist() {
    let accepted = accepted_flags();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for doc in ["README.md", "docs/TELEMETRY.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (at, _) in text.match_indices("parlogsim ") {
            // A command line starts a line (perhaps as `target/release/…`)
            // and runs to its end, or sits in backticks and runs to the
            // closing one; anything else is prose about the program.
            let before = text[..at].trim_end_matches("target/release/");
            let quoted = before.ends_with('`');
            if !quoted && !before.trim_end_matches(' ').ends_with('\n') {
                continue;
            }
            let rest = &text[at + "parlogsim ".len()..];
            let end = rest.find(if quoted { '`' } else { '\n' }).unwrap_or(rest.len());
            let line = text[..at].lines().count();
            let mut words =
                rest[..end].split_whitespace().take_while(|w| !["#", "|", "&&"].contains(w));
            let name = words.next().unwrap_or_default();
            if name == "--help" {
                continue;
            }
            let flags = accepted
                .get(name)
                .unwrap_or_else(|| panic!("{doc}:{line}: unknown subcommand `{name}`"));
            for flag in words.filter(|w| w.starts_with('-')) {
                assert!(
                    flags.iter().any(|f| f == flag),
                    "{doc}:{line}: `{name}` does not accept `{flag}`"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} command lines found: the docs moved or the scan broke");
}
