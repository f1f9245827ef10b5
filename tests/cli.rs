//! Integration tests for the `parlogsim` command-line binary.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every subcommand, in table order, with a positional it accepts (empty
/// for the rows that take none).
const ROWS: [(&str, &str); 13] = [
    ("stats", "s27"),
    ("generate", "50"),
    ("partition", "s27"),
    ("simulate", "s27"),
    ("trace", "s27"),
    ("vcd", "s27"),
    ("hotspots", "s27"),
    ("dot", "s27"),
    ("report", ""),
    ("bench_kernel", ""),
    ("partitioners", ""),
    ("kernel", ""),
    ("detcheck", ""),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

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
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("unknown command `frobnicate`"), "{err}");
    for (name, _) in ROWS {
        assert!(err.contains(&format!("\n  parlogsim {name}")), "usage lacks {name}");
    }
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

/// `simulate` takes no `--dynlb`: like any flag it does not declare, it is
/// a usage error before anything runs.
#[test]
fn simulate_dynlb_is_an_unknown_flag() {
    let out = cli().args(["simulate", "s27", "-k", "2", "--dynlb"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(err.starts_with("unknown flag `--dynlb` for `simulate`"), "{err}");
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
fn gates_wider_than_255_inputs_are_parse_errors() {
    let dir = std::env::temp_dir().join("parlogsim_cli_wide_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (kind, width) in [("XOR", 255), ("OR", 256), ("XOR", 300)] {
        let ins: Vec<String> = (0..width).map(|i| format!("I{i}")).collect();
        let text = format!(
            "{}OUTPUT(Y)\nY = {kind}({})\n",
            ins.iter().map(|i| format!("INPUT({i})\n")).collect::<String>(),
            ins.join(", ")
        );
        let path = dir.join(format!("wide{width}.bench"));
        std::fs::write(&path, text).unwrap();
        let p = path.to_str().unwrap();
        for exec in ["gate-per-lp", "compiled"] {
            let args = ["simulate", p, "-k", "2", "--end", "60", "--exec", exec];
            if width <= 255 {
                run_ok(&args);
                continue;
            }
            let out = cli().args(args).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{width} inputs, {exec}: {err}");
            assert!(err.contains("parse error in"), "{err}");
            assert!(err.contains(&format!("gate `Y` of kind {kind}")), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A compiled block that outgrows its instruction encoding is a typed
/// error naming the block and the count, exit 1 — never a panic.
#[test]
fn oversized_compiled_blocks_are_errors_not_panics() {
    // Unpartitioned, the sequential baseline is one block of every gate.
    let out = cli().args(["simulate", "synth:100000", "--exec", "compiled"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(
        err.trim_end(),
        "cannot simulate `synth:100000`: compiled block 0 needs 111666 value slots (at most 65536)"
    );
    assert!(out.stdout.is_empty(), "nothing runs: {}", String::from_utf8_lossy(&out.stdout));

    // AND gates of fan-in 2..=20 have 19 distinct per-kind delays, the
    // primary inputs one more; a block has 16 agenda buckets.
    let ins: Vec<String> = (0..20).map(|i| format!("I{i}")).collect();
    let mut text: String = ins.iter().map(|i| format!("INPUT({i})\n")).collect();
    for a in 2..=20 {
        text.push_str(&format!("OUTPUT(G{a})\nG{a} = AND({})\n", ins[..a].join(", ")));
    }
    let path = std::env::temp_dir().join("parlogsim_cli_delays_test.bench");
    std::fs::write(&path, text).unwrap();
    let p = path.to_str().unwrap();
    let out = cli().args(["simulate", p, "-k", "1", "--exec", "compiled"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("compiled block 0 has 20 distinct gate delays (at most 16)"), "{err}");
    run_ok(&["simulate", p, "-k", "1", "--end", "60"]);
    std::fs::remove_file(&path).ok();
}

/// A horizon whose longest delay path reaches infinity is a build error
/// on every command that builds a model, in both engines where the
/// command has `--exec`: exit 1 and the reason, before anything runs.
#[test]
fn horizons_that_reach_infinity_exit_1_on_every_model_command() {
    let end = u64::MAX.to_string();
    let end = end.as_str();
    let runs: [&[&str]; 5] = [
        &["simulate", "s27", "-k", "2", "--end", end],
        &["simulate", "s27", "-k", "2", "--end", end, "--exec", "compiled"],
        &["trace", "s27", "-k", "2", "--end", end, "--bucket", "50"],
        &["hotspots", "s27", "-k", "2", "--end", end],
        &["vcd", "s27", "--end", end],
    ];
    for args in runs {
        let out = cli().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(
            err.trim_end(),
            format!(
                "cannot simulate `s27`: end time {end} plus the longest delay path 12 reaches \
                 the largest tick {end}: events would fall due at infinity"
            ),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
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

/// The whole table, pinned: every per-LP count it prints, and the order
/// ties sort in.
#[test]
fn hotspots_lists_offenders() {
    let out = run_ok(&["hotspots", "synth:150", "-k", "4", "--end", "120"]);
    let want = "\
synth150 / Multilevel on 4 nodes: 40 rollbacks total; top offenders:
gate             kind   part  rollbacks   undone   events
G128             OR        2          4        4       28
G136             AND       1          3        3       17
G0               NOR       3          2        3       17
G10              NAND      3          2        2        6
G11              NAND      1          2        2       17
G28              OR        3          2        2       13
G104             XNOR      2          2        2       18
G116             NAND      2          2        2       12
G125             AND       1          2        2       12
G9               OR        2          1        4       13
FF9              DFF       3          1        1        7
G8               NAND      2          1        1        7
G13              AND       0          1        1       11
G39              AND       0          1        1       15
G57              OR        1          1        1       12
";
    assert_eq!(out, want);
}

/// The paper's tables, figures and studies are one report: the six
/// subcommands that once rendered the paper's one by one and the three
/// that ran a study each are unknown commands.
#[test]
fn retired_report_subcommands_are_unknown() {
    for name in
        ["all", "table1", "table2", "fig4", "fig5", "fig6", "sensitivity", "replicate", "dynlb"]
    {
        let out = cli().arg(name).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name} printed to stdout");
        assert!(err.starts_with(&format!("unknown command `{name}`")), "{err}");
    }
}

#[test]
fn bench_kernel_smoke_only_prints_one_scenario_and_leaves_the_tracked_file_alone() {
    let tracked = repo_root().join("BENCH_kernel.json");
    let stamp =
        |p: &PathBuf| (std::fs::read(p).unwrap(), p.metadata().unwrap().modified().unwrap());
    let before = stamp(&tracked);
    // `--only` takes a prefix; this one names exactly one scenario.
    let out = run_ok(&["bench_kernel", "--smoke", "--only", "sequential_gates_compiled"]);
    assert!(out.contains("\"schema\": \"pls-bench-kernel/2\""), "{out}");
    assert!(out.contains("\"sequential_gates_compiled\": {"), "{out}");
    assert_eq!(out.matches("\"median_ns_per_event\"").count(), 1, "{out}");
    assert!(stamp(&tracked) == before, "a partial smoke run rewrote BENCH_kernel.json");
}

#[test]
fn bench_kernel_only_with_no_match_exits_2_and_lists_the_scenarios() {
    let out = cli().args(["bench_kernel", "--only", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no scenario name starts with `nope`"), "{stderr}");
    for name in ["sequential_gates", "anti_heavy", "lazy_sparse_ckpt"] {
        assert!(stderr.contains(&format!("\n  {name}\n")), "{stderr}");
    }
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
/// A surplus positional is refused the same way.
#[test]
fn bad_flags_are_rejected_by_name() {
    // (arguments after the positional, the word stderr must name)
    let mut rows: Vec<(&str, &str, Vec<&str>, &str)> = Vec::new();
    for (cmd, arg) in ROWS {
        rows.push((cmd, arg, vec!["--bogus"], "--bogus"));
        rows.push((cmd, arg, vec!["--replicat"], "--replicat"));
        rows.push((cmd, arg, vec!["extra"], "extra"));
    }
    // A flag of another subcommand.
    rows.push(("stats", "s27", vec!["--exec", "compiled"], "--exec"));
    rows.push(("generate", "50", vec!["-k", "2"], "-k"));
    rows.push(("partition", "s27", vec!["--end", "100"], "--end"));
    rows.push(("simulate", "s27", vec!["--format", "csv"], "--format"));
    rows.push(("trace", "s27", vec!["--replicate"], "--replicate"));
    rows.push(("vcd", "s27", vec!["-k", "2"], "-k"));
    rows.push(("hotspots", "s27", vec!["--replicate"], "--replicate"));
    rows.push(("dot", "s27", vec!["--trace", "t.jsonl"], "--trace"));
    rows.push(("report", "", vec!["--smoke"], "--smoke"));
    rows.push(("detcheck", "", vec!["--only", "x"], "--only"));
    rows.push(("bench_kernel", "", vec!["-k", "2"], "-k"));
    rows.push(("report", "", vec!["--trace"], "--trace"));
    // A value flag at the end of the line.
    rows.push(("generate", "50", vec!["-o"], "-o"));
    rows.push(("partition", "s27", vec!["-k"], "-k"));
    rows.push(("simulate", "s27", vec!["--end"], "--end"));
    rows.push(("simulate", "s27", vec!["--replicate", "--bucket"], "--bucket"));
    rows.push(("trace", "s27", vec!["--bucket"], "--bucket"));
    rows.push(("vcd", "s27", vec!["--end"], "--end"));
    rows.push(("hotspots", "s27", vec!["-s"], "-s"));
    rows.push(("dot", "s27", vec!["-k", "2", "-o"], "-o"));
    rows.push(("bench_kernel", "", vec!["--smoke", "--only"], "--only"));
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
    rows.push(("simulate", "s27", vec!["--end", "-5"], "--end"));
    // The first offender is named.
    rows.push((
        "simulate",
        "s27",
        vec!["-k", "abc", "--end", "xyz", "--replicat", "--bogus"],
        "-k",
    ));

    for (cmd, arg, flags, named) in rows {
        let words: Vec<&str> =
            [cmd, arg].into_iter().filter(|w| !w.is_empty()).chain(flags).collect();
        let line = format!("parlogsim {}", words.join(" "));
        let out = cli().args(&words).output().unwrap();
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
    let out = cli().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let accepted = accepted_flags();
    let names: Vec<&str> = accepted.keys().map(String::as_str).collect();
    let mut rows: Vec<&str> = ROWS.iter().map(|r| r.0).collect();
    rows.sort_unstable();
    assert_eq!(names, rows);
    for name in ["stats", "report", "detcheck"] {
        assert_eq!(accepted[name], Vec::<String>::new(), "{name}");
    }
    assert_eq!(accepted["bench_kernel"], ["--smoke", "--only", "--set-baseline"]);
    assert_eq!(accepted["vcd"], ["-o", "--end"]);
    assert_eq!(
        accepted["simulate"],
        ["-k", "-s", "--end", "--exec", "--replicate", "--trace", "--bucket"]
    );
    // What the synopsis offers is accepted: a run with every flag of the
    // subcommand passes argument checking (exit 2 is reserved for it).
    let out = cli().args(["vcd", "s27", "-o", "/dev/null", "--end", "40"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Every `parlogsim <subcommand> …` command line the docs show names a
/// subcommand that exists and only flags that subcommand accepts, and no
/// doc still runs the retired `pls-bench` binary or `cargo bench` (the
/// workspace has no bench target).
#[test]
fn the_docs_name_only_command_lines_that_exist() {
    let accepted = accepted_flags();
    let mut checked = 0;
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "docs/TELEMETRY.md",
        "docs/LINTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (i, line) in text.lines().enumerate() {
            let retired = line.contains("cargo bench")
                || line.contains("-p pls-bench")
                || line.contains("pls-bench --")
                || ROWS.iter().any(|(name, _)| line.contains(&format!("pls-bench {name}")));
            assert!(!retired, "{doc}:{}: {line}", i + 1);
        }
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

/// A seeded mutation sweep over the argument vectors of the cheap rows
/// on s27 and c17: flags dropped, duplicated or swapped, numbers garbled
/// and unknown words inserted. Every run ends in exit 0 with output, or
/// exit 1 or 2 with a message — never a panic (101) or a signal. No base
/// vector writes a file, and no mutation can add a flag that does.
#[test]
fn mutated_argument_vectors_exit_cleanly() {
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    const BASES: [&[&str]; 10] = [
        &["stats", "s27"],
        &["stats", "c17"],
        &["partition", "c17", "-k", "3", "-s", "multilevel", "--replicate"],
        &["partition", "s27", "-k", "2", "-s", "random"],
        &["simulate", "s27", "-k", "2", "--end", "60", "--replicate", "--exec", "compiled"],
        &["simulate", "c17", "-k", "3", "--replicate"],
        &["trace", "c17", "-k", "2", "--end", "40", "--bucket", "5", "--format", "csv"],
        &["vcd", "s27", "--end", "40"],
        &["hotspots", "c17", "-k", "2", "-s", "multilevel", "--end", "40"],
        &["dot", "s27", "-k", "3", "-s", "multilevel"],
    ];
    // Garbled numbers are malformed, out of range or small: a valid
    // horizon or part count stays cheap.
    const GARBLED: [&str; 10] =
        ["", "x", "-1", "3.5", "1e3", "0x10", "+", "99999999999999999999999", "0", "1"];
    const UNKNOWN: [&str; 6] = ["--bogus", "frob", "-x", "--", "-", "--k"];
    let mut s = 34u64;
    let mut codes = [0u32; 3];
    for i in 0..400 {
        let mut words: Vec<&str> = BASES[i % BASES.len()].to_vec();
        for _ in 0..1 + mix(&mut s) % 2 {
            let at = (mix(&mut s) % words.len() as u64) as usize;
            match mix(&mut s) % 5 {
                0 if words.len() > 1 => {
                    words.remove(at);
                }
                1 => words.insert(at, words[at]),
                2 => {
                    let other = (mix(&mut s) % words.len() as u64) as usize;
                    words.swap(at, other);
                }
                3 => {
                    let numbers: Vec<usize> =
                        (0..words.len()).filter(|&n| words[n].parse::<u64>().is_ok()).collect();
                    if !numbers.is_empty() {
                        let n = numbers[(mix(&mut s) % numbers.len() as u64) as usize];
                        words[n] = GARBLED[(mix(&mut s) % GARBLED.len() as u64) as usize];
                    }
                }
                _ => words.insert(at, UNKNOWN[(mix(&mut s) % UNKNOWN.len() as u64) as usize]),
            }
        }
        let line = format!("parlogsim {}", words.join(" "));
        let out = cli().args(&words).output().unwrap();
        let code = out.status.code();
        let said = if code == Some(0) { &out.stdout } else { &out.stderr };
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(code, Some(0..=2)), "`{line}` exited {code:?}:\n{err}");
        assert!(!said.is_empty(), "`{line}` exited {code:?} without a word");
        codes[code.unwrap() as usize] += 1;
    }
    // Most mutants stop at argument checking; enough must get past it.
    assert!(codes[0] > 20 && codes[1] > 0, "exit 0 / 1 / 2 counts: {codes:?}");
}
