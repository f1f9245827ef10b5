//! Integration tests for the `pls-bench` binary: the dispatcher, a few
//! cheap subcommands, and the docs that name its command lines.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The sixteen programs `pls-bench` replaced, in table order.
const NAMES: [&str; 16] = [
    "all",
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "report",
    "sensitivity",
    "replicate",
    "dynlb",
    "bench_kernel",
    "partitioners",
    "refinement",
    "coarsening",
    "kernel",
    "detcheck",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pls-bench")).args(args).output().expect("binary runs")
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_table_holds_the_sixteen_names() {
    let table: Vec<&str> = pls_bench::COMMANDS.iter().map(|c| c.0).collect();
    assert_eq!(table, NAMES);
}

#[test]
fn no_or_unknown_subcommand_exits_2_and_lists_every_name() {
    for args in [&[][..], &["nope"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in NAMES {
            assert!(stderr.contains(&format!("\n  {name} ")), "{args:?}: usage lacks {name}");
        }
    }
    assert!(String::from_utf8_lossy(&run(&["nope"]).stderr).contains("unknown subcommand `nope`"));
}

#[test]
fn help_exits_0_and_lists_every_name() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in NAMES {
        assert!(stdout.contains(&format!("\n  {name} ")), "--help lacks {name}");
    }
}

#[test]
fn table1_prints_the_three_paper_circuits() {
    let out = run(&["table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (circuit, gates) in [("s5378", "2779"), ("s9234", "5597"), ("s15850", "10383")] {
        let row = stdout.lines().find(|l| l.starts_with(circuit)).expect(circuit);
        assert!(row.contains(gates), "{row}");
    }
}

#[test]
fn bench_kernel_smoke_only_prints_one_scenario_and_leaves_the_tracked_file_alone() {
    let tracked = repo_root().join("BENCH_kernel.json");
    let stamp =
        |p: &PathBuf| (std::fs::read(p).unwrap(), p.metadata().unwrap().modified().unwrap());
    let before = stamp(&tracked);
    // `--only` takes a prefix; this one names exactly one scenario.
    let out = run(&["bench_kernel", "--smoke", "--only", "sequential_gates_compiled"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"pls-bench-kernel/2\""), "{stdout}");
    assert!(stdout.contains("\"sequential_gates_compiled\": {"), "{stdout}");
    assert_eq!(stdout.matches("\"median_ns_per_event\"").count(), 1, "{stdout}");
    assert!(stamp(&tracked) == before, "a partial smoke run rewrote BENCH_kernel.json");
}

#[test]
fn bench_kernel_only_with_no_match_exits_2_and_lists_the_scenarios() {
    let out = run(&["bench_kernel", "--only", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no scenario name starts with `nope`"), "{stderr}");
    for name in ["sequential_gates", "anti_heavy", "dynlb_hotspot_sick_node_dynamic"] {
        assert!(stderr.contains(&format!("\n  {name}\n")), "{stderr}");
    }
}

/// Every `pls-bench` command line in the docs is one the binary accepts:
/// no target selectors of the sixteen-program days, no `cargo bench` (the
/// workspace has no bench target), and only subcommands of the table.
#[test]
fn the_docs_name_only_commands_that_exist() {
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "docs/TELEMETRY.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (i, line) in text.lines().enumerate() {
            let at = format!("{doc}:{}: {line}", i + 1);
            assert!(!line.contains("cargo bench"), "{at}");
            if !line.contains("pls-bench") {
                continue;
            }
            for stale in ["--bin", "--bench", "--example"] {
                assert!(!line.contains(stale), "{at}");
            }
            for rest in line.split("pls-bench -- ").skip(1) {
                let word = rest.split(|c: char| c.is_whitespace() || c == '`').next().unwrap();
                assert!(
                    word == "--help" || NAMES.contains(&word),
                    "unknown subcommand `{word}` — {at}"
                );
            }
        }
    }
}
