//! `pls-detlint` command-line front-end.
//!
//! ```text
//! pls-detlint --workspace [--changed] [--root PATH] [--json|--sarif]  # static determinism lint
//! pls-detlint --self-test                                             # seeded-bug lint self-test
//! pls-detlint mc                                                      # exhaustive protocol model check
//! pls-detlint mc --self-test                                          # seeded-bug model-check self-test
//! ```
//!
//! `--changed` narrows *reporting* to files that differ from `git HEAD`
//! (modified or untracked) — the pre-commit mode documented in
//! `docs/LINTS.md`. The analysis still runs workspace-wide, because the
//! structural rules need the whole call graph.
//!
//! Exit status contract (relied on by `scripts/check.sh` and CI): 0
//! means clean; 1 means rule violations (or a model-checking
//! counterexample, or a failed self-test); 2 means the tool itself
//! could not do its job — bad usage, I/O failure, or a structural
//! parse error that leaves the call graph incomplete.

use std::path::PathBuf;
use std::process::ExitCode;

use pls_detlint::{
    analyze_workspace, changed_files, retain_files, run_self_test, to_json, to_sarif, to_text,
};
use pls_timewarp::modelcheck::{explore, Bug, CheckReport, ModelConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pls-detlint --workspace [--changed] [--root PATH] [--json|--sarif]\n       pls-detlint --self-test\n       pls-detlint mc [--self-test]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("mc") {
        return run_mc(&args[1..]);
    }
    run_lint(&args)
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut workspace = false;
    let mut changed = false;
    let mut json = false;
    let mut sarif = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--changed" => changed = true,
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--self-test" => {
                let (ok, transcript) = run_self_test();
                print!("{transcript}");
                return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if !workspace || (json && sarif) {
        return usage();
    }
    let root = root.unwrap_or_else(|| {
        // Default to the workspace containing this binary's sources:
        // CARGO_MANIFEST_DIR/../.. at build time, cwd at run time.
        PathBuf::from(option_env!("CARGO_MANIFEST_DIR").unwrap_or(".")).join("../..")
    });
    let mut report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pls-detlint: {e}");
            return ExitCode::from(2);
        }
    };
    if changed {
        match changed_files(&root) {
            Ok(keep) => retain_files(&mut report, &keep),
            Err(e) => {
                eprintln!("pls-detlint: --changed needs a git checkout: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if json {
        println!("{}", to_json(&report));
    } else if sarif {
        println!("{}", to_sarif(&report));
    } else {
        print!("{}", to_text(&report));
    }
    if !report.parse_errors.is_empty() {
        // The call graph is incomplete: whatever the rule results say,
        // the analysis itself failed.
        ExitCode::from(2)
    } else if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One exhaustive exploration: `(name, run)`.
type Check = (&'static str, fn() -> CheckReport);

/// Every clean configuration `mc` explores, in the order it lists them
/// (pinned by `crates/timewarp/tests/mc_full.golden`): both acceptance
/// topologies with migration, and a longer event chain without it.
const CHECKS: [Check; 3] = [
    ("2 clusters x 2 LPs, GVT + migration", || explore(&ModelConfig::small_2x2())),
    ("3 clusters x 2 LPs, GVT + migration", || explore(&ModelConfig::small_3x2())),
    ("2 clusters x 2 LPs, hops=3, GVT only", || {
        explore(&ModelConfig { hops: 3, plan: Vec::new(), ..ModelConfig::small_2x2() })
    }),
];

/// The re-injectable historical bug shapes `mc --self-test` must catch.
const BUG_SHAPES: [Check; 2] = [
    ("dropped flush transmission", || {
        explore(&ModelConfig { bug: Some(Bug::DropFlushTransmission), ..ModelConfig::small_2x2() })
    }),
    ("double-owner migration window", || {
        explore(&ModelConfig { bug: Some(Bug::DoubleOwnerMigration), ..ModelConfig::small_2x2() })
    }),
];

fn run_mc(args: &[String]) -> ExitCode {
    match args {
        [] => run_mc_checks(),
        [flag] if flag == "--self-test" => run_mc_self_test(),
        _ => usage(),
    }
}

fn run_mc_checks() -> ExitCode {
    let mut all_passed = true;
    for (name, run) in CHECKS {
        let report = run();
        let ok = report.passed();
        all_passed &= ok;
        println!(
            "model-check [{}] barrier/{}: {} states, {} transitions, {} terminal schedules, peak frontier {}{}",
            if ok { "PASS" } else { "FAIL" },
            name,
            report.states,
            report.transitions,
            report.terminals,
            report.peak_frontier,
            if report.complete { "" } else { " (bound hit — incomplete)" },
        );
        if let Some(cx) = &report.violation {
            println!("  violation: {}", cx.message);
            println!("  trace ({} steps): {}", cx.trace.len(), cx.trace.join(" -> "));
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prove the checker detects every seeded bug shape.
fn run_mc_self_test() -> ExitCode {
    let mut ok = true;
    for (name, run) in BUG_SHAPES {
        let report = run();
        match &report.violation {
            Some(cx) => println!(
                "self-test [PASS] {name}: detected after {} states — {}",
                report.states, cx.message
            ),
            None => {
                println!("self-test [FAIL] {name}: bug NOT detected ({} states)", report.states);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
