//! `pls-detlint` command-line front-end.
//!
//! ```text
//! pls-detlint --workspace [--changed] [--root PATH] [--json|--sarif]  # static determinism lint
//! pls-detlint --self-test                                             # seeded-bug lint self-test
//! pls-detlint mc [--model barrier|async|all] [--bound small|full] [--json]  # exhaustive protocol model check
//! pls-detlint mc --self-test [--model barrier|async|all]              # seeded-bug model-check self-test
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
use pls_timewarp::modelcheck::{
    explore, AsyncBug, AsyncGvtConfig, Bug, CheckReport, LossBudget, ModelConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pls-detlint --workspace [--changed] [--root PATH] [--json|--sarif]\n       pls-detlint --self-test\n       pls-detlint mc [--model barrier|async|all] [--bound small|full] [--json]\n       pls-detlint mc --self-test [--model barrier|async|all]"
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

/// `--model` values: a family of the two tables below, or every family.
const MODEL_NAMES: [&str; 3] = ["barrier", "async", "all"];
const BOUND_NAMES: [&str; 2] = ["small", "full"];

/// The lossier channel of the full bound: two drops, four retransmissions.
const LOSSIER: LossBudget = LossBudget { lossy: true, max_drops: 2, max_retransmits: 4 };

/// One exhaustive exploration: `(family, name, full_only, run)`.
/// `family` is the `--model` key; `full_only` rows run under
/// `--bound full` only.
type Check = (&'static str, &'static str, bool, fn() -> CheckReport);

/// One seeded bug shape: `(family, name, run)`.
type BugShape = (&'static str, &'static str, fn() -> CheckReport);

/// Every clean configuration `mc` explores, in the order it lists them
/// (pinned by `crates/timewarp/tests/mc_full.golden`). The full bound
/// adds a longer event chain and a lossier channel to each family, and
/// a third cluster that never computes to the token ring.
const CHECKS: [Check; 9] =
    [
        ("barrier", "2 clusters x 2 LPs, GVT + migration", false, || {
            explore(&ModelConfig::small_2x2())
        }),
        ("barrier", "3 clusters x 2 LPs, GVT + migration", false, || {
            explore(&ModelConfig::small_3x2())
        }),
        ("barrier", "2 clusters x 2 LPs, lossy channel + retransmit", false, || {
            explore(&ModelConfig::lossy_2x2())
        }),
        ("barrier", "2 clusters x 2 LPs, hops=3, GVT only", true, || {
            explore(&ModelConfig { hops: 3, plan: Vec::new(), ..ModelConfig::small_2x2() })
        }),
        ("barrier", "2 clusters x 2 LPs, lossy, 2 drops", true, || {
            explore(&ModelConfig { loss: LOSSIER, ..ModelConfig::lossy_2x2() })
        }),
        ("async", "2 clusters, Mattern token GVT", false, || explore(&AsyncGvtConfig::small_2())),
        ("async", "2 clusters, Mattern token, lossy + retransmit", false, || {
            explore(&AsyncGvtConfig::lossy_2())
        }),
        ("async", "3 clusters, Mattern token GVT", true, || explore(&AsyncGvtConfig::small_3())),
        ("async", "2 clusters, Mattern token, lossy, 2 drops", true, || {
            explore(&AsyncGvtConfig { loss: LOSSIER, ..AsyncGvtConfig::lossy_2() })
        }),
    ];

/// The re-injectable historical bug shapes `mc --self-test` must catch.
/// Each runs on the configuration that
/// exercises its protocol: the lossy barrier variant is the only one
/// with a retransmit path to corrupt, and the async shapes live on the
/// Mattern-token model.
const BUG_SHAPES: [BugShape; 5] = [
    ("barrier", "dropped flush transmission", || {
        explore(&ModelConfig { bug: Some(Bug::DropFlushTransmission), ..ModelConfig::small_2x2() })
    }),
    ("barrier", "double-owner migration window", || {
        explore(&ModelConfig { bug: Some(Bug::DoubleOwnerMigration), ..ModelConfig::small_2x2() })
    }),
    ("barrier", "retransmit double delivery", || {
        explore(&ModelConfig {
            bug: Some(Bug::RetransmitDoubleDelivery),
            ..ModelConfig::lossy_2x2()
        })
    }),
    ("async", "miscolored sends after token flip", || {
        explore(&AsyncGvtConfig {
            bug: Some(AsyncBug::WhiteAfterToken),
            ..AsyncGvtConfig::small_2()
        })
    }),
    ("async", "drain concluded on stale counter snapshot", || {
        explore(&AsyncGvtConfig {
            bug: Some(AsyncBug::StaleCounterSnapshot),
            ..AsyncGvtConfig::small_2()
        })
    }),
];

fn run_mc(args: &[String]) -> ExitCode {
    let mut model = "all".to_string();
    let mut bound = "small".to_string();
    let mut json = false;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => match it.next().map(|m| m.to_ascii_lowercase()) {
                Some(m) if MODEL_NAMES.contains(&m.as_str()) => model = m,
                Some(m) => {
                    eprintln!(
                        "pls-detlint mc: unknown model `{m}` (valid: {})",
                        MODEL_NAMES.join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--bound" => match it.next() {
                Some(b) if BOUND_NAMES.contains(&b.as_str()) => bound = b.clone(),
                Some(b) => {
                    eprintln!(
                        "pls-detlint mc: unknown bound `{b}` (valid: {})",
                        BOUND_NAMES.join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--json" => json = true,
            "--self-test" => self_test = true,
            _ => return usage(),
        }
    }
    let selected = |family: &str| model == "all" || model == family;
    if self_test {
        // Prove the checker detects every seeded bug shape.
        return run_mc_self_test(selected);
    }
    let full = bound == "full";
    let mut all_passed = true;
    let mut lines = Vec::new();
    for (family, name, full_only, run) in CHECKS {
        if !selected(family) || (full_only && !full) {
            continue;
        }
        let report = run();
        let ok = report.passed();
        all_passed &= ok;
        if json {
            lines.push(format!(
                "{{\"model\":\"{}\",\"config\":\"{}\",\"states\":{},\"transitions\":{},\"schedules\":{},\"peak_frontier\":{},\"states_hashed\":{},\"states_expanded\":{},\"complete\":{},\"passed\":{}}}",
                family,
                name,
                report.states,
                report.transitions,
                report.terminals,
                report.peak_frontier,
                report.states_hashed,
                report.states_expanded,
                report.complete,
                ok
            ));
        } else {
            println!(
                "model-check [{}] {}/{}: {} states, {} transitions, {} terminal schedules, peak frontier {}{}",
                if ok { "PASS" } else { "FAIL" },
                family,
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
    }
    if json {
        println!("[{}]", lines.join(","));
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_mc_self_test(selected: impl Fn(&str) -> bool) -> ExitCode {
    let mut ok = true;
    for (_, name, run) in BUG_SHAPES.iter().filter(|&&(family, ..)| selected(family)) {
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
