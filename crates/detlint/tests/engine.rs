//! Fixture corpus: one positive and one negative fixture per rule,
//! waiver-syntax parsing, the self-check that the shipped workspace
//! is violation-free, the checks handed to rustc and clippy, and the
//! command line.

use std::path::{Path, PathBuf};

use pls_detlint::{analyze_source, analyze_workspace, rules_for, Report, RuleId, KERNEL_CRATES};

const KERNEL_PATH: &str = "crates/timewarp/src/fixture.rs";

fn run_fixture(src: &str) -> Report {
    let mut report = Report::default();
    let active = rules_for(KERNEL_PATH).expect("kernel path is in scope");
    analyze_source(KERNEL_PATH, src, &active, &mut report);
    report
}

fn fired_lines(report: &Report, rule: RuleId) -> Vec<u32> {
    report.violations.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn d003_positive_fixture_fires() {
    let r = run_fixture(include_str!("fixtures/d003_bad.rs"));
    let lines = fired_lines(&r, RuleId::D003);
    assert!(lines.contains(&5), "f64 on gvt (line 5), got {lines:?}");
    assert!(lines.contains(&9), "f32 on lvt (line 9), got {lines:?}");
}

#[test]
fn d003_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d003_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn d004_positive_fixture_fires() {
    let r = run_fixture(include_str!("fixtures/d004_bad.rs"));
    let lines = fired_lines(&r, RuleId::D004);
    for expected in [7, 8, 9, 12] {
        assert!(lines.contains(&expected), "D004 must fire on line {expected}, got {lines:?}");
    }
}

#[test]
fn d004_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d004_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn d004_is_exempt_in_threaded_rs() {
    let rules = rules_for("crates/timewarp/src/threaded.rs").expect("in scope");
    assert!(!rules.contains(&RuleId::D004), "threaded.rs is the audited threading surface");
    assert!(rules.contains(&RuleId::D007), "other rules still apply there");
}

#[test]
fn compiled_engine_is_kernel_tier() {
    // The compiled gate-block engine executes inside LP rollback scope:
    // every kernel-tier determinism rule must stay active on it, or a
    // nondeterministic sweep could silently break fingerprint parity
    // with gate-per-LP mode.
    let rules = rules_for("crates/gatesim/src/compiled.rs").expect("in scope");
    for rule in RuleId::ALL {
        assert!(rules.contains(&rule), "{rule:?} must apply to the compiled engine");
    }
}

#[test]
fn replication_modules_are_kernel_tier() {
    // Scope regression for the hypergraph/replication subsystem: replica
    // planning decides *which* gates are duplicated, and replica
    // evaluation runs inside LP rollback scope — a nondeterministic plan
    // or replica sweep would silently break fingerprint parity with the
    // unreplicated oracle. Every kernel-tier rule must stay
    // active on each of these modules; none may drift to the relaxed
    // tests/examples tier.
    for path in [
        "crates/partition/src/replicate.rs",
        "crates/partition/src/metrics.rs",
        "crates/partition/src/incremental.rs",
        "crates/netlist/src/generate.rs",
        "crates/gatesim/src/model.rs",
        "crates/gatesim/src/experiment.rs",
        "crates/timewarp/src/stats.rs",
    ] {
        let rules = rules_for(path).unwrap_or_else(|| panic!("{path} fell out of scope"));
        assert_eq!(
            rules.len(),
            RuleId::ALL.len(),
            "{path} must carry the full kernel-tier catalog, got {rules:?}"
        );
        for rule in RuleId::ALL {
            assert!(rules.contains(&rule), "{rule:?} must apply to {path}");
        }
    }
}

#[test]
fn waiver_syntax_round_trip() {
    let r = run_fixture(include_str!("fixtures/waivers.rs"));
    // good_waiver (line 5) and both halves of multi_rule (line 17) waived.
    let waived: Vec<(RuleId, u32)> = r.waived.iter().map(|f| (f.rule, f.line)).collect();
    assert!(waived.contains(&(RuleId::D004, 5)), "good waiver must cover line 5: {waived:?}");
    assert!(waived.contains(&(RuleId::D004, 17)), "multi-rule waiver (D004): {waived:?}");
    assert!(waived.contains(&(RuleId::D007, 17)), "multi-rule waiver (D007): {waived:?}");
    // missing_reason leaves its violation live and reports a bad waiver.
    assert!(
        fired_lines(&r, RuleId::D004).contains(&11),
        "missing-reason waiver must not suppress line 11"
    );
    let err_lines: Vec<u32> = r.waiver_errors.iter().map(|e| e.line).collect();
    assert!(err_lines.contains(&10), "missing reason is a waiver error: {err_lines:?}");
    assert!(err_lines.contains(&21), "unknown rule id is a waiver error: {err_lines:?}");
    // A waiver naming a retired rule is an unknown-rule error too, and
    // suppresses nothing — not even the live rule it also names.
    let retired = r.waiver_errors.iter().find(|e| e.line == 34).expect("retired-rule waiver");
    assert!(retired.message.contains("unknown rule D001"), "{}", retired.message);
    assert!(fired_lines(&r, RuleId::D004).contains(&35), "stale waiver must not suppress");
    // The D007 waiver that matches nothing is reported unused.
    assert!(
        r.unused_waivers.iter().any(|e| e.line == 24),
        "unused waiver on line 24: {:?}",
        r.unused_waivers
    );
    // half_used: the two-rule waiver on line 28 covers a line where only
    // D004 fires — the report must name D007 (and only D007) as unused.
    assert!(waived.contains(&(RuleId::D004, 29)), "half-used waiver (D004 half): {waived:?}");
    let half = r
        .unused_waivers
        .iter()
        .find(|e| e.line == 28)
        .expect("per-rule-instance unused report for line 28");
    assert!(
        half.message.contains("D007") && !half.message.contains("D004"),
        "only the unused rule may be named: {}",
        half.message
    );
    assert!(!r.clean(), "bad waivers must fail the gate");
}

/// Self-check: the workspace this crate ships in must pass its own lint
/// gate — zero violations under every rule, zero malformed waivers,
/// every waiver actually covering something, and every in-scope file
/// structurally parsed (an incomplete call graph silently weakens the
/// reachability rules).
#[test]
fn shipped_workspace_is_violation_free() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root).expect("workspace readable");
    assert!(
        report.files > 90,
        "sanity: kernel crates plus the wider tests/examples scope were scanned, got {}",
        report.files
    );
    assert!(
        report.violations.is_empty(),
        "unwaived violations in the shipped tree: {:?}",
        report.violations
    );
    assert!(report.waiver_errors.is_empty(), "malformed waivers: {:?}", report.waiver_errors);
    assert!(report.unused_waivers.is_empty(), "stale waivers: {:?}", report.unused_waivers);
    assert!(report.parse_errors.is_empty(), "structural parse failures: {:?}", report.parse_errors);
}

fn workspace_file(rel: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The retired rules are checked by rustc and clippy; a check that stops
/// firing passes forever, so pin what keeps each one live. D005: every
/// kernel crate forbids `unsafe`. D001/D002: `clippy.toml` denies
/// RandomState maps and host clocks, and `scripts/check.sh` runs that
/// clippy pass, with both lints denied, over exactly the kernel crates.
#[test]
fn rustc_and_clippy_still_check_the_retired_rules() {
    for c in KERNEL_CRATES {
        let lib = workspace_file(&format!("crates/{c}/src/lib.rs"));
        assert!(lib.contains("#![forbid(unsafe_code)]"), "crates/{c} must forbid unsafe code");
    }

    let clippy = workspace_file("clippy.toml");
    let (types, methods) =
        clippy.split_once("\ndisallowed-methods = [").expect("clippy.toml has disallowed-methods");
    assert!(types.contains("\ndisallowed-types = ["), "disallowed-types comes first");
    for path in ["std::collections::HashMap", "std::collections::HashSet", "std::time::SystemTime"]
    {
        assert!(types.contains(&format!("path = \"{path}\"")), "disallowed-types: {path}");
    }
    for path in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(methods.contains(&format!("path = \"{path}\"")), "disallowed-methods: {path}");
    }

    let check = workspace_file("scripts/check.sh");
    let lines: Vec<&str> = check.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("for p in pls-"))
        .expect("check.sh has a per-crate clippy loop");
    let mut looped: Vec<&str> = lines[at]
        .trim_start_matches("for p in ")
        .trim_end_matches("; do")
        .split_whitespace()
        .map(|p| p.trim_start_matches("pls-"))
        .collect();
    let mut kernel = KERNEL_CRATES.to_vec();
    looped.sort_unstable();
    kernel.sort_unstable();
    assert_eq!(looped, kernel, "the clippy loop must cover exactly KERNEL_CRATES");
    let body = lines[at + 1];
    assert!(body.contains("clippy") && body.contains("--lib"), "loop body: {body}");
    for lint in ["-D clippy::disallowed-types", "-D clippy::disallowed-methods"] {
        assert!(body.contains(lint), "the per-crate clippy pass must {lint}: {body}");
    }
}

/// The command line takes `--workspace [--root PATH] [--json]` and
/// nothing else: the retired `mc` subcommand, `--self-test` (the fixture
/// tests cover its seeded bug shapes) and the `--sarif` / `--changed`
/// flags are usage errors, so a stale script fails loudly instead of
/// running something else.
#[test]
fn retired_subcommand_and_flags_are_usage_errors() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pls-detlint"))
            .args(args)
            .output()
            .expect("pls-detlint runs")
    };
    for args in [
        &["mc"][..],
        &["--self-test"],
        &["mc", "--self-test"],
        &["--workspace", "--sarif"],
        &["--workspace", "--changed"],
        &[],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "{args:?} must be a usage error");
    }
}
