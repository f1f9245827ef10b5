//! Fixture corpus: one positive and one negative fixture per rule,
//! waiver-syntax parsing, the self-check that the shipped workspace
//! is violation-free, and the `mc` command line.

use pls_detlint::{analyze_source, analyze_workspace, rules_for, Report, RuleId};

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
fn d001_positive_fixture_fires_on_every_site() {
    let r = run_fixture(include_str!("fixtures/d001_bad.rs"));
    let lines = fired_lines(&r, RuleId::D001);
    for expected in [5, 6, 7, 11, 13] {
        assert!(lines.contains(&expected), "D001 must fire on line {expected}, got {lines:?}");
    }
    // The return-type mention on line 10 fires too; nothing else may.
    assert!(lines.iter().all(|l| [5, 6, 7, 10, 11, 13].contains(l)), "unexpected: {lines:?}");
}

#[test]
fn d001_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d001_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn d002_positive_fixture_fires() {
    let r = run_fixture(include_str!("fixtures/d002_bad.rs"));
    let lines = fired_lines(&r, RuleId::D002);
    assert!(lines.contains(&5), "Instant::now on line 5, got {lines:?}");
    assert!(lines.contains(&6), "SystemTime on line 6, got {lines:?}");
}

#[test]
fn d002_negative_fixture_is_clean_with_waiver() {
    let r = run_fixture(include_str!("fixtures/d002_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
    assert_eq!(r.waived.len(), 1, "the waived Instant::now must be recorded");
    assert_eq!(r.waived[0].rule, RuleId::D002);
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
    assert!(rules.contains(&RuleId::D001), "other rules still apply there");
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
    // unreplicated oracle. Every kernel-tier rule (D001–D008) must stay
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
fn d005_positive_fixture_fires() {
    let r = run_fixture(include_str!("fixtures/d005_bad.rs"));
    assert_eq!(fired_lines(&r, RuleId::D005), vec![3]);
}

#[test]
fn d005_negative_fixture_is_clean_with_waiver() {
    let r = run_fixture(include_str!("fixtures/d005_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
    assert_eq!(r.waived.len(), 1);
    assert_eq!(r.waived[0].rule, RuleId::D005);
}

#[test]
fn waiver_syntax_round_trip() {
    let r = run_fixture(include_str!("fixtures/waivers.rs"));
    // good_waiver (line 6) and both halves of multi_rule (line 18) waived.
    let waived: Vec<(RuleId, u32)> = r.waived.iter().map(|f| (f.rule, f.line)).collect();
    assert!(waived.contains(&(RuleId::D001, 6)), "good waiver must cover line 6: {waived:?}");
    assert!(waived.contains(&(RuleId::D001, 18)), "multi-rule waiver (D001): {waived:?}");
    assert!(waived.contains(&(RuleId::D002, 18)), "multi-rule waiver (D002): {waived:?}");
    // missing_reason leaves its violation live and reports a bad waiver.
    assert!(
        fired_lines(&r, RuleId::D001).contains(&12),
        "missing-reason waiver must not suppress line 12"
    );
    let err_lines: Vec<u32> = r.waiver_errors.iter().map(|e| e.line).collect();
    assert!(err_lines.contains(&11), "missing reason is a waiver error: {err_lines:?}");
    assert!(err_lines.contains(&22), "unknown rule id is a waiver error: {err_lines:?}");
    // The D002 waiver that matches nothing is reported unused.
    assert!(
        r.unused_waivers.iter().any(|e| e.line == 25),
        "unused waiver on line 25: {:?}",
        r.unused_waivers
    );
    // half_used: the two-rule waiver on line 29 covers a line where only
    // D001 fires — the report must name D002 (and only D002) as unused.
    assert!(waived.contains(&(RuleId::D001, 30)), "half-used waiver (D001 half): {waived:?}");
    let half = r
        .unused_waivers
        .iter()
        .find(|e| e.line == 29)
        .expect("per-rule-instance unused report for line 29");
    assert!(
        half.message.contains("D002") && !half.message.contains("D001"),
        "only the unused rule may be named: {}",
        half.message
    );
    assert!(!r.clean(), "bad waivers must fail the gate");
}

/// Self-check: the workspace this crate ships in must pass its own lint
/// gate — zero violations under D001–D011, zero malformed waivers,
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

/// `pls-detlint mc --self-test` catches both seeded bug shapes, and any
/// other argument, such as `--model` or `--bound`, is a usage error, so
/// a stale script fails loudly instead of running something else.
#[test]
fn mc_self_test_passes_and_unknown_flags_are_usage_errors() {
    let mc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pls-detlint"))
            .arg("mc")
            .args(args)
            .output()
            .expect("pls-detlint runs")
    };
    let out = mc(&["--self-test"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout.matches("[PASS]").count(), 2, "{stdout}");
    for args in [["--model", "all"], ["--bound", "full"]] {
        assert_eq!(mc(&args).status.code(), Some(2), "mc {args:?} must be a usage error");
    }
}
