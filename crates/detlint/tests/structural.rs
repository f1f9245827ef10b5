//! Fixture and integration coverage for the structural layer: the
//! D006/D007/D008 fixture corpus, cross-file reachability through
//! `analyze_sources`, waiver application to structural findings, and
//! the parse-error channel behind exit code 2.

use pls_detlint::{analyze_source, analyze_sources, rules_for, Report, RuleId};

const KERNEL_PATH: &str = "crates/timewarp/src/fixture.rs";

fn run_fixture(src: &str) -> Report {
    let mut report = Report::default();
    let active = rules_for(KERNEL_PATH).expect("kernel path is in scope");
    analyze_source(KERNEL_PATH, src, &active, &mut report);
    report
}

fn messages(report: &Report, rule: RuleId) -> Vec<&str> {
    report.violations.iter().filter(|f| f.rule == rule).map(|f| f.message.as_str()).collect()
}

#[test]
fn d006_positive_fixture_fires_on_every_shape() {
    let r = run_fixture(include_str!("fixtures/d006_bad.rs"));
    let msgs = messages(&r, RuleId::D006);
    for frag in ["println", "EXECUTED", "borrow_mut", "field mutation"] {
        assert!(
            msgs.iter().any(|m| m.contains(frag)),
            "D006 must fire on the `{frag}` shape, got {msgs:?}"
        );
    }
    // The transitive shapes must carry a call chain.
    assert!(
        msgs.iter().any(|m| m.contains("via")),
        "helper-reached effects must name the chain: {msgs:?}"
    );
}

#[test]
fn d006_negative_fixture_is_clean_with_waived_gvt_output() {
    let r = run_fixture(include_str!("fixtures/d006_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
    assert!(
        r.waived.iter().any(|f| f.rule == RuleId::D006),
        "the GVT-deferred output site must be recorded as waived: {:?}",
        r.waived
    );
    assert!(r.waiver_errors.is_empty() && r.unused_waivers.is_empty());
}

#[test]
fn d007_positive_fixture_fires_on_every_site() {
    let r = run_fixture(include_str!("fixtures/d007_bad.rs"));
    let lines: Vec<u32> =
        r.violations.iter().filter(|f| f.rule == RuleId::D007).map(|f| f.line).collect();
    for expected in [4, 8, 12] {
        assert!(lines.contains(&expected), "D007 must fire on line {expected}, got {lines:?}");
    }
    assert!(lines.iter().all(|l| [4, 8, 12].contains(l)), "unexpected: {lines:?}");
}

#[test]
fn d007_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d007_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn d008_positive_fixture_fires_direct_indirect_and_static() {
    let r = run_fixture(include_str!("fixtures/d008_bad.rs"));
    let msgs = messages(&r, RuleId::D008);
    for frag in ["schedule", "force_rollback", "PEEKED"] {
        assert!(
            msgs.iter().any(|m| m.contains(frag)),
            "D008 must fire on the `{frag}` shape, got {msgs:?}"
        );
    }
}

#[test]
fn d008_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d008_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn d006_reaches_across_files() {
    // Handler in one module, the irreversible effect two files away:
    // only the workspace-wide graph can see it.
    let inputs = vec![
        (
            "crates/timewarp/src/app_mod.rs".to_string(),
            "pub struct App;\n\
             impl Application for App {\n\
                 fn init_events(&self) {}\n\
                 fn execute(&self, now: VTime) { helpers::record(now); }\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/timewarp/src/helpers.rs".to_string(),
            "pub fn record(now: VTime) { emit(now); }\n".to_string(),
        ),
        (
            "crates/timewarp/src/emitters.rs".to_string(),
            "pub fn emit(now: VTime) { println!(\"{now}\"); }\n".to_string(),
        ),
    ];
    let r = analyze_sources(&inputs);
    let hit = r
        .violations
        .iter()
        .find(|f| f.rule == RuleId::D006)
        .expect("cross-file I/O must be reached");
    assert_eq!(hit.file, "crates/timewarp/src/emitters.rs");
    assert!(hit.message.contains("via"), "chain expected: {}", hit.message);
}

#[test]
fn structural_rules_apply_outside_kernel_crates_lexical_do_not() {
    // A test file gets D006/D007/D008 but not D004: a lock in a test
    // harness is harmless, an overflowing schedule is not.
    let inputs = vec![(
        "tests/some_harness.rs".to_string(),
        "pub fn next(now: VTime, d: u64) -> VTime { VTime(now.0 + d) }\n\
         pub fn table() { let m = Mutex::new(0); }\n"
            .to_string(),
    )];
    let r = analyze_sources(&inputs);
    assert!(r.violations.iter().any(|f| f.rule == RuleId::D007), "D007 applies: {r:?}");
    assert!(!r.violations.iter().any(|f| f.rule == RuleId::D004), "D004 must not: {r:?}");
}

#[test]
fn unbalanced_source_reports_parse_error_not_violations() {
    let inputs = vec![("crates/timewarp/src/broken.rs".to_string(), "fn oops() { {".to_string())];
    let r = analyze_sources(&inputs);
    assert!(!r.parse_errors.is_empty(), "unbalanced file must surface a parse error");
    assert!(!r.clean(), "a parse error is never a clean run");
}

#[test]
fn out_of_scope_paths_are_skipped() {
    for p in ["crates/detlint/tests/fixtures/x.rs", "shims/foo.rs", "target/debug/x.rs"] {
        assert!(rules_for(p).is_none(), "{p} must be out of scope");
    }
    assert_eq!(
        rules_for("tests/end_to_end.rs").unwrap(),
        vec![RuleId::D006, RuleId::D007, RuleId::D008]
    );
    assert!(rules_for("crates/timewarp/src/lp.rs").unwrap().len() == RuleId::ALL.len());
}
