//! Fixture corpus for the flow rule over the call graph, D011
//! (nondeterminism taint): one positive and one negative fixture, plus a
//! workspace self-check that the shipped tree stays clean under it.

use pls_detlint::{analyze_sources, analyze_workspace, Report, RuleId};

const KERNEL_PATH: &str = "crates/timewarp/src/fixture.rs";

fn run_fixture(src: &str) -> Report {
    analyze_sources(&[(KERNEL_PATH.to_string(), src.to_string())])
}

fn messages(report: &Report, rule: RuleId) -> Vec<(u32, String)> {
    report
        .violations
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.message.clone()))
        .collect()
}

#[test]
fn d011_positive_fixture_fires_on_all_four_flows() {
    let r = run_fixture(include_str!("fixtures/d011_bad.rs"));
    let v = messages(&r, RuleId::D011);
    assert!(
        v.iter().any(|(l, m)| *l == 7 && m.contains("address")),
        "a pointer cast into schedule (line 7): {v:?}"
    );
    assert!(
        v.iter().any(|(l, m)| *l == 13 && m.contains("float")),
        "float-scaled delay into schedule_at (line 13): {v:?}"
    );
    assert!(
        v.iter().any(|(l, m)| *l == 23 && m.contains("address")),
        "address taint through the helper return (line 23): {v:?}"
    );
    assert!(
        v.iter().any(|(l, m)| *l == 32 && m.contains("host-time")),
        "host time through the helper return (line 32): {v:?}"
    );
}

#[test]
fn d011_negative_fixture_is_clean_with_audited_waiver() {
    let r = run_fixture(include_str!("fixtures/d011_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
    assert_eq!(r.waived.len(), 1, "the telemetry flow must be waived, not silent: {:?}", r.waived);
    assert_eq!(r.waived[0].rule, RuleId::D011);
    assert!(r.unused_waivers.is_empty(), "waiver must bind: {:?}", r.unused_waivers);
}

/// The shipped workspace must stay clean with D011 active.
#[test]
fn shipped_workspace_is_clean_under_flow_rules() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root).expect("workspace readable");
    let hits: Vec<_> = report.violations.iter().filter(|f| f.rule == RuleId::D011).collect();
    assert!(hits.is_empty(), "D011 must not fire on the shipped tree: {hits:?}");
}
