//! Fixture corpus for the lexical rule (D003), waiver-syntax parsing,
//! scope, the self-check that the shipped workspace is violation-free,
//! the checks handed to rustc, clippy and the `VTime` type, and the
//! command line.

use std::path::{Path, PathBuf};

use pls_detlint::{analyze_sources, analyze_workspace, in_scope, Report, RuleId, KERNEL_CRATES};

const KERNEL_PATH: &str = "crates/timewarp/src/fixture.rs";

fn run_fixture(src: &str) -> Report {
    analyze_sources(&[(KERNEL_PATH.to_string(), src.to_string())])
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
    for (line, what) in [
        (14, "`+` after ticks()"),
        (18, "`*` before a receiver chain"),
        (19, "`+=` before ticks()"),
        (24, "`*` inside VTime::from"),
    ] {
        assert!(lines.contains(&line), "{what} (line {line}), got {lines:?}");
    }
}

#[test]
fn d003_negative_fixture_is_clean() {
    let r = run_fixture(include_str!("fixtures/d003_ok.rs"));
    assert!(r.violations.is_empty(), "false positives: {:?}", r.violations);
}

#[test]
fn scope_is_the_kernel_crates_src_trees() {
    for c in KERNEL_CRATES {
        assert!(in_scope(&format!("crates/{c}/src/lib.rs")), "crates/{c}/src is checked");
    }
    // The compiled engine, replication planning and the threaded
    // executive all reach committed history.
    for p in [
        "crates/gatesim/src/compiled.rs",
        "crates/partition/src/replicate.rs",
        "crates/timewarp/src/threaded.rs",
    ] {
        assert!(in_scope(p), "{p} fell out of scope");
    }
    for p in [
        "crates/detlint/tests/fixtures/x.rs",
        "crates/timewarp/tests/stress_kernel.rs",
        "crates/bench/src/lib.rs",
        "tests/end_to_end.rs",
        "examples/quickstart.rs",
        "src/main.rs",
        "shims/foo.rs",
        "target/debug/x.rs",
    ] {
        assert!(!in_scope(p), "{p} must be out of scope");
    }
}

#[test]
fn unbalanced_source_reports_parse_error_not_violations() {
    let inputs = vec![("crates/timewarp/src/broken.rs".to_string(), "fn oops() { {".to_string())];
    let r = analyze_sources(&inputs);
    assert!(!r.parse_errors.is_empty(), "unbalanced file must surface a parse error");
    assert!(!r.clean(), "a parse error is never a clean run");
}

#[test]
fn waiver_syntax_round_trip() {
    let r = run_fixture(include_str!("fixtures/waivers.rs"));
    // good_waiver (line 5) and both halves of multi_rule (line 15) waived.
    let waived: Vec<(RuleId, u32)> = r.waived.iter().map(|f| (f.rule, f.line)).collect();
    assert!(waived.contains(&(RuleId::D003, 5)), "good waiver must cover line 5: {waived:?}");
    assert!(waived.contains(&(RuleId::D003, 15)), "multi-rule waiver (D003): {waived:?}");
    assert!(waived.contains(&(RuleId::D011, 15)), "multi-rule waiver (D011): {waived:?}");
    // missing_reason leaves its violation live and reports a bad waiver.
    assert!(
        fired_lines(&r, RuleId::D003).contains(&10),
        "missing-reason waiver must not suppress line 10"
    );
    let err_lines: Vec<u32> = r.waiver_errors.iter().map(|e| e.line).collect();
    assert!(err_lines.contains(&9), "missing reason is a waiver error: {err_lines:?}");
    assert!(err_lines.contains(&18), "unknown rule id is a waiver error: {err_lines:?}");
    // A waiver naming a retired rule is an unknown-rule error too, and
    // suppresses nothing — not even the live rule it also names.
    let retired = r.waiver_errors.iter().find(|e| e.line == 30).expect("retired-rule waiver");
    assert!(retired.message.contains("unknown rule D004"), "{}", retired.message);
    assert!(fired_lines(&r, RuleId::D003).contains(&31), "stale waiver must not suppress");
    // The D011 waiver that matches nothing is reported unused.
    assert!(
        r.unused_waivers.iter().any(|e| e.line == 21),
        "unused waiver on line 21: {:?}",
        r.unused_waivers
    );
    // half_used: the two-rule waiver on line 25 covers a line where only
    // D003 fires — the report must name D011 (and only D011) as unused.
    assert!(waived.contains(&(RuleId::D003, 26)), "half-used waiver (D003 half): {waived:?}");
    let half = r
        .unused_waivers
        .iter()
        .find(|e| e.line == 25)
        .expect("per-rule-instance unused report for line 25");
    assert!(
        half.message.contains("D011") && !half.message.contains("D003"),
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
    assert!(report.files > 50, "sanity: the kernel crates were scanned, got {}", report.files);
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

/// The retired rules are checked by rustc, clippy and the `VTime` type;
/// a check that stops firing passes forever, so pin what keeps each one
/// live. D005: every kernel crate forbids `unsafe`. D001/D002/D004 and
/// the D006/D008/D011 sources: `clippy.toml` bans the paths, and
/// `scripts/check.sh` runs that clippy pass, with the lints denied, over
/// exactly the kernel crates; the threaded executive's sanctioned sites
/// are waived item by item, never for the whole module. D007: `VTime`'s
/// field is private, so `.0` arithmetic on it does not compile (D003
/// checks the `ticks()` spelling of the same sum).
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
    for path in [
        // D001, D002
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::SystemTime",
        // D004
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "std::sync::Barrier",
        "std::sync::mpsc::Sender",
        "std::sync::mpsc::SyncSender",
        "std::sync::mpsc::Receiver",
        "std::sync::atomic::AtomicBool",
        "std::sync::atomic::AtomicU32",
        "std::sync::atomic::AtomicU64",
        "std::sync::atomic::AtomicUsize",
        "std::sync::atomic::AtomicI64",
        "std::thread::Builder",
        // D006, D008: every std atomic, cell and once-set global, and
        // file handles
        "std::sync::atomic::AtomicI8",
        "std::sync::atomic::AtomicI16",
        "std::sync::atomic::AtomicI32",
        "std::sync::atomic::AtomicIsize",
        "std::sync::atomic::AtomicU8",
        "std::sync::atomic::AtomicU16",
        "std::sync::atomic::AtomicPtr",
        "std::cell::Cell",
        "std::cell::RefCell",
        "std::cell::OnceCell",
        "std::cell::LazyCell",
        "std::cell::UnsafeCell",
        "std::cell::SyncUnsafeCell",
        "std::sync::Once",
        "std::sync::OnceLock",
        "std::sync::LazyLock",
        "std::fs::File",
    ] {
        assert!(types.contains(&format!("path = \"{path}\"")), "disallowed-types: {path}");
    }
    for path in [
        // D002
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        // D004
        "std::thread::spawn",
        "std::thread::scope",
        "std::sync::mpsc::channel",
        "std::sync::mpsc::sync_channel",
        // D006
        "std::io::stdout",
        "std::io::stderr",
        "std::io::stdin",
        "std::env::set_var",
        "std::env::remove_var",
        // D011 sources
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::thread::current",
    ] {
        assert!(methods.contains(&format!("path = \"{path}\"")), "disallowed-methods: {path}");
    }

    let threaded = workspace_file("crates/timewarp/src/threaded.rs");
    assert!(
        !threaded.contains("#![allow(clippy::disallowed_"),
        "threaded.rs must waive its sanctioned sites item by item: an inner allow switches the \
         bans off for the whole file"
    );

    let time = workspace_file("crates/timewarp/src/time.rs");
    assert!(time.contains("pub struct VTime(u64);"), "VTime's field must stay private");

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
    for lint in [
        "-D clippy::disallowed-types",
        "-D clippy::disallowed-methods",
        "-D clippy::print_stdout",
        "-D clippy::print_stderr",
        "-D clippy::dbg_macro",
    ] {
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
