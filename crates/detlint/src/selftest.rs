//! Lint self-test: re-inject known bug shapes and fail unless the
//! rules catch them.
//!
//! A linter that silently stops firing is worse than no linter — the
//! tree keeps passing while the property it guarded erodes. So the
//! gate runs `pls-detlint --self-test` first: synthetic sources
//! carrying one seeded instance of each flow-aware hazard (the
//! rollback-soundness `static mut` counter shape from the issue, a raw
//! virtual-time add, a probe that schedules, a lock-order inversion, a
//! fossil free escaping its declared GVT phase, and a host-time value
//! flowing through a helper into a schedule call) are pushed through
//! the *real* pipeline — lexer, parser, call graph, phase walk, taint
//! dataflow — and the self-test fails unless each seeded bug is caught
//! and the clean controls stay clean.

use crate::engine::analyze_sources;
use crate::rules::RuleId;

struct Case {
    name: &'static str,
    /// Synthetic workspace files (path chooses the rule scope).
    files: &'static [(&'static str, &'static str)],
    /// Rules that MUST fire, with a message fragment that must appear.
    expect: &'static [(RuleId, &'static str)],
    /// When true, the case must instead produce zero violations.
    expect_clean: bool,
}

/// The seeded rollback-soundness bug: a handler that counts events in a
/// `static mut` through a helper — exactly the irreversibility D006
/// exists to catch (a rollback re-executes the event; the counter
/// double-counts and no anti-message can undo it).
const SEEDED_D006: &str = "\
static mut HANDLED: u64 = 0;\n\
pub struct App;\n\
impl Application for App {\n\
    fn init_events(&self, sink: &mut EventSink) { sink.schedule(); }\n\
    fn execute(&self, now: VTime, sink: &mut EventSink) { tally(); }\n\
}\n\
fn tally() { unsafe { HANDLED += 1; } }\n\
impl EventSink { pub fn schedule(&mut self) {} }\n";

const SEEDED_D007: &str = "\
pub fn next(now: VTime, step: u64) -> VTime {\n\
    VTime(now.0 + step)\n\
}\n";

const SEEDED_D008: &str = "\
impl EventSink { pub fn schedule(&mut self) {} }\n\
pub struct Steer { sink: EventSink }\n\
impl Probe for Steer {\n\
    fn on(&mut self, event: ProbeEvent) { self.sink.schedule(); }\n\
}\n";

const CLEAN_CONTROL: &str = "\
pub struct App;\n\
impl Application for App {\n\
    fn init_events(&self, sink: &mut EventSink) { sink.schedule(); }\n\
    fn execute(&self, state: &mut u64, sink: &mut EventSink) {\n\
        *state += 1;\n\
        sink.schedule();\n\
    }\n\
}\n\
impl EventSink { pub fn schedule(&mut self) {} }\n\
pub struct Count { n: u64 }\n\
impl Probe for Count {\n\
    fn on(&mut self, event: ProbeEvent) { self.n += 1; }\n\
}\n";

/// The seeded deadlock shape: two functions taking the same pair of
/// locks in opposite orders — the exact hazard D009's acquired-before
/// cycle detection exists for.
const SEEDED_D009: &str = "\
pub struct Shared { window: Slot, plan: Slot }\n\
pub fn forward(s: &Shared) {\n\
    let w = s.window.lock().unwrap();\n\
    let p = s.plan.lock().unwrap();\n\
    let _ = (w, p);\n\
}\n\
pub fn backward(s: &Shared) {\n\
    let p = s.plan.lock().unwrap();\n\
    let w = s.window.lock().unwrap();\n\
    let _ = (w, p);\n\
}\n";

/// The seeded phase-discipline bug: a compute-phase function that frees
/// fossils through a helper — fossil collection below GVT is only safe
/// from the fossil phase.
const SEEDED_D010: &str = "\
// detlint: phase(compute)\n\
pub fn step(lp: &mut Lp) { lp.execute_next(); reclaim(lp); }\n\
fn reclaim(lp: &mut Lp) { lp.fossil_collect(); }\n";

/// The seeded taint flow: host wall-clock escaping through a helper's
/// return value into an event schedule — nondeterministic delay, the
/// histories diverge across runs.
const SEEDED_D011: &str = "\
fn jitter_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
pub fn go(sink: &mut EventSink) {\n\
    let d = jitter_ns();\n\
    sink.schedule(1, d, 0);\n\
}\n";

/// Clean control for the D009/D010/D011 shapes: consistently-ordered
/// locks released before the (phase-legal) send, and a schedule delay
/// derived from deterministic state only.
const CLEAN_CONC: &str = "\
pub struct Shared { window: Slot, plan: Slot }\n\
// detlint: phase(compute)\n\
pub fn pump(s: &Shared, sink: &mut EventSink, base: u64) {\n\
    let w = s.window.lock().unwrap();\n\
    let n = base + 1;\n\
    drop(w);\n\
    let p = s.plan.lock().unwrap();\n\
    drop(p);\n\
    sink.send(n);\n\
}\n\
// detlint: phase(compute)\n\
pub fn pump_again(s: &Shared, sink: &mut EventSink) {\n\
    let w = s.window.lock().unwrap();\n\
    let p = s.plan.lock().unwrap();\n\
    let _ = (w, p);\n\
    sink.schedule(1, 2, 0);\n\
}\n";

const CASES: &[Case] = &[
    Case {
        name: "seeded rollback-soundness bug (static mut counter in handler)",
        files: &[("crates/timewarp/src/selftest_d006.rs", SEEDED_D006)],
        expect: &[(RuleId::D006, "HANDLED")],
        expect_clean: false,
    },
    Case {
        name: "seeded raw virtual-time arithmetic",
        files: &[("crates/timewarp/src/selftest_d007.rs", SEEDED_D007)],
        expect: &[(RuleId::D007, "VTime")],
        expect_clean: false,
    },
    Case {
        name: "seeded impure probe (schedules through EventSink)",
        files: &[("crates/timewarp/src/selftest_d008.rs", SEEDED_D008)],
        expect: &[(RuleId::D008, "schedule")],
        expect_clean: false,
    },
    Case {
        name: "seeded lock-order inversion (opposite acquisition orders)",
        files: &[("crates/timewarp/src/selftest_d009.rs", SEEDED_D009)],
        expect: &[(RuleId::D009, "inversion")],
        expect_clean: false,
    },
    Case {
        name: "seeded phase escape (fossil free reached from compute)",
        files: &[("crates/timewarp/src/selftest_d010.rs", SEEDED_D010)],
        expect: &[(RuleId::D010, "fossil_collect")],
        expect_clean: false,
    },
    Case {
        name: "seeded taint flow (host time through helper into schedule)",
        files: &[("crates/timewarp/src/selftest_d011.rs", SEEDED_D011)],
        expect: &[(RuleId::D011, "host-time")],
        expect_clean: false,
    },
    Case {
        name: "clean control (State mutation + EventSink only)",
        files: &[("crates/timewarp/src/selftest_clean.rs", CLEAN_CONTROL)],
        expect: &[],
        expect_clean: true,
    },
    Case {
        name: "clean control (ordered locks, declared phases, deterministic delays)",
        files: &[("crates/timewarp/src/selftest_conc_clean.rs", CLEAN_CONC)],
        expect: &[],
        expect_clean: true,
    },
];

/// Run every self-test case through the real pipeline. Returns
/// `(all_passed, transcript)`.
pub fn run_self_test() -> (bool, String) {
    let mut ok = true;
    let mut out = String::new();
    for case in CASES {
        let inputs: Vec<(String, String)> =
            case.files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let report = analyze_sources(&inputs);
        let mut failures: Vec<String> = Vec::new();
        if !report.parse_errors.is_empty() {
            failures.push(format!("parse errors: {:?}", report.parse_errors));
        }
        for (rule, frag) in case.expect {
            let hit = report.violations.iter().any(|v| v.rule == *rule && v.message.contains(frag));
            if !hit {
                failures.push(format!(
                    "{} did not fire (wanted message containing `{frag}`); got {:?}",
                    rule.name(),
                    report.violations
                ));
            }
        }
        if case.expect_clean && !report.violations.is_empty() {
            failures.push(format!("expected clean, got {:?}", report.violations));
        }
        if failures.is_empty() {
            out.push_str(&format!("self-test: PASS — {}\n", case.name));
        } else {
            ok = false;
            for f in &failures {
                out.push_str(&format!("self-test: FAIL — {}: {f}\n", case.name));
            }
        }
    }
    out.push_str(if ok { "self-test: all cases passed\n" } else { "self-test: FAILED\n" });
    (ok, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        let (ok, transcript) = run_self_test();
        assert!(ok, "{transcript}");
    }
}
