//! Rule D010 — GVT phase discipline.
//!
//! The threaded and platform executives move through a fixed phase
//! structure per GVT round — the same structure the model checker
//! (`pls_timewarp::modelcheck`) explores abstractly: **compute** (execute events,
//! exchange batches), **flush** (drain in-flight transmissions before
//! the reduction), **gvt** (the reduction itself / timer arming),
//! **migrate** (LP hand-offs at the commit point) and **fossil**
//! (freeing history ≤ GVT). The checker proves the *abstract* protocol
//! safe; D010 ties the *real* code to it: functions in a
//! phase-disciplined file are annotated
//!
//! ```text
//! // detlint: phase(compute|flush)
//! fn route(..) { .. }
//! ```
//!
//! and every phase-restricted operation (see [`OPS`]) must be reachable
//! only from roots whose declared phases permit it. Reachability walks
//! the [call graph](crate::callgraph), treating annotated functions as
//! boundaries — each declares its own discipline, so a walk never
//! crosses into one. An operation in a disciplined file that no
//! annotated root reaches is flagged too: code outside any declared
//! phase is exactly what a later protocol change would get wrong
//! silently.
//!
//! Only files containing at least one `phase(...)` mark are checked —
//! the rule is opt-in per file, so the sequential executive and the
//! kernel libraries stay out of scope until they grow phase structure.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{Graph, Unit};
use crate::rules::{RuleId, Violation};
use crate::structural::FileViolation;

/// The recognized phase names, in protocol order.
pub const PHASES: [&str; 5] = ["compute", "flush", "gvt", "migrate", "fossil"];

/// Phase-restricted operations: call-site name → phases allowed to
/// reach it. Names are matched against call sites (method or free).
pub const OPS: [(&str, &[&str]); 5] = [
    ("send", &["compute", "flush", "migrate"]),
    ("receive", &["compute", "flush"]),
    ("execute_next", &["compute"]),
    ("fossil_collect", &["fossil"]),
    ("evict", &["migrate"]),
];

fn allowed_phases(op: &str) -> Option<&'static [&'static str]> {
    OPS.iter().find(|(n, _)| *n == op).map(|(_, p)| *p)
}

/// One parsed phase mark, attached (or not) to a function.
#[derive(Debug)]
struct Mark {
    line: u32,
    phases: BTreeSet<String>,
}

/// Parse `phase(a|b)` bodies out of `detlint:` comments. Malformed
/// marks become D010 violations (a typo'd phase name must not silently
/// discipline nothing).
fn parse_marks(unit: usize, u: &Unit, out: &mut Vec<FileViolation>) -> Vec<Mark> {
    let mut marks = Vec::new();
    for c in &u.lx.comments {
        let Some(body) = c.text.trim_start().strip_prefix("detlint:") else { continue };
        let body = body.trim();
        let Some(args) = body.strip_prefix("phase") else { continue };
        let mut err = |message: String| {
            out.push(FileViolation {
                unit,
                violation: Violation { rule: RuleId::D010, line: c.line, message },
            });
        };
        let args = args.trim_start();
        let Some(inner) = args.strip_prefix('(').and_then(|a| a.find(')').map(|e| &a[..e])) else {
            err("expected `phase(name|name|...)` with balanced parentheses".into());
            continue;
        };
        let mut phases = BTreeSet::new();
        let mut bad = false;
        for p in inner.split(['|', ',']) {
            let p = p.trim();
            if p.is_empty() {
                continue;
            }
            if PHASES.contains(&p) {
                phases.insert(p.to_string());
            } else {
                err(format!("unknown phase `{p}` (expected one of {})", PHASES.join("|")));
                bad = true;
            }
        }
        if phases.is_empty() && !bad {
            err("phase mark names no phase".into());
            continue;
        }
        if !phases.is_empty() {
            marks.push(Mark { line: c.line, phases });
        }
    }
    marks
}

fn phase_list(phases: &BTreeSet<String>) -> String {
    phases.iter().cloned().collect::<Vec<_>>().join("|")
}

/// Run D010 over the graph, appending findings.
pub fn check_d010(units: &[Unit], graph: &Graph, out: &mut Vec<FileViolation>) {
    // Parse marks and attach each to the first fn starting within 5
    // lines below it (attributes may sit between); an unattached mark
    // is an error — it would otherwise silently discipline nothing.
    let mut annotated: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut disciplined_units: BTreeSet<usize> = BTreeSet::new();
    for (ui, u) in units.iter().enumerate() {
        let marks = parse_marks(ui, u, out);
        if marks.is_empty() {
            continue;
        }
        disciplined_units.insert(ui);
        for m in marks {
            let target = graph
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.unit == ui && f.def.line >= m.line && f.def.line <= m.line + 5)
                .min_by_key(|(_, f)| f.def.line)
                .map(|(i, _)| i);
            match target {
                Some(f) => {
                    annotated.entry(f).or_default().extend(m.phases);
                }
                None => out.push(FileViolation {
                    unit: ui,
                    violation: Violation {
                        rule: RuleId::D010,
                        line: m.line,
                        message: "phase mark attaches to no function (it must sit within 5 lines above a `fn`)".into(),
                    },
                }),
            }
        }
    }
    if annotated.is_empty() {
        return;
    }

    // Walk from each annotated root; other annotated fns are boundaries
    // (they declare their own phases). Check ops only inside
    // phase-disciplined files.
    let mut covered: BTreeSet<usize> = annotated.keys().copied().collect();
    for (&root, phases) in &annotated {
        if graph.fns[root].def.in_test {
            continue;
        }
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = vec![root];
        seen.insert(root);
        while let Some(f) = queue.pop() {
            covered.insert(f);
            let node = &graph.fns[f];
            if disciplined_units.contains(&node.unit) && !node.def.in_test {
                for call in &node.facts.calls {
                    let Some(allowed) = allowed_phases(&call.name) else { continue };
                    if !allowed.iter().any(|a| phases.contains(*a)) {
                        out.push(FileViolation {
                            unit: node.unit,
                            violation: Violation {
                                rule: RuleId::D010,
                                line: call.line,
                                message: format!(
                                    "phase-restricted operation `{}` (allowed in {}) reached from `{}`, declared phase({})",
                                    call.name,
                                    allowed.join("|"),
                                    graph.fns[root].qualified(),
                                    phase_list(phases),
                                ),
                            },
                        });
                    }
                }
            }
            for &callee in &graph.edges[f] {
                if annotated.contains_key(&callee) || !seen.insert(callee) {
                    continue;
                }
                queue.push(callee);
            }
        }
    }

    // Orphans: a function in a disciplined file, with a body, holding a
    // restricted op, that no annotated root reaches.
    for (i, node) in graph.fns.iter().enumerate() {
        if !disciplined_units.contains(&node.unit)
            || node.def.in_test
            || node.def.body.is_none()
            || covered.contains(&i)
        {
            continue;
        }
        for call in &node.facts.calls {
            if allowed_phases(&call.name).is_some() {
                out.push(FileViolation {
                    unit: node.unit,
                    violation: Violation {
                        rule: RuleId::D010,
                        line: call.line,
                        message: format!(
                            "phase-restricted operation `{}` in `{}` sits outside any declared phase — annotate the function or its callers with `// detlint: phase(...)`",
                            call.name,
                            node.qualified(),
                        ),
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(src: &str) -> Vec<FileViolation> {
        let lx = lex(src);
        let parsed = parse(&lx);
        let units = vec![Unit { file: "a.rs".to_string(), lx, parsed }];
        let g = Graph::build(&units);
        let mut out = Vec::new();
        check_d010(&units, &g, &mut out);
        out
    }

    #[test]
    fn op_in_declared_phase_is_clean() {
        let v = run("// detlint: phase(fossil)\n\
             pub fn reap(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn op_escaping_declared_phase_fires() {
        let v = run("// detlint: phase(compute)\n\
             pub fn step(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(
            v.iter().any(|f| f.violation.rule == RuleId::D010
                && f.violation.message.contains("fossil_collect")),
            "{v:?}"
        );
    }

    #[test]
    fn escape_through_helper_is_found_transitively() {
        let v = run("// detlint: phase(compute)\n\
             pub fn step(lp: &mut Lp) { helper(lp); }\n\
             fn helper(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(v.iter().any(|f| f.violation.message.contains("reached from `step`")), "{v:?}");
    }

    #[test]
    fn annotated_callee_is_a_boundary() {
        // `reap` declares fossil itself; walking into it from `step`
        // must not re-check its body against compute.
        let v = run("// detlint: phase(compute)\n\
             pub fn step(lp: &mut Lp) { reap(lp); }\n\
             // detlint: phase(fossil)\n\
             pub fn reap(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unreached_op_is_outside_any_phase() {
        let v = run("// detlint: phase(compute)\n\
             pub fn step(lp: &mut Lp) { lp.execute_next(); }\n\
             pub fn orphan(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(
            v.iter().any(|f| f.violation.message.contains("outside any declared phase")),
            "{v:?}"
        );
    }

    #[test]
    fn undisciplined_file_is_out_of_scope() {
        let v = run("pub fn free_for_all(lp: &mut Lp) { lp.fossil_collect(); }\n");
        assert!(v.is_empty(), "no phase marks, no discipline: {v:?}");
    }

    #[test]
    fn malformed_and_unattached_marks_are_errors() {
        let v = run("// detlint: phase(warmup)\n\
             pub fn step() {}\n\
             fn tail() {}\n\
             // detlint: phase(compute)\n");
        assert!(v.iter().any(|f| f.violation.message.contains("unknown phase `warmup`")), "{v:?}");
        assert!(v.iter().any(|f| f.violation.message.contains("attaches to no function")), "{v:?}");
    }

    #[test]
    fn multi_phase_intersection_permits_the_op() {
        let v = run("// detlint: phase(flush|gvt)\n\
             pub fn round(lp: &mut Lp) { lp.receive(); }\n");
        // receive is allowed in compute|flush; flush ∩ declared ≠ ∅.
        assert!(v.is_empty(), "{v:?}");
    }
}
