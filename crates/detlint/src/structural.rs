//! The flow-aware rules: D006 (rollback soundness) and D008 (probe
//! purity), both reachability passes over [`crate::callgraph`]; this
//! module also dispatches the deeper structural analyses — D009
//! ([`crate::concurrency`]), D010 ([`crate::phase`]) and D011
//! ([`crate::dataflow`]) — so the engine sees one structural pass.
//!
//! **D006** — the Time Warp contract. Any event handler may be rolled
//! back, so every effect of `Application::execute` / `init_events` must
//! be confined to the checkpointed `State` or flow through the
//! kernel-owned `EventSink`; irreversible actions (output, logging,
//! shared counters) must be deferred past GVT. The pass seeds at every
//! `Application` impl, walks the call graph, and flags any reachable
//! I/O, static-mutable access, interior-mutability cell or `&self`
//! field mutation. GVT-deferred output that is genuinely safe gets the
//! ordinary waiver channel (`// detlint: allow(D006, reason)`).
//!
//! **D008** — probes observe, never steer. Every `Probe` impl method is
//! a seed; reaching a kernel entry point (`EventSink`/`LpRuntime`
//! methods) or a writable static is a violation, because a probe that
//! mutates kernel-visible state perturbs the very history it records
//! (the telemetry tests enforce this dynamically; D008 enforces it for
//! paths no test executes).

use crate::callgraph::{FnNode, Graph, Unit};
use crate::rules::{RuleId, Violation};

/// Handler methods that seed the D006 reachability pass.
const HANDLER_SEEDS: [&str; 2] = ["execute", "init_events"];

/// Macros that perform I/O (write to the host's streams). `write!` /
/// `writeln!` are excluded: they target `fmt::Formatter` in `Display`
/// impls far more often than file handles, and flagging those would
/// drown the signal.
const IO_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// Identifiers whose mere mention in a handler-reachable body signals
/// host I/O plumbing.
const IO_IDENTS: [&str; 4] = ["stdout", "stderr", "stdin", "File"];

/// Self types whose methods are kernel entry points a probe must never
/// call.
const KERNEL_TYPES: [&str; 2] = ["EventSink", "LpRuntime"];

/// A violation pinned to a file (structural rules cross file
/// boundaries, unlike the lexical ones).
#[derive(Debug, Clone)]
pub struct FileViolation {
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    /// The violation itself.
    pub violation: Violation,
}

fn push(out: &mut Vec<FileViolation>, unit: usize, rule: RuleId, line: u32, message: String) {
    out.push(FileViolation { unit, violation: Violation { rule, line, message } });
}

/// Whether traversal may enter `f` on the D006 walk: `EventSink` is the
/// sanctioned channel for handler output, so its internals are the
/// kernel's responsibility, not the handler's.
fn d006_boundary(f: &FnNode) -> bool {
    f.def.self_ty.as_deref() == Some("EventSink")
}

/// Run D006 over the graph, appending findings.
pub fn check_d006(graph: &Graph, out: &mut Vec<FileViolation>) {
    let seeds: Vec<usize> = graph
        .trait_impl_fns("Application")
        .into_iter()
        .filter(|&f| HANDLER_SEEDS.contains(&graph.fns[f].def.name.as_str()))
        .collect();
    let reach = graph.reach(&seeds, d006_boundary);
    for (&f, &(_, seed)) in &reach {
        let node = &graph.fns[f];
        let seed_name = graph.fns[seed].qualified();
        let via = |g: &Graph| {
            if f == seed {
                String::new()
            } else {
                format!(" (via {})", g.chain(&reach, f))
            }
        };
        for (m, line) in &node.facts.macros {
            if IO_MACROS.contains(&m.as_str()) {
                push(
                    out,
                    node.unit,
                    RuleId::D006,
                    *line,
                    format!(
                        "I/O macro `{m}!` reachable from rollback-able handler `{seed_name}`{}",
                        via(graph)
                    ),
                );
            }
        }
        for (id, line) in &node.facts.idents {
            if IO_IDENTS.contains(&id.as_str()) {
                push(
                    out,
                    node.unit,
                    RuleId::D006,
                    *line,
                    format!(
                        "host I/O (`{id}`) reachable from rollback-able handler `{seed_name}`{}",
                        via(graph)
                    ),
                );
            } else if crate::parser::is_interior_mut_type(id) {
                push(
                    out,
                    node.unit,
                    RuleId::D006,
                    *line,
                    format!(
                        "interior mutability (`{id}`) reachable from rollback-able handler `{seed_name}`{} — effects must live in checkpointed State",
                        via(graph)
                    ),
                );
            }
        }
        if node.facts.idents.contains_key("borrow_mut") {
            let line = node.facts.idents["borrow_mut"];
            push(
                out,
                node.unit,
                RuleId::D006,
                line,
                format!(
                    "`borrow_mut` reachable from rollback-able handler `{seed_name}`{}",
                    via(graph)
                ),
            );
        }
        for (_, st) in graph.statics.iter().filter(|(_, s)| s.is_mut || s.interior) {
            if let Some(&line) = node.facts.idents.get(&st.name) {
                push(
                    out,
                    node.unit,
                    RuleId::D006,
                    line,
                    format!(
                        "writable static `{}` touched on a path reachable from rollback-able handler `{seed_name}`{} — a rollback cannot undo it",
                        st.name,
                        via(graph)
                    ),
                );
            }
        }
        if node.def.receiver == crate::parser::Receiver::Ref {
            for &line in &node.facts.self_writes {
                push(
                    out,
                    node.unit,
                    RuleId::D006,
                    line,
                    format!(
                        "field mutation through `&self` reachable from rollback-able handler `{seed_name}`{}",
                        via(graph)
                    ),
                );
            }
        }
    }
}

/// Run D008 over the graph, appending findings.
pub fn check_d008(graph: &Graph, out: &mut Vec<FileViolation>) {
    let seeds = graph.trait_impl_fns("Probe");
    let reach = graph.reach(&seeds, |_| false);
    for (&f, &(_, seed)) in &reach {
        let node = &graph.fns[f];
        let seed_name = graph.fns[seed].qualified();
        let via = |g: &Graph| {
            if f == seed {
                String::new()
            } else {
                format!(" (via {})", g.chain(&reach, f))
            }
        };
        // A call is a violation only when *every* candidate it resolves to
        // is a kernel entry point — an ambiguous shared name (`len`,
        // `push`) must not produce noise.
        for call in &node.facts.calls {
            let cands = graph.resolve(node, call);
            if !cands.is_empty()
                && cands.iter().all(|&c| {
                    graph.fns[c].def.self_ty.as_deref().is_some_and(|t| KERNEL_TYPES.contains(&t))
                })
            {
                push(
                    out,
                    node.unit,
                    RuleId::D008,
                    call.line,
                    format!(
                        "probe `{seed_name}` reaches kernel API `{}`{} — probes observe, they never schedule or steer",
                        call.name,
                        via(graph)
                    ),
                );
            }
        }
        for (_, st) in graph.statics.iter().filter(|(_, s)| s.is_mut || s.interior) {
            if let Some(&line) = node.facts.idents.get(&st.name) {
                push(
                    out,
                    node.unit,
                    RuleId::D008,
                    line,
                    format!(
                        "probe `{seed_name}` touches writable static `{}`{}",
                        st.name,
                        via(graph)
                    ),
                );
            }
        }
    }
}

/// Run every structural rule. `in_scope` gives, per unit, whether each
/// rule applies there; findings landing in a unit where the rule is out
/// of scope are dropped.
pub fn check_structural(
    units: &[Unit],
    graph: &Graph,
    in_scope: impl Fn(usize, RuleId) -> bool,
) -> Vec<FileViolation> {
    let mut raw = Vec::new();
    check_d006(graph, &mut raw);
    check_d008(graph, &mut raw);
    crate::concurrency::check_d009(units, graph, &mut raw);
    crate::phase::check_d010(units, graph, &mut raw);
    crate::dataflow::check_d011(units, graph, &mut raw);
    raw.retain(|v| in_scope(v.unit, v.violation.rule));
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Graph, Unit};
    use crate::lexer::lex;
    use crate::parser::parse;

    fn units(srcs: &[(&str, &str)]) -> Vec<Unit> {
        srcs.iter()
            .map(|(file, src)| {
                let lx = lex(src);
                let parsed = parse(&lx);
                Unit { file: file.to_string(), lx, parsed }
            })
            .collect()
    }

    fn run(srcs: &[(&str, &str)]) -> Vec<FileViolation> {
        let u = units(srcs);
        let g = Graph::build(&u);
        check_structural(&u, &g, |_, _| true)
    }

    #[test]
    fn handler_static_mut_via_helper_is_d006() {
        let v = run(&[(
            "m.rs",
            "static mut HANDLED: u64 = 0;\n\
             struct App;\n\
             impl Application for App {\n\
                 fn execute(&self) { bump(); }\n\
                 fn init_events(&self) {}\n\
             }\n\
             fn bump() { unsafe { HANDLED += 1; } }\n",
        )]);
        assert!(
            v.iter().any(|f| f.violation.rule == RuleId::D006
                && f.violation.message.contains("HANDLED")
                && f.violation.message.contains("via")),
            "transitive static-mut write must fire with a chain: {v:?}"
        );
    }

    #[test]
    fn clean_handler_through_sink_is_silent() {
        let v = run(&[(
            "m.rs",
            "impl EventSink { pub fn schedule(&mut self) { imagine_io(); } }\n\
             fn imagine_io() { println!(\"inside the kernel, not the handler\"); }\n\
             struct App;\n\
             impl Application for App {\n\
                 fn execute(&self, sink: &mut EventSink) { sink.schedule(); }\n\
                 fn init_events(&self) {}\n\
             }\n",
        )]);
        assert!(v.is_empty(), "EventSink is the sanctioned boundary: {v:?}");
    }

    #[test]
    fn probe_calling_kernel_api_is_d008() {
        let v = run(&[(
            "m.rs",
            "impl EventSink { pub fn schedule(&mut self) {} }\n\
             struct Evil { sink: EventSink }\n\
             impl Probe for Evil {\n\
                 fn on(&mut self, event: ProbeEvent) { self.sink.schedule(); }\n\
             }\n",
        )]);
        assert!(
            v.iter().any(|f| f.violation.rule == RuleId::D008),
            "probe reaching EventSink::schedule must fire: {v:?}"
        );
    }

    #[test]
    fn probe_mutating_its_own_state_is_clean() {
        let v = run(&[(
            "m.rs",
            "struct Counter { n: u64 }\n\
             impl Probe for Counter {\n\
                 fn on(&mut self, event: ProbeEvent) { self.n += 1; self.note(); }\n\
             }\n\
             impl Counter { fn note(&mut self) { self.n += 1; } }\n",
        )]);
        assert!(v.is_empty(), "self-mutation is a probe's job: {v:?}");
    }
}
