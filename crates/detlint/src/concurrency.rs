//! Rule D009 — lock/channel protocol discipline for the audited
//! concurrency surface (`threaded.rs` today, the multi-process
//! executive tomorrow).
//!
//! Three checks, all over the [lexer](crate::lexer) token stream plus
//! the [call graph](crate::callgraph):
//!
//! * **Lock-acquisition-order consistency.** Every `.lock()` call is
//!   turned into an *interval*: a `let`-bound guard lives to the end of
//!   its enclosing block (or to an explicit `drop(guard)`), a temporary
//!   guard to the end of its statement. Overlapping intervals produce
//!   `acquired-before` edges between lock names — including transitive
//!   acquisitions through calls resolved on the graph — and any cycle
//!   in that edge relation is a potential deadlock: two threads taking
//!   the same pair of locks in opposite orders. Re-acquiring a lock
//!   name while an earlier guard on it may still be held is flagged
//!   too (`std::sync::Mutex` self-deadlocks).
//! * **No send while holding a lock.** A channel `send` under a held
//!   guard (directly or through a callee that transitively sends)
//!   couples channel backpressure to lock hold time — the classic
//!   recipe for a distributed-executive stall.
//! * **Channel wiring.** Every `let (tx, rx) = channel()` must use
//!   both endpoints afterwards; an endpoint bound to `_` or never
//!   mentioned again is a half-wired channel (a send that can never be
//!   received, or a receiver that starves).
//!
//! Lock identity is *by name*: `lbs.window.lock()` and
//! `other.window.lock()` are the same lock for ordering purposes.
//! That is deliberately coarse — consistent with the name-resolved
//! call graph — and errs toward finding inversions.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{Graph, Unit};
use crate::lexer::{Lexed, Tok};
use crate::rules::{FileViolation, RuleId, Violation};

/// One lock acquisition with its held interval `[tok, end)`.
#[derive(Debug)]
struct Acq {
    name: String,
    line: u32,
    tok: usize,
    end: usize,
}

/// Facts extracted from one function body.
#[derive(Debug, Default)]
struct FnConc {
    acqs: Vec<Acq>,
    /// Token indices of call heads, to test membership in lock intervals.
    calls: Vec<usize>,
    /// Lock names acquired directly in this body.
    direct_locks: BTreeSet<String>,
    /// Whether this body sends on a channel directly.
    direct_send: bool,
}

/// Walk backwards from `i` (the token before `.lock`) to the identifier
/// naming the lock: `lbs.movers[idx].lock()` → `movers`.
fn lock_owner(lx: &Lexed, mut i: usize, start: usize) -> Option<String> {
    loop {
        match lx.punct(i) {
            Some("]") | Some(")") => {
                // Skip the bracketed group backwards.
                let (open, close) = if lx.punct(i) == Some("]") { ("[", "]") } else { ("(", ")") };
                let mut depth = 0usize;
                while i >= start {
                    match lx.punct(i) {
                        Some(p) if p == close => depth += 1,
                        Some(p) if p == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == start {
                        return None;
                    }
                    i -= 1;
                }
                if i == start {
                    return None;
                }
                i -= 1;
            }
            Some(".") => {
                if i == start {
                    return None;
                }
                i -= 1;
            }
            _ => {
                return lx.ident(i).map(str::to_string);
            }
        }
    }
}

/// Extract lock intervals, call sites and channel facts from one body.
fn scan_fn(
    lx: &Lexed,
    open: usize,
    past_close: usize,
    out: &mut Vec<FileViolation>,
    unit: usize,
) -> FnConc {
    let body_close = past_close.saturating_sub(1);
    let mut fc = FnConc::default();
    // Stack of currently-open `{` token indices, for let-guard scoping.
    let mut blocks: Vec<usize> = Vec::new();
    // Precompute the matching close brace for every open brace.
    let mut brace_match: BTreeMap<usize, usize> = BTreeMap::new();
    {
        let mut stack = Vec::new();
        for j in open + 1..body_close {
            match lx.punct(j) {
                Some("{") => stack.push(j),
                Some("}") => {
                    if let Some(o) = stack.pop() {
                        brace_match.insert(o, j);
                    }
                }
                _ => {}
            }
        }
    }
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < body_close {
        match &lx.toks[i].tok {
            Tok::Punct("{") => {
                blocks.push(i);
                stmt_start = i + 1;
            }
            Tok::Punct("}") => {
                blocks.pop();
                stmt_start = i + 1;
            }
            Tok::Punct(";") => stmt_start = i + 1,
            Tok::Ident(id) => {
                let line = lx.toks[i].line;
                if id == "lock"
                    && lx.punct(i + 1) == Some("(")
                    && lx.punct(i.wrapping_sub(1)) == Some(".")
                    && i > open + 1
                {
                    if let Some(name) = lock_owner(lx, i - 2, open + 1) {
                        let is_let = lx.ident(stmt_start) == Some("let");
                        let end = if is_let {
                            let block_end = blocks
                                .last()
                                .and_then(|o| brace_match.get(o))
                                .copied()
                                .unwrap_or(body_close);
                            // `drop(guard)` before the block end releases early.
                            let guard = guard_name(lx, stmt_start);
                            drop_site(lx, i, block_end, guard.as_deref()).unwrap_or(block_end)
                        } else {
                            // Temporary guard: held to the end of the statement.
                            statement_end(lx, i, body_close)
                        };
                        fc.direct_locks.insert(name.clone());
                        fc.acqs.push(Acq { name, line, tok: i, end });
                    }
                } else if (id == "send" || id == "try_send")
                    && lx.punct(i + 1) == Some("(")
                    && lx.punct(i.wrapping_sub(1)) == Some(".")
                {
                    fc.direct_send = true;
                } else if id == "channel" && lx.punct(i + 1) == Some("(") {
                    check_channel_wiring(lx, stmt_start, i, body_close, out, unit);
                }
                // Record call sites for transitive lock/send lookups.
                if lx.punct(i + 1) == Some("(")
                    || (lx.punct(i + 1) == Some("::") && lx.punct(i + 2) == Some("<"))
                {
                    fc.calls.push(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    fc
}

/// The guard variable of `let <pat> = ....lock()...;` — the first plain
/// identifier after `let`, skipping `mut`.
fn guard_name(lx: &Lexed, stmt_start: usize) -> Option<String> {
    let mut j = stmt_start + 1;
    while lx.ident(j) == Some("mut") {
        j += 1;
    }
    lx.ident(j).map(str::to_string)
}

/// First `drop(<guard>)` site in `(from, limit)`, if any.
fn drop_site(lx: &Lexed, from: usize, limit: usize, guard: Option<&str>) -> Option<usize> {
    let guard = guard?;
    (from..limit).find(|&j| {
        lx.ident(j) == Some("drop")
            && lx.punct(j + 1) == Some("(")
            && lx.ident(j + 2) == Some(guard)
            && lx.punct(j + 3) == Some(")")
    })
}

/// Index of the `;` ending the statement containing `from` (at its
/// nesting level), bounded by the body close.
fn statement_end(lx: &Lexed, from: usize, body_close: usize) -> usize {
    let mut depth = 0isize;
    for j in from..body_close {
        match lx.punct(j) {
            Some("(") | Some("[") | Some("{") => depth += 1,
            Some(")") | Some("]") => depth -= 1,
            Some("}") => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Some(";") if depth <= 0 => return j,
            _ => {}
        }
    }
    body_close
}

/// `let (tx, rx) = channel();` — both endpoints must be live afterwards.
fn check_channel_wiring(
    lx: &Lexed,
    stmt_start: usize,
    chan_tok: usize,
    body_close: usize,
    out: &mut Vec<FileViolation>,
    unit: usize,
) {
    if lx.ident(stmt_start) != Some("let") || lx.punct(stmt_start + 1) != Some("(") {
        return;
    }
    let line = lx.toks[chan_tok].line;
    let mut endpoints = Vec::new();
    let mut j = stmt_start + 2;
    while j < chan_tok {
        match &lx.toks[j].tok {
            Tok::Punct(")") => break,
            Tok::Ident(id) if id != "mut" => endpoints.push(id.clone()),
            _ => {}
        }
        j += 1;
    }
    if endpoints.len() != 2 {
        return;
    }
    let after = statement_end(lx, chan_tok, body_close);
    for ep in endpoints {
        if ep == "_" {
            out.push(FileViolation {
                unit,
                violation: Violation {
                    rule: RuleId::D009,
                    line,
                    message: "channel endpoint discarded at creation (`_`) — a half-wired channel can never pair its sends and receives".into(),
                },
            });
            continue;
        }
        let used = (after..body_close).any(|k| lx.ident(k) == Some(ep.as_str()));
        if !used {
            out.push(FileViolation {
                unit,
                violation: Violation {
                    rule: RuleId::D009,
                    line,
                    message: format!(
                        "channel endpoint `{ep}` is never used after creation — half-wired channel (sends without a receiver, or vice versa)"
                    ),
                },
            });
        }
    }
}

/// Run D009 over the graph, appending findings.
pub fn check_d009(units: &[Unit], graph: &Graph, out: &mut Vec<FileViolation>) {
    let n = graph.fns.len();
    // Per-function direct facts (+ channel-wiring findings as we go).
    let mut fns: Vec<Option<FnConc>> = Vec::with_capacity(n);
    for node in &graph.fns {
        if node.def.in_test {
            fns.push(None);
            continue;
        }
        match node.def.body {
            Some((open, past_close)) => {
                fns.push(Some(scan_fn(&units[node.unit].lx, open, past_close, out, node.unit)))
            }
            None => fns.push(None),
        }
    }

    // Transitive closure over the call graph: the locks a function may
    // acquire, and whether it may send, during its execution.
    let mut locks_trans: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.as_ref().map(|f| f.direct_locks.clone()).unwrap_or_default())
        .collect();
    let mut sends_trans: Vec<bool> =
        fns.iter().map(|f| f.as_ref().is_some_and(|f| f.direct_send)).collect();
    loop {
        let mut changed = false;
        for f in 0..n {
            for &c in &graph.edges[f] {
                if !sends_trans[f] && sends_trans[c] {
                    sends_trans[f] = true;
                    changed = true;
                }
                if !locks_trans[c].is_subset(&locks_trans[f]) {
                    let extra: Vec<String> =
                        locks_trans[c].difference(&locks_trans[f]).cloned().collect();
                    locks_trans[f].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Acquired-before edges, with one witness site each.
    let mut edges: BTreeMap<(String, String), (usize, u32, String)> = BTreeMap::new();
    for (f, fc) in fns.iter().enumerate() {
        let Some(fc) = fc else { continue };
        let node = &graph.fns[f];
        let lx = &units[node.unit].lx;
        for a in &fc.acqs {
            // Nested direct acquisitions inside `a`'s interval.
            for b in &fc.acqs {
                if b.tok <= a.tok || b.tok >= a.end {
                    continue;
                }
                if b.name == a.name {
                    out.push(FileViolation {
                        unit: node.unit,
                        violation: Violation {
                            rule: RuleId::D009,
                            line: b.line,
                            message: format!(
                                "lock `{}` acquired while an earlier guard on `{}` may still be held — std::sync::Mutex self-deadlocks",
                                b.name, a.name
                            ),
                        },
                    });
                } else {
                    edges.entry((a.name.clone(), b.name.clone())).or_insert((
                        node.unit,
                        b.line,
                        format!("in `{}`", node.qualified()),
                    ));
                }
            }
            // Calls inside the interval: transitive locks become edges,
            // transitive sends become violations.
            for &tok in &fc.calls {
                if tok <= a.tok || tok >= a.end {
                    continue;
                }
                let Some(name) = lx.ident(tok) else { continue };
                let line = lx.toks[tok].line;
                let method = tok > 0 && lx.punct(tok - 1) == Some(".");
                let qualifier = if !method && tok >= 2 && lx.punct(tok - 1) == Some("::") {
                    lx.ident(tok - 2).map(str::to_string)
                } else {
                    None
                };
                let cs =
                    crate::callgraph::CallSite { name: name.to_string(), qualifier, method, line };
                if (cs.name == "send" || cs.name == "try_send") && cs.method {
                    out.push(FileViolation {
                        unit: node.unit,
                        violation: Violation {
                            rule: RuleId::D009,
                            line,
                            message: format!(
                                "channel `{}` while holding lock `{}` — release the guard before sending",
                                cs.name, a.name
                            ),
                        },
                    });
                    continue;
                }
                for c in graph.resolve(node, &cs) {
                    for l in &locks_trans[c] {
                        if *l != a.name {
                            edges.entry((a.name.clone(), l.clone())).or_insert((
                                node.unit,
                                line,
                                format!(
                                    "via `{}` in `{}`",
                                    graph.fns[c].qualified(),
                                    node.qualified()
                                ),
                            ));
                        }
                    }
                    if sends_trans[c] {
                        out.push(FileViolation {
                            unit: node.unit,
                            violation: Violation {
                                rule: RuleId::D009,
                                line,
                                message: format!(
                                    "`{}` sends on a channel while lock `{}` is held (via `{}`)",
                                    cs.name,
                                    a.name,
                                    graph.fns[c].qualified()
                                ),
                            },
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over the acquired-before relation: an edge a→b
    // closing a path b→…→a is an ordering inversion.
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    for ((a, b), (unit, line, ctx)) in &edges {
        let mut seen = BTreeSet::new();
        let mut stack = vec![b];
        let mut reaches_a = false;
        while let Some(x) = stack.pop() {
            if x == a {
                reaches_a = true;
                break;
            }
            if !seen.insert(x.clone()) {
                continue;
            }
            if let Some(nexts) = adj.get(x) {
                stack.extend(nexts.iter().copied());
            }
        }
        if reaches_a {
            out.push(FileViolation {
                unit: *unit,
                violation: Violation {
                    rule: RuleId::D009,
                    line: *line,
                    message: format!(
                        "lock-order inversion: `{a}` is acquired before `{b}` {ctx}, but another path acquires them in the opposite order — pick one global order"
                    ),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(src: &str) -> Vec<FileViolation> {
        let units = vec![Unit { file: "a.rs".to_string(), lx: lex(src), parsed: parse(&lex(src)) }];
        let g = Graph::build(&units);
        let mut out = Vec::new();
        check_d009(&units, &g, &mut out);
        out
    }

    #[test]
    fn opposite_lock_orders_are_an_inversion() {
        let v = run(
            "fn ab(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
             fn ba(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n",
        );
        assert!(v.iter().any(|f| f.violation.message.contains("inversion")), "{v:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let v = run(
            "fn ab(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
             fn ab2(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn block_scoping_releases_guards() {
        // The guards live in disjoint inner blocks: no overlap, no edge.
        let v = run("fn f(s: &S) {\n\
                 { let a = s.alpha.lock().unwrap(); }\n\
                 { let b = s.beta.lock().unwrap(); }\n\
                 { let b = s.beta.lock().unwrap(); }\n\
                 { let a = s.alpha.lock().unwrap(); }\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn explicit_drop_releases_early() {
        let v = run(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); drop(a); let a2 = s.alpha.lock().unwrap(); }\n",
        );
        assert!(v.is_empty(), "drop(guard) ends the interval: {v:?}");
    }

    #[test]
    fn reacquire_same_lock_is_self_deadlock() {
        let v = run(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.alpha.lock().unwrap(); }\n",
        );
        assert!(v.iter().any(|f| f.violation.message.contains("self-deadlock")), "{v:?}");
    }

    #[test]
    fn send_under_lock_fires_directly_and_transitively() {
        let v = run("fn f(s: &S, tx: &Tx) { let a = s.alpha.lock().unwrap(); tx.send(1); }\n");
        assert!(v.iter().any(|f| f.violation.message.contains("holding lock `alpha`")), "{v:?}");
        let v = run("fn f(s: &S, tx: &Tx) { let a = s.alpha.lock().unwrap(); relay(tx); }\n\
             fn relay(tx: &Tx) { tx.send(1); }\n");
        assert!(
            v.iter().any(|f| f.violation.message.contains("via `relay`")),
            "transitive send must be found: {v:?}"
        );
    }

    #[test]
    fn transitive_lock_edge_builds_inversion() {
        let v = run("fn f(s: &S) { let a = s.alpha.lock().unwrap(); helper(s); }\n\
             fn helper(s: &S) { let b = s.beta.lock().unwrap(); }\n\
             fn g(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n");
        assert!(v.iter().any(|f| f.violation.message.contains("inversion")), "{v:?}");
    }

    #[test]
    fn half_wired_channel_fires_and_wired_is_clean() {
        let v = run("fn f() { let (tx, rx) = channel(); tx.send(1); }\n");
        assert!(v.iter().any(|f| f.violation.message.contains("`rx`")), "{v:?}");
        let v = run("fn f() { let (tx, rx) = channel(); tx.send(1); let _ = rx.recv(); }\n");
        // The send is not under any lock; both endpoints are used.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn indexed_lock_owner_is_named() {
        let v = run(
            "fn f(s: &S, i: usize) { let p = s.plan.lock().unwrap(); s.movers[i].lock().unwrap().push(1); }\n\
             fn g(s: &S, i: usize) { let m = s.movers[i].lock().unwrap(); let p = s.plan.lock().unwrap(); }\n",
        );
        assert!(
            v.iter().any(|f| f.violation.message.contains("inversion")
                && f.violation.message.contains("movers")),
            "{v:?}"
        );
    }

    #[test]
    fn tests_are_exempt() {
        let v = run("#[cfg(test)]\nmod t {\n\
                 fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
                 fn g(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
