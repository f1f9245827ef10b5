//! Interprocedural forward-taint dataflow, and rule D011
//! (nondeterminism taint) built on top of it.
//!
//! The engine works on the same IR as the other rules — the
//! [lexer](crate::lexer) token stream segmented into statements (the
//! D003 technique) plus the [call graph](crate::callgraph):
//!
//! 1. **Per-function def/use extraction.** Each body is split into
//!    statements at `;`/`{`/`}` boundaries; `let` bindings, plain and
//!    compound assignments, `for` patterns, `return`s and the tail
//!    expression are classified, and a per-variable taint map is built
//!    by *mention-union*: a binding absorbs the taint of every variable
//!    and every [source](Taint) mentioned on its right-hand side. The
//!    intra-function pass iterates to a fixpoint so taint flows across
//!    loop back-edges.
//! 2. **Summary-based interprocedural propagation.** Each function gets
//!    a [`Summary`]: which taint kinds its return value carries, which
//!    parameters flow to its return value, and which parameters flow
//!    into a sink somewhere below it. Call sites consult the callee
//!    summaries of every over-approximated candidate (same direction of
//!    conservatism as the call graph itself).
//! 3. **BTree-ordered fixpoint worklist.** Summaries start empty; when
//!    re-analysis changes a function's summary, all its callers are
//!    re-queued. `BTreeSet` ordering makes the iteration — and thus the
//!    report — deterministic, which a determinism linter had better be.
//!
//! Flow-insensitivity within a statement and mention-union make the
//! analysis conservative: it can flag a flow that a human can see is
//! dead, never miss one through a tracked variable. The waiver channel
//! (`// detlint: allow(D011, reason)`) absorbs the audited exceptions.
//!
//! **D011 sinks:** `EventSink::schedule` / `schedule_at` argument
//! positions, `VTime` construction (`VTime::from(..)`, and the `VTime(..)`
//! inside `time.rs` that `after` reaches), and `fingerprint(..)` inputs
//! (detcheck's oracle). **Sources:** host time, addresses and float
//! literals/casts. The other host-dependent sources — environment
//! reads, thread identity, RandomState-hashed containers — are banned
//! outright in kernel code by clippy (`clippy.toml`), so no flow from
//! them needs tracking.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallSite, Graph, Unit};
use crate::lexer::{is_float_literal, Lexed, Tok};
use crate::rules::{FileViolation, RuleId, Violation};

/// A nondeterminism-source category tracked by the taint engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Host wall-clock (`Instant::now`, `SystemTime::now`): clippy bans
    /// both in kernel code, but the threaded executive's telemetry clock
    /// is a sanctioned read whose value must not reach a sink.
    HostTime,
    /// Machine addresses (`as_ptr`, `addr_of!`, raw-pointer casts).
    Addr,
    /// Floating-point values (literals, `f32`/`f64` idents or casts).
    Float,
}

impl Taint {
    /// Human-readable source name for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Taint::HostTime => "host-time",
            Taint::Addr => "address",
            Taint::Float => "float",
        }
    }
}

fn labels(kinds: &BTreeSet<Taint>) -> String {
    kinds.iter().map(|k| k.label()).collect::<Vec<_>>().join("+")
}

/// Free or method call names that are D011 sinks when any argument is
/// tainted. `VTime` construction is handled separately.
const SINK_CALLS: [&str; 3] = ["schedule", "schedule_at", "fingerprint"];

/// What one function does with taint, as seen by its callers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Taint kinds the return value (or tail expression) may carry,
    /// independent of arguments.
    pub returns: BTreeSet<Taint>,
    /// `param_to_return[k]`: parameter `k` may flow to the return value.
    pub param_to_return: Vec<bool>,
    /// `param_to_sink[k]`: the *base* sink names (`schedule`,
    /// `fingerprint`, …) parameter `k` may flow into inside this
    /// function or below it. Base names only — storing call-chain
    /// context here would make the lattice unbounded on recursive (or
    /// over-approximated) call cycles; the "via" context is derived at
    /// diagnosis time from the immediate callee instead.
    pub param_to_sink: Vec<BTreeSet<String>>,
}

/// The interprocedural taint engine over one built call graph.
pub struct Dataflow<'a> {
    units: &'a [Unit],
    graph: &'a Graph,
    /// Converged per-function summaries, indexed like `graph.fns`.
    pub summaries: Vec<Summary>,
}

/// Per-variable dataflow state inside one function body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VarState {
    /// Variable → taint kinds it may carry.
    taint: BTreeMap<String, BTreeSet<Taint>>,
    /// Variable → parameter indices whose value it may carry.
    origin: BTreeMap<String, BTreeSet<usize>>,
}

/// What one right-hand side evaluates to.
#[derive(Debug, Default)]
struct Value {
    kinds: BTreeSet<Taint>,
    origins: BTreeSet<usize>,
}

impl<'a> Dataflow<'a> {
    /// Run the summary fixpoint over the whole graph.
    pub fn build(units: &'a [Unit], graph: &'a Graph) -> Dataflow<'a> {
        let n = graph.fns.len();
        let mut callers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (f, es) in graph.edges.iter().enumerate() {
            for &c in es {
                callers[c].insert(f);
            }
        }
        let mut df = Dataflow { units, graph, summaries: vec![Summary::default(); n] };
        let mut work: BTreeSet<usize> = (0..n).collect();
        while let Some(&f) = work.iter().next() {
            work.remove(&f);
            let new = df.analyze_fn(f, None);
            if new != df.summaries[f] {
                df.summaries[f] = new;
                work.extend(callers[f].iter().copied());
            }
        }
        df
    }

    /// Re-walk every function against the converged summaries and
    /// collect sink violations.
    pub fn collect_violations(&self, out: &mut Vec<FileViolation>) {
        let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        let mut raw = Vec::new();
        for f in 0..self.graph.fns.len() {
            self.analyze_fn(f, Some(&mut raw));
        }
        for fv in raw {
            if seen.insert((fv.unit, fv.violation.line, fv.violation.message.clone())) {
                out.push(fv);
            }
        }
    }

    /// Analyze one function to a local fixpoint against the current
    /// summaries, returning its new summary. With `collect`, sink
    /// violations are appended (used only after global convergence).
    fn analyze_fn(&self, f: usize, collect: Option<&mut Vec<FileViolation>>) -> Summary {
        let node = &self.graph.fns[f];
        let nparams = node.def.params.len();
        let mut sum = Summary {
            returns: BTreeSet::new(),
            param_to_return: vec![false; nparams],
            param_to_sink: vec![BTreeSet::new(); nparams],
        };
        if node.def.in_test {
            return sum;
        }
        let Some((open, past_close)) = node.def.body else { return sum };
        let lx = &self.units[node.unit].lx;
        let mut st = VarState::default();
        for (k, p) in node.def.params.iter().enumerate() {
            st.origin.entry(p.clone()).or_default().insert(k);
        }
        // Intra-function fixpoint: taint through loop back-edges needs a
        // second pass; mention-union converges fast, but cap the rounds
        // against pathological inputs.
        for _ in 0..8 {
            let before = st.clone();
            self.scan_statements(
                f,
                lx,
                open + 1,
                past_close.saturating_sub(1),
                &mut st,
                &mut sum,
                None,
            );
            if st == before {
                break;
            }
        }
        if let Some(out) = collect {
            self.scan_statements(
                f,
                lx,
                open + 1,
                past_close.saturating_sub(1),
                &mut st,
                &mut sum,
                Some(out),
            );
        }
        sum
    }

    /// One pass over the statements of `[start, stop)` (`stop` indexes
    /// the body's closing brace).
    #[allow(clippy::too_many_arguments)]
    fn scan_statements(
        &self,
        f: usize,
        lx: &Lexed,
        start: usize,
        stop: usize,
        st: &mut VarState,
        sum: &mut Summary,
        mut collect: Option<&mut Vec<FileViolation>>,
    ) {
        let mut seg_start = start;
        let mut i = start;
        while i <= stop {
            let boundary = i == stop
                || matches!(lx.toks[i].tok, Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}"));
            if !boundary {
                i += 1;
                continue;
            }
            let is_tail = i == stop && seg_start < i;
            self.segment(f, lx, seg_start, i, is_tail, st, sum, collect.as_deref_mut());
            seg_start = i + 1;
            i += 1;
        }
    }

    /// Process one statement segment `[s, e)`.
    #[allow(clippy::too_many_arguments)]
    fn segment(
        &self,
        f: usize,
        lx: &Lexed,
        s: usize,
        e: usize,
        is_tail: bool,
        st: &mut VarState,
        sum: &mut Summary,
        collect: Option<&mut Vec<FileViolation>>,
    ) {
        if s >= e {
            return;
        }
        // Sinks anywhere in the segment (including inside a `let` RHS).
        self.check_sinks(f, lx, s, e, st, sum, collect);

        // Classify the statement shape to find targets and RHS.
        let first = lx.ident(s);
        let (targets, rhs, is_return) = match first {
            Some("let") => {
                let Some(eq) = top_level_eq(lx, s + 1, e) else { return };
                let pat_end = top_level_punct(lx, s + 1, eq, ":").unwrap_or(eq);
                (pattern_idents(lx, s + 1, pat_end), Some((eq + 1, e)), false)
            }
            Some("for") => {
                let Some(in_kw) = (s + 1..e).find(|&j| lx.ident(j) == Some("in")) else { return };
                let targets = pattern_idents(lx, s + 1, in_kw);
                let v = self.eval(f, lx, in_kw + 1, e, st);
                for t in &targets {
                    merge_into(st, t, &v);
                }
                return;
            }
            Some("return") => (Vec::new(), Some((s + 1, e)), true),
            _ => {
                // Plain or compound assignment to a simple variable.
                if let Some(id) = lx.ident(s) {
                    let assign_rhs = match lx.punct(s + 1) {
                        Some("=") if lx.punct(s + 2) != Some("=") => Some(s + 2),
                        Some("+") | Some("-") | Some("*") | Some("/") | Some("%") | Some("^")
                        | Some("&") | Some("|")
                            if lx.punct(s + 2) == Some("=") =>
                        {
                            Some(s + 3)
                        }
                        _ => None,
                    };
                    if let Some(r) = assign_rhs {
                        (vec![id.to_string()], Some((r, e)), false)
                    } else {
                        (Vec::new(), if is_tail { Some((s, e)) } else { None }, is_tail)
                    }
                } else {
                    (Vec::new(), if is_tail { Some((s, e)) } else { None }, is_tail)
                }
            }
        };

        let Some((rs, re)) = rhs else { return };
        let v = self.eval(f, lx, rs, re, st);
        if is_return || is_tail {
            sum.returns.extend(v.kinds.iter().copied());
            for &k in &v.origins {
                if k < sum.param_to_return.len() {
                    sum.param_to_return[k] = true;
                }
            }
        }
        for t in &targets {
            merge_into(st, t, &v);
        }
    }

    /// Evaluate an expression range: union of every source pattern,
    /// tainted-variable mention, parameter mention, and callee-summary
    /// return taint inside it.
    fn eval(&self, f: usize, lx: &Lexed, s: usize, e: usize, st: &VarState) -> Value {
        let mut v = Value::default();
        let caller = &self.graph.fns[f];
        let mut j = s;
        while j < e {
            match &lx.toks[j].tok {
                Tok::Num(t) if is_float_literal(t) => {
                    v.kinds.insert(Taint::Float);
                }
                Tok::Ident(id) => {
                    match id.as_str() {
                        "f32" | "f64" => {
                            v.kinds.insert(Taint::Float);
                        }
                        "Instant" | "SystemTime"
                            if lx.punct(j + 1) == Some("::")
                                && matches!(lx.ident(j + 2), Some("now" | "elapsed")) =>
                        {
                            v.kinds.insert(Taint::HostTime);
                        }
                        "as_ptr" | "as_mut_ptr" | "addr_of" | "addr_of_mut" => {
                            v.kinds.insert(Taint::Addr);
                        }
                        "as" if lx.punct(j + 1) == Some("*")
                            && matches!(lx.ident(j + 2), Some("const" | "mut")) =>
                        {
                            v.kinds.insert(Taint::Addr);
                        }
                        _ => {
                            if let Some(k) = st.taint.get(id.as_str()) {
                                v.kinds.extend(k.iter().copied());
                            }
                            if let Some(o) = st.origin.get(id.as_str()) {
                                v.origins.extend(o.iter().copied());
                            }
                            // A call: absorb every candidate's return taint.
                            if let Some(site) = call_at(lx, j) {
                                for c in self.graph.resolve(caller, &site) {
                                    v.kinds.extend(self.summaries[c].returns.iter().copied());
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        v
    }

    /// Flag tainted arguments reaching a sink in `[s, e)`, and record
    /// parameter-to-sink flows on `sum`.
    #[allow(clippy::too_many_arguments)]
    fn check_sinks(
        &self,
        f: usize,
        lx: &Lexed,
        s: usize,
        e: usize,
        st: &VarState,
        sum: &mut Summary,
        mut collect: Option<&mut Vec<FileViolation>>,
    ) {
        let caller = &self.graph.fns[f];
        for j in s..e {
            let Some(id) = lx.ident(j) else { continue };
            let Some(site) = call_at(lx, j) else { continue };
            let Some(open) = call_open_paren(lx, j) else { continue };
            let Some(close) = match_paren(lx, open, e) else { continue };
            let line = lx.toks[j].line;
            // `VTime(..)` exists only inside `time.rs`; through the
            // summaries of `after` and `From::from` it makes their
            // arguments sinks too.
            let from = id == "from" && site.qualifier.as_deref() == Some("VTime");
            let id = if from { "VTime::from" } else { id };
            if SINK_CALLS.contains(&id) || from || id == "VTime" {
                let v = self.eval(f, lx, open + 1, close, st);
                if !v.kinds.is_empty() {
                    self.flag(
                        collect.as_deref_mut(),
                        caller.unit,
                        line,
                        format!(
                            "nondeterministic {} value flows into `{}(..)`",
                            labels(&v.kinds),
                            id
                        ),
                    );
                }
                for &k in &v.origins {
                    if k < sum.param_to_sink.len() {
                        sum.param_to_sink[k].insert(id.to_string());
                    }
                }
                continue;
            }
            // Indirect sink: a candidate callee forwards an argument
            // position into a sink (per its converged summary).
            let cands = self.graph.resolve(caller, &site);
            if cands.is_empty() {
                continue;
            }
            let args = split_args(lx, open, close);
            for (pos, &(as_, ae)) in args.iter().enumerate() {
                let mut sinks: BTreeSet<String> = BTreeSet::new();
                let mut via = None;
                for &c in &cands {
                    if let Some(sk) = self.summaries[c].param_to_sink.get(pos) {
                        if !sk.is_empty() {
                            sinks.extend(sk.iter().cloned());
                            via = Some(self.graph.fns[c].qualified());
                        }
                    }
                }
                if sinks.is_empty() {
                    continue;
                }
                let v = self.eval(f, lx, as_, ae, st);
                if !v.kinds.is_empty() {
                    let sink_names = sinks.iter().map(String::as_str).collect::<Vec<_>>().join("/");
                    self.flag(
                        collect.as_deref_mut(),
                        caller.unit,
                        line,
                        format!(
                            "nondeterministic {} value flows into `{}` via `{}`",
                            labels(&v.kinds),
                            sink_names,
                            via.clone().unwrap_or_else(|| site.name.clone()),
                        ),
                    );
                }
                // Base names only (never the via-chain): keeps the
                // summary lattice finite on recursive call cycles.
                for &k in &v.origins {
                    if k < sum.param_to_sink.len() {
                        sum.param_to_sink[k].extend(sinks.iter().cloned());
                    }
                }
            }
        }
    }

    fn flag(
        &self,
        collect: Option<&mut Vec<FileViolation>>,
        unit: usize,
        line: u32,
        message: String,
    ) {
        if let Some(out) = collect {
            out.push(FileViolation {
                unit,
                violation: Violation { rule: RuleId::D011, line, message },
            });
        }
    }
}

/// Merge an evaluated value into one target variable's state.
fn merge_into(st: &mut VarState, target: &str, v: &Value) {
    st.taint.entry(target.to_string()).or_default().extend(v.kinds.iter().copied());
    st.origin.entry(target.to_string()).or_default().extend(v.origins.iter().copied());
}

/// Binding identifiers in a pattern range (skipping `mut`/`ref`/`_`).
fn pattern_idents(lx: &Lexed, s: usize, e: usize) -> Vec<String> {
    let mut out = Vec::new();
    for j in s..e {
        if let Some(id) = lx.ident(j) {
            if id != "mut" && id != "ref" && id != "_" && lx.punct(j + 1) != Some("::") {
                out.push(id.to_string());
            }
        }
    }
    out
}

/// Index of the first top-level `=` in `[s, e)`. Used only on the head
/// of a `let`, where comparisons cannot precede the binder — the `=`
/// closing a generic list (`Vec<u8> =`) is still the binder, so only a
/// following `=` (`==` in pattern guards) disqualifies it.
fn top_level_eq(lx: &Lexed, s: usize, e: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in s..e {
        match lx.punct(j) {
            Some("(") | Some("[") | Some("<") => depth += 1,
            Some(")") | Some("]") | Some(">") => depth = depth.saturating_sub(1),
            Some("=") if depth == 0 && lx.punct(j + 1) != Some("=") => return Some(j),
            _ => {}
        }
    }
    None
}

/// Index of the first top-level `p` in `[s, e)`.
fn top_level_punct(lx: &Lexed, s: usize, e: usize, p: &str) -> Option<usize> {
    let mut depth = 0usize;
    for j in s..e {
        match lx.punct(j) {
            Some("(") | Some("[") | Some("<") => depth += 1,
            Some(")") | Some("]") | Some(">") => depth = depth.saturating_sub(1),
            Some(q) if q == p && depth == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

/// When the ident at `j` heads a call (plain or turbofish), return its
/// [`CallSite`] shape for resolution.
fn call_at(lx: &Lexed, j: usize) -> Option<CallSite> {
    call_open_paren(lx, j)?;
    let id = lx.ident(j)?;
    let method = lx.punct(j.wrapping_sub(1)) == Some(".") && j > 0;
    let qualifier = if !method && j >= 2 && lx.punct(j - 1) == Some("::") {
        lx.ident(j - 2).map(str::to_string)
    } else {
        None
    };
    Some(CallSite { name: id.to_string(), qualifier, method, line: lx.toks[j].line })
}

/// Index of the `(` opening the argument list of a call headed at `j`
/// (`name(`, `name::<T>(`), or `None` when `j` heads no call.
fn call_open_paren(lx: &Lexed, j: usize) -> Option<usize> {
    lx.ident(j)?;
    if lx.punct(j + 1) == Some("(") {
        return Some(j + 1);
    }
    if lx.punct(j + 1) == Some("::") && lx.punct(j + 2) == Some("<") {
        let mut depth = 0usize;
        let mut k = j + 2;
        while k < lx.toks.len() {
            match lx.punct(k) {
                Some("<") => depth += 1,
                Some(">") => {
                    depth -= 1;
                    if depth == 0 {
                        return if lx.punct(k + 1) == Some("(") { Some(k + 1) } else { None };
                    }
                }
                Some(";") | Some("{") | Some("}") => return None,
                _ => {}
            }
            k += 1;
        }
    }
    None
}

/// Index of the `)` matching `open`, bounded by `limit` (statement
/// segments never split inside parens, so the match is local).
fn match_paren(lx: &Lexed, open: usize, limit: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in open..limit.min(lx.toks.len()) {
        match lx.punct(j) {
            Some("(") => depth += 1,
            Some(")") => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split `(open, close)` into top-level comma-separated argument ranges.
fn split_args(lx: &Lexed, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for j in open + 1..close {
        match lx.punct(j) {
            Some("(") | Some("[") => depth += 1,
            Some(")") | Some("]") => depth = depth.saturating_sub(1),
            Some(",") if depth == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// Run D011 over the graph, appending findings.
pub fn check_d011(units: &[Unit], graph: &Graph, out: &mut Vec<FileViolation>) {
    let df = Dataflow::build(units, graph);
    df.collect_violations(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<Unit>, Graph) {
        let units: Vec<Unit> = srcs
            .iter()
            .map(|(file, src)| {
                let lx = lex(src);
                let parsed = parse(&lx);
                Unit { file: file.to_string(), lx, parsed }
            })
            .collect();
        let g = Graph::build(&units);
        (units, g)
    }

    fn run(srcs: &[(&str, &str)]) -> Vec<FileViolation> {
        let (units, g) = graph_of(srcs);
        let mut out = Vec::new();
        check_d011(&units, &g, &mut out);
        out
    }

    #[test]
    fn direct_host_time_to_schedule_fires() {
        let v = run(&[(
            "a.rs",
            "fn go(sink: &mut EventSink) {\n\
                 let t = Instant::now().elapsed().as_nanos() as u64;\n\
                 sink.schedule(1, t, 0);\n\
             }\n",
        )]);
        assert!(
            v.iter().any(|f| f.violation.message.contains("host-time")
                && f.violation.message.contains("schedule")),
            "{v:?}"
        );
    }

    #[test]
    fn interprocedural_flow_through_helper_fires() {
        let v = run(&[(
            "a.rs",
            "fn jitter() -> u64 { let t = Instant::now(); 1 }\n\
             fn go(sink: &mut EventSink) { let d = jitter(); sink.schedule(1, d, 0); }\n",
        )]);
        // `jitter`'s tail is the untainted literal `1`; taint must NOT
        // propagate — then a genuinely tainted variant must.
        assert!(v.is_empty(), "{v:?}");
        let v = run(&[(
            "a.rs",
            "fn jitter() -> u64 { let t = Instant::now(); t.as_nanos() as u64 }\n\
             fn go(sink: &mut EventSink) { let d = jitter(); sink.schedule(1, d, 0); }\n",
        )]);
        assert!(v.iter().any(|f| f.violation.message.contains("host-time")), "{v:?}");
    }

    #[test]
    fn param_to_sink_summary_flags_tainted_caller_arg() {
        let v = run(&[(
            "a.rs",
            "fn forward(sink: &mut EventSink, d: u64) { sink.schedule(1, d, 0); }\n\
             fn go(sink: &mut EventSink) {\n\
                 let t = Instant::now().as_nanos() as u64;\n\
                 forward(sink, t);\n\
             }\n",
        )]);
        assert!(
            v.iter().any(|f| f.violation.message.contains("via `forward`")),
            "tainted arg must be flagged at the call into the forwarder: {v:?}"
        );
    }

    #[test]
    fn float_into_vtime_fires_and_integer_is_clean() {
        let v = run(&[(
            "a.rs",
            "fn scale(r: u64) -> VTime { let s = (r * 2) as u64; VTime::from(s) }\n",
        )]);
        assert!(v.is_empty(), "integer math is clean: {v:?}");
        let v = run(&[(
            "a.rs",
            "fn scale(r: f64) -> VTime { let s = (1000.0 * r) as u64; VTime::from(s) }\n",
        )]);
        assert!(
            v.iter()
                .any(|f| f.violation.message.contains("float")
                    && f.violation.message.contains("VTime")),
            "{v:?}"
        );
    }

    #[test]
    fn test_functions_are_exempt() {
        let v = run(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests {\n\
                 fn go(sink: &mut EventSink) { sink.schedule(1, Instant::now().as_nanos() as u64, 0); }\n\
             }\n",
        )]);
        assert!(v.is_empty(), "test code is out of D011 scope: {v:?}");
    }
}
