//! The determinism rule catalog: one [`RULES`] row per rule.
//!
//! D003, D004 and D007 are token-pattern matchers over [`crate::lexer`]
//! output; D006 and D008 are flow-aware reachability passes over the
//! [parser](crate::parser) / [call graph](crate::callgraph) and live in
//! [`crate::structural`]; D009 ([`crate::concurrency`]) checks lock and
//! channel protocol discipline, D010 ([`crate::phase`]) checks GVT phase
//! discipline against `// detlint: phase(...)` annotations, and D011
//! ([`crate::dataflow`]) is an interprocedural nondeterminism-taint
//! analysis. Rules are deliberately conservative in
//! *scope* (see `rules_for` in the engine) and conservative in
//! *pattern* (they flag the constructions that can leak nondeterminism
//! into committed simulation output, not every use of a type). False
//! positives are expected to be rare and are handled by inline waivers
//! with written reasons — see `docs/LINTS.md`.
//!
//! What rustc and clippy already check is not repeated here: kernel
//! crates are `#![forbid(unsafe_code)]`, and `clippy.toml` denies
//! RandomState-hashed maps and host clocks in them (the retired D005,
//! D001 and D002).

use crate::lexer::{is_float_literal, Lexed, Tok};

/// A rule identifier, e.g. `D003`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Float casts or float arithmetic on virtual-time values.
    D003,
    /// Thread/channel/lock primitives outside the audited threaded
    /// executive.
    D004,
    /// Rollback soundness: I/O, writable statics, interior mutability or
    /// `&self` mutation reachable from an `Application` event handler.
    D006,
    /// Raw `u64` `+`/`*` on virtual-time values instead of `VTime`
    /// methods or checked arithmetic.
    D007,
    /// Probe purity: a `Probe` impl reaching kernel-mutating API or
    /// shared writable state.
    D008,
    /// Concurrency discipline: inconsistent lock acquisition order,
    /// channel sends while a lock is held, or half-wired channels.
    D009,
    /// GVT phase discipline: a phase-restricted operation (event send,
    /// LP hand-off, fossil free, timer arming) reachable from a
    /// function whose `// detlint: phase(...)` annotation does not
    /// permit it.
    D010,
    /// Nondeterminism taint: a value derived from host time, thread
    /// identity, the environment, an address, a float, or unordered
    /// iteration flows into an event schedule, a `VTime` constructor
    /// or a fingerprint.
    D011,
}

/// A lexical rule's checker: token stream, test-skip mask, findings.
pub type LexicalCheck = fn(&Lexed, &[bool], &mut Vec<Violation>);

/// One catalog row: everything the engine, the reports and the waiver
/// parser know about a rule.
#[derive(Debug)]
pub struct Rule {
    /// The rule.
    pub id: RuleId,
    /// The canonical `D0xx` name, as waivers and reports spell it.
    pub name: &'static str,
    /// One-line summary for reports and `docs/LINTS.md`.
    pub summary: &'static str,
    /// The fix hint attached to every violation of this rule.
    pub hint: &'static str,
    /// The per-file token-stream checker of a lexical rule; `None` for
    /// the flow-aware rules the workspace-wide structural pass runs.
    pub lexical: Option<LexicalCheck>,
}

/// The catalog, in rule order.
pub const RULES: [Rule; 8] = [
    Rule {
        id: RuleId::D003,
        name: "D003",
        summary: "float arithmetic on virtual time",
        hint: "keep SimTime/VTime arithmetic in u64; convert to float only for derived reporting metrics, never back",
        lexical: Some(check_d003),
    },
    Rule {
        id: RuleId::D004,
        name: "D004",
        summary: "concurrency primitive outside the audited threaded executive",
        hint: "threads, channels and locks live in timewarp/src/threaded.rs; everything else must stay single-threaded deterministic",
        lexical: Some(check_d004),
    },
    Rule {
        id: RuleId::D006,
        name: "D006",
        summary: "irreversible effect reachable from a rollback-able event handler",
        hint: "confine handler effects to the checkpointed State or EventSink; defer irreversible output past GVT and waive that site with the reason",
        lexical: None,
    },
    Rule {
        id: RuleId::D007,
        name: "D007",
        summary: "raw u64 arithmetic on virtual time",
        hint: "use VTime::after / checked_add / checked_mul / saturating_mul; silent u64 wraparound reorders every event behind it",
        lexical: Some(check_d007),
    },
    Rule {
        id: RuleId::D008,
        name: "D008",
        summary: "probe reaches kernel-mutating state or API",
        hint: "probes observe: accumulate in the probe's own state and export after the run; never call into EventSink/LpRuntime",
        lexical: None,
    },
    Rule {
        id: RuleId::D009,
        name: "D009",
        summary: "lock/channel protocol violation in the concurrency surface",
        hint: "acquire locks in one global order everywhere, release every guard before sending on a channel, and use both endpoints of every channel you create",
        lexical: None,
    },
    Rule {
        id: RuleId::D010,
        name: "D010",
        summary: "phase-restricted operation escapes its declared GVT phase",
        hint: "annotate the function with `// detlint: phase(...)` naming a phase the operation is allowed in, or move the operation into the right phase function — see docs/LINTS.md",
        lexical: None,
    },
    Rule {
        id: RuleId::D011,
        name: "D011",
        summary: "nondeterministic value flows into a determinism-critical sink",
        hint: "derive schedule delays, VTime values and fingerprint inputs from deterministic simulation state only; host-time telemetry must stay out of these flows or carry an audited waiver",
        lexical: None,
    },
];

impl RuleId {
    /// All rules, in catalog order.
    pub const ALL: [RuleId; RULES.len()] = {
        let mut all = [RuleId::D003; RULES.len()];
        let mut i = 0;
        while i < RULES.len() {
            all[i] = RULES[i].id;
            i += 1;
        }
        all
    };

    /// This rule's catalog row.
    pub fn rule(self) -> &'static Rule {
        RULES.iter().find(|r| r.id == self).expect("every RuleId has a RULES row")
    }

    /// Parse `"D003"` → `RuleId::D003`; `None` for an unknown or retired
    /// id.
    pub fn parse(s: &str) -> Option<RuleId> {
        RULES.iter().find(|r| r.name == s).map(|r| r.id)
    }

    /// The canonical `D0xx` name.
    pub fn name(self) -> &'static str {
        self.rule().name
    }

    /// One-line summary for reports and `docs/LINTS.md`.
    pub fn summary(self) -> &'static str {
        self.rule().summary
    }

    /// The fix hint attached to every violation of this rule.
    pub fn hint(self) -> &'static str {
        self.rule().hint
    }

    /// Whether the rule runs in the workspace-wide structural pass (it
    /// needs the parsed call graph) rather than per file over tokens.
    pub fn is_structural(self) -> bool {
        self.rule().lexical.is_none()
    }
}

/// One rule violation, pre-waiver.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: u32,
    /// Specific message (the generic hint lives on the rule).
    pub message: String,
}

/// Identifiers that mark a value as virtual time for D003's
/// co-occurrence check.
const VTIME_MARKERS: [&str; 9] = [
    "VTime",
    "SimTime",
    "gvt",
    "lvt",
    "recv_time",
    "send_time",
    "vtime",
    "virtual_time",
    "local_min",
];

/// Concurrency-primitive identifiers for D004.
const D004_TYPES: [&str; 10] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
];

/// D003: float taint on virtual time, detected by statement-level
/// co-occurrence of a float marker (`f32`/`f64` ident or cast target,
/// or a float literal) with a virtual-time marker identifier.
/// Statements are token runs between `;`, `{` and `}`.
pub fn check_d003(lx: &Lexed, skip: &[bool], out: &mut Vec<Violation>) {
    let mut start = 0usize;
    for i in 0..=lx.toks.len() {
        let boundary = i == lx.toks.len()
            || matches!(lx.toks[i].tok, Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}"));
        if !boundary {
            continue;
        }
        let seg = start..i;
        start = i + 1;
        let mut float_line = None;
        let mut vtime_line = None;
        for j in seg {
            if skip[j] {
                continue;
            }
            match &lx.toks[j].tok {
                Tok::Ident(id) if id == "f32" || id == "f64" => float_line = Some(lx.toks[j].line),
                Tok::Num(t) if is_float_literal(t) => float_line = Some(lx.toks[j].line),
                Tok::Ident(id) if VTIME_MARKERS.contains(&id.as_str()) => {
                    vtime_line = Some(lx.toks[j].line)
                }
                _ => {}
            }
        }
        if let (Some(_), Some(vl)) = (float_line, vtime_line) {
            out.push(Violation {
                rule: RuleId::D003,
                line: vl,
                message: "float arithmetic/cast in a statement handling virtual time".into(),
            });
        }
    }
}

/// D004: thread spawns, channels, locks and atomics.
#[allow(clippy::needless_range_loop)]
pub fn check_d004(lx: &Lexed, skip: &[bool], out: &mut Vec<Violation>) {
    for i in 0..lx.toks.len() {
        if skip[i] {
            continue;
        }
        let Tok::Ident(id) = &lx.toks[i].tok else { continue };
        let line = lx.toks[i].line;
        if id == "thread"
            && lx.punct(i + 1) == Some("::")
            && matches!(lx.ident(i + 2), Some("spawn" | "scope" | "Builder"))
        {
            out.push(Violation {
                rule: RuleId::D004,
                line,
                message: format!("thread::{} spawns OS threads", lx.ident(i + 2).unwrap()),
            });
        } else if D004_TYPES.contains(&id.as_str()) {
            out.push(Violation {
                rule: RuleId::D004,
                line,
                message: format!("concurrency primitive `{id}`"),
            });
        }
    }
}

/// Markers for D007: identifiers that make a `.0` projection or a
/// `VTime(..)` argument count as virtual time. A superset of the D003
/// markers — `now`/`horizon` name the common local bindings a handler
/// receives its clock through.
const D007_MARKERS: [&str; 11] = [
    "VTime",
    "SimTime",
    "gvt",
    "lvt",
    "recv_time",
    "send_time",
    "vtime",
    "virtual_time",
    "local_min",
    "now",
    "horizon",
];

/// D007: raw `u64` `+`/`*` on virtual time. Two shapes:
///
/// (a) a `.0` tuple projection adjacent to `+` or `*` in a statement
///     that also mentions a virtual-time marker (the co-occurrence gate
///     keeps tuple-struct counters like a probe's `self.0 += 1` quiet);
/// (b) an arithmetic expression inside a `VTime(...)` constructor —
///     exempt when every operand is a numeric literal, since constant
///     folding cannot overflow at runtime any differently than the
///     folded value itself.
///
/// The test-skip mask is deliberately ignored: wraparound in a test's
/// event schedule silently reorders the very history the test asserts
/// on, so tests get no exemption.
#[allow(clippy::needless_range_loop)]
pub fn check_d007(lx: &Lexed, _skip: &[bool], out: &mut Vec<Violation>) {
    // Shape (a): statement-scan like D003.
    let mut start = 0usize;
    for i in 0..=lx.toks.len() {
        let boundary = i == lx.toks.len()
            || matches!(lx.toks[i].tok, Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}"));
        if !boundary {
            continue;
        }
        let seg = start..i;
        start = i + 1;
        let has_marker = seg.clone().any(
            |j| matches!(&lx.toks[j].tok, Tok::Ident(id) if D007_MARKERS.contains(&id.as_str())),
        );
        if !has_marker {
            continue;
        }
        for j in seg {
            // `<owner> . 0` with `+`/`*` on either side.
            if lx.punct(j) != Some(".")
                || !matches!(lx.toks.get(j + 1).map(|t| &t.tok), Some(Tok::Num(n)) if n == "0")
            {
                continue;
            }
            let after = lx.punct(j + 2);
            let before = j.checked_sub(2).and_then(|k| lx.punct(k));
            if matches!(after, Some("+" | "*")) || matches!(before, Some("+" | "*")) {
                out.push(Violation {
                    rule: RuleId::D007,
                    line: lx.toks[j].line,
                    message: "raw u64 `+`/`*` on a virtual-time `.0` projection".into(),
                });
            }
        }
    }
    // Shape (b): arithmetic inside `VTime(...)`.
    for i in 0..lx.toks.len() {
        if lx.ident(i) != Some("VTime") || lx.punct(i + 1) != Some("(") {
            continue;
        }
        let mut depth = 0usize;
        let mut top_op = false;
        let mut non_literal = false;
        let mut j = i + 1;
        while j < lx.toks.len() {
            match &lx.toks[j].tok {
                Tok::Punct("(") => depth += 1,
                Tok::Punct(")") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct("+") | Tok::Punct("*") if depth == 1 => top_op = true,
                Tok::Ident(_) => non_literal = true,
                _ => {}
            }
            j += 1;
        }
        if top_op && non_literal {
            out.push(Violation {
                rule: RuleId::D007,
                line: lx.toks[i].line,
                message: "unchecked `+`/`*` inside a VTime(..) constructor".into(),
            });
        }
    }
}

/// Compute the token-skip mask for a file: `#[cfg(test)]` items (module
/// bodies, functions, use items) are invisible to every rule — test-only
/// nondeterminism cannot reach committed simulation output.
pub fn test_skip_mask(lx: &Lexed) -> Vec<bool> {
    let n = lx.toks.len();
    let mut skip = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if is_cfg_test_attr(lx, i) {
            // Skip past this and any further attributes, then the item.
            let mut j = i;
            while is_attr_start(lx, j) {
                j = skip_attr(lx, j);
            }
            // Find the item's end: first top-level `;` or the matching `}`
            // of its first `{`.
            let mut k = j;
            let mut end = n;
            while k < n {
                match lx.toks[k].tok {
                    Tok::Punct(";") => {
                        end = k + 1;
                        break;
                    }
                    Tok::Punct("{") => {
                        end = match_brace(lx, k);
                        break;
                    }
                    _ => k += 1,
                }
            }
            for s in skip.iter_mut().take(end.min(n)).skip(i) {
                *s = true;
            }
            i = end.min(n);
        } else {
            i += 1;
        }
    }
    skip
}

fn is_attr_start(lx: &Lexed, i: usize) -> bool {
    lx.punct(i) == Some("#") && lx.punct(i + 1) == Some("[")
}

fn is_cfg_test_attr(lx: &Lexed, i: usize) -> bool {
    is_attr_start(lx, i)
        && lx.ident(i + 2) == Some("cfg")
        && lx.punct(i + 3) == Some("(")
        && lx.ident(i + 4) == Some("test")
        && lx.punct(i + 5) == Some(")")
        && lx.punct(i + 6) == Some("]")
}

fn skip_attr(lx: &Lexed, i: usize) -> usize {
    debug_assert!(is_attr_start(lx, i));
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < lx.toks.len() {
        match lx.toks[j].tok {
            Tok::Punct("[") => depth += 1,
            Tok::Punct("]") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    lx.toks.len()
}

fn match_brace(lx: &Lexed, open: usize) -> usize {
    debug_assert_eq!(lx.punct(open), Some("{"));
    let mut depth = 0usize;
    let mut j = open;
    while j < lx.toks.len() {
        match lx.toks[j].tok {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    lx.toks.len()
}
