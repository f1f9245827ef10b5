//! The determinism rule catalog: one [`RULES`] row per rule.
//!
//! D003 is a token-pattern matcher over the [`crate::lexer`] output of
//! each parsed function body, and D011 ([`crate::dataflow`]) is an
//! interprocedural nondeterminism-taint analysis over the
//! [parser](crate::parser) / [call graph](crate::callgraph). Rules are deliberately conservative in
//! *pattern* (they flag the constructions that can leak nondeterminism
//! into committed simulation output, not every use of a type). False
//! positives are expected to be rare and are handled by inline waivers
//! with written reasons — see `docs/LINTS.md`.
//!
//! What rustc and clippy check is not repeated here (`docs/LINTS.md`
//! lists each retired rule and its replacement).

use crate::callgraph::Unit;
use crate::lexer::{is_float_literal, Lexed, Tok};

/// A rule identifier, e.g. `D003`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Float casts or float arithmetic on virtual-time values, or
    /// wrapping `+`/`*` on them.
    D003,
    /// Nondeterminism taint: a value derived from host time, an address
    /// or a float flows into an event schedule, a `VTime` constructor or
    /// a fingerprint.
    D011,
}

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
}

/// The catalog, in rule order.
pub const RULES: [Rule; 2] = [
    Rule {
        id: RuleId::D003,
        name: "D003",
        summary: "float or wrapping arithmetic on virtual time",
        hint: "keep SimTime/VTime arithmetic in u64 and add delays with VTime::after, which saturates at VTime::INF; convert to float only for derived reporting metrics, never back",
    },
    Rule {
        id: RuleId::D011,
        name: "D011",
        summary: "nondeterministic value flows into a determinism-critical sink",
        hint: "derive schedule delays, VTime values and fingerprint inputs from deterministic simulation state only; host-time telemetry must stay out of these flows or carry an audited waiver",
    },
];

impl RuleId {
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

/// A violation found by a workspace-wide pass, pinned to the unit (file)
/// it lands in.
#[derive(Debug, Clone)]
pub struct FileViolation {
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    /// The violation itself.
    pub violation: Violation,
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

/// D003: float taint on virtual time, detected by statement-level
/// co-occurrence of a float marker (`f32`/`f64` ident or cast target,
/// or a float literal) with a virtual-time marker identifier, in the
/// body of every non-test function. Statements are token runs between
/// `;`, `{` and `}`. The same bodies are checked for wrapping sums
/// (`wrapping_sums`).
pub fn check_d003(units: &[Unit], out: &mut Vec<FileViolation>) {
    for (unit, u) in units.iter().enumerate() {
        let lx = &u.lx;
        for (s, e) in u.parsed.fns.iter().filter(|f| !f.in_test).filter_map(|f| f.body) {
            wrapping_sums(lx, s, e, |line, message| {
                let violation = Violation { rule: RuleId::D003, line, message: message.into() };
                out.push(FileViolation { unit, violation });
            });
            let mut float = false;
            let mut vtime_line = None;
            for i in s..e {
                match &lx.toks[i].tok {
                    Tok::Punct(";" | "{" | "}") => {
                        if let (true, Some(line)) = (std::mem::take(&mut float), vtime_line.take())
                        {
                            let message =
                                "float arithmetic/cast in a statement handling virtual time".into();
                            let violation = Violation { rule: RuleId::D003, line, message };
                            out.push(FileViolation { unit, violation });
                        }
                    }
                    Tok::Ident(id) if id == "f32" || id == "f64" => float = true,
                    Tok::Num(t) if is_float_literal(t) => float = true,
                    Tok::Ident(id) if VTIME_MARKERS.contains(&id.as_str()) => {
                        vtime_line = Some(lx.toks[i].line)
                    }
                    _ => {}
                }
            }
        }
    }
}

/// D003's integer shape, in tokens `s..e` of a function body. `VTime`'s
/// private field rules out `VTime(a + b)` and `.0` arithmetic, but not
/// the same sum spelt through the public API: a `+`, `*`, `+=` or `*=`
/// next to a `.ticks()` read (`now.ticks() + d`, `d * now.ticks()`), or
/// at the top level of a `VTime::from(..)` argument that is not all
/// literals; a line is flagged once. In a release build such a sum
/// wraps past `VTime::INF` into an early time; `VTime::after` saturates
/// instead. A `-` is not flagged: a difference of two times is a span,
/// not a time.
fn wrapping_sums(lx: &Lexed, s: usize, e: usize, mut flag: impl FnMut(u32, &'static str)) {
    // `+=` and `*=` lex as two tokens.
    let sum = |j: usize| matches!(lx.punct(j), Some("+" | "*"));
    let is_op = |j: usize| sum(j) || (lx.punct(j) == Some("=") && j > 0 && sum(j - 1));
    let mut flagged = None;
    let mut flag = |line: u32, message| {
        if flagged.replace(line) != Some(line) {
            flag(line, message);
        }
    };
    for i in s..e {
        let line = lx.toks[i].line;
        if lx.ident(i) == Some("ticks")
            && i > s
            && lx.punct(i - 1) == Some(".")
            && lx.punct(i + 1) == Some("(")
            && lx.punct(i + 2) == Some(")")
        {
            // Walk back over the receiver chain (`self.clock[k].now`) to
            // the token before it.
            let (mut j, mut depth) = (i - 1, 0usize);
            while j > s {
                j -= 1;
                match &lx.toks[j].tok {
                    Tok::Punct(")" | "]") => depth += 1,
                    Tok::Punct("(" | "[") if depth > 0 => depth -= 1,
                    _ if depth > 0 => {}
                    Tok::Punct("." | "::") | Tok::Ident(_) | Tok::Num(_) => {}
                    _ => break,
                }
            }
            if is_op(i + 3) || is_op(j) {
                flag(line, "wrapping `+`/`*` on a `ticks()` read");
            }
        }
        if lx.ident(i) == Some("VTime")
            && lx.punct(i + 1) == Some("::")
            && lx.ident(i + 2) == Some("from")
            && lx.punct(i + 3) == Some("(")
        {
            let (mut depth, mut op, mut named) = (0usize, false, false);
            for j in i + 3..e {
                match &lx.toks[j].tok {
                    Tok::Punct("(" | "[") => depth += 1,
                    Tok::Punct(")" | "]") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(_) => named = true,
                    _ if depth == 1 && is_op(j) => op = true,
                    _ => {}
                }
            }
            if op && named {
                flag(line, "wrapping `+`/`*` inside `VTime::from(..)`");
            }
        }
    }
}
