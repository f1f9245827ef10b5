//! Intra-workspace call graph over parsed items.
//!
//! The graph is a deliberate *over-approximation*: call sites resolve by
//! name (restricted by an explicit `Type::` qualifier or a `.method()`
//! receiver shape when available), so an edge may connect a call to a
//! same-named function it can never reach at runtime. For the flow
//! rules that is the safe direction — a hazard can only be *found*, not
//! hidden, by a spurious edge — and false positives carry an explicit
//! waiver channel. Calls that resolve to nothing (std functions, tuple
//! constructors, `Some(...)`) simply contribute no edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, Tok};
use crate::parser::{FnDef, ParsedFile, Receiver};

/// One analysis unit: a lexed + parsed source file.
#[derive(Debug)]
pub struct Unit {
    /// Workspace-relative path.
    pub file: String,
    /// Token stream.
    pub lx: Lexed,
    /// Item structure.
    pub parsed: ParsedFile,
}

/// A call site extracted from a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// `Foo::bar(...)` → `Some("Foo")`; `Self::bar` → `Some("Self")`.
    pub qualifier: Option<String>,
    /// `recv.bar(...)` method-call syntax.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
}

/// For a turbofish `::<...>` whose `<` is at `open`, return the index
/// just past the matching `>` when the angle brackets balance within a
/// plausible type-argument list (`None` means `<` was a comparison).
fn turbofish_paren(lx: &Lexed, open: usize) -> Option<usize> {
    debug_assert_eq!(lx.punct(open), Some("<"));
    let mut depth = 0usize;
    let mut j = open;
    while j < lx.toks.len() {
        match lx.punct(j) {
            Some("<") => depth += 1,
            Some(">") => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            // These never appear inside a type-argument list.
            Some(";") | Some("{") | Some("}") => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

const KEYWORDS: [&str; 18] = [
    "if", "else", "while", "for", "match", "loop", "return", "let", "mut", "fn", "move", "in",
    "as", "break", "continue", "ref", "where", "unsafe",
];

/// Scan a body token range `[start, end)` for call sites.
pub fn scan_body(lx: &Lexed, start: usize, end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let mut i = start;
    while i < end {
        let Tok::Ident(id) = &lx.toks[i].tok else {
            i += 1;
            continue;
        };
        let line = lx.toks[i].line;
        if KEYWORDS.contains(&id.as_str()) {
            i += 1;
            continue;
        }
        match lx.punct(i + 1) {
            Some("(") => {
                let method = lx.punct(i.wrapping_sub(1)) == Some(".") && i > start;
                let qualifier = if !method && i >= start + 2 && lx.punct(i - 1) == Some("::") {
                    lx.ident(i - 2).map(str::to_string)
                } else {
                    None
                };
                calls.push(CallSite { name: id.clone(), qualifier, method, line });
            }
            // Turbofish call: `name::<T, U>(...)` / `recv.name::<T>(...)`.
            Some("::") if lx.punct(i + 2) == Some("<") => {
                if let Some(open) = turbofish_paren(lx, i + 2) {
                    if lx.punct(open) == Some("(") {
                        let method = lx.punct(i.wrapping_sub(1)) == Some(".") && i > start;
                        let qualifier =
                            if !method && i >= start + 2 && lx.punct(i - 1) == Some("::") {
                                lx.ident(i - 2).map(str::to_string)
                            } else {
                                None
                            };
                        calls.push(CallSite { name: id.clone(), qualifier, method, line });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    calls
}

/// A function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning [`Unit`].
    pub unit: usize,
    /// The parsed definition.
    pub def: FnDef,
    /// Call sites, in source order (none for bodiless signatures).
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// `Type::name` or bare `name`, for diagnostics.
    pub fn qualified(&self) -> String {
        match &self.def.self_ty {
            Some(t) => format!("{t}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All function nodes, in unit order then source order.
    pub fns: Vec<FnNode>,
    /// Adjacency: `edges[f]` = callees of `fns[f]`, sorted and deduped.
    pub edges: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Graph {
    /// Build the graph over a set of units.
    pub fn build(units: &[Unit]) -> Graph {
        let mut g = Graph::default();
        for (u, unit) in units.iter().enumerate() {
            for def in &unit.parsed.fns {
                let calls = def.body.map_or_else(Vec::new, |(s, e)| scan_body(&unit.lx, s, e));
                g.by_name.entry(def.name.clone()).or_default().push(g.fns.len());
                g.fns.push(FnNode { unit: u, def: def.clone(), calls });
            }
        }
        g.edges = g.fns.iter().map(|f| g.resolve_all(f)).collect();
        g
    }

    /// Candidate callees of every call site in `f`, merged and deduped.
    fn resolve_all(&self, f: &FnNode) -> Vec<usize> {
        let mut out = BTreeSet::new();
        for call in &f.calls {
            out.extend(self.resolve(f, call));
        }
        out.into_iter().collect()
    }

    /// Candidate callees of one call site (possibly empty — std calls and
    /// constructors resolve to nothing).
    pub fn resolve(&self, caller: &FnNode, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else { return Vec::new() };
        let filtered: Vec<usize> = match &call.qualifier {
            Some(q) if q == "Self" => cands
                .iter()
                .copied()
                .filter(|&c| self.fns[c].def.self_ty == caller.def.self_ty)
                .collect(),
            Some(q) => {
                let by_type: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        self.fns[c].def.self_ty.as_deref() == Some(q.as_str())
                            || self.fns[c].def.trait_ty.as_deref() == Some(q.as_str())
                    })
                    .collect();
                // A lowercase qualifier is a module path (`rules::check`),
                // which the flat name table cannot discriminate — fall
                // back to name-only matching. An uppercase qualifier is a
                // type; if the workspace has no such method, the call is
                // into std or a dependency and contributes no edge.
                if by_type.is_empty() && q.chars().next().is_some_and(char::is_lowercase) {
                    cands.clone()
                } else {
                    by_type
                }
            }
            None if call.method => cands
                .iter()
                .copied()
                .filter(|&c| self.fns[c].def.receiver != Receiver::Free)
                .collect(),
            None => cands
                .iter()
                .copied()
                .filter(|&c| self.fns[c].def.receiver == Receiver::Free)
                .collect(),
        };
        filtered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.def.name == name).unwrap()
    }

    #[test]
    fn free_call_resolves_cross_module() {
        let u = units(&[
            ("a.rs", "fn caller() { helper(1); }"),
            ("b.rs", "pub fn helper(x: u32) -> u32 { x }"),
        ]);
        let g = Graph::build(&u);
        assert_eq!(g.edges[idx(&g, "caller")], vec![idx(&g, "helper")]);
    }

    #[test]
    fn method_call_resolves_to_trait_impl_not_free_fn() {
        let u = units(&[(
            "a.rs",
            "trait T { fn go(&self); }\n\
             struct S;\n\
             impl T for S { fn go(&self) { side(); } }\n\
             fn go() {}\n\
             fn driver(s: &S) { s.go(); }\n\
             fn side() {}\n",
        )]);
        let g = Graph::build(&u);
        let driver = idx(&g, "driver");
        // `.go()` must reach the method (and, being bodiless, the trait
        // signature is not a node candidate with a body — but it still
        // resolves by name), never the free `go`.
        let free_go = g
            .fns
            .iter()
            .position(|f| f.def.name == "go" && f.def.self_ty.is_none() && f.def.body.is_some())
            .unwrap();
        assert!(!g.edges[driver].contains(&free_go), "method call must not hit the free fn");
        let impl_go =
            g.fns.iter().position(|f| f.def.name == "go" && f.def.self_ty.is_some()).unwrap();
        assert!(g.edges[driver].contains(&impl_go));
    }

    #[test]
    fn qualified_call_restricts_to_type() {
        let u = units(&[(
            "a.rs",
            "impl A { fn mk() {} }\nimpl B { fn mk() {} }\nfn f() { A::mk(); }\n",
        )]);
        let g = Graph::build(&u);
        let f = idx(&g, "f");
        let a_mk = g
            .fns
            .iter()
            .position(|n| n.def.name == "mk" && n.def.self_ty.as_deref() == Some("A"))
            .unwrap();
        let b_mk = g
            .fns
            .iter()
            .position(|n| n.def.name == "mk" && n.def.self_ty.as_deref() == Some("B"))
            .unwrap();
        assert!(g.edges[f].contains(&a_mk));
        assert!(!g.edges[f].contains(&b_mk));
    }

    #[test]
    fn turbofish_call_resolves() {
        let u = units(&[(
            "a.rs",
            "fn caller() { helper::<u32, Vec<u8>>(1); let a = 2 < 3; let b = a; }\n\
             pub fn helper<T, U>(x: u32) -> u32 { x }\n",
        )]);
        let g = Graph::build(&u);
        assert_eq!(g.edges[idx(&g, "caller")], vec![idx(&g, "helper")]);
    }
}
