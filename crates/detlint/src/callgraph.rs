//! Intra-workspace call graph and reachability over parsed items.
//!
//! The graph is a deliberate *over-approximation*: call sites resolve by
//! name (restricted by an explicit `Type::` qualifier or a `.method()`
//! receiver shape when available), so an edge may connect a call to a
//! same-named function it can never reach at runtime. For reachability
//! rules that is the safe direction — a hazard can only be *found*, not
//! hidden, by a spurious edge — and false positives carry an explicit
//! waiver channel. Calls that resolve to nothing (std functions, tuple
//! constructors, `Some(...)`) simply contribute no edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, Tok};
use crate::parser::{FnDef, ParsedFile, Receiver, StaticDef};

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

/// Effect-relevant facts extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct BodyFacts {
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Macro invocations (`name!`), in source order.
    pub macros: Vec<(String, u32)>,
    /// Every identifier mentioned, with one representative line
    /// (first occurrence) — used to match static-item references.
    pub idents: BTreeMap<String, u32>,
    /// Lines carrying an assignment through `self.field` (plain or
    /// compound) — the `&self` mutation check for D006.
    pub self_writes: Vec<u32>,
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

/// Scan a body token range `[start, end)` for calls, macros, identifier
/// references and `self.field` writes.
pub fn scan_body(lx: &Lexed, start: usize, end: usize) -> BodyFacts {
    let mut facts = BodyFacts::default();
    let mut i = start;
    while i < end {
        let Tok::Ident(id) = &lx.toks[i].tok else {
            i += 1;
            continue;
        };
        let line = lx.toks[i].line;
        facts.idents.entry(id.clone()).or_insert(line);
        if KEYWORDS.contains(&id.as_str()) {
            i += 1;
            continue;
        }
        match lx.punct(i + 1) {
            Some("!") if matches!(lx.punct(i + 2), Some("(") | Some("[") | Some("{")) => {
                facts.macros.push((id.clone(), line));
            }
            Some("(") => {
                let method = lx.punct(i.wrapping_sub(1)) == Some(".") && i > start;
                let qualifier = if !method && i >= start + 2 && lx.punct(i - 1) == Some("::") {
                    lx.ident(i - 2).map(str::to_string)
                } else {
                    None
                };
                facts.calls.push(CallSite { name: id.clone(), qualifier, method, line });
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
                        facts.calls.push(CallSite { name: id.clone(), qualifier, method, line });
                    }
                }
            }
            _ => {}
        }
        // `self . field <assign>` — mutation through the receiver. A
        // following `(` means a method call, not a field; `==` is a
        // comparison, not an assignment.
        if id == "self" && lx.punct(i + 1) == Some(".") {
            if let Some(_field) = lx.ident(i + 2) {
                if lx.punct(i + 3) != Some("(") {
                    let wrote = match lx.punct(i + 3) {
                        Some("=") => lx.punct(i + 4) != Some("="),
                        Some("+") | Some("-") | Some("*") | Some("/") | Some("%") | Some("^")
                        | Some("&") | Some("|") => lx.punct(i + 4) == Some("="),
                        _ => false,
                    };
                    if wrote {
                        facts.self_writes.push(line);
                    }
                }
            }
        }
        i += 1;
    }
    facts
}

/// A function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning [`Unit`].
    pub unit: usize,
    /// The parsed definition.
    pub def: FnDef,
    /// Body facts (empty for bodiless signatures).
    pub facts: BodyFacts,
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
    /// All static items, with their owning unit.
    pub statics: Vec<(usize, StaticDef)>,
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
                let facts = match def.body {
                    Some((s, e)) => scan_body(&unit.lx, s, e),
                    None => BodyFacts::default(),
                };
                g.by_name.entry(def.name.clone()).or_default().push(g.fns.len());
                g.fns.push(FnNode { unit: u, def: def.clone(), facts });
            }
            for st in &unit.parsed.statics {
                g.statics.push((u, st.clone()));
            }
        }
        g.edges = g.fns.iter().map(|f| g.resolve_all(f)).collect();
        g
    }

    /// Candidate callees of every call site in `f`, merged and deduped.
    fn resolve_all(&self, f: &FnNode) -> Vec<usize> {
        let mut out = BTreeSet::new();
        for call in &f.facts.calls {
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

    /// Function indices implementing `trait_name` (any method name).
    pub fn trait_impl_fns(&self, trait_name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.def.trait_ty.as_deref() == Some(trait_name)
                    && f.def.self_ty.is_some()
                    && f.def.body.is_some()
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Breadth-first reachability from `seeds`, never traversing *into*
    /// functions for which `boundary` returns true (sanctioned sinks like
    /// `EventSink::schedule` — effects behind them are the kernel's
    /// responsibility, not the handler's).
    ///
    /// Returns `reached fn → (caller fn, seed fn)`; seeds map to
    /// themselves.
    pub fn reach(
        &self,
        seeds: &[usize],
        boundary: impl Fn(&FnNode) -> bool,
    ) -> BTreeMap<usize, (usize, usize)> {
        let mut out: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if out.insert(s, (s, s)).is_none() {
                queue.push(s);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let f = queue[qi];
            qi += 1;
            let seed = out[&f].1;
            for &callee in &self.edges[f] {
                if boundary(&self.fns[callee]) {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = out.entry(callee) {
                    e.insert((f, seed));
                    queue.push(callee);
                }
            }
        }
        out
    }

    /// Render the call chain `seed → … → f` for diagnostics.
    pub fn chain(&self, reach: &BTreeMap<usize, (usize, usize)>, f: usize) -> String {
        let mut names = vec![self.fns[f].qualified()];
        let mut cur = f;
        while let Some(&(parent, _)) = reach.get(&cur) {
            if parent == cur {
                break;
            }
            names.push(self.fns[parent].qualified());
            cur = parent;
        }
        names.reverse();
        names.join(" → ")
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
    fn reachability_is_transitive_with_chain() {
        let u = units(&[(
            "a.rs",
            "fn seed() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let g = Graph::build(&u);
        let r = g.reach(&[idx(&g, "seed")], |_| false);
        assert!(r.contains_key(&idx(&g, "leaf")));
        assert!(!r.contains_key(&idx(&g, "island")));
        assert_eq!(g.chain(&r, idx(&g, "leaf")), "seed → mid → leaf");
    }

    #[test]
    fn boundary_stops_traversal() {
        let u = units(&[(
            "a.rs",
            "impl EventSink { fn schedule(&mut self) { internal(); } }\n\
             fn seed(s: &mut EventSink) { s.schedule(); }\nfn internal() {}\n",
        )]);
        let g = Graph::build(&u);
        let r = g.reach(&[idx(&g, "seed")], |f| f.def.self_ty.as_deref() == Some("EventSink"));
        assert!(!r.contains_key(&idx(&g, "schedule")), "boundary fn not entered");
        assert!(!r.contains_key(&idx(&g, "internal")), "nothing behind the boundary");
    }

    #[test]
    fn self_writes_detected_only_for_assignments() {
        let lx = lex("fn f(&self) { self.a = 1; self.b += 2; if self.c == 3 {} self.d(); }");
        let p = parse(&lx);
        let (s, e) = p.fns[0].body.unwrap();
        let facts = scan_body(&lx, s, e);
        assert_eq!(facts.self_writes.len(), 2, "{:?}", facts.self_writes);
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

    #[test]
    fn macro_uses_are_recorded() {
        let lx = lex("fn f() { println!(\"x\"); assert_eq!(1, 1); vec![1]; }");
        let p = parse(&lx);
        let (s, e) = p.fns[0].body.unwrap();
        let facts = scan_body(&lx, s, e);
        let names: Vec<&str> = facts.macros.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["println", "assert_eq", "vec"]);
    }
}
