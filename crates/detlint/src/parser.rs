//! A recursive-descent *item* parser over [`crate::lexer`] output.
//!
//! This is not a full Rust grammar — it recovers exactly the structure
//! the call graph and the flow rule (D011) needs from a token
//! stream:
//!
//! * every function definition, with its name, receiver shape
//!   (`&self` / `&mut self` / `self` / free), enclosing `impl` type and
//!   trait, source line and body token range;
//! * which items sit under `#[cfg(test)]` / `#[test]`.
//!
//! The parser is *error-tolerant*: constructs it does not model
//! (macros, const generics, nested item oddities) are skipped by
//! balanced-delimiter matching, and genuinely unbalanced input yields a
//! [`ParseError`] instead of a panic — a linter must degrade gracefully
//! on code it does not fully understand. Unbalanced input is still
//! fatal to the gate (exit code 2): silently analyzing half a file
//! could silently pass a violation.

use crate::lexer::{Lexed, Tok};

/// How a function takes `self`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receiver {
    /// Free function (no receiver).
    Free,
    /// `&self`.
    Ref,
    /// `&mut self`.
    RefMut,
    /// `self` / `mut self` / `self: T`.
    Owned,
}

/// One parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `impl` self type (last path segment), when inside an impl.
    pub self_ty: Option<String>,
    /// The trait being implemented (`impl Trait for Type`) or declared
    /// (`trait Trait { fn ... }`), when any.
    pub trait_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[open_brace, past_close_brace)` of the body;
    /// `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Receiver shape.
    pub receiver: Receiver,
    /// Whether the item (or an enclosing item) is `#[cfg(test)]`/`#[test]`.
    pub in_test: bool,
    /// Non-`self` parameter names, in declaration order (pattern
    /// parameters contribute their first binding). Positional: argument
    /// `k` at a call site binds `params[k]`, since `self` is excluded
    /// on both sides for method calls.
    pub params: Vec<String>,
}

/// A structural-parse failure (unbalanced delimiters and the like).
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line where recovery gave up.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

/// Everything the call graph needs from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Parse failures (fatal to the gate, exit code 2).
    pub errors: Vec<ParseError>,
}

struct Parser<'a> {
    lx: &'a Lexed,
    i: usize,
    out: ParsedFile,
}

/// Item context carried into nested scopes.
#[derive(Debug, Clone, Default)]
struct Ctx {
    self_ty: Option<String>,
    trait_ty: Option<String>,
    in_test: bool,
}

/// Parse one lexed file into its item structure.
pub fn parse(lx: &Lexed) -> ParsedFile {
    let mut p = Parser { lx, i: 0, out: ParsedFile::default() };
    let end = lx.toks.len();
    p.items(end, &Ctx::default());
    p.out
}

impl<'a> Parser<'a> {
    fn line(&self, i: usize) -> u32 {
        self.lx.toks.get(i).map_or(0, |t| t.line)
    }

    fn err(&mut self, i: usize, message: &str) {
        let line = self.line(i.min(self.lx.toks.len().saturating_sub(1)));
        self.out.errors.push(ParseError { line, message: message.to_string() });
    }

    /// Index just past the delimiter matching `open` (`{`→`}`, `(`→`)`,
    /// `[`→`]`). Angle brackets are handled by [`Parser::skip_generics`]
    /// instead (they nest differently). Returns `None` when unbalanced.
    fn match_delim(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.lx.punct(open)? {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => return None,
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < self.lx.toks.len() {
            match self.lx.punct(j) {
                Some(p) if p == o => depth += 1,
                Some(p) if p == c => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Skip a `<...>` generic-parameter/argument list starting at `open`
    /// (which indexes the `<`). Round/square delimiters inside are
    /// matched; the fused `->` token can never be mistaken for a close.
    fn skip_generics(&self, open: usize) -> Option<usize> {
        debug_assert_eq!(self.lx.punct(open), Some("<"));
        let mut depth = 0usize;
        let mut j = open;
        while j < self.lx.toks.len() {
            match self.lx.punct(j) {
                Some("<") => depth += 1,
                Some(">") => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                Some("(") | Some("[") => j = self.match_delim(j)? - 1,
                // A generic list never contains these at depth ≥ 1; seeing
                // one means the `<` was a comparison after all.
                Some(";") | Some("{") => return None,
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Skip to just past the next `;` at the current nesting level,
    /// matching any delimiters on the way (covers `use`, `const`, `type`,
    /// bodiless declarations). Falls back to end-of-input.
    fn skip_to_semi(&mut self) {
        while self.i < self.lx.toks.len() {
            match self.lx.punct(self.i) {
                Some(";") => {
                    self.i += 1;
                    return;
                }
                Some("{") | Some("(") | Some("[") => match self.match_delim(self.i) {
                    Some(past) => self.i = past,
                    None => {
                        self.err(self.i, "unbalanced delimiter");
                        self.i = self.lx.toks.len();
                        return;
                    }
                },
                _ => self.i += 1,
            }
        }
    }

    /// Parse an attribute at `self.i` (`#[...]` / `#![...]`), returning
    /// whether it is `#[cfg(test)]`-like or `#[test]`.
    fn attr(&mut self) -> bool {
        debug_assert_eq!(self.lx.punct(self.i), Some("#"));
        let mut j = self.i + 1;
        if self.lx.punct(j) == Some("!") {
            j += 1;
        }
        if self.lx.punct(j) != Some("[") {
            self.i = j;
            return false;
        }
        let is_test = self.lx.ident(j + 1) == Some("test")
            || (self.lx.ident(j + 1) == Some("cfg")
                && self.lx.punct(j + 2) == Some("(")
                && self.lx.ident(j + 3) == Some("test"));
        match self.match_delim(j) {
            Some(past) => self.i = past,
            None => {
                self.err(j, "unbalanced attribute");
                self.i = self.lx.toks.len();
            }
        }
        is_test
    }

    /// Parse items until token index `end`.
    fn items(&mut self, end: usize, ctx: &Ctx) {
        let mut pending_test = false;
        while self.i < end {
            match (&self.lx.toks[self.i].tok, self.lx.punct(self.i)) {
                (_, Some("#")) => pending_test |= self.attr(),
                (Tok::Ident(id), _) => {
                    let id = id.clone();
                    match id.as_str() {
                        // Modifiers that may precede an item keyword.
                        "pub" => {
                            self.i += 1;
                            if self.lx.punct(self.i) == Some("(") {
                                match self.match_delim(self.i) {
                                    Some(past) => self.i = past,
                                    None => {
                                        self.err(self.i, "unbalanced pub(...)");
                                        self.i = end;
                                    }
                                }
                            }
                        }
                        "unsafe" | "async" | "default" | "extern" | "crate" => self.i += 1,
                        "fn" => {
                            let item_test = std::mem::take(&mut pending_test);
                            self.parse_fn(ctx, item_test);
                        }
                        "impl" => {
                            let item_test = std::mem::take(&mut pending_test);
                            self.parse_impl(ctx, item_test);
                        }
                        "mod" => {
                            let item_test = std::mem::take(&mut pending_test);
                            self.i += 1; // `mod`
                            self.i += 1; // name
                            if self.lx.punct(self.i) == Some("{") {
                                match self.match_delim(self.i) {
                                    Some(past) => {
                                        let inner = Ctx {
                                            in_test: ctx.in_test || item_test,
                                            ..Ctx::default()
                                        };
                                        self.i += 1;
                                        self.items(past - 1, &inner);
                                        self.i = past;
                                    }
                                    None => {
                                        self.err(self.i, "unbalanced mod body");
                                        self.i = end;
                                    }
                                }
                            } else {
                                self.skip_to_semi();
                            }
                        }
                        "trait" => {
                            let item_test = std::mem::take(&mut pending_test);
                            self.i += 1; // `trait`
                            let name = self.lx.ident(self.i).unwrap_or("").to_string();
                            // Skip to the body, over generics and bounds.
                            while self.i < self.lx.toks.len() {
                                match self.lx.punct(self.i) {
                                    Some("{") => break,
                                    Some(";") => break, // `trait X = ...;` alias-ish
                                    Some("<") => match self.skip_generics(self.i) {
                                        Some(past) => self.i = past,
                                        None => break,
                                    },
                                    _ => self.i += 1,
                                }
                            }
                            if self.lx.punct(self.i) == Some("{") {
                                match self.match_delim(self.i) {
                                    Some(past) => {
                                        let inner = Ctx {
                                            self_ty: None,
                                            trait_ty: Some(name),
                                            in_test: ctx.in_test || item_test,
                                        };
                                        self.i += 1;
                                        self.items(past - 1, &inner);
                                        self.i = past;
                                    }
                                    None => {
                                        self.err(self.i, "unbalanced trait body");
                                        self.i = end;
                                    }
                                }
                            } else {
                                self.i += 1;
                            }
                        }
                        "struct" | "enum" | "union" => {
                            pending_test = false;
                            // Skip to `;` (unit/tuple struct) or past `{...}`.
                            self.i += 1;
                            while self.i < self.lx.toks.len() {
                                match self.lx.punct(self.i) {
                                    Some(";") => {
                                        self.i += 1;
                                        break;
                                    }
                                    Some("{") => {
                                        match self.match_delim(self.i) {
                                            Some(past) => self.i = past,
                                            None => {
                                                self.err(self.i, "unbalanced item body");
                                                self.i = end;
                                            }
                                        }
                                        break;
                                    }
                                    Some("(") => match self.match_delim(self.i) {
                                        Some(past) => self.i = past,
                                        None => {
                                            self.err(self.i, "unbalanced tuple struct");
                                            self.i = end;
                                            break;
                                        }
                                    },
                                    Some("<") => match self.skip_generics(self.i) {
                                        Some(past) => self.i = past,
                                        None => self.i += 1,
                                    },
                                    _ => self.i += 1,
                                }
                            }
                        }
                        // `const fn`: a qualifier, like `unsafe`.
                        "const" if self.lx.ident(self.i + 1) == Some("fn") => self.i += 1,
                        "use" | "type" | "const" | "static" | "macro_rules" => {
                            pending_test = false;
                            self.i += 1;
                            self.skip_to_semi();
                        }
                        _ => {
                            pending_test = false;
                            self.i += 1;
                        }
                    }
                }
                (_, Some("{")) => match self.match_delim(self.i) {
                    Some(past) => self.i = past,
                    None => {
                        self.err(self.i, "unbalanced block");
                        self.i = end;
                    }
                },
                _ => {
                    pending_test = false;
                    self.i += 1;
                }
            }
        }
    }

    /// `self.i` indexes the `fn` keyword.
    fn parse_fn(&mut self, ctx: &Ctx, item_test: bool) {
        let line = self.line(self.i);
        self.i += 1; // `fn`
        let name = self.lx.ident(self.i).unwrap_or("").to_string();
        self.i += 1;
        if self.lx.punct(self.i) == Some("<") {
            match self.skip_generics(self.i) {
                Some(past) => self.i = past,
                None => {
                    self.err(self.i, "unbalanced fn generics");
                    self.i = self.lx.toks.len();
                    return;
                }
            }
        }
        if self.lx.punct(self.i) != Some("(") {
            self.err(self.i, "expected parameter list after fn name");
            return;
        }
        let params_open = self.i;
        let Some(params_end) = self.match_delim(params_open) else {
            self.err(params_open, "unbalanced parameter list");
            self.i = self.lx.toks.len();
            return;
        };
        let receiver = self.receiver_shape(params_open + 1, params_end - 1);
        let params = self.param_names(params_open + 1, params_end - 1, receiver != Receiver::Free);
        self.i = params_end;
        // Scan over return type / where clause to the body (or `;`).
        let mut body = None;
        while self.i < self.lx.toks.len() {
            match self.lx.punct(self.i) {
                Some(";") => {
                    self.i += 1;
                    break;
                }
                Some("{") => {
                    match self.match_delim(self.i) {
                        Some(past) => {
                            body = Some((self.i, past));
                            self.i = past;
                        }
                        None => {
                            self.err(self.i, "unbalanced fn body");
                            self.i = self.lx.toks.len();
                        }
                    }
                    break;
                }
                Some("<") => match self.skip_generics(self.i) {
                    Some(past) => self.i = past,
                    None => self.i += 1,
                },
                Some("(") | Some("[") => match self.match_delim(self.i) {
                    Some(past) => self.i = past,
                    None => {
                        self.err(self.i, "unbalanced return type");
                        self.i = self.lx.toks.len();
                        return;
                    }
                },
                _ => self.i += 1,
            }
        }
        self.out.fns.push(FnDef {
            name,
            self_ty: ctx.self_ty.clone(),
            trait_ty: ctx.trait_ty.clone(),
            line,
            body,
            receiver,
            in_test: ctx.in_test || item_test,
            params,
        });
    }

    /// Extract parameter names from the tokens between the parentheses
    /// of a parameter list: split at top-level commas, take the first
    /// plain identifier before the `:` of each parameter (skipping
    /// `mut`/`ref` and the receiver). A parameter whose pattern binds
    /// nothing nameable (`_: T`, `(a, b): P` beyond its first binding)
    /// degrades to whatever identifier leads it — the taint engine only
    /// needs a positional name to correlate arguments with.
    fn param_names(&self, start: usize, end: usize, has_receiver: bool) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0usize;
        let mut param_start = start;
        let mut j = start;
        let flush = |names: &mut Vec<String>, s: usize, e: usize| {
            let mut k = s;
            while k < e {
                match &self.lx.toks[k].tok {
                    Tok::Ident(id) if id == "mut" || id == "ref" => k += 1,
                    Tok::Punct("(") | Tok::Punct("&") | Tok::Punct("[") => k += 1,
                    Tok::Lifetime => k += 1,
                    Tok::Ident(id) => {
                        names.push(id.clone());
                        return;
                    }
                    _ => return,
                }
            }
        };
        while j < end {
            match self.lx.punct(j) {
                Some("(") | Some("[") | Some("<") => depth += 1,
                Some(")") | Some("]") | Some(">") => depth = depth.saturating_sub(1),
                Some(",") if depth == 0 => {
                    flush(&mut names, param_start, j);
                    param_start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        if param_start < end {
            flush(&mut names, param_start, end);
        }
        if has_receiver && names.first().is_some_and(|n| n == "self") {
            names.remove(0);
        }
        names
    }

    /// Classify the receiver from the tokens of the first parameter.
    fn receiver_shape(&self, start: usize, end: usize) -> Receiver {
        let mut j = start;
        let mut by_ref = false;
        let mut is_mut = false;
        while j < end {
            match &self.lx.toks[j].tok {
                Tok::Punct("&") => by_ref = true,
                Tok::Lifetime => {}
                Tok::Ident(id) if id == "mut" => is_mut = true,
                Tok::Ident(id) if id == "self" => {
                    return match (by_ref, is_mut) {
                        (true, true) => Receiver::RefMut,
                        (true, false) => Receiver::Ref,
                        (false, _) => Receiver::Owned,
                    };
                }
                _ => return Receiver::Free,
            }
            j += 1;
        }
        Receiver::Free
    }

    /// `self.i` indexes the `impl` keyword.
    fn parse_impl(&mut self, ctx: &Ctx, item_test: bool) {
        self.i += 1; // `impl`
        if self.lx.punct(self.i) == Some("<") {
            match self.skip_generics(self.i) {
                Some(past) => self.i = past,
                None => {
                    self.err(self.i, "unbalanced impl generics");
                    self.i = self.lx.toks.len();
                    return;
                }
            }
        }
        // First path (trait in `impl T for S`, else the self type).
        let (first, after_first) = self.impl_path(self.i);
        self.i = after_first;
        let (trait_ty, self_ty) = if self.lx.ident(self.i) == Some("for") {
            self.i += 1;
            let (second, after_second) = self.impl_path(self.i);
            self.i = after_second;
            (first, second)
        } else {
            (None, first)
        };
        // Skip an optional where clause.
        while self.i < self.lx.toks.len() && self.lx.punct(self.i) != Some("{") {
            if self.lx.punct(self.i) == Some("<") {
                match self.skip_generics(self.i) {
                    Some(past) => self.i = past,
                    None => self.i += 1,
                }
            } else if self.lx.punct(self.i) == Some(";") {
                // `impl Trait for Type;` — nothing to parse inside.
                self.i += 1;
                return;
            } else {
                self.i += 1;
            }
        }
        match self.match_delim(self.i) {
            Some(past) => {
                let inner = Ctx { self_ty, trait_ty, in_test: ctx.in_test || item_test };
                self.i += 1;
                self.items(past - 1, &inner);
                self.i = past;
            }
            None => {
                self.err(self.i, "unbalanced impl body");
                self.i = self.lx.toks.len();
            }
        }
    }

    /// Read a type path in an impl header, returning its last plain
    /// identifier (the name rules key on) and the index past the path.
    fn impl_path(&self, start: usize) -> (Option<String>, usize) {
        let mut j = start;
        let mut last = None;
        while j < self.lx.toks.len() {
            match &self.lx.toks[j].tok {
                Tok::Ident(id) if id == "for" || id == "where" => break,
                Tok::Ident(id) if id == "dyn" || id == "mut" => j += 1,
                Tok::Ident(id) => {
                    last = Some(id.clone());
                    j += 1;
                }
                Tok::Punct("::") | Tok::Punct("&") | Tok::Punct("!") => j += 1,
                Tok::Lifetime => j += 1,
                Tok::Punct("<") => match self.skip_generics(j) {
                    Some(past) => j = past,
                    None => break,
                },
                Tok::Punct("(") | Tok::Punct("[") => match self.match_delim(j) {
                    Some(past) => j = past,
                    None => break,
                },
                _ => break,
            }
        }
        (last, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_and_method_fns() {
        let p = parse_src(
            "fn free(a: u32) -> u32 { a }\n\
             impl Foo { fn m(&self) {} fn mm(&mut self) {} fn own(self) {} }\n",
        );
        assert_eq!(p.fns.len(), 4);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].receiver, Receiver::Free);
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(p.fns[1].receiver, Receiver::Ref);
        assert_eq!(p.fns[2].receiver, Receiver::RefMut);
        assert_eq!(p.fns[3].receiver, Receiver::Owned);
        assert!(p.errors.is_empty());
    }

    #[test]
    fn trait_impl_and_generics() {
        let p = parse_src(
            "impl<A: App, B> Probe<B> for Tee<A, B> where B: Sized {\n\
             fn go<T: Into<u64>>(&mut self, x: T) {}\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].trait_ty.as_deref(), Some("Probe"));
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Tee"));
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn trait_decl_signatures_have_no_body() {
        let p = parse_src("trait App { fn execute(&self, x: u8); fn dflt(&self) -> u8 { 0 } }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].trait_ty.as_deref(), Some("App"));
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn cfg_test_marks_items_transitively() {
        let p = parse_src(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n\
             #[test]\nfn top_level_case() {}\n",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("live").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("case").in_test);
        assert!(by_name("top_level_case").in_test);
    }

    #[test]
    fn const_fn_is_a_function_not_a_const_item() {
        let p = parse_src(
            "impl T {\n    pub const fn a(self) -> u64 { 1 }\n    pub fn b(self) {}\n}\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn unbalanced_input_is_an_error_not_a_panic() {
        let p = parse_src("fn broken() { if x { }");
        assert!(!p.errors.is_empty(), "unbalanced body must be reported");
    }

    #[test]
    fn nested_modules_and_inherent_impls() {
        let p =
            parse_src("mod outer { mod inner { impl Thing { pub(crate) fn deep(&self) {} } } }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "deep");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Thing"));
    }

    #[test]
    fn param_names_skip_self_and_patterns() {
        let p = parse_src(
            "fn free(a: u32, mut b: Vec<(u8, u8)>, (c, d): (u8, u8)) {}\n\
             impl Foo { fn m(&mut self, x: u32, ref y: u64) {} fn none(&self) {} }\n",
        );
        assert_eq!(p.fns[0].params, vec!["a", "b", "c"]);
        assert_eq!(p.fns[1].params, vec!["x", "y"]);
        assert!(p.fns[2].params.is_empty());
    }

    #[test]
    fn fn_with_tuple_return_and_where_clause() {
        let p = parse_src(
            "fn pair<T>(x: T) -> (T, u32) where T: Clone { (x, 0) }\n\
             fn arrow() -> impl Iterator<Item = (u32, u32)> { std::iter::empty() }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns.iter().all(|f| f.body.is_some()));
        assert!(p.errors.is_empty());
    }
}
