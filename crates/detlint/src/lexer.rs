//! A minimal Rust lexer — just enough structure for the determinism
//! rules: identifiers, punctuation, numeric literals and line-accurate
//! comments. It is *not* a full Rust grammar; the rules it feeds are
//! token-pattern matchers ("AST-lite"), which keeps the crate
//! dependency-free in an offline build environment.
//!
//! Handled correctly because the rules depend on it:
//!
//! * line/block comments (nested), collected for waiver parsing;
//! * string/char/raw-string/byte-string literals (skipped, so a
//!   `"f64"` inside a string can never trip D003);
//! * lifetimes vs. char literals (`'a` vs `'a'`);
//! * the multi-char operators `::`, `->`, `=>` and `..` fused into one
//!   token, so generic-argument walks don't mistake `->` for a closing
//!   angle bracket.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A punctuation token — single char, or one of the fused operators
    /// `::`, `->`, `=>`, `..`.
    Punct(&'static str),
    /// A numeric literal, verbatim (so rules can test floatness).
    Num(String),
    /// A lifetime such as `'a` (distinct from char literals, which are
    /// skipped like all other literals).
    Lifetime,
    /// A string, raw-string, byte-string or char literal (content
    /// dropped).
    Lit,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Spanned {
    /// 1-based line number.
    pub line: u32,
    /// The token.
    pub tok: Tok,
}

/// A `//` line comment (or one line of a block comment) with its line
/// number — the input to waiver parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line number.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// The full lexing result for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub toks: Vec<Spanned>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// The identifier at token `i`, if that token is one.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match &self.toks.get(i)?.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The punctuation at token `i`, if that token is one.
    pub fn punct(&self, i: usize) -> Option<&'static str> {
        match self.toks.get(i)?.tok {
            Tok::Punct(p) => Some(p),
            _ => None,
        }
    }
}

/// Whether the text of a [`Tok::Num`] is a float literal (`2.5`, `1e9`,
/// `3f64`), as opposed to an integer one (`0x1e9`, `100_000`).
pub fn is_float_literal(t: &str) -> bool {
    if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    let t = t.trim_end_matches("f32").trim_end_matches("f64");
    t.contains('.') || t[1..].contains(['e', 'E'])
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unrecognized bytes are skipped, because a
/// linter must degrade gracefully on code it does not fully understand.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && b[j] != '\n' {
                    j += 1;
                }
                let text: String = b[start..j].iter().collect();
                out.comments.push(Comment { line, text });
                i = j;
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Nested block comment; each contained line is recorded
                // separately so waivers inside block comments still map to
                // a line.
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut buf = String::new();
                while j < n && depth > 0 {
                    if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == '\n' {
                            out.comments.push(Comment { line, text: std::mem::take(&mut buf) });
                            line += 1;
                        } else {
                            buf.push(b[j]);
                        }
                        j += 1;
                    }
                }
                if !buf.is_empty() {
                    out.comments.push(Comment { line, text: buf });
                }
                i = j;
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
                out.toks.push(Spanned { line, tok: Tok::Lit });
            }
            'r' | 'b' if starts_raw_or_byte_literal(&b, i) => {
                i = skip_raw_or_byte(&b, i, &mut line);
                out.toks.push(Spanned { line, tok: Tok::Lit });
            }
            '\'' => {
                // Lifetime `'a` (next is ident-ish and the literal does not
                // close immediately after one char) vs char literal `'a'`.
                let is_lifetime =
                    i + 1 < n && is_ident_start(b[i + 1]) && !(i + 2 < n && b[i + 2] == '\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    out.toks.push(Spanned { line, tok: Tok::Lifetime });
                    i = j;
                } else {
                    let mut j = i + 1;
                    if j < n && b[j] == '\\' {
                        j += 2;
                        // \x7f, \u{..} — scan to the closing quote.
                        while j < n && b[j] != '\'' {
                            j += 1;
                        }
                    } else if j < n {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        j += 1;
                    }
                    out.toks.push(Spanned { line, tok: Tok::Lit });
                    i = j;
                }
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                let id: String = b[i..j].iter().collect();
                out.toks.push(Spanned { line, tok: Tok::Ident(id) });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                // Numeric literal: digits, radix prefixes, `_`, `.` (but
                // not `..`), exponents with signs, type suffixes.
                while j < n {
                    let d = b[j];
                    let take = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && j + 1 < n && b[j + 1].is_ascii_digit())
                        || ((d == '+' || d == '-')
                            && matches!(b[j - 1], 'e' | 'E')
                            && !b[i..j].iter().collect::<String>().starts_with("0x"));
                    if !take {
                        break;
                    }
                    j += 1;
                }
                let text: String = b[i..j].iter().collect();
                out.toks.push(Spanned { line, tok: Tok::Num(text) });
                i = j;
            }
            _ => {
                let fused = fuse(&b, i);
                if let Some((p, len)) = fused {
                    out.toks.push(Spanned { line, tok: Tok::Punct(p) });
                    i += len;
                } else {
                    out.toks.push(Spanned { line, tok: Tok::Punct(single(c)) });
                    i += 1;
                }
            }
        }
    }
    out
}

fn starts_raw_or_byte_literal(b: &[char], i: usize) -> bool {
    // r"...", r#"..."#, b"...", br"...", b'x'
    let n = b.len();
    match b[i] {
        'r' => {
            let mut j = i + 1;
            while j < n && b[j] == '#' {
                j += 1;
            }
            j < n && b[j] == '"'
        }
        'b' => {
            if i + 1 >= n {
                return false;
            }
            match b[i + 1] {
                '"' | '\'' => true,
                'r' => {
                    let mut j = i + 2;
                    while j < n && b[j] == '#' {
                        j += 1;
                    }
                    j < n && b[j] == '"'
                }
                _ => false,
            }
        }
        _ => false,
    }
}

fn skip_raw_or_byte(b: &[char], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut j = i;
    while j < n && (b[j] == 'r' || b[j] == 'b') {
        j += 1;
    }
    if j < n && b[j] == '\'' {
        // byte char literal b'x'
        j += 1;
        if j < n && b[j] == '\\' {
            j += 1;
        }
        while j < n && b[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(n);
    }
    let mut hashes = 0usize;
    while j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && b[j] == '"');
    j += 1; // opening quote
    while j < n {
        if b[j] == '\n' {
            *line += 1;
            j += 1;
        } else if b[j] == '"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while k < n && b[k] == '#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    n
}

fn skip_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

fn fuse(b: &[char], i: usize) -> Option<(&'static str, usize)> {
    let two = |a: char, c: char| i + 1 < b.len() && b[i] == a && b[i + 1] == c;
    if two(':', ':') {
        Some(("::", 2))
    } else if two('-', '>') {
        Some(("->", 2))
    } else if two('=', '>') {
        Some(("=>", 2))
    } else if two('.', '.') {
        Some(("..", 2))
    } else {
        None
    }
}

fn single(c: char) -> &'static str {
    // Intern the handful of chars the rules care about; everything else
    // maps to an opaque token.
    match c {
        '#' => "#",
        '[' => "[",
        ']' => "]",
        '(' => "(",
        ')' => ")",
        '{' => "{",
        '}' => "}",
        '<' => "<",
        '>' => ">",
        ',' => ",",
        ';' => ";",
        ':' => ":",
        '.' => ".",
        '&' => "&",
        '=' => "=",
        '*' => "*",
        '+' => "+",
        '-' => "-",
        '/' => "/",
        '|' => "|",
        '!' => "!",
        '?' => "?",
        '@' => "@",
        '%' => "%",
        '^' => "^",
        '~' => "~",
        '$' => "$",
        _ => "·",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let src = "let x = \"HashMap::new()\"; // HashMap here too\nuse foo;";
        assert_eq!(idents(src), vec!["let", "x", "use", "foo"]);
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lx = lex(src);
        let lifetimes = lx.toks.iter().filter(|t| matches!(t.tok, Tok::Lifetime)).count();
        let lits = lx.toks.iter().filter(|t| matches!(t.tok, Tok::Lit)).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(lits, 1);
    }

    #[test]
    fn line_numbers_track_newlines_and_block_comments() {
        let src = "a\n/* one\ntwo */\nb";
        let lx = lex(src);
        assert_eq!(lx.toks[0].line, 1);
        assert_eq!(lx.toks[1].line, 4);
        assert_eq!(lx.comments.len(), 2, "block comment yields one entry per line");
    }

    #[test]
    fn fused_operators() {
        let src = "a::b -> c => d .. e";
        let puncts: Vec<&str> = lex(src)
            .toks
            .iter()
            .filter_map(|s| match s.tok {
                Tok::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>", ".."]);
    }

    #[test]
    fn float_literals_keep_their_text() {
        let src = "1e9 0x1e9 2.5 100_000 3f64";
        let nums: Vec<String> = lex(src)
            .toks
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Num(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1e9", "0x1e9", "2.5", "100_000", "3f64"]);
    }

    #[test]
    fn raw_strings_skipped() {
        let src = "let s = r#\"HashMap \"quoted\" inside\"#; next";
        assert_eq!(idents(src), vec!["let", "s", "next"]);
    }
}
