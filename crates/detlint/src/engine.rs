//! The analysis driver: file walking, waiver parsing, rule dispatch and
//! report assembly (text and JSON; SARIF lives in [`crate::sarif`]).
//!
//! Scope is two-tiered. The five kernel crates' `src/` trees
//! (`timewarp`, `partition`, `logic`, `netlist`, `gatesim`) get the full
//! catalog D001–D011 — that code's behavior reaches committed simulation
//! output. Everything else that *feeds* the kernel — the remaining
//! crates, `tests/`, `examples/`, the workspace CLI — gets the
//! flow-aware rules D006–D008 only: an overflowing event schedule in a
//! stress test or an impure probe in an example corrupts the histories
//! we assert on just as surely as kernel code would, but RandomState
//! maps or host clocks there are harmless. `fixtures/`, `shims/` and
//! `target/` are out of scope by construction.
//!
//! Analysis runs in three passes: (1) per-file lexical rules over the
//! token stream, (2) a workspace-wide structural pass — parse every
//! in-scope file, build one call graph, run the reachability rules plus
//! the concurrency (D009), phase (D010) and taint-dataflow (D011)
//! analyses — and (3) per-file waiver application over the merged
//! findings, so a structural violation landing in any file is waivable
//! by that file's inline `// detlint: allow(...)` comments like any
//! lexical one.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::callgraph::{Graph, Unit};
use crate::lexer::{lex, Lexed};
use crate::parser::parse;
use crate::rules::{self, RuleId, Violation};
use crate::structural;

/// Crates whose `src/` trees get the full rule catalog.
pub const KERNEL_CRATES: [&str; 5] = ["timewarp", "partition", "logic", "netlist", "gatesim"];

/// An inline waiver: `// detlint: allow(D001, <reason>)`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Source line the waiver covers (its own line, or the next line
    /// bearing code when the comment stands alone).
    pub covers: u32,
    /// Rules waived.
    pub rules: Vec<RuleId>,
    /// The written reason — mandatory.
    pub reason: String,
}

/// A file-pinned diagnostic that is not a rule violation: a malformed
/// waiver, an unused waiver, or a structural-parse failure.
#[derive(Debug, Clone)]
pub struct FileIssue {
    /// File-relative location.
    pub file: String,
    /// Line of the problem.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// One reported violation, after waiver matching.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: RuleId,
    /// Specific message.
    pub message: String,
    /// Waiver reason when the violation is waived.
    pub waived: Option<String>,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Unwaived violations — nonzero fails the build.
    pub violations: Vec<Finding>,
    /// Waived violations, kept for the record (JSON report, audits).
    pub waived: Vec<Finding>,
    /// Malformed waivers — nonzero fails the build.
    pub waiver_errors: Vec<FileIssue>,
    /// Waivers that matched nothing (informational).
    pub unused_waivers: Vec<FileIssue>,
    /// Item-parse failures from the structural pass — nonzero means the
    /// call graph is incomplete and the run exits 2, not 0.
    pub parse_errors: Vec<FileIssue>,
}

impl Report {
    /// Whether the tree passes the lint gate.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.waiver_errors.is_empty() && self.parse_errors.is_empty()
    }
}

/// Which rules apply to a file, by workspace-relative path. `None` means
/// the file is out of scope entirely.
pub fn rules_for(rel: &str) -> Option<Vec<RuleId>> {
    let rel = rel.replace('\\', "/");
    if rel.contains("/fixtures/") || rel.starts_with("shims/") || rel.starts_with("target/") {
        return None;
    }
    let in_kernel = KERNEL_CRATES.iter().any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    if in_kernel {
        let mut rules: Vec<RuleId> = RuleId::ALL.to_vec();
        if rel == "crates/timewarp/src/threaded.rs" {
            // The audited concurrency surface: D004 is *about* keeping
            // threads confined to this file.
            rules.retain(|r| *r != RuleId::D004);
        }
        return Some(rules);
    }
    if rel.starts_with("crates/")
        || rel.starts_with("src/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
    {
        return Some(vec![RuleId::D006, RuleId::D007, RuleId::D008]);
    }
    None
}

/// Parse every waiver in a lexed file. Returns `(waivers, errors)`.
pub fn parse_waivers(file: &str, lx: &Lexed) -> (Vec<Waiver>, Vec<FileIssue>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    // Lines bearing at least one token, for standalone-comment coverage.
    let token_lines: Vec<u32> = {
        let mut v: Vec<u32> = lx.toks.iter().map(|t| t.line).collect();
        v.dedup();
        v
    };
    for c in &lx.comments {
        // Anchored at the start of the comment: `// detlint: allow(...)`.
        // A mid-sentence mention (rule docs quoting the syntax, doc
        // comments whose text begins with `!` or `/`) is prose, not a
        // waiver.
        let Some(body) = c.text.trim_start().strip_prefix("detlint:") else { continue };
        let body = body.trim();
        if body.starts_with("phase") {
            // `// detlint: phase(...)` annotations belong to D010
            // (crate::phase), which also diagnoses malformed ones.
            continue;
        }
        let mut err = |message: String| {
            errors.push(FileIssue { file: file.to_string(), line: c.line, message });
        };
        let Some(args) = body.strip_prefix("allow") else {
            err(format!("expected `allow(...)` or `phase(...)` after `detlint:`, found `{body}`"));
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args.strip_prefix('(').and_then(|a| a.rfind(')').map(|e| &a[..e])) else {
            err("expected `allow(RULES, reason)` with balanced parentheses".into());
            continue;
        };
        // Leading comma-separated D-rule ids; everything after the first
        // non-rule item (re-joined) is the reason text.
        let mut rules_list = Vec::new();
        let mut reason = String::new();
        for part in inner.split(',') {
            let part_trim = part.trim();
            if reason.is_empty() && RuleId::parse(part_trim).is_some() {
                rules_list.push(RuleId::parse(part_trim).unwrap());
            } else if reason.is_empty() {
                reason = part_trim.to_string();
            } else {
                reason.push(',');
                reason.push_str(part);
            }
        }
        if rules_list.is_empty() {
            err("waiver names no rule (expected e.g. `allow(D001, reason)`)".into());
            continue;
        }
        if reason.trim().is_empty() {
            err(format!(
                "waiver for {} has no reason — every waiver must say why",
                rules_list.iter().map(|r| r.name()).collect::<Vec<_>>().join("+")
            ));
            continue;
        }
        let covers = if token_lines.binary_search(&c.line).is_ok() {
            c.line
        } else {
            match token_lines.binary_search(&(c.line + 1)) {
                Ok(i) => token_lines[i],
                Err(i) if i < token_lines.len() => token_lines[i],
                Err(_) => c.line,
            }
        };
        waivers.push(Waiver {
            line: c.line,
            covers,
            rules: rules_list,
            reason: reason.trim().to_string(),
        });
    }
    (waivers, errors)
}

/// Run the lexical rules among `active` over one token stream.
fn lexical_pass(lx: &Lexed, active: &[RuleId], raw: &mut Vec<Violation>) {
    let skip = rules::test_skip_mask(lx);
    for rule in active {
        match rule {
            RuleId::D001 => rules::check_d001(lx, &skip, raw),
            RuleId::D002 => rules::check_d002(lx, &skip, raw),
            RuleId::D003 => rules::check_d003(lx, &skip, raw),
            RuleId::D004 => rules::check_d004(lx, &skip, raw),
            RuleId::D005 => rules::check_d005(lx, &skip, raw),
            RuleId::D007 => rules::check_d007(lx, &skip, raw),
            RuleId::D006 | RuleId::D008 | RuleId::D009 | RuleId::D010 | RuleId::D011 => {} // structural pass
        }
    }
}

/// Match `raw` violations against `waivers`, filing each as waived or
/// violating, and report waiver *rule instances* that matched nothing —
/// a waiver line carrying two rules where only one fires reports the
/// unused rule precisely, not the whole line.
fn apply_waivers(file: &str, waivers: &[Waiver], mut raw: Vec<Violation>, report: &mut Report) {
    raw.sort_by_key(|v| (v.line, v.rule));
    let mut used: Vec<Vec<bool>> = waivers.iter().map(|w| vec![false; w.rules.len()]).collect();
    for v in raw {
        let w = waivers.iter().position(|w| w.covers == v.line && w.rules.contains(&v.rule));
        let finding = Finding {
            file: file.to_string(),
            line: v.line,
            rule: v.rule,
            message: v.message,
            waived: w.map(|i| waivers[i].reason.clone()),
        };
        match w {
            Some(i) => {
                let r = waivers[i].rules.iter().position(|r| *r == finding.rule).unwrap();
                used[i][r] = true;
                report.waived.push(finding);
            }
            None => report.violations.push(finding),
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        let unused: Vec<&str> = w
            .rules
            .iter()
            .enumerate()
            .filter(|(r, _)| !used[i][*r])
            .map(|(_, rule)| rule.name())
            .collect();
        if !unused.is_empty() {
            report.unused_waivers.push(FileIssue {
                file: file.to_string(),
                line: w.line,
                message: format!(
                    "unused waiver for {} (covers line {}, nothing fired there)",
                    unused.join("+"),
                    w.covers
                ),
            });
        }
    }
}

/// Analyze a set of `(workspace-relative path, source)` pairs as one
/// unit: per-file lexical rules, one structural pass over the combined
/// call graph, then per-file waiver application.
pub fn analyze_sources(inputs: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let mut units: Vec<Unit> = Vec::new();
    let mut active: Vec<Vec<RuleId>> = Vec::new();
    let mut waivers: Vec<Vec<Waiver>> = Vec::new();
    let mut raws: Vec<Vec<Violation>> = Vec::new();

    for (rel, src) in inputs {
        let Some(rules) = rules_for(rel) else { continue };
        report.files += 1;
        let lx = lex(src);
        let (w, mut werrs) = parse_waivers(rel, &lx);
        report.waiver_errors.append(&mut werrs);
        let mut raw = Vec::new();
        lexical_pass(&lx, &rules, &mut raw);
        let parsed = parse(&lx);
        for e in &parsed.errors {
            report.parse_errors.push(FileIssue {
                file: rel.clone(),
                line: e.line,
                message: format!("structural parse failed: {}", e.message),
            });
        }
        units.push(Unit { file: rel.clone(), lx, parsed });
        active.push(rules);
        waivers.push(w);
        raws.push(raw);
    }

    let graph = Graph::build(&units);
    for fv in structural::check_structural(&units, &graph, |u, r| active[u].contains(&r)) {
        raws[fv.unit].push(fv.violation);
    }

    for (i, unit) in units.iter().enumerate() {
        apply_waivers(&unit.file, &waivers[i], std::mem::take(&mut raws[i]), &mut report);
    }

    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.waived.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.parse_errors.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Analyze one file's source under the given rules, applying waivers.
/// Appends findings/errors to `report`. Structural rules see only this
/// file's call graph — the fixture-test entry point; workspace runs go
/// through [`analyze_sources`] for cross-file reachability.
pub fn analyze_source(file: &str, src: &str, active: &[RuleId], report: &mut Report) {
    let lx = lex(src);
    let (waivers, mut werrs) = parse_waivers(file, &lx);
    report.waiver_errors.append(&mut werrs);

    let mut raw: Vec<Violation> = Vec::new();
    lexical_pass(&lx, active, &mut raw);

    if active.iter().any(|r| RuleId::STRUCTURAL.contains(r)) {
        let parsed = parse(&lx);
        for e in &parsed.errors {
            report.parse_errors.push(FileIssue {
                file: file.to_string(),
                line: e.line,
                message: format!("structural parse failed: {}", e.message),
            });
        }
        let units = [Unit { file: file.to_string(), lx, parsed }];
        let graph = Graph::build(&units);
        for fv in structural::check_structural(&units, &graph, |_, r| active.contains(&r)) {
            raw.push(fv.violation);
        }
    }

    apply_waivers(file, &waivers, raw, report);
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// reports; `fixtures`, `shims` and `target` directories are skipped
/// (deliberate-violation fixtures and out-of-scope trees).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "fixtures" | "shims" | "target") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Analyze the whole workspace rooted at `root`: every `.rs` under
/// `crates/`, `src/`, `tests/` and `examples/` (scope per [`rules_for`]).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut inputs = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().replace('\\', "/");
        if rules_for(&rel).is_none() {
            continue;
        }
        inputs.push((rel, std::fs::read_to_string(&f)?));
    }
    Ok(analyze_sources(&inputs))
}

/// Workspace-relative paths of files differing from `git HEAD`:
/// modified (staged or not) plus untracked-but-not-ignored. Powers
/// `--changed` (the pre-commit mode — see `docs/LINTS.md`).
pub fn changed_files(root: &Path) -> std::io::Result<BTreeSet<String>> {
    use std::process::Command;
    let mut set = BTreeSet::new();
    for args in
        [&["diff", "--name-only", "HEAD"][..], &["ls-files", "--others", "--exclude-standard"][..]]
    {
        let out = Command::new("git").arg("-C").arg(root).args(args).output()?;
        if !out.status.success() {
            return Err(std::io::Error::other(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            )));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                set.insert(line.replace('\\', "/"));
            }
        }
    }
    Ok(set)
}

/// Restrict a report's findings to files in `keep`. The analysis still
/// ran workspace-wide (cross-file reachability needs the whole graph);
/// only the *reporting* narrows. Parse errors are kept regardless —
/// an incomplete graph invalidates the run whichever file broke it.
pub fn retain_files(report: &mut Report, keep: &BTreeSet<String>) {
    report.violations.retain(|f| keep.contains(&f.file));
    report.waived.retain(|f| keep.contains(&f.file));
    report.waiver_errors.retain(|e| keep.contains(&e.file));
    report.unused_waivers.retain(|e| keep.contains(&e.file));
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"",
        json_escape(&f.file),
        f.line,
        f.rule.name(),
        json_escape(&f.message),
        json_escape(f.rule.hint())
    );
    if let Some(r) = &f.waived {
        s.push_str(&format!(",\"waived\":\"{}\"", json_escape(r)));
    }
    s.push('}');
    s
}

/// Render the machine-readable report.
pub fn to_json(r: &Report) -> String {
    let arr = |v: &[Finding]| v.iter().map(finding_json).collect::<Vec<_>>().join(",");
    let errs = |v: &[FileIssue]| {
        v.iter()
            .map(|e| {
                format!(
                    "{{\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                    json_escape(&e.file),
                    e.line,
                    json_escape(&e.message)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"files_scanned\":{},\"clean\":{},\"violations\":[{}],\"waived\":[{}],\"waiver_errors\":[{}],\"unused_waivers\":[{}],\"parse_errors\":[{}]}}",
        r.files,
        r.clean(),
        arr(&r.violations),
        arr(&r.waived),
        errs(&r.waiver_errors),
        errs(&r.unused_waivers),
        errs(&r.parse_errors)
    )
}

/// Render the human-readable report.
pub fn to_text(r: &Report) -> String {
    let mut out = String::new();
    for v in &r.violations {
        out.push_str(&format!(
            "{}:{}: {} {} — {}\n    hint: {}\n",
            v.file,
            v.line,
            v.rule.name(),
            v.rule.summary(),
            v.message,
            v.rule.hint()
        ));
    }
    for e in &r.waiver_errors {
        out.push_str(&format!("{}:{}: bad waiver — {}\n", e.file, e.line, e.message));
    }
    for e in &r.parse_errors {
        out.push_str(&format!("{}:{}: error: {}\n", e.file, e.line, e.message));
    }
    for e in &r.unused_waivers {
        out.push_str(&format!("{}:{}: note: {}\n", e.file, e.line, e.message));
    }
    out.push_str(&format!(
        "detlint: {} file(s) scanned, {} violation(s), {} waived, {} bad waiver(s), {} parse error(s)\n",
        r.files,
        r.violations.len(),
        r.waived.len(),
        r.waiver_errors.len(),
        r.parse_errors.len()
    ));
    out
}
