//! `pls-detlint` command-line front-end.
//!
//! ```text
//! pls-detlint --workspace [--root PATH] [--json]  # static determinism lint
//! ```
//!
//! Exit status contract (relied on by `scripts/check.sh` and CI): 0
//! means clean; 1 means rule violations; 2 means
//! the tool itself could not do its job — bad usage, I/O failure, or a
//! structural parse error that leaves the call graph incomplete.

use std::path::PathBuf;
use std::process::ExitCode;

use pls_detlint::{analyze_workspace, to_json, to_text};

fn usage() -> ExitCode {
    eprintln!("usage: pls-detlint --workspace [--root PATH] [--json]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if !workspace {
        return usage();
    }
    let root = root.unwrap_or_else(|| {
        // Default to the workspace containing this binary's sources:
        // CARGO_MANIFEST_DIR/../.. at build time, cwd at run time.
        PathBuf::from(option_env!("CARGO_MANIFEST_DIR").unwrap_or(".")).join("../..")
    });
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pls-detlint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", to_json(&report));
    } else {
        print!("{}", to_text(&report));
    }
    if !report.parse_errors.is_empty() {
        // The call graph is incomplete: whatever the rule results say,
        // the analysis itself failed.
        ExitCode::from(2)
    } else if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
