//! `scripts/loc.sh`, the line count ROADMAP tracks, skips every
//! `#[cfg(test)]` item and nothing else — wherever in a file it sits.

use std::path::Path;
use std::process::Command;

/// Non-test lines: 3 before the test-only impl, 2 between it and
/// `mod testkit;`, 5 after that (a doc comment that mentions the
/// attribute, and an impl around a test-only helper) and none in the
/// trailing test module. Braces in string and char literals do not count.
const LIB_RS: &str = r#"pub struct State(u64);

pub const OPEN: char = '{';
#[cfg(test)]
impl State {
    fn peek(&self) -> String {
        format!("{{{}", self.0)
    }
}
pub fn after_impl() {}

#[cfg(test)]
mod testkit;
/// Not a `#[cfg(test)]` item: this line counts.
pub fn after_mod() {}
impl State {
    #[cfg(test)]
    fn helper(&self) -> char { '}' }
    pub fn get(&self) -> u64 { self.0 }
}
#[cfg(test)]
mod tests {
    #[test]
    fn case() {
        assert_eq!("}", "}");
    }
}
"#;

/// Test fields end at their own trailing comma, outside parentheses and
/// brackets; a test-only `fn` runs to its closing brace however its
/// signature and `where` clause wrap. Counted: the struct's 4 lines
/// without its test field, `new`'s 6 without its one-line test field,
/// `build`'s 6 without its multi-line one, and the line after the
/// helper — 17.
const FIELDS_RS: &str = r#"pub struct Core {
    pub id: u32,
    #[cfg(test)]
    pub keep: bool,
    pub parts: Vec<u32>,
}
pub fn new() -> Core {
    Core {
        id: 0,
        #[cfg(test)]
        keep: false,
        parts: Vec::new(),
    }
}
pub fn build() -> Core {
    Core {
        #[cfg(test)]
        keep: matches!(
            Some(1),
            Some(_),
        ),
        id: 1,
        parts: vec![],
    }
}
#[cfg(test)]
fn helper<T>(
    a: T,
    b: u32,
) -> u32
where
    T: Clone,
{
    b
}
pub fn after_helper() {}
"#;

/// Runs `scripts/loc.sh` over a scratch tree holding `files` and returns
/// its report.
fn loc_report(name: &str, files: &[(&str, &str)]) -> String {
    let root = std::env::temp_dir().join(format!("pls-loc-{name}-{}", std::process::id()));
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/loc.sh");
    let out = Command::new("bash").arg(script).arg(&root).output().unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// The count `report` prints on the line that ends with `label`.
fn count(report: &str, label: &str) -> u64 {
    let line = report.lines().find(|l| l.ends_with(label)).unwrap_or_else(|| panic!("{report}"));
    line.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn loc_skips_each_test_item_and_counts_the_rest() {
    let report = loc_report(
        "items",
        &[("crates/demo/src/lib.rs", LIB_RS), ("src/main.rs", "fn main() {}\n")],
    );
    assert_eq!(count(&report, "crates/demo"), 10, "{report}");
    assert_eq!(count(&report, "  src"), 1, "{report}");
    assert_eq!(count(&report, "non-test Rust under crates/ + src/"), 11, "{report}");
}

#[test]
fn loc_ends_a_test_field_at_its_comma_and_a_test_fn_at_its_brace() {
    let report = loc_report("fields", &[("crates/demo/src/lib.rs", FIELDS_RS)]);
    assert_eq!(count(&report, "crates/demo"), 17, "{report}");
}

#[test]
fn loc_skips_the_files_of_test_only_modules() {
    let lib = "pub mod real;\npub mod outer;\n#[cfg(test)]\nmod testkit;\n\
               #[cfg(test)]\npub(crate) mod checker;\n";
    let report = loc_report(
        "mods",
        &[
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/real.rs", "pub fn real() {}\n"),
            ("crates/demo/src/outer.rs", "#[cfg(test)]\nmod inner;\npub fn outer() {}\n"),
            ("crates/demo/src/outer/inner.rs", "fn inner() {}\n"),
            ("crates/demo/src/testkit.rs", "pub struct Ring;\n"),
            ("crates/demo/src/checker/mod.rs", "mod space;\npub fn explore() {}\n"),
            ("crates/demo/src/checker/space.rs", "pub struct Space;\n"),
        ],
    );
    // lib.rs: the two `pub mod` lines; real.rs: 1; outer.rs: 1.
    assert_eq!(count(&report, "crates/demo"), 4, "{report}");
}
