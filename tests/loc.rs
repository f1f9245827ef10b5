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

#[test]
fn loc_skips_each_test_item_and_counts_the_rest() {
    let root = std::env::temp_dir().join(format!("pls-loc-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), LIB_RS).unwrap();
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(root.join("src/main.rs"), "fn main() {}\n").unwrap();

    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/loc.sh");
    let out = Command::new("bash").arg(script).arg(&root).output().unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).unwrap();
    let count = |label: &str| -> u64 {
        let line =
            report.lines().find(|l| l.ends_with(label)).unwrap_or_else(|| panic!("{report}"));
        line.split_whitespace().next().unwrap().parse().unwrap()
    };
    assert_eq!(count("crates/demo"), 10, "{report}");
    assert_eq!(count("  src"), 1, "{report}");
    assert_eq!(count("non-test Rust under crates/ + src/"), 11, "{report}");
}
