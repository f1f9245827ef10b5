//! Kernel hot-path benchmark tracker: runs the scenario suite of
//! `kernel_scenarios.rs` and writes `BENCH_kernel.json` at the repo
//! root (median ns per processed event per scenario), so every PR's perf
//! delta is visible against the recorded baseline.
//!
//! The JSON schema is documented in `docs/TELEMETRY.md`. No
//! serialization crate is used: the writer emits a fixed shape and the
//! reader only extracts the `"baseline"` object (brace matching), so the
//! file round-trips through repeated runs without a JSON parser.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::kernel_scenarios::{kernel_scenarios, measure, ScenarioOutcome};
use crate::BenchSummary;

fn repo_root() -> PathBuf {
    // crates/bench → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn summaries_json(rows: &[(&'static str, BenchSummary, ScenarioOutcome)], indent: &str) -> String {
    let mut s = String::from("{\n");
    for (i, (name, m, o)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "{indent}  \"{name}\": {{ \"median_ns_per_event\": {:.1}, \"min_ns_per_event\": {:.1}, \"events\": {}, \"modeled_s\": {:.4}, \"app_messages\": {}, \"messages_saved\": {}, \"samples\": {} }}{comma}",
            m.median_ns_per_event, m.min_ns_per_event, m.events, o.modeled_s, o.stats.app_messages,
            o.stats.messages_saved, m.samples
        );
    }
    let _ = write!(s, "{indent}}}");
    s
}

/// Extract the value of `"<name>": {...}` from a previous file by brace
/// matching (the writer controls the format; nested objects only).
fn extract_object(text: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)?;
    let rest = &text[at + key.len()..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Run the suite and update `BENCH_kernel.json`, also recording the
/// medians as its baseline when `set_baseline`. A `smoke` run (reduced
/// sizes: the CI perf-smoke step) or an `only` run (the scenarios whose
/// name starts with the prefix: A/B timing during development — e.g.
/// `gates_platform4` runs the three rows over that set-up) prints its
/// JSON to stdout and leaves the file alone. A prefix that names no scenario
/// lists the valid names and exits with code 2.
pub fn bench_kernel(smoke: bool, set_baseline: bool, only: Option<&str>) {
    let mut suite = kernel_scenarios(smoke);
    let selected = |name: &str| only.is_none_or(|o| name.starts_with(o));
    if !suite.iter().any(|(name, _)| selected(name)) {
        eprintln!("no scenario name starts with `{}`; valid names:", only.unwrap_or_default());
        for (name, _) in &suite {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    let samples = if smoke { 3 } else { 7 };
    let mut rows: Vec<(&'static str, BenchSummary, ScenarioOutcome)> = Vec::new();
    for (name, run) in suite.iter_mut().filter(|(name, _)| selected(name)) {
        eprintln!("bench_kernel: running {name} ({samples} samples)…");
        let (m, last) = measure(samples, run);
        eprintln!(
            "  {name}: median {:.1} ns/event (min {:.1}, {} events, modeled {:.4}s, {} msgs)",
            m.median_ns_per_event,
            m.min_ns_per_event,
            m.events,
            last.modeled_s,
            last.stats.app_messages
        );
        rows.push((*name, m, last));
    }

    let scenarios = summaries_json(&rows, "  ");
    // Development A/B (`--only`) and CI perf-smoke runs print and never
    // touch the tracked file: partial data and smoke sizes are not
    // comparable to the full suite.
    if let Some(mode) = only.map(|_| "only").or(smoke.then_some("smoke")) {
        println!("{{\n  \"schema\": \"pls-bench-kernel/2\",\n  \"mode\": \"{mode}\",\n  \"scenarios\": {scenarios}\n}}");
        return;
    }

    let path = repo_root().join("BENCH_kernel.json");
    let previous = std::fs::read_to_string(&path).ok();
    let baseline = if set_baseline {
        scenarios.clone()
    } else {
        previous
            .and_then(|text| extract_object(&text, "baseline"))
            .unwrap_or_else(|| scenarios.clone())
    };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"pls-bench-kernel/2\",");
    let _ = writeln!(out, "  \"unit\": \"ns_per_event\",");
    let _ = writeln!(out, "  \"scenarios\": {scenarios},");
    let _ = writeln!(out, "  \"baseline\": {baseline}");
    let _ = writeln!(out, "}}");
    std::fs::write(&path, &out).expect("write BENCH_kernel.json");
    println!("{out}");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite's names are the keys of the tracked file, in order, in
    /// both of its objects: a renamed, added or dropped scenario must
    /// re-record `BENCH_kernel.json` in the same change.
    #[test]
    fn scenario_names_are_the_keys_of_the_tracked_file() {
        let names: Vec<&str> = kernel_scenarios(true).iter().map(|(name, _)| *name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate scenario name in {names:?}");

        let text = std::fs::read_to_string(repo_root().join("BENCH_kernel.json")).unwrap();
        for object in ["scenarios", "baseline"] {
            let body = extract_object(&text, object).unwrap_or_else(|| panic!("no `{object}`"));
            let keys: Vec<&str> = body
                .lines()
                .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\": {").map(|(k, _)| k))
                .collect();
            assert_eq!(keys, names, "`{object}` keys of BENCH_kernel.json");
        }
    }
}
