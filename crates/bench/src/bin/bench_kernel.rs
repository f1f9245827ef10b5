//! Kernel hot-path benchmark tracker: runs the scenario suite of
//! [`pls_bench::kernel_scenarios`] and writes `BENCH_kernel.json` at the
//! repo root (median ns per processed event per scenario), so every PR's
//! perf delta is visible against the recorded baseline.
//!
//! Usage:
//!   bench_kernel                  # full suite, update BENCH_kernel.json
//!   bench_kernel --set-baseline   # also (re)record current medians as
//!                                 # the baseline to compare against
//!   bench_kernel --smoke          # reduced sizes, print JSON to stdout
//!                                 # only (the CI perf-smoke step)
//!   bench_kernel --only PREFIX    # run the scenarios whose name starts
//!                                 # with PREFIX, print to stdout only
//!                                 # (A/B timing during development —
//!                                 # e.g. --only dynlb_hotspot runs all
//!                                 # four hotspot scenarios)
//!
//! The JSON schema is documented in `docs/TELEMETRY.md`. No
//! serialization crate is used: the writer emits a fixed shape and the
//! reader only extracts the `"baseline"` object (brace matching), so the
//! file round-trips through repeated runs without a JSON parser.

use std::fmt::Write as _;
use std::path::PathBuf;

use pls_bench::kernel_scenarios::{kernel_scenarios, ScenarioOutcome};
use pls_bench::{bench_events, BenchSummary};

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

/// Extract the value of `"baseline": {...}` from a previous file by brace
/// matching (the writer controls the format; nested objects only).
fn extract_baseline(text: &str) -> Option<String> {
    let key = "\"baseline\":";
    let at = text.find(key)?;
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut set_baseline = false;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--set-baseline" => set_baseline = true,
            "--only" => match it.next() {
                Some(name) => only = Some(name.clone()),
                None => {
                    eprintln!("--only needs a scenario name prefix");
                    std::process::exit(2);
                }
            },
            bad => {
                eprintln!("unknown flag {bad}; valid: --smoke --set-baseline --only PREFIX");
                std::process::exit(2);
            }
        }
    }

    let samples = if smoke { 3 } else { 7 };
    let suite = kernel_scenarios(smoke);
    let valid_names: Vec<&'static str> = suite.iter().map(|sc| sc.name).collect();
    let mut rows: Vec<(&'static str, BenchSummary, ScenarioOutcome)> = Vec::new();
    for mut sc in suite {
        if only.as_deref().is_some_and(|o| !sc.name.starts_with(o)) {
            continue;
        }
        eprintln!("bench_kernel: running {} ({samples} samples)…", sc.name);
        let run = &mut sc.run;
        let mut last = ScenarioOutcome::default();
        let m = bench_events(samples, || {
            last = run();
            last.units
        });
        eprintln!(
            "  {}: median {:.1} ns/event (min {:.1}, {} events, modeled {:.4}s, {} msgs)",
            sc.name,
            m.median_ns_per_event,
            m.min_ns_per_event,
            m.events,
            last.modeled_s,
            last.stats.app_messages
        );
        rows.push((sc.name, m, last));
    }

    let scenarios = summaries_json(&rows, "  ");
    if let Some(name) = &only {
        // Development A/B mode: partial data must never touch the tracked
        // file.
        if rows.is_empty() {
            eprintln!("no scenario name starts with `{name}`; valid names:");
            for n in valid_names {
                eprintln!("  {n}");
            }
            std::process::exit(2);
        }
        println!("{{\n  \"schema\": \"pls-bench-kernel/2\",\n  \"mode\": \"only\",\n  \"scenarios\": {scenarios}\n}}");
        return;
    }
    if smoke {
        // CI perf-smoke: print, never touch the tracked file (smoke sizes
        // are not comparable to the full suite).
        println!("{{\n  \"schema\": \"pls-bench-kernel/2\",\n  \"mode\": \"smoke\",\n  \"scenarios\": {scenarios}\n}}");
        return;
    }

    let path = repo_root().join("BENCH_kernel.json");
    let previous = std::fs::read_to_string(&path).ok();
    let baseline = if set_baseline {
        scenarios.clone()
    } else {
        previous.as_deref().and_then(extract_baseline).unwrap_or_else(|| scenarios.clone())
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
