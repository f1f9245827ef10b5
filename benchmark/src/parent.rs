//! The parent side: spawn one child per workload, echo and read its
//! report, kill it when it overruns its wall-clock limit, and turn what
//! came back into the result line, the suite table and the noise check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::contract::{self, json_string, Metric};
use crate::stats::{within_bound, worsening};
use crate::workloads::{Workload, WORKLOADS};
use crate::RunOptions;

/// Wall-clock limit on one child, inside the driver's 180 s. The threaded
/// executive's `std::sync::Barrier` does not poison, so a panicking
/// cluster thread leaves the others waiting for ever; only a kill from
/// outside ends that run.
pub const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// What one workload's child reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Iterations started (warm-up, timed and traced).
    pub attempted: u64,
    /// Iterations that failed: `SimError`, panic, wrong fingerprint,
    /// determinism violation, or still running when the child was killed.
    pub failed: u64,
    /// The child finished its protocol and no iteration failed.
    pub correct: bool,
    /// Metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Why the run is not correct, when it is not.
    pub problem: Option<String>,
}

/// Incremental reader of the child's protocol lines.
#[derive(Debug, Default)]
struct Protocol {
    begun: u64,
    finished: u64,
    failed: u64,
    ended: bool,
    metrics: BTreeMap<String, f64>,
    problem: Option<String>,
}

impl Protocol {
    fn line(&mut self, line: &str) {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("@begin") => self.begun += 1,
            Some("@attempt") => {
                self.finished += 1;
                if words.next() != Some("ok") {
                    self.failed += 1;
                    self.problem.get_or_insert_with(|| line.to_string());
                }
            }
            Some("@metric") => {
                if let (Some(name), Some(Ok(value))) = (words.next(), words.next().map(str::parse))
                {
                    self.metrics.insert(name.to_string(), value);
                }
            }
            Some("@end") => self.ended = true,
            _ => {}
        }
    }

    /// Close the books. An iteration that began and never reported is
    /// failed; a run that ended abnormally without a failed iteration
    /// still counts one failed attempt, so a dead child can never read as
    /// "0 of 0 failed". A finished run must carry every declared metric.
    fn report(self, died: Option<String>, trace: bool) -> Report {
        let mut attempted = self.begun;
        let mut failed = self.failed + self.begun.saturating_sub(self.finished);
        let mut problem = self.problem;
        let abnormal =
            died.or_else(|| (!self.ended).then(|| "child ended without @end".to_string()));
        if let Some(why) = abnormal {
            problem = Some(why);
            if failed == 0 {
                attempted += 1;
                failed += 1;
            }
        }
        if problem.is_none() {
            let per_layer: &[Metric] = if trace { contract::PER_LAYER } else { &[] };
            let missing: Vec<&str> = contract::END_TO_END
                .iter()
                .chain(per_layer)
                .filter(|m| !self.metrics.contains_key(m.name))
                .map(|m| m.name)
                .collect();
            if !missing.is_empty() {
                problem = Some(format!("metrics not reported: {}", missing.join(", ")));
            }
        }
        let correct = failed == 0 && problem.is_none();
        Report { attempted, failed, correct, metrics: self.metrics, problem }
    }
}

/// Run one workload in a child process (this same binary with `--child`).
pub fn run_workload(exe: &Path, w: &Workload, opts: &RunOptions) -> Report {
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return Protocol::default().report(Some(format!("cannot spawn child: {e}")), opts.trace)
        }
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let deadline = Instant::now() + opts.limit;
    let mut protocol = Protocol::default();
    let mut died = None;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                println!("{line}");
                protocol.line(&line);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Hung (or just far too slow): end it from outside.
                let _ = child.kill();
                died = Some(format!("killed after the {:?} limit", opts.limit));
                break;
            }
        }
    }
    let status = child.wait();
    drop(rx);
    reader.join().expect("the reader thread does not panic");
    if died.is_none() {
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => died = Some(format!("child exited with {s}")),
            Err(e) => died = Some(format!("cannot wait for child: {e}")),
        }
    }
    protocol.report(died, opts.trace)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end metrics, or with `trace` the per-layer ones.
pub fn result_line(report: &Report, trace: bool) -> String {
    let declared = if trace { contract::PER_LAYER } else { contract::END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .filter_map(|m| report.metrics.get(m.name).map(|v| (m, v)))
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Where a run happened: recorded beside every set of numbers.
#[derive(Debug, Clone)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the repository, or `unknown` (the driver's
    /// checkouts are not git repositories).
    pub git: String,
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Environment {
    /// Probe the host.
    pub fn probe() -> Environment {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line_of(Command::new("rustc").arg("--version")),
            git: first_line_of(Command::new("git").args([
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "rev-parse",
                "HEAD",
            ])),
        }
    }
}

/// One pass over every workload, traced, so both metric lists come back.
pub fn run_suite(exe: &Path, opts: &RunOptions) -> Vec<(&'static Workload, Report)> {
    let opts = RunOptions { trace: true, ..opts.clone() };
    WORKLOADS
        .iter()
        .map(|w| {
            println!("\n== {} ==", w.name);
            (w, run_workload(exe, w, &opts))
        })
        .collect()
}

/// The end-to-end table of one suite pass.
pub fn suite_table(results: &[(&'static Workload, Report)]) -> String {
    let mut s = format!("{:<22}", "workload");
    for m in contract::END_TO_END {
        let _ = write!(s, " {:>20}", format!("{} [{}]", m.name, m.unit));
    }
    let _ = writeln!(s, " {:>10}", "failed");
    for (w, r) in results {
        let _ = write!(s, "{:<22}", w.name);
        for m in contract::END_TO_END {
            match r.metrics.get(m.name) {
                Some(v) => {
                    let _ = write!(s, " {v:>20.6}");
                }
                None => {
                    let _ = write!(s, " {:>20}", "-");
                }
            }
        }
        let _ = writeln!(s, " {:>10}", format!("{}/{}", r.failed, r.attempted));
        if let Some(p) = &r.problem {
            let _ = writeln!(s, "    ! {p}");
        }
    }
    s
}

/// Everything a suite pass measured, with the manifest that reproduces it.
pub fn suite_json(
    env: &Environment,
    opts: &RunOptions,
    sets: &[Vec<(&'static Workload, Report)>],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"seconds\": {},", opts.seconds);
    let _ = writeln!(s, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(s, "  \"nproc\": {},", env.nproc);
    let _ = writeln!(s, "  \"rustc\": {},", json_string(&env.rustc));
    let _ = writeln!(s, "  \"git\": {},", json_string(&env.git));
    s.push_str("  \"sets\": [\n");
    for (i, set) in sets.iter().enumerate() {
        s.push_str("    {\n");
        for (j, (w, r)) in set.iter().enumerate() {
            let metrics: Vec<String> =
                r.metrics.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
            let _ = writeln!(
                s,
                "      {}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}{}",
                json_string(w.name),
                r.correct,
                r.attempted,
                r.failed,
                metrics.join(", "),
                if j + 1 == set.len() { "" } else { "," }
            );
        }
        let _ = writeln!(s, "    }}{}", if i + 1 == sets.len() { "" } else { "," });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compare set B with set A of the same code: every end-to-end metric of
/// B must be within its own bound of A on every workload, and on the
/// deterministic workloads every count and the modeled time must be
/// exactly equal. Returns the A/B/ratio table and the violations.
pub fn noise_check(
    a: &[(&'static Workload, Report)],
    b: &[(&'static Workload, Report)],
) -> (String, Vec<String>) {
    let mut table = format!(
        "{:<22} {:<18} {:>16} {:>16} {:>8} {:>7}\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut violations = Vec::new();
    for ((w, ra), (_, rb)) in a.iter().zip(b) {
        for m in contract::END_TO_END {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                violations.push(format!("{}: {} missing from a set", w.name, m.name));
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics declare a bound");
            let ok = within_bound(m.better, bound, va, vb);
            let _ = writeln!(
                table,
                "{:<22} {:<18} {va:>16.6} {vb:>16.6} {:>8.4} {:>6.1}%{}",
                w.name,
                m.name,
                vb / va,
                bound * 100.0,
                if ok { "" } else { "  <-- outside" }
            );
            if !ok {
                violations.push(format!(
                    "{}: {} worsened {:.1}% from A to B (bound {:.1}%)",
                    w.name,
                    m.name,
                    worsening(m.better, va, vb) * 100.0,
                    bound * 100.0
                ));
            }
        }
        if w.deterministic() {
            let exact = contract::PER_LAYER
                .iter()
                .filter(|m| m.unit == "count")
                .chain(contract::find("modeled_s"));
            for m in exact {
                let (va, vb) = (ra.metrics.get(m.name), rb.metrics.get(m.name));
                if va != vb {
                    violations.push(format!(
                        "{}: {} must repeat exactly but read {va:?} then {vb:?}",
                        w.name, m.name
                    ));
                }
            }
        }
    }
    (table, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(lines: &[&str]) -> Protocol {
        let mut p = Protocol::default();
        lines.iter().for_each(|l| p.line(l));
        p
    }

    #[test]
    fn a_clean_run_is_correct_and_keeps_its_metrics() {
        let r = feed(&[
            "@begin warmup 1",
            "@attempt ok warmup wall_s=0.1 run_s=0.05",
            "some chatter",
            "@begin timed 2",
            "@attempt ok timed wall_s=0.1 run_s=0.05",
            "@metric setup_s 0.3 s n=1 min=0.3 median=0.3 max=0.3",
            "@metric e2e_wall_s 0.1 s",
            "@metric sim_events_per_s 9000 1/s",
            "@metric modeled_s 2.5 s",
            "@metric peak_rss_mb 12.5 MB VmHWM",
            "@end",
        ]);
        let r = r.report(None, false);
        assert_eq!((r.attempted, r.failed, r.correct, &r.problem), (2, 0, true, &None));
        assert_eq!(r.metrics["e2e_wall_s"], 0.1);
    }

    #[test]
    fn a_killed_child_books_the_iteration_in_flight_as_failed() {
        let p = feed(&["@begin warmup 1", "@attempt ok warmup wall_s=1 run_s=1", "@begin timed 2"]);
        let r = p.report(Some("killed after the 150s limit".into()), false);
        assert_eq!((r.attempted, r.failed, r.correct), (2, 1, false));
        assert_eq!(r.problem.as_deref(), Some("killed after the 150s limit"));
    }

    #[test]
    fn a_child_that_dies_before_any_iteration_is_one_failed_attempt() {
        let r = Protocol::default().report(Some("child exited with 2".into()), false);
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, false));
        assert!(result_line(&r, false).starts_with("{\"correct\": false, \"attempted\": 1,"));
    }

    #[test]
    fn failed_iterations_are_counted_and_make_the_run_incorrect() {
        let r = feed(&[
            "@begin timed 1",
            "@attempt failed timed committed fingerprint differs from the sequential oracle",
            "@begin timed 2",
            "@attempt ok timed wall_s=1 run_s=1",
            "@end",
        ])
        .report(None, false);
        assert_eq!((r.attempted, r.failed, r.correct), (2, 1, false));
        assert!(r.problem.unwrap().contains("fingerprint differs"));
    }

    #[test]
    fn a_finished_run_that_lacks_a_declared_metric_is_incorrect() {
        let lines = ["@begin timed 1", "@attempt ok timed wall_s=1 run_s=1", "@end"];
        let r = feed(&lines).report(None, false);
        assert_eq!((r.attempted, r.failed, r.correct), (1, 0, false));
        assert!(r.problem.unwrap().starts_with("metrics not reported: setup_s, e2e_wall_s"));
    }

    #[test]
    fn result_line_carries_only_the_requested_metric_list() {
        let mut r = Report { attempted: 3, correct: true, ..Default::default() };
        r.metrics.insert("e2e_wall_s".into(), 0.5);
        r.metrics.insert("timewarp.run_s".into(), 0.25);
        let e2e = result_line(&r, false);
        assert!(e2e.contains("\"e2e_wall_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!e2e.contains("timewarp.run_s"));
        let layers = result_line(&r, true);
        assert!(layers.contains("\"timewarp.run_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!layers.contains("e2e_wall_s"));
    }

    fn set(wall: f64, rollbacks: f64) -> Vec<(&'static Workload, Report)> {
        let mut r = Report { attempted: 1, correct: true, ..Default::default() };
        for m in contract::END_TO_END {
            r.metrics.insert(m.name.to_string(), 1.0);
        }
        r.metrics.insert("e2e_wall_s".into(), wall);
        for m in contract::PER_LAYER.iter().filter(|m| m.unit == "count") {
            r.metrics.insert(m.name.to_string(), 5.0);
        }
        r.metrics.insert("timewarp.rollbacks".into(), rollbacks);
        vec![(&WORKLOADS[0], r)]
    }

    #[test]
    fn noise_check_flags_a_metric_outside_its_bound_and_a_count_that_moved() {
        assert!(WORKLOADS[0].deterministic());
        let bound = contract::find("e2e_wall_s").and_then(|m| m.bound).expect("bounded");
        let (_, quiet) = noise_check(&set(1.0, 5.0), &set(1.0 + bound - 0.01, 5.0));
        assert!(quiet.is_empty(), "{quiet:?}");
        let (table, slow) = noise_check(&set(1.0, 5.0), &set(1.0 + bound + 0.01, 5.0));
        assert!(table.contains("<-- outside"));
        assert!(slow.len() == 1 && slow[0].contains("e2e_wall_s"), "{slow:?}");
        let (_, moved) = noise_check(&set(1.0, 5.0), &set(1.0, 6.0));
        assert!(moved.len() == 1 && moved[0].contains("timewarp.rollbacks"), "{moved:?}");
    }
}
