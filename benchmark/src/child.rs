//! One workload, run inside its own process so that peak RSS is the
//! workload's own and a hung executive can be killed from outside:
//! set-up → timed untraced iterations → (one traced iteration) → metrics.
//!
//! The process talks to its parent over stdout. Lines starting with `@`
//! are the protocol (`@begin`, `@attempt`, `@metric`, `@abort`, `@end`);
//! they are also the human-readable report, so the parent just echoes them.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::contract;
use crate::pipeline::{iteration, set_up, Sample, Setup};
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::RunOptions;

/// Set-ups per run. Set-up time is reported as their median, so that one
/// slow page-fault storm does not read as a set-up regression.
const SETUPS: usize = 3;

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The first count (or the modeled time) on which `sample` differs from
/// `reference`, for the determinism guard.
fn first_difference(reference: &Sample, sample: &Sample) -> Option<String> {
    if reference.modeled_s != sample.modeled_s {
        return Some(format!("modeled_s: {} vs {}", reference.modeled_s, sample.modeled_s));
    }
    reference
        .counts
        .iter()
        .zip(&sample.counts)
        .find(|(a, b)| a != b)
        .map(|((name, a), (_, b))| format!("{name}: {a} vs {b}"))
}

/// Runs iterations and keeps the books: every iteration is announced
/// before it starts (so the parent can book one that never returns) and
/// its outcome after it ends.
struct Runner<'a> {
    workload: &'a Workload,
    /// First good sample of each stimulus stream; on deterministic
    /// workloads every later sample of the stream must equal it count
    /// for count.
    reference: Vec<Option<Sample>>,
    attempts: usize,
    violated: Option<String>,
}

impl Runner<'_> {
    /// One iteration under `catch_unwind`; `None` when it failed.
    fn attempt(
        &mut self,
        kind: &str,
        setup: &Setup,
        stream: usize,
        tracer: &mut Tracer,
    ) -> Option<Sample> {
        let w = self.workload;
        self.attempts += 1;
        println!("@begin {kind} {} stimulus={stream}", self.attempts);
        let outcome = catch_unwind(AssertUnwindSafe(|| iteration(w, setup, stream, tracer)))
            .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(payload))));
        let outcome = outcome.and_then(|sample| {
            let reference = self.reference[stream].get_or_insert_with(|| sample.clone());
            match first_difference(reference, &sample).filter(|_| w.deterministic()) {
                Some(diff) => {
                    self.violated = Some(diff.clone());
                    Err(format!("determinism violated: {diff}"))
                }
                None => Ok(sample),
            }
        });
        match outcome {
            Ok(sample) => {
                println!(
                    "@attempt ok {kind} wall_s={:.6} run_s={:.6}",
                    sample.wall_s, sample.run_s
                );
                Some(sample)
            }
            Err(reason) => {
                println!("@attempt failed {kind} {}", reason.replace('\n', " "));
                None
            }
        }
    }
}

/// What one stimulus stream contributes to the end-to-end metrics. Host
/// times are the stream's *fastest* timed iteration, not its median: host
/// contention on the 2-vCPU VM comes in bursts of seconds that slow
/// anywhere from none to most of a run, so medians of the same code and
/// seed differed by up to 17 % between runs on the threaded rows while
/// minima stayed within 2 %.
struct StreamBest {
    wall_s: f64,
    run_s: f64,
    modeled_s: f64,
}

impl StreamBest {
    /// `None` when the stream has no good timed sample.
    fn of(samples: &[Sample], stream: usize) -> Option<StreamBest> {
        let of = |f: fn(&Sample) -> f64| -> Vec<f64> {
            samples.iter().filter(|s| s.stream == stream).map(f).collect()
        };
        Some(StreamBest {
            wall_s: summarize(&of(|s| s.wall_s))?.min,
            run_s: summarize(&of(|s| s.run_s))?.min,
            modeled_s: median(&of(|s| s.modeled_s)),
        })
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn emit(name: &str, value: f64, note: &str) {
    let unit = contract::find(name).map_or("?", |m| m.unit);
    println!("@metric {name} {value} {unit} {note}");
}

fn spread_note(s: &Summary) -> String {
    format!("n={} min={} median={} max={}", s.n, s.min, s.median, s.max)
}

/// Run the workload and print the report. `Err` means the run was
/// abandoned (set-up failed or determinism was violated); failed
/// iterations alone do not abandon a run, they are counted.
pub fn run(workload: &Workload, args: &RunOptions) -> Result<(), String> {
    let w = &if args.smoke { workload.shrunk() } else { *workload };
    let mut runner =
        Runner { workload: w, reference: vec![None; w.stimuli], attempts: 0, violated: None };

    // A run is `SETUPS` phases, each a set-up followed by its share of
    // the timed iterations, so that the timed samples span the whole run:
    // a burst of host contention then has to outlast the run, not just
    // one 10 s window, to slow every sample.
    let phases = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut samples: Vec<Sample> = Vec::new();
    let mut timed = 0;
    for phase in 0..phases {
        // Set-up: the circuit, its text, the oracle under each stimulus
        // stream, and one untimed warm-up iteration (first threaded
        // iterations run 2–3× slow). The previous set-up is released
        // first: peak RSS should hold one.
        drop(setup.take());
        let started = Instant::now();
        let fresh = set_up(w, args.seed)?;
        runner.attempt("warmup", &fresh, 0, &mut Tracer::off());
        setup_s.push(started.elapsed().as_secs_f64());

        // Timed, untraced iterations, cycling through the stimulus
        // streams: two clock reads each. By the end of the last phase
        // every stream has been simulated at least once.
        let started = Instant::now();
        loop {
            let stream = timed % w.stimuli;
            if let Some(sample) = runner.attempt("timed", &fresh, stream, &mut Tracer::off()) {
                samples.push(sample);
            }
            timed += 1;
            let share_used =
                args.smoke || started.elapsed().as_secs_f64() >= args.seconds / phases as f64;
            let may_stop = phase + 1 < phases || timed >= w.stimuli;
            if (share_used && may_stop) || runner.violated.is_some() {
                break;
            }
        }
        setup = Some(fresh);
        if runner.violated.is_some() {
            break;
        }
    }
    let setup = setup.expect("at least one set-up ran");

    // One traced iteration, on stream 0, for the per-layer numbers.
    let mut traced: Option<(Tracer, Sample)> = None;
    if args.trace && runner.violated.is_none() {
        let mut tracer = Tracer::on();
        if let Some(sample) = runner.attempt("traced", &setup, 0, &mut tracer) {
            std::fs::create_dir_all(&args.out_dir)
                .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
            let path = args.out_dir.join(format!("trace.{}.json", w.name));
            std::fs::write(&path, tracer.chrome_json(w.name, runner.attempts))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("trace written to {}", path.display());
            traced = Some((tracer, sample));
        }
    }
    if let Some(diff) = runner.violated {
        return Err(format!("determinism violated on {}: {diff}", w.name));
    }

    let per_stream: Option<Vec<StreamBest>> =
        (0..w.stimuli).map(|stream| StreamBest::of(&samples, stream)).collect();
    if let (Some(setups), Some(per_stream)) = (summarize(&setup_s), per_stream) {
        let streams = per_stream.len() as f64;
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
        let all = summarize(&walls).expect("every stream has a sample");
        emit("setup_s", setups.median, &spread_note(&setups));
        emit(
            "e2e_wall_s",
            per_stream.iter().map(|s| s.wall_s).sum::<f64>() / streams,
            &format!("all iterations: {}", spread_note(&all)),
        );
        let events: u64 = setup.stimuli.iter().map(|s| s.oracle_events).sum();
        let run_s: f64 = per_stream.iter().map(|s| s.run_s).sum();
        emit(
            "sim_events_per_s",
            events as f64 / run_s,
            &format!("oracle_events={events} fastest_run_s={run_s} over {streams} stimuli"),
        );
        emit("modeled_s", per_stream.iter().map(|s| s.modeled_s).sum::<f64>() / streams, "");
        emit("peak_rss_mb", peak_rss_mb()?, "VmHWM");
    }
    if let Some((tracer, sample)) = &traced {
        // Per-layer numbers describe stream 0, the one that was traced.
        let mut same_stream: Vec<&Sample> = samples.iter().filter(|s| s.stream == 0).collect();
        let walls: Vec<f64> = same_stream.iter().map(|s| s.wall_s).collect();
        same_stream.push(sample);
        emit_per_layer(tracer, sample, &same_stream, median(&walls));
    }
    println!("@end");
    Ok(())
}

/// Per-layer metrics: host seconds from the traced iteration's spans,
/// counts as the median over every good iteration of the traced stream
/// (on deterministic workloads they are all equal — the guard has checked).
fn emit_per_layer(tracer: &Tracer, traced: &Sample, all: &[&Sample], untraced_wall_s: f64) {
    let count = |name: &str| -> f64 {
        let of = |s: &Sample| s.counts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let values: Vec<f64> =
            all.iter().map(|s| of(s).unwrap_or_else(|| panic!("no count named {name}"))).collect();
        median(&values)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let q = traced.quality.as_ref().expect("the traced iteration computes partition quality");

    let coarsen_s = tracer.seconds("partition.coarsen");
    let initial_s = tracer.seconds("partition.initial");
    let total_s = tracer.seconds("partition.total");
    let plan_s = tracer.seconds("partition.replicate_plan");
    let run_s = tracer.seconds("timewarp.run");
    let oracle_run_s = tracer.seconds("timewarp.oracle_run");
    let traced_only = tracer.extra_seconds();

    for m in contract::PER_LAYER {
        let value = match m.name {
            "netlist.parse_s" => tracer.seconds("netlist.parse"),
            "partition.graph_build_s" => tracer.seconds("partition.graph_build"),
            "partition.coarsen_s" => coarsen_s,
            "partition.initial_s" => initial_s,
            "partition.refine_s" => (total_s - coarsen_s - initial_s).max(0.0),
            "partition.total_s" => total_s,
            "partition.edge_cut" => q.edge_cut as f64,
            "partition.connectivity_cut" => q.connectivity_cut as f64,
            "partition.imbalance" => q.imbalance,
            "partition.concurrency" => q.concurrency.unwrap_or(0.0),
            "partition.replicate_plan_s" => plan_s,
            "gatesim.build_s" => (tracer.seconds("gatesim.build") - plan_s).max(0.0),
            "gatesim.fingerprint_s" => tracer.seconds("gatesim.fingerprint"),
            "gatesim.run_ns_per_op" => {
                // One gate evaluation is one compiled op, or — with one LP
                // per gate — one processed event.
                let ops = count("gatesim.ops_executed");
                let evaluations = if ops > 0.0 { ops } else { count("timewarp.events_processed") };
                ratio(run_s * 1e9, evaluations)
            }
            "timewarp.run_s" => run_s,
            "timewarp.run_ns_per_event" => ratio(run_s * 1e9, count("timewarp.events_processed")),
            "timewarp.efficiency" => {
                ratio(count("timewarp.events_committed"), count("timewarp.events_processed"))
            }
            "timewarp.oracle_run_s" => oracle_run_s,
            "timewarp.speedup_vs_sequential" => ratio(oracle_run_s, run_s),
            "trace.overhead_share" => {
                ratio(traced.wall_s - traced_only - untraced_wall_s, untraced_wall_s)
            }
            name => count(name),
        };
        emit(m.name, value, "");
    }
    let root = tracer.spans().iter().position(|s| s.parent.is_none()).unwrap_or(0);
    println!(
        "traced iteration {:.6} s: {:.6} s in extra calls, {:.6} s unattributed",
        traced.wall_s,
        traced_only,
        tracer.self_ns(root) as f64 / 1e9
    );
}
