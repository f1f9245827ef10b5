//! One closed-loop iteration of the pipeline, as a user drives it:
//! `.bench` text → parse → graph → multilevel partition → (replication
//! plan) → build model → run on the workload's executive → fingerprint →
//! compare with the oracle. Only public library functions are called and
//! every layer is measured from outside, by timing those calls.

use std::hint::black_box;
use std::time::Instant;

use pls_gatesim::{run_seq_baseline, SimConfig};
use pls_netlist::bench_format;
use pls_partition::metrics::{quality, QualityReport};
use pls_partition::multilevel::coarsen::{coarsen, CoarsenConfig};
use pls_partition::multilevel::initial::initial_partition;
use pls_partition::{plan_replication, CircuitGraph, MultilevelPartitioner};
use pls_timewarp::{Backend, KernelStats, Simulator};

use crate::trace::Tracer;
use crate::workloads::Workload;

/// Partitioner seed: the library's own default (`Cell::seed`), not an input.
const PARTITION_SEED: u64 = 0;

/// One stimulus stream of a run: the configuration that selects it and
/// the oracle's answer under it.
#[derive(Debug)]
pub struct Stimulus {
    /// The run configuration.
    pub cfg: SimConfig,
    /// Committed per-gate fingerprint of the sequential gate-per-LP run.
    pub oracle_fingerprint: Vec<u64>,
    /// Committed gate-level events of that run: the fixed amount of
    /// simulated work behind `sim_events_per_s`.
    pub oracle_events: u64,
    /// The cost model's one-workstation time for those events (the
    /// paper's sequential column).
    pub oracle_modeled_s: f64,
}

/// What set-up leaves behind for the iterations: the input text and,
/// per stimulus stream, the oracle's answer.
#[derive(Debug)]
pub struct Setup {
    /// Circuit name handed to the parser.
    pub name: String,
    /// The generated circuit as `.bench` text — all the library sees.
    pub text: String,
    /// The run's stimulus streams, `Workload::stimuli` of them.
    pub stimuli: Vec<Stimulus>,
}

/// Generate the circuit, serialize it, and run the oracle under each of
/// the seed's stimulus streams on the parsed text (so gate ids are the
/// parser's, as in every iteration).
pub fn set_up(w: &Workload, seed: u64) -> Result<Setup, String> {
    let generated = w.synth().build();
    let name = generated.name().to_string();
    let text = bench_format::write(&generated);
    drop(generated);
    let netlist = bench_format::parse(&name, &text)
        .map_err(|e| format!("generated text does not parse: {e}"))?;
    let stimuli = (0..w.stimuli)
        .map(|stream| {
            let oracle = run_seq_baseline(&netlist, &w.oracle_config(seed, stream));
            if oracle.events == 0 {
                return Err(format!("oracle committed no events under stimulus {stream}"));
            }
            Ok(Stimulus {
                cfg: w.sim_config(seed, stream),
                oracle_fingerprint: oracle.fingerprint,
                oracle_events: oracle.events,
                oracle_modeled_s: oracle.exec_time_s,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Setup { name, text, stimuli })
}

/// What one iteration measured.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which of the run's stimulus streams was simulated.
    pub stream: usize,
    /// Host seconds, text in → fingerprint verified.
    pub wall_s: f64,
    /// Host seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Modeled seconds: the platform makespan where the platform
    /// executive runs, otherwise the oracle's one-workstation time.
    pub modeled_s: f64,
    /// Counts every iteration yields for free (netlist, partition report,
    /// `KernelStats`), by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Partition quality; computed by the traced iteration only.
    pub quality: Option<QualityReport>,
}

fn counts(
    gates: usize,
    text_bytes: usize,
    levels: usize,
    moves: usize,
    iters: usize,
    lps: usize,
    s: &KernelStats,
) -> Vec<(&'static str, f64)> {
    vec![
        ("netlist.gates", gates as f64),
        ("netlist.text_bytes", text_bytes as f64),
        ("partition.levels", levels as f64),
        ("partition.refine_moves", moves as f64),
        ("partition.refine_iters", iters as f64),
        ("partition.replicas", s.replicated_gates as f64),
        ("gatesim.lps", lps as f64),
        ("gatesim.ops_executed", s.ops_executed as f64),
        ("gatesim.block_activations", s.block_activations as f64),
        ("timewarp.events_processed", s.events_processed as f64),
        ("timewarp.events_committed", s.events_committed as f64),
        ("timewarp.rollbacks", s.rollbacks() as f64),
        ("timewarp.events_rolled_back", s.events_rolled_back as f64),
        ("timewarp.antis_sent", s.antis_sent as f64),
        ("timewarp.remote_messages", s.app_messages as f64),
        ("timewarp.remote_antis", s.anti_messages_remote as f64),
        ("timewarp.messages_saved", s.messages_saved as f64),
        ("timewarp.comm_batches", s.comm_batches as f64),
        ("timewarp.gvt_rounds", s.gvt_rounds as f64),
        ("timewarp.states_saved", s.states_saved as f64),
        ("timewarp.events_coasted", s.events_coasted as f64),
        ("timewarp.state_queue_high_water", s.state_queue_high_water as f64),
    ]
}

/// Run one iteration. With the tracer on, every stage call is wrapped in
/// a span and the extra calls that attribute cost inside the partitioner
/// (coarsen, initial partition, quality, replication plan) and the
/// sequential run of the same built model are made as well.
pub fn iteration(
    w: &Workload,
    setup: &Setup,
    stream: usize,
    t: &mut Tracer,
) -> Result<Sample, String> {
    let stimulus = &setup.stimuli[stream];
    let cfg = &stimulus.cfg;
    let k = w.parts;
    let started = Instant::now();
    let mut sample = t.span("iteration", |t| -> Result<Sample, String> {
        let netlist = t
            .span("netlist.parse", |_| bench_format::parse(&setup.name, &setup.text))
            .map_err(|e| format!("parse failed: {e}"))?;
        let graph = t.span("partition.graph_build", |_| CircuitGraph::from_netlist(&netlist));
        if t.enabled() {
            // `partition_with_report` does not expose its phases, so the
            // first two are timed by their own public calls on the same
            // graph; refinement is the remainder of the total.
            let levels =
                t.extra("partition.coarsen", |_| coarsen(&graph, &CoarsenConfig::for_k(k)));
            let coarsest = levels.last().map_or(&graph, |l| &l.graph);
            t.extra("partition.initial", |_| {
                black_box(initial_partition(coarsest, k, PARTITION_SEED));
            });
        }
        let report = t.span("partition.total", |_| {
            MultilevelPartitioner::default().partition_with_report(&graph, k, PARTITION_SEED)
        });
        let parts = &report.partitioning;
        let mut quality_report = None;
        if t.enabled() {
            quality_report = Some(t.extra("partition.quality", |_| quality(&graph, parts)));
            // `build_app_partitioned` plans replication internally; the
            // same plan is timed on its own and subtracted from the build.
            // Without replication the stage is empty and so is its span.
            t.extra("partition.replicate_plan", |_| {
                black_box(cfg.replication.as_ref().map(|rc| plan_replication(&graph, parts, rc)));
            });
        }
        let (app, assignment) = t.span("gatesim.build", |_| {
            let app = cfg.build_app_partitioned(&netlist, &graph, parts);
            let assignment = app.lp_assignment(&parts.assignment);
            (app, assignment)
        });
        let simulator = || Simulator::new(&app).platform_config(&cfg.platform);

        let run_started = Instant::now();
        let run = t
            .span("timewarp.run", |_| simulator().run(w.backend(&assignment)))
            .map_err(|e| format!("run failed: {e}"))?;
        let run_s = run_started.elapsed().as_secs_f64();

        let fingerprint = t.span("gatesim.fingerprint", |_| app.fingerprint(&run.states));
        if fingerprint != stimulus.oracle_fingerprint {
            return Err("committed fingerprint differs from the sequential oracle".to_string());
        }
        if t.enabled() {
            let seq = t
                .extra("timewarp.oracle_run", |_| simulator().run(Backend::Sequential))
                .map_err(|e| format!("sequential run of the built model failed: {e}"))?;
            if app.fingerprint(&seq.states) != stimulus.oracle_fingerprint {
                return Err("sequential run of the built model differs from the oracle".into());
            }
        }
        Ok(Sample {
            stream,
            wall_s: 0.0,
            run_s,
            modeled_s: run.outcome.exec_time_s().unwrap_or(stimulus.oracle_modeled_s),
            counts: counts(
                netlist.len(),
                setup.text.len(),
                report.level_sizes.len(),
                report.refine_stats.iter().map(|r| r.moves).sum(),
                report.refine_stats.iter().map(|r| r.iters).sum(),
                pls_timewarp::Application::num_lps(&app),
                &run.stats,
            ),
            quality: quality_report,
        })
    })?;
    // Read after the span closes, so releasing the iteration's data is
    // part of the wall time, as it is for a user.
    sample.wall_s = started.elapsed().as_secs_f64();
    Ok(sample)
}
