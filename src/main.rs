//! `parlogsim` — command-line front end for the parallel logic simulation
//! stack: inspect circuits, generate synthetic benchmarks, partition,
//! simulate, and dump waveforms.

use std::process::exit;

use parlogsim::gatesim::{write_vcd, WaveRecorder};
use parlogsim::prelude::*;

/// `println!` that exits quietly when stdout closes early (`… | head`):
/// a CLI should end the pipeline, not panic on EPIPE.
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($t)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// `print!` variant of [`out!`].
macro_rules! outp {
    ($($t:tt)*) => {{
        use std::io::Write;
        if write!(std::io::stdout(), $($t)*).is_err() {
            std::process::exit(0);
        }
    }};
}

const USAGE: &str = "\
parlogsim — multilevel partitioning for parallel logic simulation

USAGE:
  parlogsim stats     <circuit>                       circuit characteristics (Table 1 row)
  parlogsim generate  <s5378|s9234|s15850|clocktree|N> [-o F]
                                                      synthetic benchmark to .bench
  parlogsim partition <circuit> [-k K] [-s STRAT] [--replicate]
                                                      partition and report quality
                                                      (--replicate also plans bounded logic
                                                       replication and reports the cut it leaves)
  parlogsim simulate  <circuit> [-k K] [-s STRAT] [--end T] [--dynlb]
                                [--exec MODE] [--replicate] [--trace F [--bucket W]]
                                [--faults SPEC [--fault-seed N]]
                                                      Time Warp run vs sequential baseline
                                                      (--dynlb migrates LPs at GVT commit;
                                                       --exec gate-per-lp|compiled selects the
                                                       execution engine; --replicate duplicates
                                                       profitable boundary gates into reading
                                                       parts; --trace dumps a JSONL telemetry
                                                       series; --faults injects seeded platform
                                                       faults, e.g. \"drop:0:300,slow:1:4\" —
                                                       clauses drop:NODE:PERMILLE[@A..B],
                                                       jitter:NODE:SPIKE[:JIT][@A..B],
                                                       slow:NODE:FACTOR[@A..B],
                                                       pause:NODE@A..B, random:N; committed
                                                       results are unchanged, only modeled
                                                       time and message counts move)
  parlogsim trace     <circuit> [-k K] [-s STRAT] [--end T] [--bucket W]
                                [--format jsonl|csv] [-o F]
                                                      virtual-time telemetry series
                                                      (table by default)
  parlogsim vcd       <circuit> [-o F] [--end T]      dump primary-output waveform as VCD
  parlogsim hotspots  <circuit> [-k K] [-s STRAT] [--end T]
                                                      per-gate rollback/load hotspots
  parlogsim dot       <circuit> [-k K] [-s STRAT] [-o F]
                                                      Graphviz view with partition colours

  <circuit> is a .bench file path, one of the built-in names
  (s27, c17, s5378, s9234, s15850), or `synth:N` for an N-gate synthetic.
  STRAT ∈ random|dfs|cluster|topological|multilevel|conepartition|replicated
  (default multilevel).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        exit(2);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => cmd_stats(rest),
        "generate" => cmd_generate(rest),
        "partition" => cmd_partition(rest),
        "simulate" => cmd_simulate(rest),
        "trace" => cmd_trace(rest),
        "vcd" => cmd_vcd(rest),
        "hotspots" => cmd_hotspots(rest),
        "dot" => cmd_dot(rest),
        "-h" | "--help" | "help" => outp!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            exit(2);
        }
    }
}

/// Resolve a circuit argument: file path, built-in name, or `synth:N`.
fn load_circuit(spec: &str) -> Netlist {
    match spec {
        "s27" => return parlogsim::netlist::data::s27(),
        "c17" => return parlogsim::netlist::data::c17(),
        "s5378" => return IscasSynth::s5378().build(),
        "s9234" => return IscasSynth::s9234().build(),
        "s15850" => return IscasSynth::s15850().build(),
        _ => {}
    }
    if let Some(n) = spec.strip_prefix("synth:") {
        let gates: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("bad synth size `{n}`");
            exit(2);
        });
        if gates == 0 {
            eprintln!("synth size must be >= 1");
            exit(2);
        }
        return IscasSynth::small(gates, 1).build();
    }
    let text = std::fs::read_to_string(spec).unwrap_or_else(|e| {
        eprintln!("cannot read `{spec}`: {e}");
        exit(1);
    });
    let name = std::path::Path::new(spec).file_stem().and_then(|s| s.to_str()).unwrap_or("circuit");
    bench_format::parse(name, &text).unwrap_or_else(|e| {
        eprintln!("parse error in `{spec}`: {e}");
        exit(1);
    })
}

fn flag<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).map(String::as_str)
}

/// Parse `-k` with a default; reject 0 with a clean error.
fn k_of(rest: &[String], default: usize) -> usize {
    let k = flag(rest, "-k").and_then(|v| v.parse().ok()).unwrap_or(default);
    if k == 0 {
        eprintln!("-k must be >= 1");
        exit(2);
    }
    k
}

fn required_circuit(rest: &[String]) -> Netlist {
    // First positional argument, skipping flags *and their values* so
    // `partition -k 4 s27` does not read "4" as the circuit.
    let mut i = 0;
    let mut spec: Option<&String> = None;
    while i < rest.len() {
        let a = &rest[i];
        if matches!(
            a.as_str(),
            "-k" | "-s"
                | "-o"
                | "--end"
                | "--trace"
                | "--bucket"
                | "--format"
                | "--exec"
                | "--faults"
                | "--fault-seed"
        ) {
            i += 2;
            continue;
        }
        if !a.starts_with('-') {
            spec = Some(a);
            break;
        }
        i += 1;
    }
    let Some(spec) = spec else {
        eprintln!("missing circuit argument\n");
        eprint!("{USAGE}");
        exit(2);
    };
    load_circuit(spec)
}

fn strategy_of(rest: &[String]) -> Box<dyn Partitioner + Send + Sync> {
    let name = flag(rest, "-s").unwrap_or("multilevel");
    partitioner_by_name(name).unwrap_or_else(|| {
        let valid: Vec<String> = partitioner_names().iter().map(|n| n.to_lowercase()).collect();
        eprintln!("unknown strategy `{name}` (valid: {})", valid.join("|"));
        exit(2);
    })
}

fn cmd_stats(rest: &[String]) {
    let netlist = required_circuit(rest);
    let s = CircuitStats::of(&netlist);
    out!("circuit:    {}", s.name);
    out!("inputs:     {}", s.inputs);
    out!("gates:      {}", s.gates);
    out!("outputs:    {}", s.outputs);
    out!("flip-flops: {}", s.dffs);
    out!("edges:      {}", s.edges);
    out!("depth:      {}", s.depth);
    out!("avg fanout: {:.2}", s.avg_fanout);
    out!("max fanout: {}", s.max_fanout);
    out!("avg fanin:  {:.2}", s.avg_fanin);
    out!("gate mix:");
    for (kind, count) in &s.kind_histogram {
        if *count > 0 {
            out!("  {:<6} {}", kind.bench_name(), count);
        }
    }
}

fn cmd_generate(rest: &[String]) {
    let Some(spec) = rest.iter().find(|a| !a.starts_with('-')) else {
        eprintln!("generate needs a profile (s5378|s9234|s15850|clocktree|N)");
        exit(2);
    };
    let netlist = match spec.as_str() {
        "s5378" => IscasSynth::s5378().build(),
        "s9234" => IscasSynth::s9234().build(),
        "s15850" => IscasSynth::s15850().build(),
        "clocktree" => ClockTreeSynth::platform_demo().build(),
        n => match n.parse::<usize>() {
            Ok(gates) if gates >= 1 => IscasSynth::small(gates, 1).build(),
            _ => {
                eprintln!(
                    "bad profile `{n}` (need s5378|s9234|s15850|clocktree or a gate count >= 1)"
                );
                exit(2);
            }
        },
    };
    let text = bench_format::write(&netlist);
    match flag(rest, "-o") {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                exit(1);
            });
            eprintln!("wrote {} ({} gates) to {path}", netlist.name(), netlist.len());
        }
        None => outp!("{text}"),
    }
}

fn cmd_partition(rest: &[String]) {
    let netlist = required_circuit(rest);
    let k = k_of(rest, 8);
    let strategy = strategy_of(rest);
    let graph = CircuitGraph::from_netlist(&netlist);
    let t0 = std::time::Instant::now();
    let part = strategy.partition(&graph, k, 0);
    let took = t0.elapsed();
    let q = metrics::quality(&graph, &part);
    out!("{} / {} into {k} partitions ({took:?})", netlist.name(), strategy.name());
    out!("edge cut:    {}", q.edge_cut);
    out!("λ−1 cut:     {}", q.connectivity_cut);
    out!("cut nets:    {}", q.cut_nets);
    out!("imbalance:   {:.3}", q.imbalance);
    if let Some(c) = q.concurrency {
        out!("concurrency: {c:.2}");
    }
    out!("sizes:       {:?}", part.sizes());
    if rest.iter().any(|a| a == "--replicate") {
        let plan = plan_replication(&graph, &part, &ReplicationConfig::default());
        out!(
            "replication: {} replicas, cut {} -> {} (est. {} pins/toggle saved)",
            plan.len(),
            q.edge_cut,
            parlogsim::partition::replicate::replicated_edge_cut(&graph, &part, &plan),
            plan.est_messages_saved
        );
    }
}

/// Parse `--bucket`, defaulting to 1/20th of the horizon (≥ 1).
fn bucket_of(rest: &[String], end: u64) -> u64 {
    let w =
        flag(rest, "--bucket").and_then(|v| v.parse().ok()).unwrap_or_else(|| (end / 20).max(1));
    if w == 0 {
        eprintln!("--bucket must be >= 1");
        exit(2);
    }
    w
}

/// Parse `--exec` into an [`ExecModel`]; exits with the valid names on a
/// bad value.
fn exec_of(rest: &[String]) -> ExecModel {
    match flag(rest, "--exec") {
        None => ExecModel::default(),
        Some(name) => name.parse().unwrap_or_else(|e: UnknownExecModel| {
            eprintln!("{e}");
            exit(2);
        }),
    }
}

/// Parse `--faults SPEC` (with `--fault-seed N`, default 0) into a
/// [`FaultPlan`]; exits with the parse error on a bad spec.
fn faults_of(rest: &[String]) -> Option<FaultPlan> {
    let spec = flag(rest, "--faults")?;
    let seed: u64 = match flag(rest, "--fault-seed") {
        None => 0,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad --fault-seed `{v}` (need a u64)");
            exit(2);
        }),
    };
    match FaultPlan::parse(spec, seed) {
        Ok(plan) => Some(plan),
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            exit(2);
        }
    }
}

fn cmd_simulate(rest: &[String]) {
    let netlist = required_circuit(rest);
    let k = k_of(rest, 8);
    let end: u64 = flag(rest, "--end").and_then(|v| v.parse().ok()).unwrap_or(400);
    let strategy = strategy_of(rest);
    let graph = CircuitGraph::from_netlist(&netlist);
    let mut cfg = SimConfig { end_time: end, ..Default::default() };
    cfg.exec = exec_of(rest);
    if rest.iter().any(|a| a == "--dynlb") {
        cfg.dynlb = Some(DynLbConfig::default());
    }
    if rest.iter().any(|a| a == "--replicate") {
        cfg.replication = Some(ReplicationConfig::default());
    }
    cfg.faults = faults_of(rest);
    if let Some(s) = cfg.faults.iter().flat_map(|p| &p.scenarios).find(|s| s.node as usize >= k) {
        eprintln!("bad --faults spec: node {} does not exist (-k {k})", s.node);
        exit(2);
    }
    let seq = run_seq_baseline(&netlist, &cfg);
    out!("sequential: {} events, {:.3} modeled s", seq.events, seq.exec_time_s);
    let trace_path = flag(rest, "--trace");
    let bucket = trace_path.map(|_| bucket_of(rest, end));
    let part = strategy.partition(&graph, k, 0);
    let mut cell = Cell::new(&netlist, &graph, &cfg).nodes(k);
    if let Some(w) = bucket {
        cell = cell.record(w);
    }
    let m = cell.run_with(&part, strategy.name());
    if m.out_of_memory {
        out!("{} on {k} nodes: OUT OF MEMORY", m.strategy);
        exit(1);
    }
    let dynlb_note = if cfg.dynlb.is_some() {
        format!(", {} migrations", m.stats.migrations)
    } else {
        String::new()
    };
    let exec_note = if m.stats.block_activations > 0 {
        format!(", {} block activations, {} ops", m.stats.block_activations, m.stats.ops_executed)
    } else {
        String::new()
    };
    let rep_note = if m.stats.replicated_gates > 0 {
        format!(", {} replicas saved {} messages", m.stats.replicated_gates, m.stats.messages_saved)
    } else {
        String::new()
    };
    out!(
        "{} on {k} nodes ({}): {:.3} modeled s ({:.2}x), {} messages, {} rollbacks, \
         efficiency {:.0}%{}{}{}",
        m.strategy,
        cfg.exec,
        m.exec_time_s,
        seq.exec_time_s / m.exec_time_s,
        m.stats.app_messages,
        m.stats.rollbacks(),
        100.0 * m.stats.events_committed as f64 / m.stats.events_processed as f64,
        exec_note,
        rep_note,
        dynlb_note
    );
    if let Some(path) = trace_path {
        let series = m.telemetry.expect("recording was requested");
        std::fs::write(path, series.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write `{path}`: {e}");
            exit(1);
        });
        eprintln!(
            "wrote {} telemetry buckets (width {}) to {path}",
            series.len(),
            series.bucket_width()
        );
    }
}

fn cmd_trace(rest: &[String]) {
    let netlist = required_circuit(rest);
    let k = k_of(rest, 8);
    let end: u64 = flag(rest, "--end").and_then(|v| v.parse().ok()).unwrap_or(400);
    let bucket = bucket_of(rest, end);
    let strategy = strategy_of(rest);
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: end, ..Default::default() };
    let part = strategy.partition(&graph, k, 0);
    let m =
        Cell::new(&netlist, &graph, &cfg).nodes(k).record(bucket).run_with(&part, strategy.name());
    if m.out_of_memory {
        eprintln!("{} on {k} nodes: OUT OF MEMORY", m.strategy);
        exit(1);
    }
    let series = m.telemetry.clone().expect("recording was requested");
    let format = flag(rest, "--format");
    let rendered = match format {
        Some("jsonl") => series.to_jsonl(),
        Some("csv") => series.to_csv(),
        Some(other) => {
            eprintln!("unknown format `{other}` (jsonl|csv)");
            exit(2);
        }
        None => {
            // Human-readable table.
            let mut s = format!(
                "{} / {} on {k} nodes, bucket width {} vt\n",
                netlist.name(),
                m.strategy,
                series.bucket_width()
            );
            s.push_str(&format!(
                "{:>10} {:>8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}\n",
                "vt", "events", "committed", "rollbk", "antis", "messages", "states", "pending"
            ));
            for (key, b) in series.buckets() {
                let vt = match key {
                    parlogsim::timewarp::BucketKey::At(i) => {
                        format!("{}", i * series.bucket_width())
                    }
                    parlogsim::timewarp::BucketKey::Final => "final".to_string(),
                };
                s.push_str(&format!(
                    "{:>10} {:>8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}\n",
                    vt,
                    b.events,
                    b.events_committed,
                    b.rollbacks(),
                    b.antis_sent,
                    b.app_messages,
                    b.states_saved,
                    b.pending_max
                ));
            }
            let t = series.totals();
            s.push_str(&format!(
                "{:>10} {:>8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}\n",
                "total",
                t.events,
                t.events_committed,
                t.rollbacks(),
                t.antis_sent,
                t.app_messages,
                t.states_saved,
                ""
            ));
            s
        }
    };
    match flag(rest, "-o") {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                exit(1);
            });
            eprintln!("wrote {} buckets to {path}", series.len());
        }
        None => outp!("{rendered}"),
    }
}

fn cmd_hotspots(rest: &[String]) {
    let netlist = required_circuit(rest);
    let k = k_of(rest, 8);
    let end: u64 = flag(rest, "--end").and_then(|v| v.parse().ok()).unwrap_or(400);
    let strategy = strategy_of(rest);
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = strategy.partition(&graph, k, 0);
    let cfg = SimConfig { end_time: end, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let res = Simulator::new(&app)
        .platform_config(&cfg.platform)
        .run(Backend::Platform { assignment: &part.assignment, nodes: k })
        .unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            exit(1);
        });
    out!(
        "{} / {} on {k} nodes: {} rollbacks total; top offenders:",
        netlist.name(),
        strategy.name(),
        res.stats.rollbacks()
    );
    let mut by_rollbacks: Vec<(u32, parlogsim::timewarp::LpCounters)> =
        res.lp_stats.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
    by_rollbacks.sort_by_key(|&(_, c)| std::cmp::Reverse((c.rollbacks, c.events_rolled_back)));
    out!(
        "{:<16} {:<6} {:>4} {:>10} {:>8} {:>8}",
        "gate",
        "kind",
        "part",
        "rollbacks",
        "undone",
        "events"
    );
    for (lp, c) in by_rollbacks.iter().take(15) {
        if c.rollbacks == 0 {
            break;
        }
        let g = netlist.gate(*lp);
        out!(
            "{:<16} {:<6} {:>4} {:>10} {:>8} {:>8}",
            g.name,
            g.kind.bench_name(),
            part.part(*lp),
            c.rollbacks,
            c.events_rolled_back,
            c.events_processed
        );
    }
}

fn cmd_dot(rest: &[String]) {
    let netlist = required_circuit(rest);
    let k = k_of(rest, 4);
    let strategy = strategy_of(rest);
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = strategy.partition(&graph, k, 0);
    let names: Vec<String> = netlist.gates().iter().map(|g| g.name.clone()).collect();
    let dot = parlogsim::partition::to_dot(&graph, Some(&part), Some(&names));
    match flag(rest, "-o") {
        Some(path) => {
            std::fs::write(path, dot).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                exit(1);
            });
            eprintln!("wrote DOT for {} ({} gates) to {path}", netlist.name(), netlist.len());
        }
        None => outp!("{dot}"),
    }
}

fn cmd_vcd(rest: &[String]) {
    let netlist = required_circuit(rest);
    let end: u64 = flag(rest, "--end").and_then(|v| v.parse().ok()).unwrap_or(400);
    let cfg = SimConfig { end_time: end, ..Default::default() };
    // Waveforms are per-gate by construction: always record the per-gate
    // engine (identical committed history either way).
    let app = cfg.build_gate_sim(&netlist);
    let wave = WaveRecorder::new(app).record();
    let vcd = write_vcd(&netlist, &wave, netlist.outputs(), "1ns");
    match flag(rest, "-o") {
        Some(path) => {
            std::fs::write(path, vcd).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                exit(1);
            });
            eprintln!("wrote waveform of {} outputs to {path}", netlist.outputs().len());
        }
        None => outp!("{vcd}"),
    }
}
