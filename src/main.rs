//! `parlogsim` — command-line front end for the parallel logic simulation
//! stack: inspect circuits, generate synthetic benchmarks, partition,
//! simulate, and dump waveforms.

use std::process::exit;

use parlogsim::gatesim::{write_vcd, WaveRecorder};
use parlogsim::prelude::*;

/// `print!` that exits quietly when stdout closes early (`… | head`):
/// a CLI should end the pipeline, not panic on EPIPE.
macro_rules! outp {
    ($($t:tt)*) => {{
        use std::io::Write;
        if write!(std::io::stdout(), $($t)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// `println!` variant of [`outp!`].
macro_rules! out {
    ($($t:tt)*) => { outp!("{}\n", format_args!($($t)*)) };
}

/// What follows a flag's name on the command line.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// One word; the string is its placeholder in the usage text.
    Text(&'static str),
    /// One non-negative integer, checked before the subcommand runs.
    Number(&'static str),
}

/// One flag — `(name, value, help)` — declared here once, accepted by the
/// [`COMMANDS`] rows that name it, explained by `--help` in the order
/// those rows first do, read through [`Args`].
type Flag = (&'static str, Takes, &'static str);

const K: Flag =
    ("-k", Takes::Number("K"), "partitions, one per simulated node (default 8; dot: 4)");
const STRATEGY: Flag = ("-s", Takes::Text("STRAT"), "partitioning strategy (default multilevel)");
const OUT: Flag = ("-o", Takes::Text("F"), "write to file F instead of stdout");
const END: Flag = ("--end", Takes::Number("T"), "virtual-time horizon (default 400)");
const REPLICATE: Flag = (
    "--replicate",
    Takes::Nothing,
    "duplicate profitable boundary gates into the parts that\n\
     read them (partition: plan it, report the cut it leaves)",
);
const DYNLB: Flag = ("--dynlb", Takes::Nothing, "migrate LPs between nodes at GVT commit");
const EXEC: Flag =
    ("--exec", Takes::Text("MODE"), "execution engine: gate-per-lp (default) or compiled");
const TRACE: Flag = ("--trace", Takes::Text("F"), "dump a JSONL telemetry series to F");
const BUCKET: Flag =
    ("--bucket", Takes::Number("W"), "telemetry bucket width in virtual time (default T/20)");
const FORMAT: Flag =
    ("--format", Takes::Text("jsonl|csv"), "machine-readable series instead of the table");
const FAULTS: Flag = (
    "--faults",
    Takes::Text("SPEC"),
    "seeded platform faults, e.g. \"drop:0:300,slow:1:4\" — clauses\n\
     drop:NODE:PERMILLE[@A..B], jitter:NODE:SPIKE[:JIT][@A..B],\n\
     slow:NODE:FACTOR[@A..B], pause:NODE@A..B, random:N; committed\n\
     results are unchanged, only modeled time and message counts\n\
     move",
);
const FAULT_SEED: Flag = ("--fault-seed", Takes::Number("N"), "seed of the fault plan (default 0)");

/// One subcommand: its name, the placeholder of its one positional
/// argument, one line of help, the flags it accepts and its entry point.
type Command = (&'static str, &'static str, &'static str, &'static [Flag], fn(&Args));

/// Every subcommand. The usage text and the whole of argument checking —
/// which word is the positional, unknown flags, missing and non-numeric
/// values — come from this table.
const COMMANDS: [Command; 8] = [
    ("stats", "<circuit>", "circuit characteristics (Table 1 row)", &[], cmd_stats),
    (
        "generate",
        "<s5378|s9234|s15850|clocktree|N>",
        "synthetic benchmark to .bench",
        &[OUT],
        cmd_generate,
    ),
    (
        "partition",
        "<circuit>",
        "partition and report quality",
        &[K, STRATEGY, REPLICATE],
        cmd_partition,
    ),
    (
        "simulate",
        "<circuit>",
        "Time Warp run vs sequential baseline",
        &[K, STRATEGY, END, DYNLB, EXEC, REPLICATE, TRACE, BUCKET, FAULTS, FAULT_SEED],
        cmd_simulate,
    ),
    (
        "trace",
        "<circuit>",
        "virtual-time telemetry series (table by default)",
        &[K, STRATEGY, END, BUCKET, FORMAT, OUT],
        cmd_trace,
    ),
    ("vcd", "<circuit>", "dump primary-output waveform as VCD", &[OUT, END], cmd_vcd),
    ("hotspots", "<circuit>", "per-gate rollback/load hotspots", &[K, STRATEGY, END], cmd_hotspots),
    ("dot", "<circuit>", "Graphviz view with partition colours", &[K, STRATEGY, OUT], cmd_dot),
];

/// A flag as the usage text shows it: `-k K`, `--dynlb`.
fn shown(&(name, takes, _): &Flag) -> String {
    match takes {
        Takes::Nothing => name.to_string(),
        Takes::Text(value) | Takes::Number(value) => format!("{name} {value}"),
    }
}

/// Synopsis and help line of one subcommand.
fn usage_of(&(name, positional, help, flags, _): &Command) -> String {
    let mut text = format!("  parlogsim {name} {positional}");
    let mut width = text.len();
    for f in flags {
        let word = format!(" [{}]", shown(f));
        if width + word.len() > 80 {
            text.push_str("\n       ");
            width = 7;
        }
        width += word.len();
        text.push_str(&word);
    }
    text + &format!("\n      {help}\n")
}

/// `random|dfs|…`: the registered strategies, as `-s` takes them.
fn strategy_names() -> String {
    partitioner_names().iter().map(|n| n.to_lowercase()).collect::<Vec<_>>().join("|")
}

fn usage() -> String {
    let mut text = String::from(
        "parlogsim — multilevel partitioning for parallel logic simulation\n\nUSAGE:\n",
    );
    for cmd in &COMMANDS {
        text.push_str(&usage_of(cmd));
    }
    text.push_str("\nFLAGS:\n");
    let mut explained: Vec<&str> = Vec::new();
    for f in COMMANDS.iter().flat_map(|cmd| cmd.3) {
        if explained.contains(&f.0) {
            continue;
        }
        explained.push(f.0);
        let mut head = shown(f);
        for line in f.2.lines() {
            text.push_str(&format!("  {head:<18} {line}\n"));
            head.clear();
        }
    }
    text + &format!(
        "\n  <circuit> is a .bench file path, one of the built-in names\n  \
         (s27, c17, s5378, s9234, s15850), or `synth:N` for an N-gate synthetic.\n  \
         STRAT ∈ {}.\n",
        strategy_names()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    if matches!(name, Some("-h" | "--help" | "help")) {
        outp!("{}", usage());
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|cmd| Some(cmd.0) == name) else {
        if let Some(bad) = name {
            eprintln!("unknown command `{bad}`\n");
        }
        eprint!("{}", usage());
        exit(2);
    };
    (cmd.4)(&Args::parse(cmd, &args[1..]));
}

/// The checked command line of one subcommand.
struct Args<'a> {
    /// The flags the subcommand accepts.
    flags: &'static [Flag],
    positional: &'a str,
    /// `(flag name, value)` as given; a switch has the value `""`.
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Check `rest` against `cmd`'s row: exactly one positional, only the
    /// row's flags, each at most once, each value present and — for
    /// [`Takes::Number`] — numeric. Anything else names the offender on
    /// stderr and exits with code 2.
    fn parse(cmd: &'static Command, rest: &'a [String]) -> Args<'a> {
        let fail = |msg: String| -> ! {
            eprintln!("{msg}\n\nUSAGE:\n{}", usage_of(cmd));
            exit(2);
        };
        let &(command, placeholder, _, flags, _) = cmd;
        let mut positional = None;
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut words = rest.iter();
        while let Some(word) = words.next() {
            if !word.starts_with('-') {
                if positional.replace(word.as_str()).is_some() {
                    fail(format!("unexpected argument `{word}`"));
                }
                continue;
            }
            let Some(&(name, takes, _)) = flags.iter().find(|f| f.0 == word) else {
                fail(format!("unknown flag `{word}` for `{command}`"));
            };
            if given.iter().any(|g| g.0 == name) {
                fail(format!("flag `{name}` given twice"));
            }
            let value = match takes {
                Takes::Nothing => "",
                Takes::Text(_) | Takes::Number(_) => match words.next() {
                    Some(v) => v.as_str(),
                    None => fail(format!("flag `{name}` needs a value")),
                },
            };
            if matches!(takes, Takes::Number(_)) && value.parse::<u64>().is_err() {
                fail(format!("bad {name} `{value}` (need a non-negative integer)"));
            }
            given.push((name, value));
        }
        let Some(positional) = positional else {
            fail(format!("missing {placeholder} argument"));
        };
        Args { flags, positional, given }
    }

    /// The value of a [`Takes::Text`] flag, if given.
    fn text(&self, f: &Flag) -> Option<&'a str> {
        debug_assert!(self.flags.iter().any(|own| own.0 == f.0), "{} is not in the row", f.0);
        self.given.iter().find(|g| g.0 == f.0).map(|g| g.1)
    }

    /// The value of a [`Takes::Number`] flag, if given.
    fn number(&self, f: &Flag) -> Option<u64> {
        self.text(f).map(|v| v.parse().expect("checked by Args::parse"))
    }

    /// Whether the flag was given.
    fn has(&self, f: &Flag) -> bool {
        self.text(f).is_some()
    }

    /// A count flag's value or `default`; zero is a clean error.
    fn at_least_one(&self, f: &Flag, default: u64) -> u64 {
        let v = self.number(f).unwrap_or(default);
        if v == 0 {
            eprintln!("{} must be >= 1", f.0);
            exit(2);
        }
        v
    }

    fn end(&self) -> u64 {
        self.number(&END).unwrap_or(400)
    }

    /// `--bucket`, defaulting to 1/20th of the horizon (≥ 1).
    fn bucket(&self, end: u64) -> u64 {
        self.at_least_one(&BUCKET, (end / 20).max(1))
    }

    fn strategy(&self) -> Box<dyn Partitioner + Send + Sync> {
        let name = self.text(&STRATEGY).unwrap_or("multilevel");
        partitioner_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown strategy `{name}` (valid: {})", strategy_names());
            exit(2);
        })
    }

    /// Write `text` to the `-o` file and say on stderr that `what` went
    /// there, or print it when there is no `-o`.
    fn emit(&self, text: &str, what: &str) {
        match self.text(&OUT) {
            Some(path) => {
                write_file(path, text);
                eprintln!("wrote {what} to {path}");
            }
            None => outp!("{text}"),
        }
    }
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write `{path}`: {e}");
        exit(1);
    });
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

fn cmd_stats(args: &Args) {
    let netlist = load_circuit(args.positional);
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

fn cmd_generate(args: &Args) {
    let netlist = match args.positional {
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
    let what = format!("{} ({} gates)", netlist.name(), netlist.len());
    args.emit(&bench_format::write(&netlist), &what);
}

fn cmd_partition(args: &Args) {
    let netlist = load_circuit(args.positional);
    let k = args.at_least_one(&K, 8) as usize;
    let strategy = args.strategy();
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
    if args.has(&REPLICATE) {
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

/// Parse `--exec` into an [`ExecModel`]; exits with the valid names on a
/// bad value.
fn exec_of(args: &Args) -> ExecModel {
    match args.text(&EXEC) {
        None => ExecModel::default(),
        Some(name) => name.parse().unwrap_or_else(|e: UnknownExecModel| {
            eprintln!("{e}");
            exit(2);
        }),
    }
}

/// Parse `--faults SPEC` (with `--fault-seed N`, default 0) into a
/// [`FaultPlan`]; exits with the parse error on a bad spec.
fn faults_of(args: &Args) -> Option<FaultPlan> {
    let spec = args.text(&FAULTS)?;
    match FaultPlan::parse(spec, args.number(&FAULT_SEED).unwrap_or(0)) {
        Ok(plan) => Some(plan),
        Err(e) => {
            eprintln!("bad {} spec: {e}", FAULTS.0);
            exit(2);
        }
    }
}

fn cmd_simulate(args: &Args) {
    let netlist = load_circuit(args.positional);
    let k = args.at_least_one(&K, 8) as usize;
    let end = args.end();
    let strategy = args.strategy();
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig {
        end_time: end,
        exec: exec_of(args),
        dynlb: args.has(&DYNLB).then(DynLbConfig::default),
        replication: args.has(&REPLICATE).then(ReplicationConfig::default),
        faults: faults_of(args),
        ..Default::default()
    };
    if let Some(s) = cfg.faults.iter().flat_map(|p| &p.scenarios).find(|s| s.node as usize >= k) {
        eprintln!("bad {} spec: node {} does not exist ({} {k})", FAULTS.0, s.node, K.0);
        exit(2);
    }
    let trace_path = args.text(&TRACE);
    let bucket = trace_path.map(|_| args.bucket(end));
    let seq = run_seq_baseline(&netlist, &cfg);
    out!("sequential: {} events, {:.3} modeled s", seq.events, seq.exec_time_s);
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
        write_file(path, &series.to_jsonl());
        eprintln!(
            "wrote {} telemetry buckets (width {}) to {path}",
            series.len(),
            series.bucket_width()
        );
    }
}

fn cmd_trace(args: &Args) {
    let netlist = load_circuit(args.positional);
    let k = args.at_least_one(&K, 8) as usize;
    let end = args.end();
    let bucket = args.bucket(end);
    let strategy = args.strategy();
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
    let rendered = match args.text(&FORMAT) {
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
            // One row per bucket, then the totals (no pending high-water).
            let total = series.totals();
            let rows = series.buckets().map(|(key, b)| {
                let vt = match key {
                    parlogsim::timewarp::BucketKey::At(i) => {
                        (i * series.bucket_width()).to_string()
                    }
                    parlogsim::timewarp::BucketKey::Final => "final".to_string(),
                };
                (vt, b, b.pending_max.to_string())
            });
            for (vt, b, pending) in rows.chain([("total".to_string(), &total, String::new())]) {
                s.push_str(&format!(
                    "{:>10} {:>8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}\n",
                    vt,
                    b.events,
                    b.events_committed,
                    b.rollbacks(),
                    b.antis_sent,
                    b.app_messages,
                    b.states_saved,
                    pending
                ));
            }
            s
        }
    };
    args.emit(&rendered, &format!("{} buckets", series.len()));
}

fn cmd_hotspots(args: &Args) {
    let netlist = load_circuit(args.positional);
    let k = args.at_least_one(&K, 8) as usize;
    let strategy = args.strategy();
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = strategy.partition(&graph, k, 0);
    let cfg = SimConfig { end_time: args.end(), ..Default::default() };
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

fn cmd_dot(args: &Args) {
    let netlist = load_circuit(args.positional);
    let k = args.at_least_one(&K, 4) as usize;
    let strategy = args.strategy();
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = strategy.partition(&graph, k, 0);
    let names: Vec<String> = netlist.gates().iter().map(|g| g.name.clone()).collect();
    let dot = parlogsim::partition::to_dot(&graph, Some(&part), Some(&names));
    args.emit(&dot, &format!("DOT for {} ({} gates)", netlist.name(), netlist.len()));
}

fn cmd_vcd(args: &Args) {
    let netlist = load_circuit(args.positional);
    let cfg = SimConfig { end_time: args.end(), ..Default::default() };
    // Waveforms are per-gate by construction: always record the per-gate
    // engine (identical committed history either way).
    let app = cfg.build_gate_sim(&netlist);
    let wave = WaveRecorder::new(app).record();
    let vcd = write_vcd(&netlist, &wave, netlist.outputs(), "1ns");
    args.emit(&vcd, &format!("waveform of {} outputs", netlist.outputs().len()));
}
