//! The measurement core: run one circuit × partitioner × node-count cell
//! of the paper's experiment grid and collect the metrics its tables and
//! figures report.
//!
//! The entry point is the [`Cell`] builder (mirroring the `Simulator`
//! builder of `pls-timewarp`): configure optional telemetry recording and
//! oracle checking, then `run` with a strategy or `run_with` a
//! precomputed partitioning.

use pls_logic::{DelayModel, StimulusConfig};
use pls_netlist::{topo_order, GateId, Netlist};
use pls_partition::{plan_replication, CircuitGraph, Partitioner, Partitioning, ReplicationConfig};
use pls_timewarp::{
    platform::sequential_modeled_time_s, Backend, KernelStats, PlatformConfig, SimError, Simulator,
    TimeSeries,
};

use crate::compiled::{CompileError, CompiledSim};
use crate::gatelp::GateSim;
use crate::model::{ExecModel, GateModel};

/// Simulation workload configuration (what the testbench does and which
/// engine executes it).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Virtual-time horizon: no stimulus/clock activity after this.
    pub end_time: u64,
    /// Primary input stimulus.
    pub stim: StimulusConfig,
    /// DFF clock period.
    pub clock_period: u64,
    /// Gate delay model.
    pub delay: DelayModel,
    /// Platform (cost model, kernel knobs, memory limit).
    pub platform: PlatformConfig,
    /// Execution engine. With [`ExecModel::CompiledBlocks`] and no
    /// explicit block map, [`Cell`] derives one block per partition part.
    pub exec: ExecModel,
    /// Logic replication: `Some` plans bounded gate duplication against
    /// the run's partitioning (`pls_partition::plan_replication`) and
    /// applies it to the built model; `None` runs unreplicated.
    pub replication: Option<ReplicationConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            end_time: 400,
            stim: StimulusConfig::default(),
            clock_period: 10,
            delay: DelayModel::PerKind,
            platform: PlatformConfig::default(),
            exec: ExecModel::GatePerLp,
            replication: None,
        }
    }
}

impl SimConfig {
    /// Build the Time Warp application for a netlist under this config;
    /// panics where [`Self::try_build`] fails.
    pub fn build_app(&self, netlist: &Netlist) -> GateModel {
        self.try_build(netlist, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the application against a finished partitioning: in
    /// compiled mode without an explicit block map, blocks are derived
    /// from the partitioning (one block per part); with
    /// [`Self::replication`] set, a replica plan is made against the
    /// partitioning and applied to the model. This is the construction
    /// path [`Cell::run_with`] uses. Panics where [`Self::try_build`]
    /// fails.
    pub fn build_app_partitioned(
        &self,
        netlist: &Netlist,
        graph: &CircuitGraph,
        partitioning: &Partitioning,
    ) -> GateModel {
        self.try_build(netlist, Some((graph, partitioning))).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build_app`] (`partitioned` is `None`) or
    /// [`Self::build_app_partitioned`], failing instead of panicking when
    /// an event could fall due at [`pls_timewarp::VTime::INF`] or a
    /// compiled block outgrows the instruction encoding.
    pub fn try_build(
        &self,
        netlist: &Netlist,
        partitioned: Option<(&CircuitGraph, &Partitioning)>,
    ) -> Result<GateModel, BuildError> {
        // A path visits each gate at most once, so the sum of all gate
        // delays bounds the longest one; only a horizon within that sum of
        // infinity pays for the exact path.
        let delay = |g| self.delay.delay(netlist.kind(g), netlist.fanin(g).len());
        let total_delay = netlist.ids().map(delay).fold(0, u64::saturating_add);
        if self.end_time.saturating_add(total_delay) == u64::MAX {
            let longest_path = self.longest_delay_path(netlist);
            if self.end_time.saturating_add(longest_path) == u64::MAX {
                return Err(BuildError::Horizon { end_time: self.end_time, longest_path });
            }
        }
        let Some((graph, partitioning)) = partitioned else {
            return Ok(self.construct(netlist, None, &[])?);
        };
        let replicas = match &self.replication {
            Some(rc) => plan_replication(graph, partitioning, rc).pairs(),
            None => Vec::new(),
        };
        Ok(self.construct(netlist, Some(&partitioning.assignment), &replicas)?)
    }

    /// The longest sum of gate delays along a path from a level source
    /// (a primary input or a DFF, its own delay included) through
    /// combinational gates. Stimulus polls and clock edges fall at most
    /// at [`Self::end_time`], so no event falls due later than
    /// `end_time` plus this.
    fn longest_delay_path(&self, netlist: &Netlist) -> u64 {
        let mut arrival = vec![0u64; netlist.len()];
        for g in topo_order(netlist) {
            let kind = netlist.kind(g);
            let before = if netlist.is_input(g) || netlist.is_dff(g) {
                0
            } else {
                netlist.fanin(g).iter().map(|&f| arrival[f as usize]).max().unwrap_or(0)
            };
            let delay = self.delay.delay(kind, netlist.fanin(g).len());
            arrival[g as usize] = before.saturating_add(delay);
        }
        arrival.into_iter().max().unwrap_or(0)
    }

    /// Build the bare gate-per-LP engine regardless of [`Self::exec`] —
    /// for consumers that structurally need one state per gate (waveform
    /// recording, activity profiling).
    pub fn build_gate_sim(&self, netlist: &Netlist) -> GateSim {
        GateSim::new(netlist, self, None, &[])
    }

    /// The one construction path: [`Self::exec`]'s engine over `netlist`,
    /// with `replicas` — `(gate, part)` duplications planned against
    /// `gate_parts`, each gate's home part — applied. In gate-per-LP mode
    /// each replica becomes an extra pinned LP in its target part; in
    /// compiled mode it is fused into the consuming block, and
    /// `gate_parts` is the block map unless [`Self::exec`] carries one.
    /// Committed fingerprints are unchanged — replicas are never hashed.
    pub(crate) fn construct(
        &self,
        netlist: &Netlist,
        gate_parts: Option<&[u32]>,
        replicas: &[(GateId, u32)],
    ) -> Result<GateModel, CompileError> {
        Ok(match &self.exec {
            ExecModel::GatePerLp => {
                GateModel::PerGate(GateSim::new(netlist, self, gate_parts, replicas))
            }
            ExecModel::CompiledBlocks(opts) => GateModel::Compiled(CompiledSim::compile(
                netlist,
                self,
                opts.blocks.as_deref().or(gate_parts),
                replicas,
            )?),
        })
    }
}

/// Why [`SimConfig::try_build`] cannot build a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The horizon plus the circuit's longest delay path reaches
    /// `u64::MAX`, the tick of [`pls_timewarp::VTime::INF`]: an event
    /// could fall due at infinity, where none may be scheduled.
    Horizon {
        /// [`SimConfig::end_time`].
        end_time: u64,
        /// The longest sum of gate delays along a path through the
        /// circuit under [`SimConfig::delay`].
        longest_path: u64,
    },
    /// A compiled block outgrows the instruction encoding.
    Compile(CompileError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Horizon { end_time, longest_path } => write!(
                f,
                "end time {end_time} plus the longest delay path {longest_path} reaches the \
                 largest tick {}: events would fall due at infinity",
                u64::MAX
            ),
            BuildError::Compile(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> BuildError {
        BuildError::Compile(e)
    }
}

/// Metrics of one parallel run — one cell of Table 2 plus the Figure 5/6
/// series values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Circuit name.
    pub circuit: String,
    /// Partitioning strategy name.
    pub strategy: String,
    /// Number of simulated workstation nodes.
    pub nodes: usize,
    /// Modeled execution time in seconds (Figure 4 / Table 2).
    pub exec_time_s: f64,
    /// Every kernel counter of the run — `app_messages` is Figure 5,
    /// `rollbacks()` Figure 6. All zero when [`Self::out_of_memory`].
    pub stats: KernelStats,
    /// Edge cut of the partition used.
    pub edge_cut: u64,
    /// Connectivity (λ−1) cut of the partition used — the hypergraph
    /// metric matching compiled-mode bundled messages.
    pub connectivity_cut: u64,
    /// Whether the run died with the per-node memory limit exceeded
    /// (`exec_time_s` is meaningless in that case).
    pub out_of_memory: bool,
    /// Telemetry series, when recording was requested via [`Cell::record`]
    /// and the run completed.
    pub telemetry: Option<TimeSeries>,
}

/// Result of a sequential baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqMetrics {
    /// Circuit name.
    pub circuit: String,
    /// Modeled sequential execution time in seconds.
    pub exec_time_s: f64,
    /// Events processed.
    pub events: u64,
    /// Per-gate trace hashes (the equivalence fingerprint).
    pub fingerprint: Vec<u64>,
}

/// Run the sequential baseline and model its execution time.
pub fn run_seq_baseline(netlist: &Netlist, cfg: &SimConfig) -> SeqMetrics {
    run_seq_model(netlist, cfg, &cfg.build_app(netlist))
}

/// [`run_seq_baseline`] over `app`, the model [`SimConfig::try_build`]
/// built of `netlist` unpartitioned.
pub fn run_seq_model(netlist: &Netlist, cfg: &SimConfig, app: &GateModel) -> SeqMetrics {
    let res = Simulator::new(app).run(Backend::Sequential).expect("sequential runs cannot fail");
    SeqMetrics {
        circuit: netlist.name().to_string(),
        exec_time_s: sequential_modeled_time_s(res.stats.events_processed, &cfg.platform.cost),
        events: res.stats.events_processed,
        fingerprint: app.fingerprint(&res.states),
    }
}

/// One cell of the experiment grid, as a builder. `nodes` defaults to 4,
/// `seed` to 0; telemetry recording and oracle checking are off unless
/// requested.
///
/// ```
/// use pls_gatesim::{Cell, SimConfig};
/// use pls_netlist::IscasSynth;
/// use pls_partition::{CircuitGraph, MultilevelPartitioner};
///
/// let netlist = IscasSynth::small(150, 1).build();
/// let graph = CircuitGraph::from_netlist(&netlist);
/// let cfg = SimConfig { end_time: 100, ..Default::default() };
/// let m = Cell::new(&netlist, &graph, &cfg).nodes(4).run(&MultilevelPartitioner);
/// assert!(m.stats.events_committed > 0);
/// ```
#[derive(Debug)]
pub struct Cell<'a> {
    netlist: &'a Netlist,
    graph: &'a CircuitGraph,
    cfg: &'a SimConfig,
    nodes: usize,
    seed: u64,
    bucket: Option<u64>,
    check: bool,
}

impl<'a> Cell<'a> {
    /// A cell over `netlist` partitioned via `graph`, configured by `cfg`.
    pub fn new(netlist: &'a Netlist, graph: &'a CircuitGraph, cfg: &'a SimConfig) -> Cell<'a> {
        Cell { netlist, graph, cfg, nodes: 4, seed: 0, bucket: None, check: false }
    }

    /// Number of simulated workstation nodes (default 4).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Partitioner seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record a telemetry [`TimeSeries`] with the given virtual-time
    /// bucket width into [`RunMetrics::telemetry`].
    pub fn record(mut self, bucket_width: u64) -> Self {
        self.bucket = Some(bucket_width);
        self
    }

    /// Check the committed history against the sequential oracle (same
    /// app, same engine), panicking on divergence.
    pub fn checked(mut self) -> Self {
        self.check = true;
        self
    }

    /// Partition with `strategy` and run.
    pub fn run(self, strategy: &dyn Partitioner) -> RunMetrics {
        let partitioning = strategy.partition(self.graph, self.nodes, self.seed);
        self.run_with(&partitioning, strategy.name())
    }

    /// Run with a precomputed partitioning. In compiled mode without an
    /// explicit block map, blocks are derived from this partitioning (one
    /// block per part), so fused cones coincide with node placement. With
    /// [`SimConfig::replication`] set, a replica plan is made against
    /// this partitioning and applied to the model.
    pub fn run_with(self, partitioning: &Partitioning, strategy_name: &str) -> RunMetrics {
        let app = self.cfg.build_app_partitioned(self.netlist, self.graph, partitioning);
        self.run_model(&app, partitioning, strategy_name)
    }

    /// [`Self::run_with`] over `app`, the model [`SimConfig::try_build`]
    /// built against `partitioning`.
    pub fn run_model(
        self,
        app: &GateModel,
        partitioning: &Partitioning,
        strategy_name: &str,
    ) -> RunMetrics {
        assert!(partitioning.is_valid_for(self.graph));
        let assignment = app.lp_assignment(&partitioning.assignment);
        let edge_cut = pls_partition::metrics::edge_cut(self.graph, partitioning);
        let connectivity_cut = pls_partition::metrics::connectivity_cut(self.graph, partitioning);
        let run = Simulator::new(app)
            .platform_config(&self.cfg.platform)
            .probe(self.bucket.map(TimeSeries::new))
            .run_probed(Backend::Platform { assignment: &assignment, nodes: self.nodes });
        let (exec_time_s, stats, telemetry, out_of_memory) = match run {
            Ok((res, telemetry)) => {
                if self.check {
                    let seq = Simulator::new(app)
                        .run(Backend::Sequential)
                        .expect("sequential runs cannot fail");
                    assert_eq!(
                        app.fingerprint(&res.states),
                        app.fingerprint(&seq.states),
                        "parallel committed history diverged from sequential \
                         ({strategy_name}/{} on {} nodes)",
                        app.exec_name(),
                        self.nodes
                    );
                }
                let exec_time_s = res.outcome.exec_time_s().expect("platform outcome");
                (exec_time_s, res.stats, telemetry, false)
            }
            Err(SimError::OutOfMemory { .. }) => (f64::NAN, KernelStats::default(), None, true),
            Err(e) => panic!("misconfigured cell: {e}"),
        };
        RunMetrics {
            circuit: self.netlist.name().to_string(),
            strategy: strategy_name.to_string(),
            nodes: self.nodes,
            exec_time_s,
            stats,
            edge_cut,
            connectivity_cut,
            out_of_memory,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompileOptions;
    use pls_netlist::IscasSynth;
    use pls_partition::{all_partitioners, MultilevelPartitioner, RandomPartitioner};

    fn small_cfg() -> SimConfig {
        SimConfig { end_time: 120, ..Default::default() }
    }

    #[test]
    fn all_six_strategies_match_the_sequential_oracle() {
        let netlist = IscasSynth::small(120, 3).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let cfg = small_cfg();
        for strategy in all_partitioners() {
            for nodes in [2, 4] {
                let m =
                    Cell::new(&netlist, &graph, &cfg).nodes(nodes).checked().run(strategy.as_ref());
                assert!(m.stats.events_committed > 0, "{} produced no events", m.strategy);
            }
        }
    }

    #[test]
    fn s27_matches_oracle_on_every_node_count() {
        let netlist = pls_netlist::data::s27();
        let graph = CircuitGraph::from_netlist(&netlist);
        let cfg = SimConfig { end_time: 300, ..Default::default() };
        for nodes in 1..=4 {
            Cell::new(&netlist, &graph, &cfg).nodes(nodes).checked().run(&RandomPartitioner);
        }
    }

    #[test]
    fn compiled_cell_matches_gate_cell_fingerprints() {
        let netlist = IscasSynth::small(200, 4).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let gate_cfg = small_cfg();
        let mut compiled_cfg = small_cfg();
        compiled_cfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
        // `checked()` asserts each mode against its own sequential oracle;
        // the baselines assert the modes against each other.
        let g = Cell::new(&netlist, &graph, &gate_cfg).checked().run(&MultilevelPartitioner);
        let c = Cell::new(&netlist, &graph, &compiled_cfg).checked().run(&MultilevelPartitioner);
        assert_eq!(
            run_seq_baseline(&netlist, &gate_cfg).fingerprint,
            run_seq_baseline(&netlist, &compiled_cfg).fingerprint,
            "compiled fingerprint diverged from gate-per-LP"
        );
        assert!(c.stats.block_activations > 0, "compiled run must activate blocks");
        assert!(c.stats.ops_executed > 0, "compiled run must sweep ops");
        assert_eq!(g.stats.block_activations, 0, "gate mode declares no block work");
        assert!(
            c.stats.events_processed < g.stats.events_processed,
            "compiled mode must internalize events ({} vs {})",
            c.stats.events_processed,
            g.stats.events_processed
        );
    }

    /// Each of these horizons used to panic in `EventSink::schedule_at`
    /// ("events must be scheduled at a finite time") once an event fell
    /// due at `VTime::INF`.
    #[test]
    fn horizons_that_reach_infinity_are_build_errors() {
        let netlist = pls_netlist::data::s27();
        let with = |end_time, period, delay| {
            let mut cfg = SimConfig { end_time, delay, ..SimConfig::default() };
            cfg.stim.period = period;
            cfg
        };
        let mut late = vec![with(u64::MAX - 1, u64::MAX - 2, DelayModel::PerKind)];
        for b in [2, 3, 4, 5, 6, 8] {
            late.push(with(u64::MAX, u64::MAX - b, DelayModel::PerKind));
        }
        late.push(with(400, 1, DelayModel::Unit(u64::MAX)));
        for cfg in &late {
            for exec in [ExecModel::GatePerLp, ExecModel::CompiledBlocks(CompileOptions::default())]
            {
                let cfg = SimConfig { exec, ..cfg.clone() };
                let err = cfg.try_build(&netlist, None).expect_err("must not build");
                assert!(matches!(err, BuildError::Horizon { .. }), "{err}");
                let panic = std::panic::catch_unwind(|| cfg.build_app(&netlist))
                    .expect_err("build_app must panic");
                assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
            }
        }
        // The latest horizon that builds leaves exactly the longest delay
        // path before the largest tick, and runs to the end.
        let Err(BuildError::Horizon { longest_path, .. }) = late[0].try_build(&netlist, None)
        else {
            panic!("must not build");
        };
        let edge = u64::MAX - longest_path;
        assert!(with(edge, edge - 2, DelayModel::PerKind).try_build(&netlist, None).is_err());
        let seq = run_seq_baseline(&netlist, &with(edge - 1, edge - 3, DelayModel::PerKind));
        assert!(seq.events > 0);
        let plain = SimConfig { end_time: 400, ..SimConfig::default() };
        assert!(plain.try_build(&netlist, None).is_ok());
        assert_eq!(run_seq_baseline(&netlist, &plain).fingerprint.len(), netlist.len());
    }

    #[test]
    fn sequential_baseline_is_reproducible() {
        let netlist = IscasSynth::small(100, 1).build();
        let cfg = small_cfg();
        let a = run_seq_baseline(&netlist, &cfg);
        let b = run_seq_baseline(&netlist, &cfg);
        assert_eq!(a, b);
        assert!(a.exec_time_s > 0.0);
    }

    #[test]
    fn multilevel_beats_random_on_messages_for_medium_circuit() {
        let netlist = IscasSynth::small(400, 5).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let cfg = small_cfg();
        let ml = Cell::new(&netlist, &graph, &cfg).run(&MultilevelPartitioner);
        let rnd = Cell::new(&netlist, &graph, &cfg).run(&RandomPartitioner);
        assert!(
            ml.stats.app_messages < rnd.stats.app_messages,
            "multilevel {} messages vs random {}",
            ml.stats.app_messages,
            rnd.stats.app_messages
        );
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let netlist = IscasSynth::small(150, 2).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let mut cfg = small_cfg();
        cfg.platform.state_limit_per_node = Some(1);
        cfg.platform.kernel.gvt_period = 2;
        let m = Cell::new(&netlist, &graph, &cfg).run(&RandomPartitioner);
        assert!(m.out_of_memory);
        assert!(m.exec_time_s.is_nan());
    }
}
