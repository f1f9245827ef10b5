//! The unified executive API: one [`Simulator`] builder, one
//! [`RunReport`] result, three interchangeable [`Backend`]s.
//!
//! ```
//! use pls_timewarp::{Backend, Phold, Simulator, TimeSeries};
//!
//! let app = Phold { lps: 8, horizon: 200, ..Default::default() };
//! let assignment: Vec<u32> = (0..8).map(|i| i % 2).collect();
//! let (report, series) = Simulator::new(&app)
//!     .probe(TimeSeries::new(100)) // bucket telemetry by 100 virtual-time units
//!     .run_probed(Backend::Platform { assignment: &assignment, nodes: 2 })
//!     .unwrap();
//! let totals = series.totals();
//! assert_eq!(report.stats.events_committed, totals.counts.events_committed);
//! ```

use std::time::Duration;

use crate::app::Application;
use crate::config::KernelConfig;
use crate::platform::PlatformConfig;
use crate::probe::{NoProbe, Probe};
use crate::stats::KernelStats;
use crate::time::VTime;

/// Which executive runs the application.
#[derive(Debug, Clone, Copy)]
pub enum Backend<'a> {
    /// Calendar queue, one bucket per receive time — the baseline and oracle.
    Sequential,
    /// Deterministic virtual platform of `nodes` modeled workstations
    /// (`assignment[lp] = node`). All paper tables/figures use this.
    Platform {
        /// LP → node map, one entry per LP.
        assignment: &'a [u32],
        /// Number of modeled workstation nodes.
        nodes: usize,
    },
    /// Real OS threads, one per cluster (`assignment[lp] = cluster`).
    Threaded {
        /// LP → cluster map, one entry per LP.
        assignment: &'a [u32],
        /// Number of cluster threads.
        clusters: usize,
    },
}

/// Executive-specific measurements accompanying a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// From [`Backend::Sequential`].
    Sequential {
        /// Virtual time of the last executed event.
        end_time: VTime,
    },
    /// From [`Backend::Platform`].
    Platform {
        /// Final clock of every node, in nanoseconds.
        node_clocks_ns: Vec<u64>,
    },
    /// From [`Backend::Threaded`].
    Threaded {
        /// Wall-clock duration of the parallel section.
        wall: Duration,
    },
}

impl Outcome {
    /// Sequential end time, if this was a sequential run.
    pub fn end_time(&self) -> Option<VTime> {
        match self {
            Outcome::Sequential { end_time } => Some(*end_time),
            _ => None,
        }
    }

    /// Modeled makespan in seconds, if this was a platform run: the
    /// largest node clock — the paper's "Execution Time - secs" axis.
    #[allow(
        clippy::cast_precision_loss,
        clippy::float_arithmetic,
        reason = "a reported figure; never converted back to virtual time"
    )]
    pub fn exec_time_s(&self) -> Option<f64> {
        let max_clock = self.node_clocks_ns()?.iter().copied().max().unwrap_or(0);
        Some(max_clock as f64 / 1e9)
    }

    /// Per-node final clocks, if this was a platform run.
    pub fn node_clocks_ns(&self) -> Option<&[u64]> {
        match self {
            Outcome::Platform { node_clocks_ns, .. } => Some(node_clocks_ns),
            _ => None,
        }
    }

    /// Wall-clock duration, if this was a threaded run.
    pub fn wall(&self) -> Option<Duration> {
        match self {
            Outcome::Threaded { wall } => Some(*wall),
            _ => None,
        }
    }
}

/// What every executive returns: one shape for all three backends.
/// Anything more is observed by a probe read back with
/// [`Simulator::run_probed`]: per-LP counts by an
/// [`LpLedger`](crate::LpLedger), a time series by a
/// [`TimeSeries`](crate::TimeSeries).
#[derive(Debug)]
pub struct RunReport<A: Application> {
    /// Aggregated Time Warp statistics.
    pub stats: KernelStats,
    /// Final committed state of every LP (id order).
    pub states: Vec<A::State>,
    /// Executive-specific measurements.
    pub outcome: Outcome,
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A platform node exceeded
    /// [`PlatformConfig::state_limit_per_node`].
    OutOfMemory {
        /// The node that died.
        node: usize,
        /// Checkpoints held at the time.
        states_held: u64,
    },
    /// The run was misconfigured (bad assignment, zero nodes, …).
    InvalidConfig(String),
    /// A cluster thread of [`Backend::Threaded`] panicked — in the
    /// application's code or on a kernel assertion; the panic message
    /// went to stderr. Its peers were torn down with it. The sequential
    /// and platform executives run on the caller's thread, so there the
    /// same panic simply propagates.
    ClusterPanicked {
        /// The cluster whose thread panicked (the lowest, if several did).
        cluster: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory { node, states_held } => {
                write!(f, "node {node} ran out of memory ({states_held} saved states)")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::ClusterPanicked { cluster } => {
                write!(f, "the thread of cluster {cluster} panicked")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Builder for a simulation run; the single entry point to all three
/// executives. See the [module docs](self) for an example.
#[derive(Debug)]
pub struct Simulator<'a, A: Application, P: Probe = NoProbe> {
    app: &'a A,
    platform: PlatformConfig,
    probe: P,
}

impl<'a, A: Application> Simulator<'a, A, NoProbe> {
    /// Start configuring a run of `app` (defaults: default kernel config
    /// and cost model, no memory limit, no probe).
    pub fn new(app: &'a A) -> Simulator<'a, A, NoProbe> {
        Simulator { app, platform: PlatformConfig::default(), probe: NoProbe }
    }
}

impl<'a, A: Application, P: Probe> Simulator<'a, A, P> {
    /// Set the Time Warp kernel knobs.
    pub fn config(mut self, kernel: KernelConfig) -> Self {
        self.platform.kernel = kernel;
        self
    }

    /// Take a whole [`PlatformConfig`] (kernel + cost + memory limit).
    pub fn platform_config(mut self, cfg: &PlatformConfig) -> Self {
        self.platform = *cfg;
        self
    }

    /// Attach a probe (replaces any previously attached probe): a
    /// [`TimeSeries`](crate::TimeSeries) records telemetry, and
    /// [`Tee`](crate::Tee) fans the stream out to two probes.
    pub fn probe<Q: Probe>(self, probe: Q) -> Simulator<'a, A, Q> {
        Simulator { app: self.app, platform: self.platform, probe }
    }

    /// Execute the run on the chosen backend. Consumes the builder and the
    /// attached probe; [`Self::run_probed`] hands the probe back.
    pub fn run(self, backend: Backend<'_>) -> Result<RunReport<A>, SimError> {
        Ok(self.run_probed(backend)?.0)
    }

    /// [`Self::run`], handing back the attached probe (every cluster's fork
    /// joined into it) with the report.
    pub fn run_probed(self, backend: Backend<'_>) -> Result<(RunReport<A>, P), SimError> {
        validate(self.app, &self.platform, &backend)?;
        let Simulator { app, platform, probe } = self;
        dispatch(app, &platform, &backend, probe)
    }
}

/// The one place a run's configuration is checked, on every backend: the
/// executives assume what passes here.
fn validate<A: Application>(
    app: &A,
    cfg: &PlatformConfig,
    backend: &Backend<'_>,
) -> Result<(), SimError> {
    let (kernel, cost) = (&cfg.kernel, &cfg.cost);
    // Zero would mean: state never saved, GVT never advanced, a collapsed
    // modeled time axis.
    for (field, value) in [
        ("checkpoint_interval", u64::from(kernel.checkpoint_interval)),
        ("gvt_period", kernel.gvt_period),
        ("cost.event_exec_ns", cost.event_exec_ns),
        ("cost.seq_event_ns", cost.seq_event_ns),
    ] {
        if value == 0 {
            return Err(SimError::InvalidConfig(format!("{field} must be >= 1")));
        }
    }
    let (assignment, parts, what) = match backend {
        Backend::Sequential => return Ok(()),
        Backend::Platform { assignment, nodes } => (*assignment, *nodes, "node"),
        Backend::Threaded { assignment, clusters } => (*assignment, *clusters, "cluster"),
    };
    if parts == 0 {
        return Err(SimError::InvalidConfig(format!("{what} count must be >= 1")));
    }
    if assignment.len() != app.num_lps() {
        return Err(SimError::InvalidConfig(format!(
            "assignment covers {} LPs but the application has {}",
            assignment.len(),
            app.num_lps()
        )));
    }
    if let Some(&bad) = assignment.iter().find(|&&p| (p as usize) >= parts) {
        return Err(SimError::InvalidConfig(format!(
            "assignment targets {what} {bad} but only {parts} {what}s exist"
        )));
    }
    Ok(())
}

fn dispatch<A: Application, P: Probe>(
    app: &A,
    cfg: &PlatformConfig,
    backend: &Backend<'_>,
    probe: P,
) -> Result<(RunReport<A>, P), SimError> {
    match *backend {
        Backend::Sequential => Ok(crate::sequential::sequential_core(app, probe)),
        Backend::Platform { assignment, nodes } => {
            crate::platform::platform_core(app, assignment, nodes, cfg, probe)
        }
        Backend::Threaded { assignment, clusters } => {
            crate::threaded::threaded_core(app, assignment, clusters, &cfg.kernel, probe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::probe::{ProbeEvent, Tee};
    use crate::series::TimeSeries;
    use crate::testkit::{round_robin, Ring, Tripwire};

    #[test]
    fn all_backends_agree_on_states() {
        let app = Ring { n: 12, hops: 40 };
        let asg = round_robin(12, 3);
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let plat =
            Simulator::new(&app).run(Backend::Platform { assignment: &asg, nodes: 3 }).unwrap();
        let thr =
            Simulator::new(&app).run(Backend::Threaded { assignment: &asg, clusters: 3 }).unwrap();
        assert_eq!(seq.states, plat.states);
        assert_eq!(seq.states, thr.states);
    }

    #[test]
    fn zero_parts_rejected() {
        let app = Ring { n: 4, hops: 5 };
        let err =
            Simulator::new(&app).run(Backend::Platform { assignment: &[], nodes: 0 }).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        let err = Simulator::new(&app)
            .run(Backend::Threaded { assignment: &[], clusters: 0 })
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        // The threaded edge must reject, not panic, on a short assignment
        // or an out-of-range cluster id: `validate` is the only check.
        for assignment in [&[0u32; 3][..], &[0, 1, 2, 0]] {
            let err = Simulator::new(&app)
                .run(Backend::Threaded { assignment, clusters: 2 })
                .unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{assignment:?}");
        }
    }

    /// A panic on a cluster thread is an error naming the cluster, with the
    /// peers torn down rather than left waiting; on the caller's own
    /// thread (sequential, platform) it is simply the caller's panic.
    #[test]
    fn a_panicking_application_is_an_error_on_threads_and_a_panic_elsewhere() {
        let app = Tripwire { ring: Ring { n: 12, hops: 40 }, lp: 5, seen: 10 };
        for clusters in [2, 4] {
            let asg = round_robin(12, clusters);
            let err = Simulator::new(&app)
                .run(Backend::Threaded { assignment: &asg, clusters })
                .unwrap_err();
            assert_eq!(err, SimError::ClusterPanicked { cluster: asg[5] as usize });
            assert_eq!(err.to_string(), format!("the thread of cluster {} panicked", asg[5]));
        }
        let asg = round_robin(12, 2);
        for backend in [Backend::Sequential, Backend::Platform { assignment: &asg, nodes: 2 }] {
            let run = || Simulator::new(&app).run(backend);
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err());
        }
    }

    #[test]
    fn zero_config_values_are_rejected_on_every_backend() {
        let app = Ring { n: 4, hops: 5 };
        let asg = round_robin(4, 2);
        let d = PlatformConfig::default();
        let zero_kernel = |kernel| PlatformConfig { kernel, ..d };
        let zero_cost = |cost| PlatformConfig { cost, ..d };
        let cases = [
            (
                "checkpoint_interval",
                zero_kernel(KernelConfig { checkpoint_interval: 0, ..d.kernel }),
            ),
            ("gvt_period", zero_kernel(KernelConfig { gvt_period: 0, ..d.kernel })),
            ("cost.event_exec_ns", zero_cost(CostModel { event_exec_ns: 0, ..d.cost })),
            ("cost.seq_event_ns", zero_cost(CostModel { seq_event_ns: 0, ..d.cost })),
        ];
        for (field, cfg) in &cases {
            for backend in [
                Backend::Sequential,
                Backend::Platform { assignment: &asg, nodes: 2 },
                Backend::Threaded { assignment: &asg, clusters: 2 },
            ] {
                let err = Simulator::new(&app).platform_config(cfg).run(backend).unwrap_err();
                assert_eq!(
                    err,
                    SimError::InvalidConfig(format!("{field} must be >= 1")),
                    "{backend:?}"
                );
            }
        }
    }

    #[test]
    fn recording_does_not_change_results() {
        let app = Ring { n: 12, hops: 40 };
        let asg = round_robin(12, 4);
        let bare =
            Simulator::new(&app).run(Backend::Platform { assignment: &asg, nodes: 4 }).unwrap();
        let recorded = Simulator::new(&app)
            .probe(TimeSeries::new(10))
            .run(Backend::Platform { assignment: &asg, nodes: 4 })
            .unwrap();
        assert_eq!(bare.states, recorded.states);
        assert_eq!(bare.stats, recorded.stats);
        assert_eq!(bare.outcome, recorded.outcome);
    }

    /// A custom probe composes with a recording one through a [`Tee`]
    /// (both observe every event) and comes back from `run_probed` with
    /// its forks joined.
    #[test]
    fn custom_probe_composes_with_a_time_series() {
        #[derive(Default)]
        struct CountBatches(u64);
        impl Probe for CountBatches {
            fn on(&mut self, event: ProbeEvent) {
                if let ProbeEvent::BatchExecuted { .. } = event {
                    self.0 += 1;
                }
            }
            fn fork(&mut self) -> CountBatches {
                CountBatches(0)
            }
            fn join(&mut self, child: CountBatches) {
                self.0 += child.0;
            }
        }

        let app = Ring { n: 8, hops: 20 };
        let asg = round_robin(8, 2);
        for backend in [
            Backend::Platform { assignment: &asg, nodes: 2 },
            Backend::Threaded { assignment: &asg, clusters: 2 },
        ] {
            let probe = Tee::new(CountBatches(0), TimeSeries::new(10));
            let (report, Tee { a: counted, b: series }) =
                Simulator::new(&app).probe(probe).run_probed(backend).unwrap();
            let batches = series.totals().counts.batches_executed;
            assert_eq!(batches, report.stats.batches_executed, "{backend:?}");
            assert_eq!(counted.0, report.stats.batches_executed, "{backend:?}");
        }
    }
}
