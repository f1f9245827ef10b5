//! The five workloads: which circuit, which execution model, which
//! executive. Everything else a run is configured with stays
//! `Default::default()`, so a later change of defaults is measured as
//! users would see it.

use pls_gatesim::{CompileOptions, ExecModel, SimConfig};
use pls_logic::StimulusConfig;
use pls_netlist::IscasSynth;
use pls_partition::ReplicationConfig;
use pls_timewarp::Backend;

/// The circuit profile a workload generates (the generator's own seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    /// The paper's s9234 profile (5 844 gates with DFFs and inputs).
    S9234,
    /// The paper's s15850 profile (10 383 gates).
    S15850,
    /// 100 000 gates with the s15850 interface ratios.
    Synth100k,
    /// ~300 gates: the `--smoke` stand-in for any of the above.
    Smoke,
}

/// The executive a workload runs on, sized to the workload's part count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executive {
    /// `Backend::Sequential`.
    Sequential,
    /// `Backend::Platform`, one modeled node per part.
    Platform,
    /// `Backend::Threaded`, one OS thread per part.
    Threaded,
}

/// One workload. Fields not named here are library defaults.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (the `--workload` argument and the `BENCHMARK.json` row).
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Circuit profile.
    pub circuit: Circuit,
    /// Compiled blocks (one per part) instead of one LP per gate.
    pub compiled: bool,
    /// Plan and apply logic replication with `ReplicationConfig::default()`.
    pub replicated: bool,
    /// Multilevel part count `k` = nodes = clusters = compiled blocks.
    pub parts: usize,
    /// Executive.
    pub executive: Executive,
    /// Virtual-time horizon.
    pub end_time: u64,
    /// Stimulus streams a run cycles through (iteration `i` simulates
    /// stream `i mod stimuli`) and averages over. Reseeding the stimulus
    /// moves the simulated work by 6–8 % from seed to seed on a horizon of
    /// 10–120 stimulus ticks and by under 1 % on one of thousands, so the
    /// short horizons average four streams and the long ones use one.
    pub stimuli: usize,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_s15850_p8",
        why: "The paper's own cell: s15850 gate-per-LP, Multilevel k=8, platform executive; rollback-heavy run is ~94% of the iteration, so kernel hot-path changes show here and partition quality moves modeled_s.",
        circuit: Circuit::S15850,
        compiled: false,
        replicated: false,
        parts: 8,
        executive: Executive::Platform,
        end_time: 1200,
        stimuli: 4,
    },
    Workload {
        name: "frontend_100k",
        why: "100k gates, compiled blocks, replication, short horizon: parse, partition and compile are ~90% of the iteration, so front-end speed-ups show only here; the one row big enough for peak RSS to matter.",
        circuit: Circuit::Synth100k,
        compiled: true,
        replicated: true,
        parts: 8,
        executive: Executive::Platform,
        end_time: 100,
        stimuli: 4,
    },
    Workload {
        name: "threaded_gates_c2",
        why: "Threaded executive with 5.8k thin LPs on 2 clusters: LP scheduling, routing and flush-and-barrier GVT are >95% of the iteration; far slower than the sequential run of the same model today.",
        circuit: Circuit::S9234,
        compiled: false,
        replicated: false,
        parts: 2,
        executive: Executive::Threaded,
        end_time: 400,
        stimuli: 4,
    },
    Workload {
        name: "threaded_compiled_c2",
        why: "Same executive used the opposite way: 2 fat compiled-block LPs, so op sweeps, state copies and channel batches dominate; a gain for thin LPs that costs fat LPs shows as one row up, one down.",
        circuit: Circuit::S15850,
        compiled: true,
        replicated: false,
        parts: 2,
        executive: Executive::Threaded,
        end_time: 20_000,
        stimuli: 1,
    },
    Workload {
        name: "compiled_seq_long",
        why: "s15850 as a single compiled block on the sequential executive, long horizon: op evaluation is >90% and Time Warp machinery is absent; kernel-protocol changes must leave this row flat.",
        circuit: Circuit::S15850,
        compiled: true,
        replicated: false,
        parts: 1,
        executive: Executive::Sequential,
        end_time: 40_000,
        stimuli: 1,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: a ~300-gate circuit and a horizon of at
    /// most 200, so the harness tests drive every code path of every
    /// workload in seconds.
    pub fn shrunk(&self) -> Workload {
        Workload { circuit: Circuit::Smoke, end_time: self.end_time.min(200), ..*self }
    }

    /// The circuit under test. It is the same on every run: `--seed`
    /// varies the stimulus only. Reseeding the generator as well moves
    /// event counts, wall time and modeled time by ±20 % from seed to
    /// seed (measured on `paper_s15850_p8`), which would force every
    /// regression bound wider than the regressions worth catching.
    pub fn synth(&self) -> IscasSynth {
        match self.circuit {
            Circuit::S9234 => IscasSynth::s9234(),
            Circuit::S15850 => IscasSynth::s15850(),
            Circuit::Synth100k => {
                let gates = 100_000;
                IscasSynth::new("synth100k", gates / 150, gates, gates / 70)
            }
            Circuit::Smoke => IscasSynth::small(300, 1),
        }
    }

    /// The configuration handed to the library for stimulus stream
    /// `stream` of run seed `seed`: defaults except the horizon, the
    /// stimulus seed, the execution model and replication.
    pub fn sim_config(&self, seed: u64, stream: usize) -> SimConfig {
        // Distinct run seeds own disjoint sets of stimulus seeds.
        let stim_seed = seed.wrapping_mul(self.stimuli as u64).wrapping_add(stream as u64);
        SimConfig {
            end_time: self.end_time,
            stim: StimulusConfig { seed: stim_seed, ..Default::default() },
            exec: if self.compiled {
                ExecModel::CompiledBlocks(CompileOptions::default())
            } else {
                ExecModel::GatePerLp
            },
            replication: self.replicated.then(ReplicationConfig::default),
            ..Default::default()
        }
    }

    /// The configuration of the oracle: the same testbench, one LP per
    /// gate, no replication, run on the sequential executive.
    pub fn oracle_config(&self, seed: u64, stream: usize) -> SimConfig {
        SimConfig { exec: ExecModel::GatePerLp, replication: None, ..self.sim_config(seed, stream) }
    }

    /// The backend for a built model's LP assignment.
    pub fn backend<'a>(&self, assignment: &'a [u32]) -> Backend<'a> {
        match self.executive {
            Executive::Sequential => Backend::Sequential,
            Executive::Platform => Backend::Platform { assignment, nodes: self.parts },
            Executive::Threaded => Backend::Threaded { assignment, clusters: self.parts },
        }
    }

    /// Whether every count and the modeled time must repeat exactly from
    /// iteration to iteration (true except on real threads, where the
    /// interleaving decides how much optimistic work is wasted).
    pub fn deterministic(&self) -> bool {
        self.executive != Executive::Threaded
    }
}
