//! The gate-level model: [`ExecModel`] names an execution engine,
//! [`GateModel`] is the single [`Application`] that drives any kernel
//! executive with either of them. Models are built from a
//! [`SimConfig`](crate::SimConfig), the one description of a run.
//!
//! ```
//! use pls_gatesim::SimConfig;
//! use pls_netlist::IscasSynth;
//! use pls_timewarp::{Backend, Simulator};
//!
//! # fn main() -> Result<(), pls_gatesim::UnknownExecModel> {
//! let netlist = IscasSynth::small(120, 1).build();
//! let gate_cfg = SimConfig { end_time: 100, ..Default::default() };
//! let compiled_cfg = SimConfig { exec: "compiled".parse()?, ..gate_cfg.clone() };
//! assert_eq!(compiled_cfg.exec.to_string(), "compiled");
//! let gate = gate_cfg.build_app(&netlist);
//! let compiled = compiled_cfg.build_app(&netlist);
//! let a = Simulator::new(&gate).run(Backend::Sequential).unwrap();
//! let b = Simulator::new(&compiled).run(Backend::Sequential).unwrap();
//! assert_eq!(gate.fingerprint(&a.states), compiled.fingerprint(&b.states));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::str::FromStr;

use pls_timewarp::{Application, EventSink, LpId, VTime};

use crate::compiled::{BlockState, CompileOptions, CompiledSim};
use crate::gatelp::{GateMsg, GateSim, GateState};

/// Which execution engine a [`SimConfig`](crate::SimConfig) builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ExecModel {
    /// One Time Warp LP per gate (the classic mode; the oracle).
    #[default]
    GatePerLp,
    /// One LP per block of fused gates — combinational logic, DFFs and
    /// primary inputs all lowered in-block (see [`crate::compiled`]).
    CompiledBlocks(CompileOptions),
}

impl ExecModel {
    /// Canonical names accepted by [`FromStr`], for error messages/help.
    pub const NAMES: &'static [&'static str] = &["gate-per-lp", "compiled"];

    /// Canonical name of this model (round-trips through [`FromStr`]).
    pub fn name(&self) -> &'static str {
        match self {
            ExecModel::GatePerLp => "gate-per-lp",
            ExecModel::CompiledBlocks(_) => "compiled",
        }
    }
}

impl fmt::Display for ExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing an [`ExecModel`] name: lists the valid names
/// instead of leaving the caller to guess (the failure mode of stringly
/// selection APIs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExecModel(String);

impl fmt::Display for UnknownExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown exec model `{}` (valid: {})", self.0, ExecModel::NAMES.join(", "))
    }
}

impl std::error::Error for UnknownExecModel {}

impl FromStr for ExecModel {
    type Err = UnknownExecModel;

    fn from_str(s: &str) -> Result<ExecModel, UnknownExecModel> {
        match s {
            "gate-per-lp" | "gate" | "per-gate" => Ok(ExecModel::GatePerLp),
            "compiled" | "compiled-blocks" | "blocks" => {
                Ok(ExecModel::CompiledBlocks(CompileOptions::default()))
            }
            other => Err(UnknownExecModel(other.to_string())),
        }
    }
}

/// Per-LP state of a [`GateModel`]: a plain gate state or a compiled
/// block state, depending on the LP and mode.
#[derive(Debug, Clone)]
pub enum ModelState {
    /// A per-gate LP (every LP in gate mode).
    Gate(GateState),
    /// A compiled block LP (every LP in compiled mode). Boxed: a block
    /// state is a dozen buffers and there are few of them, while gate
    /// states come by the ten thousand and must not be sized for it.
    Block(Box<BlockState>),
}

// Every checkpoint, the sequential executive's state vector and every run
// report hold one of these per LP. (Debug builds add `GateState::history`.)
const _: () = assert!(
    std::mem::size_of::<ModelState>()
        <= 128 + cfg!(debug_assertions) as usize * std::mem::size_of::<Vec<(u64, char)>>()
);

impl ModelState {
    /// The gate state, if this LP is a per-gate LP.
    pub fn as_gate(&self) -> Option<&GateState> {
        match self {
            ModelState::Gate(g) => Some(g),
            ModelState::Block(_) => None,
        }
    }

    /// The block state, if this LP is a compiled block.
    pub fn as_block(&self) -> Option<&BlockState> {
        match self {
            ModelState::Gate(_) => None,
            ModelState::Block(b) => Some(b),
        }
    }
}

/// A gate-level simulation model in either execution mode — the
/// [`Application`] a [`SimConfig`](crate::SimConfig) builds. Committed
/// fingerprints are mode-independent: [`GateModel::fingerprint`] returns
/// per-*gate* hashes in netlist order for both engines.
#[derive(Debug)]
pub enum GateModel {
    /// One LP per gate.
    PerGate(GateSim),
    /// One LP per block of fused gates, DFFs and inputs.
    Compiled(CompiledSim),
}

impl GateModel {
    /// Which [`ExecModel`] built this (canonical name).
    pub fn exec_name(&self) -> &'static str {
        match self {
            GateModel::PerGate(_) => "gate-per-lp",
            GateModel::Compiled(_) => "compiled",
        }
    }

    /// Number of netlist gates behind the model (LPs beyond this, in
    /// gate mode, are replicas).
    pub fn num_gates(&self) -> usize {
        match self {
            GateModel::PerGate(sim) => sim.num_gates(),
            GateModel::Compiled(c) => c.num_gates(),
        }
    }

    /// Fingerprint of a run: every *gate's* committed output-transition
    /// hash, in netlist gate-id order — byte-identical across execution
    /// modes and executives for the same workload, with or without a
    /// replica plan (replica states/slots are never hashed).
    pub fn fingerprint(&self, states: &[ModelState]) -> Vec<u64> {
        match self {
            GateModel::PerGate(sim) => states
                .iter()
                .take(sim.num_gates())
                .map(|s| s.as_gate().expect("gate mode has per-gate states").trace_hash)
                .collect(),
            GateModel::Compiled(c) => c.fingerprint(states),
        }
    }

    /// Project a gate-level partition assignment (one part per netlist
    /// gate) onto this model's LPs, for `Backend::Platform`/`Threaded`.
    /// Replica LPs (gate mode) land in their target part.
    pub fn lp_assignment(&self, gate_parts: &[u32]) -> Vec<u32> {
        match self {
            GateModel::PerGate(sim) => sim.lp_assignment(gate_parts),
            GateModel::Compiled(c) => c.lp_assignment(gate_parts),
        }
    }
}

impl Application for GateModel {
    type Msg = GateMsg;
    type State = ModelState;

    fn num_lps(&self) -> usize {
        match self {
            GateModel::PerGate(sim) => sim.num_lps(),
            GateModel::Compiled(c) => c.num_lps(),
        }
    }

    fn init_state(&self, lp: LpId) -> ModelState {
        match self {
            GateModel::PerGate(sim) => ModelState::Gate(sim.init_state(lp)),
            GateModel::Compiled(c) => c.init_lp_state(lp),
        }
    }

    fn init_events(&self, lp: LpId, state: &mut ModelState, sink: &mut EventSink<GateMsg>) {
        match self {
            GateModel::PerGate(sim) => {
                let ModelState::Gate(g) = state else { unreachable!("gate mode state") };
                sim.init_events(lp, g, sink);
            }
            GateModel::Compiled(c) => c.init_events(lp, sink),
        }
    }

    fn execute(
        &self,
        lp: LpId,
        state: &mut ModelState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        match (self, state) {
            (GateModel::PerGate(sim), ModelState::Gate(g)) => sim.execute(lp, g, now, msgs, sink),
            (GateModel::Compiled(c), ModelState::Block(b)) => {
                c.execute_block(lp, b, now, msgs, sink);
            }
            (GateModel::PerGate(_), ModelState::Block(_)) => {
                unreachable!("block state under gate-per-LP model")
            }
            (GateModel::Compiled(_), ModelState::Gate(_)) => {
                unreachable!("compiled mode has only block states")
            }
        }
    }

    /// Gate states are copied whole, into the spare's buffers; block
    /// states file an incremental snapshot (`BlockState::snapshot`).
    /// Inlined into the kernel's batch loop with the gate arm first: a
    /// gate-per-LP run files one of these per event.
    #[inline]
    fn checkpoint(&self, live: &mut ModelState, spare: Option<ModelState>) -> ModelState {
        match live {
            ModelState::Gate(g) => match spare {
                Some(ModelState::Gate(mut s)) => {
                    s.clone_from(g);
                    ModelState::Gate(s)
                }
                _ => ModelState::Gate(g.clone()),
            },
            ModelState::Block(b) => ModelState::Block(b.snapshot(match spare {
                Some(ModelState::Block(s)) => Some(s),
                _ => None,
            })),
        }
    }

    #[inline]
    fn restore(&self, live: &mut ModelState, anchor: &ModelState, undone: &[ModelState]) {
        match (live, anchor) {
            (ModelState::Gate(g), ModelState::Gate(a)) => g.clone_from(a),
            (ModelState::Block(b), ModelState::Block(a)) => b.restore(
                a,
                undone.iter().map(|s| s.as_block().expect("a block LP files block checkpoints")),
            ),
            _ => unreachable!("an LP's checkpoints have its state's variant"),
        }
    }

    fn replicated_units(&self) -> u64 {
        match self {
            GateModel::PerGate(sim) => sim.replicated_units(),
            GateModel::Compiled(c) => c.num_replicas(),
        }
    }

    fn pinned_lps(&self) -> Vec<LpId> {
        match self {
            // Replica LPs must not migrate away from the part they serve.
            GateModel::PerGate(sim) => sim.pinned_lps(),
            // Compiled replicas ride inside their block LP; a migrating
            // block carries them along, so nothing needs pinning.
            GateModel::Compiled(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use pls_netlist::{GateId, IscasSynth, Netlist};
    use pls_partition::{
        plan_replication, CircuitGraph, Partitioner, RandomPartitioner, ReplicationConfig,
    };
    use pls_timewarp::{Backend, Cancellation, KernelConfig, Simulator};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    fn cfg(end_time: u64) -> SimConfig {
        SimConfig { end_time, ..Default::default() }
    }

    /// A workload with cut hub nets, its partitioning, and a non-empty plan.
    /// Random partitioning guarantees plenty of profitable candidates.
    fn replicated_setup() -> (Netlist, Vec<u32>, Vec<(GateId, u32)>) {
        let netlist = IscasSynth::small(300, 5).build();
        let g = CircuitGraph::from_netlist(&netlist);
        let p = RandomPartitioner.partition(&g, 4, 0);
        let plan = plan_replication(&g, &p, &ReplicationConfig::default());
        assert!(!plan.is_empty(), "hub nets must attract replicas");
        (netlist, p.assignment.clone(), plan.pairs())
    }

    #[test]
    fn replicated_models_match_the_unreplicated_oracle_in_both_modes() {
        let (netlist, parts, pairs) = replicated_setup();
        let oracle = crate::run_seq_baseline(&netlist, &cfg(200)).fingerprint;
        let execs = [
            ExecModel::GatePerLp,
            ExecModel::CompiledBlocks(CompileOptions { blocks: Some(parts.clone()) }),
        ];
        for exec in execs {
            let app = SimConfig { exec, ..cfg(200) }.construct(&netlist, Some(&parts), &pairs);
            assert_eq!(app.replicated_units(), pairs.len() as u64);
            let r = Simulator::new(&app).run(Backend::Sequential).unwrap();
            assert_eq!(
                app.fingerprint(&r.states),
                oracle,
                "{} replicated run diverged from the unreplicated oracle",
                app.exec_name()
            );
            assert_eq!(r.stats.replicated_gates, app.replicated_units());
            assert!(r.stats.messages_saved > 0, "{}: replicas never fired", app.exec_name());
        }
    }

    #[test]
    fn replica_lps_are_pinned_and_assigned_to_their_target_part() {
        let (netlist, parts, pairs) = replicated_setup();
        let app = cfg(100).construct(&netlist, Some(&parts), &pairs);
        let n = netlist.len();
        assert_eq!(app.num_lps(), n + pairs.len());
        assert_eq!(app.num_gates(), n);
        let pinned = app.pinned_lps();
        assert_eq!(pinned, (n as LpId..(n + pairs.len()) as LpId).collect::<Vec<_>>());
        let asg = app.lp_assignment(&parts);
        for (i, &(_, q)) in pairs.iter().enumerate() {
            assert_eq!(asg[n + i], q, "replica {i} must live in its target part");
        }
        // Compiled mode fuses replicas: no extra LPs, nothing pinned.
        let compiled =
            SimConfig { exec: ExecModel::CompiledBlocks(Default::default()), ..cfg(100) }
                .construct(&netlist, Some(&parts), &pairs);
        assert!(compiled.pinned_lps().is_empty());
        assert_eq!(compiled.lp_assignment(&parts).len(), compiled.num_lps());
    }

    #[test]
    fn input_replicas_replay_the_same_stimulus_stream() {
        use pls_netlist::bench_format::parse;
        // A primary input read by two gates placed in a foreign part.
        let netlist =
            parse("fan", "INPUT(A)\nOUTPUT(B)\nOUTPUT(C)\nB = NOT(A)\nC = BUFF(A)\n").unwrap();
        let a = netlist.find("A").unwrap();
        let parts = vec![0u32, 1, 1];
        let oracle = crate::run_seq_baseline(&netlist, &cfg(200)).fingerprint;
        // The hand-written plan is the point: the one construction function.
        let app = cfg(200).construct(&netlist, Some(&parts), &[(a, 1)]);
        let r = Simulator::new(&app).run(Backend::Sequential).unwrap();
        assert_eq!(app.fingerprint(&r.states), oracle);
        assert!(r.stats.messages_saved > 0);
    }

    /// Runs a gate-per-LP [`GateModel`] while swapping, at seeded
    /// activations, the live state of an LP for a checkpoint filed through
    /// [`Application::checkpoint`] into a recycled state — what the kernel's
    /// checkpoint pool does to a retired state. The recycled state starts as
    /// the *final* state of a finished run of *another* LP: dirty, and of
    /// another size.
    struct Recycler {
        inner: GateModel,
        retired: Vec<ModelState>,
        seed: u64,
    }

    #[derive(Clone)]
    struct Recycling {
        live: ModelState,
        spare: Option<ModelState>,
        rng: u64,
    }

    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl Application for Recycler {
        type Msg = GateMsg;
        type State = Recycling;

        fn num_lps(&self) -> usize {
            self.inner.num_lps()
        }
        fn init_state(&self, lp: LpId) -> Recycling {
            let donor = (lp as usize + 1) % self.retired.len();
            Recycling {
                live: self.inner.init_state(lp),
                spare: Some(self.retired[donor].clone()),
                rng: self.seed ^ u64::from(lp),
            }
        }
        fn init_events(&self, lp: LpId, state: &mut Recycling, sink: &mut EventSink<GateMsg>) {
            self.inner.init_events(lp, &mut state.live, sink);
        }
        fn execute(
            &self,
            lp: LpId,
            state: &mut Recycling,
            now: VTime,
            msgs: &[(LpId, GateMsg)],
            sink: &mut EventSink<GateMsg>,
        ) {
            self.inner.execute(lp, &mut state.live, now, msgs, sink);
            if splitmix64(&mut state.rng).is_multiple_of(3) {
                let copy = self.inner.checkpoint(&mut state.live, state.spare.take());
                assert_eq!(
                    format!("{copy:?}"),
                    format!("{:?}", state.live.clone()),
                    "LP {lp} at {now}"
                );
                // The rest of the run continues on the recycled copy.
                state.spare = Some(std::mem::replace(&mut state.live, copy));
            }
        }
    }

    #[test]
    fn a_gate_checkpoint_in_a_recycled_state_equals_a_fresh_clone() {
        let netlist = IscasSynth::small(300, 5).build();
        let build = || cfg(300).build_app(&netlist);
        let plain = build();
        let oracle = Simulator::new(&plain).run(Backend::Sequential).unwrap();
        let sizes: std::collections::BTreeSet<usize> =
            oracle.states.iter().map(|s| format!("{s:?}").len()).collect();
        assert!(sizes.len() > 1, "every state has one size");
        for seed in 0..8 {
            let app = Recycler { inner: build(), retired: oracle.states.clone(), seed };
            let run = Simulator::new(&app).run(Backend::Sequential).unwrap();
            let live: Vec<ModelState> = run.states.into_iter().map(|s| s.live).collect();
            assert_eq!(
                app.inner.fingerprint(&live),
                plain.fingerprint(&oracle.states),
                "seed {seed}: a recycled state changed the run"
            );
        }
    }

    /// A compiled [`GateModel`] whose every checkpoint also carries a full
    /// `clone()` of the live state taken as it was filed, so that `restore`
    /// can compare what the journal rebuilt with it, field for field. The
    /// kernel supplies real rollbacks, anchors and recycled spares; the
    /// counters say which cases a run reached.
    struct Audit {
        inner: GateModel,
        restores: AtomicU64,
        to_initial: AtomicU64,
        through_open_interval: AtomicU64,
        across_checkpoints: AtomicU64,
        foreign_spares: AtomicU64,
    }

    #[derive(Clone)]
    struct Audited {
        model: ModelState,
        /// In a checkpoint: the live state when it was filed.
        reference: Option<ModelState>,
        /// In a checkpoint: how many this LP had filed before it. In a live
        /// state: how many it has filed.
        filed: u64,
        /// Batches executed since the last checkpoint or restore.
        open: u32,
    }

    fn block(s: &ModelState) -> &BlockState {
        s.as_block().expect("compiled model")
    }

    impl Application for Audit {
        type Msg = GateMsg;
        type State = Audited;

        fn num_lps(&self) -> usize {
            self.inner.num_lps()
        }
        fn init_state(&self, lp: LpId) -> Audited {
            Audited { model: self.inner.init_state(lp), reference: None, filed: 0, open: 0 }
        }
        fn init_events(&self, lp: LpId, state: &mut Audited, sink: &mut EventSink<GateMsg>) {
            self.inner.init_events(lp, &mut state.model, sink);
        }
        fn execute(
            &self,
            lp: LpId,
            state: &mut Audited,
            now: VTime,
            msgs: &[(LpId, GateMsg)],
            sink: &mut EventSink<GateMsg>,
        ) {
            self.inner.execute(lp, &mut state.model, now, msgs, sink);
            state.open += 1;
        }

        fn checkpoint(&self, live: &mut Audited, spare: Option<Audited>) -> Audited {
            let spare = spare.map(|s| s.model);
            if spare.as_ref().is_some_and(|s| block(s).vals.len() != block(&live.model).vals.len())
            {
                self.foreign_spares.fetch_add(1, Relaxed);
            }
            let model = self.inner.checkpoint(&mut live.model, spare);
            // What the checkpoint may hold: the live state's small fields
            // and scratch, plus the journal it took over — never a per-slot
            // array.
            let (snap, now) = (block(&model), block(&live.model));
            assert!(
                snap.heap_bytes() <= now.heap_bytes() - now.per_slot_bytes() + snap.journal_bytes(),
                "a {} B checkpoint of a {} B state with {} B per slot and a {} B journal",
                snap.heap_bytes(),
                now.heap_bytes(),
                now.per_slot_bytes(),
                snap.journal_bytes()
            );
            let filed = live.filed;
            live.filed += 1;
            live.open = 0;
            Audited { model, reference: Some(live.model.clone()), filed, open: 0 }
        }

        fn restore(&self, live: &mut Audited, anchor: &Audited, undone: &[Audited]) {
            self.restores.fetch_add(1, Relaxed);
            self.to_initial.fetch_add(u64::from(anchor.filed == 0), Relaxed);
            self.through_open_interval.fetch_add(u64::from(live.open > 0), Relaxed);
            self.across_checkpoints.fetch_add(u64::from(undone.len() > 1), Relaxed);
            assert!(
                undone.iter().map(|s| s.filed).eq(anchor.filed + 1..live.filed),
                "`undone` is every later checkpoint, oldest first"
            );
            let undone: Vec<ModelState> = undone.iter().map(|s| s.model.clone()).collect();
            self.inner.restore(&mut live.model, &anchor.model, &undone);
            assert_eq!(
                format!("{:?}", live.model),
                format!("{:?}", anchor.reference.as_ref().expect("anchors are checkpoints")),
                "restore to checkpoint {} from {} ({} batches open)",
                anchor.filed,
                live.filed,
                live.open
            );
            live.filed = anchor.filed + 1;
            live.open = 0;
        }
    }

    #[test]
    fn a_journaled_restore_equals_the_full_clone_taken_at_the_anchor() {
        let mut reached = [0u64; 5];
        for (seed, interval, cancellation) in [
            (3u64, 1u32, Cancellation::Aggressive),
            (4, 1, Cancellation::Lazy),
            (5, 3, Cancellation::Aggressive),
            (6, 3, Cancellation::Lazy),
        ] {
            let netlist = IscasSynth::small(260, seed).build();
            let g = CircuitGraph::from_netlist(&netlist);
            // Five blocks of unequal size on three nodes: the blocks of a
            // node share its checkpoint pool.
            let mut blocks = RandomPartitioner.partition(&g, 5, seed).assignment;
            for b in blocks.iter_mut().step_by(3) {
                *b = 0;
            }
            let exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(blocks.clone()) });
            let build = || SimConfig { exec: exec.clone(), ..cfg(200) }.build_app(&netlist);
            let plain = build();
            let oracle = Simulator::new(&plain).run(Backend::Sequential).unwrap();
            let sizes: std::collections::BTreeSet<usize> =
                oracle.states.iter().map(|s| block(s).vals.len()).collect();
            assert!(sizes.len() > 2, "blocks must differ in size");

            let app = Audit {
                inner: build(),
                restores: AtomicU64::new(0),
                to_initial: AtomicU64::new(0),
                through_open_interval: AtomicU64::new(0),
                across_checkpoints: AtomicU64::new(0),
                foreign_spares: AtomicU64::new(0),
            };
            let kernel = KernelConfig {
                cancellation,
                checkpoint_interval: interval,
                gvt_period: 16,
                ..Default::default()
            };
            let assignment: Vec<u32> = (0..plain.num_lps() as u32).map(|lp| lp % 3).collect();
            let run = Simulator::new(&app)
                .config(kernel)
                .run(Backend::Platform { assignment: &assignment, nodes: 3 })
                .unwrap();
            let live: Vec<ModelState> = run.states.into_iter().map(|s| s.model).collect();
            assert_eq!(
                app.inner.fingerprint(&live),
                plain.fingerprint(&oracle.states),
                "seed {seed} interval {interval} {cancellation:?}"
            );
            assert_eq!(app.restores.load(Relaxed), run.stats.rollbacks());
            let counters = [
                &app.restores,
                &app.to_initial,
                &app.through_open_interval,
                &app.across_checkpoints,
                &app.foreign_spares,
            ];
            for (total, c) in reached.iter_mut().zip(counters) {
                *total += c.load(Relaxed);
            }
            if interval == 1 {
                assert_eq!(app.through_open_interval.load(Relaxed), 0);
            }
        }
        let [restores, to_initial, open, across, foreign] = reached;
        println!(
            "{restores} restores: {to_initial} to the initial state, {open} through an open \
             interval, {across} across several checkpoints; {foreign} foreign spares"
        );
        assert!(to_initial > 0, "no rollback reached an initial state");
        assert!(open > 0, "no rollback began in an un-checkpointed interval");
        assert!(across > 0, "no rollback discarded more than one checkpoint");
        assert!(foreign > 0, "no checkpoint was built in another block's retired one");
    }

    /// Not a limit to defend, a number to see move: one of these per LP is
    /// what a gate-per-LP cluster walks on every pass over its residents.
    #[test]
    fn lp_runtime_size_is_known() {
        let size = std::mem::size_of::<pls_timewarp::lp::LpRuntime<GateModel>>();
        println!("size_of::<LpRuntime<GateModel>>() = {size} B");
        let debug_only = std::mem::size_of::<Vec<(u64, char)>>() + std::mem::size_of::<u64>();
        assert!(size <= 480 + cfg!(debug_assertions) as usize * debug_only, "{size} B");
    }
}
