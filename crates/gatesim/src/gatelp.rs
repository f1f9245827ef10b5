//! The gate-level simulation model: one Time Warp LP per gate.
//!
//! Mirrors the paper's framework, where every elaborated VHDL process
//! becomes a WARPED logical process and signal assignments become events:
//!
//! * a **primary input** LP self-schedules stimulus ticks and broadcasts
//!   value changes to its readers (the testbench process);
//! * a **combinational gate** LP re-evaluates on input changes and emits
//!   an output event after its gate delay when the value changed;
//! * a **DFF** LP samples its D input at clock-edge times, but only
//!   schedules a sampling tick when its D input actually changed since the
//!   last edge (activity-driven clocking). This produces exactly the same
//!   Q waveform as ticking on every edge — an edge with an unchanged D
//!   emits nothing — while avoiding both a global clock net (whose fanout
//!   would serialize every partitioning equally) and a free-running local
//!   tick treadmill that would let idle nodes race optimistically to the
//!   horizon and mass-rollback. Both are the standard tricks in Time Warp
//!   logic simulation.
//!
//! Every LP keeps a rolling FNV hash of its output transitions in its
//! state. Since state is checkpointed and rolled back by the kernel, the
//! hash of the *committed* history is identical across executives — the
//! cross-kernel equivalence oracle used throughout the test suite.
//!
//! The kernel copies a gate's state at every checkpoint and every
//! rollback, so [`GateState`] is 32 bytes: the output, the hash and the
//! transition count, plus one slot for what only the gate's kind uses — a
//! combinational gate's input pins, packed two bits each ([`PackedPins`],
//! evaluated by popcount), a primary input's stimulus stream, or a DFF's D
//! value and pending tick. Pins of a gate with at most 32 inputs and a
//! DFF's fields sit inline, so checkpointing such a gate is one flat copy;
//! a primary input's stream and the pins of a gate with 33 to 255 inputs
//! are boxed, and only their checkpoints allocate (77 of s15850's 10 994
//! LPs are inputs, and none of its gates is that wide).
//! The fan-out table the LPs send through is one [`Csr`] (`readers`).
//!
//! The compiled block executive ([`crate::compiled`]) replicates the
//! primary-input and DFF step semantics below element-by-element inside
//! its fused blocks (same streams, same sampling and emission times,
//! same trace-hash folds), so committed fingerprints are byte-identical
//! between the modes — this file is the semantic reference.
//!
//! # Logic replication (gate-per-LP)
//!
//! A replica plan from `pls-partition` duplicates small high-fanout
//! combinational gates (and primary inputs) into the parts that read
//! them. Here each planned `(gate, part)` pair becomes an extra LP with
//! id `num_gates + i`: it has the same kind, delay and fanin shape as
//! its home gate, receives the same fanin transitions at the same
//! virtual times (its pins are registered as readers of the home
//! drivers — or of their same-part replicas), and therefore produces
//! the identical output waveform. Readers whose part holds a replica of
//! their driver are rewired to the replica, so the home copy's remote
//! messages to that part disappear; every replica emission declares the
//! elided sends via [`EventSink::note_messages_saved`]. Committed
//! fingerprints hash only the first `num_gates` states, so replication
//! is invisible to the determinism oracle. Replica LPs pin themselves
//! against dynamic load balancing ([`Application::pinned_lps`]):
//! migrating one would reintroduce the boundary traffic it removes.

use std::collections::BTreeMap;

use pls_logic::{InputStream, PackedPins, StimulusConfig, Value};
use pls_netlist::{Csr, GateId, GateKind, Netlist};
use pls_timewarp::{Application, EventSink, LpId, VTime};

use crate::experiment::SimConfig;

/// A signal-change or self-schedule message.
#[derive(Debug, Clone, PartialEq)]
pub enum GateMsg {
    /// The driver of input pin `pin` changed to `value`.
    Wire {
        /// Input pin index of the receiving gate.
        pin: u8,
        /// New value.
        value: Value,
    },
    /// Compiled mode only: external driver `port` of a block LP changed.
    /// One `Port` message updates the port slot for every reading pin
    /// inside the block, so ports are indexed per block, not per pin.
    Port {
        /// Port slot index of the receiving block LP.
        port: u32,
        /// New value.
        value: Value,
    },
    /// Compiled mode only: a bundle of same-arrival port updates. When
    /// one block activation changes several drivers read by the same
    /// foreign block with the same transport delay, all of them ride in
    /// one kernel message instead of one event per driver.
    Ports {
        /// `(port slot, new value)` pairs, in the sender's emission
        /// order; ports are distinct (an element publishes at most once
        /// per activation).
        updates: Vec<(u32, Value)>,
    },
    /// Self-scheduled tick: stimulus step for inputs, clock edge for DFFs,
    /// pending internal transition for compiled blocks.
    SelfTick,
}

/// The FNV-1a offset basis every trace hash starts from.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step folding an output transition `(time, value)` into a
/// rolling trace hash. Both execution modes hash through this single
/// definition so committed fingerprints are byte-identical across them.
pub(crate) fn fnv_step(h: u64, t: VTime, v: Value) -> u64 {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let h = (h ^ t.ticks()).wrapping_mul(FNV_PRIME);
    (h ^ v as u64).wrapping_mul(FNV_PRIME)
}

/// What only one kind of gate keeps: the fields the other kinds do not
/// use share this one 16-byte slot of [`GateState`].
#[derive(Debug)]
enum Role {
    /// A combinational gate of at most 32 inputs: the current value of
    /// every input pin, inline.
    Narrow(PackedPins<1>),
    /// A combinational gate of 33 to 255 inputs: the same, boxed.
    Wide(Box<PackedPins<8>>),
    /// A primary input: its deterministic stimulus stream (part of state
    /// so rollbacks rewind the stream with everything else), boxed.
    Input(Box<InputStream>),
    /// A DFF: the current value of its D input, and the pending
    /// activity-driven sampling tick.
    Dff {
        /// Current D input.
        d: Value,
        /// Armed sampling tick, [`VTime::INF`] when none is (the compiled
        /// engine's `next_sample` convention).
        next_tick: VTime,
    },
}

impl Clone for Role {
    #[inline]
    fn clone(&self) -> Role {
        match self {
            Role::Narrow(pins) => Role::Narrow(*pins),
            Role::Wide(pins) => Role::Wide(pins.clone()),
            Role::Input(stream) => Role::Input(stream.clone()),
            &Role::Dff { d, next_tick } => Role::Dff { d, next_tick },
        }
    }

    /// Copies a boxed role into `self`'s box when both have the same kind,
    /// so a checkpoint or restore of a primary input or a wide gate through
    /// a spare allocates nothing (the derived `clone_from` would).
    #[inline]
    fn clone_from(&mut self, source: &Role) {
        match (self, source) {
            (Role::Wide(mine), Role::Wide(theirs)) => mine.clone_from(theirs),
            (Role::Input(mine), Role::Input(theirs)) => mine.clone_from(theirs),
            (me, _) => *me = source.clone(),
        }
    }
}

/// Per-gate LP state, 32 bytes. `Clone` is the checkpoint operation: one
/// flat copy, plus one allocation for a primary input or a gate wider
/// than 32 inputs (see the module docs); `clone_from` into a state of the
/// same gate reuses that allocation.
/// (No `PartialEq`: the stimulus stream's RNG is not comparable; run
/// equivalence is checked through [`GateState::trace_hash`] fingerprints
/// instead.)
#[derive(Debug)]
pub struct GateState {
    /// Pins, stimulus stream or D input and tick, by the gate's kind.
    role: Role,
    /// Last value scheduled on the output.
    pub output: Value,
    /// FNV-1a rolling hash of `(time, output)` transitions.
    pub trace_hash: u64,
    /// Number of output transitions produced.
    pub transitions: u32,
}

impl Clone for GateState {
    #[inline]
    fn clone(&self) -> GateState {
        GateState {
            role: self.role.clone(),
            output: self.output,
            trace_hash: self.trace_hash,
            transitions: self.transitions,
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &GateState) {
        self.role.clone_from(&source.role);
        self.output = source.output;
        self.trace_hash = source.trace_hash;
        self.transitions = source.transitions;
    }
}

impl GateState {
    fn fresh(role: Role) -> GateState {
        GateState { role, output: Value::X, trace_hash: FNV_BASIS, transitions: 0 }
    }

    /// Bytes this state owns beyond its 32 inline ones: the box of a
    /// primary input or of a gate wider than 32 pins, none otherwise.
    #[inline]
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.role {
            Role::Narrow(_) | Role::Dff { .. } => 0,
            Role::Wide(pins) => std::mem::size_of_val(&**pins),
            Role::Input(stream) => std::mem::size_of_val(&**stream),
        }
    }

    /// Address of the box this state owns, if any: two states that share
    /// one allocation over time report the same address.
    #[cfg(test)]
    pub(crate) fn heap_address(&self) -> Option<*const u8> {
        match &self.role {
            Role::Narrow(_) | Role::Dff { .. } => None,
            Role::Wide(pins) => Some(std::ptr::from_ref(&**pins).cast()),
            Role::Input(stream) => Some(std::ptr::from_ref(&**stream).cast()),
        }
    }

    fn note_transition(&mut self, now: VTime, v: Value) {
        self.trace_hash = fnv_step(self.trace_hash, now, v);
        self.transitions =
            self.transitions.checked_add(1).expect("invariant: a gate makes < 2^32 transitions");
    }
}

/// Self-tick configuration of primary inputs and DFFs, shared by both
/// execution modes (one LP each here, elements lowered into the blocks
/// in [`crate::compiled`]): stimulus cadence, clock edges, horizon.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickCfg {
    /// Stimulus period for primary inputs (at least 1).
    pub stim_period: u64,
    /// Clock period for DFF self-ticks (at least 1).
    pub clock_period: u64,
    /// Clock phase offset (first tick).
    pub clock_offset: u64,
    /// No stimulus or clock tick is scheduled past this virtual time; the
    /// event population then drains and the simulation terminates.
    pub end_time: VTime,
}

impl TickCfg {
    pub(crate) fn new(cfg: &SimConfig) -> TickCfg {
        TickCfg {
            stim_period: cfg.stim.period.max(1),
            clock_period: cfg.clock_period.max(1),
            clock_offset: (cfg.clock_period / 2).max(1),
            end_time: VTime::ZERO.after(cfg.end_time),
        }
    }

    /// First clock edge strictly after `now` (edges at
    /// `clock_offset + i * clock_period`).
    pub(crate) fn next_clock_edge(&self, now: VTime) -> VTime {
        now.next_edge(self.clock_offset, self.clock_period)
    }
}

/// Static per-gate tables + configuration: the gate-per-LP [`Application`]
/// driving the Time Warp kernel. Construct through [`SimConfig`] (this
/// type is the [`crate::ExecModel::GatePerLp`] engine; the waveform
/// recorder also wraps it directly, via [`SimConfig::build_gate_sim`]).
#[derive(Debug)]
pub struct GateSim {
    kinds: Vec<GateKind>,
    /// `(reader LP, reader pin)` for every LP's output signal: LP `i`'s
    /// are row `i`, in LP order of the reader, then pin order.
    readers: Csr<(LpId, u8)>,
    fanin_len: Vec<u8>,
    delay: Vec<u64>,
    /// Stimulus stream configuration (primary inputs).
    stim: StimulusConfig,
    /// Index of each gate in the input list, if it is a primary input.
    input_index: Vec<Option<u32>>,
    /// Self-tick cadence and horizon.
    tick: TickCfg,
    /// Netlist gates (LPs `num_gates..` are replicas).
    num_gates: usize,
    /// Target part of each replica LP, in replica-id order (for
    /// [`Self::lp_assignment`]).
    replica_parts: Vec<u32>,
}

impl GateSim {
    /// Build the engine for `netlist` under `cfg`'s testbench, with a
    /// (possibly empty) replica plan applied: each `(gate, part)` pair of
    /// `replicas` becomes one extra replica LP (id `num_gates + i`),
    /// readers in `part` are rewired to it, and its own pins read the home
    /// drivers — or their same-part replicas, so replicated cones stay
    /// local. `gate_parts` is each gate's home part; a non-empty plan
    /// needs it.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "LP ids fit `u32` (`LpId` is `u32`) and pins `u8` (the parser caps fan-in at 255)"
    )]
    pub(crate) fn new(
        netlist: &Netlist,
        cfg: &SimConfig,
        gate_parts: Option<&[u32]>,
        replicas: &[(GateId, u32)],
    ) -> GateSim {
        let n = netlist.len();
        assert!(
            replicas.is_empty() || gate_parts.is_some_and(|p| p.len() == n),
            "a replica plan needs the home part of every gate"
        );
        let part_of = |g: GateId| gate_parts.map_or(0, |p| p[g as usize]);
        let replica_lp: BTreeMap<(GateId, u32), LpId> =
            replicas.iter().enumerate().map(|(i, &(g, q))| ((g, q), (n + i) as LpId)).collect();
        assert_eq!(replica_lp.len(), replicas.len(), "replica pairs must be distinct");
        for &(g, q) in replicas {
            assert!(!netlist.is_dff(g), "DFFs cannot be replicated");
            assert_ne!(part_of(g), q, "replica must land in a foreign part");
        }

        // The gate behind every LP and the part it sits in: the netlist's
        // gates at home, then the replicas in plan order.
        let lps = || netlist.ids().map(|g| (g, part_of(g))).chain(replicas.iter().copied());
        // Every LP's pins read the home drivers, or a replica of the
        // driver when the plan placed one in the LP's part.
        let src = |driver: GateId, part: u32| -> usize {
            replica_lp.get(&(driver, part)).copied().unwrap_or(driver) as usize
        };
        let pins = lps().enumerate().flat_map(|(lp, (g, part))| {
            netlist.fanin(g).iter().enumerate().map(move |(pin, &driver)| {
                // `GateKind::arity` caps fan-in at 255, so a pin fits a byte.
                (src(driver, part), (lp as LpId, pin as u8))
            })
        });
        let readers = Csr::by_row(n + replicas.len(), pins);
        let mut input_index = vec![None; n];
        for (ix, &g) in netlist.inputs().iter().enumerate() {
            input_index[g as usize] = Some(ix as u32);
        }
        for &(g, _) in replicas {
            input_index.push(input_index[g as usize]);
        }
        let gates = || lps().map(|(g, _)| (netlist.kind(g), netlist.fanin(g).len()));
        GateSim {
            kinds: gates().map(|(kind, _)| kind).collect(),
            readers,
            fanin_len: gates()
                .map(|(_, arity)| {
                    u8::try_from(arity).expect("`GateKind::arity` caps fan-in at 255")
                })
                .collect(),
            delay: gates().map(|(kind, arity)| cfg.delay.delay(kind, arity)).collect(),
            stim: cfg.stim,
            input_index,
            tick: TickCfg::new(cfg),
            num_gates: n,
            replica_parts: replicas.iter().map(|&(_, q)| q).collect(),
        }
    }

    /// Record a new output value of `lp`: update the state, fold the
    /// transition into the trace hash at its effective (post-delay) time,
    /// and schedule it on every reader pin.
    fn emit_output(
        &self,
        lp: LpId,
        state: &mut GateState,
        now: VTime,
        v: Value,
        sink: &mut EventSink<GateMsg>,
    ) {
        let delay = self.delay[lp as usize];
        state.output = v;
        state.note_transition(now.after(delay), v);
        let readers = self.readers.row(lp as usize);
        for &(reader, pin) in readers {
            sink.schedule(reader, delay, GateMsg::Wire { pin, value: v });
        }
        // A replica emission means the home copy's remote sends to this
        // part never happen: one elided boundary message per reader pin.
        if (lp as usize) >= self.num_gates {
            sink.note_messages_saved(readers.len() as u64);
        }
    }

    /// One batch of a primary-input LP: advance the stimulus stream per
    /// SelfTick, broadcast changes, and re-arm the next tick inside the
    /// horizon.
    fn step_input(
        &self,
        lp: LpId,
        state: &mut GateState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        // Only SelfTicks arrive here (inputs have no fanin).
        for (_, m) in msgs {
            debug_assert_eq!(*m, GateMsg::SelfTick);
            // First tick: drive the initial value.
            let first = state.transitions == 0 && state.output == Value::X;
            let Role::Input(stream) = &mut state.role else { unreachable!("input LP state") };
            let next = if first { Some(stream.initial()) } else { stream.tick() };
            if let Some(v) = next {
                self.emit_output(lp, state, now, v, sink);
            }
            if now.after(self.tick.stim_period) <= self.tick.end_time {
                sink.schedule(lp, self.tick.stim_period, GateMsg::SelfTick);
            }
        }
    }

    /// One batch of a DFF LP: sample D on a due clock edge (before applying
    /// any same-time D update — register semantics), then apply D changes and
    /// arm an activity-driven sampling tick at the next edge.
    fn step_dff(
        &self,
        lp: LpId,
        state: &mut GateState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        // Register semantics: a clock edge in this batch samples the D value
        // from *before* any same-time Wire update.
        let ticked = msgs.iter().any(|(_, m)| *m == GateMsg::SelfTick);
        let Role::Dff { mut d, mut next_tick } = state.role else { unreachable!("DFF LP state") };
        if ticked && next_tick == now {
            next_tick = VTime::INF;
            let q = d.input_view();
            if q != state.output {
                self.emit_output(lp, state, now, q, sink);
            }
        }
        for (_, m) in msgs {
            if let GateMsg::Wire { pin, value } = m {
                debug_assert_eq!(*pin, 0, "a DFF has one input");
                if d != *value {
                    d = *value;
                    // Activity-driven clocking: ensure a sampling tick at the
                    // next clock edge after `now`.
                    let edge = self.tick.next_clock_edge(now);
                    if edge <= self.tick.end_time && next_tick > edge {
                        next_tick = edge;
                        sink.schedule_at(lp, edge, GateMsg::SelfTick);
                    }
                }
            }
        }
        state.role = Role::Dff { d, next_tick };
    }

    /// Transport delay of an LP's gate.
    pub fn delay_of(&self, lp: LpId) -> u64 {
        self.delay[lp as usize]
    }

    /// Number of netlist gates (LPs beyond this are replicas).
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Project a per-gate part assignment onto all LPs: gates keep their
    /// part, each replica LP goes to its target part.
    pub fn lp_assignment(&self, gate_parts: &[u32]) -> Vec<u32> {
        assert_eq!(gate_parts.len(), self.num_gates, "assignment must cover every gate");
        let mut v = gate_parts.to_vec();
        v.extend_from_slice(&self.replica_parts);
        v
    }
}

impl Application for GateSim {
    type Msg = GateMsg;
    type State = GateState;

    fn num_lps(&self) -> usize {
        self.kinds.len()
    }

    fn init_state(&self, lp: LpId) -> GateState {
        let lp = lp as usize;
        GateState::fresh(match self.kinds[lp] {
            GateKind::Input => Role::Input(Box::new(
                self.stim.stream(self.input_index[lp].expect("inputs are indexed")),
            )),
            GateKind::Dff => Role::Dff { d: Value::X, next_tick: VTime::INF },
            _ => match self.fanin_len[lp] as usize {
                width if width <= PackedPins::<1>::CAPACITY => Role::Narrow(PackedPins::new(width)),
                width => Role::Wide(Box::new(PackedPins::new(width))),
            },
        })
    }

    fn init_events(&self, lp: LpId, _state: &mut GateState, sink: &mut EventSink<GateMsg>) {
        // Only inputs self-start; DFFs are activity-driven (their first
        // sampling tick is scheduled by the first D change).
        if self.kinds[lp as usize] == GateKind::Input {
            sink.schedule_at(lp, VTime::ZERO.after(1), GateMsg::SelfTick);
        }
    }

    fn execute(
        &self,
        lp: LpId,
        state: &mut GateState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        let kind = self.kinds[lp as usize];
        match kind {
            GateKind::Input => self.step_input(lp, state, now, msgs, sink),
            GateKind::Dff => self.step_dff(lp, state, now, msgs, sink),
            _ => {
                let width = self.fanin_len[lp as usize] as usize;
                let v = match &mut state.role {
                    Role::Narrow(pins) => settle(pins, kind, width, msgs),
                    Role::Wide(pins) => settle(pins, kind, width, msgs),
                    Role::Input(_) | Role::Dff { .. } => unreachable!("gate LP state"),
                };
                if v != state.output {
                    self.emit_output(lp, state, now, v, sink);
                }
            }
        }
    }

    fn replicated_units(&self) -> u64 {
        (self.kinds.len() - self.num_gates) as u64
    }

    #[allow(clippy::cast_possible_truncation, reason = "LP ids fit `u32`: `LpId` is `u32`")]
    fn pinned_lps(&self) -> Vec<LpId> {
        (self.num_gates as LpId..self.kinds.len() as LpId).collect()
    }
}

/// A combinational gate's batch: apply all pin updates, then evaluate
/// once.
fn settle<const W: usize>(
    pins: &mut PackedPins<W>,
    kind: GateKind,
    width: usize,
    msgs: &[(LpId, GateMsg)],
) -> Value {
    for (_, m) in msgs {
        match m {
            GateMsg::Wire { pin, value } => pins.set(*pin as usize, *value),
            GateMsg::Port { .. } | GateMsg::Ports { .. } => {
                unreachable!("per-gate LPs never receive Port")
            }
            GateMsg::SelfTick => unreachable!("combinational gates never tick"),
        }
    }
    pins.eval(kind, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_logic::DelayModel;
    use pls_netlist::bench_format::parse;
    use pls_timewarp::{Application, Backend, RunReport, Simulator};

    fn run_sequential<A: Application>(app: &A) -> RunReport<A> {
        Simulator::new(app).run(Backend::Sequential).unwrap()
    }

    fn sim(netlist: &Netlist, end: u64) -> GateSim {
        SimConfig {
            stim: StimulusConfig { seed: 7, period: 10, toggle_prob: 0.5 },
            end_time: end,
            ..Default::default()
        }
        .build_gate_sim(netlist)
    }

    #[test]
    fn inverter_chain_propagates() {
        let n = parse("chain", "INPUT(A)\nOUTPUT(C)\nB = NOT(A)\nC = NOT(B)\n").unwrap();
        let app = sim(&n, 100);
        let res = run_sequential(&app);
        // A drove values; B and C must have settled to non-X and be
        // consistent: C == NOT(NOT(A)) == A's last value... compare B vs C.
        let a = res.states[n.find("A").unwrap() as usize].output;
        let b = res.states[n.find("B").unwrap() as usize].output;
        let c = res.states[n.find("C").unwrap() as usize].output;
        assert!(a.is_known());
        assert_eq!(b, a.not());
        assert_eq!(c, a);
    }

    #[test]
    fn constant_input_produces_single_transition_per_gate() {
        // toggle_prob 0: the input drives once and holds.
        let n = parse("buf", "INPUT(A)\nOUTPUT(B)\nB = BUFF(A)\n").unwrap();
        let app = SimConfig {
            delay: DelayModel::Unit(1),
            stim: StimulusConfig { seed: 1, period: 10, toggle_prob: 0.0 },
            end_time: 200,
            ..Default::default()
        }
        .build_gate_sim(&n);
        let res = run_sequential(&app);
        let b = &res.states[n.find("B").unwrap() as usize];
        assert_eq!(b.transitions, 1, "B must change exactly once (X → value)");
    }

    #[test]
    fn dff_samples_on_clock_edges_only() {
        let n = parse("ff", "INPUT(D)\nOUTPUT(Q)\nQ = DFF(D)\n").unwrap();
        let app = sim(&n, 200);
        let res = run_sequential(&app);
        let q = &res.states[n.find("Q").unwrap() as usize];
        // Q transitions at most once per clock period (20 periods in 200).
        assert!(q.transitions <= 20, "Q changed {} times", q.transitions);
        assert!(q.transitions >= 1, "Q never left X");
    }

    #[test]
    fn event_population_drains_after_horizon() {
        let n = parse("chain", "INPUT(A)\nOUTPUT(C)\nB = NOT(A)\nC = NOT(B)\n").unwrap();
        let app = sim(&n, 50);
        let res = run_sequential(&app);
        // Nothing can execute later than horizon + total pipeline delay.
        assert!(res.outcome.end_time().unwrap().ticks() <= 50 + 4);
    }

    #[test]
    fn trace_hash_distinguishes_histories() {
        let n = parse("buf", "INPUT(A)\nOUTPUT(B)\nB = BUFF(A)\n").unwrap();
        let build = |seed| {
            SimConfig {
                delay: DelayModel::Unit(1),
                stim: StimulusConfig { seed, period: 10, toggle_prob: 0.5 },
                end_time: 200,
                ..Default::default()
            }
            .build_gate_sim(&n)
        };
        let app1 = build(1);
        let app2 = build(2);
        let h1 = run_sequential(&app1).states[1].trace_hash;
        let h2 = run_sequential(&app2).states[1].trace_hash;
        assert_ne!(h1, h2, "different stimulus must give different traces");
        let h1b = run_sequential(&app1).states[1].trace_hash;
        assert_eq!(h1, h1b, "same stimulus must reproduce the same trace");
    }

    #[test]
    fn s27_simulates_with_activity_everywhere() {
        let n = pls_netlist::data::s27();
        let app = sim(&n, 500);
        let res = run_sequential(&app);
        assert!(res.stats.events_processed > 100, "s27 must generate real activity");
        // The output gate must have toggled.
        let out = &res.states[n.outputs()[0] as usize];
        assert!(out.transitions > 0, "primary output never changed");
    }
}
