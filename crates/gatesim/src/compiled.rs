//! Compiled gate-block execution: fuse each partition block's gates —
//! combinational logic, DFFs *and* primary inputs — into one flat
//! instruction buffer evaluated by a single Time Warp LP per block.
//!
//! In gate-per-LP mode every gate is an LP, so a value change inside a
//! partition costs a full kernel event (queue insert, batch dispatch,
//! checkpoint bookkeeping) per gate hop, every DFF pays a kernel
//! self-tick per sampled clock edge, and every primary input pays one
//! per stimulus period. Compiled mode lowers all of it in-block:
//! combinational gates become `Op`s in topological order (via
//! [`pls_netlist::topo_order`]) swept on demand, DFFs become
//! block-resident sequential elements sampled on clock edges, primary
//! inputs become block-resident stimulus elements polled on the
//! stimulus cadence, and only value changes that cross the block
//! boundary become kernel events — all of an activation's updates bound
//! for one reading block with one arrival time ride a *single* bundled
//! message ([`GateMsg::Ports`]), one self-tick per block per needed
//! time, never per gate.
//!
//! # Timing-exact evaluation
//!
//! Transport delays are preserved exactly. A change of element `i`
//! computed at time `t` becomes *visible* to in-block readers at
//! `t + delay(i)`; the block keeps these pending internal transitions in
//! its checkpointable **agenda** and self-schedules a `SelfTick` at the
//! earliest pending time. Because every delay is at least 1, a single
//! sweep of the dirty ops in topological order per timestamp is exact —
//! nothing evaluated at `t` can feed back into `t`. Glitches from
//! unequal path delays therefore appear exactly as in gate-per-LP mode,
//! and each element's rolling FNV trace hash (same `(effective time,
//! value)` fold as [`crate::gatelp::GateState`]) is byte-identical
//! between the modes.
//!
//! The agenda is bucketed by delay: every element's delay is a
//! compile-time constant from a small per-block set, and a block's
//! activation times only increase along any rollback-consistent
//! trajectory, so the pending transitions of one delay value form a
//! naturally time-ordered FIFO — publishing is always an O(1) append,
//! never a sorted insert. Same-time transitions may pop from different
//! buckets in any order: applications at one timestamp write disjoint
//! slots and set dirty bits, which commute; ordering is re-imposed by
//! the topological sweep.
//!
//! # DFF-boundary contract (in-block DFFs)
//!
//! In-block DFFs replicate `GateSim::step_dff` exactly:
//! activity-driven clocking (a sampling time is armed only when the D
//! input *changes*, at the next clock edge after the change becomes
//! visible), register semantics (an edge samples D from before any
//! same-time update — the sweep and agenda application run *after*
//! sampling), and the Q transition folds into the trace hash at its
//! effective (post-delay) time. In-block stimulus elements likewise
//! replicate `GateSim::step_input`: the same per-input
//! deterministic stream, polled once per stimulus period starting at
//! time 1, emitting unconditionally on a toggle. The only difference is
//! mechanical: all DFFs and inputs of a block share the block's
//! self-tick instead of each paying for their own kernel events.
//!
//! # Rollback
//!
//! Everything an activation touches — port values, visible values, last
//! outputs, hashes, the agenda, stimulus streams and armed times —
//! lives in [`BlockState`]; `execute` is a pure function of
//! `(state, now, msgs)`, so coast-forward replays reproduce the same
//! sweeps and the same outgoing events.
//!
//! State saving is *incremental*. `outs` and `hashes` — nine of the
//! ≈10.5 bytes a block holds per owned slot, of which one activation
//! changes a few hundred — exist only in the LP's live state. Once the
//! kernel has filed a first checkpoint of a state, every write to them
//! goes through `BlockState::set_out`, which first appends
//! `(old hash, slot, old out)` to the state's undo journal. A checkpoint
//! (`BlockState::snapshot`) copies the small fields (`vals`, the
//! agenda, `next_sample`, the streams, three scalars) and *moves* the
//! journal of the interval it closes into the snapshot; a rollback
//! (`BlockState::restore`) unwinds the open interval's journal, then
//! the journals of the discarded snapshots newest first, and copies the
//! small fields back from the anchor. Fossil collection drops a snapshot
//! and its journal together. A state nobody ever checkpointed — every
//! state of the sequential executive — never journals: the choice is
//! made once per activation between two monomorphised bodies of the
//! sweep, not per write.

use std::collections::VecDeque;

use pls_logic::{InputStream, StimulusConfig, Value};
use pls_netlist::{topo_order, Csr, GateId, GateKind, Netlist};
use pls_timewarp::{EventSink, LpId, VTime};

use crate::experiment::SimConfig;
use crate::gatelp::{fnv_step, GateMsg, TickCfg, FNV_BASIS};
use crate::model::ModelState;

/// Options for the block compiler (carried by
/// [`crate::ExecModel::CompiledBlocks`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// Gate → block map (one entry per netlist gate — primary inputs are
    /// fused into their block as stimulus elements like everything
    /// else). `None` fuses the whole netlist into a single block — the
    /// experiment runner substitutes the run's partition assignment so
    /// blocks coincide with partition parts.
    pub blocks: Option<Vec<u32>>,
}

/// Fold bases for the binary value fold (2 bits of [`Op::meta`]).
const BASE_AND: u8 = 0;
const BASE_OR: u8 = 1;
const BASE_XOR: u8 = 2;
/// Post-fold fixups (2 bits of [`Op::meta`]): identity, output negation
/// (NAND/NOR/XNOR/NOT), input-view resolution (BUF).
const POST_ID: u8 = 0;
const POST_NOT: u8 = 1;
const POST_VIEW: u8 = 2;

/// Value-fold lookup tables, built at compile time *from* the
/// [`pls_logic`] operators (never hand-written) so the fused sweep cannot
/// drift from [`pls_logic::eval_gate`] semantics. The binary fold table
/// is indexed `(base << 4) | (acc << 2) | operand`; the post table
/// `(post << 2) | acc`.
#[derive(Debug)]
struct EvalTabs {
    fold: [Value; 48],
    post: [Value; 12],
}

impl EvalTabs {
    fn build() -> EvalTabs {
        let mut t = EvalTabs { fold: [Value::X; 48], post: [Value::X; 12] };
        for a in Value::ALL {
            t.post[((POST_ID as usize) << 2) | a as usize] = a;
            t.post[((POST_NOT as usize) << 2) | a as usize] = a.not();
            t.post[((POST_VIEW as usize) << 2) | a as usize] = a.input_view();
            for b in Value::ALL {
                let ix = ((a as usize) << 2) | b as usize;
                t.fold[((BASE_AND as usize) << 4) | ix] = a.and(b);
                t.fold[((BASE_OR as usize) << 4) | ix] = a.or(b);
                t.fold[((BASE_XOR as usize) << 4) | ix] = a.xor(b);
            }
        }
        t
    }
}

/// One fused combinational instruction: fold `meta`'s base over the
/// operand slots `args[lo..lo + nargs]` of its block, then apply `meta`'s
/// post fixup; op index doubles as output slot index. Kept to 8 bytes —
/// the sweep's working set must stay L1-resident, so density is speed.
#[derive(Debug, Clone, Copy)]
struct Op {
    lo: u32,
    /// Transport delay: the result becomes visible/routable this many
    /// time units after evaluation.
    delay: u16,
    nargs: u8,
    /// `base | (post << 2) | (agenda bucket << 4)`.
    meta: u8,
}

/// One block-resident DFF: D operand slot, transport delay, agenda
/// bucket. Its output slot (and trace index) is `ncomb + dff_index`.
#[derive(Debug, Clone, Copy)]
struct Dff {
    d_slot: u16,
    delay: u16,
    bucket: u8,
}

/// One block-resident stimulus element (a fused primary input). Its
/// output slot is `ncomb + ndffs + stim_index`; its deterministic stream
/// lives in [`BlockState::streams`].
#[derive(Debug, Clone, Copy)]
struct Stim {
    /// Index in the netlist's primary-input list (stream derivation).
    input_index: u32,
    delay: u16,
    bucket: u8,
}

/// Lower a combinational gate kind to `(base, post, unary)`; `unary`
/// kinds read only their first operand (as [`pls_logic::eval_gate`]
/// does).
fn lower_kind(kind: GateKind) -> (u8, u8, bool) {
    match kind {
        GateKind::And => (BASE_AND, POST_ID, false),
        GateKind::Nand => (BASE_AND, POST_NOT, false),
        GateKind::Or => (BASE_OR, POST_ID, false),
        GateKind::Nor => (BASE_OR, POST_NOT, false),
        GateKind::Xor => (BASE_XOR, POST_ID, false),
        GateKind::Xnor => (BASE_XOR, POST_NOT, false),
        GateKind::Not => (BASE_AND, POST_NOT, true),
        GateKind::Buf => (BASE_AND, POST_VIEW, true),
        GateKind::Input | GateKind::Dff => unreachable!("not combinationally lowered"),
    }
}

/// An outgoing cross-LP route: which foreign block (by index into
/// [`Block::dsts`]) reads this slot, and at which port. One update per
/// (driver, reading block), regardless of how many pins read it inside;
/// updates with the same destination and arrival time are bundled into
/// one kernel message per activation ([`GateMsg::Ports`]).
#[derive(Debug, Clone, Copy)]
struct Route {
    dst_index: u16,
    port: u32,
}

/// One compiled block: the instruction buffer plus the adjacency needed
/// to mark readers dirty, arm DFF sampling and route boundary-crossing
/// changes. Value-slot layout: combinational op outputs `[0, ncomb)`,
/// DFF outputs `[ncomb, ncomb + ndffs)`, stimulus outputs
/// `[ncomb + ndffs, ncomb + ndffs + nstims)` ("owned" slots, each with a
/// trace), then external ports.
#[derive(Debug)]
struct Block {
    /// Combinational instructions in topological order.
    ops: Vec<Op>,
    /// Block-resident DFFs, ascending netlist gate id.
    dffs: Vec<Dff>,
    /// Block-resident stimulus elements, ascending netlist gate id.
    stims: Vec<Stim>,
    /// Packed operand slot refs for all ops.
    args: Vec<u16>,
    /// Per slot (owned + ports): combinational ops reading it.
    comb_readers: Csr<u16>,
    /// Per slot (owned + ports): DFFs whose D input reads it.
    dff_readers: Csr<u16>,
    /// Outgoing routes of each owned slot.
    routes: Csr<Route>,
    /// Bitset over owned slots: has at least one in-block reader — a
    /// change only enters the agenda behind these bits.
    has_internal: Vec<u64>,
    /// Bitset over owned slots: has at least one outgoing route.
    has_routes: Vec<u64>,
    /// Bitset over owned slots: slot is a replica of a gate homed in
    /// another block (never routed, never fingerprinted; each change
    /// counts one elided boundary update).
    is_replica: Vec<u64>,
    /// A home-member gate of this block — carries the block's part
    /// identity for [`CompiledSim::lp_assignment`] (replica slots may
    /// precede it in slot order).
    home_gate: GateId,
    ncomb: u32,
    num_ports: u32,
    /// Distinct element delays in this block (= agenda buckets).
    num_buckets: u8,
    /// Delay value of each bucket.
    bucket_delays: Vec<u16>,
    /// Foreign blocks this block routes to (outbox destinations).
    dsts: Vec<LpId>,
}

/// Which block LP owns a netlist gate's committed trace, and at which
/// owned slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owner {
    /// Block index (= LP id).
    block: u32,
    /// Owned slot within the block.
    slot: u32,
}

/// One entry of a block's undo journal: what [`BlockState::set_out`] is
/// about to overwrite.
#[derive(Debug, Clone, Copy)]
struct Undo {
    hash: u64,
    /// Owned slot (a block has at most 65 536 value slots).
    slot: u16,
    out: Value,
}

/// State of one compiled block LP — and, with `outs`, `hashes` and the
/// scratch fields left empty, a checkpoint of one (see the module docs,
/// *Rollback*). `Clone` is a full copy: `init_state`'s, and the reference
/// the journal tests compare against; the kernel checkpoints through
/// `BlockState::snapshot`. (No `PartialEq`: the stimulus streams' RNGs are
/// not comparable — run equivalence is checked through the per-slot
/// trace hashes instead, as in gate-per-LP mode.) `Default` is the empty
/// shell a first checkpoint is built in.
#[derive(Debug, Clone, Default)]
pub struct BlockState {
    /// Operand slot values as seen by in-block readers (owned slots are
    /// updated at the transition's *effective* time, i.e. after the
    /// element's delay; port slots hold the last received values). One
    /// flat array keeps the sweep's operand gather branch-free.
    pub(crate) vals: Vec<Value>,
    /// Per owned slot: last evaluated/sampled output — the driver's own
    /// view, ahead of `vals` by the transport delay; change detection
    /// happens against it. Live state only; written by [`Self::set_out`].
    outs: Vec<Value>,
    /// Per owned slot: rolling FNV trace hash (same fold as gate-per-LP
    /// mode). Split from `outs` so the no-change sweep path never touches
    /// these cache lines. Live state only; written by [`Self::set_out`].
    hashes: Vec<u64>,
    /// In a live state: the `outs`/`hashes` writes since the last
    /// checkpoint, oldest first. In a checkpoint: the writes of the
    /// interval it closed.
    journal: Vec<Undo>,
    /// Whether writes are journaled: set by the first [`Self::snapshot`]
    /// of this state, never cleared.
    journaling: bool,
    /// Pending internal transitions, one FIFO per delay bucket; each
    /// queue is time-ordered by construction (see module docs).
    pub(crate) agenda: Vec<VecDeque<(VTime, u32, Value)>>,
    /// Per DFF: armed sampling time ([`VTime::INF`] = none) — the
    /// in-block analog of a gate-per-LP DFF's pending sampling tick.
    pub(crate) next_sample: Vec<VTime>,
    /// Per stimulus element: its deterministic stream (part of state so
    /// rollbacks rewind the stream with everything else).
    pub(crate) streams: Vec<InputStream>,
    /// Next stimulus poll time ([`VTime::INF`] once past the horizon or
    /// when the block has no stimulus elements).
    pub(crate) next_stim: VTime,
    /// Stimulus polls taken (poll 0 drives each stream's initial value).
    pub(crate) stim_ticks: u64,
    /// Earliest outstanding self-tick, if any.
    pub(crate) armed: Option<VTime>,
    /// Scratch: dirty bitset over combinational ops (always all-zero
    /// between activations). Iterating set bits ascending IS topological
    /// order, so no sort or side list is needed.
    dirty: Vec<u64>,
    /// Scratch: outgoing port updates of the current activation, one row
    /// per `(destination, delay bucket)` pair (always empty between
    /// activations, so checkpoint clones are trivial).
    outbox: Vec<Vec<(u32, Value)>>,
    /// Scratch: outbox rows touched this activation.
    touched: Vec<u32>,
}

impl BlockState {
    fn fresh(b: &Block, stim: &StimulusConfig) -> BlockState {
        let ncomb = b.ops.len();
        let owned = ncomb + b.dffs.len() + b.stims.len();
        let start = if b.stims.is_empty() { VTime::INF } else { VTime::from(1) };
        BlockState {
            vals: vec![Value::X; owned + b.num_ports as usize],
            outs: vec![Value::X; owned],
            hashes: vec![FNV_BASIS; owned],
            journal: Vec::new(),
            journaling: false,
            agenda: vec![VecDeque::new(); b.num_buckets as usize],
            next_sample: vec![VTime::INF; b.dffs.len()],
            streams: b.stims.iter().map(|s| stim.stream(s.input_index)).collect(),
            next_stim: start,
            stim_ticks: 0,
            armed: (start != VTime::INF).then_some(start),
            dirty: vec![0; ncomb.div_ceil(64)],
            outbox: vec![Vec::new(); b.dsts.len() * b.num_buckets as usize],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, op: u32) {
        self.dirty[(op >> 6) as usize] |= 1u64 << (op & 63);
    }

    /// Trace hash of owned slot `slot` (the committed fingerprint of
    /// that gate).
    pub fn op_hash(&self, slot: usize) -> u64 {
        self.hashes[slot]
    }

    /// Owned slot `slot` changes to `v`, effective at `eff`: the one place
    /// `outs` and `hashes` are written, so that no write escapes the
    /// journal. `J` is [`Self::journaling`], hoisted out of the sweep.
    #[inline]
    fn set_out<const J: bool>(&mut self, slot: usize, eff: VTime, v: Value) {
        let hash = self.hashes[slot];
        if J {
            self.journal.push(Undo { hash, slot: slot as u16, out: self.outs[slot] });
        }
        self.outs[slot] = v;
        self.hashes[slot] = fnv_step(hash, eff, v);
    }

    /// Copy the fields a checkpoint carries whole.
    fn copy_small_fields(&mut self, from: &BlockState) {
        self.vals.clone_from(&from.vals);
        self.agenda.clone_from(&from.agenda);
        self.next_sample.clone_from(&from.next_sample);
        self.streams.clone_from(&from.streams);
        self.next_stim = from.next_stim;
        self.stim_ticks = from.stim_ticks;
        self.armed = from.armed;
    }

    /// File a checkpoint of this live state, in `spare`'s buffers if there
    /// is one (a retired checkpoint of any block): the small fields by
    /// copy, the journal of the interval that ends here by move. From the
    /// first call on, the state journals its writes.
    pub(crate) fn snapshot(&mut self, spare: Option<Box<BlockState>>) -> Box<BlockState> {
        debug_assert!(self.touched.is_empty(), "checkpoint inside an activation");
        let mut snap = spare.unwrap_or_default();
        debug_assert!(snap.outs.is_empty() && snap.hashes.is_empty(), "spare was a live state");
        snap.copy_small_fields(self);
        snap.journal.clear();
        std::mem::swap(&mut snap.journal, &mut self.journal);
        self.journaling = true;
        snap
    }

    /// Roll this live state back to checkpoint `anchor`; `undone` are the
    /// checkpoints filed after it, oldest first.
    pub(crate) fn restore<'a>(
        &mut self,
        anchor: &BlockState,
        undone: impl DoubleEndedIterator<Item = &'a BlockState>,
    ) {
        debug_assert!(self.journaling, "restore of a state that was never checkpointed");
        let BlockState { outs, hashes, journal, .. } = self;
        for log in std::iter::once(&*journal).chain(undone.rev().map(|s| &s.journal)) {
            for u in log.iter().rev() {
                outs[u.slot as usize] = u.out;
                hashes[u.slot as usize] = u.hash;
            }
        }
        journal.clear();
        self.copy_small_fields(anchor);
    }
}

#[cfg(test)]
impl BlockState {
    /// Bytes of heap content held. Every field is named, so a new one
    /// cannot be left out of the count.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let BlockState {
            vals,
            outs,
            hashes,
            journal,
            journaling: _,
            agenda,
            next_sample,
            streams,
            next_stim: _,
            stim_ticks: _,
            armed: _,
            dirty,
            outbox,
            touched,
        } = self;
        let queued: usize = agenda.iter().map(|q| q.len() * size_of::<(VTime, u32, Value)>()).sum();
        let staged: usize = outbox.iter().map(|row| size_of_val(&row[..])).sum();
        size_of_val(&vals[..])
            + size_of_val(&outs[..])
            + size_of_val(&hashes[..])
            + size_of_val(&journal[..])
            + size_of_val(&agenda[..])
            + queued
            + size_of_val(&next_sample[..])
            + size_of_val(&streams[..])
            + size_of_val(&dirty[..])
            + size_of_val(&outbox[..])
            + staged
            + size_of_val(&touched[..])
    }

    /// The share of [`Self::heap_bytes`] that grows with the owned slots
    /// and that no checkpoint may carry.
    pub(crate) fn per_slot_bytes(&self) -> usize {
        std::mem::size_of_val(&self.outs[..]) + std::mem::size_of_val(&self.hashes[..])
    }

    /// The journal's share of [`Self::heap_bytes`].
    pub(crate) fn journal_bytes(&self) -> usize {
        std::mem::size_of_val(&self.journal[..])
    }
}

/// Apply a value change that became visible at `t` on `slot`: mark
/// combinational readers dirty and arm the sampling time of DFF readers
/// (activity-driven clocking, as in `GateSim::step_dff`).
#[inline]
fn mark_readers(b: &Block, state: &mut BlockState, tick: &TickCfg, slot: usize, t: VTime) {
    for &r in b.comb_readers.row(slot) {
        state.mark_dirty(u32::from(r));
    }
    let drow = b.dff_readers.row(slot);
    if !drow.is_empty() {
        let edge = tick.next_clock_edge(t);
        if edge <= tick.end_time {
            for &i in drow {
                let ns = &mut state.next_sample[i as usize];
                if *ns > edge {
                    *ns = edge;
                }
            }
        }
    }
}

/// Why a block cannot be compiled: it outgrows one of the fixed-width
/// fields of the instruction encoding. `block` is the part id the block
/// was built from (0 for the single block of an unpartitioned model).
/// Blocks are never split to fit; use more, smaller parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// More value slots (gates, replicas and ports) than a `u16` indexes.
    TooManySlots {
        /// The offending block.
        block: u32,
        /// Its value slots.
        slots: usize,
    },
    /// More distinct gate delays than the 16 agenda buckets.
    TooManyDelays {
        /// The offending block.
        block: u32,
        /// Its distinct delays.
        delays: usize,
    },
    /// Routes to more blocks than a `u16` indexes.
    TooManyRoutes {
        /// The offending block.
        block: u32,
        /// The blocks it routes to.
        dsts: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CompileError::TooManySlots { block, slots } => {
                write!(f, "compiled block {block} needs {slots} value slots (at most {MAX_SLOTS})")
            }
            CompileError::TooManyDelays { block, delays } => write!(
                f,
                "compiled block {block} has {delays} distinct gate delays (at most {MAX_DELAYS})"
            ),
            CompileError::TooManyRoutes { block, dsts } => {
                write!(f, "compiled block {block} routes to {dsts} blocks (at most {MAX_SLOTS})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Value slots and route destinations a block may index (`u16`).
const MAX_SLOTS: usize = 1 << 16;
/// Agenda buckets per block (a 4-bit field of [`Op::meta`]).
const MAX_DELAYS: usize = 16;

/// The compiled-blocks [`crate::GateModel`] engine: one LP per non-empty
/// block of fused gates — no other LPs exist.
#[derive(Debug)]
pub struct CompiledSim {
    blocks: Vec<Block>,
    stim: StimulusConfig,
    tick: TickCfg,
    /// Per netlist gate: which LP/slot carries its committed trace.
    owner: Vec<Owner>,
    /// Value-fold tables for the sweep (built from `pls_logic` operators).
    tabs: EvalTabs,
    /// Total replica slots fused across all blocks.
    num_replicas: u64,
}

impl CompiledSim {
    /// Compile a netlist into per-block instruction buffers under `cfg`'s
    /// testbench. `blocks` maps each gate to a block id (`None` = one
    /// block); empty blocks are skipped. Each `(gate, block)` pair in `replicas` fuses a copy
    /// of the gate into the consuming block: in-block readers read the
    /// copy's slot instead of a port, so the home block's route to that
    /// block (and the port itself) disappears. Replica slots carry their
    /// own trace hash but are never owned — fingerprints hash home
    /// copies only. Fails when a block outgrows the instruction encoding.
    pub(crate) fn compile(
        netlist: &Netlist,
        cfg: &SimConfig,
        blocks: Option<&[u32]>,
        replicas: &[(GateId, u32)],
    ) -> Result<CompiledSim, CompileError> {
        let n = netlist.len();
        if let Some(map) = blocks {
            assert_eq!(map.len(), n, "block map must cover every gate");
        }
        assert!(
            replicas.is_empty() || blocks.is_some(),
            "replication requires a block map (a single fused block has no boundary)"
        );
        let part_of = |g: GateId| blocks.map_or(0, |m| m[g as usize]);

        // One block per part id in use (a home part or a replica
        // target), in ascending part id; `block_of` is each gate's home.
        let mut part_ids: Vec<u32> = blocks.map_or_else(|| vec![0], <[u32]>::to_vec);
        part_ids.extend(replicas.iter().map(|&(_, q)| q));
        part_ids.sort_unstable();
        part_ids.dedup();
        let block_index =
            |part: u32| part_ids.binary_search(&part).expect("part id registered") as u32;
        let block_of: Vec<u32> = (0..n as GateId).map(|g| block_index(part_of(g))).collect();

        // Replicas per gate as `(block, slot)`, ascending block; the
        // slots are filled in once the blocks' members are known.
        for &(g, q) in replicas {
            assert!(!netlist.is_dff(g), "DFFs cannot be replicated");
            assert_ne!(part_of(g), q, "replica must land in a foreign block");
        }
        let mut copies =
            Csr::by_row(n, replicas.iter().map(|&(g, q)| (g as usize, (block_index(q), 0u32))));
        for g in 0..n {
            let row = copies.row_mut(g);
            row.sort_unstable();
            assert!(row.windows(2).all(|w| w[0].0 != w[1].0), "duplicate replica pair");
        }

        // Group gates by block: combinational gates in global
        // topological order (levelize-based), then DFFs and primary
        // inputs each in ascending gate id. A replicated gate joins every
        // target block's list too (restricting one global topological
        // order keeps each block's comb list topological).
        type Members = (Vec<GateId>, Vec<GateId>, Vec<GateId>);
        let mut block_gates: Vec<Members> = vec![Members::default(); part_ids.len()];
        for g in topo_order(netlist) {
            if !netlist.is_input(g) && !netlist.is_dff(g) {
                block_gates[block_of[g as usize] as usize].0.push(g);
                for &(b, _) in copies.row(g as usize) {
                    block_gates[b as usize].0.push(g);
                }
            }
        }
        for id in netlist.ids() {
            if netlist.is_dff(id) {
                block_gates[block_of[id as usize] as usize].1.push(id);
            } else if netlist.is_input(id) {
                block_gates[block_of[id as usize] as usize].2.push(id);
                for &(b, _) in copies.row(id as usize) {
                    block_gates[b as usize].2.push(id);
                }
            }
        }
        /// A block's members in slot order.
        fn members(m: &Members) -> impl Iterator<Item = GateId> + '_ {
            m.0.iter().chain(&m.1).chain(&m.2).copied()
        }

        // Ownership (fingerprint identity) stays with the home block; a
        // gate's slots in other blocks are replicas.
        let mut owner = vec![Owner { block: 0, slot: 0 }; n];
        for (b, m) in block_gates.iter().enumerate() {
            for (i, g) in members(m).enumerate() {
                if block_of[g as usize] == b as u32 {
                    owner[g as usize] = Owner { block: b as u32, slot: i as u32 };
                } else {
                    let copy = copies.row_mut(g as usize).iter_mut().find(|c| c.0 == b as u32);
                    copy.expect("replica registered").1 = i as u32;
                }
            }
        }
        // Slot of gate `d` in block `b`, if `b` holds it (home or copy).
        let local_slot = |b: u32, d: GateId| -> Option<u32> {
            if block_of[d as usize] == b {
                return Some(owner[d as usize].slot);
            }
            copies.row(d as usize).iter().find(|c| c.0 == b).map(|c| c.1)
        };

        // Which foreign blocks read each gate through a port, as
        // `(block, port)` in ascending block: the blocks with a member pin
        // fed by the gate and no local copy of it. Blocks are visited in
        // ascending order, so one last-reader mark per gate deduplicates.
        let mut last_reader = vec![u32::MAX; n];
        let mut reads: Vec<(usize, (u32, u32))> = Vec::new();
        for (b, m) in block_gates.iter().enumerate() {
            let b = b as u32;
            for g in members(m) {
                for &d in netlist.fanin(g) {
                    if last_reader[d as usize] != b && local_slot(b, d).is_none() {
                        last_reader[d as usize] = b;
                        reads.push((d as usize, (b, 0)));
                    }
                }
            }
        }
        let mut readers = Csr::by_row(n, reads.into_iter());
        // Port tables: the external drivers feeding each block, one port
        // per driver (not per reading pin), in ascending gate-id order.
        let mut num_ports = vec![0u32; block_gates.len()];
        for (b, port) in readers.values_mut() {
            *port = num_ports[*b as usize];
            num_ports[*b as usize] += 1;
        }
        let port_of = |b: u32, d: GateId| -> u32 {
            readers.row(d as usize).iter().find(|r| r.0 == b).expect("port registered").1
        };

        let mut input_index = vec![0u32; n];
        for (ix, &g) in netlist.inputs().iter().enumerate() {
            input_index[g as usize] = ix as u32;
        }

        // Instruction buffers + in-block reader adjacency.
        let mut built: Vec<Block> = Vec::new();
        for (b, m) in block_gates.iter().enumerate() {
            let (comb, dffs, stims) = m;
            let ncomb = comb.len();
            let owned = ncomb + dffs.len() + stims.len();
            let total_slots = owned + num_ports[b] as usize;
            if total_slots > MAX_SLOTS {
                return Err(CompileError::TooManySlots { block: part_ids[b], slots: total_slots });
            }
            let slot_of = |d: GateId| -> u16 {
                match local_slot(b as u32, d) {
                    Some(s) => s as u16,
                    None => (owned as u32 + port_of(b as u32, d)) as u16,
                }
            };
            let lower_delay = |kind: GateKind, arity: usize| -> u16 {
                u16::try_from(cfg.delay.delay(kind, arity)).expect("gate delay must fit in u16")
            };
            // Delay buckets: one agenda FIFO per distinct delay value,
            // ascending.
            let mut delays: Vec<u16> = Vec::new();
            for g in members(m) {
                let delay = lower_delay(netlist.kind(g), netlist.fanin(g).len());
                if let Err(at) = delays.binary_search(&delay) {
                    delays.insert(at, delay);
                }
            }
            if delays.len() > MAX_DELAYS {
                let delays = delays.len();
                return Err(CompileError::TooManyDelays { block: part_ids[b], delays });
            }
            let bucket_of =
                |d: u16| -> u8 { delays.binary_search(&d).expect("delay registered") as u8 };

            let mut ops = Vec::with_capacity(ncomb);
            let mut args: Vec<u16> = Vec::new();
            for &g in comb {
                let kind = netlist.kind(g);
                let fanin = netlist.fanin(g);
                let (base, post, unary) = lower_kind(kind);
                // Unary kinds read only their first operand, exactly as
                // `eval_gate` does — extra pins are ignored.
                let take = if unary { 1 } else { fanin.len() };
                let lo = args.len() as u32;
                args.extend(fanin[..take].iter().map(|&d| slot_of(d)));
                let delay = lower_delay(kind, fanin.len());
                ops.push(Op {
                    lo,
                    delay,
                    nargs: u8::try_from(take).expect("`GateKind::arity` caps fan-in at 255"),
                    meta: base | (post << 2) | (bucket_of(delay) << 4),
                });
            }
            let dff_tab: Vec<Dff> = dffs
                .iter()
                .map(|&g| {
                    let fanin = netlist.fanin(g);
                    let delay = lower_delay(GateKind::Dff, fanin.len());
                    Dff { d_slot: slot_of(fanin[0]), delay, bucket: bucket_of(delay) }
                })
                .collect();
            let stim_tab = stims
                .iter()
                .map(|&g| {
                    let delay = lower_delay(GateKind::Input, netlist.fanin(g).len());
                    Stim { input_index: input_index[g as usize], delay, bucket: bucket_of(delay) }
                })
                .collect();
            // Per slot: the ops (ascending, once per reading pin) and the
            // DFFs reading it.
            let comb_readers = Csr::by_row(
                total_slots,
                ops.iter().enumerate().flat_map(|(i, op)| {
                    let lo = op.lo as usize;
                    args[lo..lo + op.nargs as usize].iter().map(move |&s| (s as usize, i as u16))
                }),
            );
            let dff_readers = Csr::by_row(
                total_slots,
                dff_tab.iter().enumerate().map(|(i, d)| (d.d_slot as usize, i as u16)),
            );
            // Replica slots and the block's home identity. Blocks are
            // created by home members, so a home gate always exists.
            let mut is_replica = vec![0u64; owned.div_ceil(64)];
            for (i, g) in members(m).enumerate() {
                if block_of[g as usize] != b as u32 {
                    is_replica[i >> 6] |= 1u64 << (i & 63);
                }
            }
            let home_gate = members(m)
                .find(|&g| block_of[g as usize] == b as u32)
                .expect("block has a home gate");
            built.push(Block {
                ops,
                dffs: dff_tab,
                stims: stim_tab,
                args,
                comb_readers,
                dff_readers,
                routes: Csr::default(),
                has_internal: Vec::new(),
                has_routes: Vec::new(),
                is_replica,
                home_gate,
                ncomb: ncomb as u32,
                num_ports: num_ports[b],
                num_buckets: delays.len() as u8,
                bucket_delays: delays.clone(),
                dsts: Vec::new(),
            });
        }

        // Routing: one port update per (driver, reading block), from the
        // driver's HOME slot only — replica slots serve in-block readers
        // and never route (routing them would double-deliver).
        for (b, m) in block_gates.iter().enumerate() {
            let home = |g: GateId| block_of[g as usize] == b as u32;
            let mut dsts: Vec<u32> = members(m)
                .filter(|&g| home(g))
                .flat_map(|g| readers.row(g as usize).iter().map(|r| r.0))
                .collect();
            dsts.sort_unstable();
            dsts.dedup();
            if dsts.len() > MAX_SLOTS {
                return Err(CompileError::TooManyRoutes { block: part_ids[b], dsts: dsts.len() });
            }
            let mut routes = Csr::default();
            for g in members(m) {
                let row = if home(g) { readers.row(g as usize) } else { &[] };
                routes.push_row(row.iter().map(|&(blk, port)| Route {
                    dst_index: dsts.binary_search(&blk).expect("dst registered") as u16,
                    port,
                }));
            }
            let blk = &mut built[b];
            let owned = routes.rows();
            let mut has_internal = vec![0u64; owned.div_ceil(64)];
            let mut has_routes = vec![0u64; owned.div_ceil(64)];
            for slot in 0..owned {
                if !blk.comb_readers.row(slot).is_empty() || !blk.dff_readers.row(slot).is_empty() {
                    has_internal[slot >> 6] |= 1u64 << (slot & 63);
                }
                if !routes.row(slot).is_empty() {
                    has_routes[slot >> 6] |= 1u64 << (slot & 63);
                }
            }
            blk.has_internal = has_internal;
            blk.has_routes = has_routes;
            blk.routes = routes;
            blk.dsts = dsts.into_iter().map(|x| x as LpId).collect();
        }

        Ok(CompiledSim {
            blocks: built,
            stim: cfg.stim,
            tick: TickCfg::new(cfg),
            owner,
            tabs: EvalTabs::build(),
            num_replicas: replicas.len() as u64,
        })
    }

    /// Total LPs: one per block.
    pub fn num_lps(&self) -> usize {
        self.blocks.len()
    }

    /// Number of netlist gates behind this model.
    pub fn num_gates(&self) -> usize {
        self.owner.len()
    }

    /// Total replica slots fused across all blocks.
    pub fn num_replicas(&self) -> u64 {
        self.num_replicas
    }

    pub(crate) fn init_lp_state(&self, lp: LpId) -> ModelState {
        ModelState::Block(Box::new(BlockState::fresh(&self.blocks[lp as usize], &self.stim)))
    }

    pub(crate) fn init_events(&self, lp: LpId, sink: &mut EventSink<GateMsg>) {
        // Blocks with stimulus elements self-start at the first stimulus
        // poll, exactly as primary-input LPs do in gate-per-LP mode; all
        // other blocks are driven entirely by arriving ports.
        if !self.blocks[lp as usize].stims.is_empty() {
            sink.schedule_at(lp, VTime::from(1), GateMsg::SelfTick);
        }
    }

    pub(crate) fn execute_block(
        &self,
        lp: LpId,
        state: &mut BlockState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        if state.journaling {
            self.activate::<true>(lp, state, now, msgs, sink);
        } else {
            self.activate::<false>(lp, state, now, msgs, sink);
        }
    }

    /// One activation; `J` says whether `state` journals its writes.
    fn activate<const J: bool>(
        &self,
        lp: LpId,
        state: &mut BlockState,
        now: VTime,
        msgs: &[(LpId, GateMsg)],
        sink: &mut EventSink<GateMsg>,
    ) {
        let b = &self.blocks[lp as usize];
        sink.note_block_activation();
        debug_assert!(state.dirty.iter().all(|&w| w == 0), "scratch must be clean");
        let ncomb = b.ncomb as usize;
        let ndffs = b.dffs.len();
        let owned = ncomb + ndffs + b.stims.len();
        let mut work = 0u64;
        // Boundary port updates elided by replication: each change of a
        // replica slot is one update the home block no longer sends here.
        let mut saved = 0u64;

        // 1. Sample DFFs whose armed edge is due — *before* any same-time
        //    update becomes visible (register semantics, identical to
        //    `step_dff`'s tick-then-apply order).
        if ndffs > 0 {
            for i in 0..ndffs {
                if state.next_sample[i] != now {
                    continue;
                }
                state.next_sample[i] = VTime::INF;
                work += 1;
                let dff = b.dffs[i];
                let q = state.vals[dff.d_slot as usize].input_view();
                let slot = ncomb + i;
                if q != state.outs[slot] {
                    let eff = now.after(u64::from(dff.delay));
                    state.set_out::<J>(slot, eff, q);
                    self.publish(b, state, slot, eff, dff.bucket, q);
                }
            }
        }

        // 2. Poll stimulus streams on a due stimulus tick. A toggle emits
        //    unconditionally (streams only report changes), matching
        //    `step_input`; poll 0 drives each stream's initial value.
        if state.next_stim == now {
            let first = state.stim_ticks == 0;
            state.stim_ticks += 1;
            let next = now.after(self.tick.stim_period);
            state.next_stim = if next <= self.tick.end_time { next } else { VTime::INF };
            for (i, s) in b.stims.iter().enumerate() {
                work += 1;
                let drawn =
                    if first { Some(state.streams[i].initial()) } else { state.streams[i].tick() };
                if let Some(v) = drawn {
                    let slot = ncomb + ndffs + i;
                    let eff = now.after(u64::from(s.delay));
                    state.set_out::<J>(slot, eff, v);
                    self.publish(b, state, slot, eff, s.bucket, v);
                    saved += (b.is_replica[slot >> 6] >> (slot & 63)) & 1;
                }
            }
        }

        // 3. External port updates become visible; unchanged re-sends
        //    (impossible from a correct driver, but harmless) are ignored.
        for (_, m) in msgs {
            match m {
                GateMsg::Port { port, value } => {
                    let slot = owned + *port as usize;
                    if state.vals[slot] != *value {
                        state.vals[slot] = *value;
                        mark_readers(b, state, &self.tick, slot, now);
                    }
                }
                GateMsg::Ports { updates } => {
                    for &(port, value) in updates {
                        let slot = owned + port as usize;
                        if state.vals[slot] != value {
                            state.vals[slot] = value;
                            mark_readers(b, state, &self.tick, slot, now);
                        }
                    }
                }
                GateMsg::SelfTick => {}
                GateMsg::Wire { .. } => unreachable!("block LPs receive Port, not Wire"),
            }
        }

        // 4. Internal transitions due now become visible to their
        //    readers. Buckets may interleave same-time pops in any order:
        //    the writes commute (disjoint slots, idempotent dirty marks).
        for bi in 0..state.agenda.len() {
            loop {
                match state.agenda[bi].front() {
                    Some(&(tdue, slot, v)) if tdue == now => {
                        state.agenda[bi].pop_front();
                        state.vals[slot as usize] = v;
                        mark_readers(b, state, &self.tick, slot as usize, now);
                    }
                    other => {
                        debug_assert!(
                            other.is_none_or(|e| e.0 > now),
                            "agenda entry in the past survived a rollback"
                        );
                        break;
                    }
                }
            }
        }
        if state.armed == Some(now) {
            state.armed = None;
        }

        // 5. Sweep dirty ops in topological (ascending index) order — set
        //    bits ascending IS that order. All delays are >= 1, so nothing
        //    computed here can feed back into this timestamp: one ordered
        //    sweep is exact.
        for w in 0..state.dirty.len() {
            let mut word = state.dirty[w];
            if word == 0 {
                continue;
            }
            state.dirty[w] = 0;
            while word != 0 {
                let ix = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                work += 1;
                let op = b.ops[ix];
                let lo = op.lo as usize;
                let a = &b.args[lo..lo + op.nargs as usize];
                let base = ((op.meta & 3) as usize) << 4;
                let mut acc = state.vals[a[0] as usize];
                for &x in &a[1..] {
                    acc = self.tabs.fold
                        [base | ((acc as usize) << 2) | state.vals[x as usize] as usize];
                }
                acc = self.tabs.post[((op.meta >> 2) as usize & 3) << 2 | acc as usize];
                if acc != state.outs[ix] {
                    let eff = now.after(u64::from(op.delay));
                    state.set_out::<J>(ix, eff, acc);
                    self.publish(b, state, ix, eff, op.meta >> 4, acc);
                    saved += (b.is_replica[ix >> 6] >> (ix & 63)) & 1;
                }
            }
        }
        sink.note_ops(work);
        if saved > 0 {
            sink.note_messages_saved(saved);
        }

        // 6. Flush the outbox: every touched (destination, delay) row
        //    becomes ONE kernel message carrying all of its port updates.
        //    Rows are scratch — emptied here, so checkpoint clones of the
        //    outbox stay allocation-free.
        for ti in 0..state.touched.len() {
            let key = state.touched[ti] as usize;
            let dst = b.dsts[key / b.num_buckets as usize];
            let delay = u64::from(b.bucket_delays[key % b.num_buckets as usize]);
            let row = &mut state.outbox[key];
            if row.len() == 1 {
                let (port, value) = row[0];
                sink.schedule(dst, delay, GateMsg::Port { port, value });
            } else {
                sink.schedule(dst, delay, GateMsg::Ports { updates: row.clone() });
            }
            row.clear();
        }
        state.touched.clear();

        // 7. Re-arm one self-tick at the earliest pending time (internal
        //    transition, armed DFF sample, or stimulus poll).
        let mut desired = state.next_stim;
        for q in &state.agenda {
            if let Some(e) = q.front() {
                desired = desired.min(e.0);
            }
        }
        for &ns in &state.next_sample {
            desired = desired.min(ns);
        }
        if desired != VTime::INF && state.armed.is_none_or(|a| a > desired) {
            state.armed = Some(desired);
            sink.schedule_at(lp, desired, GateMsg::SelfTick);
        }
    }

    /// Publish a changed owned slot: append it to its delay bucket's
    /// agenda FIFO if anything in-block reads it, and stage it in the
    /// outbox rows of the foreign blocks that read it (flushed as bundled
    /// messages at the end of the activation).
    #[inline]
    fn publish(
        &self,
        b: &Block,
        state: &mut BlockState,
        slot: usize,
        eff: VTime,
        bucket: u8,
        v: Value,
    ) {
        if (b.has_internal[slot >> 6] >> (slot & 63)) & 1 != 0 {
            let q = &mut state.agenda[bucket as usize];
            debug_assert!(
                q.back().is_none_or(|e| e.0 <= eff),
                "delay bucket must stay time-ordered"
            );
            q.push_back((eff, slot as u32, v));
        }
        if (b.has_routes[slot >> 6] >> (slot & 63)) & 1 != 0 {
            for r in b.routes.row(slot) {
                let key = r.dst_index as usize * b.num_buckets as usize + bucket as usize;
                if state.outbox[key].is_empty() {
                    state.touched.push(key as u32);
                }
                state.outbox[key].push((r.port, v));
            }
        }
    }

    /// Reassemble per-gate fingerprints in netlist gate-id order from the
    /// final LP states (per-slot block hashes).
    pub fn fingerprint(&self, states: &[ModelState]) -> Vec<u64> {
        self.owner
            .iter()
            .map(|o| {
                states[o.block as usize].as_block().expect("block state").op_hash(o.slot as usize)
            })
            .collect()
    }

    /// Project a gate-level partition assignment onto LPs: a block LP
    /// takes the part of a home-member gate — identical for every home
    /// gate when the block map came from the same partitioning. (Replica
    /// slots are skipped: their gates are homed elsewhere.)
    pub fn lp_assignment(&self, gate_parts: &[u32]) -> Vec<u32> {
        assert_eq!(gate_parts.len(), self.owner.len(), "assignment must cover every gate");
        self.blocks.iter().map(|b| gate_parts[b.home_gate as usize]).collect()
    }
}

#[cfg(test)]
impl CompiledSim {
    /// FNV-1a over every table of every block and the owner map, each
    /// field in declaration order: a pin for compiler rewrites, which
    /// must keep slot, port and route numbering and op order as they are.
    fn table_hash(&self) -> u64 {
        fn words(h: u64, ws: impl IntoIterator<Item = u64>) -> u64 {
            ws.into_iter().fold(h, |h, w| {
                w.to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            })
        }
        fn csr<T>(h: u64, j: &Csr<T>, f: impl Fn(&T) -> u64) -> u64 {
            let h = words(h, j.offsets().iter().map(|&i| u64::from(i)));
            words(h, j.values().iter().map(f))
        }
        let mut h = FNV_BASIS;
        for b in &self.blocks {
            h = words(
                h,
                b.ops.iter().flat_map(|o| {
                    [u64::from(o.lo), u64::from(o.delay), u64::from(o.nargs), u64::from(o.meta)]
                }),
            );
            h = words(
                h,
                b.dffs
                    .iter()
                    .flat_map(|d| [u64::from(d.d_slot), u64::from(d.delay), u64::from(d.bucket)]),
            );
            h = words(
                h,
                b.stims.iter().flat_map(|s| {
                    [u64::from(s.input_index), u64::from(s.delay), u64::from(s.bucket)]
                }),
            );
            h = words(h, b.args.iter().map(|&a| u64::from(a)));
            h = csr(h, &b.comb_readers, |&r| u64::from(r));
            h = csr(h, &b.dff_readers, |&r| u64::from(r));
            h = csr(h, &b.routes, |r| u64::from(r.dst_index) << 32 | u64::from(r.port));
            h = words(h, b.has_internal.iter().chain(&b.has_routes).chain(&b.is_replica).copied());
            h = words(h, [u64::from(b.home_gate), u64::from(b.ncomb), u64::from(b.num_ports)]);
            h = words(h, [u64::from(b.num_buckets)]);
            h = words(h, b.bucket_delays.iter().map(|&d| u64::from(d)));
            h = words(h, b.dsts.iter().map(|&d| u64::from(d)));
        }
        words(h, self.owner.iter().flat_map(|o| [u64::from(o.block), u64::from(o.slot)]))
    }
}

#[cfg(test)]
mod tests {
    use pls_netlist::IscasSynth;
    use pls_partition::{CircuitGraph, MultilevelPartitioner, Partitioner, ReplicationConfig};
    use pls_timewarp::{Backend, Simulator};

    use crate::model::{ExecModel, GateModel};
    use crate::SimConfig;

    #[test]
    fn compiled_replicated_model_is_pinned() {
        // A ~20 k-gate circuit with the benchmark front-end workload's
        // interface ratios, compiled into k = 8 blocks with replication
        // and run briefly on the platform executive. Its tables, its
        // fingerprint and its counters are literals: a rewrite of the
        // compiler or the replication planner must leave them all as
        // they are.
        let gates = 20_000;
        let netlist = IscasSynth::new("synth20k", gates / 150, gates, gates / 70).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let parts = MultilevelPartitioner::default().partition(&graph, 8, 0);
        let cfg = SimConfig {
            end_time: 60,
            exec: ExecModel::CompiledBlocks(Default::default()),
            replication: Some(ReplicationConfig::default()),
            ..Default::default()
        };
        let app = cfg.build_app_partitioned(&netlist, &graph, &parts);
        let GateModel::Compiled(compiled) = &app else { panic!("compiled model expected") };
        let assignment = app.lp_assignment(&parts.assignment);
        let run = Simulator::new(&app)
            .platform_config(&cfg.platform)
            .run(Backend::Platform { assignment: &assignment, nodes: 8 })
            .expect("platform run");
        let fingerprint = app
            .fingerprint(&run.states)
            .iter()
            .flat_map(|h| h.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        let s = &run.stats;
        assert_eq!(compiled.num_replicas(), 68);
        assert_eq!(compiled.table_hash(), 0xabb2_02bb_ce2e_6e34, "block tables");
        assert_eq!(fingerprint, 0x67a1_5ee9_e2f1_bbe3, "committed fingerprint");
        assert_eq!(
            (s.ops_executed, s.block_activations, s.messages_saved, s.app_messages),
            (178_480, 2_241, 462, 13_128),
            "(ops_executed, block_activations, messages_saved, app_messages)"
        );
    }
}
