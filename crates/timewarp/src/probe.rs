//! Pluggable kernel telemetry: the [`Probe`] trait and the
//! [`ProbeEvent`]s it observes.
//!
//! Every executive emits one [`ProbeEvent`] at each well-defined protocol
//! point of Time Warp — batch executed, rollback begun/ended,
//! anti-message sent/annihilated, state saved, fossil collection, GVT
//! advance, remote message crossing a cluster/node boundary, migration.
//! The stream is the kernel's only way of counting:
//! [`KernelStats`] is itself a probe, and the executives run the kernel
//! against `Tee<KernelStats, P>`, so the aggregate counters and any
//! attached probe see exactly the same events. A probe observes; it must
//! never influence the simulation (the test suite enforces that
//! committed trace hashes are identical with and without a recording
//! probe; and no probe callback is handed a kernel handle, while clippy
//! denies the shared cells, locks and atomics through which a kernel-crate
//! probe could reach one — even on paths no test executes).
//!
//! The default probe is [`NoProbe`], a zero-sized type whose handler is
//! empty: executives are generic over `P: Probe`, so with `NoProbe` every
//! emit monomorphizes to the `KernelStats` increments alone (plus, on the
//! optimistic executives, one untaken branch for the ledger a balancing
//! run keeps). The bundled probes are [`crate::series::TimeSeries`] and
//! [`crate::stats::LpLedger`].
//!
//! Concurrency model: the threaded executive calls [`Probe::fork`] once
//! per cluster to obtain an independent child probe (no locking on the hot
//! path) and merges the children back with [`Probe::join`] in cluster-id
//! order after the run — so a recording probe sees a deterministic merge
//! even though thread interleavings differ run to run.
//!
//! [`KernelStats`]: crate::stats::KernelStats

use crate::event::LpId;
use crate::time::VTime;

/// What caused a rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackKind {
    /// A straggler positive event arrived below LVT.
    Primary,
    /// An anti-message cancelled an already-executed event.
    Secondary,
}

/// One kernel protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A batch of `events` simultaneous events was executed at `now`.
    BatchExecuted {
        /// The executing LP.
        lp: LpId,
        /// The batch's receive time.
        now: VTime,
        /// Events in the batch.
        events: u64,
    },
    /// The batch just executed declared application-level work through
    /// the `EventSink`: `activations` block activations sweeping `ops`
    /// fine-grained operations (compiled gate evaluations), and `saved`
    /// boundary messages elided by logic replication. Emitted only when
    /// the application declared work — gate-per-LP and PHOLD runs never
    /// see it.
    AppWork {
        /// The executing LP.
        lp: LpId,
        /// The batch's receive time.
        now: VTime,
        /// Block activations.
        activations: u64,
        /// Operations swept by those activations.
        ops: u64,
        /// Boundary messages a replica made unnecessary.
        saved: u64,
    },
    /// A rollback is starting: `lp` unwinds from `from` so the next batch
    /// executes at `to`.
    RollbackBegun {
        /// The rolling-back LP.
        lp: LpId,
        /// Straggler or anti-message.
        kind: RollbackKind,
        /// LVT before the rollback.
        from: VTime,
        /// Receive time of the next batch to execute.
        to: VTime,
    },
    /// The rollback that just began has finished: `undone` events were
    /// unprocessed and `coasted` silently re-executed during coast-forward.
    RollbackEnded {
        /// The rolled-back LP.
        lp: LpId,
        /// As in the matching `RollbackBegun`.
        to: VTime,
        /// Events un-processed.
        undone: u64,
        /// Events re-executed to rebuild the state.
        coasted: u64,
    },
    /// An anti-message was emitted for an output originally sent at `sent`.
    AntiSent {
        /// The cancelling LP.
        lp: LpId,
        /// Send time of the cancelled output.
        sent: VTime,
    },
    /// An anti-message annihilated a positive (pending or orphan-matched)
    /// with receive time `at`.
    Annihilated {
        /// The receiving LP.
        lp: LpId,
        /// Receive time of the annihilated positive.
        at: VTime,
    },
    /// A state checkpoint was written after the batch at `now`.
    StateSaved {
        /// The checkpointing LP.
        lp: LpId,
        /// Receive time of the batch the checkpoint follows.
        now: VTime,
    },
    /// Fossil collection committed `committed` (> 0) events below `gvt`
    /// on `lp`.
    FossilCollected {
        /// The committing LP.
        lp: LpId,
        /// The GVT committed against.
        gvt: VTime,
        /// Events committed.
        committed: u64,
    },
    /// A GVT round completed. `states_held` / `pending` are the queue
    /// depths visible to the caller (per cluster on the threaded
    /// executive, global on the platform); `wall_ns` is the executive's
    /// clock — modeled nanoseconds on the virtual platform, elapsed real
    /// nanoseconds on the threaded executive.
    GvtAdvanced {
        /// The agreed GVT.
        gvt: VTime,
        /// Checkpoints held after the commit.
        states_held: u64,
        /// Events still unprocessed.
        pending: u64,
        /// The executive's clock.
        wall_ns: u64,
    },
    /// A transmission `src` → `dst` (application event or anti-message)
    /// crossed a cluster/node boundary with receive time `at`.
    RemoteMessage {
        /// Application event (`true`) or anti-message.
        positive: bool,
        /// Receive time of the transmission.
        at: VTime,
        /// The sending LP.
        src: LpId,
        /// The receiving LP.
        dst: LpId,
    },
    /// Dynamic load balancing migrated `lp` from node/cluster `from` to
    /// `to` at the GVT round that agreed on `gvt`; `bytes` is the modeled
    /// size of the transferred closure: `size_of::<Event<Msg>>()` per
    /// pending event plus, per state (the current one and each
    /// checkpoint), its inline `size_of::<State>()` and the heap it owns
    /// ([`crate::Application::heap_bytes`]): a narrow gate counts 32 B, a
    /// compiled block 32 B plus its boxed buffers. On the threaded
    /// executive only the *source* cluster emits it.
    LpMigrated {
        /// The migrating LP.
        lp: LpId,
        /// Source node/cluster.
        from: u32,
        /// Destination node/cluster.
        to: u32,
        /// The GVT of the balancing round.
        gvt: VTime,
        /// Modeled closure size.
        bytes: u64,
    },
}

impl ProbeEvent {
    /// The virtual time a time series files this event under: executed
    /// work by its execution time, rollbacks by their restore target,
    /// anti-messages by their original send time, commits, GVT rounds,
    /// and migrations by their GVT, transmissions by their
    /// receive time.
    pub fn time(&self) -> VTime {
        match *self {
            ProbeEvent::BatchExecuted { now, .. }
            | ProbeEvent::AppWork { now, .. }
            | ProbeEvent::StateSaved { now, .. } => now,
            ProbeEvent::RollbackBegun { to, .. } | ProbeEvent::RollbackEnded { to, .. } => to,
            ProbeEvent::AntiSent { sent, .. } => sent,
            ProbeEvent::FossilCollected { gvt, .. }
            | ProbeEvent::GvtAdvanced { gvt, .. }
            | ProbeEvent::LpMigrated { gvt, .. } => gvt,
            ProbeEvent::Annihilated { at, .. } | ProbeEvent::RemoteMessage { at, .. } => at,
        }
    }
}

/// Observer of kernel protocol events. See the module docs for the
/// contract.
pub trait Probe: Send {
    /// Observe one protocol event, after the protocol has acted on it.
    fn on(&mut self, event: ProbeEvent);

    /// Create an independent child probe for one cluster thread.
    fn fork(&mut self) -> Self
    where
        Self: Sized;

    /// Merge a child probe back (called in cluster-id order).
    fn join(&mut self, child: Self)
    where
        Self: Sized;
}

/// The zero-cost default probe: its handler compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn on(&mut self, _event: ProbeEvent) {}
    fn fork(&mut self) -> NoProbe {
        NoProbe
    }
    fn join(&mut self, _child: NoProbe) {}
}

/// Fan a probe stream out to two probes (`recorder` + custom, say).
#[derive(Debug, Clone, Default)]
pub struct Tee<P, Q> {
    /// First receiver of every event.
    pub a: P,
    /// Second receiver of every event.
    pub b: Q,
}

impl<P, Q> Tee<P, Q> {
    /// Combine two probes.
    pub fn new(a: P, b: Q) -> Tee<P, Q> {
        Tee { a, b }
    }
}

/// An optional probe: `None` observes nothing, for one branch per event.
impl<P: Probe> Probe for Option<P> {
    #[inline]
    fn on(&mut self, event: ProbeEvent) {
        self.iter_mut().for_each(|probe| probe.on(event));
    }
    fn fork(&mut self) -> Option<P> {
        self.as_mut().map(P::fork)
    }
    fn join(&mut self, child: Option<P>) {
        self.iter_mut().zip(child).for_each(|(probe, child)| probe.join(child));
    }
}

impl<P: Probe, Q: Probe> Probe for Tee<P, Q> {
    #[inline]
    fn on(&mut self, event: ProbeEvent) {
        self.a.on(event);
        self.b.on(event);
    }
    fn fork(&mut self) -> Tee<P, Q> {
        Tee { a: self.a.fork(), b: self.b.fork() }
    }
    fn join(&mut self, child: Tee<P, Q>) {
        self.a.join(child.a);
        self.b.join(child.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use crate::stats::KernelStats;

    /// One of every event, each with distinct nonzero payloads.
    fn every_event() -> Vec<ProbeEvent> {
        let (lp, t) = (3, VTime::from(5));
        vec![
            ProbeEvent::BatchExecuted { lp, now: t, events: 2 },
            ProbeEvent::AppWork { lp, now: t, activations: 1, ops: 4, saved: 3 },
            ProbeEvent::RollbackBegun {
                lp,
                kind: RollbackKind::Primary,
                from: t,
                to: VTime::from(3),
            },
            ProbeEvent::RollbackBegun {
                lp,
                kind: RollbackKind::Secondary,
                from: t,
                to: VTime::from(3),
            },
            ProbeEvent::RollbackEnded { lp, to: VTime::from(3), undone: 2, coasted: 1 },
            ProbeEvent::AntiSent { lp, sent: t },
            ProbeEvent::Annihilated { lp, at: t },
            ProbeEvent::StateSaved { lp, now: t },
            ProbeEvent::FossilCollected { lp, gvt: t, committed: 3 },
            ProbeEvent::GvtAdvanced { gvt: t, states_held: 6, pending: 2, wall_ns: 900 },
            ProbeEvent::RemoteMessage { positive: true, at: t, src: 1, dst: lp },
            ProbeEvent::RemoteMessage { positive: false, at: t, src: 1, dst: lp },
            ProbeEvent::LpMigrated { lp, from: 0, to: 1, gvt: t, bytes: 64 },
        ]
    }

    #[test]
    fn every_event_moves_a_counter_or_a_gauge() {
        // An arm that forgets its increment would compile and silently
        // drop telemetry: each event alone must move something.
        for event in every_event() {
            let mut series = TimeSeries::new(10);
            series.on(event);
            let totals = series.totals();
            assert!(totals.columns().any(|(_, v)| v != 0), "{event:?} moved nothing");
            let mut stats = KernelStats::default();
            stats.on(event);
            assert_eq!(totals.counts, stats, "{event:?}: a bucket counts like KernelStats");
        }
        // Together they move every exported column.
        let mut series = TimeSeries::new(10);
        every_event().into_iter().for_each(|e| series.on(e));
        for (name, value) in series.totals().columns() {
            assert_ne!(value, 0, "column {name} never moved");
        }
    }

    #[test]
    fn tee_forks_and_joins_both_sides() {
        let mut tee = Tee::new(KernelStats::default(), TimeSeries::new(10));
        let event = ProbeEvent::BatchExecuted { lp: 0, now: VTime::from(1), events: 1 };
        tee.on(event);
        let mut child = tee.fork();
        assert_eq!(child.a, KernelStats::default(), "children start empty");
        assert!(child.b.is_empty());
        child.on(ProbeEvent::BatchExecuted { lp: 1, now: VTime::from(25), events: 3 });
        tee.join(child);
        assert_eq!((tee.a.batches_executed, tee.a.events_processed), (2, 4));
        assert_eq!(tee.b.len(), 2, "the joined child's bucket arrived");
        assert_eq!(tee.b.totals().counts, tee.a);
    }

    #[test]
    fn noprobe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }
}
