//! Pluggable kernel telemetry: the [`Probe`] trait.
//!
//! Every executive invokes a probe at the well-defined protocol points of
//! Time Warp — batch executed, rollback begun/ended, anti-message
//! sent/annihilated, state saved, fossil collection, GVT advance, remote
//! message crossing a cluster/node boundary, queue-depth samples. A probe
//! observes; it must never influence the simulation (the test suite
//! enforces that committed trace hashes are identical with and without a
//! recording probe, and `pls-detlint` rule **D008** statically rejects
//! any probe impl that reaches kernel-mutating API or shared writable
//! state — even on paths no test executes).
//!
//! The default probe is [`NoProbe`], a zero-sized type whose callbacks are
//! empty: executives are generic over `P: Probe`, so with `NoProbe` every
//! call site monomorphizes to nothing — telemetry costs exactly zero when
//! off. [`crate::series::TimeSeries`] is the bundled recording probe.
//!
//! Concurrency model: the threaded executive calls [`Probe::fork`] once
//! per cluster to obtain an independent child probe (no locking on the hot
//! path) and merges the children back with [`Probe::join`] in cluster-id
//! order after the run — so a recording probe sees a deterministic merge
//! even though thread interleavings differ run to run.

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

/// Observer of kernel protocol events. All callbacks default to no-ops;
/// implement only what you need. See the module docs for the contract.
#[allow(unused_variables)]
pub trait Probe: Send {
    /// A batch of `events` simultaneous events was executed at `now`.
    fn batch_executed(&mut self, lp: LpId, now: VTime, events: u64) {}

    /// The batch just executed declared application-level work through the
    /// `EventSink`: `activations` block activations sweeping `ops`
    /// fine-grained operations (compiled gate evaluations). Fires only
    /// when the application declared work — gate-per-LP and PHOLD runs
    /// never see it.
    fn app_work(&mut self, lp: LpId, now: VTime, activations: u64, ops: u64) {}

    /// A rollback is starting: `lp` unwinds from `from` so the next batch
    /// executes at `to`.
    fn rollback_begun(&mut self, lp: LpId, kind: RollbackKind, from: VTime, to: VTime) {}

    /// The rollback that just began has finished: `undone` events were
    /// unprocessed and `coasted` silently re-executed during coast-forward.
    fn rollback_ended(&mut self, lp: LpId, to: VTime, undone: u64, coasted: u64) {}

    /// An anti-message was emitted for an output originally sent at `sent`.
    fn anti_sent(&mut self, lp: LpId, sent: VTime) {}

    /// An anti-message annihilated a positive (pending or orphan-matched)
    /// with receive time `at`.
    fn annihilated(&mut self, lp: LpId, at: VTime) {}

    /// A state checkpoint was written after the batch at `now`.
    fn state_saved(&mut self, lp: LpId, now: VTime) {}

    /// Fossil collection committed `committed` events below `gvt` on `lp`.
    fn fossil_collected(&mut self, lp: LpId, gvt: VTime, committed: u64) {}

    /// A GVT round completed. `states_held` / `pending` are the queue
    /// depths visible to the caller (per cluster on the threaded
    /// executive, global on the platform); `wall_ns` is the executive's
    /// clock — modeled nanoseconds on the virtual platform, elapsed real
    /// nanoseconds on the threaded executive, 0 on the sequential one.
    fn gvt_advanced(&mut self, gvt: VTime, states_held: u64, pending: u64, wall_ns: u64) {}

    /// A transmission crossed a cluster/node boundary (positive
    /// application event or anti-message) with receive time `at`.
    fn remote_message(&mut self, positive: bool, at: VTime) {}

    /// Dynamic load balancing migrated `lp` from node/cluster `from` to
    /// `to` at the GVT round that agreed on `gvt`; `bytes` is the modeled
    /// size of the transferred closure (state + checkpoints + pending
    /// events). On the threaded executive only the *source* cluster's
    /// probe observes the migration.
    fn lp_migrated(&mut self, lp: LpId, from: u32, to: u32, gvt: VTime, bytes: u64) {}

    /// An injected fault window opened (`onset`) or closed on platform
    /// `node`; `active_now` is the number of windows active after the
    /// edge and `gvt` the last computed GVT (used for bucketing). Fires
    /// only when a [`crate::chaos::FaultPlan`] is installed.
    fn fault_event(&mut self, node: u32, onset: bool, active_now: u64, gvt: VTime) {}

    /// Injected link loss dropped a transmission with receive time `at`
    /// (`positive` distinguishes application events from anti-messages;
    /// dropped *acks* report the original transmission's polarity).
    fn transmission_dropped(&mut self, positive: bool, at: VTime) {}

    /// The ack/retransmit protocol re-sent an unacked transmission with
    /// receive time `at`.
    fn retransmitted(&mut self, at: VTime) {}

    /// Create an independent child probe for one cluster thread.
    fn fork(&mut self) -> Self
    where
        Self: Sized;

    /// Merge a child probe back (called in cluster-id order).
    fn join(&mut self, child: Self)
    where
        Self: Sized;
}

/// The zero-cost default probe: every callback compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn fork(&mut self) -> NoProbe {
        NoProbe
    }
    fn join(&mut self, _child: NoProbe) {}
}

/// Fan a probe stream out to two probes (`recorder` + custom, say).
#[derive(Debug, Clone, Default)]
pub struct Tee<P, Q> {
    /// First receiver of every callback.
    pub a: P,
    /// Second receiver of every callback.
    pub b: Q,
}

impl<P, Q> Tee<P, Q> {
    /// Combine two probes.
    pub fn new(a: P, b: Q) -> Tee<P, Q> {
        Tee { a, b }
    }
}

impl<P: Probe, Q: Probe> Probe for Tee<P, Q> {
    fn batch_executed(&mut self, lp: LpId, now: VTime, events: u64) {
        self.a.batch_executed(lp, now, events);
        self.b.batch_executed(lp, now, events);
    }
    fn app_work(&mut self, lp: LpId, now: VTime, activations: u64, ops: u64) {
        self.a.app_work(lp, now, activations, ops);
        self.b.app_work(lp, now, activations, ops);
    }
    fn rollback_begun(&mut self, lp: LpId, kind: RollbackKind, from: VTime, to: VTime) {
        self.a.rollback_begun(lp, kind, from, to);
        self.b.rollback_begun(lp, kind, from, to);
    }
    fn rollback_ended(&mut self, lp: LpId, to: VTime, undone: u64, coasted: u64) {
        self.a.rollback_ended(lp, to, undone, coasted);
        self.b.rollback_ended(lp, to, undone, coasted);
    }
    fn anti_sent(&mut self, lp: LpId, sent: VTime) {
        self.a.anti_sent(lp, sent);
        self.b.anti_sent(lp, sent);
    }
    fn annihilated(&mut self, lp: LpId, at: VTime) {
        self.a.annihilated(lp, at);
        self.b.annihilated(lp, at);
    }
    fn state_saved(&mut self, lp: LpId, now: VTime) {
        self.a.state_saved(lp, now);
        self.b.state_saved(lp, now);
    }
    fn fossil_collected(&mut self, lp: LpId, gvt: VTime, committed: u64) {
        self.a.fossil_collected(lp, gvt, committed);
        self.b.fossil_collected(lp, gvt, committed);
    }
    fn gvt_advanced(&mut self, gvt: VTime, states_held: u64, pending: u64, wall_ns: u64) {
        self.a.gvt_advanced(gvt, states_held, pending, wall_ns);
        self.b.gvt_advanced(gvt, states_held, pending, wall_ns);
    }
    fn remote_message(&mut self, positive: bool, at: VTime) {
        self.a.remote_message(positive, at);
        self.b.remote_message(positive, at);
    }
    fn lp_migrated(&mut self, lp: LpId, from: u32, to: u32, gvt: VTime, bytes: u64) {
        self.a.lp_migrated(lp, from, to, gvt, bytes);
        self.b.lp_migrated(lp, from, to, gvt, bytes);
    }
    fn fault_event(&mut self, node: u32, onset: bool, active_now: u64, gvt: VTime) {
        self.a.fault_event(node, onset, active_now, gvt);
        self.b.fault_event(node, onset, active_now, gvt);
    }
    fn transmission_dropped(&mut self, positive: bool, at: VTime) {
        self.a.transmission_dropped(positive, at);
        self.b.transmission_dropped(positive, at);
    }
    fn retransmitted(&mut self, at: VTime) {
        self.a.retransmitted(at);
        self.b.retransmitted(at);
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
    use crate::series::{TimeSeries, COLUMNS};

    /// A probe that counts callbacks (exercises fork/join plumbing).
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Counter {
        batches: u64,
        rollbacks: u64,
        antis: u64,
    }

    impl Probe for Counter {
        fn batch_executed(&mut self, _lp: LpId, _now: VTime, _events: u64) {
            self.batches += 1;
        }
        fn rollback_begun(&mut self, _lp: LpId, _k: RollbackKind, _f: VTime, _t: VTime) {
            self.rollbacks += 1;
        }
        fn anti_sent(&mut self, _lp: LpId, _sent: VTime) {
            self.antis += 1;
        }
        fn fork(&mut self) -> Counter {
            Counter::default()
        }
        fn join(&mut self, child: Counter) {
            self.batches += child.batches;
            self.rollbacks += child.rollbacks;
            self.antis += child.antis;
        }
    }

    #[test]
    fn fork_join_accumulates() {
        let mut root = Counter::default();
        root.batch_executed(0, VTime(1), 1);
        let mut child = root.fork();
        assert_eq!(child, Counter::default(), "children start empty");
        child.batch_executed(1, VTime(2), 3);
        child.anti_sent(1, VTime(2));
        root.join(child);
        assert_eq!(root, Counter { batches: 2, rollbacks: 0, antis: 1 });
    }

    #[test]
    fn tee_forwards_every_callback() {
        // Probe methods default to no-ops, so a forward missing from
        // `impl Probe for Tee` would compile and silently drop telemetry.
        // Drive every callback once: both sides must agree, and every
        // column of the recorded totals must have moved.
        let mut tee = Tee::new(TimeSeries::new(10), TimeSeries::new(10));
        let t = VTime(5);
        tee.batch_executed(0, t, 2);
        tee.app_work(0, t, 1, 4);
        tee.rollback_begun(0, RollbackKind::Primary, t, VTime(3));
        tee.rollback_begun(0, RollbackKind::Secondary, t, VTime(3));
        tee.rollback_ended(0, VTime(3), 2, 1);
        tee.anti_sent(0, t);
        tee.annihilated(1, t);
        tee.state_saved(0, t);
        tee.fossil_collected(0, t, 3);
        tee.gvt_advanced(t, 6, 2, 900);
        tee.remote_message(true, t);
        tee.remote_message(false, t);
        tee.lp_migrated(0, 0, 1, t, 64);
        tee.fault_event(1, true, 1, t);
        tee.transmission_dropped(true, t);
        tee.retransmitted(t);
        let mut child = tee.fork();
        child.batch_executed(1, VTime(25), 1);
        tee.join(child);

        assert_eq!(tee.a, tee.b);
        assert_eq!(tee.a.len(), 2, "the joined child's bucket arrived");
        let totals = tee.a.totals();
        for c in COLUMNS {
            assert_ne!((c.get)(&totals), 0, "column {} never moved", c.name);
        }
    }

    #[test]
    fn noprobe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }
}
