//! Simulation statistics: the paper's Figures 4–6, in total and per LP.

use crate::event::LpId;
use crate::probe::{Probe, ProbeEvent, RollbackKind};
use crate::time::VTime;

/// How a counter combines when per-cluster [`KernelStats`] merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Counted where it happens: totals add up.
    Sum,
    /// Recorded identically by every participant (a synchronized round, a
    /// static per-run property) or a high-water gauge: keep the largest.
    Max,
}

impl Merge {
    /// Combine two values under this rule.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }
}

/// One row of the counter table, as data: see [`KernelStats::COUNTERS`].
#[derive(Debug)]
pub struct Counter {
    /// The [`KernelStats`] field name.
    pub name: &'static str,
    /// How per-cluster values combine in [`KernelStats::merge`].
    pub merge: Merge,
    /// The telemetry column that buckets this counter by virtual time;
    /// `None` for aggregate-only counters.
    pub column: Option<&'static str>,
    /// Read the counter.
    pub get: fn(&KernelStats) -> u64,
    /// Mutable access (merging, rebuilding stats from a name/value list).
    pub get_mut: fn(&mut KernelStats) -> &mut u64,
}

macro_rules! counter {
    ($field:ident, $rule:ident, $column:expr) => {
        Counter {
            name: stringify!($field),
            merge: Merge::$rule,
            column: $column,
            get: |s| s.$field,
            get_mut: |s| &mut s.$field,
        }
    };
}

/// Derives [`KernelStats`] and [`KernelStats::COUNTERS`] from the one
/// table of kernel counters below. A row is `/// doc` + `field: rule`
/// and, for counters that are also bucketed by virtual time, `=> column`
/// — the name the telemetry series exports it under. Row order is the
/// export order of both.
///
/// Adding a counter is one row here plus, for a counter the kernel
/// counts, its arm in `impl Probe for KernelStats` (and the
/// [`ProbeEvent`] variant, with its emit site, if no event carries it
/// yet).
macro_rules! kernel_counters {
    (
        bucketed { $($(#[$bdoc:meta])* $bfield:ident: $brule:ident => $column:ident;)* }
        aggregate_only { $($(#[$adoc:meta])* $afield:ident: $arule:ident;)* }
    ) => {
        /// Counters collected by every executive. All counts are totals
        /// across LPs unless noted. The fields are generated from the
        /// `kernel_counters!` table in `stats.rs`.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct KernelStats {
            $($(#[$bdoc])* pub $bfield: u64,)*
            $($(#[$adoc])* pub $afield: u64,)*
            /// Final GVT (== [`VTime::INF`] on clean termination).
            pub final_gvt: VTime,
        }

        impl KernelStats {
            /// Every `u64` counter in table order (bucketed ones first).
            pub const COUNTERS: &'static [Counter] = &[
                $(counter!($bfield, $brule, Some(stringify!($column))),)*
                $(counter!($afield, $arule, None),)*
            ];
        }
    };
}

kernel_counters! {
    bucketed {
        /// Event batches executed (including ones later rolled back).
        batches_executed: Sum => batches;
        /// Individual events processed (including ones later rolled
        /// back).
        events_processed: Sum => events;
        /// Block activations: batches in which a fused
        /// (compiled-block) LP swept its instruction buffer. Zero for
        /// models that do not declare app-level work (e.g.
        /// gate-per-LP mode, PHOLD).
        block_activations: Sum => block_activations;
        /// Fine-grained application operations (compiled gate
        /// evaluations) executed inside block activations, including
        /// later-rolled-back work; coast-forward replays are excluded
        /// (they are counted as `events_coasted`).
        ops_executed: Sum => ops_executed;
        /// Rollbacks caused by a straggler positive event.
        primary_rollbacks: Sum => primary_rollbacks;
        /// Rollbacks caused by an anti-message (cancellation chasing).
        secondary_rollbacks: Sum => secondary_rollbacks;
        /// Events that were processed and later un-processed by a
        /// rollback (wasted optimistic work).
        events_rolled_back: Sum => events_rolled_back;
        /// Events re-executed silently during coast-forward (rollback
        /// repair between sparse checkpoints).
        events_coasted: Sum => events_coasted;
        /// Anti-messages sent.
        antis_sent: Sum => antis_sent;
        /// Positive events annihilated by anti-messages before
        /// execution.
        annihilated_pending: Sum => annihilations;
        /// State checkpoints written.
        states_saved: Sum => states_saved;
        /// Events committed (fossil-collected below GVT or remaining
        /// at a clean termination).
        events_committed: Sum => events_committed;
        /// Positive application events that crossed cluster/node
        /// boundaries — the "Number of Application Messages" of the
        /// paper's Figure 5.
        app_messages: Sum => app_messages;
        /// Anti-messages that crossed cluster/node boundaries.
        anti_messages_remote: Sum => remote_antis;
        /// GVT computation rounds. A synchronized round is counted
        /// once by every cluster, hence `Max` (a threaded run's series
        /// still sums every cluster's rounds).
        gvt_rounds: Max => gvt_rounds;
    }
    aggregate_only {
        /// Channel sends performed by the threaded executive (remote
        /// messages are coalesced into one batch per destination
        /// cluster per routing pass, so this is ≤ `app_messages +
        /// anti_messages_remote`; zero on the sequential and platform
        /// executives, which use no channels).
        comm_batches: Sum;
        /// Gate replicas materialised by the application (the extra
        /// LPs/ops that exist only to evaluate a copied gate locally;
        /// see logic replication in `pls-partition`). A static per-run
        /// property recorded identically by every cluster, hence
        /// `Max`. Zero for models without replication.
        replicated_gates: Max;
        /// Boundary messages elided by logic replication: each time a
        /// replica's output toggles, the messages its home copy would
        /// have sent to that part are not sent. Counted where the
        /// replica executes, under the same processed-work accounting
        /// as `app_messages` (rolled-back work stays counted,
        /// coast-forward replays do not).
        messages_saved: Sum;
        /// High-water mark of total saved states held at once (memory
        /// proxy; the paper's s15850 2-node runs died on this). Each
        /// cluster holds its own states, so the marks add.
        state_queue_high_water: Sum;
    }
}

impl KernelStats {
    /// Total rollbacks (primary + secondary) — the paper's Figure 6 metric.
    pub fn rollbacks(&self) -> u64 {
        self.primary_rollbacks + self.secondary_rollbacks
    }

    /// Every counter as `(name, value)`, in [`Self::COUNTERS`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Self::COUNTERS.iter().map(move |c| (c.name, (c.get)(self)))
    }

    /// Merge counters from another instance (used to aggregate per-cluster
    /// stats): each counter by its declared [`Merge`] rule, `final_gvt` by
    /// max.
    pub fn merge(&mut self, other: &KernelStats) {
        for c in Self::COUNTERS {
            let slot = (c.get_mut)(self);
            *slot = c.merge.combine(*slot, (c.get)(other));
        }
        self.final_gvt = self.final_gvt.max(other.final_gvt);
    }
}

/// The kernel's one counting path: every bucketed counter is incremented
/// here and nowhere else. The executives run the kernel against
/// `Tee<KernelStats, P>`, and a time-series bucket is a `KernelStats`
/// counted by this same handler, so aggregates and series cannot drift
/// apart.
impl Probe for KernelStats {
    #[inline]
    fn on(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::BatchExecuted { events, .. } => {
                self.batches_executed += 1;
                self.events_processed += events;
            }
            ProbeEvent::AppWork { activations, ops, saved, .. } => {
                self.block_activations += activations;
                self.ops_executed += ops;
                self.messages_saved += saved;
            }
            ProbeEvent::RollbackBegun { kind: RollbackKind::Primary, .. } => {
                self.primary_rollbacks += 1;
            }
            ProbeEvent::RollbackBegun { kind: RollbackKind::Secondary, .. } => {
                self.secondary_rollbacks += 1;
            }
            ProbeEvent::RollbackEnded { undone, coasted, .. } => {
                self.events_rolled_back += undone;
                self.events_coasted += coasted;
            }
            ProbeEvent::AntiSent { .. } => self.antis_sent += 1,
            ProbeEvent::Annihilated { .. } => self.annihilated_pending += 1,
            ProbeEvent::StateSaved { .. } => self.states_saved += 1,
            ProbeEvent::FossilCollected { committed, .. } => self.events_committed += committed,
            ProbeEvent::GvtAdvanced { .. } => self.gvt_rounds += 1,
            ProbeEvent::RemoteMessage { positive: true, .. } => self.app_messages += 1,
            ProbeEvent::RemoteMessage { positive: false, .. } => self.anti_messages_remote += 1,
        }
    }

    fn fork(&mut self) -> KernelStats {
        KernelStats::default()
    }

    fn join(&mut self, child: KernelStats) {
        self.merge(&child);
    }
}

/// One LP's counts in an [`LpLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpActivity {
    /// Events executed (including ones later rolled back).
    pub events: u64,
    /// Rollbacks suffered (primary + secondary).
    pub rollbacks: u64,
    /// Events undone by those rollbacks.
    pub events_rolled_back: u64,
}

/// A probe that counts [`LpActivity`] per LP — where a bad partition
/// shows. Attach one with [`crate::Simulator::probe`];
/// [`crate::Simulator::run_probed`] returns it.
#[derive(Debug, Clone, Default)]
pub struct LpLedger {
    /// Indexed by LP id, up to the highest one seen.
    lps: Vec<LpActivity>,
}

impl LpLedger {
    /// The counts of every LP, indexed by LP id (an LP past the end did
    /// nothing).
    pub fn into_parts(self) -> Vec<LpActivity> {
        self.lps
    }

    fn at(&mut self, lp: LpId) -> &mut LpActivity {
        let i = lp as usize;
        if i >= self.lps.len() {
            self.lps.resize(i + 1, LpActivity::default());
        }
        &mut self.lps[i]
    }
}

impl Probe for LpLedger {
    #[inline]
    fn on(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::BatchExecuted { lp, events, .. } => self.at(lp).events += events,
            ProbeEvent::RollbackBegun { lp, .. } => self.at(lp).rollbacks += 1,
            ProbeEvent::RollbackEnded { lp, undone: n, .. } => self.at(lp).events_rolled_back += n,
            _ => {}
        }
    }

    fn fork(&mut self) -> LpLedger {
        LpLedger::default()
    }

    fn join(&mut self, child: LpLedger) {
        for (lp, a) in (0..).zip(child.lps) {
            let mine = self.at(lp);
            mine.events += a.events;
            mine.rollbacks += a.rollbacks;
            mine.events_rolled_back += a.events_rolled_back;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Ring};
    use crate::KernelConfig;

    #[test]
    fn rollbacks_sum_primary_and_secondary() {
        let s = KernelStats { primary_rollbacks: 3, secondary_rollbacks: 2, ..Default::default() };
        assert_eq!(s.rollbacks(), 5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = KernelStats { events_processed: 5, app_messages: 2, ..Default::default() };
        let b = KernelStats {
            events_processed: 7,
            app_messages: 1,
            final_gvt: VTime::INF,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 12);
        assert_eq!(a.app_messages, 3);
        assert_eq!(a.final_gvt, VTime::INF);
    }

    #[test]
    fn every_counter_merges_by_its_declared_rule() {
        // Distinct values per counter and per side, so a row wired to the
        // wrong field or the wrong rule cannot cancel out.
        let mut a = KernelStats { final_gvt: VTime::from(7), ..Default::default() };
        let mut b = KernelStats { final_gvt: VTime::from(3), ..Default::default() };
        for (i, c) in (0u64..).zip(KernelStats::COUNTERS) {
            *(c.get_mut)(&mut a) = 100 + i;
            *(c.get_mut)(&mut b) = 1000 - 7 * i;
        }
        let mut merged = b.clone();
        merged.merge(&a);
        for c in KernelStats::COUNTERS {
            let (x, y) = ((c.get)(&a), (c.get)(&b));
            let want = match c.merge {
                Merge::Sum => x + y,
                Merge::Max => x.max(y),
            };
            assert_eq!((c.get)(&merged), want, "{} ({:?})", c.name, c.merge);
        }
        assert_eq!(merged.final_gvt, VTime::from(7));
        let names: Vec<&str> = merged.iter().map(|(n, _)| n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), KernelStats::COUNTERS.len(), "duplicate counter name");
        assert_eq!(names[0], "batches_executed");
    }

    /// A ledger attached to a run of `backend` agrees with the run's
    /// `KernelStats`: summed over LPs, its events, rollbacks and events
    /// undone are the aggregates.
    fn ledger_agrees_with_kernel_stats(app: &Ring, backend: Backend<'_>) {
        let (report, ledger) = Simulator::new(app)
            .config(KernelConfig { gvt_period: 4, ..Default::default() })
            .probe(LpLedger::default())
            .run_probed(backend)
            .unwrap();
        let stats = &report.stats;
        let lps = ledger.into_parts();
        let sum = |f: fn(&LpActivity) -> u64| lps.iter().map(f).sum::<u64>();
        assert_eq!(sum(|a| a.events), stats.events_processed, "{backend:?}");
        assert_eq!(sum(|a| a.rollbacks), stats.rollbacks(), "{backend:?}");
        assert_eq!(sum(|a| a.events_rolled_back), stats.events_rolled_back, "{backend:?}");
        assert!(lps.len() <= app.n, "{backend:?}");
    }

    #[test]
    fn ledger_agrees_with_kernel_stats_on_every_executive() {
        let app = Ring { n: 12, hops: 40 };
        let striped = round_robin(12, 4);
        ledger_agrees_with_kernel_stats(&app, Backend::Sequential);
        ledger_agrees_with_kernel_stats(&app, Backend::Platform { assignment: &striped, nodes: 4 });
        // Four cluster threads: each counts into its own fork.
        ledger_agrees_with_kernel_stats(
            &app,
            Backend::Threaded { assignment: &striped, clusters: 4 },
        );
    }
}
