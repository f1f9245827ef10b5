//! Simulation statistics: the paper's Figures 4–6, in total and per LP.

use std::collections::BTreeMap;

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
        /// LPs migrated between nodes/clusters by dynamic load
        /// balancing (counted by the source cluster only).
        migrations: Sum => migrations;
        /// Modeled bytes of LP closure (current state + checkpoints +
        /// pending events) moved by migrations, each state counted at its
        /// inline size plus the heap it owns (see `ProbeEvent::LpMigrated`).
        migrated_state_bytes: Sum => migrated_bytes;
    }
    aggregate_only {
        /// Channel sends performed by the threaded executive (remote
        /// messages are coalesced into one batch per destination
        /// cluster per routing pass, so this is ≤ `app_messages +
        /// anti_messages_remote`; zero on the sequential and platform
        /// executives, which use no channels).
        comm_batches: Sum;
        /// Dynamic load-balancing rounds executed (0 unless a balancer
        /// was configured via [`crate::Simulator::load_balancer`]).
        /// Synchronized like `gvt_rounds`, hence `Max`.
        lb_rounds: Max;
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
            ProbeEvent::LpMigrated { bytes, .. } => {
                self.migrations += 1;
                self.migrated_state_bytes += bytes;
            }
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

/// A probe that counts [`LpActivity`] per LP and positive remote messages
/// per unordered LP pair — where a bad partition shows. Attach one with
/// [`crate::Simulator::probe`]; [`crate::Simulator::run_probed`] returns it.
#[derive(Debug, Clone, Default)]
pub struct LpLedger {
    /// Indexed by LP id, up to the highest one seen.
    lps: Vec<LpActivity>,
    pairs: BTreeMap<(LpId, LpId), u64>,
    /// Pairs sent since the last `GvtAdvanced`: a send, on the routing hot
    /// path, only pushes, and the next round folds the log into `pairs`.
    log: Vec<(LpId, LpId)>,
}

impl LpLedger {
    /// The counts of every LP, indexed by LP id (an LP past the end did
    /// nothing), and the positive remote messages per LP pair `(min, max)`.
    pub fn into_parts(mut self) -> (Vec<LpActivity>, BTreeMap<(LpId, LpId), u64>) {
        self.fold();
        (self.lps, self.pairs)
    }

    fn at(&mut self, lp: LpId) -> &mut LpActivity {
        let i = lp as usize;
        if i >= self.lps.len() {
            self.lps.resize(i + 1, LpActivity::default());
        }
        &mut self.lps[i]
    }

    fn fold(&mut self) {
        for pair in self.log.drain(..) {
            *self.pairs.entry(pair).or_insert(0) += 1;
        }
    }
}

impl Probe for LpLedger {
    #[inline]
    fn on(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::BatchExecuted { lp, events, .. } => self.at(lp).events += events,
            ProbeEvent::RollbackBegun { lp, .. } => self.at(lp).rollbacks += 1,
            ProbeEvent::RollbackEnded { lp, undone: n, .. } => self.at(lp).events_rolled_back += n,
            ProbeEvent::RemoteMessage { positive: true, src, dst, .. } => {
                self.log.push((src.min(dst), src.max(dst)));
            }
            ProbeEvent::GvtAdvanced { .. } => self.fold(),
            _ => {}
        }
    }

    fn fork(&mut self) -> LpLedger {
        LpLedger::default()
    }

    fn join(&mut self, child: LpLedger) {
        let (lps, pairs) = child.into_parts();
        for (lp, a) in (0..).zip(lps) {
            let mine = self.at(lp);
            mine.events += a.events;
            mine.rollbacks += a.rollbacks;
            mine.events_rolled_back += a.events_rolled_back;
        }
        for (pair, n) in pairs {
            *self.pairs.entry(pair).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynlb::DynLbConfig;
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
    fn merge_rules_for_lb_counters() {
        // lb_rounds counts synchronized rounds (max, like gvt_rounds);
        // migrations and bytes are per-source (sum).
        let mut a = KernelStats {
            lb_rounds: 3,
            migrations: 2,
            migrated_state_bytes: 100,
            ..Default::default()
        };
        let b = KernelStats {
            lb_rounds: 3,
            migrations: 1,
            migrated_state_bytes: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lb_rounds, 3);
        assert_eq!(a.migrations, 3);
        assert_eq!(a.migrated_state_bytes, 140);
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
    /// undone are the aggregates, and its pair total is the application
    /// messages. Returns the run's migrations.
    fn ledger_agrees_with_kernel_stats(
        app: &Ring,
        backend: Backend<'_>,
        dynlb: Option<DynLbConfig>,
    ) -> u64 {
        let mut sim = Simulator::new(app)
            .config(KernelConfig { gvt_period: 4, ..Default::default() })
            .probe(LpLedger::default());
        if let Some(lb) = dynlb {
            sim = sim.load_balancer(lb);
        }
        let (report, ledger) = sim.run_probed(backend).unwrap();
        let stats = &report.stats;
        let (lps, pairs) = ledger.into_parts();
        let sum = |f: fn(&LpActivity) -> u64| lps.iter().map(f).sum::<u64>();
        assert_eq!(sum(|a| a.events), stats.events_processed, "{backend:?}");
        assert_eq!(sum(|a| a.rollbacks), stats.rollbacks(), "{backend:?}");
        assert_eq!(sum(|a| a.events_rolled_back), stats.events_rolled_back, "{backend:?}");
        assert!(lps.len() <= app.n, "{backend:?}");
        assert_eq!(pairs.values().sum::<u64>(), stats.app_messages, "{backend:?}");
        stats.migrations
    }

    #[test]
    fn ledger_agrees_with_kernel_stats_on_every_executive() {
        let app = Ring { n: 12, hops: 40 };
        let striped = round_robin(12, 4);
        let skewed = vec![0u32; 12];
        let lb = Some(DynLbConfig { period: 1, ..Default::default() });
        ledger_agrees_with_kernel_stats(&app, Backend::Sequential, None);
        ledger_agrees_with_kernel_stats(
            &app,
            Backend::Platform { assignment: &striped, nodes: 4 },
            None,
        );
        // Four cluster threads: each counts into its own fork.
        ledger_agrees_with_kernel_stats(
            &app,
            Backend::Threaded { assignment: &striped, clusters: 4 },
            None,
        );
        // Balanced runs, where an LP's activity is split across the
        // clusters it lived on.
        let platform = Backend::Platform { assignment: &skewed, nodes: 3 };
        assert!(ledger_agrees_with_kernel_stats(&app, platform, lb) > 0, "no migration");
        let threaded = Backend::Threaded { assignment: &skewed, clusters: 3 };
        assert!(ledger_agrees_with_kernel_stats(&app, threaded, lb) > 0, "no migration");
    }

    #[test]
    fn pairs_fold_at_gvt_and_on_read() {
        let mut ledger = LpLedger::default();
        let send = |positive, src, dst| ProbeEvent::RemoteMessage {
            positive,
            at: VTime::from(3),
            src,
            dst,
        };
        ledger.on(send(true, 4, 1));
        ledger.on(send(true, 1, 4));
        ledger.on(send(false, 1, 2));
        ledger.on(ProbeEvent::GvtAdvanced {
            gvt: VTime::from(2),
            states_held: 0,
            pending: 0,
            wall_ns: 0,
        });
        assert!(ledger.log.is_empty(), "a GVT round folds the log");
        ledger.on(send(true, 2, 0));
        let (_, pairs) = ledger.into_parts();
        assert_eq!(pairs, BTreeMap::from([((0, 2), 1), ((1, 4), 2)]), "and so does a read");
    }
}
