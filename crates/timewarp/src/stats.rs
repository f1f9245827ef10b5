//! Simulation statistics — the quantities the paper's Figures 4–6 plot.

use crate::time::VTime;

/// Per-LP counters, for locating rollback and load hotspots (the paper's
/// framework reported aggregate numbers; per-LP breakdowns are what one
/// actually debugs a bad partition with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpCounters {
    /// Events this LP processed (including rolled-back work).
    pub events_processed: u64,
    /// Rollbacks this LP suffered (primary + secondary).
    pub rollbacks: u64,
    /// Events undone on this LP.
    pub events_rolled_back: u64,
}

/// How a counter combines when per-cluster [`KernelStats`] (or telemetry
/// buckets) merge.
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

/// The one declaration of every kernel counter. A row is
/// `/// doc` + `field: rule` and, for counters that are also bucketed by
/// virtual time, `=> column` — the name the telemetry series exports it
/// under. `$with` is handed the whole table: `define_kernel_stats!`
/// below derives [`KernelStats`] and [`KernelStats::COUNTERS`] from it,
/// and `series.rs` derives the additive half of `Bucket` and its column
/// registry. Row order is the export order of both.
///
/// Adding a counter is one row here plus its increment site (and, for a
/// bucketed one, the `TimeSeries` callback line that records it).
macro_rules! kernel_counters {
    ($with:ident) => {
        $with! {
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
                /// still sums every cluster's callback).
                gvt_rounds: Max => gvt_rounds;
                /// LPs migrated between nodes/clusters by dynamic load
                /// balancing (counted by the source cluster only).
                migrations: Sum => migrations;
                /// Modeled bytes of LP closure (current state + checkpoints +
                /// pending events) moved by migrations.
                migrated_state_bytes: Sum => migrated_bytes;
                /// Fault windows opened by an injected
                /// [`crate::chaos::FaultPlan`] (onsets whose platform time the
                /// run actually reached). Zero when chaos is off.
                faults_injected: Sum => faults_injected;
                /// Transmissions (data or acks) dropped by injected link loss.
                /// Each drop costs one RTO of modeled latency before the
                /// retransmit.
                transmissions_dropped: Sum => transmissions_dropped;
                /// Retransmissions performed by the ack/retransmit protocol.
                retransmissions: Sum => retransmissions;
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
    };
}
pub(crate) use kernel_counters;

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

macro_rules! define_kernel_stats {
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

kernel_counters!(define_kernel_stats);

impl KernelStats {
    /// Total rollbacks (primary + secondary) — the paper's Figure 6 metric.
    pub fn rollbacks(&self) -> u64 {
        self.primary_rollbacks + self.secondary_rollbacks
    }

    /// Efficiency: committed / processed events (1.0 = no wasted work).
    pub fn efficiency(&self) -> f64 {
        if self.events_processed == 0 {
            1.0
        } else {
            self.events_committed as f64 / self.events_processed as f64
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollbacks_sum_primary_and_secondary() {
        let s = KernelStats { primary_rollbacks: 3, secondary_rollbacks: 2, ..Default::default() };
        assert_eq!(s.rollbacks(), 5);
    }

    #[test]
    fn efficiency_bounds() {
        let s = KernelStats::default();
        assert_eq!(s.efficiency(), 1.0);
        let s = KernelStats { events_processed: 10, events_committed: 7, ..Default::default() };
        assert!((s.efficiency() - 0.7).abs() < 1e-9);
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
        let mut a = KernelStats { final_gvt: VTime(7), ..Default::default() };
        let mut b = KernelStats { final_gvt: VTime(3), ..Default::default() };
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
        assert_eq!(merged.final_gvt, VTime(7));
        let names: Vec<&str> = merged.iter().map(|(n, _)| n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), KernelStats::COUNTERS.len(), "duplicate counter name");
        assert_eq!(names[0], "batches_executed");
    }
}
