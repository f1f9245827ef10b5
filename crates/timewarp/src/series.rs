//! Time-series telemetry: a recording [`Probe`] that buckets protocol
//! events by virtual time and exports the series as JSON-lines or CSV.
//!
//! This is the measurement substrate behind the paper's Figures 4–6:
//! instead of one end-of-run aggregate, a [`TimeSeries`] shows *when*
//! rollbacks cluster, *when* anti-message storms happen, and how GVT and
//! queue depths evolve — the signals that reveal a bad partition melting
//! down mid-run (e.g. the paper's s15850 2-node state-queue blowup).
//!
//! Invariant (checked by the test suite): for every additive counter, the
//! sum over all buckets equals the run's aggregate [`KernelStats`] value.
//! Bucket counters are updated only from [`Probe`] callbacks, which fire
//! exactly once per `KernelStats` increment.
//!
//! [`KernelStats`]: crate::stats::KernelStats

use std::collections::BTreeMap;

use crate::event::LpId;
use crate::probe::{Probe, RollbackKind};
use crate::stats::{kernel_counters, KernelStats, Merge};
use crate::time::VTime;

/// One telemetry column: a single table entry drives bucket merging,
/// JSONL/CSV export *and* the stats-conservation test, so a new counter
/// cannot be exported but forgotten by the invariant check (or vice
/// versa).
pub struct ColumnSpec {
    /// Column name as exported in JSONL keys and the CSV header.
    pub name: &'static str,
    /// How buckets combine: counters [`Merge::Sum`] (and their sum over
    /// all buckets must equal the matching [`KernelStats`] aggregate),
    /// gauges [`Merge::Max`] (no summation invariant).
    pub merge: Merge,
    /// Read the column from a bucket.
    pub get: fn(&Bucket) -> u64,
    /// Mutable access for merging.
    pub get_mut: fn(&mut Bucket) -> &mut u64,
    /// The run-aggregate this column reconciles with (`None` for gauges).
    pub stats: Option<fn(&KernelStats) -> u64>,
}

macro_rules! gauge {
    ($field:ident) => {
        ColumnSpec {
            name: stringify!($field),
            merge: Merge::Max,
            get: |b| b.$field,
            get_mut: |b| &mut b.$field,
            stats: None,
        }
    };
}

/// Derive [`Bucket`] and [`COLUMNS`] from the `kernel_counters!` table:
/// one field and one additive column per bucketed counter, under its
/// column name, followed by the four gauges — the only columns declared
/// here, because they sample queue depths rather than count protocol
/// events and so have no `KernelStats` counterpart.
macro_rules! define_bucket {
    (
        bucketed { $($(#[$doc:meta])* $field:ident: $rule:ident => $column:ident;)* }
        aggregate_only { $($rest:tt)* }
    ) => {
        /// Counters accumulated for one virtual-time bucket: every
        /// bucketed row of the `kernel_counters!` table in `stats.rs`
        /// (under its column name), then the gauges.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Bucket {
            $($(#[$doc])* pub $column: u64,)*
            /// High-water mark of saved states observed at GVT rounds here.
            pub states_held_max: u64,
            /// High-water mark of pending (unprocessed) events at GVT
            /// rounds here.
            pub pending_max: u64,
            /// Largest executive clock observed at GVT rounds here (modeled
            /// ns on the platform, elapsed real ns on the threaded
            /// executive).
            pub wall_ns_max: u64,
            /// Largest number of simultaneously active fault windows
            /// observed.
            pub fault_active: u64,
        }

        /// The registry of exported stat columns, in export order.
        pub const COLUMNS: &[ColumnSpec] = &[
            $(ColumnSpec {
                name: stringify!($column),
                merge: Merge::Sum,
                get: |b| b.$column,
                get_mut: |b| &mut b.$column,
                stats: Some(|s| s.$field),
            },)*
            gauge!(states_held_max),
            gauge!(pending_max),
            gauge!(wall_ns_max),
            gauge!(fault_active),
        ];
    };
}

kernel_counters!(define_bucket);

impl Bucket {
    /// Total rollbacks (primary + secondary).
    pub fn rollbacks(&self) -> u64 {
        self.primary_rollbacks + self.secondary_rollbacks
    }

    fn merge(&mut self, o: &Bucket) {
        for c in COLUMNS {
            let slot = (c.get_mut)(self);
            *slot = c.merge.combine(*slot, (c.get)(o));
        }
    }
}

/// Bucket key: virtual-time bucket index, with a distinguished `Final`
/// slot for activity at `VTime::INF` (terminal fossil collection, the
/// final GVT round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BucketKey {
    /// Activity in `[index * width, (index + 1) * width)` virtual time.
    At(u64),
    /// Activity at `VTime::INF` (clean-termination bookkeeping).
    Final,
}

/// A recording probe that buckets kernel activity by virtual time.
///
/// `bucket_width` is in virtual-time units; every callback lands in the
/// bucket of its virtual timestamp. Merging (used by the threaded
/// executive's per-cluster [`Probe::fork`]/[`Probe::join`]) sums counters
/// bucket-by-bucket, keyed by bucket index — deterministic regardless of
/// thread interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_width: u64,
    buckets: BTreeMap<BucketKey, Bucket>,
}

impl TimeSeries {
    /// Create an empty series with the given virtual-time bucket width
    /// (clamped to ≥ 1).
    pub fn new(bucket_width: u64) -> TimeSeries {
        TimeSeries { bucket_width: bucket_width.max(1), buckets: BTreeMap::new() }
    }

    /// The configured bucket width in virtual-time units.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    fn key(&self, t: VTime) -> BucketKey {
        if t.is_inf() {
            BucketKey::Final
        } else {
            BucketKey::At(t.0 / self.bucket_width)
        }
    }

    fn at(&mut self, t: VTime) -> &mut Bucket {
        let k = self.key(t);
        self.buckets.entry(k).or_default()
    }

    /// Iterate buckets in virtual-time order (the `Final` bucket last).
    pub fn buckets(&self) -> impl Iterator<Item = (BucketKey, &Bucket)> {
        self.buckets.iter().map(|(&k, b)| (k, b))
    }

    /// Number of non-empty buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum every additive counter across buckets (the aggregate this
    /// series must reconcile with [`crate::stats::KernelStats`]).
    pub fn totals(&self) -> Bucket {
        let mut t = Bucket::default();
        for b in self.buckets.values() {
            t.merge(b);
        }
        t
    }

    /// Merge another series recorded with the same bucket width.
    ///
    /// # Panics
    /// If the widths differ (merging would misalign buckets).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge series with different bucket widths"
        );
        for (k, b) in &other.buckets {
            self.buckets.entry(*k).or_default().merge(b);
        }
    }

    /// Render one bucket as a JSON object (shared by JSONL export).
    /// Column order and names come from [`COLUMNS`].
    fn json_object(&self, k: BucketKey, b: &Bucket) -> String {
        let (bucket, vt_lo, vt_hi) = match k {
            BucketKey::At(i) => (
                i.to_string(),
                (i * self.bucket_width).to_string(),
                ((i + 1) * self.bucket_width).to_string(),
            ),
            BucketKey::Final => ("\"final\"".into(), "null".into(), "null".into()),
        };
        let mut out = format!("{{\"bucket\":{bucket},\"vt_lo\":{vt_lo},\"vt_hi\":{vt_hi}");
        for c in COLUMNS {
            out.push_str(&format!(",\"{}\":{}", c.name, (c.get)(b)));
        }
        out.push('}');
        out
    }

    /// Export as JSON-lines: one object per non-empty bucket, in
    /// virtual-time order. See `docs/TELEMETRY.md` for the schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, b) in self.buckets() {
            out.push_str(&self.json_object(k, b));
            out.push('\n');
        }
        out
    }

    /// Export as CSV with a header row ([`COLUMNS`] order). The `Final`
    /// bucket renders with an empty `vt_lo`/`vt_hi` and bucket label
    /// `final`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket,vt_lo,vt_hi");
        for c in COLUMNS {
            out.push(',');
            out.push_str(c.name);
        }
        out.push('\n');
        for (k, b) in self.buckets() {
            let (bucket, vt_lo, vt_hi) = match k {
                BucketKey::At(i) => (
                    i.to_string(),
                    (i * self.bucket_width).to_string(),
                    ((i + 1) * self.bucket_width).to_string(),
                ),
                BucketKey::Final => ("final".into(), String::new(), String::new()),
            };
            out.push_str(&format!("{bucket},{vt_lo},{vt_hi}"));
            for c in COLUMNS {
                out.push_str(&format!(",{}", (c.get)(b)));
            }
            out.push('\n');
        }
        out
    }
}

impl Probe for TimeSeries {
    fn batch_executed(&mut self, _lp: LpId, now: VTime, events: u64) {
        let b = self.at(now);
        b.batches += 1;
        b.events += events;
    }

    fn app_work(&mut self, _lp: LpId, now: VTime, activations: u64, ops: u64) {
        let b = self.at(now);
        b.block_activations += activations;
        b.ops_executed += ops;
    }

    fn rollback_begun(&mut self, _lp: LpId, kind: RollbackKind, _from: VTime, to: VTime) {
        let b = self.at(to);
        match kind {
            RollbackKind::Primary => b.primary_rollbacks += 1,
            RollbackKind::Secondary => b.secondary_rollbacks += 1,
        }
    }

    fn rollback_ended(&mut self, _lp: LpId, to: VTime, undone: u64, coasted: u64) {
        let b = self.at(to);
        b.events_rolled_back += undone;
        b.events_coasted += coasted;
    }

    fn anti_sent(&mut self, _lp: LpId, sent: VTime) {
        self.at(sent).antis_sent += 1;
    }

    fn annihilated(&mut self, _lp: LpId, at: VTime) {
        self.at(at).annihilations += 1;
    }

    fn state_saved(&mut self, _lp: LpId, now: VTime) {
        self.at(now).states_saved += 1;
    }

    fn fossil_collected(&mut self, _lp: LpId, gvt: VTime, committed: u64) {
        if committed > 0 {
            self.at(gvt).events_committed += committed;
        }
    }

    fn gvt_advanced(&mut self, gvt: VTime, states_held: u64, pending: u64, wall_ns: u64) {
        let b = self.at(gvt);
        b.gvt_rounds += 1;
        b.states_held_max = b.states_held_max.max(states_held);
        b.pending_max = b.pending_max.max(pending);
        b.wall_ns_max = b.wall_ns_max.max(wall_ns);
    }

    fn remote_message(&mut self, positive: bool, at: VTime) {
        let b = self.at(at);
        if positive {
            b.app_messages += 1;
        } else {
            b.remote_antis += 1;
        }
    }

    fn lp_migrated(&mut self, _lp: LpId, _from: u32, _to: u32, gvt: VTime, bytes: u64) {
        let b = self.at(gvt);
        b.migrations += 1;
        b.migrated_bytes += bytes;
    }

    fn fault_event(&mut self, _node: u32, onset: bool, active_now: u64, gvt: VTime) {
        let b = self.at(gvt);
        if onset {
            b.faults_injected += 1;
        }
        b.fault_active = b.fault_active.max(active_now);
    }

    fn transmission_dropped(&mut self, _positive: bool, at: VTime) {
        self.at(at).transmissions_dropped += 1;
    }

    fn retransmitted(&mut self, at: VTime) {
        self.at(at).retransmissions += 1;
    }

    fn fork(&mut self) -> TimeSeries {
        TimeSeries::new(self.bucket_width)
    }

    fn join(&mut self, child: TimeSeries) {
        self.merge(&child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        let mut ts = TimeSeries::new(10);
        ts.batch_executed(0, VTime(3), 2);
        ts.batch_executed(1, VTime(7), 1);
        ts.batch_executed(0, VTime(15), 4);
        ts.app_work(0, VTime(3), 1, 5);
        ts.app_work(0, VTime(15), 1, 9);
        ts.rollback_begun(0, RollbackKind::Primary, VTime(15), VTime(12));
        ts.rollback_ended(0, VTime(12), 3, 1);
        ts.anti_sent(0, VTime(15));
        ts.annihilated(1, VTime(22));
        ts.state_saved(0, VTime(3));
        ts.remote_message(true, VTime(7));
        ts.remote_message(false, VTime(7));
        ts.gvt_advanced(VTime(10), 5, 2, 1_000);
        ts.fossil_collected(0, VTime(10), 3);
        ts.fossil_collected(0, VTime::INF, 4);
        ts
    }

    #[test]
    fn buckets_by_width() {
        let ts = sample();
        let keys: Vec<BucketKey> = ts.buckets().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![BucketKey::At(0), BucketKey::At(1), BucketKey::At(2), BucketKey::Final]
        );
        let b0 = ts.buckets().next().unwrap().1;
        assert_eq!(b0.batches, 2);
        assert_eq!(b0.events, 3);
        assert_eq!(b0.states_saved, 1);
        assert_eq!(b0.app_messages, 1);
        assert_eq!(b0.remote_antis, 1);
    }

    #[test]
    fn totals_sum_all_buckets() {
        let t = sample().totals();
        assert_eq!(t.batches, 3);
        assert_eq!(t.events, 7);
        assert_eq!(t.block_activations, 2);
        assert_eq!(t.ops_executed, 14);
        assert_eq!(t.rollbacks(), 1);
        assert_eq!(t.events_rolled_back, 3);
        assert_eq!(t.events_coasted, 1);
        assert_eq!(t.antis_sent, 1);
        assert_eq!(t.annihilations, 1);
        assert_eq!(t.events_committed, 7);
        assert_eq!(t.gvt_rounds, 1);
    }

    #[test]
    fn inf_goes_to_final_bucket() {
        let mut ts = TimeSeries::new(5);
        ts.fossil_collected(0, VTime::INF, 9);
        ts.gvt_advanced(VTime::INF, 0, 0, 42);
        assert_eq!(ts.len(), 1);
        let (k, b) = ts.buckets().next().unwrap();
        assert_eq!(k, BucketKey::Final);
        assert_eq!(b.events_committed, 9);
        assert_eq!(b.gvt_rounds, 1);
    }

    #[test]
    fn zero_width_clamped() {
        let ts = TimeSeries::new(0);
        assert_eq!(ts.bucket_width(), 1);
    }

    #[test]
    fn merge_is_bucketwise_and_commutative() {
        let mut a = TimeSeries::new(10);
        a.batch_executed(0, VTime(3), 2);
        a.gvt_advanced(VTime(12), 7, 1, 500);
        let mut b = TimeSeries::new(10);
        b.batch_executed(1, VTime(5), 1);
        b.gvt_advanced(VTime(13), 4, 9, 900);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.totals().events, 3);
        let b1 = ab.buckets().find(|(k, _)| *k == BucketKey::At(1)).unwrap().1;
        assert_eq!(b1.states_held_max, 7, "max-type fields take the max");
        assert_eq!(b1.pending_max, 9);
        assert_eq!(b1.gvt_rounds, 2);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(10);
        a.merge(&TimeSeries::new(20));
    }

    #[test]
    fn fork_join_equals_single_recorder() {
        // Recording callbacks on the root vs recording on forked children
        // and joining must yield the identical series.
        let mut root = TimeSeries::new(10);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        c1.batch_executed(0, VTime(3), 2);
        c1.anti_sent(0, VTime(14));
        c2.batch_executed(1, VTime(4), 1);
        c2.remote_message(true, VTime(3));
        root.join(c1);
        root.join(c2);

        let mut single = TimeSeries::new(10);
        single.batch_executed(0, VTime(3), 2);
        single.anti_sent(0, VTime(14));
        single.batch_executed(1, VTime(4), 1);
        single.remote_message(true, VTime(3));
        assert_eq!(root, single);
    }

    #[test]
    fn migrations_bucket_by_gvt() {
        let mut ts = TimeSeries::new(10);
        ts.lp_migrated(3, 0, 1, VTime(25), 640);
        ts.lp_migrated(4, 1, 0, VTime(25), 320);
        let t = ts.totals();
        assert_eq!(t.migrations, 2);
        assert_eq!(t.migrated_bytes, 960);
        let (k, b) = ts.buckets().next().unwrap();
        assert_eq!(k, BucketKey::At(2));
        assert_eq!(b.migrations, 2);
        let jsonl = ts.to_jsonl();
        assert!(jsonl.contains("\"migrations\":2"));
        assert!(jsonl.contains("\"migrated_bytes\":960"));
    }

    #[test]
    fn jsonl_shape() {
        let ts = sample();
        let jsonl = ts.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), ts.len());
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
            assert!(l.contains("\"events\":"));
            assert!(l.contains("\"vt_lo\":"));
        }
        assert!(lines[0].contains("\"bucket\":0"));
        assert!(
            lines[0].contains("\"block_activations\":1") && lines[0].contains("\"ops_executed\":5")
        );
        assert!(lines[0].contains("\"vt_lo\":0") && lines[0].contains("\"vt_hi\":10"));
        assert!(lines.last().unwrap().contains("\"bucket\":\"final\""));
        assert!(lines.last().unwrap().contains("\"vt_lo\":null"));
    }

    #[test]
    fn registry_drives_export_and_merge() {
        // Every registered column appears in both export formats, in
        // registry order, and merge respects the declared kind.
        let ts = sample();
        let jsonl = ts.to_jsonl();
        let csv_header = ts.to_csv().lines().next().unwrap().to_string();
        let mut expect_header = String::from("bucket,vt_lo,vt_hi");
        for c in COLUMNS {
            assert!(jsonl.contains(&format!("\"{}\":", c.name)), "{} missing in JSONL", c.name);
            expect_header.push(',');
            expect_header.push_str(c.name);
        }
        assert_eq!(csv_header, expect_header);

        let mut a = Bucket { batches: 2, states_held_max: 7, ..Default::default() };
        let b = Bucket { batches: 3, states_held_max: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.batches, 5, "additive columns sum");
        assert_eq!(a.states_held_max, 7, "max columns take the max");
    }

    #[test]
    fn chaos_callbacks_bucket_their_columns() {
        let mut ts = TimeSeries::new(10);
        ts.fault_event(0, true, 1, VTime(12));
        ts.fault_event(1, true, 2, VTime(14));
        ts.fault_event(0, false, 1, VTime(25));
        ts.transmission_dropped(true, VTime(3));
        ts.retransmitted(VTime(4));
        let t = ts.totals();
        assert_eq!(t.faults_injected, 2, "recovery edges are not onsets");
        assert_eq!(t.fault_active, 2);
        assert_eq!(t.transmissions_dropped, 1);
        assert_eq!(t.retransmissions, 1);
        let b1 = ts.buckets().find(|(k, _)| *k == BucketKey::At(1)).unwrap().1;
        assert_eq!(b1.fault_active, 2);
        assert!(ts.to_jsonl().contains("\"fault_active\":2"));
    }

    #[test]
    fn csv_shape() {
        let ts = sample();
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), ts.len() + 1);
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[1].starts_with("0,0,10,"));
        assert!(lines.last().unwrap().starts_with("final,,,"));
    }
}
