//! Time-series telemetry: a recording [`Probe`] that buckets protocol
//! events by virtual time and exports the series as JSON-lines or CSV.
//!
//! This is the measurement substrate behind the paper's Figures 4–6:
//! instead of one end-of-run aggregate, a [`TimeSeries`] shows *when*
//! rollbacks cluster, *when* anti-message storms happen, and how GVT and
//! queue depths evolve — the signals that reveal a bad partition melting
//! down mid-run (e.g. the paper's s15850 2-node state-queue blowup).
//!
//! Invariant (checked by the test suite): for every bucketed counter, the
//! sum over all buckets equals the run's aggregate [`KernelStats`] value.
//! Each bucket counts with the `KernelStats` handler itself, fed the same
//! event stream as the run's aggregate.

use std::collections::BTreeMap;

use crate::probe::{Probe, ProbeEvent};
use crate::stats::KernelStats;
use crate::time::VTime;

/// Everything one virtual-time bucket accumulated: the kernel counters,
/// counted by the same handler as the run's aggregate, and three gauges
/// that sample queue depths and so have no [`KernelStats`] counterpart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bucket {
    /// The counters of the events filed in this bucket. The bucketed rows
    /// of the `kernel_counters!` table are exported, under their column
    /// names.
    pub counts: KernelStats,
    /// High-water mark of saved states observed at GVT rounds here.
    pub states_held_max: u64,
    /// High-water mark of pending (unprocessed) events at GVT rounds here.
    pub pending_max: u64,
    /// Largest executive clock observed at GVT rounds here (modeled ns on
    /// the platform, elapsed real ns on the threaded executive).
    pub wall_ns_max: u64,
}

impl Bucket {
    /// Every exported column as `(name, value)`, in export order: the
    /// bucketed counters, then the gauges.
    pub fn columns(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let counters = KernelStats::COUNTERS.iter();
        counters.filter_map(|c| Some((c.column?, (c.get)(&self.counts)))).chain([
            ("states_held_max", self.states_held_max),
            ("pending_max", self.pending_max),
            ("wall_ns_max", self.wall_ns_max),
        ])
    }

    fn observe(&mut self, event: ProbeEvent) {
        self.counts.on(event);
        if let ProbeEvent::GvtAdvanced { states_held, pending, wall_ns, .. } = event {
            self.states_held_max = self.states_held_max.max(states_held);
            self.pending_max = self.pending_max.max(pending);
            self.wall_ns_max = self.wall_ns_max.max(wall_ns);
        }
    }

    /// Counters sum — a threaded series counts each cluster's GVT rounds
    /// — and gauges keep the max.
    fn merge(&mut self, o: &Bucket) {
        for c in KernelStats::COUNTERS {
            *(c.get_mut)(&mut self.counts) += (c.get)(&o.counts);
        }
        self.states_held_max = self.states_held_max.max(o.states_held_max);
        self.pending_max = self.pending_max.max(o.pending_max);
        self.wall_ns_max = self.wall_ns_max.max(o.wall_ns_max);
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
/// `bucket_width` is in virtual-time units; every event lands in the
/// bucket of its [`ProbeEvent::time`]. Merging (used by the threaded
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
            BucketKey::At(t.ticks() / self.bucket_width)
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

    /// Merge every bucket: the counters sum to the aggregate this series
    /// reconciles with [`KernelStats`], the gauges keep their maxima.
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

    /// Render one bucket as a JSON object (shared by JSONL export), in
    /// [`Bucket::columns`] order.
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
        for (name, value) in b.columns() {
            out.push_str(&format!(",\"{name}\":{value}"));
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

    /// Export as CSV with a header row ([`Bucket::columns`] order). The
    /// `Final` bucket renders with an empty `vt_lo`/`vt_hi` and bucket
    /// label `final`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket,vt_lo,vt_hi");
        for (name, _) in Bucket::default().columns() {
            out.push(',');
            out.push_str(name);
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
            for (_, value) in b.columns() {
                out.push_str(&format!(",{value}"));
            }
            out.push('\n');
        }
        out
    }
}

impl Probe for TimeSeries {
    fn on(&mut self, event: ProbeEvent) {
        self.at(event.time()).observe(event);
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
    use crate::probe::ProbeEvent::*;
    use crate::probe::RollbackKind;

    fn record(ts: &mut TimeSeries, events: &[ProbeEvent]) {
        events.iter().for_each(|&e| ts.on(e));
    }

    fn sample() -> TimeSeries {
        let mut ts = TimeSeries::new(10);
        record(
            &mut ts,
            &[
                BatchExecuted { lp: 0, now: VTime::from(3), events: 2 },
                BatchExecuted { lp: 1, now: VTime::from(7), events: 1 },
                BatchExecuted { lp: 0, now: VTime::from(15), events: 4 },
                AppWork { lp: 0, now: VTime::from(3), activations: 1, ops: 5, saved: 0 },
                AppWork { lp: 0, now: VTime::from(15), activations: 1, ops: 9, saved: 0 },
                RollbackBegun {
                    lp: 0,
                    kind: RollbackKind::Primary,
                    from: VTime::from(15),
                    to: VTime::from(12),
                },
                RollbackEnded { lp: 0, to: VTime::from(12), undone: 3, coasted: 1 },
                AntiSent { lp: 0, sent: VTime::from(15) },
                Annihilated { lp: 1, at: VTime::from(22) },
                StateSaved { lp: 0, now: VTime::from(3) },
                RemoteMessage { positive: true, at: VTime::from(7), src: 0, dst: 1 },
                RemoteMessage { positive: false, at: VTime::from(7), src: 0, dst: 1 },
                GvtAdvanced { gvt: VTime::from(10), states_held: 5, pending: 2, wall_ns: 1_000 },
                FossilCollected { lp: 0, gvt: VTime::from(10), committed: 3 },
                FossilCollected { lp: 0, gvt: VTime::INF, committed: 4 },
            ],
        );
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
        let b0 = &ts.buckets().next().unwrap().1.counts;
        assert_eq!(b0.batches_executed, 2);
        assert_eq!(b0.events_processed, 3);
        assert_eq!(b0.states_saved, 1);
        assert_eq!(b0.app_messages, 1);
        assert_eq!(b0.anti_messages_remote, 1);
    }

    #[test]
    fn totals_sum_all_buckets() {
        let t = sample().totals().counts;
        assert_eq!(t.batches_executed, 3);
        assert_eq!(t.events_processed, 7);
        assert_eq!(t.block_activations, 2);
        assert_eq!(t.ops_executed, 14);
        assert_eq!(t.rollbacks(), 1);
        assert_eq!(t.events_rolled_back, 3);
        assert_eq!(t.events_coasted, 1);
        assert_eq!(t.antis_sent, 1);
        assert_eq!(t.annihilated_pending, 1);
        assert_eq!(t.events_committed, 7);
        assert_eq!(t.gvt_rounds, 1);
    }

    #[test]
    fn inf_goes_to_final_bucket() {
        let mut ts = TimeSeries::new(5);
        record(
            &mut ts,
            &[
                FossilCollected { lp: 0, gvt: VTime::INF, committed: 9 },
                GvtAdvanced { gvt: VTime::INF, states_held: 0, pending: 0, wall_ns: 42 },
            ],
        );
        assert_eq!(ts.len(), 1);
        let (k, b) = ts.buckets().next().unwrap();
        assert_eq!(k, BucketKey::Final);
        assert_eq!(b.counts.events_committed, 9);
        assert_eq!(b.counts.gvt_rounds, 1);
    }

    #[test]
    fn zero_width_clamped() {
        let ts = TimeSeries::new(0);
        assert_eq!(ts.bucket_width(), 1);
    }

    #[test]
    fn merge_is_bucketwise_and_commutative() {
        let mut a = TimeSeries::new(10);
        record(
            &mut a,
            &[
                BatchExecuted { lp: 0, now: VTime::from(3), events: 2 },
                GvtAdvanced { gvt: VTime::from(12), states_held: 7, pending: 1, wall_ns: 500 },
            ],
        );
        let mut b = TimeSeries::new(10);
        record(
            &mut b,
            &[
                BatchExecuted { lp: 1, now: VTime::from(5), events: 1 },
                GvtAdvanced { gvt: VTime::from(13), states_held: 4, pending: 9, wall_ns: 900 },
            ],
        );

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.totals().counts.events_processed, 3);
        let b1 = ab.buckets().find(|(k, _)| *k == BucketKey::At(1)).unwrap().1;
        assert_eq!(b1.states_held_max, 7, "gauges take the max");
        assert_eq!(b1.pending_max, 9);
        assert_eq!(b1.counts.gvt_rounds, 2, "counters sum, GVT rounds included");
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(10);
        a.merge(&TimeSeries::new(20));
    }

    #[test]
    fn fork_join_equals_single_recorder() {
        // Recording events on the root vs recording on forked children
        // and joining must yield the identical series.
        let first = [
            BatchExecuted { lp: 0, now: VTime::from(3), events: 2 },
            AntiSent { lp: 0, sent: VTime::from(14) },
        ];
        let second = [
            BatchExecuted { lp: 1, now: VTime::from(4), events: 1 },
            RemoteMessage { positive: true, at: VTime::from(3), src: 1, dst: 0 },
        ];
        let mut root = TimeSeries::new(10);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        record(&mut c1, &first);
        record(&mut c2, &second);
        root.join(c1);
        root.join(c2);

        let mut single = TimeSeries::new(10);
        record(&mut single, &first);
        record(&mut single, &second);
        assert_eq!(root, single);
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
    fn columns_drive_both_exports_and_merge() {
        // The bucketed counters, under their column names, then the
        // gauges: in both export formats, in that order.
        let ts = sample();
        let jsonl = ts.to_jsonl();
        let csv_header = ts.to_csv().lines().next().unwrap().to_string();
        let names: Vec<&str> = Bucket::default().columns().map(|(n, _)| n).collect();
        let bucketed = KernelStats::COUNTERS.iter().filter_map(|c| c.column);
        let gauges = ["states_held_max", "pending_max", "wall_ns_max"];
        assert_eq!(names, bucketed.chain(gauges).collect::<Vec<_>>());
        for name in &names {
            assert!(jsonl.contains(&format!("\"{name}\":")), "{name} missing in JSONL");
        }
        assert_eq!(csv_header, format!("bucket,vt_lo,vt_hi,{}", names.join(",")));

        let counts = |batches_executed| KernelStats { batches_executed, ..Default::default() };
        let mut a = Bucket { counts: counts(2), states_held_max: 7, ..Default::default() };
        let b = Bucket { counts: counts(3), states_held_max: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.counts.batches_executed, 5, "counters sum");
        assert_eq!(a.states_held_max, 7, "gauges take the max");
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
