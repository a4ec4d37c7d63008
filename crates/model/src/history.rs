//! Update traces for the paper's *temporal dependence* setting.
//!
//! In the temporal setting each source is a set of `(time, value)` pairs per
//! object (Table 3 shape). [`UpdateTrace`] is one such per-object trace;
//! [`History`] collects the traces of every source and answers
//! "what did source S say about object O at time T?" queries.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::claim::Timestamp;
use crate::ids::{ObjectId, SourceId};
use crate::store::{ClaimStore, SnapshotView};
use crate::value::ValueId;

/// A time-ordered sequence of value updates for one `(source, object)` pair
/// (or for one object's ground truth).
///
/// Invariants: strictly increasing timestamps; consecutive values differ
/// (a re-assertion of the same value is collapsed into the earlier update).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateTrace {
    updates: Vec<(Timestamp, ValueId)>,
}

impl UpdateTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from arbitrary `(time, value)` pairs.
    ///
    /// Pairs are sorted by time; among duplicates of the same timestamp the
    /// last pair wins; consecutive equal values are collapsed.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Timestamp, ValueId)>) -> Self {
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(t, _)| t);
        let mut trace = Self::new();
        for (t, v) in pairs {
            trace.record(t, v);
        }
        trace
    }

    /// Records an update, keeping the invariants.
    ///
    /// Updates arriving out of order are inserted at the right position;
    /// an update at an existing timestamp replaces it.
    pub fn record(&mut self, time: Timestamp, value: ValueId) {
        match self.updates.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => self.updates[i].1 = value,
            Err(i) => self.updates.insert(i, (time, value)),
        }
        self.collapse();
    }

    fn collapse(&mut self) {
        self.updates.dedup_by(|next, prev| next.1 == prev.1);
    }

    /// The value in force at `time` (the latest update at or before `time`).
    pub fn value_at(&self, time: Timestamp) -> Option<ValueId> {
        match self.updates.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => Some(self.updates[i].1),
            Err(0) => None,
            Err(i) => Some(self.updates[i - 1].1),
        }
    }

    /// The timestamp at which `value` was first asserted, if ever.
    pub fn first_asserted(&self, value: ValueId) -> Option<Timestamp> {
        self.updates
            .iter()
            .find(|&&(_, v)| v == value)
            .map(|&(t, _)| t)
    }

    /// The most recent `(time, value)` update.
    pub fn latest(&self) -> Option<(Timestamp, ValueId)> {
        self.updates.last().copied()
    }

    /// All updates in time order.
    pub fn updates(&self) -> &[(Timestamp, ValueId)] {
        &self.updates
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when the trace has no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// `true` if `value` was ever asserted in this trace.
    pub fn ever_asserted(&self, value: ValueId) -> bool {
        self.updates.iter().any(|&(_, v)| v == value)
    }
}

/// The complete temporal behaviour of a set of sources: one [`UpdateTrace`]
/// per `(source, object)` pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    /// `traces[source][object] = trace`.
    traces: Vec<HashMap<ObjectId, UpdateTrace>>,
    num_objects: usize,
}

impl History {
    /// Creates an empty history for `num_sources` sources and `num_objects`
    /// objects.
    pub fn new(num_sources: usize, num_objects: usize) -> Self {
        Self {
            traces: vec![HashMap::new(); num_sources],
            num_objects,
        }
    }

    /// Builds a history from every *timed* claim in the store. Untimed claims
    /// are ignored (they carry no temporal information).
    pub fn from_store(store: &ClaimStore) -> Self {
        let mut h = Self::new(store.num_sources(), store.num_objects());
        let mut grouped: HashMap<(SourceId, ObjectId), Vec<(Timestamp, ValueId)>> = HashMap::new();
        for c in store.claims() {
            if let Some(t) = c.time {
                grouped
                    .entry((c.source, c.object))
                    .or_default()
                    .push((t, c.value));
            }
        }
        let mut grouped: Vec<_> = grouped.into_iter().collect();
        grouped.sort_by_key(|&(k, _)| k);
        for ((s, o), pairs) in grouped {
            h.traces[s.index()].insert(o, UpdateTrace::from_pairs(pairs));
        }
        h
    }

    /// Records one update.
    pub fn record(&mut self, source: SourceId, object: ObjectId, time: Timestamp, value: ValueId) {
        self.num_objects = self.num_objects.max(object.index() + 1);
        if source.index() >= self.traces.len() {
            self.traces.resize(source.index() + 1, HashMap::new());
        }
        self.traces[source.index()]
            .entry(object)
            .or_default()
            .record(time, value);
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.traces.len()
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The trace of `source` about `object`.
    pub fn trace(&self, source: SourceId, object: ObjectId) -> Option<&UpdateTrace> {
        self.traces.get(source.index())?.get(&object)
    }

    /// All `(object, trace)` pairs of one source, sorted by object.
    pub fn traces_of(&self, source: SourceId) -> Vec<(ObjectId, &UpdateTrace)> {
        let mut out: Vec<_> = self
            .traces
            .get(source.index())
            .into_iter()
            .flat_map(|m| m.iter().map(|(&o, t)| (o, t)))
            .collect();
        out.sort_by_key(|&(o, _)| o);
        out
    }

    /// What `source` asserted about `object` at `time`.
    pub fn value_at(&self, source: SourceId, object: ObjectId, time: Timestamp) -> Option<ValueId> {
        self.trace(source, object)?.value_at(time)
    }

    /// Objects covered (ever) by `source`.
    pub fn coverage(&self, source: SourceId) -> usize {
        self.traces.get(source.index()).map_or(0, HashMap::len)
    }

    /// All distinct timestamps at which *any* source updates *any* object,
    /// ascending — the history's **change points**. Consecutive change
    /// points delimit the epochs of the timeline: the materialised snapshot
    /// is constant between them, so walking a history epoch by epoch (the
    /// `sailing` facade's `TimelineSession`, consensus-truth estimation,
    /// batch re-analysis) means materialising exactly one snapshot per
    /// change point — never more.
    pub fn change_points(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.change_points_since(Timestamp::MIN)
    }

    /// The suffix of [`History::change_points`] at or after `since`
    /// (inclusive): every distinct timestamp `t >= since`, ascending.
    ///
    /// Callers that resume mid-stream — the ingest tier deriving deltas
    /// for epochs it has not analysed yet — need only the tail; this skips
    /// collecting (and re-sorting) the pre-`since` epochs entirely.
    pub fn change_points_since(&self, since: Timestamp) -> impl Iterator<Item = Timestamp> + '_ {
        let mut times: Vec<Timestamp> = self
            .traces
            .iter()
            .flat_map(|m| m.values())
            .flat_map(|trace| trace.updates().iter().map(|&(t, _)| t))
            .filter(|&t| t >= since)
            .collect();
        times.sort_unstable();
        times.dedup();
        times.into_iter()
    }

    /// Materialises the snapshot of the whole history as of `time`.
    pub fn snapshot_at(&self, time: Timestamp) -> SnapshotView {
        let triples = self.traces.iter().enumerate().flat_map(|(s, m)| {
            let mut items: Vec<_> = m
                .iter()
                .filter_map(move |(&o, trace)| {
                    trace
                        .value_at(time)
                        .map(|v| (SourceId::from_index(s), o, v))
                })
                .collect();
            items.sort_by_key(|&(_, o, _)| o);
            items
        });
        SnapshotView::from_triples(self.num_sources(), self.num_objects(), triples)
    }

    /// The last change point: the time of the most recent update anywhere
    /// in the history, or `None` for an empty history. One O(traces) scan
    /// over the per-trace maxima — cheaper than materialising
    /// [`History::change_points`] when only the end of the timeline is
    /// needed.
    pub fn last_change_point(&self) -> Option<Timestamp> {
        self.traces
            .iter()
            .flat_map(|m| m.values())
            .filter_map(UpdateTrace::latest)
            .map(|(t, _)| t)
            .max()
    }

    /// The latest snapshot (every source's most recent value per object) —
    /// the snapshot at the last change point.
    pub fn latest_snapshot(&self) -> SnapshotView {
        self.snapshot_at(self.last_change_point().unwrap_or(0))
    }

    /// Iterates over every `(source, object, time, value)` update.
    pub fn all_updates(
        &self,
    ) -> impl Iterator<Item = (SourceId, ObjectId, Timestamp, ValueId)> + '_ {
        self.traces.iter().enumerate().flat_map(|(s, m)| {
            m.iter().flat_map(move |(&o, trace)| {
                trace
                    .updates()
                    .iter()
                    .map(move |&(t, v)| (SourceId::from_index(s), o, t, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClaimStoreBuilder;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    #[test]
    fn trace_sorts_and_collapses() {
        let t = UpdateTrace::from_pairs([(2006, v(1)), (2002, v(0)), (2004, v(0))]);
        // 2004 re-asserts v0 → collapsed.
        assert_eq!(t.updates(), &[(2002, v(0)), (2006, v(1))]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn trace_value_at_boundaries() {
        let t = UpdateTrace::from_pairs([(2002, v(0)), (2006, v(1))]);
        assert_eq!(t.value_at(2001), None);
        assert_eq!(t.value_at(2002), Some(v(0)));
        assert_eq!(t.value_at(2005), Some(v(0)));
        assert_eq!(t.value_at(2006), Some(v(1)));
        assert_eq!(t.value_at(2100), Some(v(1)));
    }

    #[test]
    fn trace_record_out_of_order_and_replace() {
        let mut t = UpdateTrace::new();
        t.record(2006, v(1));
        t.record(2002, v(0));
        t.record(2006, v(2)); // replace
        assert_eq!(t.updates(), &[(2002, v(0)), (2006, v(2))]);
        assert_eq!(t.first_asserted(v(2)), Some(2006));
        assert_eq!(t.first_asserted(v(9)), None);
        assert!(t.ever_asserted(v(0)));
        assert!(!t.ever_asserted(v(9)));
        assert_eq!(t.latest(), Some((2006, v(2))));
    }

    #[test]
    fn empty_trace() {
        let t = UpdateTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.value_at(0), None);
        assert_eq!(t.latest(), None);
    }

    fn sample_history() -> (ClaimStore, History) {
        let mut b = ClaimStoreBuilder::new();
        b.add_timed("S1", "Dong", "UW", 2002)
            .add_timed("S1", "Dong", "Google", 2006)
            .add_timed("S1", "Dong", "AT&T", 2007)
            .add_timed("S3", "Dong", "UW", 2003)
            .add("S3", "Suciu", "untimed-ignored");
        let store = b.build();
        let h = History::from_store(&store);
        (store, h)
    }

    #[test]
    fn history_from_store_groups_timed_claims() {
        let (store, h) = sample_history();
        let s1 = store.source_id("S1").unwrap();
        let s3 = store.source_id("S3").unwrap();
        let dong = store.object_id("Dong").unwrap();
        assert_eq!(h.trace(s1, dong).unwrap().len(), 3);
        assert_eq!(h.trace(s3, dong).unwrap().len(), 1);
        // untimed claim ignored
        assert_eq!(h.coverage(s3), 1);
        assert_eq!(h.all_updates().count(), 4);
    }

    #[test]
    fn history_value_at_and_snapshot() {
        let (store, h) = sample_history();
        let s1 = store.source_id("S1").unwrap();
        let dong = store.object_id("Dong").unwrap();
        let google = store.value_id(&crate::Value::text("Google")).unwrap();
        assert_eq!(h.value_at(s1, dong, 2006), Some(google));

        let snap = h.snapshot_at(2006);
        assert_eq!(snap.value(s1, dong), Some(google));

        let latest = h.latest_snapshot();
        let att = store.value_id(&crate::Value::text("AT&T")).unwrap();
        assert_eq!(latest.value(s1, dong), Some(att));
    }

    #[test]
    fn history_record_grows() {
        let mut h = History::new(1, 1);
        h.record(SourceId(2), ObjectId(3), 10, v(0));
        assert_eq!(h.num_sources(), 3);
        assert_eq!(h.num_objects(), 4);
        assert_eq!(h.value_at(SourceId(2), ObjectId(3), 11), Some(v(0)));
    }

    #[test]
    fn all_updates_enumerates_everything() {
        let (_, h) = sample_history();
        let ups: Vec<_> = h.all_updates().collect();
        assert_eq!(ups.len(), 4);
    }

    #[test]
    fn change_points_are_sorted_distinct_and_complete() {
        let (_, h) = sample_history();
        // Updates at 2002, 2003, 2006, 2007 (untimed claim ignored).
        let pts: Vec<_> = h.change_points().collect();
        assert_eq!(pts, vec![2002, 2003, 2006, 2007]);
        // The latest snapshot is exactly the snapshot at the last point.
        let last = *pts.last().unwrap();
        assert_eq!(h.last_change_point(), Some(last));
        let latest = h.latest_snapshot();
        let at_last = h.snapshot_at(last);
        assert_eq!(latest.num_assertions(), at_last.num_assertions());
        assert_eq!(latest.content_hash(), at_last.content_hash());
        // Empty history: no change points, empty latest snapshot.
        let empty = History::new(2, 2);
        assert_eq!(empty.change_points().count(), 0);
        assert_eq!(empty.last_change_point(), None);
        assert_eq!(empty.latest_snapshot().num_assertions(), 0);
    }

    #[test]
    fn change_points_since_skips_pre_ts_epochs() {
        let (_, h) = sample_history();
        // Full set is [2002, 2003, 2006, 2007]; `since` is inclusive.
        let tail: Vec<_> = h.change_points_since(2003).collect();
        assert_eq!(tail, vec![2003, 2006, 2007]);
        // A `since` between change points keeps only strictly later epochs.
        let tail: Vec<_> = h.change_points_since(2004).collect();
        assert_eq!(tail, vec![2006, 2007]);
        // Past the end: empty suffix. From the beginning: the full set.
        assert_eq!(h.change_points_since(2008).count(), 0);
        let all: Vec<_> = h.change_points_since(Timestamp::MIN).collect();
        assert_eq!(all, h.change_points().collect::<Vec<_>>());
    }

    #[test]
    fn traces_of_sorted() {
        let mut h = History::new(1, 0);
        h.record(SourceId(0), ObjectId(5), 1, v(0));
        h.record(SourceId(0), ObjectId(2), 1, v(0));
        let objs: Vec<_> = h.traces_of(SourceId(0)).iter().map(|&(o, _)| o).collect();
        assert_eq!(objs, vec![ObjectId(2), ObjectId(5)]);
    }
}
