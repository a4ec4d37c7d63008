//! Ground-truth worlds used to *evaluate* detection and fusion.
//!
//! The algorithms never see these; experiments use them to score results and
//! to label claims as true / outdated-true / false. `OutdatedTrue` matters
//! for the temporal intuitions: the paper stresses that values that *used to
//! be true* are much weaker copying evidence than never-true values
//! (Section 3.2, Example 3.2).

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::claim::Timestamp;
use crate::history::UpdateTrace;
use crate::ids::{ObjectId, SourceId};
use crate::store::SnapshotView;
use crate::value::ValueId;

/// Anything that answers "which value was chosen for this object?" —
/// scoring helpers accept any decision container (the engine's
/// reproducibly-ordered `BTreeMap`, the pipeline's `HashMap`, or a sorted
/// pair list) through this trait instead of hard-coding one map type.
pub trait DecisionMap {
    /// The chosen value for `object`, if any.
    fn chosen(&self, object: ObjectId) -> Option<ValueId>;
}

impl DecisionMap for HashMap<ObjectId, ValueId> {
    fn chosen(&self, object: ObjectId) -> Option<ValueId> {
        self.get(&object).copied()
    }
}

impl DecisionMap for BTreeMap<ObjectId, ValueId> {
    fn chosen(&self, object: ObjectId) -> Option<ValueId> {
        self.get(&object).copied()
    }
}

/// Sorted `(object, value)` pairs double as a decision map.
///
/// The slice **must** be sorted by object id (e.g. collected from the
/// engine's ordered decisions) — lookups binary-search, so an unsorted
/// slice silently misses entries. Debug builds assert the order.
impl DecisionMap for [(ObjectId, ValueId)] {
    fn chosen(&self, object: ObjectId) -> Option<ValueId> {
        debug_assert!(
            self.windows(2).all(|w| w[0].0 < w[1].0),
            "DecisionMap slice must be sorted by object id"
        );
        self.binary_search_by_key(&object, |&(o, _)| o)
            .ok()
            .map(|i| self[i].1)
    }
}

/// How a claimed value relates to the (temporal) truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TruthClass {
    /// The value is the current true value.
    CurrentTrue,
    /// The value was true at some earlier time but is no longer.
    OutdatedTrue,
    /// The value was never true.
    False,
}

/// Static ground truth: one true value per object (snapshot setting).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    truth: HashMap<ObjectId, ValueId>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(object, true value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ObjectId, ValueId)>) -> Self {
        Self {
            truth: pairs.into_iter().collect(),
        }
    }

    /// The true value for `object`.
    pub fn value(&self, object: ObjectId) -> Option<ValueId> {
        self.truth.get(&object).copied()
    }

    /// `true` if `value` is the true value for `object`.
    pub fn is_true(&self, object: ObjectId, value: ValueId) -> bool {
        self.value(object) == Some(value)
    }

    /// Number of objects with a known true value.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// `true` when no truth is recorded.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Objects with known truth, in ascending id order.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut objs: Vec<_> = self.truth.keys().copied().collect();
        objs.sort();
        objs
    }

    /// The paper's *accuracy* of a source: the fraction of its snapshot
    /// assertions (on objects with known truth) that are true.
    ///
    /// Returns `None` when the source asserts nothing evaluable.
    pub fn accuracy_of(&self, snapshot: &SnapshotView, source: SourceId) -> Option<f64> {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (o, v) in snapshot.assertions_of(source) {
            if let Some(t) = self.value(o) {
                total += 1;
                if t == v {
                    correct += 1;
                }
            }
        }
        (total > 0).then(|| correct as f64 / total as f64)
    }

    /// Fraction of objects whose chosen value (from `decisions`) is true.
    ///
    /// Objects missing from `decisions` count as wrong; objects without known
    /// truth are skipped. Returns `None` if nothing is evaluable. Accepts any
    /// [`DecisionMap`] (hash map, ordered map, sorted pair slice).
    pub fn decision_precision<M: DecisionMap + ?Sized>(&self, decisions: &M) -> Option<f64> {
        if self.truth.is_empty() {
            return None;
        }
        let correct = self
            .truth
            .iter()
            .filter(|&(&o, &t)| decisions.chosen(o) == Some(t))
            .count();
        Some(correct as f64 / self.truth.len() as f64)
    }
}

/// Temporal ground truth: the full history of true values per object.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TemporalTruth {
    truth: HashMap<ObjectId, UpdateTrace>,
}

impl TemporalTruth {
    /// Creates an empty temporal truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(object, time, value)` triples.
    pub fn from_triples(triples: impl IntoIterator<Item = (ObjectId, Timestamp, ValueId)>) -> Self {
        let mut grouped: HashMap<ObjectId, Vec<(Timestamp, ValueId)>> = HashMap::new();
        for (o, t, v) in triples {
            grouped.entry(o).or_default().push((t, v));
        }
        Self {
            truth: grouped
                .into_iter()
                .map(|(o, pairs)| (o, UpdateTrace::from_pairs(pairs)))
                .collect(),
        }
    }

    /// Records that `object` became `value` at `time`.
    pub fn record(&mut self, object: ObjectId, time: Timestamp, value: ValueId) {
        self.truth.entry(object).or_default().record(time, value);
    }

    /// The true trace for `object`.
    pub fn trace(&self, object: ObjectId) -> Option<&UpdateTrace> {
        self.truth.get(&object)
    }

    /// The true value of `object` at `time`.
    pub fn value_at(&self, object: ObjectId, time: Timestamp) -> Option<ValueId> {
        self.trace(object)?.value_at(time)
    }

    /// The current (latest) true value of `object`.
    pub fn current(&self, object: ObjectId) -> Option<ValueId> {
        self.trace(object)?.latest().map(|(_, v)| v)
    }

    /// Classifies a claimed value against the truth history *as of* `now`.
    ///
    /// Returns `None` when the object has no recorded truth.
    pub fn classify(&self, object: ObjectId, value: ValueId, now: Timestamp) -> Option<TruthClass> {
        let trace = self.trace(object)?;
        let current = trace.value_at(now)?;
        Some(if value == current {
            TruthClass::CurrentTrue
        } else if trace.ever_asserted(value)
            && trace.first_asserted(value).is_some_and(|t| t <= now)
        {
            TruthClass::OutdatedTrue
        } else {
            TruthClass::False
        })
    }

    /// Projects the *current* truth (as of `now`) into a snapshot
    /// [`GroundTruth`].
    pub fn snapshot_at(&self, now: Timestamp) -> GroundTruth {
        GroundTruth::from_pairs(
            self.truth
                .iter()
                .filter_map(|(&o, trace)| trace.value_at(now).map(|v| (o, v))),
        )
    }

    /// Number of objects with recorded truth.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// `true` when no truth is recorded.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// The latest timestamp across all truth traces.
    pub fn horizon(&self) -> Option<Timestamp> {
        self.truth
            .values()
            .filter_map(UpdateTrace::latest)
            .map(|(t, _)| t)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClaimStoreBuilder;
    use crate::value::Value;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }
    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn ground_truth_basics() {
        assert!(GroundTruth::new().is_empty());
        let gt = GroundTruth::from_pairs([(o(0), v(1)), (o(1), v(2))]);
        assert_eq!(gt.len(), 2);
        assert!(gt.is_true(o(0), v(1)));
        assert!(!gt.is_true(o(0), v(2)));
        assert_eq!(gt.value(o(9)), None);
        assert_eq!(gt.objects(), vec![o(0), o(1)]);
    }

    #[test]
    fn accuracy_of_source() {
        let mut b = ClaimStoreBuilder::new();
        b.add("S1", "a", "x")
            .add("S1", "b", "y")
            .add("S1", "c", "z");
        let store = b.build();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let gt = GroundTruth::from_pairs([
            (
                store.object_id("a").unwrap(),
                store.value_id(&Value::text("x")).unwrap(),
            ),
            (
                store.object_id("b").unwrap(),
                store
                    .value_id(&Value::text("WRONG"))
                    .unwrap_or(ValueId(999)),
            ),
        ]);
        // a correct, b wrong, c not evaluable → 1/2
        let acc = gt.accuracy_of(&snap, s1).unwrap();
        assert!((acc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_none_when_nothing_evaluable() {
        let mut b = ClaimStoreBuilder::new();
        b.add("S1", "a", "x");
        let store = b.build();
        let gt = GroundTruth::new();
        assert_eq!(
            gt.accuracy_of(&store.snapshot(), store.source_id("S1").unwrap()),
            None
        );
    }

    #[test]
    fn decision_precision_counts_missing_as_wrong() {
        let gt = GroundTruth::from_pairs([(o(0), v(1)), (o(1), v(2)), (o(2), v(3))]);
        let mut decisions = HashMap::new();
        decisions.insert(o(0), v(1)); // right
        decisions.insert(o(1), v(9)); // wrong
                                      // o(2) missing → wrong
        assert!((gt.decision_precision(&decisions).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(GroundTruth::new().decision_precision(&decisions), None);
    }

    #[test]
    fn decision_precision_accepts_every_decision_container() {
        let gt = GroundTruth::from_pairs([(o(0), v(1)), (o(1), v(2))]);
        let hash: HashMap<ObjectId, ValueId> = [(o(0), v(1)), (o(1), v(9))].into_iter().collect();
        let tree: BTreeMap<ObjectId, ValueId> = hash.iter().map(|(&k, &w)| (k, w)).collect();
        let pairs = [(o(0), v(1)), (o(1), v(9))];
        let expected = gt.decision_precision(&hash).unwrap();
        assert_eq!(gt.decision_precision(&tree), Some(expected));
        assert_eq!(gt.decision_precision(&pairs[..]), Some(expected));
        assert!((expected - 0.5).abs() < 1e-12);
    }

    fn dong_truth() -> TemporalTruth {
        // Dong: UW from 2002, Google from 2006, AT&T from 2007 (v0, v1, v2).
        TemporalTruth::from_triples([(o(0), 2002, v(0)), (o(0), 2006, v(1)), (o(0), 2007, v(2))])
    }

    #[test]
    fn temporal_truth_classify() {
        let tt = dong_truth();
        // As of 2007: AT&T current, Google/UW outdated, MSR never true.
        assert_eq!(tt.classify(o(0), v(2), 2007), Some(TruthClass::CurrentTrue));
        assert_eq!(
            tt.classify(o(0), v(1), 2007),
            Some(TruthClass::OutdatedTrue)
        );
        assert_eq!(
            tt.classify(o(0), v(0), 2007),
            Some(TruthClass::OutdatedTrue)
        );
        assert_eq!(tt.classify(o(0), v(9), 2007), Some(TruthClass::False));
        // As of 2006: Google current, AT&T "from the future" counts as false.
        assert_eq!(tt.classify(o(0), v(1), 2006), Some(TruthClass::CurrentTrue));
        assert_eq!(tt.classify(o(0), v(2), 2006), Some(TruthClass::False));
        // Unknown object.
        assert_eq!(tt.classify(o(5), v(0), 2007), None);
        // Before any truth.
        assert_eq!(tt.classify(o(0), v(0), 2001), None);
    }

    #[test]
    fn temporal_snapshot_projection() {
        let tt = dong_truth();
        assert_eq!(tt.snapshot_at(2006).value(o(0)), Some(v(1)));
        assert_eq!(tt.snapshot_at(2010).value(o(0)), Some(v(2)));
        assert_eq!(tt.snapshot_at(2000).len(), 0);
        assert_eq!(tt.current(o(0)), Some(v(2)));
        assert_eq!(tt.horizon(), Some(2007));
        assert_eq!(tt.len(), 1);
        assert!(!tt.is_empty());
    }

    #[test]
    fn temporal_record_incremental() {
        let mut tt = TemporalTruth::new();
        assert!(tt.is_empty());
        assert_eq!(tt.horizon(), None);
        tt.record(o(1), 5, v(0));
        tt.record(o(1), 9, v(1));
        assert_eq!(tt.value_at(o(1), 7), Some(v(0)));
        assert_eq!(tt.current(o(1)), Some(v(1)));
    }
}
