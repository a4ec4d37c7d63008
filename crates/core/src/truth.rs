//! Dependence-aware truth discovery: weighted voting with independence
//! damping.
//!
//! This is the fusion half of the paper's iterative scheme: "ignore values
//! that are copied (but not necessarily the values independently provided by
//! copiers)" (Section 4, Data fusion). Every source votes for the value it
//! asserts; a source's vote weight grows with its estimated accuracy and
//! shrinks with the probability that its value was copied from a
//! higher-ranked supporter of the same value.
//!
//! # Columnar layout
//!
//! Both posterior containers live on the per-iteration hot path (every pair
//! likelihood probes `prob`, every vote round rebuilds the distributions),
//! so they mirror the snapshot's CSR layout instead of nesting hash maps:
//!
//! * [`ValueProbabilities`] is an offsets-plus-arena index keyed by dense
//!   [`ObjectId`]: `distribution(o)` is a contiguous slice lookup, `prob`
//!   a short linear scan of that slice (distributions hold a handful of
//!   observed values, sorted by descending probability).
//! * [`DependenceMatrix`] is a per-source adjacency list sorted by target,
//!   so `dep_on(s, t)` is a binary search in `s`'s row instead of a hash
//!   of the `(s, t)` pair.
//!
//! Both serialize in their legacy map-shaped JSON (`{"dist": {...}}` /
//! `{"entries": {...}}`) so persisted pipeline results remain readable
//! across the layout change. One deliberate narrowing: because the CSR
//! arrays allocate per dense id, documents whose id space is implausibly
//! larger than their entry count (see [`serde::plausible_id_space`]) are
//! rejected instead of allocated — ids from this workspace's catalogs are
//! dense, so real artifacts always pass.

use std::collections::{BTreeMap, HashMap};

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

use sailing_model::{ObjectId, SnapshotView, SourceId, ValueId};

use crate::params::DetectionParams;
use crate::report::PairDependence;

/// Pairwise dependence posteriors in a form optimised for vote damping.
///
/// `dep_on(s, t)` answers: with what probability does `s` depend on (copy
/// from) `t`? Stored as a per-source adjacency list sorted by target id.
#[derive(Debug, Clone, Default)]
pub struct DependenceMatrix {
    /// `adj[s]` = `(target source index, P(s depends on target))`, sorted
    /// by target. Rows past the last recorded source are simply absent.
    adj: Vec<Vec<(u32, f64)>>,
    entries: usize,
}

impl DependenceMatrix {
    /// An empty matrix: every pair independent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the matrix from pair reports.
    ///
    /// For each pair the overall dependence probability is split between the
    /// two directions according to `prob_a_on_b`; an unresolved
    /// [`Direction::Unknown`](crate::report::Direction::Unknown) therefore
    /// damps both sides halfway, which is the conservative choice.
    pub fn from_pairs(pairs: &[PairDependence]) -> Self {
        let mut directed = Vec::with_capacity(pairs.len() * 2);
        for p in pairs {
            let p = p.clone().canonical();
            directed.push((p.a, p.b, p.probability * p.prob_a_on_b));
            directed.push((p.b, p.a, p.probability * (1.0 - p.prob_a_on_b)));
        }
        Self::from_directed(directed)
    }

    /// Builds from directed `(s, t, p)` entries; a later entry for the same
    /// `(s, t)` overwrites an earlier one.
    fn from_directed(directed: Vec<(SourceId, SourceId, f64)>) -> Self {
        let rows = directed
            .iter()
            .map(|&(s, _, _)| s.index() + 1)
            .max()
            .unwrap_or(0);
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for (s, t, p) in directed {
            adj[s.index()].push((t.0, p));
        }
        let mut entries = 0;
        for row in &mut adj {
            // Stable by target: among duplicates the later insertion is the
            // later element, and the dedup keeps it (matching the old
            // hash-map overwrite semantics).
            row.sort_by_key(|&(t, _)| t);
            let mut write = 0usize;
            for read in 0..row.len() {
                if write > 0 && row[write - 1].0 == row[read].0 {
                    row[write - 1] = row[read];
                } else {
                    row[write] = row[read];
                    write += 1;
                }
            }
            row.truncate(write);
            entries += row.len();
        }
        Self { adj, entries }
    }

    /// Probability that `s` depends on `t`.
    #[inline]
    pub fn dep_on(&self, s: SourceId, t: SourceId) -> f64 {
        match self.adj.get(s.index()) {
            Some(row) => row
                .binary_search_by_key(&t.0, |&(target, _)| target)
                .map_or(0.0, |i| row[i].1),
            None => 0.0,
        }
    }

    /// Probability that `s` and `t` are dependent in either direction.
    #[inline]
    pub fn dependent(&self, s: SourceId, t: SourceId) -> f64 {
        (self.dep_on(s, t) + self.dep_on(t, s)).min(1.0)
    }

    /// Number of directed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// `true` when no dependence is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

// Wire-compatible with the old `{"entries": {"[s,t]": p}}` hash-map shape.
impl Serialize for DependenceMatrix {
    fn serialize(&self) -> Content {
        let mut entries = Vec::with_capacity(self.entries);
        for (s, row) in self.adj.iter().enumerate() {
            for &(t, p) in row {
                entries.push((
                    Content::Seq(vec![Content::U64(s as u64), Content::U64(t as u64)]),
                    Content::F64(p),
                ));
            }
        }
        Content::Map(vec![(
            Content::Str("entries".to_string()),
            Content::Map(entries),
        )])
    }
}

impl Deserialize for DependenceMatrix {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        let entries = content
            .field("entries")
            .ok_or_else(|| SerdeError::msg("DependenceMatrix: missing field `entries`"))?;
        let entries = match entries {
            Content::Map(m) => m,
            other => {
                return Err(SerdeError::msg(format!(
                    "DependenceMatrix: entries must be a map, found {other:?}"
                )))
            }
        };
        let mut directed = Vec::with_capacity(entries.len());
        for (k, v) in entries {
            // JSON delivers composite keys as embedded-JSON strings.
            let reparsed;
            let key = match k {
                Content::Str(s) => {
                    reparsed = serde::json::parse(s)
                        .map_err(|e| SerdeError::msg(format!("DependenceMatrix key: {e}")))?;
                    &reparsed
                }
                other => other,
            };
            let (s, t) = <(u32, u32)>::deserialize(key)?;
            directed.push((SourceId(s), SourceId(t), f64::deserialize(v)?));
        }
        // The adjacency allocates one row per source id; refuse documents
        // whose id space is implausibly larger than their entry count so a
        // tiny document cannot force a huge allocation.
        let rows = directed
            .iter()
            .map(|&(s, _, _)| s.index() + 1)
            .max()
            .unwrap_or(0);
        if !serde::plausible_id_space(rows, directed.len()) {
            return Err(SerdeError::msg(format!(
                "DependenceMatrix: source id space {rows} is implausibly \
                 large for {} entries",
                directed.len()
            )));
        }
        Ok(Self::from_directed(directed))
    }
}

/// Per-object posterior distributions over asserted values.
///
/// Stored as a CSR index over dense [`ObjectId`]s: `arena[offsets[o] ..
/// offsets[o+1]]` is object `o`'s distribution, descending by probability.
/// Objects outside the indexed range (or with no assertions) have empty
/// distributions.
#[derive(Debug, Clone)]
pub struct ValueProbabilities {
    offsets: Vec<u32>,
    arena: Vec<(ValueId, f64)>,
}

impl Default for ValueProbabilities {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            arena: Vec::new(),
        }
    }
}

impl ValueProbabilities {
    /// Builds from sparse `(object, distribution)` pairs in any order
    /// (objects absent from `per_object` get empty distributions; the id
    /// space is the largest object id named plus one). This is the
    /// reconstruction entry external stores use — the persistent analysis
    /// store's compact payload decodes through it.
    pub fn from_object_distributions(per_object: Vec<(ObjectId, Vec<(ValueId, f64)>)>) -> Self {
        let num_objects = per_object
            .iter()
            .map(|&(o, _)| o.index() + 1)
            .max()
            .unwrap_or(0);
        let mut dense: Vec<Vec<(ValueId, f64)>> = vec![Vec::new(); num_objects];
        for (o, d) in per_object {
            dense[o.index()] = d;
        }
        Self::from_ordered(num_objects, dense.into_iter())
    }

    /// Builds from per-object distributions delivered in ascending object
    /// order (one call per object id, empty distributions allowed).
    fn from_ordered(
        num_objects: usize,
        per_object: impl Iterator<Item = Vec<(ValueId, f64)>>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(num_objects + 1);
        offsets.push(0u32);
        let mut arena = Vec::new();
        for dist in per_object {
            arena.extend(dist);
            offsets.push(arena.len() as u32);
        }
        Self { offsets, arena }
    }

    /// The probability that `value` is the true value of `object`
    /// (0 if never asserted).
    #[inline]
    pub fn prob(&self, object: ObjectId, value: ValueId) -> f64 {
        self.distribution(object)
            .iter()
            .find(|&&(v, _)| v == value)
            .map_or(0.0, |&(_, p)| p)
    }

    /// The most probable value of `object` with its probability.
    pub fn best(&self, object: ObjectId) -> Option<(ValueId, f64)> {
        self.distribution(object).first().copied()
    }

    /// The full distribution for `object`, descending by probability.
    #[inline]
    pub fn distribution(&self, object: ObjectId) -> &[(ValueId, f64)] {
        let o = object.index();
        if o + 1 >= self.offsets.len() {
            return &[];
        }
        &self.arena[self.offsets[o] as usize..self.offsets[o + 1] as usize]
    }

    /// Hard decisions: the most probable value per object.
    pub fn decisions(&self) -> HashMap<ObjectId, ValueId> {
        self.objects()
            .into_iter()
            .filter_map(|o| self.best(o).map(|(v, _)| (o, v)))
            .collect()
    }

    /// Hard decisions in ascending object order — iteration over the result
    /// is deterministic across calls and runs, unlike [`Self::decisions`],
    /// whose hash-map iteration order is randomized per process.
    pub fn decisions_sorted(&self) -> BTreeMap<ObjectId, ValueId> {
        self.objects()
            .into_iter()
            .filter_map(|o| self.best(o).map(|(v, _)| (o, v)))
            .collect()
    }

    /// Objects with at least one asserted value, ascending.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(o, _)| ObjectId::from_index(o))
            .collect()
    }

    /// Number of objects with a distribution.
    pub fn len(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// `true` when no object has a distribution.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

// Wire-compatible with the old `{"dist": {object: [[value, p], ...]}}`
// hash-map shape; only covered objects appear, like the old map.
impl Serialize for ValueProbabilities {
    fn serialize(&self) -> Content {
        let entries = self
            .objects()
            .into_iter()
            .map(|o| {
                (
                    Content::U64(o.0 as u64),
                    Content::Seq(
                        self.distribution(o)
                            .iter()
                            .map(|&(v, p)| {
                                Content::Seq(vec![Content::U64(v.0 as u64), Content::F64(p)])
                            })
                            .collect(),
                    ),
                )
            })
            .collect();
        Content::Map(vec![(
            Content::Str("dist".to_string()),
            Content::Map(entries),
        )])
    }
}

impl Deserialize for ValueProbabilities {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        let dist = content
            .field("dist")
            .ok_or_else(|| SerdeError::msg("ValueProbabilities: missing field `dist`"))?;
        let dist = match dist {
            Content::Map(m) => m,
            other => {
                return Err(SerdeError::msg(format!(
                    "ValueProbabilities: dist must be a map, found {other:?}"
                )))
            }
        };
        let mut per_object: Vec<(u32, Vec<(ValueId, f64)>)> = Vec::with_capacity(dist.len());
        for (k, v) in dist {
            let o = u32::deserialize(k)?;
            let d = <Vec<(u32, f64)>>::deserialize(v)?
                .into_iter()
                .map(|(v, p)| (ValueId(v), p))
                .collect();
            per_object.push((o, d));
        }
        per_object.sort_by_key(|&(o, _)| o);
        let num_objects = per_object.last().map_or(0, |&(o, _)| o as usize + 1);
        // The CSR offsets allocate per object id; refuse documents whose id
        // space is implausibly larger than their entry count so a tiny
        // document cannot force a huge allocation.
        if !serde::plausible_id_space(num_objects, per_object.len()) {
            return Err(SerdeError::msg(format!(
                "ValueProbabilities: object id space {num_objects} is \
                 implausibly large for {} distributions",
                per_object.len()
            )));
        }
        Ok(Self::from_object_distributions(
            per_object
                .into_iter()
                .map(|(o, d)| (ObjectId(o), d))
                .collect(),
        ))
    }
}

/// The vote weight of a source with accuracy `a` against `n` plausible false
/// values: `ln(n·a / (1−a))`.
///
/// This is the standard Bayesian vote count: under the uniform-false-value
/// model a source asserting `v` multiplies the odds of `v` being true by
/// `n·a/(1−a)`.
#[inline]
pub fn vote_weight(accuracy: f64, n_false: usize, params: &DetectionParams) -> f64 {
    let a = params.clamp_accuracy(accuracy);
    ((n_false as f64) * a / (1.0 - a)).ln()
}

/// Effective number of false values for an object: the configured floor or
/// the observed value diversity, whichever is larger.
#[inline]
pub fn effective_n_false(
    snapshot: &SnapshotView,
    object: ObjectId,
    params: &DetectionParams,
) -> usize {
    params
        .n_false_values
        .max(snapshot.distinct_values(object).saturating_sub(1))
        .max(1)
}

/// One round of dependence-damped weighted voting.
///
/// For each object, supporters of each value are processed in descending
/// accuracy order; a supporter's weight is multiplied by
/// `Π (1 − c·P(s depends on s'))` over the already-counted supporters `s'` of
/// the same value — a copied vote contributes almost nothing beyond its
/// original. Scores are turned into probabilities with the uniform-false
/// prior: unobserved values share the zero-score mass.
pub fn weighted_vote(
    snapshot: &SnapshotView,
    accuracies: &[f64],
    deps: &DependenceMatrix,
    params: &DetectionParams,
) -> ValueProbabilities {
    let num_objects = snapshot.num_objects();
    let mut offsets = Vec::with_capacity(num_objects + 1);
    offsets.push(0u32);
    let mut arena: Vec<(ValueId, f64)> = Vec::with_capacity(snapshot.num_assertions());
    // Scratch buffers reused across objects: supporters grouped by value,
    // per-value supporter ordering, and per-value scores.
    let mut grouped: Vec<(ValueId, SourceId)> = Vec::new();
    let mut ordered: Vec<SourceId> = Vec::new();
    let mut scores: Vec<(ValueId, f64)> = Vec::new();

    for idx in 0..num_objects {
        let object = ObjectId::from_index(idx);
        let assertions = snapshot.assertions_on(object);
        if assertions.is_empty() {
            offsets.push(arena.len() as u32);
            continue;
        }
        let n_false = effective_n_false(snapshot, object, params);

        // Group supporters per value, in deterministic (value, source)
        // order — the per-object slice is small, so a sort beats hashing.
        grouped.clear();
        grouped.extend(assertions.iter().map(|&(s, v)| (v, s)));
        grouped.sort_unstable();

        scores.clear();
        let mut start = 0usize;
        while start < grouped.len() {
            let value = grouped[start].0;
            let mut end = start + 1;
            while end < grouped.len() && grouped[end].0 == value {
                end += 1;
            }
            ordered.clear();
            ordered.extend(grouped[start..end].iter().map(|&(_, s)| s));
            // Highest-accuracy supporter first: it keeps its full vote and
            // damps the (likely copied) votes below it.
            ordered.sort_by(|&x, &y| {
                let ax = accuracies.get(x.index()).copied().unwrap_or(0.5);
                let ay = accuracies.get(y.index()).copied().unwrap_or(0.5);
                ay.total_cmp(&ax).then(x.cmp(&y))
            });
            let mut score = 0.0;
            for (i, &s) in ordered.iter().enumerate() {
                let a = accuracies.get(s.index()).copied().unwrap_or(0.5);
                let mut independence = 1.0;
                for &prev in &ordered[..i] {
                    // Either direction of dependence means the value was
                    // provided independently at most once between the two
                    // sources; the earlier-processed source keeps the
                    // credit, so the later one is damped by the *total*
                    // dependence probability. Past the hard threshold the
                    // copied vote is ignored outright ("we would like to
                    // ignore values that are copied", Section 4).
                    let dep = deps.dependent(s, prev);
                    independence *= if dep >= params.hard_damping_threshold {
                        0.0
                    } else {
                        1.0 - params.copy_rate * dep
                    };
                }
                score += independence * vote_weight(a, n_false, params);
            }
            scores.push((value, score));
            start = end;
        }

        // Softmax over observed values plus the unobserved remainder of the
        // (1 true + n false) universe at score 0.
        let unobserved = (n_false + 1).saturating_sub(scores.len()) as f64;
        let max_score = scores
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let mut z = unobserved * (-max_score).exp();
        for &(_, s) in &scores {
            z += (s - max_score).exp();
        }
        let object_start = arena.len();
        arena.extend(scores.iter().map(|&(v, s)| (v, (s - max_score).exp() / z)));
        arena[object_start..].sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        offsets.push(arena.len() as u32);
    }
    ValueProbabilities { offsets, arena }
}

/// The least-committal starting belief: each object's naive vote shares.
///
/// The iterative pipeline bootstraps from these instead of a weighted-vote
/// softmax: with no accuracy information yet, treating every source as an
/// independent high-weight witness makes the majority value look certain and
/// hides the shared-false-value mass that copy detection feeds on. Vote
/// shares keep a 3-vs-2 split at 0.6/0.4 — uncertain enough for the shared
/// minority/majority false values to register as copying evidence.
pub fn naive_probabilities(snapshot: &SnapshotView) -> ValueProbabilities {
    let num_objects = snapshot.num_objects();
    let mut offsets = Vec::with_capacity(num_objects + 1);
    offsets.push(0u32);
    let mut arena: Vec<(ValueId, f64)> = Vec::new();
    for idx in 0..num_objects {
        let object = ObjectId::from_index(idx);
        let counts = snapshot.value_counts(object);
        let total: usize = counts.iter().map(|&(_, c)| c).sum();
        if total > 0 {
            arena.extend(
                counts
                    .into_iter()
                    .map(|(v, c)| (v, c as f64 / total as f64)),
            );
        }
        offsets.push(arena.len() as u32);
    }
    ValueProbabilities { offsets, arena }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DependenceKind, Direction};
    use sailing_model::fixtures;
    use sailing_model::Value;

    fn params() -> DetectionParams {
        DetectionParams::default()
    }

    #[test]
    fn matrix_from_pairs_splits_directions() {
        let p = PairDependence {
            a: SourceId(1),
            b: SourceId(2),
            probability: 0.8,
            prob_a_on_b: 0.75,
            kind: DependenceKind::Similarity,
            direction: Direction::AOnB,
            overlap: 4,
            diagnostic: 0.0,
        };
        let m = DependenceMatrix::from_pairs(&[p]);
        assert!((m.dep_on(SourceId(1), SourceId(2)) - 0.6).abs() < 1e-12);
        assert!((m.dep_on(SourceId(2), SourceId(1)) - 0.2).abs() < 1e-12);
        assert!((m.dependent(SourceId(1), SourceId(2)) - 0.8).abs() < 1e-12);
        assert_eq!(m.dep_on(SourceId(1), SourceId(3)), 0.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn vote_weight_monotone_in_accuracy() {
        let p = params();
        let w_low = vote_weight(0.6, 10, &p);
        let w_high = vote_weight(0.9, 10, &p);
        assert!(w_high > w_low);
        assert!(vote_weight(0.9, 100, &p) > w_high);
    }

    #[test]
    fn weighted_vote_equal_weights_matches_majority() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let accs = vec![0.8; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params());
        let naive = crate::vote::naive_vote(&snap);
        for (&o, &v) in &naive {
            // With equal accuracies and no dependence, the weighted winner on
            // non-tied objects is the majority value.
            if snap.value_counts(o)[0].1 > snap.value_counts(o).get(1).map_or(0, |x| x.1) {
                assert_eq!(probs.best(o).unwrap().0, v);
            }
        }
    }

    #[test]
    fn distributions_are_valid_probabilities() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let accs = vec![0.8; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params());
        for o in probs.objects() {
            let d = probs.distribution(o);
            let total: f64 = d.iter().map(|&(_, p)| p).sum();
            assert!(total <= 1.0 + 1e-9, "mass {total} exceeds 1");
            assert!(d.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
            // Sorted descending.
            assert!(d.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn damping_cancels_copied_votes() {
        // Three sources assert "UW"; S2 and S3 copy S1 with certainty.
        // One accurate independent source asserts "Google".
        let mut b = sailing_model::ClaimStoreBuilder::new();
        b.add("S0", "Halevy", "Google")
            .add("S1", "Halevy", "UW")
            .add("S2", "Halevy", "UW")
            .add("S3", "Halevy", "UW");
        let store = b.build();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let s3 = store.source_id("S3").unwrap();
        let mk = |s: SourceId, t: SourceId| PairDependence {
            a: s,
            b: t,
            probability: 1.0,
            prob_a_on_b: 1.0,
            kind: DependenceKind::Similarity,
            direction: Direction::AOnB,
            overlap: 1,
            diagnostic: 0.0,
        };
        let deps = DependenceMatrix::from_pairs(&[mk(s2, s1), mk(s3, s1)]);
        // S0 slightly more accurate than the copier cluster's root.
        let accs = vec![0.9, 0.7, 0.7, 0.7];
        let p = DetectionParams {
            copy_rate: 1.0,
            ..params()
        };
        let probs = weighted_vote(&snap, &accs, &deps, &p);
        let halevy = store.object_id("Halevy").unwrap();
        let google = store.value_id(&Value::text("Google")).unwrap();
        assert_eq!(
            probs.best(halevy).unwrap().0,
            google,
            "damped copies should not outvote the accurate independent source"
        );

        // Without damping, the three UW votes win.
        let undamped = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &p);
        let uw = store.value_id(&Value::text("UW")).unwrap();
        assert_eq!(undamped.best(halevy).unwrap().0, uw);
    }

    #[test]
    fn single_dependence_helper() {
        // One certain dependence, S4 on S2.
        let m = DependenceMatrix::from_pairs(&[PairDependence {
            a: SourceId(4),
            b: SourceId(2),
            probability: 1.0,
            prob_a_on_b: 1.0,
            kind: DependenceKind::Similarity,
            direction: Direction::AOnB,
            overlap: 0,
            diagnostic: 0.0,
        }]);
        assert!((m.dep_on(SourceId(4), SourceId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(m.dep_on(SourceId(2), SourceId(4)), 0.0);
    }

    #[test]
    fn value_probabilities_accessors() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let accs = vec![0.8; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params());
        assert_eq!(probs.len(), 5);
        assert!(!probs.is_empty());
        let o = probs.objects()[0];
        let (v, p) = probs.best(o).unwrap();
        assert!(probs.prob(o, v) == p);
        assert_eq!(probs.prob(o, ValueId(9999)), 0.0);
        let decisions = probs.decisions();
        assert_eq!(decisions.len(), 5);
        assert_eq!(decisions[&o], v);
    }

    #[test]
    fn deserialize_rejects_implausible_id_spaces() {
        // A tiny document must not be able to force a gigabyte allocation
        // by naming one gigantic id.
        let bomb = r#"{"dist":{"4294967295":[]}}"#;
        assert!(ValueProbabilities::deserialize(&serde::json::parse(bomb).unwrap()).is_err());
        let bomb = r#"{"entries":{"[4294967295,0]":0.5}}"#;
        assert!(DependenceMatrix::deserialize(&serde::json::parse(bomb).unwrap()).is_err());
        // Legacy-shaped documents with sane ids still parse.
        let ok = r#"{"dist":{"3":[[7,1.0]]}}"#;
        let vp = ValueProbabilities::deserialize(&serde::json::parse(ok).unwrap()).unwrap();
        assert_eq!(vp.best(ObjectId(3)), Some((ValueId(7), 1.0)));
        let ok = r#"{"entries":{"[2,1]":0.8}}"#;
        let m = DependenceMatrix::deserialize(&serde::json::parse(ok).unwrap()).unwrap();
        assert!((m.dep_on(SourceId(2), SourceId(1)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        let probs = weighted_vote(&snap, &[], &DependenceMatrix::new(), &params());
        assert!(probs.is_empty());
        assert_eq!(probs.best(ObjectId(0)), None);
        assert_eq!(probs.distribution(ObjectId(0)), &[]);
    }
}
