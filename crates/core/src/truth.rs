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
//! # Layout
//!
//! Both posterior containers live on the per-iteration hot path (every pair
//! likelihood probes `prob`, every vote round rebuilds the distributions,
//! every damping step probes the matrix), so neither nests hash maps:
//!
//! * [`ValueProbabilities`] is an offsets-plus-arena index keyed by dense
//!   [`ObjectId`]: `distribution(o)` is a contiguous slice lookup, `prob`
//!   a short linear scan of that slice (distributions hold a handful of
//!   observed values, sorted by descending probability).
//! * [`DependenceMatrix`] is one hash table keyed by the unordered source
//!   pair, each key holding both directed probabilities, so `dep_on` and
//!   `dependent` are one probe each.
//!
//! Both serialize in their legacy map-shaped JSON (`{"dist": {...}}` /
//! `{"entries": {...}}`) so persisted pipeline results remain readable
//! across layout changes. One deliberate narrowing: documents whose id
//! space is implausibly larger than their entry count (see
//! [`serde::plausible_id_space`]) are rejected, so a tiny document cannot
//! force a huge CSR allocation — ids from this workspace's catalogs are
//! dense, so real artifacts always pass.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hasher};

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

use sailing_model::{ObjectId, SnapshotView, SourceId, ValueId};

use crate::params::DetectionParams;
use crate::report::PairDependence;

#[cfg(test)]
pub(crate) mod reference;

/// Pairwise dependence posteriors in a form optimised for vote damping.
///
/// `dep_on(s, t)` answers: with what probability does `s` depend on (copy
/// from) `t`? Stored as one hash table keyed by the unordered pair `(lo, hi)`
/// holding `[P(lo on hi), P(hi on lo)]` (a self pair fills both slots), so
/// `dep_on` and `dependent` are one probe each.
#[derive(Debug, Clone, Default)]
pub struct DependenceMatrix {
    pairs: HashMap<u64, [f64; 2], PairHasher>,
    /// Directions of a pair that a deserialized document left out: they
    /// read as 0.0 and are not serialized (`from_pairs` records both).
    unrecorded: BTreeSet<(u32, u32)>,
    entries: usize,
}

/// The table key of the pair `{s, t}` and the slot of `P(s depends on t)`.
#[inline]
fn pair_key(s: SourceId, t: SourceId) -> (u64, usize) {
    let (lo, hi, slot) = if s <= t { (s, t, 0) } else { (t, s, 1) };
    ((u64::from(lo.0) << 32) | u64::from(hi.0), slot)
}

/// A folded multiply of the key and a per-table random seed: the 128-bit
/// product's halves are xored, so the low bits the table indexes buckets by
/// depend on both source ids, and the seed keeps a document from choosing
/// keys that collide. Builds itself, as its own `BuildHasher`.
#[derive(Clone)]
struct PairHasher(u64);

impl Default for PairHasher {
    fn default() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for PairHasher {
    type Hasher = Self;

    fn build_hasher(&self) -> Self {
        self.clone()
    }
}

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let key = u64::from_ne_bytes(bytes.try_into().expect("pair keys hash as one u64"));
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    /// damps both sides halfway, which is the conservative choice. A later
    /// report on the same pair overwrites an earlier one.
    pub fn from_pairs(pairs: &[PairDependence]) -> Self {
        let mut matrix = Self::default();
        matrix.pairs.reserve(pairs.len());
        for p in pairs {
            // `PairDependence::canonical`, without the clone.
            let (lo, hi, on) = if p.a > p.b {
                (p.b, p.a, 1.0 - p.prob_a_on_b)
            } else {
                (p.a, p.b, p.prob_a_on_b)
            };
            // A self pair keeps its later directed entry, in both slots.
            let back = p.probability * (1.0 - on);
            let value = [if lo == hi { back } else { p.probability * on }, back];
            if matrix.pairs.insert(pair_key(lo, hi).0, value).is_none() {
                matrix.entries += 2 - usize::from(lo == hi);
            }
        }
        matrix
    }

    /// Records `P(s depends on t) = p` over any earlier entry; the other
    /// direction of a new pair starts unrecorded. Leaves `entries` stale.
    fn record(&mut self, s: SourceId, t: SourceId, p: f64) {
        let (key, slot) = pair_key(s, t);
        let value = self.pairs.entry(key).or_insert_with(|| {
            self.unrecorded.insert((t.0, s.0));
            [0.0; 2]
        });
        value[slot] = p;
        if s == t {
            value[1] = p;
        }
        self.unrecorded.remove(&(s.0, t.0));
    }

    /// Probability that `s` depends on `t`.
    #[inline]
    pub fn dep_on(&self, s: SourceId, t: SourceId) -> f64 {
        let (key, slot) = pair_key(s, t);
        self.pairs.get(&key).map_or(0.0, |value| value[slot])
    }

    /// Probability that `s` and `t` are dependent in either direction: both
    /// directions' sum (the same bits either way round), capped at 1.
    #[inline]
    pub fn dependent(&self, s: SourceId, t: SourceId) -> f64 {
        self.pairs
            .get(&pair_key(s, t).0)
            .map_or(0.0, |&[forward, back]| (forward + back).min(1.0))
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

// Wire-compatible with the old `{"entries": {"[s,t]": p}}` hash-map shape,
// entries ascending by `(s, t)`.
impl Serialize for DependenceMatrix {
    fn serialize(&self) -> Content {
        let mut directed = Vec::with_capacity(2 * self.pairs.len());
        for (&key, &[forward, back]) in &self.pairs {
            let (lo, hi) = ((key >> 32) as u32, key as u32);
            directed.push((lo, hi, forward));
            if lo != hi {
                directed.push((hi, lo, back));
            }
        }
        directed.retain(|&(s, t, _)| !self.unrecorded.contains(&(s, t)));
        directed.sort_unstable_by_key(|&(s, t, _)| (s, t));
        let entries = directed.into_iter().map(|(s, t, p)| {
            let key = Content::Seq(vec![Content::U64(s.into()), Content::U64(t.into())]);
            (key, Content::F64(p))
        });
        Content::Map(vec![(
            Content::Str("entries".to_string()),
            Content::Map(entries.collect()),
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
        let mut matrix = Self::default();
        let mut rows = 0;
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
            matrix.record(SourceId(s), SourceId(t), f64::deserialize(v)?);
            rows = rows.max(s as usize + 1);
        }
        let self_pairs = matrix.pairs.keys().filter(|&&k| k >> 32 == k & 0xFFFF_FFFF);
        matrix.entries = 2 * matrix.pairs.len() - self_pairs.count() - matrix.unrecorded.len();
        // Source ids are dense: refuse an id space implausibly larger than
        // the entry count, as the id-indexed containers do.
        if !serde::plausible_id_space(rows, entries.len()) {
            return Err(SerdeError::msg(format!(
                "DependenceMatrix: source id space {rows} is implausibly \
                 large for {} entries",
                entries.len()
            )));
        }
        Ok(matrix)
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
    // Each source's accuracy (0.5 past the end of `accuracies`) and its
    // vote weight at the configured false-value count, once per call.
    let default_n_false = params.n_false_values.max(1);
    let sources: Vec<(f64, f64)> = (0..snapshot.num_sources())
        .map(|s| {
            let a = accuracies.get(s).copied().unwrap_or(0.5);
            (a, vote_weight(a, default_n_false, params))
        })
        .collect();

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
                let (ax, ay) = (sources[x.index()].0, sources[y.index()].0);
                ay.total_cmp(&ax).then(x.cmp(&y))
            });
            let mut score = 0.0;
            for (i, &s) in ordered.iter().enumerate() {
                let (a, weight) = sources[s.index()];
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
                let weight = if n_false == default_n_false {
                    weight
                } else {
                    vote_weight(a, n_false, params)
                };
                score += independence * weight;
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
    use super::reference::{weighted_vote_reference, AdjacencyMatrix};
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

    /// `dep_on`, `dependent` and `len` of the two matrices agree bit for
    /// bit over every pair of ids below `sources` (one past the largest
    /// recorded id covers rows the adjacency never allocated), and both
    /// serialize to the same JSON, which survives a round trip.
    fn assert_matrix_parity(
        what: &str,
        fast: &DependenceMatrix,
        oracle: &AdjacencyMatrix,
        sources: u32,
    ) {
        assert_eq!(fast.len(), oracle.len(), "{what}: len");
        assert_eq!(fast.is_empty(), oracle.len() == 0, "{what}: is_empty");
        for s in (0..sources).map(SourceId) {
            for t in (0..sources).map(SourceId) {
                let (dep_on, reference) = (fast.dep_on(s, t), oracle.dep_on(s, t));
                assert_eq!(
                    dep_on.to_bits(),
                    reference.to_bits(),
                    "{what}: dep_on({s:?}, {t:?})"
                );
                let (dependent, reference) = (fast.dependent(s, t), oracle.dependent(s, t));
                assert_eq!(
                    dependent.to_bits(),
                    reference.to_bits(),
                    "{what}: dependent({s:?}, {t:?})"
                );
            }
        }
        let json = serde_json::to_string(fast).unwrap();
        assert_eq!(json, serde_json::to_string(oracle).unwrap(), "{what}: JSON");
        let reread: DependenceMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&reread).unwrap(),
            json,
            "{what}: JSON round trip"
        );
        assert_eq!(reread.len(), fast.len(), "{what}: len after a round trip");
    }

    /// Both vote bodies give the same distributions, bit for bit; returns
    /// the fast one.
    fn assert_vote_parity(
        what: &str,
        snapshot: &SnapshotView,
        accuracies: &[f64],
        (fast, oracle): (&DependenceMatrix, &AdjacencyMatrix),
        params: &DetectionParams,
    ) -> ValueProbabilities {
        let vote = weighted_vote(snapshot, accuracies, fast, params);
        let reference = weighted_vote_reference(snapshot, accuracies, oracle, params);
        assert_eq!(vote.offsets, reference.offsets, "{what}: offsets");
        for (i, (&(v, p), &(rv, rp))) in vote.arena.iter().zip(&reference.arena).enumerate() {
            assert_eq!(v, rv, "{what}: value at arena slot {i}");
            assert_eq!(
                p.to_bits(),
                rp.to_bits(),
                "{what}: probability at arena slot {i}"
            );
        }
        vote
    }

    fn pair(a: u32, b: u32, probability: f64, prob_a_on_b: f64) -> PairDependence {
        PairDependence {
            a: SourceId(a),
            b: SourceId(b),
            probability,
            prob_a_on_b,
            kind: DependenceKind::Similarity,
            direction: Direction::Unknown,
            overlap: 1,
            diagnostic: 0.0,
        }
    }

    /// The same pair reports through both matrices' `from_pairs`.
    fn from_pairs(pairs: &[PairDependence]) -> (DependenceMatrix, AdjacencyMatrix) {
        (
            DependenceMatrix::from_pairs(pairs),
            AdjacencyMatrix::from_pairs(pairs),
        )
    }

    /// The same directed entries through both matrices' `Deserialize`.
    fn deserialized(directed: &[(u32, u32, f64)]) -> (DependenceMatrix, AdjacencyMatrix) {
        let entries = directed
            .iter()
            .map(|&(s, t, p)| {
                (
                    Content::Seq(vec![Content::U64(s.into()), Content::U64(t.into())]),
                    Content::F64(p),
                )
            })
            .collect();
        let content = Content::Map(vec![(
            Content::Str("entries".to_string()),
            Content::Map(entries),
        )]);
        (
            DependenceMatrix::deserialize(&content).unwrap(),
            AdjacencyMatrix::deserialize(&content).unwrap(),
        )
    }

    #[test]
    fn vote_parity_pins_matrix_json() {
        // The bytes themselves, not only agreement with the oracle: entries
        // ascending by `(s, t)`, a self pair once, an unrecorded direction
        // absent, and `-0.0` kept.
        let m = DependenceMatrix::from_pairs(&[pair(2, 1, 0.8, 0.25), pair(0, 0, 0.5, 0.5)]);
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            r#"{"entries":{"[0,0]":0.25,"[1,2]":0.6000000000000001,"[2,1]":0.2}}"#
        );
        let doc = r#"{"entries":{"[0,3]":-0.0,"[2,1]":0.8,"[5,5]":0.4}}"#;
        let m: DependenceMatrix = serde_json::from_str(doc).unwrap();
        assert_eq!(serde_json::to_string(&m).unwrap(), doc);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dep_on(SourceId(1), SourceId(2)), 0.0);
        assert_eq!(m.dependent(SourceId(5), SourceId(5)), 0.8);
    }

    #[test]
    fn vote_parity_on_oracle_worlds() {
        use crate::accuracy::{estimate_accuracies, max_delta};
        use crate::pairs::{candidate_pairs, detect_all_with_pairs};
        // The cold loop of `AccuCopy::step`, with every iteration's real
        // dependence list fed to both matrices and both vote bodies.
        let mut damped = std::collections::BTreeSet::new();
        for (name, snapshot, params) in crate::copy::reference::oracle_worlds() {
            let sources = snapshot.num_sources() as u32 + 1;
            let pairs = candidate_pairs(&snapshot, params.min_overlap);
            let mut probabilities = naive_probabilities(&snapshot);
            let mut accuracies = vec![params.initial_accuracy; snapshot.num_sources()];
            for iteration in 1..=params.max_iterations {
                let what = format!("{name}, iteration {iteration}");
                let deps =
                    detect_all_with_pairs(&snapshot, &pairs, &probabilities, &accuracies, &params);
                let (fast, oracle) = from_pairs(&deps);
                assert_matrix_parity(&what, &fast, &oracle, sources);
                if deps
                    .iter()
                    .any(|d| d.probability >= params.hard_damping_threshold)
                {
                    damped.insert(name.clone());
                }
                let matrices = (&fast, &oracle);
                probabilities =
                    assert_vote_parity(&what, &snapshot, &accuracies, matrices, &params);
                let fresh = estimate_accuracies(&snapshot, &probabilities, &params);
                let converged = max_delta(&accuracies, &fresh) < params.convergence_epsilon;
                accuracies = fresh;
                if converged {
                    break;
                }
                probabilities =
                    assert_vote_parity(&what, &snapshot, &accuracies, matrices, &params);
            }
        }
        // The parity covers the hard cut, not just the soft damping.
        for world in [
            "table 1",
            "table 2",
            "specialist",
            "mixed",
            "bookstores linked=true",
        ] {
            assert!(
                damped.contains(world),
                "{world}: no vote was damped past the hard threshold"
            );
        }
    }

    /// Seven sources over four objects: objects 0 and 1 are backed by every
    /// source (so every pair damps), object 2 splits, object 3 has seven
    /// distinct values.
    fn hand_built_world() -> SnapshotView {
        let mut triples = Vec::new();
        for s in 0..7u32 {
            let source = SourceId(s);
            triples.push((source, ObjectId(0), ValueId(0)));
            triples.push((source, ObjectId(1), ValueId(1)));
            triples.push((source, ObjectId(2), ValueId(2 + s % 2)));
            triples.push((source, ObjectId(3), ValueId(10 + s)));
        }
        SnapshotView::from_triples(7, 4, triples)
    }

    #[test]
    fn vote_parity_on_hand_built_matrices() {
        let snapshot = hand_built_world();
        let params = params();
        let at = params.hard_damping_threshold;
        let matrices = [
            (
                "duplicate pairs in both orientations",
                from_pairs(&[
                    pair(1, 2, 0.9, 0.3),
                    pair(2, 1, 0.5, 0.8),
                    pair(4, 0, 0.7, 0.1),
                    pair(0, 4, 0.2, 0.6),
                    pair(1, 2, 0.4, 0.25),
                ]),
            ),
            (
                "self pairs and a dependence at the hard threshold",
                from_pairs(&[
                    pair(3, 3, 0.6, 0.2),
                    pair(5, 1, at, 1.0),
                    pair(6, 3, at, 0.5),
                ]),
            ),
            (
                "negative zeros from pairs",
                from_pairs(&[pair(0, 1, -0.0, 0.5), pair(2, 3, 0.5, -0.0)]),
            ),
            (
                "one-direction, duplicate, self and above-1 entries",
                deserialized(&[
                    (2, 1, 0.8),
                    (4, 3, 0.3),
                    (3, 4, 0.1),
                    (4, 3, 0.05),
                    (5, 5, 0.9),
                    (5, 5, 0.4),
                    (0, 6, 0.7),
                    (6, 0, 0.6),
                    (1, 5, at),
                    (0, 3, -0.0),
                    (3, 0, -0.0),
                    (6, 2, -0.0),
                    (2, 6, 0.0),
                ]),
            ),
            (
                "empty",
                (DependenceMatrix::new(), AdjacencyMatrix::default()),
            ),
        ];
        // Accuracies with ties (the source id breaks them) and extremes the
        // clamp cuts.
        let accuracies = [0.9, 0.7, 0.7, 0.95, 0.0, 1.0, 0.7];
        for (name, (fast, oracle)) in &matrices {
            assert_matrix_parity(name, fast, oracle, 8);
            assert_vote_parity(name, &snapshot, &accuracies, (fast, oracle), &params);
        }
    }

    #[test]
    fn vote_parity_on_vote_weight_fallbacks() {
        // Object 3's seven distinct values exceed `n_false_values + 1`, so
        // its weights come from `vote_weight` directly; a short accuracy
        // vector leaves sources 4..7 at the 0.5 fallback.
        let snapshot = hand_built_world();
        let (fast, oracle) = from_pairs(&[
            pair(0, 5, 0.9, 0.7),
            pair(1, 6, 0.3, 0.5),
            pair(2, 3, 0.1, 0.0),
        ]);
        for n_false_values in [2, 1, 0] {
            let params = DetectionParams {
                n_false_values,
                ..params()
            };
            assert!(effective_n_false(&snapshot, ObjectId(3), &params) > n_false_values);
            for accuracies in [&[0.8, 0.6, 0.9, 0.6][..], &[], &[0.3; 7]] {
                let what = format!("n_false_values {n_false_values}, {accuracies:?}");
                assert_vote_parity(&what, &snapshot, accuracies, (&fast, &oracle), &params);
            }
        }
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
