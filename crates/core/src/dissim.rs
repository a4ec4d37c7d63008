//! Dissimilarity-dependence detection on opinion data.
//!
//! Table 2's reviewer `R4` "has a strong opinion on `R1`'s tastes and chooses
//! to provide opposite ratings for all of `R1`'s ratings" — the paper's
//! *dissimilarity-dependence*. This module tests every rater pair against
//! five hypotheses: independent, `a` copies `b`, `b` copies `a`, `a` inverts
//! `b`, `b` inverts `a`.
//!
//! The *correlated information* challenge (Section 3.1) — "a high similarity
//! between the ratings of two raters for the various Star Wars movies may
//! simply reflect a popular opinion amongst science fiction fans" — is
//! handled by **residualising against the per-item consensus**: the
//! independence model predicts a rater's rating from what *everyone else*
//! said about the item, so agreeing with the crowd is never evidence of
//! dependence. Disable [`DissimParams::residualize`] to measure exactly how
//! many false positives that correction prevents (experiment E11).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sailing_model::{ClaimStore, ObjectId, SailingError, SourceId, Value};

use crate::report::{DependenceKind, Direction, PairDependence};

/// Parameters of dissimilarity/similarity detection on ratings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DissimParams {
    /// Prior probability that an arbitrary ordered pair is dependent
    /// (split equally over the four dependent hypotheses).
    pub prior_dependence: f64,
    /// Probability that a dependent rater mirrors/inverts any particular
    /// shared item.
    pub dependence_rate: f64,
    /// Predict a rater's rating from the per-item consensus (`true`, the
    /// paper's correlated-information correction) or only from the rater's
    /// own global rating distribution (`false`).
    pub residualize: bool,
    /// Pairs sharing fewer items than this are not tested.
    pub min_overlap: usize,
    /// Additive smoothing weight for the consensus/marginal mixture.
    pub smoothing: f64,
}

impl Default for DissimParams {
    fn default() -> Self {
        Self {
            prior_dependence: 0.2,
            dependence_rate: 0.8,
            residualize: true,
            min_overlap: 3,
            smoothing: 2.0,
        }
    }
}

impl DissimParams {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), SailingError> {
        if !(0.0..=1.0).contains(&self.prior_dependence) {
            return Err(SailingError::param_outside_unit(
                "prior_dependence",
                self.prior_dependence,
            ));
        }
        if !(0.0..=1.0).contains(&self.dependence_rate) {
            return Err(SailingError::param_outside_unit(
                "dependence_rate",
                self.dependence_rate,
            ));
        }
        if self.smoothing <= 0.0 {
            return Err(SailingError::param("smoothing", "must be positive"));
        }
        Ok(())
    }
}

/// A dense view of ordinal ratings: one optional rating per (rater, item).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatingView {
    ratings: Vec<HashMap<ObjectId, u8>>,
    per_item: Vec<Vec<(SourceId, u8)>>,
    scale_max: u8,
}

impl RatingView {
    /// Builds from `(rater, item, rating)` triples on a `0..=scale_max`
    /// scale. Ratings above the scale are clamped.
    pub fn from_triples(
        num_sources: usize,
        num_objects: usize,
        scale_max: u8,
        triples: impl IntoIterator<Item = (SourceId, ObjectId, u8)>,
    ) -> Self {
        let mut ratings: Vec<HashMap<ObjectId, u8>> = vec![HashMap::new(); num_sources];
        for (s, o, r) in triples {
            ratings[s.index()].insert(o, r.min(scale_max));
        }
        let mut per_item: Vec<Vec<(SourceId, u8)>> = vec![Vec::new(); num_objects];
        for (s, m) in ratings.iter().enumerate() {
            let mut items: Vec<_> = m.iter().map(|(&o, &r)| (o, r)).collect();
            items.sort_by_key(|&(o, _)| o);
            for (o, r) in items {
                per_item[o.index()].push((SourceId::from_index(s), r));
            }
        }
        Self {
            ratings,
            per_item,
            scale_max,
        }
    }

    /// Extracts all [`Value::Rating`] claims from a store's snapshot.
    pub fn from_store(store: &ClaimStore, scale_max: u8) -> Self {
        let snap = store.snapshot();
        let triples: Vec<_> = (0..store.num_sources())
            .flat_map(|s| {
                let sid = SourceId::from_index(s);
                snap.assertions_of(sid)
                    .filter_map(|(o, v)| match store.value(v) {
                        Some(&Value::Rating(r)) => Some((sid, o, r)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        Self::from_triples(store.num_sources(), store.num_objects(), scale_max, triples)
    }

    /// The rating scale's maximum level (`0..=scale_max`).
    pub fn scale_max(&self) -> u8 {
        self.scale_max
    }

    /// Number of raters.
    pub fn num_sources(&self) -> usize {
        self.ratings.len()
    }

    /// Number of items.
    pub fn num_objects(&self) -> usize {
        self.per_item.len()
    }

    /// The rating `rater` gave `item`.
    pub fn rating(&self, rater: SourceId, item: ObjectId) -> Option<u8> {
        self.ratings.get(rater.index())?.get(&item).copied()
    }

    /// All ratings on one item.
    pub fn ratings_on(&self, item: ObjectId) -> &[(SourceId, u8)] {
        self.per_item
            .get(item.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All `(item, rating)` pairs of one rater.
    pub fn ratings_of(&self, rater: SourceId) -> impl Iterator<Item = (ObjectId, u8)> + '_ {
        self.ratings
            .get(rater.index())
            .into_iter()
            .flat_map(|m| m.iter().map(|(&o, &r)| (o, r)))
    }

    /// Items both raters rated, with both ratings.
    pub fn shared_items(&self, a: SourceId, b: SourceId) -> Vec<(ObjectId, u8, u8)> {
        let mut out: Vec<_> = self
            .ratings_of(a)
            .filter_map(|(o, ra)| self.rating(b, o).map(|rb| (o, ra, rb)))
            .collect();
        out.sort_by_key(|&(o, _, _)| o);
        out
    }

    /// The rater's global rating distribution, add-one smoothed.
    pub fn marginal(&self, rater: SourceId) -> Vec<f64> {
        let levels = self.scale_max as usize + 1;
        let mut counts = vec![1.0f64; levels];
        let mut total = levels as f64;
        for (_, r) in self.ratings_of(rater) {
            counts[r as usize] += 1.0;
            total += 1.0;
        }
        counts.iter().map(|c| c / total).collect()
    }
}

/// How strongly a rater tracks the per-item consensus: the smoothed fraction
/// of its ratings that equal the mode of the *other* raters on the item.
///
/// This is the calibration the correlated-information correction needs: the
/// independence null predicts each rater by its **own** consensus affinity,
/// so two raters who both track popular opinion agree exactly as often as
/// the null expects, and only *co-deviation* from consensus is left as
/// dependence evidence.
pub fn consensus_affinity(view: &RatingView, rater: SourceId) -> f64 {
    let mut matches = 0usize;
    let mut total = 0usize;
    for (item, r) in view.ratings_of(rater) {
        let Some(mode) = item_mode(view, item, &[rater]) else {
            continue;
        };
        total += 1;
        if r == mode {
            matches += 1;
        }
    }
    (matches as f64 + 1.0) / (total as f64 + 2.0)
}

/// The most common rating on `item` among raters not in `exclude`
/// (ties break toward the lowest level). `None` when nobody else rated it.
fn item_mode(view: &RatingView, item: ObjectId, exclude: &[SourceId]) -> Option<u8> {
    let levels = view.scale_max() as usize + 1;
    let mut counts = vec![0usize; levels];
    let mut any = false;
    for &(s, r) in view.ratings_on(item) {
        if exclude.contains(&s) {
            continue;
        }
        counts[r as usize] += 1;
        any = true;
    }
    any.then(|| {
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(lvl, &c)| (c, std::cmp::Reverse(lvl)))
            .map(|(lvl, _)| lvl as u8)
            .unwrap()
    })
}

/// Predictive distribution for one rater's rating of one item under
/// independence.
///
/// With residualisation: probability `affinity` on the item's consensus
/// mode (computed excluding the tested pair), and the remaining mass spread
/// over the other levels following the smoothed reference counts. Without:
/// the rater's global marginal.
fn predictive(
    view: &RatingView,
    item: ObjectId,
    rater: SourceId,
    exclude: (SourceId, SourceId),
    marginal: &[f64],
    affinity: f64,
    params: &DissimParams,
) -> Vec<f64> {
    let levels = view.scale_max() as usize + 1;
    if !params.residualize {
        return marginal.to_vec();
    }
    let mut counts = vec![0.0f64; levels];
    for &(s, r) in view.ratings_on(item) {
        if s == exclude.0 || s == exclude.1 || s == rater {
            continue;
        }
        counts[r as usize] += 1.0;
    }
    let Some(mode) = item_mode(view, item, &[exclude.0, exclude.1, rater]) else {
        return marginal.to_vec();
    };
    let lambda = params.smoothing;
    let off_total: f64 = (0..levels)
        .filter(|&r| r != mode as usize)
        .map(|r| counts[r] + lambda * marginal[r])
        .sum();
    (0..levels)
        .map(|r| {
            if r == mode as usize {
                affinity
            } else {
                (1.0 - affinity) * (counts[r] + lambda * marginal[r]) / off_total.max(1e-12)
            }
        })
        .collect()
}

/// Tests one rater pair. Returns `None` below the overlap threshold.
pub fn detect_pair(
    view: &RatingView,
    a: SourceId,
    b: SourceId,
    params: &DissimParams,
) -> Option<PairDependence> {
    let shared = view.shared_items(a, b);
    if shared.len() < params.min_overlap.max(1) {
        return None;
    }
    let c = params.dependence_rate;
    let top = view.scale_max();
    let marg_a = view.marginal(a);
    let marg_b = view.marginal(b);
    let aff_a = consensus_affinity(view, a);
    let aff_b = consensus_affinity(view, b);

    // Log-likelihoods: [indep, sim a←b, sim b←a, dissim a←b, dissim b←a]
    // where "a←b" means a is the dependent side (reacts to b).
    let mut logs = [0.0f64; 5];
    for &(item, ra, rb) in &shared {
        let pa = predictive(view, item, a, (a, b), &marg_a, aff_a, params);
        let pb = predictive(view, item, b, (a, b), &marg_b, aff_b, params);
        let pa_ra = pa[ra as usize].max(1e-9);
        let pb_rb = pb[rb as usize].max(1e-9);

        logs[0] += pa_ra.ln() + pb_rb.ln();
        let mimic = |hit: bool, base: f64| {
            (if hit {
                c + (1.0 - c) * base
            } else {
                (1.0 - c) * base
            })
            .max(1e-12)
        };
        // sim: dependent repeats the other's rating.
        logs[1] += pb_rb.ln() + mimic(ra == rb, pa_ra).ln();
        logs[2] += pa_ra.ln() + mimic(rb == ra, pb_rb).ln();
        // dissim: dependent inverts the other's rating on the scale.
        logs[3] += pb_rb.ln() + mimic(ra == top - rb, pa_ra).ln();
        logs[4] += pa_ra.ln() + mimic(rb == top - ra, pb_rb).ln();
    }

    let prior_dep = params.prior_dependence;
    let log_prior = [
        (1.0 - prior_dep).max(1e-12).ln(),
        (prior_dep / 4.0).max(1e-12).ln(),
        (prior_dep / 4.0).max(1e-12).ln(),
        (prior_dep / 4.0).max(1e-12).ln(),
        (prior_dep / 4.0).max(1e-12).ln(),
    ];
    let joint: Vec<f64> = logs.iter().zip(log_prior).map(|(l, p)| l + p).collect();
    let m = joint.iter().fold(f64::NEG_INFINITY, |x, &y| x.max(y));
    let exps: Vec<f64> = joint.iter().map(|&l| (l - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    let post: Vec<f64> = exps.iter().map(|e| e / z).collect();

    let p_sim = post[1] + post[2];
    let p_dissim = post[3] + post[4];
    let probability = p_sim + p_dissim;
    let kind = if p_dissim >= p_sim {
        DependenceKind::Dissimilarity
    } else {
        DependenceKind::Similarity
    };
    // Probability a is the dependent side, given dependence.
    let p_a_dep = post[1] + post[3];
    let prob_a_on_b = if probability > 0.0 {
        p_a_dep / probability
    } else {
        0.5
    };
    let direction = if probability < 0.5 || (prob_a_on_b - 0.5).abs() < 0.1 {
        Direction::Unknown
    } else if prob_a_on_b > 0.5 {
        Direction::AOnB
    } else {
        Direction::BOnA
    };
    Some(
        PairDependence {
            a,
            b,
            probability,
            prob_a_on_b,
            kind,
            direction,
            overlap: shared.len(),
            diagnostic: logs[1].max(logs[2]).max(logs[3]).max(logs[4]) - logs[0],
        }
        .canonical(),
    )
}

/// Tests every rater pair with sufficient overlap, sorted by source ids.
pub fn detect_all(view: &RatingView, params: &DissimParams) -> Vec<PairDependence> {
    let n = view.num_sources();
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(dep) = detect_pair(
                view,
                SourceId::from_index(i),
                SourceId::from_index(j),
                params,
            ) {
                out.push(dep);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;

    fn table2_view() -> (sailing_model::ClaimStore, RatingView) {
        let store = fixtures::table2();
        let view = RatingView::from_store(&store, 2);
        (store, view)
    }

    #[test]
    fn rating_view_extraction() {
        let (store, view) = table2_view();
        assert_eq!(view.num_sources(), 4);
        assert_eq!(view.num_objects(), 3);
        assert_eq!(view.scale_max(), 2);
        let r1 = store.source_id("R1").unwrap();
        let pianist = store.object_id("The Pianist").unwrap();
        assert_eq!(view.rating(r1, pianist), Some(2));
        assert_eq!(view.ratings_on(pianist).len(), 4);
        assert_eq!(
            view.shared_items(r1, store.source_id("R4").unwrap()).len(),
            3
        );
        let pianist_sum: u32 = view
            .ratings_on(pianist)
            .iter()
            .map(|&(_, r)| r as u32)
            .sum();
        assert_eq!(pianist_sum, 3, "mean rating 0.75 over four raters");
    }

    #[test]
    fn marginal_is_distribution() {
        let (store, view) = table2_view();
        let m = view.marginal(store.source_id("R1").unwrap());
        assert_eq!(m.len(), 3);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table2_r1_r4_is_top_dissimilarity_pair() {
        // Example 2.2: R4 inverts R1. With only three movies the posterior is
        // necessarily soft, but R1–R4 must be the highest-scoring
        // dissimilarity pair and be classified as Dissimilarity.
        let (store, view) = table2_view();
        let params = DissimParams {
            min_overlap: 3,
            ..Default::default()
        };
        let deps = detect_all(&view, &params);
        let r1 = store.source_id("R1").unwrap();
        let r4 = store.source_id("R4").unwrap();
        let pair = deps.iter().find(|p| p.a == r1 && p.b == r4).unwrap();
        assert_eq!(pair.kind, DependenceKind::Dissimilarity);
        let top_dissim = deps
            .iter()
            .filter(|p| p.kind == DependenceKind::Dissimilarity)
            .max_by(|x, y| x.probability.partial_cmp(&y.probability).unwrap())
            .unwrap();
        assert_eq!((top_dissim.a, top_dissim.b), (r1, r4));
    }

    #[test]
    fn perfect_inverter_at_scale_is_certain() {
        // 40 items: b always rates top - a's rating; 4 independent raters.
        let mut triples = Vec::new();
        let n_items = 40;
        for i in 0..n_items {
            let o = ObjectId(i);
            let ra = (i % 3) as u8;
            triples.push((SourceId(0), o, ra));
            triples.push((SourceId(1), o, 2 - ra));
            triples.push((SourceId(2), o, ((i / 3) % 3) as u8));
            triples.push((SourceId(3), o, ((i / 2) % 3) as u8));
        }
        let view = RatingView::from_triples(4, n_items as usize, 2, triples);
        let dep = detect_pair(&view, SourceId(0), SourceId(1), &DissimParams::default()).unwrap();
        assert!(dep.probability > 0.99, "{dep:?}");
        assert_eq!(dep.kind, DependenceKind::Dissimilarity);
    }

    #[test]
    fn perfect_copier_detected_as_similarity() {
        let mut triples = Vec::new();
        for i in 0..40u32 {
            let o = ObjectId(i);
            let ra = (i % 3) as u8;
            triples.push((SourceId(0), o, ra));
            triples.push((SourceId(1), o, ra));
            triples.push((SourceId(2), o, ((7 * i + 1) % 3) as u8));
            triples.push((SourceId(3), o, ((5 * i + 2) % 3) as u8));
        }
        let view = RatingView::from_triples(4, 40, 2, triples);
        let dep = detect_pair(&view, SourceId(0), SourceId(1), &DissimParams::default()).unwrap();
        assert!(dep.probability > 0.99);
        assert_eq!(dep.kind, DependenceKind::Similarity);
    }

    /// Deterministic xorshift for reproducible pseudo-random test ratings.
    fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn residualization_suppresses_consensus_false_positives() {
        // Every rater mostly follows the item's intrinsic popularity: raters
        // agree massively, but only because the items are polarising ("Star
        // Wars fans"). With residualisation the pair must not be flagged;
        // without it, it is.
        let mut triples = Vec::new();
        let n_items = 60u32;
        for s in 0..6u32 {
            let mut rng = rng_stream(s as u64 + 1);
            for i in 0..n_items {
                let popular = (i % 2) as u8 * 2; // items alternate Bad/Good
                let r = if rng() % 10 < 8 {
                    popular
                } else {
                    (rng() % 3) as u8
                };
                triples.push((SourceId(s), ObjectId(i), r));
            }
        }
        let view = RatingView::from_triples(6, n_items as usize, 2, triples);
        let with = detect_pair(&view, SourceId(0), SourceId(1), &DissimParams::default()).unwrap();
        let without = detect_pair(
            &view,
            SourceId(0),
            SourceId(1),
            &DissimParams {
                residualize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            with.probability < 0.5,
            "residualised detector must tolerate consensus agreement: {}",
            with.probability
        );
        assert!(
            without.probability > 0.9,
            "unresidualised detector should be fooled: {}",
            without.probability
        );
    }

    #[test]
    fn independent_raters_not_flagged() {
        let mut triples = Vec::new();
        for s in 0..3u32 {
            let mut rng = rng_stream(s as u64 + 77);
            for i in 0..60u32 {
                triples.push((SourceId(s), ObjectId(i), (rng() % 3) as u8));
            }
        }
        let view = RatingView::from_triples(3, 60, 2, triples);
        let dep = detect_pair(&view, SourceId(0), SourceId(1), &DissimParams::default()).unwrap();
        assert!(dep.probability < 0.5, "{dep:?}");
    }

    #[test]
    fn min_overlap_gate() {
        let (_, view) = table2_view();
        let params = DissimParams {
            min_overlap: 4,
            ..Default::default()
        };
        assert!(detect_pair(&view, SourceId(0), SourceId(3), &params).is_none());
    }

    #[test]
    fn params_validate() {
        assert!(DissimParams::default().validate().is_ok());
        assert!(DissimParams {
            prior_dependence: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DissimParams {
            dependence_rate: 1.2,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DissimParams {
            smoothing: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn detect_all_covers_all_pairs() {
        let (_, view) = table2_view();
        let deps = detect_all(&view, &DissimParams::default());
        assert_eq!(deps.len(), 6); // C(4,2)
        assert!(deps.iter().all(|p| p.a < p.b));
        assert!(deps.iter().all(|p| (0.0..=1.0).contains(&p.probability)));
    }
}
