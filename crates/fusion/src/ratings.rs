//! Dependence-aware opinion aggregation.
//!
//! Example 2.2: "a naive aggregation of ratings from reviewers R1–R4 would
//! significantly differ from the aggregation without considering R4".
//! [`aggregate_ratings`] detects dependent raters and discounts their
//! ratings, recovering the unbiased consensus; the naive mean is reported
//! alongside for comparison.

use serde::{Deserialize, Serialize};

use sailing_core::dissim::{detect_all, DissimParams, RatingView};
use sailing_core::report::PairDependence;
use sailing_model::ObjectId;

/// Aggregated ratings with and without dependence awareness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatingAggregate {
    /// Per-item naive mean rating.
    pub naive_mean: Vec<Option<f64>>,
    /// Per-item dependence-aware mean (dependent raters down-weighted).
    pub aware_mean: Vec<Option<f64>>,
    /// Per-rater weight used by the aware mean (1.0 = fully independent).
    pub rater_weights: Vec<f64>,
    /// The dependences the weights are based on.
    pub dependences: Vec<PairDependence>,
}

impl RatingAggregate {
    /// Mean squared error of an aggregate against a reference consensus.
    pub fn mse_against(values: &[Option<f64>], reference: &[Option<f64>]) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for (v, r) in values.iter().zip(reference) {
            if let (Some(v), Some(r)) = (v, r) {
                total += (v - r).powi(2);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Aggregates ratings, discounting raters detected as dependent.
///
/// A rater's weight is `Π (1 − P(dep with r'))` over all *other* raters it
/// was flagged against — a pure copier or inverter ends up near zero, a
/// clean rater at 1.
pub fn aggregate_ratings(view: &RatingView, params: &DissimParams) -> RatingAggregate {
    let dependences = detect_all(view, params);
    let n = view.num_sources();
    let mut rater_weights = vec![1.0f64; n];
    for dep in &dependences {
        if dep.probability < 0.5 {
            continue;
        }
        // The *dependent* side carries the discount; when the direction is
        // unresolved both sides share it.
        let (wa, wb) = match dep.dependent_source() {
            Some(s) if s == dep.a => (dep.probability, 0.0),
            Some(_) => (0.0, dep.probability),
            None => (dep.probability / 2.0, dep.probability / 2.0),
        };
        rater_weights[dep.a.index()] *= 1.0 - wa;
        rater_weights[dep.b.index()] *= 1.0 - wb;
    }

    let mut naive_mean = Vec::with_capacity(view.num_objects());
    let mut aware_mean = Vec::with_capacity(view.num_objects());
    for idx in 0..view.num_objects() {
        let item = ObjectId::from_index(idx);
        let ratings = view.ratings_on(item);
        if ratings.is_empty() {
            naive_mean.push(None);
            aware_mean.push(None);
            continue;
        }
        let naive = ratings.iter().map(|&(_, r)| r as f64).sum::<f64>() / ratings.len() as f64;
        naive_mean.push(Some(naive));
        let wsum: f64 = ratings.iter().map(|&(s, _)| rater_weights[s.index()]).sum();
        if wsum < 1e-9 {
            aware_mean.push(Some(naive));
        } else {
            let weighted: f64 = ratings
                .iter()
                .map(|&(s, r)| rater_weights[s.index()] * r as f64)
                .sum();
            aware_mean.push(Some(weighted / wsum));
        }
    }

    RatingAggregate {
        naive_mean,
        aware_mean,
        rater_weights,
        dependences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_datagen::ratings::{inverter_world, RatingWorld};
    use sailing_model::fixtures;

    #[test]
    fn table2_shift_is_visible() {
        // Example 2.2: the naive aggregate differs from the aggregate
        // without R4; the aware aggregate must move toward the latter.
        let store = fixtures::table2();
        let view = RatingView::from_store(&store, 2);
        let agg = aggregate_ratings(&view, &DissimParams::default());
        assert_eq!(agg.naive_mean.len(), 3);
        assert!(agg.naive_mean.iter().all(Option::is_some));
        // With only three movies the (R1, R4) dissimilarity is detectable
        // but its *direction* is not — the paper resolves it from external
        // knowledge of R4's motives. What must hold: the discount lands on
        // the R1/R4 pair, never on the independent reviewers R2 and R3.
        let r2 = store.source_id("R2").unwrap();
        let r3 = store.source_id("R3").unwrap();
        assert_eq!(agg.rater_weights[r2.index()], 1.0);
        assert_eq!(agg.rater_weights[r3.index()], 1.0);
        let r1 = store.source_id("R1").unwrap();
        let r4 = store.source_id("R4").unwrap();
        assert!(
            agg.rater_weights[r1.index()] < 1.0 || agg.rater_weights[r4.index()] < 1.0,
            "the flagged pair must lose weight: {:?}",
            agg.rater_weights
        );
        // And the aggregate visibly shifts (Example 2.2's point).
        assert!(RatingAggregate::mse_against(&agg.naive_mean, &agg.aware_mean) > 0.0);
    }

    #[test]
    fn inverter_at_scale_is_discounted_and_consensus_recovered() {
        let config = inverter_world(300, 8, 2, 77);
        let world = RatingWorld::generate(&config);
        let agg = aggregate_ratings(&world.view, &DissimParams::default());
        // The two inverters (raters 9 and 10) must lose nearly all weight.
        for inverter in [9usize, 10] {
            assert!(
                agg.rater_weights[inverter] < 0.3,
                "inverter weight {}",
                agg.rater_weights[inverter]
            );
        }
        // Honest followers keep most of theirs.
        for follower in 0..8 {
            assert!(
                agg.rater_weights[follower] > 0.6,
                "follower {follower} weight {}",
                agg.rater_weights[follower]
            );
        }
        // The aware mean must track the unbiased consensus better than the
        // naive mean does.
        let unbiased = world.unbiased_consensus();
        let naive_mse = RatingAggregate::mse_against(&agg.naive_mean, &unbiased);
        let aware_mse = RatingAggregate::mse_against(&agg.aware_mean, &unbiased);
        assert!(
            aware_mse < naive_mse,
            "aware {aware_mse} must beat naive {naive_mse}"
        );
    }

    #[test]
    fn mean_shift_zero_without_dependents() {
        let config = inverter_world(100, 5, 0, 3);
        let world = RatingWorld::generate(&config);
        let agg = aggregate_ratings(&world.view, &DissimParams::default());
        let shift = RatingAggregate::mse_against(&agg.naive_mean, &agg.aware_mean);
        assert!(shift < 0.01, "squared shift {shift}");
    }

    #[test]
    fn discounted_raters_listing() {
        let config = inverter_world(300, 8, 1, 5);
        let world = RatingWorld::generate(&config);
        let agg = aggregate_ratings(&world.view, &DissimParams::default());
        // The inverter (rater 9) falls below 0.3; a follower does not.
        assert!(agg.rater_weights[9] < 0.3);
        assert!(agg.rater_weights[0] >= 0.3);
        assert!(agg.aware_mean[0].is_some());
    }

    #[test]
    fn empty_view() {
        let view = RatingView::from_triples(0, 0, 2, Vec::new());
        let agg = aggregate_ratings(&view, &DissimParams::default());
        assert!(agg.naive_mean.is_empty());
        assert!(agg.aware_mean.is_empty());
    }
}
