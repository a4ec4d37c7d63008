//! Top-k answering with early termination.
//!
//! For queries like the paper's Query 4 ("who is the most productive
//! publisher in the Database field?") the caller wants the k best-supported
//! answers, not every answer. Probing sources is the expensive operation, so
//! the session stops as soon as the unprobed sources can no longer change
//! the top k: each answer's support has a *lower bound* (votes already seen)
//! and an *upper bound* (plus everything still unseen).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sailing_model::{SnapshotView, SourceId, ValueId};

/// Outcome of a top-k run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKResult {
    /// The top-k values with their final (weighted) support, descending.
    pub top: Vec<(ValueId, f64)>,
    /// How many sources were probed before the result stabilised.
    pub probed: usize,
    /// Whether the run stopped early (before probing everything).
    pub early_stopped: bool,
}

/// Runs a weighted top-k count over one *categorical* question: each source
/// contributes `weight(source)` support to the value it asserts for the
/// designated object(s).
///
/// `support_of` maps a source to `(value, weight)` pairs — typically the
/// values the source asserts for the query's object(s), weighted by accuracy
/// and independence. Sources are probed in `order`; `remaining_after[i]` is
/// the total support the sources after position `i` could still contribute.
/// The run stops when the k-th answer's lower bound beats every other
/// answer's upper bound. An exact bound is much tighter than a per-source
/// maximum when support is skewed (most sources do not cover a given object
/// at all).
pub fn top_k_with_exact_bound<F>(
    order: &[SourceId],
    k: usize,
    remaining_after: &[f64],
    mut support_of: F,
) -> TopKResult
where
    F: FnMut(SourceId) -> Vec<(ValueId, f64)>,
{
    assert!(k > 0, "k must be positive");
    assert_eq!(order.len(), remaining_after.len());
    let mut support: HashMap<ValueId, f64> = HashMap::new();
    let mut probed = 0usize;

    for (i, &source) in order.iter().enumerate() {
        for (value, weight) in support_of(source) {
            *support.entry(value).or_insert(0.0) += weight.max(0.0);
        }
        probed = i + 1;
        let remaining = remaining_after[i];
        if remaining <= 0.0 {
            break;
        }
        let mut ranked: Vec<(ValueId, f64)> = support.iter().map(|(&v, &s)| (v, s)).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if ranked.len() >= k {
            let kth_lower = ranked[k - 1].1;
            let challenger_upper = ranked
                .get(k)
                .map(|&(_, s)| s + remaining)
                .unwrap_or(remaining);
            if kth_lower > challenger_upper {
                let mut top = ranked;
                top.truncate(k);
                return TopKResult {
                    top,
                    probed,
                    early_stopped: true,
                };
            }
        }
    }

    let mut ranked: Vec<(ValueId, f64)> = support.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    TopKResult {
        top: ranked,
        probed,
        early_stopped: false,
    }
}

/// Convenience: top-k over one object's values in a snapshot, each source
/// contributing `weights[source]` (e.g. accuracy × independence). Uses the
/// exact remaining-support bound: only sources that actually cover the
/// object count toward the challenger's potential.
pub fn top_k_values_for_object(
    snapshot: &SnapshotView,
    object: sailing_model::ObjectId,
    order: &[SourceId],
    weights: &[f64],
    k: usize,
) -> TopKResult {
    let contribution = |s: SourceId| -> f64 {
        if snapshot.value(s, object).is_some() {
            weights.get(s.index()).copied().unwrap_or(0.0).max(0.0)
        } else {
            0.0
        }
    };
    // Suffix sums of the real contributions.
    let mut remaining_after = vec![0.0f64; order.len()];
    let mut acc = 0.0;
    for i in (0..order.len()).rev() {
        remaining_after[i] = acc;
        acc += contribution(order[i]);
    }
    top_k_with_exact_bound(order, k, &remaining_after, |s| {
        snapshot
            .value(s, object)
            .map(|v| vec![(v, weights.get(s.index()).copied().unwrap_or(0.0))])
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;
    use sailing_model::ObjectId;

    /// `remaining_after` for sources of equal weight `w`: the suffix sums.
    fn suffix_sums(n: usize, w: f64) -> Vec<f64> {
        (0..n).map(|i| (n - 1 - i) as f64 * w).collect()
    }

    #[test]
    fn finds_the_majority_value() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let order: Vec<SourceId> = (0..5).map(SourceId::from_index).collect();
        let weights = vec![1.0; 5];
        let halevy = store.object_id("Halevy").unwrap();
        let result = top_k_values_for_object(&snap, halevy, &order, &weights, 1);
        let uw = store.value_id(&sailing_model::Value::text("UW")).unwrap();
        assert_eq!(result.top[0].0, uw);
        assert_eq!(result.top.len(), 1);
    }

    #[test]
    fn early_stop_triggers_when_margin_is_unbeatable() {
        // 10 sources, the first 6 all assert value 1 with weight 1; the rest
        // could contribute at most 1 each — after 6 probes value 1 leads by
        // 6 with 4 remaining, and any challenger can reach at most 4.
        let order: Vec<SourceId> = (0..10).map(SourceId::from_index).collect();
        let result = top_k_with_exact_bound(&order, 1, &suffix_sums(10, 1.0), |s| {
            if s.index() < 6 {
                vec![(ValueId(1), 1.0)]
            } else {
                vec![(ValueId(s.0 + 10), 1.0)]
            }
        });
        assert!(result.early_stopped, "{result:?}");
        assert!(result.probed < 10);
        assert_eq!(result.top[0].0, ValueId(1));
    }

    #[test]
    fn no_early_stop_on_tight_race() {
        let order: Vec<SourceId> = (0..4).map(SourceId::from_index).collect();
        let result = top_k_with_exact_bound(&order, 1, &suffix_sums(4, 1.0), |s| {
            vec![(ValueId(s.0 % 2), 1.0)]
        });
        assert!(!result.early_stopped);
        assert_eq!(result.probed, 4);
    }

    #[test]
    fn k_larger_than_answers() {
        let order: Vec<SourceId> = (0..2).map(SourceId::from_index).collect();
        let result =
            top_k_with_exact_bound(&order, 5, &suffix_sums(2, 1.0), |_| vec![(ValueId(0), 1.0)]);
        assert_eq!(result.top.len(), 1);
        assert!(!result.early_stopped);
    }

    #[test]
    fn weighted_sources_change_the_winner() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let order: Vec<SourceId> = (0..5).map(SourceId::from_index).collect();
        // Weight the accurate independents heavily, the copier cluster at
        // nearly zero — the paper's dependence-aware query answering.
        let weights = vec![3.0, 2.0, 0.1, 0.1, 0.1];
        let halevy = store.object_id("Halevy").unwrap();
        let result = top_k_values_for_object(&snap, halevy, &order, &weights, 1);
        let google = store
            .value_id(&sailing_model::Value::text("Google"))
            .unwrap();
        assert_eq!(result.top[0].0, google);
    }

    #[test]
    fn object_without_values() {
        let snap = SnapshotView::from_triples(2, 1, Vec::new());
        let order: Vec<SourceId> = (0..2).map(SourceId::from_index).collect();
        let result = top_k_values_for_object(&snap, ObjectId(0), &order, &[1.0, 1.0], 1);
        assert!(result.top.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        top_k_with_exact_bound(&[], 0, &[], |_| Vec::new());
    }
}
