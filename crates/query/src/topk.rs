//! Top-k answering with early termination.
//!
//! For queries like the paper's Query 4 ("who is the most productive
//! publisher in the Database field?") the caller wants the k best-supported
//! answers, not every answer. Probing sources is the expensive operation, so
//! the session stops as soon as the unprobed sources can no longer change
//! the top k: each answer's support has a *lower bound* (votes already seen)
//! and an *upper bound* (plus everything still unseen).

use serde::{Deserialize, Serialize};

#[cfg(test)]
use sailing_model::SourceId;
use sailing_model::{ObjectId, SnapshotView, ValueId};

use crate::ordering::VisitOrder;

#[cfg(test)]
mod reference;

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

impl TopKResult {
    /// The answer to a query that asks for nothing: no values, no probes.
    fn empty() -> Self {
        Self {
            top: Vec::new(),
            probed: 0,
            early_stopped: false,
        }
    }
}

/// One source covering the queried object, in visit order.
struct Probe {
    /// The source's position in the full visit order.
    position: usize,
    value: ValueId,
    /// The source's weight, clamped at zero.
    weight: f64,
    /// The support every later covering source could still add.
    remaining: f64,
}

/// Weighted top-k over one object's values in a snapshot: sources are
/// probed in `order`, each contributing `weights[source]` (e.g. accuracy ×
/// independence, clamped at zero; a source past the end of `weights`
/// weighs zero) to the value it asserts. The run stops when the k-th
/// answer's lower bound (support seen) beats every other answer's upper
/// bound (plus all support still unseen). The bound is exact: only sources
/// that cover the object count toward a challenger's potential, which is
/// much tighter than a per-source maximum when most sources do not cover
/// the object.
///
/// Only the sources covering the object are walked, sorted by their
/// [`VisitOrder::rank`]; `probed` still counts positions of the full order,
/// the sources in between adding nothing. Cost: O(c log c + c·d) for the c
/// sources covering the object and the d ≤ c distinct values they assert,
/// so O(c log c + k) for the usual handful of values, however many sources
/// the order holds; build the [`VisitOrder`] once per analysis, not per
/// query. `k == 0` asks for nothing and gets no values and no probes.
pub fn top_k_values_for_object(
    snapshot: &SnapshotView,
    object: ObjectId,
    order: &VisitOrder,
    weights: &[f64],
    k: usize,
) -> TopKResult {
    if k == 0 || order.sources().is_empty() {
        return TopKResult::empty();
    }
    let mut probes: Vec<Probe> = snapshot
        .assertions_on(object)
        .iter()
        .filter_map(|&(s, value)| {
            let position = order.rank(s)?;
            let weight = weights.get(s.index()).copied().unwrap_or(0.0).max(0.0);
            Some(Probe {
                position,
                value,
                weight,
                remaining: 0.0,
            })
        })
        .collect();
    probes.sort_unstable_by_key(|p| p.position);
    // Suffix sums over the covering sources. Every source left out adds
    // exactly +0.0 to a non-negative sum, so these are the full order's
    // suffix sums bit for bit.
    let mut total = 0.0;
    for probe in probes.iter_mut().rev() {
        probe.remaining = total;
        total += probe.weight;
    }
    // With no support anywhere the scan stops after position 0. When that
    // source covers the object, the loop below probes it and stops there.
    if total <= 0.0 && probes.first().is_none_or(|p| p.position > 0) {
        return TopKResult {
            probed: 1,
            ..TopKResult::empty()
        };
    }

    // The running support, kept in answer order: descending support, ties
    // by ascending value. Support only grows, so after each probe the one
    // entry it changed moves towards the front.
    let mut ranked: Vec<(ValueId, f64)> = Vec::new();
    let mut probed = 0;
    for probe in &probes {
        let mut i = match ranked.iter().position(|&(v, _)| v == probe.value) {
            Some(i) => i,
            None => {
                ranked.push((probe.value, 0.0));
                ranked.len() - 1
            }
        };
        ranked[i].1 += probe.weight;
        while i > 0 && answer_order(&ranked[i], &ranked[i - 1]).is_lt() {
            ranked.swap(i, i - 1);
            i -= 1;
        }
        probed = probe.position + 1;
        let remaining = probe.remaining;
        if remaining <= 0.0 {
            break;
        }
        if ranked.len() >= k {
            let kth_lower = ranked[k - 1].1;
            let challenger_upper = ranked
                .get(k)
                .map(|&(_, s)| s + remaining)
                .unwrap_or(remaining);
            if kth_lower > challenger_upper {
                ranked.truncate(k);
                return TopKResult {
                    top: ranked,
                    probed,
                    early_stopped: true,
                };
            }
        }
    }
    ranked.truncate(k);
    TopKResult {
        top: ranked,
        probed,
        early_stopped: false,
    }
}

/// The answer order: higher support first, ties by ascending value.
fn answer_order(a: &(ValueId, f64), b: &(ValueId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sailing_model::fixtures;

    fn identity(n: usize) -> VisitOrder {
        VisitOrder::new((0..n).map(SourceId::from_index).collect())
    }

    /// One object (id 0) that source `s` answers with `value_of(s)`.
    fn one_object(n: usize, value_of: impl Fn(u32) -> u32) -> SnapshotView {
        let triples = (0..n as u32).map(|s| (SourceId(s), ObjectId(0), ValueId(value_of(s))));
        SnapshotView::from_triples(n, 1, triples)
    }

    /// Every field, supports by their bits.
    fn bits(result: &TopKResult) -> (Vec<(ValueId, u64)>, usize, bool) {
        let top = result.top.iter().map(|&(v, s)| (v, s.to_bits())).collect();
        (top, result.probed, result.early_stopped)
    }

    #[test]
    fn finds_the_majority_value() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let weights = vec![1.0; 5];
        let halevy = store.object_id("Halevy").unwrap();
        let result = top_k_values_for_object(&snap, halevy, &identity(5), &weights, 1);
        let uw = store.value_id(&sailing_model::Value::text("UW")).unwrap();
        assert_eq!(result.top[0].0, uw);
        assert_eq!(result.top.len(), 1);
    }

    #[test]
    fn early_stop_triggers_when_margin_is_unbeatable() {
        // 10 sources, the first 6 all assert value 1 with weight 1; the rest
        // could contribute at most 1 each — after 6 probes value 1 leads by
        // 6 with 4 remaining, and any challenger can reach at most 4.
        let snap = one_object(10, |s| if s < 6 { 1 } else { s + 10 });
        let result = top_k_values_for_object(&snap, ObjectId(0), &identity(10), &[1.0; 10], 1);
        assert!(result.early_stopped, "{result:?}");
        assert!(result.probed < 10);
        assert_eq!(result.top[0].0, ValueId(1));
    }

    #[test]
    fn no_early_stop_on_tight_race() {
        let snap = one_object(4, |s| s % 2);
        let result = top_k_values_for_object(&snap, ObjectId(0), &identity(4), &[1.0; 4], 1);
        assert!(!result.early_stopped);
        assert_eq!(result.probed, 4);
    }

    #[test]
    fn k_larger_than_answers() {
        let snap = one_object(2, |_| 0);
        let result = top_k_values_for_object(&snap, ObjectId(0), &identity(2), &[1.0; 2], 5);
        assert_eq!(result.top.len(), 1);
        assert!(!result.early_stopped);
    }

    #[test]
    fn weighted_sources_change_the_winner() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        // Weight the accurate independents heavily, the copier cluster at
        // nearly zero — the paper's dependence-aware query answering.
        let weights = vec![3.0, 2.0, 0.1, 0.1, 0.1];
        let halevy = store.object_id("Halevy").unwrap();
        let result = top_k_values_for_object(&snap, halevy, &identity(5), &weights, 1);
        let google = store
            .value_id(&sailing_model::Value::text("Google"))
            .unwrap();
        assert_eq!(result.top[0].0, google);
    }

    #[test]
    fn object_without_values() {
        let snap = SnapshotView::from_triples(2, 1, Vec::new());
        let result = top_k_values_for_object(&snap, ObjectId(0), &identity(2), &[1.0, 1.0], 1);
        assert!(result.top.is_empty());
    }

    #[test]
    fn zero_k_returns_an_empty_answer() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let halevy = store.object_id("Halevy").unwrap();
        let result = top_k_values_for_object(&snap, halevy, &identity(5), &[1.0; 5], 0);
        assert_eq!(result, TopKResult::empty());
        assert_eq!((result.probed, result.early_stopped), (0, false));
    }

    #[test]
    fn probed_counts_full_order_positions() {
        // Only source 3 (at position 1) and source 0 (at position 3) cover
        // the object; the scan ends on the last covering source.
        let snap = SnapshotView::from_triples(
            4,
            1,
            [
                (SourceId(0), ObjectId(0), ValueId(2)),
                (SourceId(3), ObjectId(0), ValueId(2)),
            ],
        );
        let order = VisitOrder::new([1, 3, 2, 0].map(SourceId).to_vec());
        let result = top_k_values_for_object(&snap, ObjectId(0), &order, &[1.0; 4], 1);
        assert_eq!(result.probed, 4);
        assert_eq!(result.top, vec![(ValueId(2), 2.0)]);
        // No covering source weighs anything: the scan stops after the
        // first position, which does not cover the object.
        let result = top_k_values_for_object(&snap, ObjectId(0), &order, &[0.0, 1.0, 1.0, -1.0], 1);
        assert_eq!(bits(&result), (Vec::new(), 1, false));
    }

    /// One weight from a palette with every edge the clamp and the sort
    /// must survive, and small integers so supports tie.
    fn weight(rng: &mut ChaCha8Rng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            2 => [f64::NAN, -f64::NAN][rng.gen_range(0..2)],
            3 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2)],
            4 => -rng.gen::<f64>(),
            5 | 6 => rng.gen_range(1..3) as f64,
            _ => rng.gen::<f64>(),
        }
    }

    #[test]
    fn topk_parity_random_cases_match_the_full_order_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x70b_4a11);
        let (mut queries, mut early, mut stopped_at_zero) = (0usize, 0usize, 0usize);
        for case in 0..3_000 {
            let (sources, objects) = (rng.gen_range(0..12), rng.gen_range(0..5));
            let density = rng.gen::<f64>();
            let values = rng.gen_range(1..5u32);
            let mut triples = Vec::new();
            for s in 0..sources as u32 {
                for o in 0..objects as u32 {
                    if rng.gen_bool(density) {
                        triples.push((SourceId(s), ObjectId(o), ValueId(rng.gen_range(0..values))));
                    }
                }
            }
            let snap = SnapshotView::from_triples(sources, objects, triples);
            // Weights may stop short of the sources; the order may leave
            // sources out or name sources the snapshot does not have.
            let weights: Vec<f64> = (0..rng.gen_range(0..sources + 2))
                .map(|_| weight(&mut rng))
                .collect();
            let mut order: Vec<SourceId> = (0..sources + rng.gen_range(0..3))
                .map(SourceId::from_index)
                .collect();
            order.shuffle(&mut rng);
            order.truncate(order.len() - rng.gen_range(0..=order.len().min(2)));
            let visit = VisitOrder::new(order.clone());
            for object in (0..objects + 2).map(ObjectId::from_index) {
                for k in 1..=snap.support(object) + 3 {
                    let fast = top_k_values_for_object(&snap, object, &visit, &weights, k);
                    let slow =
                        reference::top_k_values_for_object(&snap, object, &order, &weights, k);
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "case {case}: object {object:?}, k {k}, order {order:?}, weights {weights:?}"
                    );
                    queries += 1;
                    early += usize::from(fast.early_stopped);
                    stopped_at_zero += usize::from(fast.probed == 1 && fast.top.is_empty());
                }
            }
        }
        eprintln!("{queries} {early} {stopped_at_zero}");
        assert!(queries > 40_000, "{queries} queries");
        assert!(early > 500, "{early} early stops");
        assert!(
            stopped_at_zero > 5_000,
            "{stopped_at_zero} stops at position 0"
        );
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn a_visit_order_names_each_source_once() {
        VisitOrder::new(vec![SourceId(1), SourceId(0), SourceId(1)]);
    }
}
