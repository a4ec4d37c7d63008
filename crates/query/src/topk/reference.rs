//! The full-order scan that [`super::top_k_values_for_object`] replaced,
//! kept only as a test oracle: it walks every source of the visit order,
//! binary-searches each one's assertions for the object, precomputes the
//! remaining support at every position, and re-sorts the running support
//! after every probe. The covering-sources walk must agree with it bit for
//! bit on every [`TopKResult`] field.
//!
//! The file is compiled into the tests of `sailing-query` and, through
//! `#[path]`, into the workspace's engine-level parity test and the E12
//! serving bench, whose top-k yardstick is this O(sources) scan. It names
//! its types through `super`, so the including module must have
//! `ObjectId`, `SnapshotView`, `SourceId`, `TopKResult` and `ValueId` in
//! scope.

use std::collections::HashMap;

use super::{ObjectId, SnapshotView, SourceId, TopKResult, ValueId};

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
    object: ObjectId,
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
