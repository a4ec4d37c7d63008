//! Temporal dependence: reasoning over update traces.
//!
//! The paper's temporal intuitions (Section 3.2):
//!
//! 1. shared *never-true* values are strong copying evidence, shared
//!    *outdated-true* values are weak (they were simply correct once);
//! 2. sources performing the *same rare updates in a close time frame* are
//!    likely dependent;
//! 3. accuracy asymmetry between what a source publishes *earlier* vs
//!    *later* than another source reveals the copying direction.
//!
//! Intuitions 1 and 2 are captured jointly by weighting each matched update
//! with its **rarity**: an update many sources eventually perform (an
//! outdated-true value) is common and carries little evidence, while an
//! update only the suspected pair performs (a shared false value, or an
//! idiosyncratic edit) is rare and carries a lot. Intuition 3 is exposed as
//! [`precedence_contrast`] and folded into the direction posterior. The lag
//! of matched updates is reported so *lazy copiers* (Example 3.2's `S3`)
//! are identified together with their copying delay.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sailing_model::{History, ObjectId, SourceId, TemporalTruth, ValueId};

use crate::params::TemporalParams;
use crate::report::{DependenceKind, Direction, PairDependence};

/// Per-pair temporal evidence, before the Bayesian combination.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TemporalEvidence {
    /// Updates of `b` that repeat an earlier (within-lag) update of `a`.
    pub matched_b_after_a: usize,
    /// Updates of `a` that repeat an earlier (within-lag) update of `b`.
    pub matched_a_after_b: usize,
    /// Total updates of `a` on shared objects.
    pub updates_a: usize,
    /// Total updates of `b` on shared objects.
    pub updates_b: usize,
    /// Lags (in trace time units) of the `b`-after-`a` matches.
    pub lags_b_after_a: Vec<i64>,
    /// Lags of the `a`-after-`b` matches.
    pub lags_a_after_b: Vec<i64>,
    /// Number of objects covered by both.
    pub shared_objects: usize,
}

impl TemporalEvidence {
    /// Median of a lag collection; `None` when no match exists.
    fn median(lags: &[i64]) -> Option<i64> {
        if lags.is_empty() {
            return None;
        }
        let mut sorted = lags.to_vec();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Median lag with which `b` trails `a` — the *laziness* of a `b`-copies-
    /// `a` copier.
    pub fn median_lag_b_after_a(&self) -> Option<i64> {
        Self::median(&self.lags_b_after_a)
    }
}

/// How rare each `(object, value)` update is across the whole corpus:
/// the fraction of sources covering the object that ever assert the value.
#[derive(Debug, Clone, Default)]
pub struct UpdateRarity {
    /// `(object, value) → sources ever asserting it`.
    asserters: HashMap<(ObjectId, ValueId), usize>,
    /// `object → sources ever covering it`.
    coverers: HashMap<ObjectId, usize>,
    smoothing: f64,
}

impl UpdateRarity {
    /// Precomputes assertion frequencies over the history.
    pub fn from_history(history: &History, smoothing: f64) -> Self {
        let mut asserters: HashMap<(ObjectId, ValueId), usize> = HashMap::new();
        let mut coverers: HashMap<ObjectId, usize> = HashMap::new();
        for s in 0..history.num_sources() {
            let sid = SourceId::from_index(s);
            for (o, trace) in history.traces_of(sid) {
                *coverers.entry(o).or_insert(0) += 1;
                let mut seen: Vec<ValueId> = Vec::new();
                for &(_, v) in trace.updates() {
                    if !seen.contains(&v) {
                        seen.push(v);
                        *asserters.entry((o, v)).or_insert(0) += 1;
                    }
                }
            }
        }
        Self {
            asserters,
            coverers,
            smoothing,
        }
    }

    /// Smoothed probability that an arbitrary source covering `object` would
    /// independently assert `value` at some point.
    pub fn frequency(&self, object: ObjectId, value: ValueId) -> f64 {
        let k = self.asserters.get(&(object, value)).copied().unwrap_or(0) as f64;
        let n = self.coverers.get(&object).copied().unwrap_or(0) as f64;
        // Exclude the asserting source itself from both counts: we ask how
        // likely *another* source is to make the same update.
        let lambda = self.smoothing;
        ((k - 1.0).max(0.0) + lambda) / ((n - 1.0).max(0.0) + 2.0 * lambda)
    }
}

/// Collects the raw matched-update evidence for one pair.
pub fn gather_evidence(
    history: &History,
    a: SourceId,
    b: SourceId,
    params: &TemporalParams,
) -> TemporalEvidence {
    let mut ev = TemporalEvidence::default();
    for (object, trace_a) in history.traces_of(a) {
        let Some(trace_b) = history.trace(b, object) else {
            continue;
        };
        ev.shared_objects += 1;
        ev.updates_a += trace_a.len();
        ev.updates_b += trace_b.len();
        // b repeating a.
        for &(tb, v) in trace_b.updates() {
            if let Some(ta) = trace_a.first_asserted(v) {
                let lag = tb - ta;
                if (0..=params.max_lag).contains(&lag) {
                    ev.matched_b_after_a += 1;
                    ev.lags_b_after_a.push(lag);
                }
            }
        }
        // a repeating b.
        for &(ta, v) in trace_a.updates() {
            if let Some(tb) = trace_b.first_asserted(v) {
                let lag = ta - tb;
                if (0..=params.max_lag).contains(&lag) {
                    ev.matched_a_after_b += 1;
                    ev.lags_a_after_b.push(lag);
                }
            }
        }
    }
    ev
}

/// Tests one source pair on the update-trace evidence.
///
/// Returns `None` when the pair shares fewer than
/// [`TemporalParams::min_overlap`] objects.
pub fn detect_pair(
    history: &History,
    rarity: &UpdateRarity,
    a: SourceId,
    b: SourceId,
    params: &TemporalParams,
) -> Option<PairDependence> {
    let c = params.copy_rate;
    let mut shared_objects = 0usize;
    // Log-likelihoods: [independent, a copies b, b copies a].
    let mut logs = [0.0f64; 3];
    let mut lags_b_after_a: Vec<i64> = Vec::new();
    let mut lags_a_after_b: Vec<i64> = Vec::new();

    for (object, trace_a) in history.traces_of(a) {
        let Some(trace_b) = history.trace(b, object) else {
            continue;
        };
        shared_objects += 1;
        // Each update is one event. Under independence a source makes a
        // given update with its corpus frequency q; under "x copies y" an
        // update of x that repeats y within the lag window has probability
        // c + (1−c)·q, and an unmatched update (1−c)·q (the copier missed
        // it or provided it independently).
        for &(tb, v) in trace_b.updates() {
            let q = rarity.frequency(object, v).clamp(1e-6, 1.0 - 1e-6);
            let matched = trace_a
                .first_asserted(v)
                .map(|ta| (0..=params.max_lag).contains(&(tb - ta)))
                .unwrap_or(false);
            logs[0] += q.ln();
            logs[1] += q.ln(); // a-copies-b does not explain b's updates
            logs[2] += if matched {
                if let Some(ta) = trace_a.first_asserted(v) {
                    lags_b_after_a.push(tb - ta);
                }
                (c + (1.0 - c) * q).ln()
            } else {
                ((1.0 - c) * q).ln()
            };
        }
        for &(ta, v) in trace_a.updates() {
            let q = rarity.frequency(object, v).clamp(1e-6, 1.0 - 1e-6);
            let matched = trace_b
                .first_asserted(v)
                .map(|tb| (0..=params.max_lag).contains(&(ta - tb)))
                .unwrap_or(false);
            logs[0] += q.ln();
            logs[2] += q.ln();
            logs[1] += if matched {
                if let Some(tb) = trace_b.first_asserted(v) {
                    lags_a_after_b.push(ta - tb);
                }
                (c + (1.0 - c) * q).ln()
            } else {
                ((1.0 - c) * q).ln()
            };
        }
    }

    if shared_objects < params.min_overlap.max(1) {
        return None;
    }

    let prior = params.prior_dependence;
    let joint = [
        (1.0 - prior).max(1e-12).ln() + logs[0],
        (prior / 2.0).max(1e-12).ln() + logs[1],
        (prior / 2.0).max(1e-12).ln() + logs[2],
    ];
    let m = joint.iter().fold(f64::NEG_INFINITY, |x, &y| x.max(y));
    let exps: Vec<f64> = joint.iter().map(|&l| (l - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    let (p_ab, p_ba) = (exps[1] / z, exps[2] / z);
    let probability = p_ab + p_ba;
    let prob_a_on_b = if probability > 0.0 {
        p_ab / probability
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
    // Diagnostic: the median copying lag of the favoured direction — the
    // copier's laziness.
    let lag = if prob_a_on_b > 0.5 {
        TemporalEvidence::median(&lags_a_after_b)
    } else {
        TemporalEvidence::median(&lags_b_after_a)
    };
    Some(
        PairDependence {
            a,
            b,
            probability,
            prob_a_on_b,
            kind: DependenceKind::Similarity,
            direction,
            overlap: shared_objects,
            diagnostic: lag.unwrap_or(0) as f64,
        }
        .canonical(),
    )
}

/// Tests every source pair in the history.
pub fn detect_all(history: &History, params: &TemporalParams) -> Vec<PairDependence> {
    let rarity = UpdateRarity::from_history(history, params.rarity_smoothing);
    let n = history.num_sources();
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(dep) = detect_pair(
                history,
                &rarity,
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

/// Estimates the temporal truth by majority over source assertions at each
/// update time — the detector-side stand-in for an oracle, used to classify
/// values as current / outdated / never-true without ground truth.
pub fn consensus_truth(history: &History) -> TemporalTruth {
    let mut truth = TemporalTruth::new();
    // One snapshot per change point — the epochs are exactly the history's
    // distinct update times.
    for t in history.change_points() {
        let snap = history.snapshot_at(t);
        for idx in 0..history.num_objects() {
            let o = ObjectId::from_index(idx);
            if let Some((v, _)) = snap.value_counts(o).into_iter().next() {
                truth.record(o, t, v);
            }
        }
    }
    truth
}

/// Accuracy contrast of `a` between shared values it published *before* `b`
/// and shared values it published *after* `b` (temporal intuition 3).
///
/// Uses `truth` (typically [`consensus_truth`]) to judge correctness at
/// publication time. Returns `(accuracy_earlier, accuracy_later)`;
/// a copier is accurate in what it publishes later (copied) and not in what
/// it publishes earlier (its own), an original the other way round.
pub fn precedence_contrast(
    history: &History,
    a: SourceId,
    b: SourceId,
    truth: &TemporalTruth,
) -> Option<(f64, f64)> {
    let mut earlier = (0.0, 0usize);
    let mut later = (0.0, 0usize);
    for (object, trace_a) in history.traces_of(a) {
        let Some(trace_b) = history.trace(b, object) else {
            continue;
        };
        for &(ta, v) in trace_a.updates() {
            let Some(tb) = trace_b.first_asserted(v) else {
                continue;
            };
            let correct = truth
                .classify(object, v, ta)
                .map(|cls| cls == sailing_model::TruthClass::CurrentTrue)
                .unwrap_or(false);
            let bucket = if ta <= tb { &mut earlier } else { &mut later };
            bucket.0 += if correct { 1.0 } else { 0.0 };
            bucket.1 += 1;
        }
    }
    if earlier.1 == 0 || later.1 == 0 {
        return None;
    }
    Some((earlier.0 / earlier.1 as f64, later.0 / later.1 as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;

    fn table3() -> (sailing_model::ClaimStore, History) {
        let (store, history, _) = fixtures::table3();
        (store, history)
    }

    #[test]
    fn rarity_counts() {
        let (store, history) = table3();
        let rarity = UpdateRarity::from_history(&history, 0.5);
        let dong = store.object_id("Dong").unwrap();
        let uw = store.value_id(&sailing_model::Value::text("UW")).unwrap();
        let att = store.value_id(&sailing_model::Value::text("AT&T")).unwrap();
        // Everyone asserts UW for Dong at some point; only S1 asserts AT&T.
        assert!(rarity.frequency(dong, uw) > rarity.frequency(dong, att));
    }

    #[test]
    fn table3_s3_detected_as_lazy_copier_of_s1() {
        // Example 3.2: "S3 is dependent on S1, but just lazy in copying".
        let (store, history) = table3();
        let params = TemporalParams::default();
        let rarity = UpdateRarity::from_history(&history, params.rarity_smoothing);
        let s1 = store.source_id("S1").unwrap();
        let s3 = store.source_id("S3").unwrap();
        let dep = detect_pair(&history, &rarity, s1, s3, &params).unwrap();
        let s2 = store.source_id("S2").unwrap();
        let dep12 = detect_pair(&history, &rarity, s1, s2, &params).unwrap();
        assert!(
            dep.probability > dep12.probability,
            "S1–S3 ({}) must outrank S1–S2 ({})",
            dep.probability,
            dep12.probability
        );
        // Direction: S3 depends on S1.
        let p_s3_dep = if dep.a == s3 {
            dep.prob_a_on_b
        } else {
            1.0 - dep.prob_a_on_b
        };
        assert!(p_s3_dep > 0.5, "direction should blame S3: {dep:?}");
        // Laziness: the copying lag is about a year.
        assert!(dep.diagnostic >= 1.0, "lag diagnostic: {}", dep.diagnostic);
    }

    #[test]
    fn evidence_gathering_matches_lags() {
        let (store, history) = table3();
        let s1 = store.source_id("S1").unwrap();
        let s3 = store.source_id("S3").unwrap();
        let ev = gather_evidence(&history, s1, s3, &TemporalParams::default());
        assert_eq!(ev.shared_objects, 5);
        // All five S3 updates repeat an S1 update with lag 1 (2002→2003 or
        // 2006→2007).
        assert_eq!(ev.matched_b_after_a, 5);
        assert_eq!(ev.median_lag_b_after_a(), Some(1));
        assert_eq!(ev.matched_a_after_b, 0);
        assert!(ev.lags_a_after_b.is_empty());
    }

    #[test]
    fn detect_all_on_table3() {
        let (store, history) = table3();
        let deps = detect_all(&history, &TemporalParams::default());
        assert_eq!(deps.len(), 3);
        let s = |n: &str| store.source_id(n).unwrap();
        let find = |a: SourceId, b: SourceId| {
            deps.iter()
                .find(|p| (p.a, p.b) == if a < b { (a, b) } else { (b, a) })
                .unwrap()
        };
        let p13 = find(s("S1"), s("S3")).probability;
        let p12 = find(s("S1"), s("S2")).probability;
        assert!(p13 > p12);
    }

    #[test]
    fn consensus_truth_matches_majority() {
        let (store, history) = table3();
        let truth = consensus_truth(&history);
        // At 2007 the consensus for Balazinska is UW.
        let bal = store.object_id("Balazinska").unwrap();
        let uw = store.value_id(&sailing_model::Value::text("UW")).unwrap();
        assert_eq!(truth.value_at(bal, 2007), Some(uw));
        assert!(truth.horizon().is_some());
    }

    #[test]
    fn precedence_contrast_detects_direction() {
        // Intuition 3. Per object the truth is u until 2004, v from 2004,
        // w from 2005. The copier guesses v prematurely (its own, wrong at
        // publication); the original publishes v and w on time; the copier
        // copies w a year late (still correct). So the copier is wrong on
        // shared values it publishes *earlier* than the original and right
        // on those it publishes *later* — the copying signature.
        let mut truth = TemporalTruth::new();
        let mut h = History::new(2, 4);
        let original = SourceId(0);
        let copier = SourceId(1);
        for i in 0..4u32 {
            let o = ObjectId(i);
            let (u, v, w) = (ValueId(i * 3), ValueId(i * 3 + 1), ValueId(i * 3 + 2));
            truth.record(o, 2000, u);
            truth.record(o, 2004, v);
            truth.record(o, 2005, w);
            h.record(copier, o, 2001, v); // premature guess, false in 2001
            h.record(original, o, 2004, v); // correct
            h.record(original, o, 2005, w); // correct
            h.record(copier, o, 2006, w); // lazy copy, still correct
        }
        let (earlier, later) = precedence_contrast(&h, copier, original, &truth).unwrap();
        assert!(
            later > earlier,
            "copier accurate later ({later}) not earlier ({earlier})"
        );
        let (e2, l2) = precedence_contrast(&h, original, copier, &truth).unwrap();
        assert!(e2 >= l2, "original accurate in what it publishes first");
    }

    #[test]
    fn min_overlap_gate() {
        let (store, history) = table3();
        let params = TemporalParams {
            min_overlap: 10,
            ..Default::default()
        };
        let rarity = UpdateRarity::from_history(&history, params.rarity_smoothing);
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        assert!(detect_pair(&history, &rarity, s1, s2, &params).is_none());
    }

    #[test]
    fn independent_sources_with_disjoint_updates_not_flagged() {
        let mut h = History::new(2, 6);
        for i in 0..6u32 {
            h.record(SourceId(0), ObjectId(i), 2000 + i as i64, ValueId(i));
            h.record(SourceId(1), ObjectId(i), 2000 + i as i64, ValueId(100 + i));
        }
        let params = TemporalParams::default();
        let rarity = UpdateRarity::from_history(&h, params.rarity_smoothing);
        let dep = detect_pair(&h, &rarity, SourceId(0), SourceId(1), &params).unwrap();
        assert!(dep.probability < 0.5, "{dep:?}");
    }
}
