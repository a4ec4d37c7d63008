//! Bayesian snapshot copy detection (similarity-dependence).
//!
//! Implements the paper's key snapshot intuition (Section 3.2): *data sources
//! that share common false values are much more likely to be dependent than
//! data sources that share common true values* — "akin to how teachers
//! determine if students copied from each other in a multiple-choice quiz".
//!
//! For a source pair, each shared object contributes evidence depending on
//! whether the two values agree and how likely the agreed value is to be
//! true. Under independence a shared *false* value requires both sources to
//! independently pick the same wrong value out of `n` possibilities — very
//! unlikely — while under copying it merely requires the original to be
//! wrong. The posterior over {independent, A copies B, B copies A} follows
//! by Bayes' rule.
//!
//! The same per-pair merge gathers the overlap-property direction hint
//! ([`crate::partial`], intuition 2), so one walk gives the whole row.

use sailing_model::{SnapshotView, SourceId};

use crate::params::DetectionParams;
use crate::partial::{blend_contrasts, OverlapContrast};
use crate::report::{DependenceKind, Direction, PairDependence};
use crate::truth::{effective_n_false, ValueProbabilities};

/// Per-hypothesis log-likelihoods of one pair's joint observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairLikelihoods {
    /// Log-likelihood under independence.
    pub log_independent: f64,
    /// Log-likelihood under "`a` copies from `b`".
    pub log_a_copies_b: f64,
    /// Log-likelihood under "`b` copies from `a`".
    pub log_b_copies_a: f64,
    /// Number of shared objects.
    pub overlap: usize,
    /// Soft count of shared values weighted by probability of being false.
    pub shared_false_mass: f64,
}

/// Probability of both sources asserting the same value, split by the value
/// being true/false, plus the probability of differing — under independence.
fn independent_probs(aa: f64, ab: f64, n: f64) -> (f64, f64, f64) {
    let pt = aa * ab;
    let pf = (1.0 - aa) * (1.0 - ab) / n;
    let pd = (1.0 - pt - pf).max(1e-12);
    (pt, pf, pd)
}

/// Same, under "the copier copies each item with rate `c` from an original
/// with accuracy `a_orig`, mutating the copied value with rate `mu`";
/// `a_copier` is the copier's own accuracy for the independent remainder.
fn copying_probs(a_orig: f64, a_copier: f64, c: f64, mu: f64, n: f64) -> (f64, f64, f64) {
    let (pt_ind, pf_ind, pd_ind) = independent_probs(a_orig, a_copier, n);
    let keep = c * (1.0 - mu);
    let pt = keep * a_orig + (1.0 - c) * pt_ind;
    let pf = keep * (1.0 - a_orig) + (1.0 - c) * pf_ind;
    let pd = (c * mu + (1.0 - c) * pd_ind).max(1e-12);
    (pt, pf, pd)
}

/// Computes the three hypothesis log-likelihoods for a pair from the current
/// value probabilities.
///
/// The truth of a shared value is a latent variable: a shared value that is
/// true with probability `p` contributes the **marginal** likelihood
/// `ln(p·P_sharedtrue + (1−p)·P_sharedfalse)` to each hypothesis. The
/// marginal (not the expected log-likelihood — Jensen's inequality makes
/// that difference decisive) keeps the evidence weak while the truth is
/// still uncertain, so honest sources that merely share disputed values are
/// not flagged; as the iterative scheme sharpens the truth estimates,
/// confidently-false shared values dominate exactly as the paper's
/// intuition 1 prescribes.
pub fn pair_likelihoods(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> PairLikelihoods {
    DetectionPass::new(snapshot, probs, accuracies, params, Some([a, b]))
        .evidence(a, b)
        .0
}

/// Turns the three log-likelihoods into a posterior [`PairDependence`].
pub fn posterior(
    a: SourceId,
    b: SourceId,
    lik: &PairLikelihoods,
    params: &DetectionParams,
) -> PairDependence {
    let prior_dep = params.prior_dependence;
    let log_priors = [
        (1.0 - prior_dep).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
    ];
    let logs = [
        log_priors[0] + lik.log_independent,
        log_priors[1] + lik.log_a_copies_b,
        log_priors[2] + lik.log_b_copies_a,
    ];
    let m = logs.iter().fold(f64::NEG_INFINITY, |x, &y| x.max(y));
    let exps = logs.map(|l| (l - m).exp());
    let z: f64 = exps.iter().sum();
    let [p_ind, p_ab, p_ba] = exps.map(|e| e / z);

    let probability = 1.0 - p_ind;
    let prob_a_on_b = if p_ab + p_ba > 0.0 {
        p_ab / (p_ab + p_ba)
    } else {
        0.5
    };
    PairDependence {
        a,
        b,
        probability,
        prob_a_on_b,
        kind: DependenceKind::Similarity,
        direction: direction_of(probability, prob_a_on_b),
        overlap: lik.overlap,
        diagnostic: lik.log_a_copies_b.max(lik.log_b_copies_a) - lik.log_independent,
    }
    .canonical()
}

/// The direction a dependence with these probabilities resolves to.
fn direction_of(probability: f64, prob_a_on_b: f64) -> Direction {
    if probability < 0.5 || (prob_a_on_b - 0.5).abs() < 0.1 {
        Direction::Unknown
    } else if prob_a_on_b > 0.5 {
        Direction::AOnB
    } else {
        Direction::BOnA
    }
}

/// Detects copying for one pair, with the direction hint blended in — the
/// row [`crate::pairs::detect_all_with_pairs`] gives it; `None` when the
/// overlap is below [`DetectionParams::min_overlap`].
pub fn detect_pair(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Option<PairDependence> {
    DetectionPass::new(snapshot, probs, accuracies, params, Some([a, b])).detect(a, b)
}

/// One source's `(probability sum, item count)` over the items it shares
/// with the other source of a pair, then over its private items.
type SideSums = ((f64, usize), (f64, usize));

/// One detection pass's inputs, with the value probabilities read once
/// into a column that [`crate::pairs::detect_all_with_pairs`] builds per
/// pass and all its workers share.
pub(crate) struct DetectionPass<'a> {
    snapshot: &'a SnapshotView,
    accuracies: &'a [f64],
    params: &'a DetectionParams,
    /// `probs.prob` per assertion, laid out like the snapshot's CSR slices.
    probs: Vec<f64>,
    starts: Vec<usize>,
}

impl<'a> DetectionPass<'a> {
    /// The column covers every source, or only the two of `pair`.
    pub(crate) fn new(
        snapshot: &'a SnapshotView,
        probs: &ValueProbabilities,
        accuracies: &'a [f64],
        params: &'a DetectionParams,
        pair: Option<[SourceId; 2]>,
    ) -> Self {
        let mut column = Vec::with_capacity(snapshot.num_assertions());
        let mut starts = Vec::with_capacity(snapshot.num_sources() + 1);
        for source in (0..snapshot.num_sources()).map(SourceId::from_index) {
            starts.push(column.len());
            if pair.is_none_or(|pair| pair.contains(&source)) {
                column.extend(
                    snapshot
                        .assertions_of(source)
                        .map(|(o, v)| probs.prob(o, v)),
                );
            }
        }
        starts.push(column.len());
        Self {
            snapshot,
            accuracies,
            params,
            probs: column,
            starts,
        }
    }

    /// The fused per-pair kernel: one merge over both sources' full sorted
    /// assertion slices, reading every probability from the column. Shared
    /// objects feed the three log-likelihoods. Every assertion also feeds
    /// its source's shared or private probability sum, in object order:
    /// the sums [`crate::partial::overlap_contrast`] takes.
    fn evidence(&self, a: SourceId, b: SourceId) -> (PairLikelihoods, [SideSums; 2]) {
        let params = self.params;
        let accuracy = |s: SourceId| {
            params.clamp_accuracy(self.accuracies.get(s.index()).copied().unwrap_or(0.5))
        };
        let (aa, ab) = (accuracy(a), accuracy(b));
        let (c, mu) = (params.copy_rate, params.copy_mutation_rate);
        let mut out = PairLikelihoods::default();
        let (mut shared_a, mut private_a, mut shared_b, mut private_b) = (0.0, 0.0, 0.0, 0.0);
        // Each side's assertions, cut to its column run (a source outside a
        // pair-restricted column reads as empty), so the merge indexes both
        // within one length.
        let run = |s: SourceId| {
            let probs = self.starts.get(s.index()..s.index() + 2);
            let probs = probs.map_or(&[][..], |r| &self.probs[r[0]..r[1]]);
            (&self.snapshot.source_assertions(s)[..probs.len()], probs)
        };
        let ((sa, pa), (sb, pb)) = (run(a), run(b));
        let (mut i, mut j) = (0, 0);
        while i < sa.len() && j < sb.len() {
            let ((object, va), (ob, vb)) = (sa[i], sb[j]);
            if object != ob {
                if object < ob {
                    private_a += pa[i];
                    i += 1;
                } else {
                    private_b += pb[j];
                    j += 1;
                }
                continue;
            }
            let p_true = pa[i];
            shared_a += p_true;
            shared_b += pb[j];
            i += 1;
            j += 1;

            out.overlap += 1;
            let n = effective_n_false(self.snapshot, object, params) as f64;
            let (it, if_, id) = independent_probs(aa, ab, n);
            // "`a` copies `b`": the original is `b`; and the reverse.
            let (abt, abf, abd) = copying_probs(ab, aa, c, mu, n);
            let (bat, baf, bad) = copying_probs(aa, ab, c, mu, n);
            if va == vb {
                let p_false = 1.0 - p_true;
                out.shared_false_mass += p_false;
                out.log_independent += (p_true * it + p_false * if_).max(1e-300).ln();
                out.log_a_copies_b += (p_true * abt + p_false * abf).max(1e-300).ln();
                out.log_b_copies_a += (p_true * bat + p_false * baf).max(1e-300).ln();
            } else {
                out.log_independent += id.ln();
                out.log_a_copies_b += abd.ln();
                out.log_b_copies_a += bad.ln();
            }
        }
        let private_a = pa[i..].iter().fold(private_a, |sum, &p| sum + p);
        let private_b = pb[j..].iter().fold(private_b, |sum, &p| sum + p);
        let n = out.overlap;
        let sides = [
            ((shared_a, n), (private_a, pa.len() - n)),
            ((shared_b, n), (private_b, pb.len() - n)),
        ];
        (out, sides)
    }

    /// [`detect_pair`] over this pass's column: the posterior, then the
    /// equal-weight blend with the direction hint.
    pub(crate) fn detect(&self, a: SourceId, b: SourceId) -> Option<PairDependence> {
        let (lik, [side_a, side_b]) = self.evidence(a, b);
        if lik.overlap < self.params.min_overlap {
            return None;
        }
        let mut dep = posterior(a, b, &lik, self.params);
        // Only the contrast is used; with `from_sums` inlined, its z
        // statistic is never computed.
        let weight =
            |(shared, private)| OverlapContrast::from_sums(shared, private).map(|c| c.contrast());
        let (ca, cb) = (weight(side_a), weight(side_b));
        // `posterior` returns the canonical orientation; take the hint in it.
        let hint = if dep.a == a {
            blend_contrasts(ca, cb)
        } else {
            blend_contrasts(cb, ca)
        };
        if let Some(hint) = hint {
            dep.prob_a_on_b = 0.5 * dep.prob_a_on_b + 0.5 * hint;
            dep.direction = direction_of(dep.probability, dep.prob_a_on_b);
        }
        Some(dep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{naive_probabilities, weighted_vote, DependenceMatrix};
    use sailing_model::fixtures;

    fn setup_table1() -> (
        sailing_model::ClaimStore,
        SnapshotView,
        ValueProbabilities,
        Vec<f64>,
        DetectionParams,
    ) {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = naive_probabilities(&snap);
        (store, snap, probs, accs, params)
    }

    #[test]
    fn exact_copiers_are_detected() {
        // One-shot detection from five objects is necessarily soft (the
        // iterative pipeline sharpens it to ≈1); what must hold is that the
        // exact copy stands above the dependence prior and above every
        // independent pair.
        let (store, snap, probs, accs, params) = setup_table1();
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        let dep = detect_pair(&snap, s3, s4, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability > 0.35 && dep.diagnostic > 0.5,
            "S3–S4 share five identical values incl. disputed ones: {dep:?}"
        );
        assert_eq!(dep.overlap, 5);
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let indep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        assert!(dep.probability > 2.0 * indep.probability);
    }

    #[test]
    fn near_copiers_are_detected() {
        let (store, snap, probs, accs, params) = setup_table1();
        let s3 = store.source_id("S3").unwrap();
        let s5 = store.source_id("S5").unwrap();
        let dep = detect_pair(&snap, s3, s5, &probs, &accs, &params).unwrap();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let indep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability > indep.probability,
            "S5 copies S3 with one change and must outrank S1–S2: {} vs {}",
            dep.probability,
            indep.probability
        );
        assert!(
            dep.probability > 0.15,
            "above the hard-damping bar: {dep:?}"
        );
    }

    #[test]
    fn independent_accurate_sources_are_not_flagged() {
        let (store, snap, probs, accs, params) = setup_table1();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let dep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        let cluster = detect_pair(&snap, s3, s4, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability < cluster.probability,
            "S1–S2 (shared true values) must score far below S3–S4: {} vs {}",
            dep.probability,
            cluster.probability
        );
    }

    #[test]
    fn min_overlap_gate() {
        let (store, snap, probs, accs, _) = setup_table1();
        let params = DetectionParams {
            min_overlap: 6,
            ..DetectionParams::default()
        };
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        assert!(detect_pair(&snap, s3, s4, &probs, &accs, &params).is_none());
    }

    #[test]
    fn shared_false_values_outweigh_shared_true_values() {
        // Two synthetic pairs with identical overlap size: one shares values
        // believed true, the other values believed false. The latter must
        // produce a larger likelihood ratio — the paper's central intuition.
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..8 {
            let o = format!("obj{i}");
            b.add("T1", &o, "right")
                .add("T2", &o, "right")
                .add("W1", &o, "wrong")
                .add("W2", &o, "wrong")
                // Three extra independent voters make "right" the consensus.
                .add("V1", &o, "right")
                .add("V2", &o, "right")
                .add("V3", &o, "right");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);

        let t = |n: &str| store.source_id(n).unwrap();
        let lik_true = pair_likelihoods(&snap, t("T1"), t("T2"), &probs, &accs, &params);
        let lik_false = pair_likelihoods(&snap, t("W1"), t("W2"), &probs, &accs, &params);
        let ratio_true = lik_true.log_a_copies_b - lik_true.log_independent;
        let ratio_false = lik_false.log_a_copies_b - lik_false.log_independent;
        assert!(
            ratio_false > ratio_true + 1.0,
            "shared-false evidence {ratio_false} must dominate shared-true {ratio_true}"
        );
        assert!(lik_false.shared_false_mass > lik_true.shared_false_mass);
    }

    #[test]
    fn posterior_probabilities_are_coherent() {
        let (store, snap, probs, accs, params) = setup_table1();
        for a in (0..store.num_sources()).map(SourceId::from_index) {
            for b in (a.index() + 1..store.num_sources()).map(SourceId::from_index) {
                let dep = detect_pair(&snap, a, b, &probs, &accs, &params).unwrap();
                assert!((0.0..=1.0).contains(&dep.probability));
                assert!((0.0..=1.0).contains(&dep.prob_a_on_b));
                assert!(dep.a < dep.b);
            }
        }
    }

    #[test]
    fn direction_prefers_the_less_accurate_copier() {
        // Original O is accurate everywhere; copier C repeats O's values on
        // shared objects but is wrong on its private ones, so C's accuracy
        // estimate is lower. The direction posterior should lean toward
        // "C copies O" (the hypothesis where the original is accurate).
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..6 {
            let o = format!("shared{i}");
            b.add("O", &o, "v");
            b.add("C", &o, "v");
            b.add("X1", &o, "v");
            b.add("X2", &o, "other");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let o_id = store.source_id("O").unwrap();
        let c_id = store.source_id("C").unwrap();
        let mut accs = vec![params.initial_accuracy; snap.num_sources()];
        accs[o_id.index()] = 0.95;
        accs[c_id.index()] = 0.55;
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);
        let dep = detect_pair(&snap, o_id, c_id, &probs, &accs, &params).unwrap();
        let p_c_on_o = if dep.a == c_id {
            dep.prob_a_on_b
        } else {
            1.0 - dep.prob_a_on_b
        };
        assert!(
            p_c_on_o > 0.5,
            "direction should favour the less accurate source copying: {dep:?}"
        );
    }

    #[test]
    fn probs_helpers_are_distributions() {
        let (pt, pf, pd) = independent_probs(0.8, 0.7, 10.0);
        assert!((pt + pf + pd - 1.0).abs() < 1e-9);
        let (ct, cf, cd) = copying_probs(0.8, 0.7, 0.8, 0.1, 10.0);
        assert!((ct + cf + cd - 1.0).abs() < 1e-9);
        assert!(ct > pt && cf > pf && cd < pd);
    }
}
