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
//! The same per-pair walk gathers the overlap-property direction hint
//! ([`crate::partial`], intuition 2), so one pass gives the whole row. The
//! walk is scatter-indexed, not a two-way merge: the pair's first source
//! fills a per-object slot array, kept for all its pairs; each pair walks
//! the second source's slice against the slots, then the first source's
//! slice once for its private items.

use sailing_model::{ObjectId, SnapshotView, SourceId, ValueId};

use crate::params::DetectionParams;
use crate::partial::{blend_contrasts, OverlapContrast};
use crate::report::{DependenceKind, Direction, PairDependence};
use crate::truth::{effective_n_false, ValueProbabilities};

#[cfg(test)]
pub(crate) mod reference;

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
    let pass = DetectionPass::new(snapshot, probs, accuracies, params, Some([a, b]));
    pass.evidence(&mut pass.scratch(), a, b).0
}

/// Turns the three log-likelihoods into a posterior [`PairDependence`].
pub fn posterior(
    a: SourceId,
    b: SourceId,
    lik: &PairLikelihoods,
    params: &DetectionParams,
) -> PairDependence {
    posterior_from(&log_priors(params), a, b, lik)
}

/// The log-priors of independence and of each copying direction.
fn log_priors(params: &DetectionParams) -> [f64; 3] {
    let prior_dep = params.prior_dependence;
    [
        (1.0 - prior_dep).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
    ]
}

/// [`posterior`] with the log-priors computed once per pass.
fn posterior_from(
    log_priors: &[f64; 3],
    a: SourceId,
    b: SourceId,
    lik: &PairLikelihoods,
) -> PairDependence {
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
    let pass = DetectionPass::new(snapshot, probs, accuracies, params, Some([a, b]));
    pass.detect(&mut pass.scratch(), a, b)
}

/// One source's `(probability sum, item count)` over the items it shares
/// with the other source of a pair, then over its private items.
type SideSums = ((f64, usize), (f64, usize));

/// The per-pair constants of one shared object's evidence: they depend only
/// on the pair's two accuracies and on the object's false-value count `n`,
/// so [`DetectionPass::evidence`] computes them again only when `n` changes.
#[derive(Default)]
struct SharedTerms {
    /// `(P(shared true), P(shared false))` under independence, "`a` copies
    /// `b`" and "`b` copies `a`".
    agree: [(f64, f64); 3],
    /// `ln P(values differ)` under the same three hypotheses.
    differ_ln: [f64; 3],
}

impl SharedTerms {
    fn new(aa: f64, ab: f64, params: &DetectionParams, n: f64) -> Self {
        let (c, mu) = (params.copy_rate, params.copy_mutation_rate);
        let (it, if_, id) = independent_probs(aa, ab, n);
        // "`a` copies `b`": the original is `b`; and the reverse.
        let (abt, abf, abd) = copying_probs(ab, aa, c, mu, n);
        let (bat, baf, bad) = copying_probs(aa, ab, c, mu, n);
        Self {
            agree: [(it, if_), (abt, abf), (bat, baf)],
            differ_ln: [id.ln(), abd.ln(), bad.ln()],
        }
    }
}

/// One worker's scratch for [`DetectionPass::evidence`]: which first
/// source's assertions fill `slot`, and per-assertion shared marks. Pairs
/// that share their first source reuse the slots, so a worker visits its
/// pairs grouped by first source.
pub(crate) struct PairScratch {
    /// Per object: `index + 1` of that object in `source`'s slice, `0`
    /// when `source` does not cover it.
    slot: Vec<u32>,
    /// Per assertion of `source`: shared with the current pair's other
    /// source. All `false` between pairs.
    shared: Vec<bool>,
    source: Option<SourceId>,
}

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
    /// One past the largest object id in the column: the slot count of a
    /// [`PairScratch`].
    objects: usize,
    log_priors: [f64; 3],
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
        let mut objects = 0;
        for source in (0..snapshot.num_sources()).map(SourceId::from_index) {
            starts.push(column.len());
            if pair.is_none_or(|pair| pair.contains(&source)) {
                let assertions = snapshot.source_assertions(source);
                // Slices are sorted by object: the last is the largest.
                if let Some(&(last, _)) = assertions.last() {
                    objects = objects.max(last.index() + 1);
                }
                column.extend(assertions.iter().map(|&(o, v)| probs.prob(o, v)));
            }
        }
        starts.push(column.len());
        Self {
            snapshot,
            accuracies,
            params,
            probs: column,
            starts,
            objects,
            log_priors: log_priors(params),
        }
    }

    /// Scratch for one worker of this pass.
    pub(crate) fn scratch(&self) -> PairScratch {
        PairScratch {
            slot: vec![0; self.objects],
            shared: Vec::new(),
            source: None,
        }
    }

    /// One source's assertions, cut to its column run (a source outside a
    /// pair-restricted column reads as empty), and their probabilities.
    fn run(&self, s: SourceId) -> (&[(ObjectId, ValueId)], &[f64]) {
        let probs = self.starts.get(s.index()..s.index() + 2);
        let probs = probs.map_or(&[][..], |r| &self.probs[r[0]..r[1]]);
        (&self.snapshot.source_assertions(s)[..probs.len()], probs)
    }

    /// Points `scratch`'s slots at `source`'s assertions, clearing the
    /// previous source's first.
    fn load(&self, scratch: &mut PairScratch, source: SourceId) {
        if scratch.source == Some(source) {
            return;
        }
        if let Some(previous) = scratch.source.take() {
            for &(object, _) in self.run(previous).0 {
                scratch.slot[object.index()] = 0;
            }
        }
        let assertions = self.run(source).0;
        for (i, &(object, _)) in assertions.iter().enumerate() {
            // A source holds fewer assertions than the snapshot's `u32`
            // offsets can count.
            scratch.slot[object.index()] = (i + 1) as u32;
        }
        if scratch.shared.len() < assertions.len() {
            scratch.shared.resize(assertions.len(), false);
        }
        scratch.source = Some(source);
    }

    /// The fused per-pair kernel, reading every probability from the
    /// column. `a`'s assertions sit in the scratch slots; one walk over
    /// `b`'s slice finds the shared objects, which feed the three
    /// log-likelihoods, and one walk over `a`'s collects its private
    /// items. Every assertion also feeds its source's shared or private
    /// probability sum, in object order: the sums
    /// [`crate::partial::overlap_contrast`] takes.
    fn evidence(
        &self,
        scratch: &mut PairScratch,
        a: SourceId,
        b: SourceId,
    ) -> (PairLikelihoods, [SideSums; 2]) {
        let params = self.params;
        let accuracy = |s: SourceId| {
            params.clamp_accuracy(self.accuracies.get(s.index()).copied().unwrap_or(0.5))
        };
        let (aa, ab) = (accuracy(a), accuracy(b));
        let mut out = PairLikelihoods::default();
        let (mut shared_a, mut private_a, mut shared_b, mut private_b) = (0.0, 0.0, 0.0, 0.0);
        self.load(scratch, a);
        let ((sa, pa), (sb, pb)) = (self.run(a), self.run(b));
        // `effective_n_false` is at least 1, so 0 means "not computed".
        let mut terms_n = 0;
        let mut terms = SharedTerms::default();
        for (&(object, vb), &p_b) in sb.iter().zip(pb) {
            let slot = scratch.slot[object.index()];
            if slot == 0 {
                private_b += p_b;
                continue;
            }
            let i = slot as usize - 1;
            scratch.shared[i] = true;
            let p_true = pa[i];
            shared_a += p_true;
            shared_b += p_b;

            out.overlap += 1;
            let n = effective_n_false(self.snapshot, object, params);
            if n != terms_n {
                terms = SharedTerms::new(aa, ab, params, n as f64);
                terms_n = n;
            }
            if sa[i].1 == vb {
                let p_false = 1.0 - p_true;
                out.shared_false_mass += p_false;
                let lik = |(t, f): (f64, f64)| (p_true * t + p_false * f).max(1e-300).ln();
                out.log_independent += lik(terms.agree[0]);
                out.log_a_copies_b += lik(terms.agree[1]);
                out.log_b_copies_a += lik(terms.agree[2]);
            } else {
                out.log_independent += terms.differ_ln[0];
                out.log_a_copies_b += terms.differ_ln[1];
                out.log_b_copies_a += terms.differ_ln[2];
            }
        }
        // Shared items are skipped, not added as `0.0`: `-0.0 + 0.0` is
        // `+0.0`. The walk also clears the marks for the next pair.
        for (shared, &p) in scratch.shared[..pa.len()].iter_mut().zip(pa) {
            if *shared {
                *shared = false;
            } else {
                private_a += p;
            }
        }
        let n = out.overlap;
        let sides = [
            ((shared_a, n), (private_a, pa.len() - n)),
            ((shared_b, n), (private_b, pb.len() - n)),
        ];
        (out, sides)
    }

    /// [`detect_pair`] over this pass's column: the posterior, then the
    /// equal-weight blend with the direction hint.
    pub(crate) fn detect(
        &self,
        scratch: &mut PairScratch,
        a: SourceId,
        b: SourceId,
    ) -> Option<PairDependence> {
        let (lik, [side_a, side_b]) = self.evidence(scratch, a, b);
        if lik.overlap < self.params.min_overlap {
            return None;
        }
        let mut dep = posterior_from(&self.log_priors, a, b, &lik);
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
    use sailing_model::{fixtures, ValueId};

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

    /// Every field of two rows, floats compared by bits.
    fn assert_rows_bitwise(what: &str, x: &PairDependence, y: &PairDependence) {
        assert_eq!((x.a, x.b, x.overlap), (y.a, y.b, y.overlap), "{what}");
        assert_eq!((x.kind, x.direction), (y.kind, y.direction), "{what}");
        let bits =
            |d: &PairDependence| [d.probability, d.prob_a_on_b, d.diagnostic].map(f64::to_bits);
        assert_eq!(bits(x), bits(y), "{what}: {x:?} vs {y:?}");
    }

    /// The likelihoods and both sides' sums, floats compared by bits.
    fn assert_evidence_bitwise(
        what: &str,
        (x, x_sides): (PairLikelihoods, [SideSums; 2]),
        (y, y_sides): (PairLikelihoods, [SideSums; 2]),
    ) {
        let bits = |l: &PairLikelihoods| {
            [
                l.log_independent,
                l.log_a_copies_b,
                l.log_b_copies_a,
                l.shared_false_mass,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&x), bits(&y), "{what}: {x:?} vs {y:?}");
        assert_eq!(x.overlap, y.overlap, "{what}");
        let sides = |s: [SideSums; 2]| {
            s.map(|((shared, n_shared), (private, n_private))| {
                (shared.to_bits(), n_shared, private.to_bits(), n_private)
            })
        };
        assert_eq!(sides(x_sides), sides(y_sides), "{what}: sides");
    }

    /// A seeded Fisher–Yates shuffle (splitmix64), so pair order varies
    /// without a dependency.
    fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
        let mut state = seed;
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        out
    }

    /// Checks the scatter kernel against the merge reference on `pairs`
    /// (each asked in both orientations): the pass kernel with one reused
    /// scratch, the single-pair entry points, and the batched
    /// [`detect_all_with_pairs`] over shuffled pair orders at 1 and 3
    /// threads.
    fn check_kernel_parity(
        what: &str,
        snapshot: &SnapshotView,
        pairs: &[(SourceId, SourceId, usize)],
        probs: &ValueProbabilities,
        accuracies: &[f64],
        params: &DetectionParams,
    ) {
        let pass = DetectionPass::new(snapshot, probs, accuracies, params, None);
        let mut scratch = pass.scratch();
        let mut reference_rows = Vec::new();
        let oriented = pairs
            .iter()
            .map(|&(a, b, _)| (a, b))
            .chain(pairs.iter().map(|&(a, b, _)| (b, a)));
        for (k, (a, b)) in oriented.enumerate() {
            let what = format!("{what}, pair {a:?}-{b:?}");
            let expected = pass.evidence_reference(a, b);
            assert_evidence_bitwise(&what, pass.evidence(&mut scratch, a, b), expected);
            let expected_row = pass.detect_reference(a, b);
            let row = pass.detect(&mut scratch, a, b);
            assert_eq!(row.is_some(), expected_row.is_some(), "{what}: gate");
            if let (Some(row), Some(expected)) = (&row, &expected_row) {
                assert_rows_bitwise(&what, row, expected);
            }
            let single = DetectionPass::new(snapshot, probs, accuracies, params, Some([a, b]));
            assert_evidence_bitwise(
                &format!("{what}, pair_likelihoods"),
                (
                    pair_likelihoods(snapshot, a, b, probs, accuracies, params),
                    expected.1,
                ),
                single.evidence_reference(a, b),
            );
            let single_row = detect_pair(snapshot, a, b, probs, accuracies, params);
            assert_eq!(
                single_row.is_some(),
                expected_row.is_some(),
                "{what}: detect_pair gate"
            );
            if let (Some(row), Some(expected)) = (single_row, single.detect_reference(a, b)) {
                assert_rows_bitwise(&format!("{what}, detect_pair"), &row, &expected);
            }
            if k < pairs.len() {
                reference_rows.extend(expected_row);
            }
        }
        reference_rows.sort_by_key(|p| (p.a, p.b));
        for (seed, threads) in [(1, 1), (2, 3), (3, 3)] {
            let order = shuffled(pairs, seed);
            let params = DetectionParams {
                threads,
                ..params.clone()
            };
            let rows =
                crate::pairs::detect_all_with_pairs(snapshot, &order, probs, accuracies, &params);
            assert_eq!(rows.len(), reference_rows.len(), "{what}: row count");
            for (row, expected) in rows.iter().zip(&reference_rows) {
                assert_rows_bitwise(&format!("{what}, {threads} threads"), row, expected);
            }
        }
    }

    #[test]
    fn kernel_parity_on_oracle_worlds() {
        for (name, snapshot, params) in reference::oracle_worlds() {
            let early = crate::AccuCopy::new(DetectionParams {
                max_iterations: 3,
                ..params.clone()
            })
            .unwrap()
            .run(&snapshot);
            let converged = crate::AccuCopy::new(params.clone()).unwrap().run(&snapshot);
            let cold = vec![params.initial_accuracy; snapshot.num_sources()];
            let states = [
                ("cold", naive_probabilities(&snapshot), cold),
                ("3 iterations", early.probabilities, early.accuracies),
                ("converged", converged.probabilities, converged.accuracies),
            ];
            let pairs = crate::pairs::candidate_pairs(&snapshot, params.min_overlap);
            assert!(!pairs.is_empty(), "{name}: the world has candidate pairs");
            for (state, probs, accuracies) in &states {
                let what = format!("{name}, {state}");
                check_kernel_parity(&what, &snapshot, &pairs, probs, accuracies, &params);
            }
        }
    }

    #[test]
    fn kernel_parity_on_hostile_shapes() {
        const OBJECTS: u32 = 50;
        let o = sailing_model::ObjectId;
        let sources: [Vec<u32>; 6] = [
            // No assertions at all.
            vec![],
            vec![0, 5, 10, 20, OBJECTS - 1],
            // A strict superset of source 1.
            vec![0, 1, 5, 7, 10, 20, 30, OBJECTS - 1],
            // Disjoint from sources 1 and 2.
            vec![2, 3, 4],
            // Only the top of the object id space.
            vec![OBJECTS - 3, OBJECTS - 2, OBJECTS - 1],
            (0..OBJECTS).step_by(3).collect(),
        ];
        // Values vary by source and object, so some objects see many
        // distinct values (`n` changes between shared objects) and shared
        // objects both agree and disagree.
        let value = |s: u32, object: u32| ValueId((object * 7 + s * (object % 4)) % 13);
        let triples: Vec<_> = sources
            .iter()
            .enumerate()
            .flat_map(|(s, objects)| {
                let s = s as u32;
                objects
                    .iter()
                    .map(move |&object| (SourceId(s), o(object), value(s, object)))
            })
            .collect();
        let snapshot = SnapshotView::from_triples(sources.len(), OBJECTS as usize, triples.clone());
        // Probabilities include `-0.0`, `+0.0` and `1.0`; every value of
        // object 49 is `-0.0`.
        let prob = |object: u32, v: ValueId| match (object + v.0) % 5 {
            _ if object == OBJECTS - 1 => -0.0,
            0 => -0.0,
            1 => 0.0,
            2 => 1.0,
            3 => 0.3,
            _ => 1e-310,
        };
        let mut distributions: Vec<(sailing_model::ObjectId, Vec<(ValueId, f64)>)> = Vec::new();
        for object in 0..OBJECTS {
            let mut values: Vec<ValueId> = triples
                .iter()
                .filter(|t| t.1 == o(object))
                .map(|t| t.2)
                .collect();
            values.sort_unstable();
            values.dedup();
            let dist = values.into_iter().map(|v| (v, prob(object, v))).collect();
            distributions.push((o(object), dist));
        }
        let probs = ValueProbabilities::from_object_distributions(distributions);
        // Out-of-range accuracies are clamped; source 5 has none (0.5).
        let accuracies = [0.9, 1.5, -0.2, 0.6, 0.75];
        let mut pairs = Vec::new();
        for a in 0..=sources.len() as u32 {
            for b in a..=sources.len() as u32 {
                // Pairs with a source past the snapshot's sources too.
                pairs.push((SourceId(a), SourceId(b), 0));
            }
        }
        for n_false_values in [1, 10] {
            let params = DetectionParams {
                min_overlap: 0,
                n_false_values,
                ..DetectionParams::default()
            };
            let what = format!("hostile shapes, n_false_values {n_false_values}");
            check_kernel_parity(&what, &snapshot, &pairs, &probs, &accuracies, &params);
        }
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
