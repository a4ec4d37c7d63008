//! The overlap-property test: partial copying and direction evidence.
//!
//! Section 3.2's second intuition: "we consider the data source whose
//! different subsets of data show different properties ... as more likely to
//! be dependent on the other". For snapshot data the property function is
//! accuracy: if a source's accuracy on the items it shares with another
//! source differs significantly from its accuracy on its private items, the
//! shared part was probably copied (Section 3.1, *Partial dependence*).
//! Copy detection computes the hint inside its own per-pair merge;
//! [`direction_hint`] is the reference form it matches bit for bit.

use sailing_model::{SnapshotView, SourceId};

use crate::truth::ValueProbabilities;

/// Accuracy of one source contrasted between its overlap with another source
/// and its private remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapContrast {
    /// Expected accuracy on the shared items.
    pub overlap_accuracy: f64,
    /// Expected accuracy on the private items.
    pub private_accuracy: f64,
    /// Number of shared items.
    pub overlap_count: usize,
    /// Number of private items.
    pub private_count: usize,
    /// Two-proportion z statistic (overlap minus private); large magnitude
    /// means the two subsets behave like different sources.
    pub z_score: f64,
}

impl OverlapContrast {
    /// Absolute contrast — the paper's `f(D1 ∩ D2) ≠ f(D1 \ D2)` signal.
    pub fn contrast(&self) -> f64 {
        (self.overlap_accuracy - self.private_accuracy).abs()
    }

    /// The contrast from one source's `(probability sum, item count)` over
    /// its shared and its private items, each sum taken in object order;
    /// `None` when either subset is empty.
    #[inline]
    pub(crate) fn from_sums(
        (overlap_sum, overlap_n): (f64, usize),
        (private_sum, private_n): (f64, usize),
    ) -> Option<Self> {
        if overlap_n == 0 || private_n == 0 {
            return None;
        }
        let p1 = overlap_sum / overlap_n as f64;
        let p2 = private_sum / private_n as f64;
        let pooled = (overlap_sum + private_sum) / (overlap_n + private_n) as f64;
        let se = (pooled * (1.0 - pooled) * (1.0 / overlap_n as f64 + 1.0 / private_n as f64))
            .sqrt()
            .max(1e-9);
        Some(Self {
            overlap_accuracy: p1,
            private_accuracy: p2,
            overlap_count: overlap_n,
            private_count: private_n,
            z_score: (p1 - p2) / se,
        })
    }
}

/// Computes the overlap/private accuracy contrast of `subject` with respect
/// to `other`, using the current value probabilities as soft truth.
///
/// Returns `None` when either subset is empty (no contrast measurable).
pub fn overlap_contrast(
    snapshot: &SnapshotView,
    subject: SourceId,
    other: SourceId,
    probs: &ValueProbabilities,
) -> Option<OverlapContrast> {
    let mut overlap_sum = 0.0;
    let mut overlap_n = 0usize;
    let mut private_sum = 0.0;
    let mut private_n = 0usize;
    for (object, value) in snapshot.assertions_of(subject) {
        let p = probs.prob(object, value);
        if snapshot.value(other, object).is_some() {
            overlap_sum += p;
            overlap_n += 1;
        } else {
            private_sum += p;
            private_n += 1;
        }
    }
    OverlapContrast::from_sums((overlap_sum, overlap_n), (private_sum, private_n))
}

/// Direction hint from the overlap-property intuition: of the two sources,
/// the one whose behaviour *changes more* between shared and private items
/// is the likelier copier.
///
/// Returns the probability that `a` is the dependent side, in `[0, 1]`,
/// or `None` when neither source has measurable contrast.
pub fn direction_hint(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
) -> Option<f64> {
    let weight = |subject, other| overlap_contrast(snapshot, subject, other, probs);
    blend_contrasts(
        weight(a, b).map(|c| c.contrast()),
        weight(b, a).map(|c| c.contrast()),
    )
}

/// [`direction_hint`] from the two sides' [`OverlapContrast::contrast`]s:
/// `ca` of `a` against `b`, `cb` of `b` against `a`.
pub(crate) fn blend_contrasts(ca: Option<f64>, cb: Option<f64>) -> Option<f64> {
    match (ca, cb) {
        (Some(wa), Some(wb)) => {
            if wa + wb < 1e-9 {
                Some(0.5)
            } else {
                Some(wa / (wa + wb))
            }
        }
        // A source with *no private data* is fully contained in the other —
        // containment is itself copying evidence for the contained side.
        (None, Some(_)) => Some(0.8),
        (Some(_), None) => Some(0.2),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DetectionParams;
    use crate::truth::{weighted_vote, DependenceMatrix};
    use sailing_model::ClaimStoreBuilder;

    /// A world where PC copies `orig` on half its items (the shared half,
    /// where `orig` is wrong) and answers correctly on its private half.
    fn partial_copier_world() -> (sailing_model::ClaimStore, ValueProbabilities) {
        let mut b = ClaimStoreBuilder::new();
        // 6 shared objects: orig asserts a wrong value, PC copies it.
        for i in 0..6 {
            let o = format!("shared{i}");
            b.add("orig", &o, "wrong");
            b.add("pc", &o, "wrong");
            // 3 independent accurate voters establish the consensus truth.
            b.add("v1", &o, "right");
            b.add("v2", &o, "right");
            b.add("v3", &o, "right");
        }
        // 6 private objects where PC is right.
        for i in 0..6 {
            let o = format!("private{i}");
            b.add("pc", &o, "right");
            b.add("v1", &o, "right");
            b.add("v2", &o, "right");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);
        (store, probs)
    }

    #[test]
    fn partial_copier_shows_contrast() {
        let (store, probs) = partial_copier_world();
        let snap = store.snapshot();
        let pc = store.source_id("pc").unwrap();
        let orig = store.source_id("orig").unwrap();
        let c = overlap_contrast(&snap, pc, orig, &probs).unwrap();
        assert_eq!(c.overlap_count, 6);
        assert_eq!(c.private_count, 6);
        assert!(
            c.overlap_accuracy < c.private_accuracy,
            "copied (wrong) half must look less accurate: {c:?}"
        );
        assert!(c.contrast() > 0.3);
        assert!(c.z_score.abs() >= 1.96, "significant at 5%: {c:?}");
        assert!(c.z_score < 0.0);
    }

    #[test]
    fn consistent_source_shows_no_contrast() {
        let (store, probs) = partial_copier_world();
        let snap = store.snapshot();
        let v1 = store.source_id("v1").unwrap();
        let v2 = store.source_id("v2").unwrap();
        // v1 is right everywhere; contrast vs v2 should be tiny.
        if let Some(c) = overlap_contrast(&snap, v1, v2, &probs) {
            assert!(c.contrast() < 0.15, "uniformly accurate source: {c:?}");
        }
    }

    #[test]
    fn contrast_requires_both_subsets() {
        let (store, probs) = partial_copier_world();
        let snap = store.snapshot();
        let orig = store.source_id("orig").unwrap();
        let pc = store.source_id("pc").unwrap();
        // orig has no private items relative to pc → None.
        assert!(overlap_contrast(&snap, orig, pc, &probs).is_none());
    }

    #[test]
    fn direction_hint_blames_the_partial_copier() {
        let (store, probs) = partial_copier_world();
        let snap = store.snapshot();
        let pc = store.source_id("pc").unwrap();
        let orig = store.source_id("orig").unwrap();
        // orig ⊂ pc: containment puts weight on orig? No — orig has no
        // private data, so the hint reports the contained source (orig) as
        // the likelier copier at 0.8 when asked with orig first.
        let hint = direction_hint(&snap, orig, pc, &probs).unwrap();
        assert!((hint - 0.8).abs() < 1e-9);
        let hint_rev = direction_hint(&snap, pc, orig, &probs).unwrap();
        assert!((hint_rev - 0.2).abs() < 1e-9);
    }

    #[test]
    fn direction_hint_symmetric_when_balanced() {
        let mut b = ClaimStoreBuilder::new();
        for i in 0..4 {
            b.add("a", &format!("s{i}"), "v");
            b.add("b", &format!("s{i}"), "v");
            b.add("a", &format!("pa{i}"), "v");
            b.add("b", &format!("pb{i}"), "v");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);
        let a = store.source_id("a").unwrap();
        let bb = store.source_id("b").unwrap();
        let hint = direction_hint(&snap, a, bb, &probs).unwrap();
        assert!((hint - 0.5).abs() < 0.2);
    }
}
