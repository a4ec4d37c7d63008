//! The two-way merge kernel that [`super::DetectionPass::evidence`]
//! replaced, kept only as a test oracle: one merge over both sources' full
//! sorted assertion slices, recomputing the per-pair probabilities and logs
//! at every shared object and the log-priors at every posterior. The
//! scatter-indexed kernel must agree with it bit for bit on every
//! [`PairDependence`] field and on the side sums of the direction hint.
//!
//! [`oracle_worlds`] lists the worlds the parity tests of
//! [`crate::copy`] and [`crate::pairs`] run on.

use sailing_datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing_datagen::temporal::{table3_style, TemporalWorld};
use sailing_datagen::world::{SnapshotWorld, WorldConfig};
use sailing_datagen::{ChurnConfig, ChurnWorld, VariantWorld, VariantWorldConfig};
use sailing_model::fixtures;

use super::*;

impl DetectionPass<'_> {
    /// The merge kernel, as it was.
    pub(crate) fn evidence_reference(
        &self,
        a: SourceId,
        b: SourceId,
    ) -> (PairLikelihoods, [SideSums; 2]) {
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

    /// The row as the merge kernel gave it: [`posterior`] (log-priors
    /// recomputed per pair), then the direction-hint blend.
    pub(crate) fn detect_reference(&self, a: SourceId, b: SourceId) -> Option<PairDependence> {
        let (lik, [side_a, side_b]) = self.evidence_reference(a, b);
        if lik.overlap < self.params.min_overlap {
            return None;
        }
        let mut dep = posterior(a, b, &lik, self.params);
        let weight =
            |(shared, private)| OverlapContrast::from_sums(shared, private).map(|c| c.contrast());
        let (ca, cb) = (weight(side_a), weight(side_b));
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

/// The datagen worlds and paper fixtures the kernel oracle runs on, each
/// with the detection parameters its experiments use.
pub(crate) fn oracle_worlds() -> Vec<(String, SnapshotView, DetectionParams)> {
    let params = DetectionParams::default();
    let mut worlds = vec![
        ("table 1".to_string(), fixtures::table1().0.snapshot()),
        ("table 2".to_string(), fixtures::table2().snapshot()),
        (
            "table 3".to_string(),
            fixtures::table3().1.latest_snapshot(),
        ),
        (
            "specialist".to_string(),
            SnapshotWorld::generate(&WorldConfig::specialist(100, 400, 40, 2)).snapshot,
        ),
        (
            "mixed".to_string(),
            SnapshotWorld::generate(&WorldConfig::mixed(200, 12, 4, (0.3, 0.9), 3)).snapshot,
        ),
        (
            "table3_style".to_string(),
            TemporalWorld::generate(&table3_style(120, 2, 20).0)
                .history
                .latest_snapshot(),
        ),
        (
            "variants".to_string(),
            VariantWorld::generate(&VariantWorldConfig::messy(120, 8, 42)).snapshot,
        ),
    ];
    let churn = ChurnWorld::generate(&ChurnConfig::streaming(6, 3, 10, 3, 21));
    let epochs = churn.snapshots();
    worlds.push(("churn initial".to_string(), churn.initial));
    for (epoch, snapshot) in epochs.into_iter().enumerate() {
        worlds.push((format!("churn epoch {epoch}"), snapshot));
    }
    let mut worlds: Vec<_> = worlds
        .into_iter()
        .map(|(name, snapshot)| (name, snapshot, params.clone()))
        .collect();
    let corpus = BookCorpus::generate(&BookCorpusConfig::small(42));
    for linked in [false, true] {
        worlds.push((
            format!("bookstores linked={linked}"),
            corpus.author_claim_store(linked).snapshot(),
            DetectionParams {
                min_overlap: corpus.config.min_shared_books,
                ..params.clone()
            },
        ));
    }
    worlds
}
