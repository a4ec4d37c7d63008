//! Goal-directed source recommendation.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use sailing_core::report::{DependenceKind, PairDependence};
use sailing_model::SourceId;

use crate::trust::{TrustScore, TrustWeights};

/// What the user is after (the paper's "tricky decision").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Goal {
    /// Find the truth / avoid redundancy: ignore dependent sources.
    TruthSeeking,
    /// Find diverse opinions: deliberately surface sources that are
    /// dissimilarity-dependent on already-recommended ones.
    DiversitySeeking,
}

/// One recommended source with its score and rationale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended source.
    pub source: SourceId,
    /// The goal-adjusted score it was ranked by.
    pub score: f64,
    /// Short human-readable rationale.
    pub rationale: String,
}

/// Ranks sources for a goal, greedily: each round recommends the remaining
/// source with the highest goal-adjusted score.
///
/// * `TruthSeeking`: trust score with full independence weighting; sources
///   that copy already-selected ones sink (greedy redundancy removal).
/// * `DiversitySeeking`: base trust ignores independence, and a bonus is
///   given to sources *dissimilarity*-dependent on an already-selected
///   source — they supply the dissenting view.
///
/// A candidate's score starts at its base trust and is adjusted once per
/// selected source it depends on, in selection order. Only the *first*
/// pair in `dependences` naming the two sources, in either orientation,
/// counts: a later duplicate is ignored, and a first pair with
/// probability below 0.5 leaves the score alone. Scores compare by
/// [`score_order`], ties go to the lower source index, and the
/// rationale names the last selected source that adjusted the score.
///
/// Cost: O(limit · (n + |dependences|)) for `n = scores.len()` — one pass
/// over `dependences` per selection, and one formatted rationale per
/// recommendation.
pub fn recommend_sources(
    scores: &[TrustScore],
    dependences: &[PairDependence],
    goal: Goal,
    weights: &TrustWeights,
    limit: usize,
) -> Vec<Recommendation> {
    let base_weights = match goal {
        Goal::TruthSeeking => *weights,
        // Independence is not a virtue for diversity.
        Goal::DiversitySeeking => TrustWeights {
            independence: 0.0,
            ..*weights
        },
    };
    let base: Vec<f64> = scores.iter().map(|s| s.combined(&base_weights)).collect();
    let n = base.len();
    // Running goal-adjusted score per source, and the wording and source
    // of its latest adjustment.
    let mut score = base.clone();
    let mut adjusted: Vec<Option<(&'static str, SourceId)>> = vec![None; n];
    // `seen[s] == round` once that round's selection met its first pair
    // with `s`.
    let mut seen = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut chosen = Vec::with_capacity(limit.min(n));

    while chosen.len() < limit && !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by(|a, b| score_order(score[*a.1], score[*b.1]).then(b.0.cmp(&a.0)))
            .expect("remaining non-empty");
        let pick = remaining.remove(pos);
        let source = SourceId::from_index(pick);
        let rationale = match adjusted[pick] {
            None => format!("trust {:.2}", base[pick]),
            Some((wording, by)) => format!("trust {:.2}, {wording}{by}", base[pick]),
        };
        chosen.push(Recommendation {
            source,
            score: score[pick],
            rationale,
        });
        if chosen.len() == limit {
            break;
        }
        // Apply this selection's effect. Sources already selected may be
        // adjusted too; nothing reads them again.
        let round = chosen.len();
        for dep in dependences {
            let other = if dep.a.index() == pick {
                dep.b.index()
            } else if dep.b.index() == pick {
                dep.a.index()
            } else {
                continue;
            };
            if other >= n || seen[other] == round {
                continue;
            }
            seen[other] = round;
            if dep.probability < 0.5 {
                continue;
            }
            let wording = match (goal, dep.kind) {
                (Goal::TruthSeeking, _) => {
                    score[other] *= 1.0 - dep.probability;
                    "discounted: dependent on already-selected "
                }
                (Goal::DiversitySeeking, DependenceKind::Dissimilarity) => {
                    score[other] += 0.25 * dep.probability;
                    "boosted: dissenting view of "
                }
                (Goal::DiversitySeeking, DependenceKind::Similarity) => {
                    score[other] *= 1.0 - dep.probability;
                    "discounted: copy of "
                }
            };
            adjusted[other] = Some((wording, source));
        }
    }
    chosen
}

/// The ranking order of two goal-adjusted scores: numbers by
/// [`f64::total_cmp`], every NaN below every number, and any two NaNs
/// equal. Rust leaves the sign of a computed NaN unspecified, so ranking
/// NaNs by their bits would rank a source by how the compiler ordered
/// the operands of its score.
pub fn score_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(&b),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::report::Direction;

    fn score(acc: f64) -> TrustScore {
        TrustScore {
            accuracy: acc,
            coverage: 1.0,
            freshness: 1.0,
            independence: 1.0,
        }
    }

    fn dep(a: u32, b: u32, kind: DependenceKind, p: f64) -> PairDependence {
        PairDependence {
            a: SourceId(a),
            b: SourceId(b),
            probability: p,
            prob_a_on_b: 0.9,
            kind,
            direction: Direction::AOnB,
            overlap: 10,
            diagnostic: 0.0,
        }
    }

    #[test]
    fn truth_seeking_skips_copies() {
        // Source 1 copies source 0; source 2 independent but less accurate.
        let scores = vec![score(0.95), score(0.94), score(0.8)];
        let deps = vec![dep(1, 0, DependenceKind::Similarity, 0.95)];
        let recs = recommend_sources(
            &scores,
            &deps,
            Goal::TruthSeeking,
            &TrustWeights::default(),
            2,
        );
        assert_eq!(recs[0].source, SourceId(0));
        assert_eq!(
            recs[1].source,
            SourceId(2),
            "the copy must be skipped in favour of the independent source: {recs:?}"
        );
        assert!(recs[1].score > 0.0);
    }

    #[test]
    fn diversity_seeking_boosts_dissenters() {
        // Source 1 dissents from source 0; source 2 independent, slightly
        // more trustworthy than 1.
        let scores = vec![score(0.95), score(0.7), score(0.75)];
        let deps = vec![dep(1, 0, DependenceKind::Dissimilarity, 0.9)];
        let recs = recommend_sources(
            &scores,
            &deps,
            Goal::DiversitySeeking,
            &TrustWeights::default(),
            2,
        );
        assert_eq!(recs[0].source, SourceId(0));
        assert_eq!(
            recs[1].source,
            SourceId(1),
            "the dissenting source should be surfaced for diversity: {recs:?}"
        );
        assert!(recs[1].rationale.contains("dissenting"));
    }

    #[test]
    fn diversity_seeking_still_skips_plain_copies() {
        let scores = vec![score(0.95), score(0.94), score(0.7)];
        let deps = vec![dep(1, 0, DependenceKind::Similarity, 0.95)];
        let recs = recommend_sources(
            &scores,
            &deps,
            Goal::DiversitySeeking,
            &TrustWeights::default(),
            2,
        );
        assert_eq!(recs[1].source, SourceId(2));
    }

    #[test]
    fn limit_and_empty_inputs() {
        let recs = recommend_sources(&[], &[], Goal::TruthSeeking, &TrustWeights::default(), 3);
        assert!(recs.is_empty());
        let scores = vec![score(0.9), score(0.8)];
        let recs = recommend_sources(
            &scores,
            &[],
            Goal::TruthSeeking,
            &TrustWeights::default(),
            10,
        );
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].source, SourceId(0));
    }

    #[test]
    fn weak_dependences_are_ignored() {
        let scores = vec![score(0.95), score(0.94)];
        let deps = vec![dep(1, 0, DependenceKind::Similarity, 0.3)];
        let recs = recommend_sources(
            &scores,
            &deps,
            Goal::TruthSeeking,
            &TrustWeights::default(),
            2,
        );
        // Below the 0.5 bar the dependence does not discount.
        assert!((recs[1].score - scores[1].combined(&TrustWeights::default())).abs() < 1e-9);
    }

    /// SplitMix64: a seeded generator, so every failing case replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A factor in [0, 1], now and then exactly 0.5.
        fn factor(&mut self) -> f64 {
            if self.below(8) == 0 {
                0.5
            } else {
                self.unit()
            }
        }

        /// A dependence probability, with the 0.5 boundary drawn on
        /// purpose.
        fn probability(&mut self) -> f64 {
            match self.below(6) {
                0 => 0.5,
                1 => 1.0,
                _ => self.unit(),
            }
        }
    }

    #[test]
    fn greedy_matches_reference_loop() {
        let mut rng = Rng(0x5a11_1e55);
        for case in 0..3000 {
            let n = rng.below(9);
            // NaNs of either sign enter through any score factor and any
            // probability, several at once. An `f64` operation on two NaNs
            // may return either operand's sign, so NaN scores must rank
            // alike whatever their bits.
            let nan = |rng: &mut Rng| [f64::NAN, -f64::NAN][rng.below(2)];
            let scores: Vec<TrustScore> = (0..n)
                .map(|_| {
                    let mut factors = [rng.factor(), rng.factor(), rng.factor(), rng.factor()];
                    for factor in &mut factors {
                        if rng.below(8) == 0 {
                            *factor = nan(&mut rng);
                        }
                    }
                    let [accuracy, coverage, freshness, independence] = factors;
                    TrustScore {
                        accuracy,
                        coverage,
                        freshness,
                        independence,
                    }
                })
                .collect();
            // Ids run past `n`; small id ranges make duplicates common,
            // and some pairs are repeated reversed with other values.
            let mut deps = Vec::new();
            for _ in 0..rng.below(3 * n + 3) {
                let kind = |rng: &mut Rng| {
                    if rng.below(2) == 0 {
                        DependenceKind::Similarity
                    } else {
                        DependenceKind::Dissimilarity
                    }
                };
                let (a, b) = (rng.below(n + 2) as u32, rng.below(n + 2) as u32);
                let (k, p) = (kind(&mut rng), rng.probability());
                deps.push(dep(a, b, k, p));
                if rng.below(4) == 0 {
                    let (k, p) = (kind(&mut rng), rng.probability());
                    deps.push(dep(b, a, k, p));
                }
            }
            for dep in &mut deps {
                if rng.below(6) == 0 {
                    dep.probability = nan(&mut rng);
                }
            }
            let weights = if rng.below(2) == 0 {
                TrustWeights::default()
            } else {
                TrustWeights {
                    accuracy: rng.unit(),
                    coverage: rng.unit(),
                    freshness: rng.unit(),
                    independence: rng.unit(),
                }
            };
            for goal in [Goal::TruthSeeking, Goal::DiversitySeeking] {
                for limit in [0, 1, 5, n + 3] {
                    let fast = recommend_sources(&scores, &deps, goal, &weights, limit);
                    let slow = reference::recommend_sources_reference(
                        &scores, &deps, goal, &weights, limit,
                    );
                    // Scores compare by bits, except that any two NaNs match.
                    let key = |recs: &[Recommendation]| {
                        recs.iter()
                            .map(|r| {
                                let bits = (!r.score.is_nan()).then(|| r.score.to_bits());
                                (r.source, bits, r.rationale.clone())
                            })
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        key(&fast),
                        key(&slow),
                        "case {case}, {goal:?}, limit {limit}: scores {scores:?}, deps {deps:?}"
                    );
                }
            }
        }
    }
}
