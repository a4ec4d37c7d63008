//! The original greedy loop of [`super::recommend_sources`], kept only as
//! a test oracle: every round re-scores each remaining candidate against
//! every picked source with a linear scan of the dependence list, and
//! formats a rationale for every candidate. The fast path must agree
//! with it bit for bit — sources, score bits and rationale strings.
//!
//! The file is compiled into the tests of `sailing-recommend` and, through
//! `#[path]`, into the workspace's engine-level parity test. It names its
//! types through `super`, so the including module must have `Goal`,
//! `Recommendation`, `TrustScore`, `TrustWeights`, `PairDependence`,
//! `DependenceKind`, `SourceId` and `score_order` in scope.

use super::{
    score_order, DependenceKind, Goal, PairDependence, Recommendation, SourceId, TrustScore,
    TrustWeights,
};

/// Reference ranking: O(limit · n · limit · |dependences|).
pub fn recommend_sources_reference(
    scores: &[TrustScore],
    dependences: &[PairDependence],
    goal: Goal,
    weights: &TrustWeights,
    limit: usize,
) -> Vec<Recommendation> {
    let n = scores.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut chosen: Vec<Recommendation> = Vec::new();

    let dep_between = |x: usize, y: usize| -> Option<&PairDependence> {
        dependences.iter().find(|p| {
            (p.a.index() == x && p.b.index() == y) || (p.a.index() == y && p.b.index() == x)
        })
    };

    while chosen.len() < limit && !remaining.is_empty() {
        let (pos, best, rationale) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let base = match goal {
                    Goal::TruthSeeking => scores[i].combined(weights),
                    Goal::DiversitySeeking => {
                        // Independence is not a virtue for diversity.
                        let w = TrustWeights {
                            independence: 0.0,
                            ..*weights
                        };
                        scores[i].combined(&w)
                    }
                };
                let mut score = base;
                let mut rationale = format!("trust {base:.2}");
                for picked in &chosen {
                    if let Some(dep) = dep_between(i, picked.source.index()) {
                        if dep.probability < 0.5 {
                            continue;
                        }
                        match (goal, dep.kind) {
                            (Goal::TruthSeeking, _) => {
                                score *= 1.0 - dep.probability;
                                rationale = format!(
                                    "trust {base:.2}, discounted: dependent on already-selected {}",
                                    picked.source
                                );
                            }
                            (Goal::DiversitySeeking, DependenceKind::Dissimilarity) => {
                                score += 0.25 * dep.probability;
                                rationale = format!(
                                    "trust {base:.2}, boosted: dissenting view of {}",
                                    picked.source
                                );
                            }
                            (Goal::DiversitySeeking, DependenceKind::Similarity) => {
                                score *= 1.0 - dep.probability;
                                rationale = format!(
                                    "trust {base:.2}, discounted: copy of {}",
                                    picked.source
                                );
                            }
                        }
                    }
                }
                (pos, score, rationale)
            })
            .max_by(|a, b| score_order(a.1, b.1).then(b.0.cmp(&a.0)))
            .expect("remaining non-empty");
        let source = SourceId::from_index(remaining.remove(pos));
        chosen.push(Recommendation {
            source,
            score: best,
            rationale,
        });
    }
    chosen
}
