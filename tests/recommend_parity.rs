//! Engine-level parity of source recommendation: `Analysis::recommend`
//! (the greedy ranking that applies one pass over the dependences per
//! pick, answered from a per-goal memo where its answer is a prefix of
//! the memo) must return exactly what the original re-scoring loop
//! returns on real analyses — the same sources, the same score bits and
//! the same rationale strings, for both goals and in every call order.
//!
//! The reference loop is the test-only file of `sailing-recommend`,
//! compiled in here through `#[path]`. Compiled into another crate than
//! the fast path, it may give a NaN computed from two NaN operands the
//! other sign, so NaN scores compare as "both NaN" rather than by bits.

use std::sync::Arc;

use sailing::core::report::{DependenceKind, PairDependence};
use sailing::datagen::world::{SnapshotWorld, WorldConfig};
use sailing::datagen::{ChurnConfig, ChurnWorld};
use sailing::engine::{Analysis, SailingEngine};
use sailing::model::{fixtures, SnapshotView, SourceId};
use sailing::recommend::recommend::score_order;
use sailing::recommend::{recommend_sources, Goal, Recommendation, TrustScore, TrustWeights};

#[path = "../crates/recommend/src/recommend/reference.rs"]
mod reference;

fn key(recs: &[Recommendation]) -> Vec<(SourceId, Option<u64>, String)> {
    recs.iter()
        .map(|r| {
            let bits = (!r.score.is_nan()).then(|| r.score.to_bits());
            (r.source, bits, r.rationale.clone())
        })
        .collect()
}

/// Compares one `recommend` call with the reference loop; returns how
/// many recommendations carried a dependence adjustment.
fn compare(label: &str, analysis: &Analysis, goal: Goal, limit: usize) -> usize {
    let fast = analysis.recommend(goal, limit);
    let slow = reference::recommend_sources_reference(
        analysis.trust_scores(),
        analysis.dependences(),
        goal,
        &TrustWeights::default(),
        limit,
    );
    assert_eq!(key(&fast), key(&slow), "{label}: {goal:?}, limit {limit}");
    assert_eq!(fast.len(), limit.min(analysis.snapshot().num_sources()));
    fast.iter().filter(|r| r.rationale.contains(": ")).count()
}

/// Checks every goal and a spread of limits on one snapshot, in call
/// orders that hit and miss each goal's memo, each on a fresh analysis;
/// returns how many recommendations carried a dependence adjustment, so
/// callers can see the worlds exercise more than base trust.
fn check(label: &str, snapshot: SnapshotView) -> usize {
    let snapshot = Arc::new(snapshot);
    let fresh = || SailingEngine::with_defaults().analyze_owned(Arc::clone(&snapshot));
    let n = snapshot.num_sources();
    let descending = [n + 1, n, n / 2, 3, 1, 0];
    let mut ascending = descending;
    ascending.reverse();
    let mut adjusted = 0;
    for goal in [Goal::TruthSeeking, Goal::DiversitySeeking] {
        // The first call fills the memo with every source, so each later
        // one is a prefix of it.
        let filled = fresh();
        for limit in descending {
            adjusted += compare(&format!("{label} descending"), &filled, goal, limit);
        }
        // Limit 0 leaves the memo empty and limit 1 fills it, so each
        // longer call misses it.
        let grown = fresh();
        for limit in ascending {
            compare(&format!("{label} ascending"), &grown, goal, limit);
        }
        // Clones read the memos their originals filled.
        for (order, original) in [("descending", &filled), ("ascending", &grown)] {
            let clone = original.clone();
            for limit in ascending {
                compare(&format!("{label} clone ({order})"), &clone, goal, limit);
            }
        }
    }
    adjusted
}

#[test]
fn table1_recommendations_match_the_reference_loop() {
    let (store, _) = fixtures::table1();
    assert!(check("table 1", store.snapshot()) > 0);
}

/// Churn cohorts hold independent sources, so no pair reaches the 0.5
/// bar: this pins the base-trust ranking that streaming ingest serves.
#[test]
fn streaming_world_recommendations_match_the_reference_loop() {
    let world = ChurnWorld::generate(&ChurnConfig::streaming(6, 3, 10, 3, 21));
    check("streaming initial", world.initial.clone());
    for (epoch, snapshot) in world.snapshots().into_iter().enumerate() {
        check(&format!("streaming epoch {epoch}"), snapshot);
    }
}

/// Every tenth specialist source copies its predecessor, so picks meet
/// both strong and weak pairs across a list that names every pair.
#[test]
fn specialist_world_recommendations_match_the_reference_loop() {
    for seed in 0..3 {
        let world = SnapshotWorld::generate(&WorldConfig::specialist(30, 120, 40, seed));
        assert!(check(&format!("specialist seed {seed}"), world.snapshot) > 0);
    }
}

/// A specialist analysis's trust scores and dependences with NaNs of both
/// signs planted in score factors and probabilities, several per score:
/// every NaN ranks below every number and ties go to the lower source,
/// so both loops pick the same sources whatever sign each NaN gets.
#[test]
fn nan_scores_rank_alike_in_both_loops() {
    let world = SnapshotWorld::generate(&WorldConfig::specialist(30, 120, 40, 1));
    let analysis = SailingEngine::with_defaults().analyze_owned(Arc::new(world.snapshot));
    let nan = |i: usize| {
        if i.is_multiple_of(2) {
            f64::NAN
        } else {
            -f64::NAN
        }
    };
    let scores: Vec<TrustScore> = analysis
        .trust_scores()
        .iter()
        .enumerate()
        .map(|(i, s)| match i % 5 {
            0 => TrustScore {
                accuracy: nan(i),
                independence: nan(i + 1),
                ..*s
            },
            1 => TrustScore {
                coverage: nan(i),
                ..*s
            },
            _ => *s,
        })
        .collect();
    let dependences: Vec<PairDependence> = analysis
        .dependences()
        .iter()
        .enumerate()
        .map(|(i, d)| PairDependence {
            probability: if i % 4 == 0 {
                nan(i / 4)
            } else {
                d.probability
            },
            ..d.clone()
        })
        .collect();
    let n = scores.len();
    for goal in [Goal::TruthSeeking, Goal::DiversitySeeking] {
        for limit in [1, n / 2, n] {
            let fast =
                recommend_sources(&scores, &dependences, goal, &TrustWeights::default(), limit);
            let slow = reference::recommend_sources_reference(
                &scores,
                &dependences,
                goal,
                &TrustWeights::default(),
                limit,
            );
            assert_eq!(key(&fast), key(&slow), "{goal:?}, limit {limit}");
            // NaN scores trail every number.
            let first_nan = fast.iter().position(|r| r.score.is_nan()).unwrap_or(limit);
            assert!(fast[first_nan..].iter().all(|r| r.score.is_nan()));
        }
    }
    assert_eq!(score_order(f64::NAN, -f64::NAN), std::cmp::Ordering::Equal);
    assert_eq!(
        score_order(-f64::NAN, f64::NEG_INFINITY),
        std::cmp::Ordering::Less
    );
}
