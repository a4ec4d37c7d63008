//! End-to-end integration of the `SailingEngine` facade: drive the
//! AbeBooks-like datagen world through engine → fuse → online session →
//! recommend, and assert parity with the old direct-call path on the
//! paper's Tables 1–3 fixtures.

use sailing::core::dissim::RatingView;
use sailing::core::truth::DependenceMatrix;
use sailing::core::{AccuCopy, DetectionParams, NaiveVote, TruthDiscovery};
use sailing::datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing::engine::SailingEngine;
use sailing::fusion::{fuse, FusionStrategy};
use sailing::model::{fixtures, SailingError, SourceId};
use sailing::query::{order_sources, OnlineSession, OrderingPolicy};
use sailing::recommend::{recommend_sources, trust_scores, Goal, TrustWeights};

fn corpus() -> BookCorpus {
    BookCorpus::generate(&BookCorpusConfig::small(7))
}

/// The bookstore world end to end through one analysis: detection, fusion,
/// online answering, and recommendation, with nobody constructing a
/// `DependenceMatrix` or accuracy vector by hand.
#[test]
fn bookstore_world_through_the_engine() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let engine = SailingEngine::builder()
        .params(DetectionParams {
            min_overlap: c.config.min_shared_books,
            threads: 2,
            ..DetectionParams::default()
        })
        .build()
        .unwrap();
    let analysis = engine.analyze(&snapshot);

    // Detection: planted copier clusters are recovered.
    let detected: Vec<_> = analysis
        .dependent_pairs(0.9)
        .iter()
        .map(|p| (p.a, p.b))
        .collect();
    let canon = |&(a, b): &(SourceId, SourceId)| if a < b { (a, b) } else { (b, a) };
    let planted: std::collections::HashSet<_> = c.planted_pairs.iter().map(canon).collect();
    let found: std::collections::HashSet<_> = detected.iter().map(canon).collect();
    let hits = found.intersection(&planted).count();
    assert!(
        hits as f64 / planted.len() as f64 > 0.7,
        "recall too low: {hits} of {}",
        planted.len()
    );

    // Fusion from the cached analysis.
    let outcome = analysis.fuse();
    assert!(c.score_decisions(&linked, &outcome.decisions) > 0.6);
    assert_eq!(outcome.strategy, "accu-copy");

    // Online answering with the auto-seeded session: greedy beats random.
    let quality_after = |policy: &OrderingPolicy, k: usize| {
        let order = analysis.visit_order(policy);
        let mut session = analysis.online_session();
        let steps = session.run_order(&order[..k]);
        c.score_decisions(&linked, &steps.last().unwrap().decisions)
    };
    let greedy10 = quality_after(&OrderingPolicy::GreedyIndependent, 10);
    let random10 = (0..5)
        .map(|s| quality_after(&OrderingPolicy::Random(s), 10))
        .sum::<f64>()
        / 5.0;
    assert!(
        greedy10 > random10,
        "greedy-independent ({greedy10}) must beat random ({random10}) at 10 probes"
    );

    // Recommendation: no confidently-dependent pair among the top 10.
    let recs = analysis.recommend(Goal::TruthSeeking, 10);
    assert_eq!(recs.len(), 10);
    for (i, x) in recs.iter().enumerate() {
        for y in &recs[i + 1..] {
            let dep = analysis.dependence_matrix().dependent(x.source, y.source);
            assert!(
                dep < 0.9,
                "recommended stores {:?} and {:?} are dependent (p = {dep})",
                x.source,
                y.source
            );
        }
    }
}

/// Engine results must be identical to the direct-call path the facade
/// replaced (same pipeline, same parameters → same numbers).
#[test]
fn engine_parity_with_direct_path_on_bookstores() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let params = DetectionParams {
        min_overlap: c.config.min_shared_books,
        ..DetectionParams::default()
    };

    let engine = SailingEngine::builder()
        .params(params.clone())
        .build()
        .unwrap();
    let analysis = engine.analyze(&snapshot);

    // Old direct path: manual pipeline, manual matrix, manual session.
    let direct = AccuCopy::new(params.clone()).unwrap().run(&snapshot);
    let matrix = direct.dependence_matrix();

    assert_eq!(analysis.decisions(), direct.decisions_sorted());
    // Hash-map iteration order varies between runs, so float summation can
    // differ by an ULP; the estimates must agree to high precision.
    assert_eq!(analysis.accuracies().len(), direct.accuracies.len());
    for (a, d) in analysis.accuracies().iter().zip(&direct.accuracies) {
        assert!((a - d).abs() < 1e-9);
    }
    assert_eq!(analysis.dependences().len(), direct.dependences.len());

    // Online sessions agree step for step.
    let order = order_sources(
        &snapshot,
        &direct.accuracies,
        &matrix,
        &OrderingPolicy::ByAccuracy,
    );
    assert_eq!(analysis.visit_order(&OrderingPolicy::ByAccuracy), order);
    let mut manual =
        OnlineSession::new(&snapshot, direct.accuracies.clone(), matrix.clone(), params);
    let mut auto = analysis.online_session();
    for (m, a) in manual
        .run_order(&order[..6])
        .iter()
        .zip(auto.run_order(&order[..6]).iter())
    {
        assert_eq!(m.decisions, a.decisions);
        assert_eq!(m.coverage, a.coverage);
    }

    // Recommendations agree with the hand-assembled path.
    let scores = trust_scores(&snapshot, &direct.accuracies, &matrix, None);
    let manual_recs = recommend_sources(
        &scores,
        &direct.dependences,
        Goal::TruthSeeking,
        &TrustWeights::default(),
        5,
    );
    let auto_recs = analysis.recommend(Goal::TruthSeeking, 5);
    assert_eq!(
        manual_recs.iter().map(|r| r.source).collect::<Vec<_>>(),
        auto_recs.iter().map(|r| r.source).collect::<Vec<_>>()
    );
}

/// Table 1 parity: facade fuse == fusion-crate fuse == raw pipeline, for
/// every rung of the strategy ladder.
#[test]
fn table1_parity_across_all_strategies() {
    let (store, truth) = fixtures::table1();
    let snapshot = store.snapshot();

    let cases: Vec<(FusionStrategy, Box<dyn TruthDiscovery>)> = vec![
        (FusionStrategy::NaiveVote, Box::new(NaiveVote::new())),
        (FusionStrategy::AccuracyVote, Box::new(AccuCopy::baseline())),
        (
            FusionStrategy::dependence_aware(),
            Box::new(AccuCopy::with_defaults()),
        ),
    ];
    for (strategy, discovery) in cases {
        let via_fusion = fuse(&snapshot, &strategy).unwrap();
        let engine = SailingEngine::builder()
            .strategy(EngineStrategy(discovery))
            .build()
            .unwrap();
        let via_engine = engine.analyze(&snapshot).fuse();
        assert_eq!(
            via_fusion.decisions,
            via_engine.decisions,
            "{}",
            strategy.name()
        );
        assert_eq!(
            truth.decision_precision(&via_fusion.decisions),
            truth.decision_precision(&via_engine.decisions)
        );
    }
}

/// Wrapper proving third-party `TruthDiscovery` impls plug into the engine.
struct EngineStrategy(Box<dyn TruthDiscovery>);

impl TruthDiscovery for EngineStrategy {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn discover(&self, snapshot: &sailing::model::SnapshotView) -> sailing::core::PipelineResult {
        self.0.discover(snapshot)
    }
}

/// Table 2 flows (ratings) coexist with the engine: the dissimilarity
/// detector feeds the same recommender the engine uses.
#[test]
fn table2_dissim_feeds_recommendation() {
    let store = fixtures::table2();
    let view = RatingView::from_store(&store, 2);
    let deps = sailing::core::dissim::detect_all(&view, &Default::default());
    let matrix = DependenceMatrix::from_pairs(&deps);
    let snapshot = store.snapshot();
    let scores = trust_scores(&snapshot, &[0.8; 4], &matrix, None);
    let recs = recommend_sources(
        &scores,
        &deps,
        Goal::DiversitySeeking,
        &TrustWeights::default(),
        4,
    );
    assert_eq!(recs.len(), 4);
}

/// Table 3 parity: freshness-aware engine analysis ranks the up-to-date
/// independent above the lazy copier, matching the direct trust path.
#[test]
fn table3_freshness_through_the_engine() {
    let (store, history, _) = fixtures::table3();
    let snapshot = history.latest_snapshot();
    let engine = SailingEngine::with_defaults();
    let analysis = engine.analyze_with_history(snapshot.clone(), history.clone());
    let scores = analysis.trust_scores();

    let direct = AccuCopy::with_defaults().run(&snapshot);
    let manual = trust_scores(
        &snapshot,
        &direct.accuracies,
        &direct.dependence_matrix(),
        Some(&history),
    );
    for (a, m) in scores.iter().zip(&manual) {
        assert!((a.freshness - m.freshness).abs() < 1e-12);
        assert!((a.accuracy - m.accuracy).abs() < 1e-12);
    }

    let s1 = store.source_id("S1").unwrap();
    let s3 = store.source_id("S3").unwrap();
    assert!(
        scores[s1.index()].freshness > scores[s3.index()].freshness,
        "the prompt publisher must be fresher than the lazy copier"
    );
}

/// The acceptance criterion in one test: `OnlineSession`, `FusionOutcome`,
/// and recommendations all flow from one `Analysis`, and invalid
/// configurations surface as typed errors, not strings.
#[test]
fn one_handle_and_typed_errors() {
    let (store, _) = fixtures::table1();
    let snapshot = store.snapshot();
    let analysis = SailingEngine::with_defaults().analyze(&snapshot);

    let _session: OnlineSession<'_> = analysis.online_session();
    let _outcome = analysis.fuse();
    let _recs = analysis.recommend(Goal::TruthSeeking, 3);

    let err: SailingError = SailingEngine::builder()
        .params(DetectionParams {
            n_false_values: 0,
            ..DetectionParams::default()
        })
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        SailingError::InvalidParameter {
            param: "n_false_values",
            ..
        }
    ));
}
