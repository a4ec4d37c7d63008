//! End-to-end integration over the Example 4.1 bookstore scenario:
//! generation → record linkage → dependence detection → fusion → online
//! query answering → recommendation.

use sailing::core::truth::DependenceMatrix;
use sailing::core::{AccuCopy, DetectionParams};
use sailing::datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing::fusion::{fuse, FusionStrategy};
use sailing::query::{order_sources, OnlineSession, OrderingPolicy};
use sailing::recommend::{recommend_sources, trust_scores, Goal, TrustWeights};

fn corpus() -> BookCorpus {
    BookCorpus::generate(&BookCorpusConfig::small(7))
}

#[test]
fn corpus_statistics_match_configuration() {
    let c = corpus();
    let stats = c.stats();
    assert_eq!(stats.stores, c.config.num_stores);
    assert!(stats.books as f64 > c.config.num_books as f64 * 0.85);
    assert!(stats.listings >= c.config.target_listings * 2 / 3);
    assert!(stats.coverage.1 <= c.config.max_store_coverage);
    assert!(stats.candidate_pairs_min_shared >= c.planted_pairs.len());
}

#[test]
fn linkage_then_detection_recovers_planted_clusters() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let params = DetectionParams {
        min_overlap: c.config.min_shared_books,
        threads: 2,
        ..DetectionParams::default()
    };
    let result = AccuCopy::new(params).unwrap().run(&snapshot);
    let detected: Vec<_> = result
        .dependent_pairs(0.9)
        .iter()
        .map(|p| (p.a, p.b))
        .collect();
    let canon = |&(a, b): &(sailing::model::SourceId, sailing::model::SourceId)| {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    };
    let planted: std::collections::HashSet<_> = c.planted_pairs.iter().map(canon).collect();
    let found: std::collections::HashSet<_> = detected.iter().map(canon).collect();
    let hits = found.intersection(&planted).count();
    let recall = hits as f64 / planted.len() as f64;
    let precision = if found.is_empty() {
        1.0
    } else {
        hits as f64 / found.len() as f64
    };
    assert!(
        recall > 0.7,
        "planted clusters must be recovered: recall {recall} ({hits} of {})",
        planted.len()
    );
    assert!(
        precision > 0.7,
        "screening at ≥10 shared books must keep precision high: {precision}"
    );
}

/// The ROADMAP's precision item: at the generic default (`min_overlap = 3`)
/// copy detection on the seed-42 corpus drowns in coincidental small
/// overlaps; attaching the corpus config makes the Example 4.1 screening
/// (≥ 10 shared books) the engine default and restores precision.
#[test]
fn corpus_screening_default_restores_precision_on_seed42() {
    let c = BookCorpus::generate(&BookCorpusConfig::small(42));
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let canon = |&(a, b): &(sailing::model::SourceId, sailing::model::SourceId)| {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    };
    let planted: std::collections::HashSet<_> = c.planted_pairs.iter().map(canon).collect();
    // Returns (precision, recall); an empty detection set scores precision
    // 1.0 but recall 0.0, so the assertions below cannot pass vacuously.
    let quality_of = |engine: &sailing::engine::SailingEngine| {
        let analysis = engine.analyze(&snapshot);
        let found: std::collections::HashSet<_> = analysis
            .dependent_pairs(0.9)
            .iter()
            .map(|p| canon(&(p.a, p.b)))
            .collect();
        let hits = found.intersection(&planted).count();
        let precision = if found.is_empty() {
            1.0
        } else {
            hits as f64 / found.len() as f64
        };
        (precision, hits as f64 / planted.len().max(1) as f64)
    };

    let two_threads = DetectionParams {
        threads: 2,
        ..DetectionParams::default()
    };
    let generic = sailing::engine::SailingEngine::builder()
        .params(two_threads.clone())
        .build()
        .unwrap();
    let screened = sailing::engine::SailingEngine::builder()
        .params(two_threads)
        .bookstore_corpus(&c.config)
        .build()
        .unwrap();
    assert_eq!(screened.params().min_overlap, c.config.min_shared_books);

    let (p_generic, _) = quality_of(&generic);
    let (p_screened, r_screened) = quality_of(&screened);
    assert!(
        p_screened > 0.7,
        "corpus-aware screening must keep precision high: {p_screened}"
    );
    assert!(
        r_screened > 0.7,
        "screening must still find the planted clusters: recall {r_screened}"
    );
    assert!(
        p_screened > p_generic,
        "screening must improve on the generic floor: {p_screened} vs {p_generic}"
    );
}

#[test]
fn fusion_quality_is_high_and_aware_not_worse() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let naive = fuse(&snapshot, &FusionStrategy::NaiveVote).unwrap();
    let aware = fuse(&snapshot, &FusionStrategy::dependence_aware()).unwrap();
    let s_naive = c.score_decisions(&linked, &naive.decisions);
    let s_aware = c.score_decisions(&linked, &aware.decisions);
    assert!(s_naive > 0.6, "naive {s_naive}");
    assert!(
        s_aware >= s_naive - 0.05,
        "aware {s_aware} should not trail naive {s_naive} materially"
    );
}

#[test]
fn online_ordering_quality_trajectory() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let pilot = AccuCopy::with_defaults().run(&snapshot);
    let deps = pilot.dependence_matrix();

    let quality_after = |policy: &OrderingPolicy, k: usize| {
        let order = order_sources(&snapshot, &pilot.accuracies, &deps, policy);
        let mut session = OnlineSession::new(
            &snapshot,
            pilot.accuracies.clone(),
            deps.clone(),
            DetectionParams::default(),
        );
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
}

#[test]
fn recommendation_prefers_independent_stores() {
    let c = corpus();
    let linked = c.author_claim_store(true);
    let snapshot = linked.snapshot();
    let result = AccuCopy::with_defaults().run(&snapshot);
    let matrix = result.dependence_matrix();
    let scores = trust_scores(&snapshot, &result.accuracies, &matrix, None);
    let recs = recommend_sources(
        &scores,
        &result.dependences,
        Goal::TruthSeeking,
        &TrustWeights::default(),
        10,
    );
    assert_eq!(recs.len(), 10);
    // No two recommended stores should be a confidently-dependent pair.
    for (i, x) in recs.iter().enumerate() {
        for y in &recs[i + 1..] {
            let dep = matrix.dependent(x.source, y.source);
            assert!(
                dep < 0.9,
                "recommended stores {:?} and {:?} are dependent (p = {dep})",
                x.source,
                y.source
            );
        }
    }
}

#[test]
fn raw_vs_linked_value_spaces() {
    let c = corpus();
    let raw = c.author_claim_store(false);
    let linked = c.author_claim_store(true);
    assert_eq!(raw.num_claims(), linked.num_claims());
    assert!(linked.num_values() < raw.num_values());
    // Linkage must not change which stores cover which books.
    let s0 = sailing::model::SourceId(0);
    assert_eq!(raw.snapshot().coverage(s0), linked.snapshot().coverage(s0));
    let _ = DependenceMatrix::new();
}
