//! The AbeBooks scenario of Example 4.1: integrate messy author lists from
//! hundreds of bookstores, some of which copy each other.
//!
//! Pipeline: generate the corpus → record linkage (cluster alternative
//! author-list representations) → one `SailingEngine` analysis → fusion
//! ladder, copy-detection scoring, and online query answering, all derived
//! from the same cached analysis.
//!
//! Run with `cargo run --release --example bookstore_fusion`.

use sailing::core::{AccuCopy, DetectionParams, NaiveVote};
use sailing::datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing::engine::SailingEngine;
use sailing::query::OrderingPolicy;

fn main() -> Result<(), sailing::SailingError> {
    let config = BookCorpusConfig::small(42);
    let corpus = BookCorpus::generate(&config);
    let stats = corpus.stats();
    println!("== Synthetic AbeBooks-like corpus (1/8 scale) ==");
    println!(
        "  stores: {}, books: {}, listings: {}",
        stats.stores, stats.books, stats.listings
    );
    println!(
        "  author variants per book: {}–{} (mean {:.1})",
        stats.author_variants.0, stats.author_variants.2, stats.author_variants.1
    );
    println!(
        "  books per store: {}–{}, accuracy: {:.2}–{:.2}",
        stats.coverage.0, stats.coverage.1, stats.accuracy.0, stats.accuracy.1
    );
    println!(
        "  store pairs sharing ≥{} books: {}",
        config.min_shared_books, stats.candidate_pairs_min_shared
    );

    // Record linkage merges representational variants before fusion.
    let raw = corpus.author_claim_store(false);
    let linked = corpus.author_claim_store(true);
    println!(
        "\n== Record linkage ==\n  distinct author strings: {} raw → {} linked",
        raw.num_values(),
        linked.num_values()
    );

    let snapshot = linked.snapshot();

    // The strategy ladder: three engines, one code path.
    println!("\n== Fusion quality (fraction of books with correct authors) ==");
    let engines = [
        SailingEngine::builder()
            .strategy(NaiveVote::new())
            .build()?,
        SailingEngine::builder()
            .strategy(AccuCopy::baseline())
            .build()?,
        // Attaching the corpus config makes Example 4.1's screening
        // (pairs sharing ≥ 10 books) the engine default — without it the
        // generic `min_overlap = 3` floods detection with coincidental
        // small overlaps (precision ≈ 0.29 on this seed).
        SailingEngine::builder()
            .params(DetectionParams {
                threads: 2,
                ..DetectionParams::default()
            })
            .bookstore_corpus(&config)
            .build()?,
    ];
    for engine in &engines[..2] {
        let outcome = engine.analyze(&snapshot).fuse();
        let score = corpus.score_decisions(&linked, &outcome.decisions);
        println!("  {:<10} {:.3}", outcome.strategy, score);
    }
    // The dependence-aware analysis is computed once and reused below.
    let analysis = engines[2].analyze(&snapshot);
    let outcome = analysis.fuse();
    println!(
        "  {:<10} {:.3}",
        outcome.strategy,
        corpus.score_decisions(&linked, &outcome.decisions)
    );

    // Dependence detection quality against the planted copier clusters.
    let detected: Vec<_> = analysis
        .dependent_pairs(0.7)
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
    let planted: std::collections::HashSet<_> = corpus.planted_pairs.iter().map(canon).collect();
    let found: std::collections::HashSet<_> = detected.iter().map(canon).collect();
    let hits = found.intersection(&planted).count();
    println!(
        "\n== Copy detection ==\n  planted dependent pairs: {}\n  detected (p ≥ 0.7): {}  correct: {}  (precision {:.2}, recall {:.2})",
        planted.len(),
        found.len(),
        hits,
        if found.is_empty() { 1.0 } else { hits as f64 / found.len() as f64 },
        hits as f64 / planted.len().max(1) as f64,
    );

    // Online query answering: answer quality as sources are probed — the
    // session comes pre-seeded from the analysis, no manual plumbing.
    println!("\n== Online answering: correct books after k probes ==");
    for policy in [
        OrderingPolicy::Random(1),
        OrderingPolicy::ByCoverage,
        OrderingPolicy::GreedyIndependent,
    ] {
        let order = analysis.visit_order(&policy);
        let mut session = analysis.online_session();
        let steps = session.run_order(&order[..20.min(order.len())]);
        let quality: Vec<String> = [5usize, 10, 20]
            .iter()
            .filter_map(|&k| steps.get(k - 1))
            .map(|s| format!("{:.2}", corpus.score_decisions(&linked, &s.decisions)))
            .collect();
        println!(
            "  {:<20} after 5/10/20 probes: {}",
            policy.name(),
            quality.join(" / ")
        );
    }
    Ok(())
}
