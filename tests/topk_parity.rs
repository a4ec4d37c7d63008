//! Engine-level parity of top-k answering: `Analysis::top_k` (memoised
//! visit ranks, a walk over the sources covering the object) must return
//! exactly what the original full-order scan returns on real analyses —
//! the same values, the same support bits, the same `probed` and
//! `early_stopped` — for every policy, every object and a spread of k.
//!
//! The reference scan is the test-only file of `sailing-query`, compiled
//! in here through `#[path]`, and it is fed what `top_k` used to build on
//! every call: the policy's `order_sources` and the weights from the
//! source reports.

use std::sync::Arc;

use sailing::core::DetectionParams;
use sailing::datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing::datagen::temporal::{table3_style, TemporalWorld};
use sailing::datagen::world::{SnapshotWorld, WorldConfig};
use sailing::datagen::{ChurnConfig, ChurnWorld, VariantWorld, VariantWorldConfig};
use sailing::engine::SailingEngine;
use sailing::model::{fixtures, ObjectId, SnapshotView, SourceId, ValueId};
use sailing::query::{order_sources, OrderingPolicy, TopKResult};

#[path = "../crates/query/src/topk/reference.rs"]
mod reference;

/// The worlds of `sailing-core`'s detection-kernel oracle: the Table 1–3
/// fixtures and every generated world family, each with the detection
/// parameters its experiments use.
fn oracle_worlds() -> Vec<(String, SnapshotView, DetectionParams)> {
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

/// Every field, supports by their bits.
fn bits(result: &TopKResult) -> (Vec<(ValueId, u64)>, usize, bool) {
    let top = result.top.iter().map(|&(v, s)| (v, s.to_bits())).collect();
    (top, result.probed, result.early_stopped)
}

#[test]
fn topk_parity_on_oracle_worlds_for_every_policy() {
    let policies = [
        OrderingPolicy::Random(7),
        OrderingPolicy::ByCoverage,
        OrderingPolicy::ByAccuracy,
        OrderingPolicy::GreedyIndependent,
    ];
    let (mut queries, mut early) = (0usize, 0usize);
    for (name, snapshot, params) in oracle_worlds() {
        let engine = SailingEngine::builder().params(params).build().unwrap();
        let analysis = engine.analyze_owned(Arc::new(snapshot));
        let snapshot = analysis.snapshot();
        let weights: Vec<f64> = analysis
            .source_reports()
            .iter()
            .map(|r| r.accuracy * r.mean_independence)
            .collect();
        for policy in &policies {
            // What `top_k` built on every call, built once per policy here:
            // `order_sources` is deterministic.
            let order = order_sources(
                snapshot,
                analysis.accuracies(),
                analysis.dependence_matrix(),
                policy,
            );
            assert_eq!(analysis.visit_order(policy), order, "{name}");
            // Out-of-range objects answer like uncovered ones.
            for object in (0..snapshot.num_objects() + 1).map(ObjectId::from_index) {
                for k in [1, 2, 3, snapshot.support(object) + 1] {
                    let fast = analysis.top_k(object, k, policy);
                    let slow =
                        reference::top_k_values_for_object(snapshot, object, &order, &weights, k);
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "{name}: object {object:?}, k {k}, {}",
                        policy.name()
                    );
                    queries += 1;
                    early += usize::from(fast.early_stopped);
                }
            }
        }
    }
    assert!(queries > 10_000, "{queries} queries");
    assert!(early > 1_000, "{early} early stops");
}
