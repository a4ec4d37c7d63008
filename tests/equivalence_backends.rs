//! Value-equivalence backends through the engine: cache/persist keying,
//! exact-identity parity, precision on variant worlds, and sharded parity.
//!
//! The load-bearing invariant is **no aliasing**: an analysis computed
//! under one equivalence backend must never be served — from the in-memory
//! cache or the on-disk store — to an engine running a different backend,
//! even when the two backends happen to induce the same partition. The
//! exact backend keeps the legacy key space bit-for-bit; every non-exact
//! backend folds its quotient digest into the key.

use std::path::PathBuf;
use std::sync::Arc;

use sailing::datagen::variants::{VariantWorld, VariantWorldConfig};
use sailing::engine::SailingEngine;
use sailing::linkage::NormalizedString;
use sailing::model::{HashedDigest, NumericTolerance, SnapshotView};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sailing-equiv-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two engines over one persist dir, exact vs normalized, same snapshot:
/// the second backend must *miss* the store (zero cross-backend disk
/// hits), the store must end up holding two distinct entries, and each
/// backend must still enjoy pointer-identity hits within itself.
#[test]
fn cross_backend_results_never_alias_in_the_shared_store() {
    let dir = temp_dir("no-alias");
    let world = VariantWorld::generate(&VariantWorldConfig::messy(60, 6, 5));
    let snapshot = Arc::new(world.snapshot.clone());

    let exact_engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    let exact = exact_engine.analyze_owned(Arc::clone(&snapshot));
    exact_engine.flush_persist().unwrap();

    let normalized_engine = SailingEngine::builder()
        .value_equivalence(NormalizedString)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let normalized = normalized_engine.analyze_owned(Arc::clone(&snapshot));
    let stats = normalized_engine.cache_stats();
    assert_eq!(
        stats.disk_hits, 0,
        "a normalized engine must never adopt an exact result: {stats:?}"
    );
    assert_eq!(stats.disk_misses, 1, "{stats:?}");
    normalized_engine.flush_persist().unwrap();
    assert_eq!(
        normalized_engine.persist_store().unwrap().len(),
        2,
        "exact and normalized analyses must persist under distinct keys"
    );

    // The quotient genuinely changed the analysis — aliasing would have
    // returned the exact decisions verbatim.
    assert_ne!(exact.decisions(), normalized.decisions());

    // Within a backend, the cache still self-serves by pointer identity.
    let exact_again = exact_engine.analyze_owned(Arc::clone(&snapshot));
    assert!(std::ptr::eq(exact.result(), exact_again.result()));
    let normalized_again = normalized_engine.analyze_owned(Arc::clone(&snapshot));
    assert!(std::ptr::eq(normalized.result(), normalized_again.result()));

    // A fresh engine per backend is served from disk — the keys are
    // stable across processes, not just within one.
    for (engine, first) in [
        (
            SailingEngine::builder().persist_dir(&dir).build().unwrap(),
            &exact,
        ),
        (
            SailingEngine::builder()
                .value_equivalence(NormalizedString)
                .persist_dir(&dir)
                .build()
                .unwrap(),
            &normalized,
        ),
    ] {
        let served = engine.analyze_owned(Arc::clone(&snapshot));
        let stats = engine.cache_stats();
        assert_eq!((stats.disk_hits, stats.disk_misses), (1, 0), "{stats:?}");
        assert_eq!(served.decisions(), first.decisions());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Differently parameterized backends are differently keyed too: two
/// hashed-digest engines with distinct salts induce the *same* (identity)
/// partition on a variant-free world, yet must not share store entries.
#[test]
fn backend_parameters_key_disjointly_even_for_equal_partitions() {
    let dir = temp_dir("salt-keys");
    let world = VariantWorld::generate(&VariantWorldConfig::federation(30, 4, 9));
    let snapshot = Arc::new(world.snapshot.clone());

    for salt in [1u64, 2u64] {
        let engine = SailingEngine::builder()
            .value_equivalence(HashedDigest::new(salt))
            .persist_dir(&dir)
            .build()
            .unwrap();
        engine.analyze_owned(Arc::clone(&snapshot));
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.disk_hits, stats.disk_misses),
            (0, 1),
            "salt {salt} must not adopt another salt's entry: {stats:?}"
        );
        engine.flush_persist().unwrap();
    }
    let probe = SailingEngine::builder()
        .value_equivalence(HashedDigest::new(1))
        .persist_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(probe.persist_store().unwrap().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// On a variant-free world the hashed-digest partition is the identity,
/// so digest-only discovery must reproduce exact discovery bit for bit.
#[test]
fn hashed_digest_matches_exact_analysis_on_variant_free_worlds() {
    let world = VariantWorld::generate(&VariantWorldConfig::federation(80, 8, 17));
    let snapshot = Arc::new(world.snapshot.clone());

    let exact = SailingEngine::with_defaults().analyze_owned(Arc::clone(&snapshot));
    let hashed = SailingEngine::builder()
        .value_equivalence(HashedDigest::new(0xdead_beef))
        .build()
        .unwrap()
        .analyze_owned(Arc::clone(&snapshot));

    assert_eq!(exact.decisions(), hashed.decisions());
    for o in exact.result().probabilities.objects() {
        let a = exact.result().probabilities.distribution(o);
        let b = hashed.result().probabilities.distribution(o);
        assert_eq!(a.len(), b.len());
        for (&(va, pa), &(vb, pb)) in a.iter().zip(b) {
            assert_eq!(va, vb);
            assert!((pa - pb).abs() <= 1e-9, "posterior {pa} vs {pb} at {o:?}");
        }
    }
    for (x, y) in exact
        .result()
        .accuracies
        .iter()
        .zip(&hashed.result().accuracies)
    {
        assert!((x - y).abs() <= 1e-9);
    }
}

/// The quotient backends strictly improve decision precision on messy
/// variant worlds of three sizes, end to end through the engine (cache,
/// quotient, and discovery all in the loop).
#[test]
fn quotient_backends_strictly_improve_engine_precision() {
    for (objects, sources) in [(120, 8), (200, 10), (400, 12)] {
        let world = VariantWorld::generate(&VariantWorldConfig::messy(objects, sources, 42));
        let snapshot = Arc::new(world.snapshot.clone());
        let values = snapshot.values().map_or(0, |v| v.len());
        assert!(
            snapshot.quotient(&NormalizedString).num_classes() < values,
            "messy({objects}, {sources}) must merge representations"
        );
        let precision = |engine: &SailingEngine| {
            let decisions = engine
                .analyze_owned(Arc::clone(&snapshot))
                .result()
                .probabilities
                .decisions_sorted();
            world.truth.decision_precision(&decisions).unwrap()
        };

        let exact = precision(&SailingEngine::with_defaults());
        let normalized = precision(
            &SailingEngine::builder()
                .value_equivalence(NormalizedString)
                .build()
                .unwrap(),
        );
        let numeric = precision(
            &SailingEngine::builder()
                .value_equivalence(NumericTolerance::new(world.config.numeric_eps).unwrap())
                .build()
                .unwrap(),
        );
        assert!(
            normalized > exact,
            "messy({objects}, {sources}): normalized {normalized} vs exact {exact}"
        );
        assert!(
            numeric > exact,
            "messy({objects}, {sources}): numeric {numeric} vs exact {exact}"
        );
    }
}

/// The sharded fan-out quotients once at the coordinator, so a non-exact
/// backend's sharded analysis must agree with its monolithic analysis
/// bitwise — the same invariant the exact path already holds.
#[test]
fn sharded_analysis_matches_monolithic_under_a_quotient_backend() {
    let world = VariantWorld::generate(&VariantWorldConfig::messy(60, 6, 23));
    let engine = SailingEngine::builder()
        .value_equivalence(NormalizedString)
        .build()
        .unwrap();
    let monolithic = engine.analyze(&world.snapshot);
    for workers in [2usize, 4] {
        let sharded = engine.analyze_sharded(&world.snapshot, workers).unwrap();
        assert_eq!(sharded.decisions(), monolithic.decisions());
        for (x, y) in sharded
            .result()
            .accuracies
            .iter()
            .zip(&monolithic.result().accuracies)
        {
            assert_eq!(x.to_bits(), y.to_bits(), "workers {workers}");
        }
        for o in monolithic.result().probabilities.objects() {
            let a = monolithic.result().probabilities.distribution(o);
            let b = sharded.result().probabilities.distribution(o);
            assert_eq!(a.len(), b.len());
            for (&(va, pa), &(vb, pb)) in a.iter().zip(b) {
                assert_eq!(va, vb);
                assert_eq!(pa.to_bits(), pb.to_bits(), "workers {workers}");
            }
        }
    }
}

/// Arena-less snapshots (wire round-trips, hand-built `from_triples`)
/// degrade to the identity quotient under any backend: the analysis is
/// still correct, merely unquotiented — and still keyed disjointly from
/// the exact backend.
#[test]
fn arenaless_snapshots_degrade_to_identity_quotients() {
    use sailing::model::{ObjectId, SourceId, ValueId};
    let triples = (0..4u32)
        .flat_map(|s| (0..6u32).map(move |o| (SourceId(s), ObjectId(o), ValueId(o * 3 + s % 3))))
        .collect::<Vec<_>>();
    let snapshot = SnapshotView::from_triples(4, 6, triples);
    assert!(snapshot.values().is_none());

    let exact = SailingEngine::with_defaults().analyze(&snapshot);
    let normalized = SailingEngine::builder()
        .value_equivalence(NormalizedString)
        .build()
        .unwrap()
        .analyze(&snapshot);
    assert_eq!(exact.decisions(), normalized.decisions());
}
