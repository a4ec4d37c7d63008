//! Cooperating shard-worker processes over one persistent store.
//!
//! Every instance of this example derives the *same* seeded world, opens the
//! *same* store directory, and runs [`SailingEngine::analyze_sharded`]. When
//! two or more instances run concurrently they claim disjoint pair-ranges
//! through durable `.claim` entries, publish their `PartialDependence` blobs,
//! and adopt each other's partials instead of recomputing them — and each
//! still asserts its merged result is bit-identical to a monolithic
//! [`SailingEngine::analyze`] run with the same parameters.
//!
//! The run also seeds the store in the *flat* (unsharded) directory layout
//! before reopening it hash-sharded, so concurrent instances exercise the
//! flat→sharded migration while peers are reading and writing.
//!
//! ```text
//! export SAILING_PERSIST_DIR="$(mktemp -d)"
//! cargo build --release --example shard_workers
//! ./target/release/examples/shard_workers &   # worker A
//! ./target/release/examples/shard_workers     # worker B
//! wait                                        # both must exit 0
//! ```
//!
//! Environment:
//!
//! * `SAILING_PERSIST_DIR` — store directory shared by all instances
//!   (default `target/shard-workers-demo`);
//! * `SAILING_SHARD_WORKERS` — pair-range count per analysis (default 2).

use std::sync::Arc;

use sailing::datagen::{SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::persist::StoreOptions;

/// Store shard count for the demo: small enough to eyeball on disk, large
/// enough that the migration actually fans entries out.
const STORE_SHARDS: usize = 8;

fn main() -> Result<(), sailing::SailingError> {
    let dir = std::env::var("SAILING_PERSIST_DIR")
        .unwrap_or_else(|_| "target/shard-workers-demo".to_string());
    let workers: usize = std::env::var("SAILING_SHARD_WORKERS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(2);

    // Every process derives the identical world from the same seed, so
    // cache keys, pair-range names, and iteration digests all line up.
    let config = WorldConfig::specialist(8, 48, 24, 77);
    let snapshot = Arc::new(SnapshotWorld::generate(&config).snapshot);

    println!("== shard_workers: store {dir} ({workers} pair-ranges) ==");

    // Phase 0: seed the store in the FLAT layout. Concurrent instances may
    // already have migrated it — their sharded entries are simply invisible
    // to this flat handle, and the rewrite below is harmless.
    {
        let flat = SailingEngine::builder().persist_dir(&dir).build()?;
        flat.analyze_owned(Arc::clone(&snapshot));
        flat.flush_persist()?;
    }

    // Phase 1: reopen hash-sharded. Opening migrates flat entries into
    // `shards/xx/`; a concurrent peer may be mid-migration, so a single
    // probe can race a rename — the miss rewrites the entry sharded and
    // the next probe must hit. Cache capacity 0 forces every probe to disk.
    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .persist_options(StoreOptions::default().shards(STORE_SHARDS))
        .cache_capacity(0)
        .build()?;
    for _ in 0..2 {
        engine.analyze_owned(Arc::clone(&snapshot));
        if engine.cache_stats().disk_hits >= 1 {
            break;
        }
    }
    let stats = engine.cache_stats();
    assert!(
        stats.disk_hits >= 1,
        "flat-seeded analysis must stay readable through the sharded migration: {stats:?}"
    );
    println!(
        "  ✓ flat→sharded migration kept the seeded analysis readable (disk hits {})",
        stats.disk_hits
    );

    // Phase 2: cooperative pair-sharded analysis. Ranges are claimed through
    // the store, partials published as blobs; whoever loses a claim adopts
    // the winner's partial. The merged result must match a monolithic run
    // bit for bit.
    let sharded = engine.analyze_sharded(&snapshot, workers)?;
    let solo = SailingEngine::with_defaults().analyze(&snapshot);

    assert_eq!(
        sharded.decisions(),
        solo.decisions(),
        "sharded truth decisions diverged from the monolithic run"
    );
    assert_eq!(sharded.accuracies().len(), solo.accuracies().len());
    for (idx, (s, m)) in sharded
        .accuracies()
        .iter()
        .zip(solo.accuracies())
        .enumerate()
    {
        assert!(
            s.to_bits() == m.to_bits(),
            "accuracy[{idx}] diverged: sharded {s} vs monolithic {m}"
        );
    }

    let stats = engine.cache_stats();
    println!(
        "  ✓ sharded analysis bit-identical to monolithic (ranges run here {}, adopted from peers {})",
        stats.shard_runs, stats.shard_partials_adopted
    );
    println!("== shard_workers: ok ==");
    Ok(())
}
