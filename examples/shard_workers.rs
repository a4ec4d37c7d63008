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
//! Each run first seeds the store with the monolithic analysis and reopens
//! it with the in-memory cache off, so the reopened engine must read that
//! entry back from disk while peers are reading and writing.
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

    // Seed the store, then reopen it with cache capacity 0 so the probe
    // must go to disk. Entry writes are atomic renames and compaction only
    // removes invalid entries, so a peer's concurrent rewrite of the same
    // key can never turn this probe into a miss.
    {
        let seed = SailingEngine::builder().persist_dir(&dir).build()?;
        seed.analyze_owned(Arc::clone(&snapshot));
        seed.flush_persist()?;
    }
    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .cache_capacity(0)
        .build()?;
    engine.analyze_owned(Arc::clone(&snapshot));
    let stats = engine.cache_stats();
    assert_eq!(
        stats.disk_hits, 1,
        "the seeded analysis must be a disk hit on reopen: {stats:?}"
    );
    println!("  ✓ reopened store served the seeded analysis from disk");

    // Cooperative pair-sharded analysis. Ranges are claimed through
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
