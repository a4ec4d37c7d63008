//! Cross-process analysis reuse through the persistent store.
//!
//! Run this example **twice with the same `SAILING_PERSIST_DIR`** to see
//! the paper's "series of analyses over an evolving ocean" amortised
//! across processes: the first run cold-computes every epoch of a seeded
//! temporal world and writes the converged results to disk; the second
//! run serves every epoch from the store — zero truth-discovery
//! iterations — and reports the disk hits.
//!
//! ```text
//! export SAILING_PERSIST_DIR=$(mktemp -d)
//! cargo run --release --example persist_reuse
//! SAILING_PERSIST_EXPECT_HITS=1 cargo run --release --example persist_reuse
//! ```
//!
//! With `SAILING_PERSIST_EXPECT_HITS=1` the run *asserts* the store
//! served everything (non-zero disk hits, zero fresh iterations) and
//! exits non-zero otherwise — the CI persistence round-trip step uses
//! exactly this. Two more switches exercise the multi-process story:
//! `SAILING_PERSIST_ASYNC=1` attaches the store through the background
//! writer thread (the analysis path performs zero filesystem syscalls),
//! and `SAILING_PERSIST_COMPACT=1` runs a compaction sweep at the end —
//! safe even while another process is writing the same directory, which
//! is exactly how CI runs it: two concurrent processes, one compacting,
//! then a third that must still be all-disk-hits.
//!
//! Finally, `SAILING_PERSIST_FAULT_SEED=<n>` prepends a
//! **fault-injection phase** in a sibling `<dir>-chaos` directory: a
//! seeded `FaultPlan` storms the store's write path under retry + a
//! circuit breaker, the plan heals, and the run asserts the breaker
//! re-closed and every entry still became a disk hit — the persistence
//! resilience contract, demonstrated end to end before the clean phase
//! runs.

use std::sync::Arc;
use std::time::Duration;

use sailing::datagen::temporal::{table3_style, TemporalWorld};
use sailing::datagen::{SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::persist::{BreakerState, FaultPlan, FaultyFs, StoreFs, StoreOptions};

/// The fault-injection phase: storm a dedicated store directory with a
/// seeded fault plan, heal, and prove full recovery (breaker closed,
/// everything persisted and disk-served).
fn chaos_phase(dir: &str, seed: u64) -> Result<(), sailing::SailingError> {
    println!("== Fault-injection phase (seed {seed}): {dir} ==");
    // Self-contained per run: start from an empty store so the storm
    // actually exercises the write path (leftover entries from an
    // earlier run would make every analysis a disk hit and the plan a
    // no-op).
    std::fs::remove_dir_all(dir).ok();
    let plan = Arc::new(FaultPlan::seeded(seed));
    let fs: Arc<dyn StoreFs> = Arc::new(FaultyFs::with_plan(Arc::clone(&plan)));
    // Memory tier off so recovery re-drives the disk path; zero backoff
    // and cooldown keep the phase deterministic and instant.
    let engine = SailingEngine::builder()
        .persist_dir(dir)
        .cache_capacity(0)
        .persist_options(
            StoreOptions::default()
                .retry(2, Duration::ZERO)
                .breaker(3, Duration::ZERO),
        )
        .persist_fs(fs)
        .build()?;

    let snapshots: Vec<_> = (61..66u64)
        .map(|seed| {
            let config = WorldConfig::specialist(6, 24, 12, seed);
            Arc::new(SnapshotWorld::generate(&config).snapshot)
        })
        .collect();
    let mut storm_failures = 0;
    for snap in &snapshots {
        engine.analyze_owned(Arc::clone(snap));
        if engine.flush_persist().is_err() {
            storm_failures += 1;
        }
    }
    let mid = engine.cache_stats().persist.expect("a store is attached");
    println!(
        "  storm: {} analyses, {} flush failures, {} retries, breaker {}",
        snapshots.len(),
        storm_failures,
        mid.retries,
        mid.breaker.as_str()
    );

    plan.heal();
    for snap in &snapshots {
        engine.analyze_owned(Arc::clone(snap));
        engine.flush_persist()?;
    }
    let stats = engine.cache_stats().persist.expect("a store is attached");
    assert_eq!(
        stats.breaker,
        BreakerState::Closed,
        "the breaker must re-close once the disk recovers"
    );
    drop(engine);

    // A clean engine over the stormed directory: all disk hits.
    let reader = SailingEngine::builder()
        .persist_dir(dir)
        .cache_capacity(0)
        .build()?;
    for snap in &snapshots {
        reader.analyze_owned(Arc::clone(snap));
    }
    let served = reader.cache_stats();
    assert_eq!(
        served.disk_hits,
        snapshots.len() as u64,
        "every stormed entry must end as a disk hit: {served:?}"
    );
    println!(
        "  ✓ healed: breaker closed, {} of {} entries disk-served",
        served.disk_hits,
        snapshots.len()
    );
    Ok(())
}

fn main() -> Result<(), sailing::SailingError> {
    let dir = std::env::var("SAILING_PERSIST_DIR")
        .unwrap_or_else(|_| "target/persist-reuse-demo".to_string());
    let expect_hits = std::env::var("SAILING_PERSIST_EXPECT_HITS").is_ok();
    let use_async = std::env::var("SAILING_PERSIST_ASYNC").is_ok();
    let run_compact = std::env::var("SAILING_PERSIST_COMPACT").is_ok();
    if let Ok(seed) = std::env::var("SAILING_PERSIST_FAULT_SEED") {
        chaos_phase(&format!("{dir}-chaos"), seed.parse().unwrap_or(1))?;
    }

    // A seeded world, so every process derives the identical timeline
    // (and therefore identical store keys).
    let (config, _) = table3_style(120, 2, 20);
    let world = TemporalWorld::generate(&config);
    let history = Arc::new(world.history.clone());

    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .persist_options(StoreOptions {
            async_writer: use_async,
            ..StoreOptions::default()
        })
        .build()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("== Persistent analysis store: {dir} ==");
    let mut session = engine.timeline(history);
    session.prefetch_cold(threads);
    let epochs: Vec<_> = session.by_ref().collect();
    let served = epochs.iter().filter(|e| e.from_cache()).count();
    let spent = session.total_iterations();
    // Compaction's orphan sweep is age-gated, so a concurrent process
    // can no longer eat this run's in-flight temp files; any residual
    // cross-process write failure is still non-fatal by contract (the
    // entry becomes a future cold miss), so log-and-continue instead of
    // `?` in the concurrent CI configuration.
    let written = match engine.flush_persist() {
        Ok(written) => written,
        Err(err) => {
            eprintln!("  (write raced a concurrent compaction, dropped: {err})");
            0
        }
    };
    let stats = engine.cache_stats();

    println!("  epochs analyzed:     {}", epochs.len());
    println!("  served from store:   {served}");
    println!("  fresh iterations:    {spent}");
    println!("  entries flushed:     {written}");
    println!(
        "  disk hits / misses:  {} / {}",
        stats.disk_hits, stats.disk_misses
    );
    println!(
        "  store entries:       {}",
        engine.persist_store().map_or(0, |s| s.len())
    );
    if use_async {
        // The async contract, asserted live: this (analysis) thread never
        // performed a store filesystem write, and nothing failed or was
        // dropped behind our back.
        let store = engine.persist_store().expect("store attached");
        assert!(
            !store
                .fs_write_threads()
                .contains(&std::thread::current().id()),
            "analysis thread performed a store write"
        );
        let deferred = engine.take_persist_write_errors();
        assert!(deferred.is_empty(), "deferred write errors: {deferred:?}");
        println!("  ✓ async writer kept the analysis thread syscall-free");
    }
    if run_compact {
        // Safe concurrently with other processes writing this directory:
        // contended sweeps step aside, and a racing writer's fresh entry
        // is captured-and-restored rather than deleted.
        let report = engine.compact_persist()?;
        println!(
            "  compaction:          kept {} removed {} restored {}{}",
            report.kept,
            report.removed,
            report.restored,
            if report.contended { " (contended)" } else { "" }
        );
    }

    if expect_hits {
        // Every epoch must be served without fresh work, with the disk
        // tier involved — `disk_hits == epochs` would over-assert, since
        // repeated epoch *content* is legitimately served from the
        // promoted memory tier after its first disk hit.
        assert_eq!(
            served,
            epochs.len(),
            "expected every epoch to be store-served, got {served} of {}",
            epochs.len()
        );
        assert!(stats.disk_hits > 0, "no disk hit at all — store unused?");
        assert_eq!(
            spent, 0,
            "a store-warmed run must spend zero discovery iterations"
        );
        println!("  ✓ second process reused every analysis from disk");
    } else if served == 0 {
        println!("  (cold run — re-run with the same SAILING_PERSIST_DIR for disk hits)");
    }
    Ok(())
}
