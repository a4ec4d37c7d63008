//! Hammer one engine's shared analysis cache from many threads and pin
//! its two concurrency guarantees:
//!
//! 1. **Counter coherence** — every analysis request increments exactly
//!    one of `hits`/`misses`, so `hits + misses == requests` no matter
//!    how the threads interleave (and, with a persistent store attached,
//!    `disk_hits + disk_misses + inflight_waits == misses`).
//! 2. **Pointer-identical hits** — all analyses of one snapshot share a
//!    single `PipelineResult` allocation, *including* when several
//!    threads miss simultaneously: single-flight admission makes the
//!    first one the leader and parks the rest on its in-flight
//!    computation, so the cache never hands out two diverging copies of
//!    "the same" converged result — and never runs discovery twice for
//!    one snapshot.

use std::collections::HashMap;
use std::sync::Arc;

use sailing::engine::{CacheStats, SailingEngine};
use sailing::model::{fixtures, ObjectId, SnapshotView, SourceId, ValueId};
use sailing::persist::{StoreKey, StoreOptions};

/// Distinct small snapshots, one per value seed.
fn snapshots(n: u32) -> Vec<Arc<SnapshotView>> {
    (0..n)
        .map(|i| {
            let triples: Vec<(SourceId, ObjectId, ValueId)> = (0..4u32)
                .flat_map(|s| {
                    (0..6u32).map(move |o| (SourceId(s), ObjectId(o), ValueId(o * 100 + i + s % 2)))
                })
                .collect();
            Arc::new(SnapshotView::from_triples(4, 6, triples))
        })
        .collect()
}

fn hammer(engine: &SailingEngine, snaps: &[Arc<SnapshotView>], threads: usize, rounds: usize) {
    // Each thread analyzes every snapshot `rounds` times through its own
    // engine clone (clones share the cache) and records the result
    // allocation it was handed per snapshot hash.
    let per_thread: Vec<Vec<(u64, usize)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = engine.clone();
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for r in 0..rounds {
                        // Stagger starting points so threads collide on
                        // different snapshots at different times.
                        for i in 0..snaps.len() {
                            let snap = &snaps[(i + t + r) % snaps.len()];
                            let analysis = engine.analyze_owned(Arc::clone(snap));
                            seen.push((
                                snap.content_hash(),
                                analysis.result() as *const _ as usize,
                            ));
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Guarantee 2: one allocation per snapshot across every thread.
    let mut by_hash: HashMap<u64, usize> = HashMap::new();
    for (hash, ptr) in per_thread.into_iter().flatten() {
        let first = *by_hash.entry(hash).or_insert(ptr);
        assert_eq!(
            first, ptr,
            "two different PipelineResult allocations served for one snapshot"
        );
    }
    assert_eq!(by_hash.len(), snaps.len());
}

#[test]
fn shared_cache_counters_stay_coherent_and_hits_pointer_identical() {
    let threads = 8;
    let rounds = 25;
    let snaps = snapshots(5);
    let engine = SailingEngine::builder().cache_capacity(16).build().unwrap();
    hammer(&engine, &snaps, threads, rounds);

    let stats = engine.cache_stats();
    let requests = (threads * rounds * snaps.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        requests,
        "every request must count exactly once: {stats:?}"
    );
    // All snapshots fit in the cache: at least one miss each (the first
    // computation) and hits for the overwhelming rest. Racing first
    // requests miss too, but single-flight admission parks them on the
    // leader's computation (counted as inflight waits) rather than
    // recomputing, so discovery ran exactly once per snapshot.
    assert!(stats.misses >= snaps.len() as u64, "{stats:?}");
    assert!(stats.misses <= (snaps.len() * threads) as u64, "{stats:?}");
    assert_eq!(
        stats.misses,
        snaps.len() as u64 + stats.inflight_waits,
        "every racing miss waited instead of recomputing: {stats:?}"
    );
    assert_eq!(stats.entries, snaps.len());
    assert_eq!((stats.disk_hits, stats.disk_misses), (0, 0), "no store");
}

#[test]
fn two_tier_counters_stay_coherent_under_concurrency() {
    let dir =
        std::env::temp_dir().join(format!("sailing-cache-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = 8;
    let rounds = 10;
    let snaps = snapshots(4);
    let engine = SailingEngine::builder()
        .cache_capacity(16)
        .persist_dir(&dir)
        .build()
        .unwrap();
    hammer(&engine, &snaps, threads, rounds);

    let stats = engine.cache_stats();
    let requests = (threads * rounds * snaps.len()) as u64;
    assert_eq!(stats.hits + stats.misses, requests, "{stats:?}");
    // Every memory miss either went to disk (leaders, answered exactly
    // once there) or adopted a leader's in-flight computation (waiters).
    assert_eq!(
        stats.disk_hits + stats.disk_misses + stats.inflight_waits,
        stats.misses,
        "{stats:?}"
    );
    // Discovery ran only for disk misses; disk hits served the rest.
    assert!(stats.disk_misses >= snaps.len() as u64, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The async write-behind tier under the same hammering: counters stay
/// coherent, hits stay pointer-identical, and **no analysis thread ever
/// performs a store filesystem write** — they all land on the store's
/// background writer thread.
#[test]
fn async_two_tier_counters_and_writer_thread_isolation() {
    let dir = std::env::temp_dir().join(format!(
        "sailing-cache-concurrency-async-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = 8;
    let rounds = 10;
    let snaps = snapshots(4);
    let engine = SailingEngine::builder()
        .cache_capacity(16)
        .persist_dir(&dir)
        .persist_options(StoreOptions::async_writer(64))
        .build()
        .unwrap();
    hammer(&engine, &snaps, threads, rounds);
    engine.flush_persist().unwrap();

    let stats = engine.cache_stats();
    let requests = (threads * rounds * snaps.len()) as u64;
    assert_eq!(stats.hits + stats.misses, requests, "{stats:?}");
    assert_eq!(
        stats.disk_hits + stats.disk_misses + stats.inflight_waits,
        stats.misses,
        "{stats:?}"
    );
    let persist = stats.persist.unwrap();
    assert_eq!((persist.write_errors, persist.dropped), (0, 0));
    assert!(persist.writes >= snaps.len() as u64, "{stats:?}");
    assert!(engine.take_persist_write_errors().is_empty());

    // Thread isolation: `hammer` analyzed from worker threads and this
    // thread drove the engine — none of them may appear among the store's
    // filesystem writers.
    let store = engine.persist_store().unwrap();
    let writers = store.fs_write_threads();
    assert_eq!(
        writers.len(),
        1,
        "only the writer thread writes: {writers:?}"
    );
    assert!(!writers.contains(&std::thread::current().id()));
    assert_eq!(store.len(), snaps.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The eviction path under contention: a cache smaller than the working
/// set must keep counters coherent even while entries churn.
#[test]
fn thrashing_cache_keeps_counter_coherence() {
    let threads = 6;
    let rounds = 20;
    let snaps = snapshots(6);
    let engine = SailingEngine::builder().cache_capacity(2).build().unwrap();

    // Pointer identity is *not* guaranteed while evictions churn (a
    // re-computed snapshot gets a new allocation), so only the counter
    // invariant is asserted here.
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = engine.clone();
            let snaps = &snaps;
            scope.spawn(move || {
                for r in 0..rounds {
                    for i in 0..snaps.len() {
                        let snap = &snaps[(i + t + r) % snaps.len()];
                        let _ = engine.analyze_owned(Arc::clone(snap));
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    let requests = (threads * rounds * snaps.len()) as u64;
    assert_eq!(stats.hits + stats.misses, requests, "{stats:?}");
    assert!(stats.entries <= 2, "{stats:?}");
}

/// A strategy that counts (and deliberately stretches) every discovery
/// run — the single-flight proof instrument. The sleep widens the window
/// in which the herd's losers would historically have recomputed.
struct CountingSlowStrategy {
    inner: sailing::core::AccuCopy,
    runs: Arc<std::sync::atomic::AtomicUsize>,
}

impl sailing::core::TruthDiscovery for CountingSlowStrategy {
    fn name(&self) -> &'static str {
        "accu-copy"
    }

    fn discover(&self, snapshot: &SnapshotView) -> sailing::core::PipelineResult {
        self.run_warm(snapshot, None)
    }

    fn run_warm(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&sailing::core::PipelineResult>,
    ) -> sailing::core::PipelineResult {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(30));
        self.inner.run_warm(snapshot, prior)
    }
}

/// **The single-flight contract** (the serving tier's admission path): K
/// threads missing the same snapshot concurrently trigger exactly one
/// discovery run; the other K-1 block on the in-flight computation and
/// adopt its pointer-identical result, visible as `inflight_waits` (or,
/// for a straggler that arrives just after the leader lands, a plain
/// cache hit).
#[test]
fn concurrent_misses_on_one_key_run_discovery_exactly_once() {
    let threads = 8;
    let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let engine = SailingEngine::builder()
        .strategy(CountingSlowStrategy {
            inner: sailing::core::AccuCopy::with_defaults(),
            runs: Arc::clone(&runs),
        })
        .build()
        .unwrap();
    let snap = snapshots(1).pop().unwrap();

    let barrier = std::sync::Barrier::new(threads);
    let results: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = engine.clone();
                let snap = Arc::clone(&snap);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.analyze_owned(snap).result() as *const _ as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        runs.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "a thundering herd must run discovery exactly once"
    );
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "all threads must adopt one PipelineResult allocation"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, threads as u64, "{stats:?}");
    // One leader computed; everyone else either waited on the flight or
    // hit the cache right after it landed.
    assert_eq!(
        stats.hits + stats.inflight_waits,
        threads as u64 - 1,
        "{stats:?}"
    );
    assert!(stats.inflight_waits >= 1, "someone must have waited");
}

/// Both invariants hold after every kind of traffic, sampled between
/// phases: memory hits, disk hits from a second engine, a direct read
/// through the engine's store handle (which moves the store's own
/// counters, never the engine's), a batched timeline prefetch, and an
/// engine whose memory tier is disabled.
#[test]
fn tier_invariants_hold_on_every_path() {
    fn check(engine: &SailingEngine, requests: u64, phase: &str) -> CacheStats {
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, requests, "{phase}: {stats:?}");
        assert_eq!(
            stats.disk_hits + stats.disk_misses + stats.inflight_waits,
            stats.misses,
            "{phase}: {stats:?}"
        );
        stats
    }
    let dir = std::env::temp_dir().join(format!("sailing-cache-invariants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snaps = snapshots(3);
    let n = snaps.len() as u64;

    // Memory hits: one cold pass, then the same snapshots again.
    let first = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    for _ in 0..2 {
        for snap in &snaps {
            first.analyze_owned(Arc::clone(snap));
        }
    }
    let stats = check(&first, 2 * n, "memory hits");
    assert_eq!((stats.hits, stats.disk_misses), (n, n), "{stats:?}");
    first.flush_persist().unwrap();

    // Disk hits: a second engine over the same directory.
    let second = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    for snap in &snaps {
        second.analyze_owned(Arc::clone(snap));
    }
    let stats = check(&second, n, "disk hits");
    assert_eq!(stats.disk_hits, n, "{stats:?}");

    // A direct read through the engine's store handle.
    let store = second.persist_store().unwrap();
    let key = StoreKey::cold(snaps[0].content_hash());
    assert!(store.get(key, &snaps[0]).is_some());
    let stats = check(&second, n, "a direct store read");
    assert_eq!(stats.disk_hits, n, "the engine did not probe: {stats:?}");
    assert_eq!(
        stats.persist.unwrap().disk_hits,
        n + 1,
        "the store counts every read of its handle: {stats:?}"
    );

    // A batched timeline: every epoch is probed once, then computed in
    // parallel; the walk consumes the batch without further requests.
    let (_, history, _) = fixtures::table3();
    let epochs = history.change_points().count() as u64;
    let mut session = second.timeline(history);
    session.prefetch_cold(2);
    assert_eq!(session.count() as u64, epochs);
    let stats = check(&second, n + epochs, "prefetch_cold");
    assert_eq!(stats.disk_misses, epochs, "{stats:?}");

    // Memory tier disabled: every request goes to the store.
    let uncached = SailingEngine::builder()
        .cache_capacity(0)
        .persist_dir(&dir)
        .build()
        .unwrap();
    for _ in 0..2 {
        for snap in &snaps {
            uncached.analyze_owned(Arc::clone(snap));
        }
    }
    let stats = check(&uncached, 2 * n, "cache_capacity(0)");
    assert_eq!((stats.hits, stats.disk_hits), (0, 2 * n), "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}
