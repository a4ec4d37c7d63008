//! Closed-loop load generator for the serving tier.
//!
//! Spins up `SAILING_SERVE_THREADS` serving threads (default 4), each
//! driving `SAILING_SERVE_REQUESTS` mixed queries (default 5000) against
//! one [`ServeHandle`] over a specialist world, then prints the metrics
//! snapshot: per-endpoint throughput and p50/p99 latency plus the
//! engine's cache counters.
//!
//! The run also proves the **single-flight admission contract live**: all
//! serving threads start by admitting the same cache-missing snapshot
//! through a barrier, and the run asserts that discovery executed exactly
//! once — the rest of the herd either waited on the in-flight computation
//! (`inflight_waits`) or hit the cache just after it landed.
//!
//! Run with `cargo run --release --example serve_loadgen`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use sailing::core::{AccuCopy, PipelineResult, TruthDiscovery};
use sailing::datagen::{SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::model::SnapshotView;
use sailing_serve::{Endpoint, ServeHandle, Workload};

/// Wraps the default strategy and counts discovery runs, so the load run
/// can assert the single-flight contract on real traffic.
struct CountingStrategy {
    inner: AccuCopy,
    runs: Arc<AtomicUsize>,
}

impl TruthDiscovery for CountingStrategy {
    fn name(&self) -> &'static str {
        "accu-copy"
    }

    fn discover(&self, snapshot: &SnapshotView) -> PipelineResult {
        self.run_warm(snapshot, None)
    }

    fn run_warm(&self, snapshot: &SnapshotView, prior: Option<&PipelineResult>) -> PipelineResult {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run_warm(snapshot, prior)
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let threads = env_usize("SAILING_SERVE_THREADS", 4).max(2);
    let requests = env_usize("SAILING_SERVE_REQUESTS", 5_000);

    let world = SnapshotWorld::generate(&WorldConfig::specialist(40, 200, 60, 7));
    let snapshot = Arc::new(world.snapshot);
    let num_objects = snapshot.num_objects();

    let runs = Arc::new(AtomicUsize::new(0));
    let engine = SailingEngine::builder()
        .strategy(CountingStrategy {
            inner: AccuCopy::with_defaults(),
            runs: Arc::clone(&runs),
        })
        .build()
        .expect("default parameters are valid");

    // Build the handle on a *different* snapshot so the load snapshot is
    // still cache-missing when the herd arrives.
    let warmup = SnapshotWorld::generate(&WorldConfig::specialist(6, 16, 8, 99));
    let handle = ServeHandle::new(engine.clone(), Arc::new(warmup.snapshot));
    let runs_before_herd = runs.load(Ordering::SeqCst);

    println!("sailing-serve load generator");
    println!(
        "  threads = {threads} (SAILING_SERVE_THREADS), requests/thread = {requests} (SAILING_SERVE_REQUESTS)"
    );
    println!(
        "  world: {} sources x {} objects\n",
        snapshot.num_sources(),
        num_objects
    );

    let barrier = Barrier::new(threads);
    let start = Instant::now();
    let fingerprints: Vec<u64> = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let handle = handle.clone();
                let snapshot = Arc::clone(&snapshot);
                let barrier = &barrier;
                scope.spawn(move || {
                    // The thundering herd: everyone admits the same
                    // cache-missing snapshot at once. Single-flight
                    // admission means one discovery run serves them all.
                    barrier.wait();
                    handle.admit(snapshot);

                    let mut reader = handle.reader();
                    let mut workload = Workload::new(t as u64, num_objects);
                    let mut fingerprint = 0u64;
                    for _ in 0..requests {
                        let query = workload.next_query();
                        fingerprint += Workload::execute(&mut reader, &query) as u64;
                    }
                    fingerprint
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = start.elapsed();

    // The live single-flight proof.
    let herd_runs = runs.load(Ordering::SeqCst) - runs_before_herd;
    let metrics = handle.metrics();
    assert_eq!(
        herd_runs, 1,
        "single-flight violated: {threads} concurrent admissions ran discovery {herd_runs} times"
    );
    assert_eq!(
        metrics.cache.hits + metrics.cache.misses,
        1 + threads as u64,
        "hits + misses must equal analysis requests"
    );
    assert_eq!(
        metrics.cache.hits + metrics.cache.inflight_waits,
        threads as u64 - 1,
        "every non-leader must either wait in flight or hit the landed cache"
    );
    println!(
        "single-flight: {threads} concurrent admissions -> 1 discovery run \
         ({} waited in flight, {} hit the landed cache)\n",
        metrics.cache.inflight_waits, metrics.cache.hits,
    );

    let total_queries = metrics.query_requests();
    assert_eq!(total_queries, (threads * requests) as u64);
    println!(
        "served {total_queries} queries in {:.2?} ({:.0} queries/sec across {threads} threads)\n",
        elapsed,
        total_queries as f64 / elapsed.as_secs_f64()
    );

    println!(
        "{:<16}{:>10}  {:>10}  {:>10}  {:>10}",
        "endpoint", "requests", "p50 us", "p99 us", "mean us"
    );
    for endpoint in Endpoint::ALL {
        let stats = metrics.endpoint(endpoint);
        println!(
            "{:<16}{:>10}  {:>10.1}  {:>10.1}  {:>10.1}",
            stats.endpoint, stats.requests, stats.p50_us, stats.p99_us, stats.mean_us
        );
    }
    println!(
        "\ncache: hits {} / misses {} / inflight waits {}; epoch swaps {}",
        metrics.cache.hits, metrics.cache.misses, metrics.cache.inflight_waits, metrics.epoch_swaps
    );
    let persist_errors = engine.take_persist_write_errors();
    let persist = metrics.cache.persist.unwrap_or_default();
    println!(
        "persist: writes {} / errors {} / dropped {} (retained error list: {})",
        persist.writes,
        persist.write_errors,
        persist.dropped,
        persist_errors.len()
    );
    // Keep the fingerprints observable so the whole run stays honest.
    let checksum: u64 = fingerprints.iter().copied().sum();
    println!("work fingerprint: {checksum}");
}
