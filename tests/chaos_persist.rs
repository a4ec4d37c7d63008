//! Chaos tests: seeded fault plans driven end to end through the engine
//! and the serving tier.
//!
//! Every scenario is deterministic — faults fire at exact operation
//! positions of a [`FaultPlan`] (or a seeded plan derived from
//! `SAILING_CHAOS_SEED`), never from timing — and asserts the workspace's
//! failure-semantics contract: transient write failures are absorbed by
//! retry with zero user-visible errors, persistent failure trips the
//! circuit breaker through its full open → half-open → closed cycle, and
//! an admission that cannot converge leaves the serving tier answering from
//! its last good epoch with `Health::Degraded` reported (then cleared).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sailing::core::{AccuCopy, PipelineResult, Termination, TruthDiscovery, Watchdog};
use sailing::datagen::{SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::model::SnapshotView;
use sailing::persist::{
    BreakerState, FaultPlan, FaultyFs, StoreFs, StoreOptions, WriteFault, DEFAULT_QUEUE_DEPTH,
};
use sailing_serve::{Health, ServeHandle};

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sailing-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn world(seed: u64) -> Arc<SnapshotView> {
    let config = WorldConfig::specialist(6, 24, 12, seed);
    Arc::new(SnapshotWorld::generate(&config).snapshot)
}

/// Scenario (a): one transient write failure, absorbed by retry — the
/// entry lands on disk, no error is ever user-visible, and the only
/// trace is the store's `retries` counter.
#[test]
fn transient_write_failure_is_absorbed_by_retry() {
    let dir = chaos_dir("retry");
    let plan = Arc::new(FaultPlan::new().fail_nth_write(1, WriteFault::Eio));
    let fs: Arc<dyn StoreFs> = Arc::new(FaultyFs::with_plan(Arc::clone(&plan)));

    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .persist_options(StoreOptions::async_writer(DEFAULT_QUEUE_DEPTH).retry(3, Duration::ZERO))
        .persist_fs(fs)
        .build()
        .unwrap();
    let analysis = engine.analyze_owned(world(11));
    assert!(!analysis.decisions().is_empty());

    engine.flush_persist().unwrap();
    assert!(
        engine.take_persist_write_errors().is_empty(),
        "a retried-to-success write must surface no error"
    );
    let stats = engine.cache_stats().persist.unwrap();
    assert_eq!(
        (stats.writes, stats.write_errors, stats.retries),
        (1, 0, 1),
        "one entry written, zero errors, exactly one re-attempt"
    );
    // The first write attempt failed, the re-attempt succeeded.
    assert_eq!(plan.writes_seen(), 2);

    // The entry is genuinely on disk: a clean second engine gets a hit.
    drop(engine);
    let reader = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    reader.analyze_owned(world(11));
    assert_eq!(reader.cache_stats().disk_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scenario (b): persistent failure trips the breaker, which fast-fails
/// without touching the filesystem, half-opens for a single probe once
/// the cooldown passes, and re-closes when the probe succeeds.
#[test]
fn breaker_cycles_open_half_open_closed_under_persistent_failure() {
    let dir = chaos_dir("breaker");
    let plan = Arc::new(FaultPlan::new().fail_writes(1, u64::MAX, WriteFault::Enospc));
    let fs: Arc<dyn StoreFs> = Arc::new(FaultyFs::with_plan(Arc::clone(&plan)));

    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .persist_options(
            StoreOptions::default()
                .retry(2, Duration::ZERO)
                .breaker(2, Duration::ZERO),
        )
        .persist_fs(fs)
        .build()
        .unwrap();

    // Two exhausted-retry failures (2 attempts each) trip the breaker.
    engine.analyze_owned(world(21));
    assert!(engine.flush_persist().is_err());
    assert_eq!(
        engine.cache_stats().persist.unwrap().breaker,
        BreakerState::Closed
    );
    engine.analyze_owned(world(22));
    assert!(engine.flush_persist().is_err());
    assert_eq!(
        engine.cache_stats().persist.unwrap().breaker,
        BreakerState::Open
    );

    // Zero cooldown: the next analysis is admitted as the single
    // half-open probe; the one after that is fast-failed without a
    // single filesystem operation.
    let writes_before_fast_fail = plan.writes_seen();
    engine.analyze_owned(world(23));
    assert_eq!(
        engine.cache_stats().persist.unwrap().breaker,
        BreakerState::HalfOpen
    );
    engine.analyze_owned(world(24));
    assert_eq!(engine.cache_stats().persist.unwrap().breaker_fast_fails, 1);
    assert_eq!(
        plan.writes_seen(),
        writes_before_fast_fail,
        "a fast-failed write must not touch the filesystem"
    );

    // The disk recovers; the buffered probe succeeds and re-closes the
    // breaker, after which writes flow normally again.
    plan.heal();
    assert_eq!(engine.flush_persist().unwrap(), 1);
    assert_eq!(
        engine.cache_stats().persist.unwrap().breaker,
        BreakerState::Closed
    );
    engine.analyze_owned(world(25));
    assert_eq!(engine.flush_persist().unwrap(), 1);

    let stats = engine.cache_stats().persist.unwrap();
    assert_eq!(stats.writes, 2, "the probe and the post-recovery write");
    assert_eq!(stats.write_errors, 2, "one per exhausted-retry entry");
    assert_eq!(stats.retries, 2, "one re-attempt per failed entry");
    assert_eq!(stats.breaker_fast_fails, 1);
    assert_eq!(stats.dropped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A world whose discovery loop oscillates with period 7. The cycle
/// closes around iteration 80; the parameters give the loop room to show
/// it would spin well past the default 20-iteration cap.
fn oscillating_world() -> (Arc<SnapshotView>, sailing::core::DetectionParams) {
    let config = WorldConfig::specialist(6, 10, 6, 32);
    let params = sailing::core::DetectionParams {
        max_iterations: 200,
        ..sailing::core::DetectionParams::default()
    };
    (Arc::new(SnapshotWorld::generate(&config).snapshot), params)
}

/// A **genuine** oscillation, not an injected one: this sparse world
/// (found by sweeping seeded specialist worlds) flip-flops with period 7
/// under the default hard damping threshold instead of converging. The
/// armed watchdog ends the spin early as a typed limit-cycle outcome;
/// the unarmed engine burns its whole iteration budget on the same
/// snapshot.
#[test]
fn watchdog_ends_a_genuinely_oscillating_run_as_a_limit_cycle() {
    let (snap, params) = oscillating_world();
    let watched = SailingEngine::builder()
        .params(params.clone())
        .discovery_watchdog(Watchdog::off().limit_cycles())
        .build()
        .unwrap();
    let analysis = watched.analyze_owned(Arc::clone(&snap));
    assert!(!analysis.converged());
    match analysis.termination() {
        Termination::LimitCycle { period } => assert!(period >= 2, "period {period}"),
        other => panic!("expected a limit cycle, got {other:?}"),
    }

    let plain = SailingEngine::builder().params(params).build().unwrap();
    let plain = plain.analyze_owned(snap);
    assert_eq!(plain.termination(), Termination::IterationCap);
    assert!(
        analysis.result_arc().iterations < plain.result_arc().iterations,
        "the watchdog must stop the spin before the iteration cap"
    );
}

/// The sharded loop runs under the builder's watchdog: for every worker
/// count it stops on the same limit cycle, at the same iteration, with
/// the same accuracy bits as the monolithic analysis.
#[test]
fn watchdog_ends_a_sharded_run_on_the_same_limit_cycle() {
    let (snap, params) = oscillating_world();
    let engine = SailingEngine::builder()
        .params(params)
        .discovery_watchdog(Watchdog::off().limit_cycles())
        .build()
        .unwrap();
    let solo = engine.analyze_owned(Arc::clone(&snap));
    assert!(
        matches!(solo.termination(), Termination::LimitCycle { .. }),
        "{:?}",
        solo.termination()
    );
    for workers in 1..=3 {
        let sharded = engine.analyze_sharded(&snap, workers).unwrap();
        assert_eq!(
            sharded.termination(),
            solo.termination(),
            "workers={workers}"
        );
        assert_eq!(
            sharded.result().iterations,
            solo.result().iterations,
            "workers={workers}"
        );
        assert!(!sharded.converged());
        assert_eq!(sharded.accuracies().len(), solo.accuracies().len());
        for (x, y) in sharded.accuracies().iter().zip(solo.accuracies()) {
            assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
        }
    }
}

/// A zero deadline ends a sharded run after its first iteration.
#[test]
fn zero_deadline_ends_a_sharded_run_after_one_iteration() {
    let (snap, params) = oscillating_world();
    let engine = SailingEngine::builder()
        .params(params)
        .discovery_watchdog(Watchdog::off().deadline(Duration::ZERO))
        .build()
        .unwrap();
    for workers in 1..=3 {
        let sharded = engine.analyze_sharded(&snap, workers).unwrap();
        assert_eq!(sharded.termination(), Termination::DeadlineExceeded);
        assert_eq!(sharded.result().iterations, 1, "workers={workers}");
        assert!(!sharded.converged());
    }
}

/// A watchdog-stopped analysis reaches its caller but neither cache tier:
/// the same engine recomputes it, and a later engine without a watchdog
/// on the same store directory misses on disk and runs to its own end.
#[test]
fn watchdog_stopped_analyses_are_neither_cached_nor_persisted() {
    let snap = world(41);
    let dir = chaos_dir("watchdog-unstored");
    {
        let stopped = SailingEngine::builder()
            .persist_dir(&dir)
            .discovery_watchdog(Watchdog::off().deadline(Duration::ZERO))
            .build()
            .unwrap();
        for _ in 0..2 {
            let analysis = stopped.analyze_owned(Arc::clone(&snap));
            assert_eq!(analysis.termination(), Termination::DeadlineExceeded);
            assert_eq!(analysis.result().iterations, 1);
        }
        stopped.flush_persist().unwrap();
        let stats = stopped.cache_stats();
        assert_eq!(stats.hits, 0, "the memory tier must recompute: {stats:?}");
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.disk_misses, 2);
        assert_eq!(stats.persist.map(|p| p.writes), Some(0));
    }
    let fresh = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    let analysis = fresh.analyze_owned(Arc::clone(&snap));
    let stats = fresh.cache_stats();
    assert_eq!((stats.disk_hits, stats.disk_misses), (0, 1), "{stats:?}");
    assert_ne!(analysis.termination(), Termination::DeadlineExceeded);
    assert!(analysis.result().iterations > 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A discovery strategy that deterministically refuses to converge on
/// one specific snapshot (by content hash) — the forced equivalent of a
/// pipeline the watchdog had to stop.
struct Sabotaged {
    inner: AccuCopy,
    poisoned: u64,
}

impl TruthDiscovery for Sabotaged {
    fn name(&self) -> &'static str {
        "sabotaged-accu-copy"
    }

    fn discover(&self, snapshot: &SnapshotView) -> PipelineResult {
        let mut result = self.inner.run(snapshot);
        if snapshot.content_hash() == self.poisoned {
            result.converged = false;
            result.termination = Termination::LimitCycle { period: 2 };
        }
        result
    }
}

/// Scenario (c): an admission whose analysis ends as a watchdog stop is
/// refused publication — readers keep answering from the last good
/// epoch, health degrades (with a reason and a start time), and the next
/// converging admission publishes and clears the degradation.
#[test]
fn failed_refresh_serves_stale_and_reports_degraded_health() {
    let (snap_a, snap_b, snap_c) = (world(31), world(32), world(33));
    let engine = SailingEngine::builder()
        .strategy(Sabotaged {
            inner: AccuCopy::with_defaults(),
            poisoned: snap_b.content_hash(),
        })
        .build()
        .unwrap();

    let handle = ServeHandle::new(engine, Arc::clone(&snap_a));
    let good = handle.current();
    assert!(handle.health().is_healthy());
    assert_eq!(handle.generation(), 1);

    // The poisoned snapshot fails to converge: no publication, the last
    // good analysis keeps being served, health degrades.
    let served = handle.admit(Arc::clone(&snap_b));
    assert!(
        Arc::ptr_eq(&served.result_arc(), &good.result_arc()),
        "a refused admission must hand back the analysis still being served"
    );
    assert_eq!(
        handle.generation(),
        1,
        "no epoch swap on a refused admission"
    );
    match handle.health() {
        Health::Degraded { reason, .. } => assert!(
            reason.contains("LimitCycle"),
            "the degradation reason names the watchdog outcome: {reason}"
        ),
        Health::Healthy => panic!("health must be degraded after a refused admission"),
    }
    let metrics = handle.metrics();
    assert!(!metrics.healthy);
    assert!(metrics.degraded_reason.is_some());
    assert!(metrics.degraded_for_secs >= 0.0);

    // A second failure keeps the original outage start time.
    let first_since = match handle.health() {
        Health::Degraded { since, .. } => since,
        Health::Healthy => unreachable!(),
    };
    handle.admit(Arc::clone(&snap_b));
    match handle.health() {
        Health::Degraded { since, .. } => assert_eq!(since, first_since),
        Health::Healthy => panic!("still degraded"),
    }

    // A converging admission publishes and restores health.
    let fresh = handle.admit(snap_c);
    assert!(!Arc::ptr_eq(&fresh.result_arc(), &good.result_arc()));
    assert_eq!(handle.generation(), 2);
    assert!(handle.health().is_healthy());
    assert!(handle.metrics().healthy);
}

/// Seeded end-to-end sweep: a whole `FaultPlan::seeded` plan (seed from
/// `SAILING_CHAOS_SEED`, default 1) runs under retry + breaker, and the
/// system's invariants hold regardless of which faults the seed drew —
/// analyses always answer, counters stay coherent, and after the plan
/// heals every entry can be re-persisted and served from disk.
#[test]
fn seeded_plan_end_to_end() {
    let seed: u64 = std::env::var("SAILING_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let dir = chaos_dir(&format!("seeded-{seed}"));
    let plan = Arc::new(FaultPlan::seeded(seed));
    let fs: Arc<dyn StoreFs> = Arc::new(FaultyFs::with_plan(Arc::clone(&plan)));

    // In-memory caching off: every analyze exercises the disk path, so
    // the post-heal pass re-persists whatever the faults blocked (a
    // memory hit would never re-put).
    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .cache_capacity(0)
        .persist_options(
            StoreOptions::default()
                .retry(2, Duration::ZERO)
                .breaker(3, Duration::ZERO),
        )
        .persist_fs(fs)
        .build()
        .unwrap();

    let worlds: Vec<_> = (41..47).map(world).collect();
    for snap in &worlds {
        // Analyses must answer no matter what the store is doing.
        let analysis = engine.analyze_owned(Arc::clone(snap));
        assert!(!analysis.decisions().is_empty());
        let _ = engine.flush_persist(); // may fail: that's the scenario
    }
    let mid = engine.cache_stats();
    assert_eq!(mid.disk_misses, worlds.len() as u64, "all cold this run");
    assert_eq!(mid.disk_hits, 0);

    // The storm passes: re-walking the corpus serves persisted entries
    // from disk and recomputes + re-persists the blocked or torn ones.
    plan.heal();
    for snap in &worlds {
        engine.analyze_owned(Arc::clone(snap));
        engine.flush_persist().unwrap();
    }
    let after = engine.cache_stats().persist.unwrap();
    assert_eq!(after.breaker, BreakerState::Closed);
    assert!(
        after.writes >= worlds.len() as u64,
        "every entry eventually lands: {after:?}"
    );

    // A clean second process serves every snapshot from disk.
    drop(engine);
    let reader = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    for snap in &worlds {
        reader.analyze_owned(Arc::clone(snap));
    }
    assert_eq!(reader.cache_stats().disk_hits, worlds.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}
