//! Streaming ingestion end to end: a live claim stream appended to the
//! ingest log, sealed into delta epochs, analyzed incrementally, and
//! published to the serving tier.
//!
//! A churn world streams in cohort by cohort: each epoch one source
//! vanishes or reappears, so every sealed delta touches 10% of the
//! object space. The session's [`IngestStats`] must show the analysis
//! cost tracking the *delta* (the dirty closure is exactly the churned
//! cohort) rather than the snapshot, and the final posteriors must match
//! a chained full warm re-analysis within 1e-9.
//!
//! Run with `cargo run --example ingest_stream`.
//!
//! With `SAILING_INGEST_FAULT_SEED=<n>` the run adds a durable-log
//! recovery pass: the same stream is written through a seeded
//! [`FaultyFs`] (torn tails, ENOSPC, EIO on the segment writes), the log
//! is reopened, and the recovered prefix must truncate cleanly to the
//! last valid record and replay to the same posteriors as analyzing the
//! recovered snapshot directly. CI runs this with a fixed seed.

use std::sync::Arc;

use sailing::core::{AccuCopy, DetectionParams};
use sailing::datagen::{ChurnConfig, ChurnWorld};
use sailing::engine::{IngestStats, SailingEngine};
use sailing::ingest::{ClaimLog, SealPolicy};
use sailing::model::{SnapshotView, SourceId, Timestamp};
use sailing::persist::{FaultPlan, FaultyFs, WriteFault};

/// Tight fixpoint parameters: the engine defaults cap iteration counts
/// for interactive use; a chained stream needs every epoch's prior to be
/// genuinely converged (the warm-start gate insists on it).
fn params() -> DetectionParams {
    DetectionParams {
        hard_damping_threshold: 1.0,
        convergence_epsilon: 1e-12,
        max_iterations: 2000,
        ..DetectionParams::default()
    }
}

fn stream_initial(session: &mut sailing::engine::IngestSession, initial: &SnapshotView) {
    for s in 0..initial.num_sources() {
        let sid = SourceId::from_index(s);
        for &(object, value) in initial.source_assertions(sid) {
            session.assert_claim(sid, object, value, 0, 0);
        }
    }
}

fn main() {
    let config = ChurnConfig::streaming(10, 3, 12, 8, 1);
    let world = ChurnWorld::generate(&config);
    let engine = SailingEngine::builder().params(params()).build().unwrap();
    let pipeline = AccuCopy::new(params()).unwrap();

    println!(
        "== Streaming ingestion: {} sources x {} objects, {} churn epochs ==",
        world.initial.num_sources(),
        world.initial.num_objects(),
        world.deltas.len()
    );
    println!(
        "   every delta touches one cohort: {:.0}% of the object space\n",
        world.delta_object_fraction() * 100.0
    );

    // Bootstrap: the initial world arrives as one big epoch (a cold run —
    // there is no converged prior yet), then each churn epoch seals into
    // a small delta analyzed incrementally.
    let mut session = engine
        .ingest_session(SealPolicy::manual())
        .with_max_dirty_fraction(0.15);
    stream_initial(&mut session, &world.initial);
    session.seal();
    assert_eq!(session.stats().full_fallbacks, 1, "bootstrap is a cold run");

    // The baseline the stats are judged against: a full warm re-analysis
    // of every post-delta snapshot, chained on its own converged priors.
    let mut full_prev = pipeline.run(&world.initial);
    assert!(full_prev.converged);
    let mut full_iterations = 0u64;
    let bootstrap_iterations = session.stats().iterations_total;

    println!("epoch  dirty objs  dirty srcs  iterations  outcome");
    for (i, delta) in world.deltas.iter().enumerate() {
        let before = session.stats().iterations_total;
        for &(s, o, v) in delta.ops() {
            session.append(s, o, v, 0, 1 + i as Timestamp);
        }
        assert!(session.seal(), "manual policy: seal yields the epoch");
        let stats = session.stats();
        // Delta-proportional, structurally: the dirty closure is exactly
        // the churned cohort, never the whole world.
        assert_eq!(stats.dirty_objects_last, config.objects_per_cohort);
        assert_eq!(
            stats.last_outcome.map(|o| o.is_incremental()),
            Some(true),
            "epoch {i} must run incrementally"
        );
        let full = pipeline.run_warm(&session.snapshot_arc(), Some(&full_prev));
        assert!(full.converged);
        full_iterations += full.iterations as u64;
        println!(
            "{i:>5}  {:>10}  {:>10}  {:>10}  incremental",
            stats.dirty_objects_last,
            stats.dirty_sources_last,
            stats.iterations_total - before,
        );
        full_prev = full;
    }

    // The incremental path must not spend more iterations than the
    // chained full re-analyses — and each of its iterations touches only
    // the dirty cohort, not the whole snapshot.
    let stats = session.stats();
    let incremental_iterations = stats.iterations_total - bootstrap_iterations;
    assert_eq!(stats.incremental_runs, world.deltas.len() as u64);
    assert!(
        incremental_iterations <= full_iterations,
        "incremental spent {incremental_iterations} iterations, full chain {full_iterations}"
    );
    println!(
        "\n   stream: {} events, {} deltas sealed, {} incremental / {} full",
        stats.events, stats.deltas_sealed, stats.incremental_runs, stats.full_fallbacks
    );
    println!(
        "   iterations after bootstrap: {incremental_iterations} incremental vs {full_iterations} full-warm"
    );

    // Posterior parity with the full chain, per the 1e-9 contract.
    let streamed = session.analysis();
    for (s, (x, y)) in streamed
        .accuracies()
        .iter()
        .zip(&full_prev.accuracies)
        .enumerate()
    {
        assert!((x - y).abs() < 1e-9, "accuracy[{s}] diverged: {x} vs {y}");
    }
    println!("   final accuracies match the full re-analysis within 1e-9");

    // Publication: the serving tier swaps the streamed analysis in like
    // any other epoch and folds the ingest counters into its metrics.
    let serve = sailing_serve::ServeHandle::new(
        engine.clone(),
        Arc::new(SnapshotView::from_triples(0, 0, Vec::new())),
    );
    serve.publish_ingest(&session);
    let metrics = serve.metrics();
    assert_eq!(metrics.ingest, stats, "one session folds to its own stats");
    println!(
        "   served epoch generation {}: {} ingest events visible in /metrics\n",
        serve.generation(),
        metrics.ingest.events
    );

    if let Ok(seed) = std::env::var("SAILING_INGEST_FAULT_SEED") {
        let seed: u64 = seed.parse().expect("SAILING_INGEST_FAULT_SEED: u64");
        fault_recovery_pass(&engine, &world, seed);
    }
}

/// The seeded torn-tail pass: the same stream goes through a durable log
/// whose **last** segment write is torn mid-file at a seed-chosen byte
/// (a crash between `write` and the page hitting disk). The reopened log
/// must truncate to the last valid record and replay consistently.
fn fault_recovery_pass(engine: &SailingEngine, world: &ChurnWorld, seed: u64) {
    println!("== Durable log recovery (fault seed {seed}) ==");
    let total = world.initial.num_assertions() as u64;
    let segment_events = 16u64;
    let segment_writes = total.div_ceil(segment_events);
    // Tear inside the final segment: past its header (~26 bytes), well
    // short of its full body, so the recovered stream is a strict prefix.
    let keep = (30 + (seed % 7) * 40) as usize;
    let plan = FaultPlan::new().fail_nth_write(segment_writes, WriteFault::Torn { keep });
    let fs = Arc::new(FaultyFs::new(plan));
    let dir = std::env::temp_dir().join(format!("sailing-ingest-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = SealPolicy::after_events(segment_events as usize);

    {
        let mut log = ClaimLog::open_with_fs(fs.clone(), &dir, policy).unwrap();
        for s in 0..world.initial.num_sources() {
            let sid = SourceId::from_index(s);
            for &(object, value) in world.initial.source_assertions(sid) {
                log.append(sid, object, Some(value), 0, 0);
                log.poll_seal();
            }
        }
        log.seal();
        let stats = log.stats();
        println!(
            "   wrote {} events under faults: {} segments written, {} write errors",
            stats.events_appended, stats.segments_written, stats.segment_write_errors
        );
    }

    // Reopen over the healed filesystem: recovery must truncate the torn
    // tail to the last valid record and keep the contiguous prefix.
    fs.plan().heal();
    let log = ClaimLog::open_with_fs(fs, &dir, policy).unwrap();
    let stats = log.stats();
    assert!(
        stats.recovered_events < total,
        "the torn tail must cost something: {} of {total}",
        stats.recovered_events
    );
    assert!(
        stats.recovered_events >= total - segment_events,
        "only the torn final segment may be lost: {} of {total}",
        stats.recovered_events
    );
    println!(
        "   reopened: {} / {total} events recovered ({} truncated records, {} stranded segments)",
        stats.recovered_events, stats.truncated_records, stats.dropped_segments
    );

    // Replay converges to the same posteriors as analyzing the recovered
    // snapshot directly.
    assert!(stats.recovered_events > 0, "a prefix must survive");
    let recovered = stats.recovered_events;
    let session = engine.ingest_session_from(log);
    let expected =
        SnapshotView::from_triples(0, 0, Vec::new()).apply_delta(&session.log().replay_delta());
    assert_eq!(
        session.snapshot().content_hash(),
        expected.content_hash(),
        "replayed session state is the net effect of the recovered events"
    );
    if recovered > 0 {
        let direct = engine.analyze(&expected);
        assert_eq!(session.analysis().decisions(), direct.decisions());
        for (x, y) in session
            .analysis()
            .accuracies()
            .iter()
            .zip(direct.accuracies())
        {
            assert!((x - y).abs() < 1e-9);
        }
    }
    let IngestStats { events, .. } = session.stats();
    assert_eq!(events, recovered);
    println!("   replay of the recovered prefix matches direct analysis\n");
    let _ = std::fs::remove_dir_all(&dir);
}
