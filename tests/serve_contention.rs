//! Contention tests for the serving tier: many reader threads hammering
//! a [`ServeHandle`] while a writer swaps the epoch pointer mid-read.
//!
//! The property under test is the serving tier's consistency contract:
//! every request is answered from exactly one *published* `Analysis` —
//! pointer-identical to one of the admitted epochs, with its snapshot and
//! pipeline result never mixed across epochs — and every counter stays
//! coherent (`hits + misses` equals the number of analysis requests,
//! `generation` equals the number of epoch swaps). The metrics snapshot
//! also carries every lower layer's counters, nested whole.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sailing::core::{DeltaOutcome, DetectionParams};
use sailing::datagen::{ChurnConfig, ChurnWorld, SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::ingest::SealPolicy;
use sailing::model::{fixtures, SnapshotView, SourceId};
use sailing::persist::StoreKey;
use sailing_serve::{Endpoint, ServeHandle, Workload};

#[test]
fn readers_stay_consistent_while_the_epoch_swaps() {
    let world_a = SnapshotWorld::generate(&WorldConfig::specialist(8, 32, 16, 11));
    let world_b = SnapshotWorld::generate(&WorldConfig::specialist(8, 32, 16, 12));
    let snap_a = Arc::new(world_a.snapshot);
    let snap_b = Arc::new(world_b.snapshot);

    let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::clone(&snap_a));
    // Pin the canonical shared pipeline results for both snapshots; the
    // engine cache hands the same Arcs back on every later admission.
    let result_a = handle.current().result_arc();
    let result_b = handle.admit(Arc::clone(&snap_b)).result_arc();
    assert!(!Arc::ptr_eq(&result_a, &result_b));

    const READERS: usize = 4;
    const QUERIES: usize = 2_000;
    let stop = AtomicBool::new(false);

    let (fingerprints, writer_admits) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let handle = handle.clone();
                let (snap_a, snap_b) = (&snap_a, &snap_b);
                let (result_a, result_b) = (&result_a, &result_b);
                scope.spawn(move || {
                    let mut reader = handle.reader();
                    let mut workload = Workload::new(t as u64, 32);
                    let mut fingerprint = 0u64;
                    for _ in 0..QUERIES {
                        let current = Arc::clone(reader.current());
                        // The served analysis is exactly one of the two
                        // published epochs — snapshot and result always
                        // travel together, even mid-swap.
                        let snap = current.snapshot_arc();
                        let result = current.result_arc();
                        if Arc::ptr_eq(&result, result_a) {
                            assert!(
                                Arc::ptr_eq(&snap, snap_a),
                                "epoch A served with foreign snapshot"
                            );
                        } else {
                            assert!(
                                Arc::ptr_eq(&result, result_b),
                                "served an analysis that was never published"
                            );
                            assert!(
                                Arc::ptr_eq(&snap, snap_b),
                                "epoch B served with foreign snapshot"
                            );
                        }
                        let query = workload.next_query();
                        fingerprint += Workload::execute(&mut reader, &query) as u64;
                    }
                    fingerprint
                })
            })
            .collect();

        // The writer hammers the pointer: every admission toggles the
        // epoch, so readers refresh constantly under load.
        let writer = {
            let handle = handle.clone();
            let stop = &stop;
            let (snap_a, snap_b) = (Arc::clone(&snap_a), Arc::clone(&snap_b));
            scope.spawn(move || {
                let mut admits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    handle.admit(Arc::clone(&snap_a));
                    handle.admit(Arc::clone(&snap_b));
                    admits += 2;
                }
                admits
            })
        };

        let fingerprints: Vec<u64> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (fingerprints, writer.join().unwrap())
    });

    // Every query did observable work.
    assert_eq!(fingerprints.len(), READERS);
    assert!(fingerprints.iter().all(|&f| f > 0));

    let metrics = handle.metrics();
    // Analysis requests: the constructor's, epoch B's, and the writer's.
    let requests = 2 + writer_admits;
    assert_eq!(
        metrics.cache.hits + metrics.cache.misses,
        requests,
        "hits + misses must equal analysis requests"
    );
    assert_eq!(metrics.endpoint(Endpoint::Admit).requests, requests);
    // Reads never go through the engine cache: the query volume shows up
    // only in the endpoint counters.
    assert_eq!(metrics.query_requests(), (READERS * QUERIES) as u64);
    // Swap accounting: the generation counter and the swap metric move in
    // lockstep (the initial publication counts as swap 1 / generation 1),
    // and identical re-admissions (there are none here — the writer
    // always toggles) would not inflate either.
    assert_eq!(handle.generation(), metrics.epoch_swaps);
    assert!(
        metrics.epoch_swaps >= 2 + writer_admits,
        "every toggling admission must swap the epoch"
    );
    // No persistent store attached: no persist stats, and the
    // deferred-error channel is empty.
    assert_eq!(metrics.cache.persist, None);
    assert!(handle.take_persist_write_errors().is_empty());

    // Latency accounting: the hammered endpoint has sane quantiles.
    let topk = metrics.endpoint(Endpoint::TopK);
    assert!(topk.requests > 0);
    assert!(topk.p50_us > 0.0 && topk.p50_us <= topk.p99_us);
    assert_eq!(topk.latency.count(), topk.requests);
}

#[test]
fn a_fresh_reader_joins_mid_stream_at_the_current_epoch() {
    let world = SnapshotWorld::generate(&WorldConfig::specialist(6, 16, 8, 21));
    let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::new(world.snapshot));
    let mut early = handle.reader();
    assert_eq!(early.seen_generation(), 1);

    let world2 = SnapshotWorld::generate(&WorldConfig::specialist(6, 16, 8, 22));
    let published = handle.admit(Arc::new(world2.snapshot));
    assert_eq!(handle.generation(), 2);

    // A reader created after the swap starts at the new epoch; the old
    // reader converges on its next request.
    let mut late = handle.reader();
    assert_eq!(late.seen_generation(), 2);
    assert!(Arc::ptr_eq(late.current(), &published));
    assert!(Arc::ptr_eq(early.current(), &published));
    assert_eq!(early.seen_generation(), 2);
}

/// A damaged store entry served through a handle shows up as the store's
/// `rejected` count in the serve metrics.
#[test]
fn metrics_report_a_rejected_store_entry() {
    let dir = std::env::temp_dir().join(format!("sailing-serve-rejected-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = Arc::new(fixtures::table1().0.snapshot());
    let key = StoreKey::cold(snapshot.content_hash());
    std::fs::write(dir.join(key.file_name()), b"not a store entry at all\n{}").unwrap();

    let engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    let handle = ServeHandle::new(engine, snapshot);
    let metrics = handle.metrics();
    let persist = metrics.cache.persist.unwrap();
    assert_eq!(persist.rejected, 1, "{metrics:?}");
    assert_eq!(metrics.cache.disk_misses, 1, "{metrics:?}");
    let json = serde_json::to_string(&metrics).unwrap();
    assert!(json.contains("\"rejected\":1"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// After an incremental ingest epoch the serve metrics carry the
/// session's last outcome and dirty closure, not just its totals.
#[test]
fn metrics_report_the_last_ingest_outcome() {
    let world = ChurnWorld::generate(&ChurnConfig::streaming(10, 3, 12, 2, 1));
    let engine = SailingEngine::builder()
        .params(DetectionParams {
            hard_damping_threshold: 1.0,
            convergence_epsilon: 1e-12,
            max_iterations: 2000,
            ..DetectionParams::default()
        })
        .build()
        .unwrap();
    let handle = ServeHandle::new(
        engine.clone(),
        Arc::new(SnapshotView::from_triples(0, 0, Vec::new())),
    );
    let mut session = engine
        .ingest_session(SealPolicy::manual())
        .with_max_dirty_fraction(0.15);
    for s in 0..world.initial.num_sources() {
        let source = SourceId::from_index(s);
        for &(object, value) in world.initial.source_assertions(source) {
            session.assert_claim(source, object, value, 0, 0);
        }
    }
    assert!(session.seal());
    handle.publish_ingest(&session);
    for &(s, o, v) in world.deltas[0].ops() {
        session.append(s, o, v, 0, 1);
    }
    assert!(session.seal());
    handle.publish_ingest(&session);

    let ingest = handle.metrics().ingest;
    assert_eq!(
        ingest.last_outcome,
        Some(DeltaOutcome::Incremental),
        "{ingest:?}"
    );
    assert!(ingest.dirty_sources_last > 0, "{ingest:?}");
    assert!(ingest.dirty_objects_total > 0, "{ingest:?}");
    assert_eq!(
        ingest,
        session.stats(),
        "one session folds to its own stats"
    );
}
