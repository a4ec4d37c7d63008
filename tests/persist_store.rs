//! The persistent analysis store's end-to-end guarantees:
//!
//! 1. **Cross-process reuse** — a second engine over the same store
//!    directory (the stand-in for a second process) performs **zero**
//!    truth-discovery runs for store-resident analyses; a counting
//!    strategy proves the loop never executes.
//! 2. **Corruption tolerance** — truncated, bit-flipped, and
//!    wrong-version store files degrade to clean cold misses: never an
//!    error, never a wrong hit, and discovery simply re-runs.
//! 3. **Format pinning** — a golden store directory committed under
//!    `tests/golden/persist_v1/` must keep reading; regenerate only for a
//!    deliberate format-version bump (`UPDATE_GOLDEN=1 cargo test --test
//!    persist_store`). The write side is pinned too: a fresh store writes
//!    the golden entry byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sailing::core::{AccuCopy, DetectionParams, PipelineResult, TruthDiscovery};
use sailing::engine::SailingEngine;
use sailing::model::{fixtures, ObjectId, SnapshotView, SourceId, ValueId};
use sailing::persist::{
    checksum_bytes, CompactReport, PersistentStore, StoreKey, StoreOptions, FORMAT_VERSION, MAGIC,
};

/// A strategy that counts every discovery run it performs — the proof
/// that store hits skip the loop entirely. Carries no parameters of its
/// own, so it composes with the engine's defaults exactly like the stock
/// ACCU-COPY strategy.
struct CountingAccuCopy {
    inner: AccuCopy,
    runs: Arc<AtomicUsize>,
}

impl CountingAccuCopy {
    fn new() -> (Self, Arc<AtomicUsize>) {
        let runs = Arc::new(AtomicUsize::new(0));
        (
            Self {
                inner: AccuCopy::with_defaults(),
                runs: Arc::clone(&runs),
            },
            runs,
        )
    }
}

impl TruthDiscovery for CountingAccuCopy {
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sailing-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn table1_snapshot() -> Arc<SnapshotView> {
    let (store, _) = fixtures::table1();
    Arc::new(store.snapshot())
}

/// The acceptance criterion: a second engine process over the same
/// snapshots performs zero truth-discovery runs for store-resident
/// analyses.
#[test]
fn second_engine_over_the_store_runs_zero_discovery() {
    let dir = temp_dir("zero-discovery");
    let snapshot = table1_snapshot();

    let writer = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    let first = writer.analyze_owned(Arc::clone(&snapshot));
    writer.flush_persist().unwrap();
    drop(writer);

    let (strategy, runs) = CountingAccuCopy::new();
    let reader = SailingEngine::builder()
        .strategy(strategy)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let served = reader.analyze_owned(Arc::clone(&snapshot));
    assert_eq!(
        runs.load(Ordering::SeqCst),
        0,
        "a store-resident analysis must not run discovery"
    );
    let stats = reader.cache_stats();
    assert_eq!((stats.disk_hits, stats.disk_misses), (1, 0), "{stats:?}");
    assert_eq!(served.decisions(), first.decisions());
    assert_eq!(served.result().iterations, first.result().iterations);
    assert!(served.converged());

    // An unseen snapshot still cold-runs exactly once, write-through.
    let (other_store, _) = fixtures::table1_independent_only();
    let fresh = reader.analyze(&other_store.snapshot());
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert!(!fresh.decisions().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// A whole timeline served from the store: the second process's batched
/// walk spends zero iterations and flags every epoch as cache-served.
#[test]
fn second_engine_timeline_is_served_from_the_store() {
    let dir = temp_dir("timeline");
    let (_, history, _) = fixtures::table3();
    let params = DetectionParams {
        min_overlap: 1,
        ..DetectionParams::default()
    };

    let writer = SailingEngine::builder()
        .params(params.clone())
        .persist_dir(&dir)
        .build()
        .unwrap();
    // Batched walk so the store receives *cold-keyed* entries for every
    // epoch (the warm chain's entries are provenance-specific).
    let mut first_walk = writer.timeline(history.clone());
    first_walk.prefetch_cold(2);
    let first: Vec<_> = first_walk.collect();
    writer.flush_persist().unwrap();
    drop(writer);

    let reader = SailingEngine::builder()
        .params(params)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let mut session = reader.timeline(history);
    session.prefetch_cold(2);
    let second: Vec<_> = session.by_ref().collect();
    assert_eq!(first.len(), second.len());
    assert!(second.iter().all(|e| e.from_cache()));
    assert_eq!(session.total_iterations(), 0);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.analysis().decisions(), b.analysis().decisions());
    }
    assert_eq!(reader.cache_stats().disk_hits as usize, second.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Damage in every corruption class degrades to a clean cold miss: the
/// engine re-runs discovery (exactly once), returns correct answers, and
/// surfaces no error.
#[test]
fn corrupted_store_files_degrade_to_cold_misses() {
    let snapshot = table1_snapshot();
    let expected = SailingEngine::with_defaults()
        .analyze_owned(Arc::clone(&snapshot))
        .decisions();
    let key = StoreKey::cold(snapshot.content_hash());

    // A pristine entry to damage per case.
    let pristine_dir = temp_dir("pristine");
    {
        let engine = SailingEngine::builder()
            .persist_dir(&pristine_dir)
            .build()
            .unwrap();
        engine.analyze_owned(Arc::clone(&snapshot));
        engine.flush_persist().unwrap();
    }
    let pristine = std::fs::read(pristine_dir.join(key.file_name())).unwrap();
    let header_end = pristine.iter().position(|&b| b == b'\n').unwrap();

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated-payload", pristine[..pristine.len() / 2].to_vec()),
        ("truncated-header", pristine[..header_end / 2].to_vec()),
        ("bit-flip-payload", {
            let mut b = pristine.clone();
            let i = header_end + 1 + (b.len() - header_end - 1) / 2;
            b[i] ^= 0x10;
            b
        }),
        ("bit-flip-header-checksum", {
            let mut b = pristine.clone();
            b[header_end - 1] ^= 0x01;
            b
        }),
        ("wrong-version", {
            let text = String::from_utf8(pristine.clone()).unwrap();
            text.replacen(
                &format!("{MAGIC} v{FORMAT_VERSION} "),
                &format!("{MAGIC} v{} ", FORMAT_VERSION + 1),
                1,
            )
            .into_bytes()
        }),
        ("wrong-magic", {
            let text = String::from_utf8(pristine.clone()).unwrap();
            text.replacen(MAGIC, "sailing-somethingelse", 1)
                .into_bytes()
        }),
        ("empty-file", Vec::new()),
        ("garbage", b"not a store entry at all\n{}".to_vec()),
    ];

    for (tag, bytes) in corruptions {
        let dir = temp_dir(&format!("corrupt-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(key.file_name()), &bytes).unwrap();

        // Store-level: a miss, counted as rejected (except the truncated
        // header cases which may fail magic parsing first — still a miss).
        let store = PersistentStore::open(&dir).unwrap();
        assert!(
            store.get(key, &snapshot).is_none(),
            "{tag}: must miss, not serve damage"
        );
        assert_eq!(store.stats().disk_misses, 1, "{tag}");

        // Engine-level: discovery re-runs exactly once and the answers
        // are correct; the overwritten entry is healthy again after.
        let (strategy, runs) = CountingAccuCopy::new();
        let engine = SailingEngine::builder()
            .strategy(strategy)
            .persist_dir(&dir)
            .build()
            .unwrap();
        let analysis = engine.analyze_owned(Arc::clone(&snapshot));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "{tag}: one cold re-run");
        assert_eq!(analysis.decisions(), expected, "{tag}");
        engine.flush_persist().unwrap();
        let healed = PersistentStore::open(&dir).unwrap();
        assert!(healed.get(key, &snapshot).is_some(), "{tag}: healed");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&pristine_dir).ok();
}

/// Only the store's own writer produces entries, so the reader accepts
/// its canonical layout alone: an entry whose payload is re-spaced — still
/// valid JSON, re-framed under a valid checksum — is a clean miss counted
/// in `rejected`, and the engine heals it with exactly one cold re-run.
#[test]
fn respaced_entry_is_a_rejected_miss_healed_by_one_cold_rerun() {
    let snapshot = table1_snapshot();
    let key = StoreKey::cold(snapshot.content_hash());
    let dir = temp_dir("respaced");
    {
        let engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        engine.analyze_owned(Arc::clone(&snapshot));
        engine.flush_persist().unwrap();
    }
    let path = dir.join(key.file_name());
    let written = std::fs::read(&path).unwrap();
    let header_end = written.iter().position(|&b| b == b'\n').unwrap();
    let payload = std::str::from_utf8(&written[header_end + 1..])
        .unwrap()
        .replace(",\"", ", \"");
    assert!(serde::json::parse(&payload).is_ok(), "still valid JSON");
    let respaced = format!(
        "{MAGIC} v{FORMAT_VERSION} {} {:016x}\n{payload}",
        payload.len(),
        checksum_bytes(payload.as_bytes())
    );
    std::fs::write(&path, respaced).unwrap();

    let store = PersistentStore::open(&dir).unwrap();
    assert!(
        store.get(key, &snapshot).is_none(),
        "re-spaced entry must miss"
    );
    let stats = store.stats();
    assert_eq!((stats.disk_misses, stats.rejected), (1, 1), "{stats:?}");
    drop(store);

    let (strategy, runs) = CountingAccuCopy::new();
    let engine = SailingEngine::builder()
        .strategy(strategy)
        .persist_dir(&dir)
        .build()
        .unwrap();
    engine.analyze_owned(Arc::clone(&snapshot));
    assert_eq!(runs.load(Ordering::SeqCst), 1, "one cold re-run");
    engine.flush_persist().unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), written, "healed entry");
    std::fs::remove_dir_all(&dir).ok();
}

/// `compact` sweeps damaged and stale-version entries, keeps valid ones.
#[test]
fn compact_removes_damage_and_reports_counts() {
    let dir = temp_dir("compact");
    let snapshot = table1_snapshot();
    let engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();
    engine.analyze_owned(Arc::clone(&snapshot));
    engine.flush_persist().unwrap();
    let key = StoreKey::cold(snapshot.content_hash());
    let valid = std::fs::read(dir.join(key.file_name())).unwrap();

    std::fs::write(dir.join("1111111111111111-cold.sail"), b"garbage").unwrap();
    let stale = String::from_utf8(valid)
        .unwrap()
        .replacen(" v1 ", " v9 ", 1);
    std::fs::write(dir.join("2222222222222222-cold.sail"), stale).unwrap();

    assert_eq!(
        engine.compact_persist().unwrap(),
        CompactReport {
            kept: 1,
            removed: 2,
            ..Default::default()
        }
    );
    assert!(engine
        .persist_store()
        .unwrap()
        .get(key, &snapshot)
        .is_some());
    std::fs::remove_dir_all(&dir).ok();
}

// --- async write-behind ----------------------------------------------------

/// The engine-level proof of the async write path: with an async
/// writer configured, the analysis path performs zero filesystem writes
/// on the calling thread — every entry write happens on the store's
/// background writer thread — and `flush_persist` drains
/// deterministically into a store a second engine can serve from.
#[test]
fn async_persist_keeps_the_analysis_thread_syscall_free() {
    let dir = temp_dir("async-engine");
    let engine = SailingEngine::builder()
        .persist_dir(&dir)
        .persist_options(StoreOptions::async_writer(64))
        .build()
        .unwrap();

    // Analyze several distinct snapshots from several analysis threads.
    let snaps = distinct_snapshots(5);
    let analysis_threads: Vec<std::thread::ThreadId> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let engine = engine.clone();
                let snaps = &snaps;
                scope.spawn(move || {
                    for snap in snaps.iter().skip(t % snaps.len()).chain(snaps.iter()) {
                        engine.analyze_owned(Arc::clone(snap));
                    }
                    std::thread::current().id()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    engine.analyze_owned(Arc::clone(&snaps[0]));

    // Drain barrier: after this every computed entry is durably on disk.
    engine.flush_persist().unwrap();
    let store = engine.persist_store().unwrap();
    assert_eq!(store.len(), snaps.len());
    let writers = store.fs_write_threads();
    assert!(
        !writers.contains(&std::thread::current().id()),
        "the calling thread performed a store write: {writers:?}"
    );
    for t in &analysis_threads {
        assert!(
            !writers.contains(t),
            "an analysis thread wrote: {writers:?}"
        );
    }
    assert_eq!(writers.len(), 1, "exactly the writer thread: {writers:?}");
    let stats = engine.cache_stats().persist.unwrap();
    // Racing first-misses may legitimately compute (and enqueue) one
    // snapshot more than once; every computed result was written.
    assert!(stats.writes >= snaps.len() as u64, "{stats:?}");
    assert_eq!((stats.write_errors, stats.dropped), (0, 0));
    assert!(engine.take_persist_write_errors().is_empty());

    // A second engine (the second process) serves everything from disk.
    let (strategy, runs) = CountingAccuCopy::new();
    let second = SailingEngine::builder()
        .strategy(strategy)
        .persist_dir(&dir)
        .build()
        .unwrap();
    for snap in &snaps {
        second.analyze_owned(Arc::clone(snap));
    }
    assert_eq!(runs.load(Ordering::SeqCst), 0, "all epochs store-served");
    std::fs::remove_dir_all(&dir).ok();
}

// --- shared-directory races ------------------------------------------------

/// Distinct small snapshots, one per seed, with deterministic content.
fn distinct_snapshots(n: u32) -> Vec<Arc<SnapshotView>> {
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

/// Two store handles (one async, one sync) on one directory, hammered by
/// concurrent `put`/`get`/`compact` plus a vandal planting damage:
///
/// * no valid entry is ever lost — the only way an entry can go missing
///   is a *counted* write error (the documented in-flight-temp sweep
///   race), never a silent compaction delete;
/// * no corrupt or partial entry is ever served — every hit decodes to
///   exactly the result that was put under that key;
/// * `PersistStats` invariants hold on both handles.
#[test]
fn two_handles_hammering_put_get_compact_lose_nothing_valid() {
    let dir = temp_dir("shared-hammer");
    let snaps = distinct_snapshots(6);
    let results: Vec<Arc<PipelineResult>> = snaps
        .iter()
        .map(|s| Arc::new(AccuCopy::with_defaults().run(s)))
        .collect();
    let keys: Vec<StoreKey> = snaps
        .iter()
        .map(|s| StoreKey::cold(s.content_hash()))
        .collect();

    let writer_a = PersistentStore::open_with(&dir, StoreOptions::async_writer(32)).unwrap();
    let writer_b = PersistentStore::open(&dir).unwrap();
    let rounds = 30usize;
    // A hands off to the reader after each drain barrier (a rendezvous,
    // so A cannot run ahead): every pass of the reader over the keys
    // starts right after one of A's flushes has returned, so it cannot
    // finish every get before any entry has landed, nor read only while
    // the vandal's damage is unrepaired.
    let (flushed_tx, flushed_rx) = std::sync::mpsc::sync_channel::<()>(0);

    let (gets_a, hits_matched) = std::thread::scope(|scope| {
        // Handle A: async puts + drain barriers.
        let a = &writer_a;
        let b = &writer_b;
        let snaps = &snaps;
        let results = &results;
        let keys = &keys;
        let dir = &dir;
        scope.spawn(move || {
            for r in 0..rounds {
                for i in 0..snaps.len() {
                    let i = (i + r) % snaps.len();
                    a.put(keys[i], Arc::clone(&snaps[i]), Arc::clone(&results[i]));
                }
                let _ = a.flush();
                // Fails only once the reader is done; A then writes on.
                let _ = flushed_tx.send(());
            }
        });
        // Handle B: sync puts out of phase with A.
        scope.spawn(move || {
            for r in 0..rounds {
                for i in 0..snaps.len() {
                    let i = (i + r + 3) % snaps.len();
                    b.put(keys[i], Arc::clone(&snaps[i]), Arc::clone(&results[i]));
                }
                let _ = b.flush();
            }
        });
        // Compactors on both handles, racing the writers.
        scope.spawn(move || {
            for _ in 0..rounds {
                let report = a.compact().expect("compact must never error");
                assert!(report.kept <= snaps.len() + 1, "{report:?}");
            }
        });
        scope.spawn(move || {
            for _ in 0..rounds {
                b.compact().expect("compact must never error");
            }
        });
        // A vandal planting damage at real entry paths (non-atomic writes,
        // so readers may even catch a torn garbage file — still a miss).
        scope.spawn(move || {
            for r in 0..rounds {
                let i = r % keys.len();
                let _ = std::fs::write(dir.join(keys[i].file_name()), b"vandalised");
            }
        });
        // Readers on both handles: every hit must be exact.
        let reader = scope.spawn(move || {
            let mut gets = 0u64;
            let mut matched = 0u64;
            for r in 0..rounds * 4 {
                let i = r % keys.len();
                if i == 0 {
                    // A disconnected channel means writer A is finished
                    // (or died, which fails the scope anyway).
                    let _ = flushed_rx.recv();
                }
                gets += 1;
                if let Some((snap, result)) = a.get(keys[i], &snaps[i]) {
                    assert_eq!(*snap, *snaps[i], "hit served the wrong snapshot");
                    assert_eq!(
                        result.decisions_sorted(),
                        results[i].decisions_sorted(),
                        "hit served a wrong or partial result"
                    );
                    matched += 1;
                }
                if let Some((_, result)) = b.get(keys[i], &snaps[i]) {
                    assert_eq!(result.decisions_sorted(), results[i].decisions_sorted());
                }
            }
            (gets, matched)
        });
        reader.join().unwrap()
    });
    assert!(
        gets_a > 0 && hits_matched > 0,
        "the reader saw real traffic"
    );

    // Quiesced: republish everything once, with no concurrency, and the
    // store must hold exactly the full valid set — nothing silently lost.
    for i in 0..keys.len() {
        writer_a.put(keys[i], Arc::clone(&snaps[i]), Arc::clone(&results[i]));
    }
    writer_a.flush().unwrap();
    let report = writer_b.compact().unwrap();
    assert!(!report.contended);
    assert_eq!(report.kept, keys.len(), "{report:?}");
    for (i, key) in keys.iter().enumerate() {
        let (_, result) = writer_a
            .get(*key, &snaps[i])
            .expect("valid entry lost after the hammering");
        assert_eq!(result.decisions_sorted(), results[i].decisions_sorted());
    }

    // Stats invariants on both handles: every lookup counted exactly once
    // (the final verification pass added one hit per key on handle A),
    // rejections are a subset of misses, and real write traffic happened.
    let stats_a = writer_a.stats();
    assert_eq!(
        stats_a.disk_hits + stats_a.disk_misses,
        gets_a + keys.len() as u64,
        "{stats_a:?}"
    );
    for (tag, stats) in [("async", stats_a), ("sync", writer_b.stats())] {
        assert!(stats.rejected <= stats.disk_misses, "{tag}: {stats:?}");
        assert!(stats.writes > 0, "{tag}: {stats:?}");
    }
    // The only permissible entry loss is a *counted* write error (the
    // documented temp-sweep race); the final quiesced pass above proved
    // nothing stayed lost.
    std::fs::remove_dir_all(&dir).ok();
}

// --- golden format pinning -------------------------------------------------

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/persist_v1")
}

/// The committed golden store directory pins format version 1: the file
/// *name*, the header line, and the payload must keep decoding to the
/// pinned Table 1 analysis. A format change must bump [`FORMAT_VERSION`]
/// and regenerate deliberately (`UPDATE_GOLDEN=1`), not silently.
#[test]
fn golden_store_directory_keeps_reading() {
    let snapshot = table1_snapshot();
    let key = StoreKey::cold(snapshot.content_hash());
    let live = Arc::new(AccuCopy::with_defaults().run(&snapshot));

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let _ = std::fs::remove_dir_all(golden_dir());
        let store = PersistentStore::open(golden_dir()).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&live));
        store.flush().unwrap();
        eprintln!("regenerated {}", golden_dir().display());
    }

    // The entry file exists under the name the key derives…
    let path = golden_dir().join(key.file_name());
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("golden store entry missing at {}: {e}", path.display()));
    // …opens with the v1 header…
    let header = String::from_utf8_lossy(&bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()])
        .into_owned();
    assert!(
        header.starts_with(&format!("{MAGIC} v{FORMAT_VERSION} ")),
        "golden header drifted: {header:?}"
    );
    // …and round-trips through a read-only store handle to the same
    // posteriors the live pipeline computes today (±1e-12, the goldens'
    // standard tolerance).
    let store = PersistentStore::open(golden_dir()).unwrap();
    let (snap, loaded) = store.get(key, &snapshot).expect(
        "golden entry must decode as a hit — did the format change without a version bump?",
    );
    assert_eq!(*snap, *snapshot);
    assert_eq!(loaded.decisions_sorted(), live.decisions_sorted());
    assert_eq!(loaded.converged, live.converged);
    assert_eq!(loaded.accuracies.len(), live.accuracies.len());
    for (g, l) in loaded.accuracies.iter().zip(&live.accuracies) {
        assert!((g - l).abs() < 1e-12, "golden {g} vs live {l}");
    }
    for (g, l) in loaded.dependences.iter().zip(&live.dependences) {
        assert_eq!((g.a, g.b), (l.a, l.b));
        assert!((g.probability - l.probability).abs() < 1e-12);
    }
}

/// The write side of the golden: writing the Table 1 cold entry into a
/// fresh store reproduces the committed file byte for byte, so a change
/// to the writer or the framing cannot drift the on-disk format unseen.
#[test]
fn fresh_store_writes_the_golden_entry_byte_for_byte() {
    let snapshot = table1_snapshot();
    let key = StoreKey::cold(snapshot.content_hash());
    let result = Arc::new(AccuCopy::with_defaults().run(&snapshot));
    let dir = temp_dir("golden-write");
    let store = PersistentStore::open(&dir).unwrap();
    store.put(key, Arc::clone(&snapshot), result);
    assert_eq!(store.flush().unwrap(), 1);
    let written = std::fs::read(dir.join(key.file_name())).unwrap();
    let golden = std::fs::read(golden_dir().join(key.file_name())).unwrap();
    assert!(
        written == golden,
        "written entry ({} bytes) differs from the golden ({} bytes)",
        written.len(),
        golden.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The canonical serializations the store checksums are deterministic:
/// equal inputs produce byte-identical text, and the digest survives the
/// round-trip.
#[test]
fn canonical_serialization_is_deterministic_and_digest_stable() {
    let snapshot = table1_snapshot();
    let result = AccuCopy::with_defaults().run(&snapshot);
    assert_eq!(snapshot.to_canonical_json(), snapshot.to_canonical_json());
    assert_eq!(result.to_canonical_json(), result.to_canonical_json());

    let snap_back = SnapshotView::from_json_str(&snapshot.to_canonical_json()).unwrap();
    assert_eq!(snap_back.content_hash(), snapshot.content_hash());
    let res_back = PipelineResult::from_json_str(&result.to_canonical_json()).unwrap();
    assert_eq!(res_back.content_digest(), result.content_digest());
    assert_eq!(res_back.to_canonical_json(), result.to_canonical_json());
}
