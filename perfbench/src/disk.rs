//! `disk_reopen`: a store is filled, then a freshly built engine over the
//! same directory serves every `analyze_owned` from disk.
//!
//! Each read operation is one disk-served analysis (the in-memory cache
//! is off, so every read goes to the store). Each read is followed by one
//! write operation: `PersistentStore::put` + `flush` of a precomputed
//! result under a key the reads never ask for. Checks: every disk-served
//! result has the cold result's `content_digest`, and every round of
//! reads moves the engine's disk hits by exactly the number of inputs and
//! its disk misses by none.
//!
//! The traced run also probes a second store handle (`persist.get`),
//! times the two decoders (`PipelineResult::from_json_str`,
//! `SnapshotView::from_json_str`) on the stored result's and snapshot's
//! canonical JSON, and replays the read through its parts: `content_hash`,
//! the file read, and the JSON parse of the entry payload (the step the
//! store's private entry decoder starts with).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sailing::SailingEngine;
use sailing_core::PipelineResult;
use sailing_model::SnapshotView;
use sailing_persist::{PersistentStore, StoreKey};

use crate::inputs::specialist_worlds;
use crate::layers::{median_ms, put_median};
use crate::stats::{median, quantile, Histogram};
use crate::trace::{Tracer, SETUP_OP};
use crate::{Args, Outcome, SETUP_REPS_PER_ROUND};

pub const INPUTS: usize = 8;
pub const SOURCES: usize = 50;
pub const OBJECTS: usize = 400;
pub const COVERAGE: usize = 40;
/// 130 to 180 reads fit a 40 s run, so p90 leaves ten or more samples
/// beyond it.
pub const TAIL_Q: f64 = 0.90;
/// Provenance of the write operations' keys: warm keys, which the cold
/// reads never look up.
const WRITE_PROVENANCE: u64 = 0x0057_5249_5445;

/// Removes the store directory when the run ends, however it ends.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine_over(dir: &Path) -> SailingEngine {
    SailingEngine::builder()
        .cache_capacity(0)
        .persist_dir(dir)
        .build()
        .expect("a fresh store directory opens")
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let worlds = specialist_worlds(args.seed, INPUTS, SOURCES, OBJECTS, COVERAGE);
    let dir = StoreDir(args.work_dir.join(format!(
        "store-disk_reopen-{}-{}",
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&dir.0);

    // Load generation: a first engine analyzes every input cold and
    // writes it to the fresh store.
    let cold: Vec<(Arc<SnapshotView>, Arc<PipelineResult>)> = {
        let engine = engine_over(&dir.0);
        let cold = worlds
            .iter()
            .map(|w| {
                let a = engine.analyze_owned(Arc::new(w.snapshot()));
                (a.snapshot_arc(), a.result_arc())
            })
            .collect();
        engine.flush_persist().expect("the fill flushes");
        cold
    };
    let hashes: Vec<u64> = cold.iter().map(|(s, _)| s.content_hash()).collect();
    let entry_bytes: Vec<u64> = hashes
        .iter()
        .map(|&h| {
            std::fs::metadata(dir.0.join(StoreKey::cold(h).file_name()))
                .map(|m| m.len())
                .expect("every input has a stored entry")
        })
        .collect();
    let result_json: Vec<String> = cold.iter().map(|(_, r)| r.to_canonical_json()).collect();
    let snapshot_json: Vec<String> = cold.iter().map(|(s, _)| s.to_canonical_json()).collect();

    // Set-up: snapshots from the claim triples and an engine reopening
    // the filled store. It is timed before the first round and again
    // after every round.
    let set_up = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let snaps: Vec<Arc<SnapshotView>> = worlds
            .iter()
            .map(|w| {
                tracer.span("model.snapshot_build", SETUP_OP, None, |_| {
                    Arc::new(w.snapshot())
                })
            })
            .collect();
        let engine = engine_over(&dir.0);
        setup_s.push(start.elapsed().as_secs_f64());
        (snaps, engine)
    };
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS_PER_ROUND {
        drop(set_up(&mut setup_s));
    }
    let (snaps, engine) = set_up(&mut setup_s);
    // A second handle for the traced probes, so the engine's counters
    // only see the engine's own reads.
    let probe = args.trace.then(|| {
        tracer.span("persist.open", SETUP_OP, None, |_| {
            PersistentStore::open(&dir.0).expect("the store reopens")
        })
    });
    let store = engine.persist_store().expect("the engine has a store");

    let mut reads = Histogram::default();
    let mut writes_ms = Vec::new();
    let mut first_precision = vec![None; snaps.len()];
    let mut hits_per_round = Vec::new();
    let mut misses = 0;
    let mut op_id = 0u64;
    let mut rounds = 0usize;
    let mut setup_time = Duration::ZERO;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < args.run_for {
        let traced = tracer.enabled() && rounds > 0;
        let before = engine.cache_stats();
        for i in 0..snaps.len() {
            op_id += 1;
            let snap = &snaps[i];
            let t = Instant::now();
            let analysis = if traced {
                tracer.span("op", op_id, None, |root| {
                    let analysis = tracer.span("engine.analyze_owned", op_id, root, |_| {
                        engine.analyze_owned(Arc::clone(snap))
                    });
                    let probe = probe.as_ref().expect("traced runs open a probe handle");
                    let got = tracer.span("persist.get", op_id, root, |_| {
                        probe.get(StoreKey::cold(hashes[i]), snap)
                    });
                    out.check(got.is_some(), || format!("probe handle missed input {i}"));
                    let result = tracer.span("persist.decode_result", op_id, root, |_| {
                        PipelineResult::from_json_str(&result_json[i])
                    });
                    let snapshot = tracer.span("persist.decode_snapshot", op_id, root, |_| {
                        SnapshotView::from_json_str(&snapshot_json[i])
                    });
                    let decoded = result
                        .is_ok_and(|r| r.content_digest() == cold[i].1.content_digest())
                        && snapshot.is_ok_and(|s| s == **snap);
                    out.check(decoded, || {
                        format!("standalone decode of input {i} differs")
                    });
                    // The disk-served read step by step: key hash, file
                    // read, and the JSON parse of the entry's payload.
                    tracer.span("replay", op_id, root, |parent| {
                        let hash = tracer
                            .span("model.content_hash", op_id, parent, |_| snap.content_hash());
                        let path = dir.0.join(StoreKey::cold(hash).file_name());
                        let bytes =
                            tracer.span("persist.read", op_id, parent, |_| std::fs::read(&path));
                        let parsed = bytes.ok().and_then(|bytes| {
                            let payload = bytes.splitn(2, |&b| b == b'\n').nth(1)?.to_vec();
                            let text = String::from_utf8(payload).ok()?;
                            tracer.span("persist.parse_entry", op_id, parent, |_| {
                                serde::json::parse(&text).ok()
                            })
                        });
                        let ok = parsed.is_some_and(|entry| entry.field("result").is_some());
                        out.check(ok, || format!("replayed read of input {i} failed"));
                    });
                    analysis
                })
            } else {
                engine.analyze_owned(Arc::clone(snap))
            };
            if !traced {
                reads.record(t.elapsed().as_nanos() as u64);
            }
            let digest = analysis.result().content_digest();
            out.check(digest == cold[i].1.content_digest(), || {
                format!(
                    "disk-served input {i} has digest {digest:016x}, cold had {:016x}",
                    cold[i].1.content_digest()
                )
            });
            if first_precision[i].is_none() {
                first_precision[i] = worlds[i].truth.decision_precision(&analysis.decisions());
            }
            drop(analysis);

            // The write beside each read: a precomputed result, put and
            // flushed under a key no read asks for.
            let key = StoreKey::warm(hashes[i], WRITE_PROVENANCE);
            let (snap_w, result_w) = (Arc::clone(&cold[i].0), Arc::clone(&cold[i].1));
            let t = Instant::now();
            let flushed = tracer.span("write", op_id, None, |root| {
                tracer.span("persist.put", op_id, root, |_| {
                    store.put(key, snap_w, result_w)
                });
                tracer.span("persist.flush", op_id, root, |_| store.flush())
            });
            writes_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(flushed.is_ok(), || {
                format!("flush after write {i} failed: {flushed:?}")
            });
        }
        let after = engine.cache_stats();
        let hits = after.disk_hits - before.disk_hits;
        let round_misses = after.disk_misses - before.disk_misses;
        misses += round_misses;
        hits_per_round.push(hits);
        out.check(hits == snaps.len() as u64 && round_misses == 0, || {
            format!(
                "round {rounds}: {hits} disk hits and {round_misses} misses for {} reads",
                snaps.len()
            )
        });
        rounds += 1;
        let paused = Instant::now();
        for _ in 0..SETUP_REPS_PER_ROUND {
            drop(set_up(&mut setup_s));
        }
        setup_time += paused.elapsed();
    }
    let wall_s = (start.elapsed() - setup_time).as_secs_f64();
    let read_count = rounds * snaps.len();

    let precisions: Vec<f64> = first_precision
        .iter()
        .map(|p| p.expect("planted truth"))
        .collect();
    let mut sorted_bytes = entry_bytes.clone();
    sorted_bytes.sort_unstable();
    out.count("inputs", snaps.len() as u64);
    out.count("entry_bytes_total", entry_bytes.iter().sum());
    out.count("disk_hits_per_round", hits_per_round[0]);
    out.count("disk_misses", misses);
    out.note(format!(
        "{} x specialist({SOURCES}, {OBJECTS}, {COVERAGE}); entries {}..{} bytes; {rounds} rounds, {read_count} reads + {read_count} writes in {wall_s:.2} s",
        snaps.len(),
        sorted_bytes[0],
        sorted_bytes[sorted_bytes.len() - 1],
    ));
    out.note(format!(
        "writes (put + flush): p50 {:.3} ms, max {:.3} ms",
        median(&writes_ms),
        writes_ms.iter().copied().fold(0.0, f64::max)
    ));

    if !args.trace {
        let precision = precisions.iter().sum::<f64>() / precisions.len() as f64;
        let ops_per_s = reads.len() as f64 / wall_s;
        out.end_to_end(&setup_s, &reads, TAIL_Q, ops_per_s, precision);
        return out;
    }

    out.spans = tracer.spans();
    out.metric(
        "persist.entry_bytes",
        median(&entry_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
    );
    out.metric("engine.disk_hits", hits_per_round[0] as f64);
    out.metric("engine.disk_misses", misses as f64);
    out.metric("write.p50_ms", median(&writes_ms));
    out.metric("write.tail_ms", quantile(&writes_ms, TAIL_Q));
    for (metric, span, scale) in [
        ("model.snapshot_build_ms", "model.snapshot_build", 1.0),
        ("model.content_hash_us", "model.content_hash", 1e3),
        ("persist.open_ms", "persist.open", 1.0),
        ("persist.get_ms", "persist.get", 1.0),
        ("persist.read_ms", "persist.read", 1.0),
        ("persist.parse_entry_ms", "persist.parse_entry", 1.0),
        ("persist.decode_result_ms", "persist.decode_result", 1.0),
        ("persist.decode_snapshot_ms", "persist.decode_snapshot", 1.0),
        ("persist.put_ms", "persist.put", 1.0),
        ("persist.flush_ms", "persist.flush", 1.0),
    ] {
        put_median(&mut out, metric, span, scale);
    }
    // The traced run's untraced first round is the baseline.
    if let (Some(traced), Some(untraced)) = (
        median_ms(&out.spans, "engine.analyze_owned"),
        reads.quantile_ns(0.5),
    ) {
        out.metric("trace.overhead_ms", traced - untraced / 1e6);
    }
    out
}
