//! E7 — scalability (Section 1's "scalable manner"): the gates that need a
//! wall clock. Each section prints its measured ratio on stdout and
//! asserts its bound.
//!
//! - **E7c, persistent reuse.** A first engine cold-computes a temporal
//!   world's timeline and writes the persistent store; a second engine over
//!   the same directory must serve every epoch from disk with zero
//!   discovery iterations (every run) and come out ≥ 2× faster (non-smoke
//!   runs).
//! - **E7d, parallel cold batch.** `TimelineSession::prefetch_cold`'s
//!   parallel cold batch against the sequential warm chain must win (> 1×)
//!   on non-smoke runs wherever `threads * 2 <= host_cpus`.
//! - **E7e, async write-behind.** Per-analysis latency with persistence
//!   off, with the synchronous store, and with the async writer thread:
//!   the analysis thread performs no filesystem write and the drain leaves
//!   nothing behind (every run); the async path lands within 5% of
//!   persist-off (non-smoke runs on at least two CPUs).
//! - **E7f, streaming ingest.** A churn world streamed through the ingest
//!   subsystem against a full warm re-analysis of every post-delta
//!   snapshot: 1e-9 accuracy parity and strictly fewer iterations (every
//!   run), strictly less wall time (non-smoke runs).
//! - **E7h, `Exact` is free.** The engine path under the default `Exact`
//!   equivalence backend against the direct pipeline entry stays within
//!   1.02×, as the median ratio of order-alternated pairs (every run).
//!
//! Deterministic properties of the same paths are pinned by tests instead:
//! warm-vs-cold timeline iterations in `tests/timeline_session.rs`,
//! sharded-vs-monolithic bitwise parity in `src/engine.rs`, and
//! quotient-backend precision in `tests/equivalence_backends.rs`. The
//! end-to-end benchmark is `perfbench/`.
//!
//! Set `SAILING_BENCH_SMOKE=1` for a seconds-scale smoke run (used by CI
//! to keep this target from rotting).

use std::sync::Arc;
use std::time::Instant;

use sailing::engine::SailingEngine;
use sailing_bench::{banner, header, row};
use sailing_core::DetectionParams;
use sailing_datagen::churn::{ChurnConfig, ChurnWorld};
use sailing_datagen::temporal::{table3_style, TemporalWorld};
use sailing_datagen::variants::{VariantWorld, VariantWorldConfig};
use sailing_datagen::world::{SnapshotWorld, WorldConfig};
use sailing_model::{SnapshotView, SourceId};

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let smoke = std::env::var("SAILING_BENCH_SMOKE").is_ok();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timeline_objects: &[usize] = if smoke { &[60] } else { &[120, 240, 480] };

    // --- E7c: persistent store — second process reuses every analysis ---
    banner(
        "E7c",
        "Persistent store: cold first process vs disk-served second",
    );
    header(&[
        "objects",
        "epochs",
        "cold ms",
        "reuse ms",
        "speedup",
        "disk hits",
    ]);
    for &num_objects in timeline_objects {
        let (config, _) = table3_style(num_objects, 2, 20);
        let world = TemporalWorld::generate(&config);
        let history = Arc::new(world.history.clone());
        let dir = std::env::temp_dir().join(format!(
            "sailing-bench-persist-{num_objects}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // First process: batched cold walk (so the store holds cold-keyed
        // entries), write-through + final flush inside the timed region —
        // persistence cost is part of the honest cold number. Session
        // construction stays outside it: `timeline` eagerly runs
        // whole-history temporal detection, which both paths pay
        // identically.
        let first = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let mut session = first.timeline(Arc::clone(&history));
        let ((), t_cold) = time_ms(|| {
            session.prefetch_cold(1);
            while session.next_epoch().is_some() {}
            first.flush_persist().unwrap();
        });
        drop(session);
        drop(first);

        // Second process: a fresh engine over the same directory.
        let second = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let mut session = second.timeline(Arc::clone(&history));
        let ((reuse_iters, served), t_reuse) = time_ms(|| {
            session.prefetch_cold(1);
            let mut served = 0usize;
            while let Some(epoch) = session.next_epoch() {
                served += usize::from(epoch.from_cache());
            }
            (session.total_iterations(), served)
        });
        drop(session);
        let disk_hits = second.cache_stats().disk_hits;
        let epochs = history.change_points().count();
        assert_eq!(
            reuse_iters, 0,
            "a store-warmed process must run zero discovery iterations"
        );
        assert_eq!(served, epochs, "every epoch must be served, not recomputed");
        // One disk hit per *distinct* epoch content: a history that
        // revisits earlier content legitimately serves the repeat from the
        // promoted memory tier, so `disk_hits == epochs` would over-assert.
        assert!(
            disk_hits >= 1 && disk_hits as usize <= epochs,
            "disk hits out of range: {disk_hits} over {epochs} epochs"
        );
        let speedup = t_cold / t_reuse.max(1e-9);
        // Wall-clock regression gate for trajectory runs only — CI's smoke
        // pass runs on noisy shared runners where timing asserts flake;
        // the deterministic invariants above still gate it.
        if !smoke {
            assert!(
                speedup >= 2.0,
                "persistent reuse regressed: only {speedup:.2}x faster than cold"
            );
        }
        println!(
            "{}",
            row(&[
                num_objects.to_string(),
                epochs.to_string(),
                format!("{t_cold:.1}"),
                format!("{t_reuse:.1}"),
                format!("{speedup:.1}x"),
                disk_hits.to_string(),
            ])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- E7d: parallel cold-epoch batching vs the sequential warm chain ---
    banner(
        "E7d",
        "Timeline: parallel cold batch vs sequential warm chain",
    );
    header(&[
        "objects", "epochs", "threads", "seq ms", "batch ms", "speedup", "seq it", "batch it",
    ]);
    let thread_counts: &[usize] = if smoke { &[2] } else { &[2, 4] };
    for &num_objects in timeline_objects {
        let (config, _) = table3_style(num_objects, 2, 20);
        let world = TemporalWorld::generate(&config);
        let history = Arc::new(world.history.clone());
        let epochs = history.change_points().count();

        let seq_engine = SailingEngine::builder().cache_capacity(0).build().unwrap();
        let mut session = seq_engine.timeline(Arc::clone(&history));
        let (seq_iters, t_seq) = time_ms(|| {
            while session.next_epoch().is_some() {}
            session.total_iterations()
        });

        for &threads in thread_counts {
            let par_engine = SailingEngine::builder().cache_capacity(0).build().unwrap();
            let mut session = par_engine.timeline(Arc::clone(&history));
            let (batch_iters, t_batch) = time_ms(|| {
                session.prefetch_cold(threads);
                while session.next_epoch().is_some() {}
                session.total_iterations()
            });
            let speedup = t_seq / t_batch.max(1e-9);
            // The parallel batch only wins when there are cores to fan
            // out across; on a single-core host it is pure overhead, so
            // the regression gate applies to multi-core trajectory runs
            // (not CI smoke, whose shared runners make timing flaky).
            // It also needs headroom: cold runs spend ~1.3× the warm
            // chain's iterations, so at threads == host_cpus the ceiling
            // is only ~1.5× and background load can push a healthy run
            // under 1.0 — gate only where spare cores leave real margin.
            if !smoke && threads >= 2 && threads * 2 <= host_cpus {
                assert!(
                    speedup > 1.0,
                    "parallel cold batching lost to sequential on {host_cpus} cores: \
                     {t_batch:.1}ms vs {t_seq:.1}ms at {threads} threads"
                );
            }
            println!(
                "{}",
                row(&[
                    num_objects.to_string(),
                    epochs.to_string(),
                    threads.to_string(),
                    format!("{t_seq:.1}"),
                    format!("{t_batch:.1}"),
                    format!("{speedup:.2}x"),
                    seq_iters.to_string(),
                    batch_iters.to_string(),
                ])
            );
        }
    }

    // --- E7e: async write-behind — analyze-path latency, persist on/off ---
    banner(
        "E7e",
        "Async write-behind: analyze latency with persist off/sync/async",
    );
    header(&[
        "snaps",
        "off ms",
        "sync ms",
        "async ms",
        "drain ms",
        "async ovh",
        "sync ovh",
    ]);
    let (awb_snapshots, awb_sources, awb_objects, awb_coverage) = if smoke {
        (6usize, 20usize, 60usize, 12usize)
    } else {
        (16, 60, 160, 30)
    };
    // Distinct seeded worlds: every analysis is a genuine cold miss on
    // every engine, so the three loops run identical discovery work and
    // differ only in what persistence costs the analysis path.
    let awb_snaps: Vec<Arc<SnapshotView>> = (0..awb_snapshots)
        .map(|seed| {
            let config =
                WorldConfig::specialist(awb_sources, awb_objects, awb_coverage, seed as u64 + 11);
            Arc::new(SnapshotWorld::generate(&config).snapshot)
        })
        .collect();
    let analyze_all = |engine: &SailingEngine| {
        for snap in &awb_snaps {
            let analysis = engine.analyze_owned(Arc::clone(snap));
            assert!(!analysis.decisions().is_empty());
        }
    };

    let off_engine = SailingEngine::builder().build().unwrap();
    let ((), t_off) = time_ms(|| analyze_all(&off_engine));

    let sync_dir =
        std::env::temp_dir().join(format!("sailing-bench-awb-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sync_dir);
    let sync_engine = SailingEngine::builder()
        .persist_dir(&sync_dir)
        .build()
        .unwrap();
    let ((), t_sync) = time_ms(|| {
        analyze_all(&sync_engine);
        sync_engine.flush_persist().unwrap();
    });

    let async_dir =
        std::env::temp_dir().join(format!("sailing-bench-awb-async-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&async_dir);
    let async_engine = SailingEngine::builder()
        .persist_dir(&async_dir)
        .persist_options(sailing::persist::StoreOptions::async_writer(
            awb_snapshots * 2,
        ))
        .build()
        .unwrap();
    let ((), t_async) = time_ms(|| analyze_all(&async_engine));
    let (flushed, t_drain) = time_ms(|| async_engine.flush_persist().unwrap());

    // The structural guarantee, asserted on every run including smoke:
    // the async engine's analysis thread never performed a store write —
    // only the background writer thread did.
    let store = async_engine.persist_store().unwrap();
    let fs_writers = store.fs_write_threads();
    assert!(
        !fs_writers.contains(&std::thread::current().id()),
        "the analysis thread performed a filesystem write: {fs_writers:?}"
    );
    assert_eq!(
        store.len(),
        awb_snapshots,
        "drain barrier left entries behind"
    );
    assert!(flushed <= awb_snapshots, "drained more than was enqueued");
    let async_stats = async_engine.cache_stats().persist.unwrap();
    assert_eq!(
        (async_stats.write_errors, async_stats.dropped),
        (0, 0),
        "{async_stats:?}"
    );
    let async_overhead = t_async / t_off.max(1e-9);
    let sync_overhead = t_sync / t_off.max(1e-9);
    // The latency gate, on quiet trajectory runs only (CI smoke shares
    // noisy runners where a 5% wall-clock bound flakes). Like E7d's
    // parallel gate, it needs a spare core: zero *syscalls* on the
    // analysis thread is structural (asserted above on every run), but
    // the writer thread's encode+write CPU has nowhere to hide on a
    // 1-core host — there the overhead is recorded honestly, not
    // asserted.
    if !smoke && host_cpus >= 2 {
        assert!(
            async_overhead <= 1.05,
            "async write-behind cost the analysis path {async_overhead:.3}x \
             (persist-off {t_off:.1}ms vs async {t_async:.1}ms) — over the 5% budget"
        );
    }
    println!(
        "{}",
        row(&[
            awb_snapshots.to_string(),
            format!("{t_off:.1}"),
            format!("{t_sync:.1}"),
            format!("{t_async:.1}"),
            format!("{t_drain:.1}"),
            format!("{async_overhead:.3}x"),
            format!("{sync_overhead:.3}x"),
        ])
    );
    let _ = std::fs::remove_dir_all(&sync_dir);
    let _ = std::fs::remove_dir_all(&async_dir);

    // --- E7f: streaming ingestion — incremental deltas vs full re-analysis ---
    banner(
        "E7f",
        "Streaming ingest: N small deltas vs N full warm re-analyses",
    );
    header(&[
        "cohorts", "objects", "epochs", "inc it", "full it", "inc ms", "full ms", "speedup",
    ]);
    let ingest_configs: &[(usize, usize, usize, usize)] = if smoke {
        &[(10, 3, 12, 8)]
    } else {
        &[(10, 3, 12, 12), (20, 3, 24, 20)]
    };
    // Tight fixpoint parameters: every epoch's prior must be genuinely
    // converged (the warm-start gate insists) and the 1e-12 tolerance
    // leaves the 1e-9 parity contract real headroom.
    let ingest_params = DetectionParams {
        hard_damping_threshold: 1.0,
        convergence_epsilon: 1e-12,
        max_iterations: 5000,
        ..DetectionParams::default()
    };
    for &(cohorts, spc, opc, epochs) in ingest_configs {
        let world = ChurnWorld::generate(&ChurnConfig::streaming(cohorts, spc, opc, epochs, 1));
        let engine = SailingEngine::builder()
            .params(ingest_params.clone())
            .build()
            .unwrap();
        let pipeline = sailing_core::AccuCopy::new(ingest_params.clone()).unwrap();

        // Shared bootstrap, outside both timed regions: the streamed
        // session cold-runs the initial world; the baseline chain starts
        // from its own converged posterior over the same snapshot.
        let mut session = engine
            .ingest_session(sailing::ingest::SealPolicy::manual())
            .with_max_dirty_fraction(2.0 / cohorts as f64);
        for s in 0..world.initial.num_sources() {
            let sid = SourceId::from_index(s);
            for &(object, value) in world.initial.source_assertions(sid) {
                session.assert_claim(sid, object, value, 0, 0);
            }
        }
        session.seal();
        let bootstrap_iterations = session.stats().iterations_total;
        let mut full_prev = pipeline.run(&world.initial);
        assert!(full_prev.converged, "churn bootstrap must converge");

        // Incremental side: the whole streaming path per epoch — append
        // every event to the claim log, seal, merge, re-converge dirty.
        let ((), t_inc) = time_ms(|| {
            for (i, delta) in world.deltas.iter().enumerate() {
                for &(s, o, v) in delta.ops() {
                    session.append(s, o, v, 0, 1 + i as i64);
                }
                session.seal();
            }
        });
        let stats = session.stats();
        assert_eq!(
            stats.incremental_runs,
            world.deltas.len() as u64,
            "every churn epoch must run incrementally: {:?}",
            stats.last_outcome
        );
        let inc_iters = stats.iterations_total - bootstrap_iterations;

        // Baseline: full warm re-analysis of every post-delta snapshot.
        let (full_iters, t_full) = time_ms(|| {
            let mut snap = Arc::new(world.initial.clone());
            let mut total = 0u64;
            for delta in &world.deltas {
                snap = Arc::new(snap.apply_delta(delta));
                let full = pipeline.run_warm(&snap, Some(&full_prev));
                assert!(full.converged, "full warm baseline must converge");
                total += full.iterations as u64;
                full_prev = full;
            }
            total
        });

        // Parity at the final epoch, per the 1e-9 contract — on every
        // run including smoke.
        let streamed = session.analysis();
        let max_gap = streamed
            .accuracies()
            .iter()
            .zip(&full_prev.accuracies)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_gap < 1e-9,
            "incremental diverged from full: {max_gap:e}"
        );

        // The delta-proportionality gates. Iteration counts are exact
        // and deterministic, so the strict inequality holds on smoke
        // runs too; the wall-clock gate follows the usual convention of
        // applying only to quiet trajectory runs.
        assert!(
            inc_iters < full_iters,
            "incremental must spend strictly fewer iterations: {inc_iters} vs {full_iters}"
        );
        if !smoke {
            assert!(
                t_inc < t_full,
                "incremental must be faster: {t_inc:.1}ms vs {t_full:.1}ms"
            );
        }
        let speedup = t_full / t_inc.max(1e-9);
        println!(
            "{}",
            row(&[
                cohorts.to_string(),
                world.initial.num_objects().to_string(),
                epochs.to_string(),
                inc_iters.to_string(),
                full_iters.to_string(),
                format!("{t_inc:.1}"),
                format!("{t_full:.1}"),
                format!("{speedup:.1}x"),
            ])
        );
    }

    // --- E7h: value equivalence — the `Exact` backend adds no cost ---
    banner(
        "E7h",
        "Value equivalence: Exact engine path vs direct pipeline",
    );
    header(&["objects", "sources", "pipe ms", "exact ms", "ovhd"]);
    let equiv_configs: &[(usize, usize)] = if smoke {
        &[(120, 8)]
    } else {
        &[(200, 10), (400, 12)]
    };
    // The smoke world analyses in ~2 ms, where a 2% bound sits inside a
    // shared host's timer and scheduling noise, and the host's speed state
    // can change between rounds. So the gate times back-to-back pairs, one
    // run of each path with the order alternated, and takes the median of
    // the per-pair ratios: a drift in speed moves both halves of a pair,
    // and outliers fall away in the median. Single pair ratios spread
    // about ±5% on a 2-CPU host, so the median needs a few hundred pairs
    // (~1.3 s) to sit well inside the bound; 41 pairs failed 1 run in 10.
    let equiv_pairs = if smoke { 301 } else { 61 };
    for &(objects, sources) in equiv_configs {
        let messy = VariantWorld::generate(&VariantWorldConfig::messy(objects, sources, 42));
        let snapshot = Arc::new(messy.snapshot);

        // Exact must be free: the engine path (default `Exact` backend,
        // cache off so every round recomputes) against the direct
        // pipeline entry. The iteration work dominates both, so the ratio
        // isolates the facade's added dispatch (`is_exact` check and key
        // derivation).
        let pipeline = sailing_core::AccuCopy::new(DetectionParams::default()).unwrap();
        let exact_engine = SailingEngine::builder().cache_capacity(0).build().unwrap();
        pipeline.run(&snapshot);
        exact_engine.analyze_owned(Arc::clone(&snapshot));
        let time_pipe = || time_ms(|| pipeline.run(&snapshot)).1;
        let time_exact = || time_ms(|| exact_engine.analyze_owned(Arc::clone(&snapshot))).1;
        let mut pairs: Vec<(f64, f64)> = (0..equiv_pairs)
            .map(|k| {
                if k % 2 == 0 {
                    let t_pipe = time_pipe();
                    (t_pipe, time_exact())
                } else {
                    let t_exact = time_exact();
                    (time_pipe(), t_exact)
                }
            })
            .collect();
        pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
        let (t_pipe, t_exact) = pairs[pairs.len() / 2];
        let exact_overhead = t_exact / t_pipe.max(1e-9);
        assert!(
            exact_overhead <= 1.02,
            "Exact backend must stay within 2% of the direct pipeline: median pair \
             {t_exact:.2}ms vs {t_pipe:.2}ms ({exact_overhead:.3}x)"
        );
        println!(
            "{}",
            row(&[
                objects.to_string(),
                sources.to_string(),
                format!("{t_pipe:.1}"),
                format!("{t_exact:.1}"),
                format!("{exact_overhead:.3}x"),
            ])
        );
    }
}
