//! E7 — scalability (Section 1's "scalable manner"): pairwise detection
//! wall-time vs number of sources, with and without shared-object pruning,
//! sequential vs parallel, and **before vs after** the columnar data-plane
//! refactor.
//!
//! "Before" is a faithful re-implementation of the pre-CSR hot loop: one
//! `HashMap<ObjectId, ValueId>` per source probed per overlap candidate,
//! `effective_n_false` recomputed — including a fresh hash count — for
//! every shared object of every pair, and all nine hypothesis
//! probabilities recomputed per shared object. "After" is the live
//! [`detect_all_with_pairs`] path over the CSR snapshot.
//!
//! Besides the stdout table, the run emits `BENCH_scalability.json` at the
//! repository root so future PRs have a machine-readable perf trajectory
//! to regress against (see ROADMAP.md, *Benchmark JSON convention*).
//!
//! Since the timeline-native engine API landed, the report also carries a
//! `timeline_warm_vs_cold` section: walking a seeded temporal world epoch
//! by epoch through `SailingEngine::timeline` (warm-started incremental
//! discovery) versus cold per-epoch `analyze()` — epochs, total
//! iterations to converge, and wall time for both paths.
//!
//! Schema 3 adds the persistence/batching sections: `persist_reuse`
//! measures a first engine cold-computing a timeline (write-through to a
//! persistent store) against a second engine serving the identical
//! timeline purely from disk — the second process must spend **zero**
//! discovery iterations and come out ≥ 2× faster; `parallel_cold_epochs`
//! measures the sequential warm-start chain against
//! `TimelineSession::prefetch_cold`'s parallel cold batch at several
//! thread counts (the batch must win on multi-core hosts; on one core it
//! is recorded as the overhead it is).
//!
//! Schema 4 adds `async_write_behind`: the per-analysis latency of the
//! engine with no persistence, with the synchronous write-behind store,
//! and with the **async writer thread** (`StoreOptions::async_writer`) —
//! the async path must keep the analysis thread syscall-free (asserted
//! via the store's writer-thread record) and, on non-smoke runs, land
//! within 5% of the persist-off latency.
//!
//! Schema 5 adds `streaming_ingest`: a churn world streamed through the
//! ingest subsystem (claim log → sealed deltas → `run_delta`) against a
//! full warm re-analysis of every post-delta snapshot — total
//! iterations (strictly fewer, asserted on every run) and wall time
//! (strictly lower, asserted on quiet trajectory runs) for both paths,
//! with 1e-9 posterior parity gated always.
//!
//! Schema 6 adds `sharded_analysis`: the monolithic
//! `SailingEngine::analyze` against `analyze_sharded` at several worker
//! counts — the pair-sharded decomposition is contractually **bitwise**
//! identical, so the recorded accuracy gap must be exactly zero (gated on
//! every run, smoke included); wall-clock is informational on a 1-core
//! box and recorded as the thread overhead it is.
//!
//! Schema 7 adds `equivalence`: the value-equivalence quotient layer on
//! the messy variant world — the cost of building a `NormalizedString`
//! quotient, the post-refactor `Exact` engine path against the direct
//! pipeline entry (the `Exact` backend must be free: overhead gated
//! ≤ 1.02× on every run, median of order-alternated pairs), and decision
//! precision under exact / normalized-string / numeric-tolerance
//! backends — the quotient backends must strictly beat exact identity on
//! the variant world (deterministic, gated on every run).
//!
//! Set `SAILING_BENCH_SMOKE=1` for a seconds-scale smoke run (used by CI
//! to keep this target from rotting); the JSON is then suffixed
//! `.smoke.json` so a smoke run never overwrites a real trajectory point.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use sailing::engine::SailingEngine;
use sailing_bench::{banner, header, row};
use sailing_core::copy::posterior;
use sailing_core::pairs::{all_pairs_count, candidate_pairs, detect_all_with_pairs};
use sailing_core::truth::{naive_probabilities, ValueProbabilities};
use sailing_core::{DetectionParams, PairDependence};
use sailing_datagen::churn::{ChurnConfig, ChurnWorld};
use sailing_datagen::temporal::{table3_style, TemporalWorld};
use sailing_datagen::variants::{VariantWorld, VariantWorldConfig};
use sailing_datagen::world::{SnapshotWorld, WorldConfig};
use sailing_linkage::NormalizedString;
use sailing_model::{NumericTolerance, ObjectId, SnapshotView, SourceId, ValueId};

/// The pre-refactor (hash-layout) pairwise detection, preserved here as the
/// measured baseline. Mirrors the seed implementation operation for
/// operation; do not "optimise" it — its cost profile *is* the data point.
mod reference {
    use super::*;

    pub struct HashedSnapshot {
        pub per_source: Vec<HashMap<ObjectId, ValueId>>,
        pub per_object: Vec<Vec<(SourceId, ValueId)>>,
    }

    impl HashedSnapshot {
        pub fn from_view(view: &SnapshotView) -> Self {
            let per_source = (0..view.num_sources())
                .map(|s| view.assertions_of(SourceId::from_index(s)).collect())
                .collect();
            let per_object = (0..view.num_objects())
                .map(|o| view.assertions_on(ObjectId::from_index(o)).to_vec())
                .collect();
            Self {
                per_source,
                per_object,
            }
        }

        /// The old `distinct_values`: a fresh hash count (plus the sort the
        /// old `value_counts` always performed) per call.
        fn distinct_values(&self, object: ObjectId) -> usize {
            let mut counts: HashMap<ValueId, usize> = HashMap::new();
            for &(_, v) in &self.per_object[object.index()] {
                *counts.entry(v).or_insert(0) += 1;
            }
            let mut out: Vec<_> = counts.into_iter().collect();
            out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            out.len()
        }

        fn effective_n_false(&self, object: ObjectId, params: &DetectionParams) -> usize {
            params
                .n_false_values
                .max(self.distinct_values(object).saturating_sub(1))
                .max(1)
        }
    }

    fn independent_probs(aa: f64, ab: f64, n: f64) -> (f64, f64, f64) {
        let pt = aa * ab;
        let pf = (1.0 - aa) * (1.0 - ab) / n;
        let pd = (1.0 - pt - pf).max(1e-12);
        (pt, pf, pd)
    }

    fn copying_probs(a_orig: f64, a_copier: f64, c: f64, mu: f64, n: f64) -> (f64, f64, f64) {
        let (pt_ind, pf_ind, pd_ind) = independent_probs(a_orig, a_copier, n);
        let keep = c * (1.0 - mu);
        let pt = keep * a_orig + (1.0 - c) * pt_ind;
        let pf = keep * (1.0 - a_orig) + (1.0 - c) * pf_ind;
        let pd = (c * mu + (1.0 - c) * pd_ind).max(1e-12);
        (pt, pf, pd)
    }

    pub fn detect_all(
        hashed: &HashedSnapshot,
        pairs: &[(SourceId, SourceId, usize)],
        probs: &ValueProbabilities,
        accuracies: &[f64],
        params: &DetectionParams,
    ) -> Vec<PairDependence> {
        pairs
            .iter()
            .filter_map(|&(a, b, _)| detect_pair(hashed, a, b, probs, accuracies, params))
            .collect()
    }

    fn detect_pair(
        hashed: &HashedSnapshot,
        a: SourceId,
        b: SourceId,
        probs: &ValueProbabilities,
        accuracies: &[f64],
        params: &DetectionParams,
    ) -> Option<PairDependence> {
        let aa = params.clamp_accuracy(accuracies.get(a.index()).copied().unwrap_or(0.5));
        let ab = params.clamp_accuracy(accuracies.get(b.index()).copied().unwrap_or(0.5));
        let c = params.copy_rate;
        let mu = params.copy_mutation_rate;

        let (small, large, swapped) = {
            let ca = hashed.per_source[a.index()].len();
            let cb = hashed.per_source[b.index()].len();
            if ca <= cb {
                (a, b, false)
            } else {
                (b, a, true)
            }
        };

        let mut lik = sailing_core::copy::PairLikelihoods {
            log_independent: 0.0,
            log_a_copies_b: 0.0,
            log_b_copies_a: 0.0,
            overlap: 0,
            shared_false_mass: 0.0,
        };
        for (&object, &v_small) in &hashed.per_source[small.index()] {
            let Some(&v_large) = hashed.per_source[large.index()].get(&object) else {
                continue;
            };
            let (va, vb) = if swapped {
                (v_large, v_small)
            } else {
                (v_small, v_large)
            };
            lik.overlap += 1;
            let n = hashed.effective_n_false(object, params) as f64;
            let (it, if_, id) = independent_probs(aa, ab, n);
            let (abt, abf, abd) = copying_probs(ab, aa, c, mu, n);
            let (bat, baf, bad) = copying_probs(aa, ab, c, mu, n);
            if va == vb {
                let p_true = probs.prob(object, va);
                let p_false = 1.0 - p_true;
                lik.shared_false_mass += p_false;
                lik.log_independent += (p_true * it + p_false * if_).max(1e-300).ln();
                lik.log_a_copies_b += (p_true * abt + p_false * abf).max(1e-300).ln();
                lik.log_b_copies_a += (p_true * bat + p_false * baf).max(1e-300).ln();
            } else {
                lik.log_independent += id.ln();
                lik.log_a_copies_b += abd.ln();
                lik.log_b_copies_a += bad.ln();
            }
        }
        (lik.overlap >= params.min_overlap).then(|| posterior(a, b, &lik, params))
    }
}

/// One world's measurements, in milliseconds.
#[derive(Debug, Serialize)]
struct WorldPoint {
    sources: usize,
    objects: usize,
    all_pairs: usize,
    /// Pairs surviving the shared-object screening (`min_overlap = 3`).
    candidate_pairs_pruned: usize,
    /// Pairs with any overlap at all (`min_overlap = 1`).
    candidate_pairs_unpruned: usize,
    candidate_enumeration_ms: f64,
    /// Pre-refactor hash-layout detection over the pruned pairs, 1 thread.
    before_seq_ms: f64,
    /// Columnar detection over the pruned pairs, 1 thread.
    after_seq_ms: f64,
    /// Columnar detection over the pruned pairs, 4 threads.
    after_par4_ms: f64,
    /// Columnar detection with pruning disabled (`min_overlap = 1`).
    after_unpruned_seq_ms: f64,
    /// `before_seq_ms / after_seq_ms`.
    speedup_seq: f64,
}

/// One temporal world's timeline measurements: warm-started incremental
/// discovery (`SailingEngine::timeline`) vs cold per-epoch `analyze()`.
#[derive(Debug, Serialize)]
struct TimelinePoint {
    objects: usize,
    sources: usize,
    epochs: usize,
    /// Total truth-discovery iterations across all epochs, warm-started.
    warm_iterations: usize,
    /// Same, analyzing each epoch's snapshot cold.
    cold_iterations: usize,
    warm_ms: f64,
    cold_ms: f64,
    /// `cold_iterations / warm_iterations`.
    iteration_savings: f64,
}

/// One world's cross-process reuse measurements: a first engine
/// cold-computes every epoch and writes the persistent store; a second
/// engine (the stand-in for a second process) re-analyzes the identical
/// timeline purely from disk.
#[derive(Debug, Serialize)]
struct PersistReusePoint {
    objects: usize,
    sources: usize,
    epochs: usize,
    /// First process: discovery for every epoch + store write-through.
    cold_ms: f64,
    cold_iterations: usize,
    /// Second process over the same store directory: disk hits only.
    reuse_ms: f64,
    /// Epochs the second process served from disk (must equal `epochs`).
    reuse_disk_hits: u64,
    /// Discovery iterations the second process spent (must be 0).
    reuse_iterations: usize,
    /// `cold_ms / reuse_ms`.
    speedup: f64,
}

/// One world's timeline-batching measurements: the sequential warm-start
/// chain (PR 3 path) vs the parallel cold-epoch batch at one thread
/// count. On a single-core host the batch is pure overhead (compare only
/// across equal `host_cpus`); on multi-core it trades the warm chain's
/// iteration savings for near-linear parallelism.
#[derive(Debug, Serialize)]
struct ParallelColdPoint {
    objects: usize,
    sources: usize,
    epochs: usize,
    threads: usize,
    sequential_warm_ms: f64,
    sequential_warm_iterations: usize,
    batched_cold_ms: f64,
    batched_cold_iterations: usize,
    /// `sequential_warm_ms / batched_cold_ms`.
    speedup: f64,
}

/// One analyze-path latency comparison: the same distinct-snapshot
/// workload pushed through an engine with persistence off, with the
/// synchronous write-behind store, and with the async writer thread.
/// `async_overhead` is the headline the 5% gate applies to.
#[derive(Debug, Serialize)]
struct AsyncWriteBehindPoint {
    snapshots: usize,
    sources: usize,
    objects: usize,
    /// Total analyze-loop wall time with no store attached.
    persist_off_ms: f64,
    /// Same workload, synchronous write-behind store (writes batch on the
    /// analysis thread).
    persist_sync_ms: f64,
    /// Same workload, async writer thread (zero analysis-thread
    /// syscalls); the queue drain is *excluded* — that is the point.
    persist_async_ms: f64,
    /// Drain-barrier time after the async loop (the deferred work).
    async_flush_ms: f64,
    /// `persist_async_ms / persist_off_ms` — gated ≤ 1.05 on non-smoke
    /// runs.
    async_overhead: f64,
    /// `persist_sync_ms / persist_off_ms`, for the honest before/after.
    sync_overhead: f64,
}

/// One churn stream's measurements: the ingest subsystem end to end
/// (claim log → sealed delta → `run_delta`) against a full warm
/// re-analysis of every post-delta snapshot. Iteration totals exclude
/// the shared cold bootstrap; wall time for the incremental side covers
/// the whole streaming path (log appends, sealing, CSR delta merge,
/// dirty-set discovery), for the baseline the delta merge plus
/// `run_warm`.
#[derive(Debug, Serialize)]
struct StreamingIngestPoint {
    cohorts: usize,
    sources: usize,
    objects: usize,
    epochs: usize,
    /// Fraction of the object space one delta touches (one cohort).
    delta_object_fraction: f64,
    /// Claim-log events appended (bootstrap + churn).
    events: u64,
    /// Dirty closure per epoch — exactly the churned cohort.
    dirty_objects_per_epoch: usize,
    incremental_iterations: u64,
    full_warm_iterations: u64,
    incremental_ms: f64,
    full_warm_ms: f64,
    /// `full_warm_iterations / incremental_iterations`.
    iteration_savings: f64,
    /// `full_warm_ms / incremental_ms`.
    speedup: f64,
    /// Largest accuracy divergence vs the full chain at the final epoch —
    /// gated < 1e-9 on every run.
    max_accuracy_gap: f64,
}

/// One pair-sharded analysis measurement: `analyze_sharded` at a given
/// worker count against the monolithic `analyze` on the same world. The
/// decomposition distributes only the per-iteration detection pass over
/// contiguous pair-ranges and merges in range order, so parity is not a
/// tolerance — `max_accuracy_gap` must be exactly `0.0`.
#[derive(Debug, Serialize)]
struct ShardedAnalysisPoint {
    sources: usize,
    objects: usize,
    /// Candidate pairs after shared-object pruning — the unit being
    /// sharded.
    candidate_pairs: usize,
    workers: usize,
    iterations: usize,
    monolithic_ms: f64,
    sharded_ms: f64,
    /// `monolithic_ms / sharded_ms` — compare only across equal
    /// `host_cpus`; on one core the coordinator's scoped threads are pure
    /// overhead.
    speedup: f64,
    /// Largest |accuracy divergence| vs monolithic — gated `== 0.0` on
    /// every run (strictly stronger than the repo's 1e-9 contract).
    max_accuracy_gap: f64,
}

/// One value-equivalence measurement on the messy variant world: the
/// quotient build cost, the `Exact`-backend engine path against the
/// direct pipeline entry (the refactor's no-regression contract —
/// `exact_overhead` is gated ≤ 1.02 on every run, smoke included, as
/// the median ratio of order-alternated pairs), and decision precision
/// per backend (the quotient backends must strictly beat exact identity
/// — exact and deterministic, gated on every run).
#[derive(Debug, Serialize)]
struct EquivalencePoint {
    sources: usize,
    objects: usize,
    /// Assertions that arrived as formatting variants of a canonical
    /// value.
    variant_claims: usize,
    /// Interned values in the snapshot's arena.
    values: usize,
    /// Classes the `NormalizedString` quotient partitions them into.
    quotient_classes: usize,
    /// Wall time to build that quotient (partition + dense maps).
    quotient_build_ms: f64,
    /// Direct pipeline entry (`AccuCopy::run`) — the pre-refactor path —
    /// in the median pair.
    pipeline_ms: f64,
    /// Post-refactor engine path with the default `Exact` backend,
    /// cache off, in the median pair.
    exact_ms: f64,
    /// `exact_ms / pipeline_ms` of the median pair — gated ≤ 1.02 on
    /// every run.
    exact_overhead: f64,
    /// Engine path under `NormalizedString` (quotient build included).
    normalized_ms: f64,
    precision_exact: f64,
    precision_normalized: f64,
    precision_numeric: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    experiment: &'static str,
    schema: u32,
    smoke: bool,
    world: &'static str,
    /// Cores visible to the run — a 1-core box makes `after_par4_ms` pure
    /// thread overhead, so compare parallel numbers only across equal
    /// `host_cpus`.
    host_cpus: usize,
    worlds: Vec<WorldPoint>,
    timeline_warm_vs_cold: Vec<TimelinePoint>,
    persist_reuse: Vec<PersistReusePoint>,
    parallel_cold_epochs: Vec<ParallelColdPoint>,
    async_write_behind: Vec<AsyncWriteBehindPoint>,
    streaming_ingest: Vec<StreamingIngestPoint>,
    sharded_analysis: Vec<ShardedAnalysisPoint>,
    equivalence: Vec<EquivalencePoint>,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let smoke = std::env::var("SAILING_BENCH_SMOKE").is_ok();
    let (source_counts, num_objects, coverage): (&[usize], usize, usize) = if smoke {
        (&[30, 60], 120, 20)
    } else {
        (&[100, 200, 400, 800], 400, 40)
    };

    banner("E7", "Detection scalability vs number of sources");
    header(&[
        "sources",
        "all pairs",
        "candidates",
        "prune x",
        "before 1t",
        "after 1t",
        "after 4t",
        "speedup",
    ]);

    let mut worlds = Vec::new();
    for &n in source_counts {
        let world = SnapshotWorld::generate(&WorldConfig::specialist(n, num_objects, coverage, 7));
        let probs = naive_probabilities(&world.snapshot);
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; n];

        let (pruned, t_enum) = time_ms(|| candidate_pairs(&world.snapshot, params.min_overlap));
        let unpruned = candidate_pairs(&world.snapshot, 1);
        let all = all_pairs_count(n);

        let hashed = reference::HashedSnapshot::from_view(&world.snapshot);
        let (before, t_before) =
            time_ms(|| reference::detect_all(&hashed, &pruned, &probs, &accs, &params));

        let (after_seq, t_after_seq) =
            time_ms(|| detect_all_with_pairs(&world.snapshot, &pruned, &probs, &accs, &params));
        let par_params = DetectionParams {
            threads: 4,
            ..params.clone()
        };
        let (after_par, t_after_par) =
            time_ms(|| detect_all_with_pairs(&world.snapshot, &pruned, &probs, &accs, &par_params));
        let loose_params = DetectionParams {
            min_overlap: 1,
            ..params.clone()
        };
        let (_, t_after_unpruned) = time_ms(|| {
            detect_all_with_pairs(&world.snapshot, &unpruned, &probs, &accs, &loose_params)
        });

        // The baseline must agree with the live path, or the comparison is
        // meaningless.
        assert_eq!(before.len(), after_seq.len());
        assert_eq!(after_seq.len(), after_par.len());
        for (x, y) in before.iter().zip(&after_seq) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert!(
                (x.probability - y.probability).abs() < 1e-9,
                "baseline and columnar detection diverge on ({:?},{:?})",
                x.a,
                x.b
            );
        }

        let speedup = t_before / t_after_seq.max(1e-9);
        println!(
            "{}",
            row(&[
                n.to_string(),
                all.to_string(),
                pruned.len().to_string(),
                format!("{:.1}", all as f64 / pruned.len().max(1) as f64),
                format!("{t_before:.1}ms"),
                format!("{t_after_seq:.1}ms"),
                format!("{t_after_par:.1}ms"),
                format!("{speedup:.1}x"),
            ])
        );

        worlds.push(WorldPoint {
            sources: n,
            objects: num_objects,
            all_pairs: all,
            candidate_pairs_pruned: pruned.len(),
            candidate_pairs_unpruned: unpruned.len(),
            candidate_enumeration_ms: t_enum,
            before_seq_ms: t_before,
            after_seq_ms: t_after_seq,
            after_par4_ms: t_after_par,
            after_unpruned_seq_ms: t_after_unpruned,
            speedup_seq: speedup,
        });
    }

    // --- E7b: timeline warm-start vs cold per-epoch reanalysis ---
    banner("E7b", "Timeline session (warm) vs cold per-epoch analyze()");
    header(&[
        "objects", "epochs", "warm it", "cold it", "savings", "warm ms", "cold ms",
    ]);
    let timeline_objects: &[usize] = if smoke { &[60] } else { &[120, 240, 480] };
    let mut timeline_points = Vec::new();
    for &num_objects in timeline_objects {
        let (config, _) = table3_style(num_objects, 2, 20);
        let world = TemporalWorld::generate(&config);
        let history = Arc::new(world.history.clone());
        // Caching off on both engines: this measures discovery work, not
        // cache hits.
        let warm_engine = SailingEngine::builder().cache_capacity(0).build().unwrap();
        let cold_engine = SailingEngine::builder().cache_capacity(0).build().unwrap();

        // Build the session outside the timed region: `timeline`
        // eagerly runs whole-history temporal dependence detection, which
        // the cold path never pays — timing it would overstate warm_ms.
        let mut session = warm_engine.timeline(Arc::clone(&history));
        let (warm_iters, t_warm) = time_ms(|| {
            while session.next_epoch().is_some() {}
            session.total_iterations()
        });
        let change_points: Vec<i64> = history.change_points().collect();
        let (cold_iters, t_cold) = time_ms(|| {
            change_points
                .iter()
                .map(|&t| {
                    cold_engine
                        .analyze_owned(Arc::new(history.snapshot_at(t)))
                        .result()
                        .iterations
                })
                .sum::<usize>()
        });
        // Warm starting must trade iterations, not correctness; if it ever
        // costs more rounds than cold, the incremental path has rotted.
        assert!(
            warm_iters < cold_iters,
            "timeline warm start regressed: warm {warm_iters} vs cold {cold_iters}"
        );
        let savings = cold_iters as f64 / warm_iters.max(1) as f64;
        println!(
            "{}",
            row(&[
                num_objects.to_string(),
                change_points.len().to_string(),
                warm_iters.to_string(),
                cold_iters.to_string(),
                format!("{savings:.2}x"),
                format!("{t_warm:.1}"),
                format!("{t_cold:.1}"),
            ])
        );
        timeline_points.push(TimelinePoint {
            objects: num_objects,
            sources: history.num_sources(),
            epochs: change_points.len(),
            warm_iterations: warm_iters,
            cold_iterations: cold_iters,
            warm_ms: t_warm,
            cold_ms: t_cold,
            iteration_savings: savings,
        });
    }

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
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut persist_points = Vec::new();
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
        // identically (same discipline as E7b).
        let first = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let mut session = first.timeline(Arc::clone(&history));
        let (cold_iters, t_cold) = time_ms(|| {
            session.prefetch_cold(1);
            while session.next_epoch().is_some() {}
            first.flush_persist().unwrap();
            session.total_iterations()
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
        persist_points.push(PersistReusePoint {
            objects: num_objects,
            sources: history.num_sources(),
            epochs,
            cold_ms: t_cold,
            cold_iterations: cold_iters,
            reuse_ms: t_reuse,
            reuse_disk_hits: disk_hits,
            reuse_iterations: reuse_iters,
            speedup,
        });
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
    let mut parallel_points = Vec::new();
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
            parallel_points.push(ParallelColdPoint {
                objects: num_objects,
                sources: history.num_sources(),
                epochs,
                threads,
                sequential_warm_ms: t_seq,
                sequential_warm_iterations: seq_iters,
                batched_cold_ms: t_batch,
                batched_cold_iterations: batch_iters,
                speedup,
            });
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
    // The tentpole latency gate, on quiet trajectory runs only (CI smoke
    // shares noisy runners where a 5% wall-clock bound flakes). Like
    // E7d's parallel gate, it needs a spare core: zero *syscalls* on the
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
    let async_points = vec![AsyncWriteBehindPoint {
        snapshots: awb_snapshots,
        sources: awb_sources,
        objects: awb_objects,
        persist_off_ms: t_off,
        persist_sync_ms: t_sync,
        persist_async_ms: t_async,
        async_flush_ms: t_drain,
        async_overhead,
        sync_overhead,
    }];
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
    let mut ingest_points = Vec::new();
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
        let savings = full_iters as f64 / inc_iters.max(1) as f64;
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
        ingest_points.push(StreamingIngestPoint {
            cohorts,
            sources: world.initial.num_sources(),
            objects: world.initial.num_objects(),
            epochs,
            delta_object_fraction: world.delta_object_fraction(),
            events: stats.events,
            dirty_objects_per_epoch: stats.dirty_objects_last,
            incremental_iterations: inc_iters,
            full_warm_iterations: full_iters,
            incremental_ms: t_inc,
            full_warm_ms: t_full,
            iteration_savings: savings,
            speedup,
            max_accuracy_gap: max_gap,
        });
    }

    // --- E7g: pair-sharded analysis — bitwise parity and worker scaling ---
    banner(
        "E7g",
        "Sharded analysis: analyze_sharded vs monolithic analyze",
    );
    header(&[
        "sources", "objects", "pairs", "workers", "iters", "mono ms", "shard ms", "ratio",
    ]);
    let sharded_worlds: &[(usize, usize, usize)] = if smoke {
        &[(24, 96, 16), (40, 120, 20)]
    } else {
        &[(100, 400, 40), (200, 400, 40)]
    };
    let mut sharded_points = Vec::new();
    for &(n, objects, coverage) in sharded_worlds {
        let world = SnapshotWorld::generate(&WorldConfig::specialist(n, objects, coverage, 21));
        let snapshot = Arc::new(world.snapshot);
        let pairs = candidate_pairs(&snapshot, DetectionParams::default().min_overlap).len();

        // Fresh engine per world; `analyze_sharded` bypasses the analysis
        // cache, so the earlier monolithic run cannot subsidise it.
        let engine = SailingEngine::with_defaults();
        let (monolithic, t_mono) = time_ms(|| engine.analyze_owned(Arc::clone(&snapshot)));

        for workers in [1usize, 2, 4] {
            let (sharded, t_shard) =
                time_ms(|| engine.analyze_sharded(&snapshot, workers).unwrap());

            // The bitwise contract: not a tolerance, exact equality.
            let max_gap = sharded
                .accuracies()
                .iter()
                .zip(monolithic.accuracies())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            assert_eq!(
                max_gap, 0.0,
                "sharded analysis must be bitwise identical (workers {workers})"
            );
            assert_eq!(sharded.decisions(), monolithic.decisions());
            assert_eq!(sharded.result().iterations, monolithic.result().iterations);

            let speedup = t_mono / t_shard.max(1e-9);
            println!(
                "{}",
                row(&[
                    n.to_string(),
                    objects.to_string(),
                    pairs.to_string(),
                    workers.to_string(),
                    sharded.result().iterations.to_string(),
                    format!("{t_mono:.1}"),
                    format!("{t_shard:.1}"),
                    format!("{speedup:.2}x"),
                ])
            );
            sharded_points.push(ShardedAnalysisPoint {
                sources: n,
                objects,
                candidate_pairs: pairs,
                workers,
                iterations: sharded.result().iterations,
                monolithic_ms: t_mono,
                sharded_ms: t_shard,
                speedup,
                max_accuracy_gap: max_gap,
            });
        }
    }

    // --- E7h: value-equivalence quotient — exact overhead, variant precision ---
    banner(
        "E7h",
        "Value equivalence: quotient cost, Exact overhead, variant precision",
    );
    header(&[
        "objects",
        "sources",
        "classes",
        "quot ms",
        "pipe ms",
        "exact ms",
        "ovhd",
        "prec e/n/t",
    ]);
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
    let mut equivalence_points = Vec::new();
    for &(objects, sources) in equiv_configs {
        let messy = VariantWorld::generate(&VariantWorldConfig::messy(objects, sources, 42));
        let snapshot = Arc::new(messy.snapshot.clone());
        let values = snapshot.values().map_or(0, |v| v.len());

        // Quotient build cost: the one-time per-analysis price a
        // non-exact backend pays before the integer-only inner loops.
        let (quotient, t_quotient) = time_ms(|| snapshot.quotient(&NormalizedString));
        assert!(
            quotient.num_classes() < values,
            "the variant world must actually merge representations"
        );

        // Exact must be free: the post-refactor engine path (default
        // `Exact` backend, cache off so every round recomputes) against
        // the direct pipeline entry. The iteration work dominates both,
        // so the ratio isolates the facade's added dispatch (`is_exact`
        // check and key derivation).
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

        // Precision per backend — exact decisions, deterministic worlds,
        // gated on every run: quotienting must re-form the split
        // majority the formatting variants fractured.
        let precision_of = |engine: &SailingEngine| {
            let analysis = engine.analyze_owned(Arc::clone(&snapshot));
            let decisions = analysis.result().probabilities.decisions_sorted();
            messy.truth.decision_precision(&decisions).unwrap()
        };
        let precision_exact = precision_of(&exact_engine);
        let normalized_engine = SailingEngine::builder()
            .value_equivalence(NormalizedString)
            .cache_capacity(0)
            .build()
            .unwrap();
        let (precision_normalized, t_normalized) = time_ms(|| precision_of(&normalized_engine));
        let numeric_engine = SailingEngine::builder()
            .value_equivalence(NumericTolerance::new(messy.config.numeric_eps).unwrap())
            .cache_capacity(0)
            .build()
            .unwrap();
        let precision_numeric = precision_of(&numeric_engine);
        assert!(
            precision_normalized > precision_exact,
            "normalized-string must strictly beat exact on the variant world: \
             {precision_normalized} vs {precision_exact}"
        );
        assert!(
            precision_numeric > precision_exact,
            "numeric-tolerance must strictly beat exact on the variant world: \
             {precision_numeric} vs {precision_exact}"
        );

        println!(
            "{}",
            row(&[
                objects.to_string(),
                sources.to_string(),
                format!("{}/{}", quotient.num_classes(), values),
                format!("{t_quotient:.2}"),
                format!("{t_pipe:.1}"),
                format!("{t_exact:.1}"),
                format!("{exact_overhead:.3}x"),
                format!(
                    "{:.0}/{:.0}/{:.0}%",
                    precision_exact * 100.0,
                    precision_normalized * 100.0,
                    precision_numeric * 100.0
                ),
            ])
        );
        equivalence_points.push(EquivalencePoint {
            sources,
            objects,
            variant_claims: messy.num_variant_claims,
            values,
            quotient_classes: quotient.num_classes(),
            quotient_build_ms: t_quotient,
            pipeline_ms: t_pipe,
            exact_ms: t_exact,
            exact_overhead,
            normalized_ms: t_normalized,
            precision_exact,
            precision_normalized,
            precision_numeric,
        });
    }

    let report = BenchReport {
        experiment: "exp_scalability",
        schema: 7,
        smoke,
        world: "specialist",
        host_cpus,
        worlds,
        timeline_warm_vs_cold: timeline_points,
        persist_reuse: persist_points,
        parallel_cold_epochs: parallel_points,
        async_write_behind: async_points,
        streaming_ingest: ingest_points,
        sharded_analysis: sharded_points,
        equivalence: equivalence_points,
    };
    let file_name = if smoke {
        "BENCH_scalability.smoke.json"
    } else {
        "BENCH_scalability.json"
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name);
    std::fs::write(&path, serde_json::to_string(&report).unwrap()).expect("write bench report");
    println!("\nwrote {}", path.display());
    println!("\nPaper expectation (shape): candidate pruning keeps the tested pair");
    println!("count far below O(S²) under realistic coverage skew, pairwise");
    println!("detection parallelises nearly linearly, and the columnar layout");
    println!("beats the hash layout by well over 2x sequentially.");
}
