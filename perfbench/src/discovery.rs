//! `cold_discovery`: one full truth-discovery analysis per operation over
//! a fixed set of distinct specialist worlds, with the analysis cache off
//! and no store.
//!
//! The operation is `SailingEngine::analyze_owned`. Checks: every
//! analysis of an input repeats the first one's `content_digest`,
//! iteration count, accuracies (bitwise) and decisions; and, once per
//! distinct input after the timed rounds, `analyze_sharded(snap, 1)` is
//! bitwise equal to that first analysis.
//!
//! The traced run replays each operation through the public `core`
//! functions: `candidate_pairs`, `detect_all_with_pairs`,
//! `DependenceMatrix::from_pairs`, `weighted_vote` and
//! `estimate_accuracies`. The cold replay cannot call the crate-private
//! direction refinement, so that step stays in the unaccounted share.
//! Each traced operation is followed by a sharded one of its own (root
//! span `side_op`): `analyze_sharded` and its replay through
//! `pair_count`, `bootstrap_sharded`, `run_shard` and `merge_partials`.
//! Only its span medians are reported (`core.shard.*`); layer self times
//! and the unaccounted share cover the primary operations.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sailing::SailingEngine;
use sailing_core::accuracy::{estimate_accuracies, max_delta};
use sailing_core::pairs::{candidate_pairs, detect_all_with_pairs};
use sailing_core::truth::{naive_probabilities, weighted_vote, DependenceMatrix};
use sailing_core::{shard_ranges, AccuCopy, PipelineResult};
use sailing_model::{ObjectId, SnapshotView, ValueId};

use crate::inputs::specialist_worlds;
use crate::layers::{median_ms, put_median, SIDE_OP};
use crate::stats::{median, Histogram};
use crate::trace::{SpanId, Tracer, SETUP_OP};
use crate::{Args, Outcome, SETUP_REPS_PER_ROUND};

/// Distinct worlds per run; every round analyzes each once.
pub const INPUTS: usize = 8;
pub const SOURCES: usize = 100;
pub const OBJECTS: usize = 400;
pub const COVERAGE: usize = 40;
/// Workers of the sharded check and replay. One worker runs the whole
/// sharded path (bootstrap, per-iteration range detection with its own
/// pair enumeration, merge) on the calling thread, so the benchmark
/// stays on one thread and `core.shard.imbalance` is 1.0 by
/// construction. Two workers on the two shared vCPUs of the build host
/// measured the hypervisor: every iteration waited for whichever vCPU it
/// had taken away.
pub const WORKERS: usize = 1;
/// Tail percentile: 130 to 180 analyses fit a 40 s run, so p90 leaves ten
/// or more samples beyond it.
pub const TAIL_Q: f64 = 0.90;

/// What every analysis of one input must reproduce.
struct Expected {
    digest: u64,
    iterations: usize,
    accuracy_bits: Vec<u64>,
    decisions: BTreeMap<ObjectId, ValueId>,
}

impl Expected {
    fn of(result: &PipelineResult) -> Self {
        Self {
            digest: result.content_digest(),
            iterations: result.iterations,
            accuracy_bits: result.accuracies.iter().map(|a| a.to_bits()).collect(),
            decisions: result.decisions_sorted(),
        }
    }

    fn matches(&self, result: &PipelineResult) -> bool {
        self.digest == result.content_digest()
            && self.iterations == result.iterations
            && self.decisions == result.decisions_sorted()
            && self.accuracy_bits.len() == result.accuracies.len()
            && self
                .accuracy_bits
                .iter()
                .zip(&result.accuracies)
                .all(|(&bits, a)| bits == a.to_bits())
    }
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let worlds = specialist_worlds(args.seed, INPUTS, SOURCES, OBJECTS, COVERAGE);

    // Set-up: snapshots from the claim triples, then the engine. It is
    // timed before the first round and again after every round.
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
        let engine = SailingEngine::builder()
            .cache_capacity(0)
            .build()
            .expect("default parameters are valid");
        setup_s.push(start.elapsed().as_secs_f64());
        (snaps, engine)
    };
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS_PER_ROUND {
        drop(set_up(&mut setup_s));
    }
    let (snaps, engine) = set_up(&mut setup_s);

    let pipeline = AccuCopy::with_defaults();
    let min_overlap = pipeline.params().min_overlap;
    let candidates: u64 = snaps
        .iter()
        .map(|s| candidate_pairs(s, min_overlap).len() as u64)
        .sum();
    // Every analysis of an input must repeat the first one.
    let mut expected: Vec<Option<Expected>> = snaps.iter().map(|_| None).collect();

    let mut latencies = Histogram::default();
    let mut first_round: Vec<Option<(usize, bool, f64)>> = vec![None; snaps.len()];
    let mut op_id = 0u64;
    let mut rounds = 0usize;
    let mut setup_time = Duration::ZERO;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < args.run_for {
        // A traced run keeps its first round untraced, to price tracing.
        let traced = tracer.enabled() && rounds > 0;
        for (i, snap) in snaps.iter().enumerate() {
            op_id += 1;
            let t = Instant::now();
            let analysis = if traced {
                tracer.span("op", op_id, None, |root| {
                    let analysis = tracer.span("engine.analyze_owned", op_id, root, |_| {
                        engine.analyze_owned(Arc::clone(snap))
                    });
                    tracer.span("core.pipeline.run", op_id, root, |_| pipeline.run(snap));
                    tracer.span("replay", op_id, root, |parent| {
                        replay_cold(
                            &tracer,
                            op_id,
                            parent,
                            &pipeline,
                            snap,
                            analysis.result().iterations,
                        );
                    });
                    analysis
                })
            } else {
                engine.analyze_owned(Arc::clone(snap))
            };
            if !traced {
                latencies.record(t.elapsed().as_nanos() as u64);
            }
            let result = analysis.result();
            let expect = expected[i].get_or_insert_with(|| Expected::of(result));
            let ok = expect.matches(result);
            out.check(ok, || {
                format!(
                    "input {i} round {rounds}: result differs from the first analysis \
                     (iterations {} vs {})",
                    result.iterations, expect.iterations
                )
            });
            if first_round[i].is_none() {
                let precision = worlds[i]
                    .truth
                    .decision_precision(&analysis.decisions())
                    .expect("specialist worlds plant a truth");
                first_round[i] = Some((result.iterations, result.converged, precision));
            }
            drop(analysis);

            if traced {
                // The sharded path on the same input, as an operation of
                // its own.
                op_id += 1;
                let sharded = tracer.span(SIDE_OP, op_id, None, |root| {
                    let real = tracer.span("engine.analyze_sharded", op_id, root, |_| {
                        engine.analyze_sharded(snap, WORKERS).ok()
                    });
                    let replayed = tracer.span("replay", op_id, root, |parent| {
                        replay_sharded(&tracer, op_id, parent, &pipeline, snap)
                    });
                    real.is_some_and(|a| expect.matches(a.result())) && expect.matches(&replayed)
                });
                out.check(sharded, || {
                    format!("sharded analysis or replay of input {i} differs from analyze_owned")
                });
            }
        }
        rounds += 1;
        let paused = Instant::now();
        for _ in 0..SETUP_REPS_PER_ROUND {
            drop(set_up(&mut setup_s));
        }
        setup_time += paused.elapsed();
    }
    let wall_s = (start.elapsed() - setup_time).as_secs_f64();

    // Sharded analysis must be bitwise equal to the monolithic one on
    // every distinct input (untimed, after the rounds).
    if !tracer.enabled() {
        for (i, snap) in snaps.iter().enumerate() {
            let sharded = engine.analyze_sharded(snap, WORKERS).ok();
            let ok = match (&expected[i], sharded) {
                (Some(expect), Some(a)) => expect.matches(a.result()),
                _ => false,
            };
            out.check(ok, || {
                format!("analyze_sharded of input {i} differs from analyze_owned")
            });
        }
    }

    let firsts: Vec<(usize, bool, f64)> = first_round.into_iter().flatten().collect();
    let iterations: u64 = firsts.iter().map(|f| f.0 as u64).sum();
    let converged = firsts.iter().filter(|f| f.1).count();
    out.count("inputs", snaps.len() as u64);
    out.count("candidate_pairs", candidates);
    out.count("iterations", iterations);
    out.count("converged", converged as u64);
    out.note(format!(
        "{} x specialist({SOURCES}, {OBJECTS}, {COVERAGE}); {rounds} rounds, {} analyses in {wall_s:.2} s",
        snaps.len(),
        rounds * snaps.len()
    ));

    if !args.trace {
        let precision = firsts.iter().map(|f| f.2).sum::<f64>() / firsts.len() as f64;
        let ops_per_s = latencies.len() as f64 / wall_s;
        out.end_to_end(&setup_s, &latencies, TAIL_Q, ops_per_s, precision);
        return out;
    }

    out.spans = tracer.spans();
    out.metric("core.pairs.candidates", candidates as f64);
    out.metric("core.pipeline.iterations", iterations as f64);
    out.metric(
        "core.pipeline.converged_frac",
        converged as f64 / firsts.len() as f64,
    );
    // One worker, so the slowest range is the mean range.
    out.metric("core.shard.imbalance", 1.0);
    for (metric, span) in [
        ("model.snapshot_build_ms", "model.snapshot_build"),
        ("core.pairs.enumerate_ms", "core.pairs.enumerate"),
        ("core.copy.detect_pass_ms", "core.copy.detect_pass"),
        ("core.truth.matrix_ms", "core.truth.matrix"),
        ("core.truth.vote_ms", "core.truth.vote"),
        ("core.accuracy.estimate_ms", "core.accuracy.estimate"),
        ("core.pipeline.run_ms", "core.pipeline.run"),
        ("engine.analyze_sharded_ms", "engine.analyze_sharded"),
        ("core.shard.pair_count_ms", "core.shard.pair_count"),
        ("core.shard.run_shard_ms", "core.shard.run_shard"),
        ("core.shard.merge_ms", "core.shard.merge"),
    ] {
        put_median(&mut out, metric, span, 1.0);
    }
    // Engine overhead: the engine call minus the bare pipeline run, per
    // operation.
    let per_op = |name: &str| -> BTreeMap<u64, f64> {
        out.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.duration() as f64 / 1e6))
            .collect()
    };
    let (engine_ms, run_ms) = (per_op("engine.analyze_owned"), per_op("core.pipeline.run"));
    let overhead: Vec<f64> = engine_ms
        .iter()
        .filter_map(|(op, e)| run_ms.get(op).map(|r| e - r))
        .collect();
    if !overhead.is_empty() {
        out.metric("engine.overhead_ms", median(&overhead));
    }
    // The traced run's untraced first round is the baseline.
    if let (Some(traced), Some(untraced)) = (
        median_ms(&out.spans, "engine.analyze_owned"),
        latencies.quantile_ns(0.5),
    ) {
        out.metric("trace.overhead_ms", traced - untraced / 1e6);
    }
    out
}

/// The cold loop through public `core` calls, for `iterations` rounds
/// (the count the real analysis took).
fn replay_cold(
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
    pipeline: &AccuCopy,
    snap: &SnapshotView,
    iterations: usize,
) {
    let p = pipeline.params();
    let candidates = tracer.span("core.pairs.enumerate", op, parent, |_| {
        candidate_pairs(snap, p.min_overlap)
    });
    let mut probabilities = tracer.span("core.truth.naive", op, parent, |_| {
        naive_probabilities(snap)
    });
    let mut accuracies = vec![p.initial_accuracy; snap.num_sources()];
    for _ in 0..iterations {
        let deps = tracer.span("core.copy.detect_pass", op, parent, |_| {
            detect_all_with_pairs(snap, &candidates, &probabilities, &accuracies, p)
        });
        let matrix = tracer.span("core.truth.matrix", op, parent, |_| {
            DependenceMatrix::from_pairs(&deps)
        });
        probabilities = tracer.span("core.truth.vote", op, parent, |_| {
            weighted_vote(snap, &accuracies, &matrix, p)
        });
        let fresh = tracer.span("core.accuracy.estimate", op, parent, |_| {
            estimate_accuracies(snap, &probabilities, p)
        });
        let delta = max_delta(&accuracies, &fresh);
        accuracies = fresh;
        if delta < p.convergence_epsilon {
            break;
        }
        probabilities = tracer.span("core.truth.vote", op, parent, |_| {
            weighted_vote(snap, &accuracies, &matrix, p)
        });
    }
    std::hint::black_box(&probabilities);
}

/// The sharded loop through public `core` calls over the single range
/// of [`WORKERS`], run inline as the engine runs it.
fn replay_sharded(
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
    pipeline: &AccuCopy,
    snap: &SnapshotView,
) -> PipelineResult {
    let total = tracer.span("core.shard.pair_count", op, parent, |_| {
        pipeline.pair_count(snap)
    });
    let ranges = shard_ranges(total, WORKERS);
    let mut state = tracer.span("core.shard.bootstrap", op, parent, |_| {
        pipeline.bootstrap_sharded(snap, None)
    });
    loop {
        let partials: Vec<_> = ranges
            .iter()
            .map(|&range| {
                tracer.span("core.shard.run_shard", op, parent, |_| {
                    pipeline.run_shard(snap, range, &state)
                })
            })
            .collect();
        let step = tracer
            .span("core.shard.merge", op, parent, |_| {
                pipeline.merge_partials(snap, &state, &partials)
            })
            .expect("partials from this replay tile the pair list");
        state = step.state;
        if step.done {
            return state;
        }
    }
}
