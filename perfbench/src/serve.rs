//! `serve_ingest`: reads against the serving tier while streaming ingest
//! publishes new epochs beside them.
//!
//! * One reader thread runs a closed loop over a `ServeReader` with the
//!   default `Workload` mix (70% `top_k`, 10% each of `fuse`,
//!   `recommend` and `source_reports`). Reads are the primary operation;
//!   each must return a non-empty result.
//! * One writer thread runs open loop on a fixed schedule, far below
//!   capacity: each write appends one `ChurnConfig::streaming` delta to
//!   an `IngestSession`, seals it (`run_delta`) and calls
//!   `ServeHandle::publish_ingest`. A write is timed from when it was
//!   due. The run makes a fixed number of writes, [`WRITES`], spread
//!   evenly over its length, so the served world, the checks and
//!   `precision` do not depend on `--seconds`.
//!
//! Set-up is timed on [`SETUP_WORLDS`] churn worlds derived from the seed
//! and reported as the median: the served world before the run, and
//! [`SETUP_PER_PAUSE`] more each time the reader pauses, halfway between
//! two writes, so the set-up samples span the run as the timed reads do
//! without running beside them. How long the bootstrap analysis takes to
//! converge differs from world to world by up to 4x, and the host's speed
//! drifts over seconds, so set-up timed once, or only at the start, would
//! mostly measure which world the seed drew and how busy the host was
//! then.
//!
//! After the run, the session's final accuracies must lie within 1e-9 of
//! a chain of `AccuCopy::run_warm` over the same snapshots.
//!
//! The traced run traces one read in [`TRACE_EVERY`] (root span, the
//! `serve.*` call, then a replay of the same query on the current
//! `Analysis`), and every write.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sailing::ingest::SealPolicy;
use sailing::query::OrderingPolicy;
use sailing::SailingEngine;
use sailing_core::{AccuCopy, DetectionParams};
use sailing_datagen::churn::{ChurnConfig, ChurnWorld};
use sailing_model::{Delta, SnapshotView};
use sailing_serve::{ServeHandle, ServeQuery, Workload};

use crate::inputs::{derive_seed, triples_of};
use crate::layers::put_median;
use crate::stats::{median, quantile, Histogram};
use crate::trace::{Tracer, SETUP_OP};
use crate::{Args, Outcome};

pub const COHORTS: usize = 20;
pub const SOURCES_PER_COHORT: usize = 3;
pub const OBJECTS_PER_COHORT: usize = 24;
/// Sources outside the never-churned hard cohort. A churn world's first
/// `CHURNABLE` deltas each remove one of them; delta `CHURNABLE + i`
/// brings back the source delta `i` removed, with fresh claims.
pub const CHURNABLE: usize = (COHORTS - 1) * SOURCES_PER_COHORT;
/// Writes per run: 12 sources each vanish and reappear at the next write,
/// so the served world never lacks more than one source and reads cost
/// the same from the start of the run to its end. Over a 40 s run this is
/// a write every 1.7 s, far below what the writer can sustain.
pub const WRITES: usize = 24;
/// Set-ups the reader times in each of its [`WRITES`] pauses, each on a
/// world of its own.
pub const SETUP_PER_PAUSE: usize = 4;
/// Churn worlds whose set-up is timed; `setup_s` is their median.
pub const SETUP_WORLDS: usize = 1 + WRITES * SETUP_PER_PAUSE;
/// Tail percentile: p99.9 (about 2000 samples beyond it). The run holds
/// enough reads for p99.99, but on a shared two-core host p99.99 is set by
/// scheduler hiccups and moved by up to 3x between identical runs.
pub const TAIL_Q: f64 = 0.999;
/// The traced run traces one read in this many.
pub const TRACE_EVERY: u64 = 64;
/// Operation ids of writes start here, above any read's.
const WRITE_OPS: u64 = 1 << 40;

/// Fixpoint parameters under which every epoch's prior converges, so the
/// incremental path applies (the same as the repository's streaming
/// ingest experiment).
pub fn ingest_params() -> DetectionParams {
    DetectionParams {
        hard_damping_threshold: 1.0,
        convergence_epsilon: 1e-12,
        max_iterations: 5000,
        ..DetectionParams::default()
    }
}

fn kind(query: &ServeQuery) -> usize {
    match query {
        ServeQuery::TopK(..) => 0,
        ServeQuery::Fuse => 1,
        ServeQuery::Recommend(..) => 2,
        ServeQuery::SourceReports => 3,
    }
}

struct ReaderLog {
    /// Untraced read latencies, all kinds and per kind.
    all: Histogram,
    by_kind: [Histogram; 4],
    reads: u64,
    empty: u64,
    /// Set-up times of the pauses, and the time the pauses took.
    setup_s: Vec<f64>,
    paused: Duration,
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let worlds: Vec<ChurnWorld> = (0..SETUP_WORLDS)
        .map(|r| {
            ChurnWorld::generate(&ChurnConfig::streaming(
                COHORTS,
                SOURCES_PER_COHORT,
                OBJECTS_PER_COHORT,
                CHURNABLE + WRITES / 2,
                derive_seed(args.seed, r as u64),
            ))
        })
        .collect();

    // Set-up: snapshot from the claim triples, engine, ingest-session
    // bootstrap (the initial claims as one sealed epoch), and the
    // serving handle's first publish.
    let set_up = |world: &ChurnWorld, setup_s: &mut Vec<f64>| {
        let triples = triples_of(&world.initial);
        let (num_sources, num_objects) = (world.initial.num_sources(), world.initial.num_objects());
        let start = Instant::now();
        let snapshot = tracer.span("model.snapshot_build", SETUP_OP, None, |_| {
            Arc::new(SnapshotView::from_triples(
                num_sources,
                num_objects,
                triples.iter().copied(),
            ))
        });
        let engine = SailingEngine::builder()
            .params(ingest_params())
            .build()
            .expect("ingest parameters are valid");
        let mut session = engine
            .ingest_session(SealPolicy::manual())
            .with_max_dirty_fraction(2.0 / COHORTS as f64);
        for &(s, o, v) in &triples {
            session.assert_claim(s, o, v, 0, 0);
        }
        session.seal();
        let handle = ServeHandle::new(engine, snapshot);
        handle.publish_ingest(&session);
        setup_s.push(start.elapsed().as_secs_f64());
        (session, handle)
    };
    let mut setup_s = Vec::with_capacity(SETUP_WORLDS);
    let (mut session, handle) = set_up(&worlds[0], &mut setup_s);
    let world = &worlds[0];
    // Each vanish followed by the same source's reappearance.
    let deltas: Vec<&Delta> = (0..WRITES / 2)
        .flat_map(|i| [&world.deltas[i], &world.deltas[CHURNABLE + i]])
        .collect();
    let num_objects = world.initial.num_objects();
    let bootstrap = session.stats();
    out.check(
        bootstrap.deltas_sealed == 1 && session.analysis().converged(),
        || "ingest bootstrap did not converge".into(),
    );

    let interval = args.run_for.div_f64(WRITES as f64);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reader_log, write_log) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reader = handle.reader();
            let mut workload = Workload::new(args.seed, num_objects);
            let mut log = ReaderLog {
                all: Histogram::default(),
                by_kind: Default::default(),
                reads: 0,
                empty: 0,
                setup_s: Vec::with_capacity(WRITES * SETUP_PER_PAUSE),
                paused: Duration::ZERO,
            };
            let mut pauses = worlds[1..].chunks(SETUP_PER_PAUSE).enumerate().peekable();
            let pause = |log: &mut ReaderLog, worlds: &[ChurnWorld]| {
                let t = Instant::now();
                for world in worlds {
                    drop(set_up(world, &mut log.setup_s));
                }
                log.paused += t.elapsed();
            };
            while !stop.load(Ordering::Acquire) {
                if let Some(&(j, worlds)) = pauses.peek() {
                    if start.elapsed() >= interval.mul_f64(j as f64 + 0.5) {
                        pause(&mut log, worlds);
                        pauses.next();
                        continue;
                    }
                }
                let query = workload.next_query();
                let k = kind(&query);
                log.reads += 1;
                let op = log.reads;
                let traced = tracer.enabled() && op.is_multiple_of(TRACE_EVERY);
                let t = Instant::now();
                let found = if traced {
                    tracer.span("op", op, None, |root| {
                        let found = tracer.span(SERVE_SPANS[k], op, root, |_| {
                            Workload::execute(&mut reader, &query)
                        });
                        let analysis = Arc::clone(reader.current());
                        tracer.span("replay", op, root, |parent| match &query {
                            ServeQuery::TopK(object, n) => {
                                tracer.span("query.top_k", op, parent, |_| {
                                    analysis
                                        .top_k(*object, *n, &OrderingPolicy::ByAccuracy)
                                        .top
                                        .len()
                                })
                            }
                            ServeQuery::Fuse => tracer.span("fusion.fuse", op, parent, |_| {
                                analysis.fuse().decisions_sorted().len()
                            }),
                            ServeQuery::Recommend(goal, n) => {
                                tracer.span("recommend.recommend", op, parent, |_| {
                                    analysis.recommend(*goal, *n).len()
                                })
                            }
                            ServeQuery::SourceReports => {
                                tracer.span("engine.source_reports", op, parent, |_| {
                                    analysis.source_reports().to_vec().len()
                                })
                            }
                        });
                        found
                    })
                } else {
                    Workload::execute(&mut reader, &query)
                };
                if !traced {
                    let ns = t.elapsed().as_nanos() as u64;
                    log.all.record(ns);
                    log.by_kind[k].record(ns);
                }
                if found == 0 {
                    log.empty += 1;
                }
            }
            // A run too short for every pause makes up the rest here.
            for (_, worlds) in pauses {
                pause(&mut log, worlds);
            }
            log
        });
        let writer = scope.spawn(|| {
            // Stops the reader however the writer ends, so a panicking
            // write cannot leave the reader spinning.
            struct StopReader<'a>(&'a AtomicBool);
            impl Drop for StopReader<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _stop_reader = StopReader(&stop);
            let mut latency_ms = Vec::with_capacity(WRITES);
            let mut late_ms = Vec::with_capacity(WRITES);
            let mut sealed_all = true;
            for (j, delta) in deltas.iter().enumerate() {
                let due = start + interval.mul_f64((j + 1) as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let op = WRITE_OPS + j as u64;
                tracer.span("write", op, None, |root| {
                    for &(s, o, v) in delta.ops() {
                        tracer.span("ingest.append", op, root, |_| {
                            session.append(s, o, v, 0, 1 + j as i64)
                        });
                    }
                    sealed_all &= tracer.span("ingest.seal", op, root, |_| session.seal());
                    tracer.span("serve.publish", op, root, |_| {
                        handle.publish_ingest(&session)
                    });
                });
                latency_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            (latency_ms, late_ms, sealed_all)
        });
        let write_log = writer.join().expect("writer thread panicked");
        let reader_log = reader.join().expect("reader thread panicked");
        (reader_log, write_log)
    });
    let wall_s = (start.elapsed() - reader_log.paused).as_secs_f64();
    let (write_ms, late_ms, sealed_all) = write_log;
    setup_s.extend(&reader_log.setup_s);

    // Reads: each must have returned something.
    out.attempted += reader_log.reads;
    out.failed += reader_log.empty;
    if reader_log.empty > 0 {
        out.note(format!(
            "check failed: {} reads returned nothing",
            reader_log.empty
        ));
    }
    out.check(sealed_all, || "a write had nothing to seal".into());

    // Final ingest accuracies against a chain of full warm runs.
    let pipeline = AccuCopy::new(ingest_params()).expect("ingest parameters are valid");
    let mut snapshot = world.initial.clone();
    let mut reference = pipeline.run(&snapshot);
    for delta in &deltas {
        snapshot = snapshot.apply_delta(delta);
        reference = pipeline.run_warm(&snapshot, Some(&reference));
    }
    let streamed = session.analysis();
    let gap = streamed
        .accuracies()
        .iter()
        .zip(&reference.accuracies)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    out.check(
        streamed.accuracies().len() == reference.accuracies.len()
            && gap < 1e-9
            && *session.snapshot() == snapshot,
        || format!("final ingest accuracies differ from run_warm by {gap:e}"),
    );
    // Every source is back at the end, so every object has claims.
    let precision = world
        .truth
        .decision_precision(&streamed.decisions())
        .expect("churn worlds plant a truth");

    let stats = session.stats();
    let metrics = handle.metrics();
    out.count("writes", WRITES as u64);
    out.count("epochs_sealed", stats.deltas_sealed);
    out.count("incremental_runs", stats.incremental_runs);
    out.count("full_fallbacks", stats.full_fallbacks);
    out.count("dirty_objects", stats.dirty_objects_total);
    out.count("iterations", stats.iterations_total);
    out.count("epoch_swaps", metrics.epoch_swaps);
    out.note(format!(
        "churn {COHORTS} cohorts x {SOURCES_PER_COHORT} sources x {OBJECTS_PER_COHORT} objects; \
         {} reads and {WRITES} writes in {wall_s:.2} s; writes p50 {:.3} ms, max {:.3} ms, \
         generator late by at most {:.3} ms",
        reader_log.reads,
        median(&write_ms),
        write_ms.iter().copied().fold(0.0, f64::max),
        late_ms.iter().copied().fold(0.0, f64::max)
    ));

    if !args.trace {
        let ops_per_s = reader_log.reads as f64 / wall_s;
        out.end_to_end(&setup_s, &reader_log.all, TAIL_Q, ops_per_s, precision);
        return out;
    }

    out.spans = tracer.spans();
    out.metric("ingest.epochs_sealed", stats.deltas_sealed as f64);
    out.metric("ingest.incremental_runs", stats.incremental_runs as f64);
    out.metric("ingest.full_fallbacks", stats.full_fallbacks as f64);
    out.metric("ingest.dirty_objects", stats.dirty_objects_total as f64);
    out.metric("serve.epoch_swaps", metrics.epoch_swaps as f64);
    out.metric("write.p50_ms", median(&write_ms));
    out.metric("write.tail_ms", quantile(&write_ms, WRITE_TAIL_Q));
    out.metric(
        "write.late_max_ms",
        late_ms.iter().copied().fold(0.0, f64::max),
    );
    for (hist, (p50, p99)) in reader_log.by_kind.iter().zip(P50_P99) {
        if let (Some(a), Some(b)) = (hist.quantile_ns(0.5), hist.quantile_ns(0.99)) {
            out.metric(p50, a / 1e3);
            out.metric(p99, b / 1e3);
        }
    }
    for (metric, span, scale) in [
        ("model.snapshot_build_ms", "model.snapshot_build", 1.0),
        ("ingest.append_us", "ingest.append", 1e3),
        ("ingest.seal_ms", "ingest.seal", 1.0),
        ("serve.publish_ms", "serve.publish", 1.0),
        ("recommend.recommend_us", "recommend.recommend", 1e3),
    ] {
        put_median(&mut out, metric, span, scale);
    }
    // Traced reads are timed by their real `serve.*` call spans, as the
    // other workloads time their real calls.
    let traced_ms: Vec<f64> = out
        .spans
        .iter()
        .filter(|s| SERVE_SPANS.contains(&s.name))
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    if let (false, Some(untraced)) = (traced_ms.is_empty(), reader_log.all.quantile_ns(0.5)) {
        out.metric("trace.overhead_ms", median(&traced_ms) - untraced / 1e6);
    }
    out
}

/// Writes per run are few (24), so their tail is p90.
const WRITE_TAIL_Q: f64 = 0.9;

const SERVE_SPANS: [&str; 4] = [
    "serve.top_k",
    "serve.fuse",
    "serve.recommend",
    "serve.source_reports",
];

const P50_P99: [(&str, &str); 4] = [
    ("serve.top_k_p50_us", "serve.top_k_p99_us"),
    ("serve.fuse_p50_us", "serve.fuse_p99_us"),
    ("serve.recommend_p50_us", "serve.recommend_p99_us"),
    ("serve.source_reports_p50_us", "serve.source_reports_p99_us"),
];
