//! # sailing-serve
//!
//! The **concurrent query-serving tier** over [`sailing`]'s engine: the
//! read-heavy front end the ROADMAP's "millions of users" north star asks
//! for, as opposed to the batch-library shape of calling
//! [`SailingEngine::analyze_owned`](sailing::engine::SailingEngine::analyze_owned)
//! from every consumer.
//!
//! A [`ServeHandle`] owns one corpus's **current** analysis behind an
//! [`EpochPointer`] — an atomically published `Arc<Analysis>` — and
//! answers the Section 4 application queries (`top_k`, `fuse`,
//! `recommend`, `source_reports`) from any number of threads:
//!
//! * **Readers never take a lock on the hot path.** Each serving thread
//!   holds a [`ServeReader`], which caches the current `Arc` and
//!   revalidates it with a single atomic generation load per request; the
//!   pointer is only re-fetched in the instant after an epoch swap.
//! * **Admission is single-flight.** Publishing a cache-missing snapshot
//!   ([`ServeHandle::admit`]) goes through the engine's analysis cache,
//!   where a thundering herd of identical misses runs discovery exactly
//!   once — the rest block on the in-flight computation and adopt its
//!   pointer-identical result (visible as
//!   [`CacheStats::inflight_waits`](sailing::CacheStats::inflight_waits)).
//! * **Every endpoint is measured.** Per-endpoint request counters and
//!   fixed-bucket latency histograms yield p50/p99 through a cheap
//!   [`MetricsSnapshot`], which nests the engine's
//!   [`CacheStats`](sailing::CacheStats) whole as `cache` — and through
//!   it the persist tier's own stats as `cache.persist`, deferred-error
//!   counts included ([`ServeHandle::take_persist_write_errors`] surfaces
//!   the errors themselves).
//!
//! ```
//! use std::sync::Arc;
//!
//! use sailing::engine::SailingEngine;
//! use sailing::model::fixtures;
//! use sailing::query::OrderingPolicy;
//! use sailing::recommend::Goal;
//! use sailing_serve::{Endpoint, ServeHandle};
//!
//! // One handle per corpus: analyze the initial snapshot and publish it.
//! let (store, truth) = fixtures::table1();
//! let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::new(store.snapshot()));
//!
//! // Serving threads each hold a reader — the lock-free read path.
//! let answers: Vec<usize> = std::thread::scope(|scope| {
//!     (0..4)
//!         .map(|_| {
//!             let mut reader = handle.reader();
//!             let halevy = store.object_id("Halevy").unwrap();
//!             scope.spawn(move || {
//!                 let top = reader.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
//!                 let recs = reader.recommend(Goal::TruthSeeking, 2);
//!                 top.top.len() + recs.len()
//!             })
//!         })
//!         .collect::<Vec<_>>()
//!         .into_iter()
//!         .map(|h| h.join().unwrap())
//!         .collect()
//! });
//! assert_eq!(answers, vec![3; 4]);
//!
//! // The dependence-aware answer, served without re-running discovery.
//! let halevy = store.object_id("Halevy").unwrap();
//! let top = handle.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
//! assert_eq!(Some(top.top[0].0), truth.value(halevy));
//!
//! // Every request above was counted and timed.
//! let metrics = handle.metrics();
//! assert_eq!(metrics.endpoint(Endpoint::TopK).requests, 5);
//! assert_eq!(metrics.endpoint(Endpoint::Admit).requests, 1);
//! assert!(metrics.endpoint(Endpoint::TopK).p50_us <= metrics.endpoint(Endpoint::TopK).p99_us);
//! ```
//!
//! Epoch swaps ([`ServeHandle::admit`]) are how ingestion hands a new
//! snapshot to the serving tier: readers keep answering from the old
//! analysis until the swap lands, then pick up the new one on their next
//! request — no reader ever observes a half-published analysis, because
//! the unit of publication is the whole `Arc`.
//!
//! # Streaming ingestion
//!
//! A live claim stream plugs in through
//! [`sailing::engine::IngestSession`]: each sealed delta epoch runs
//! *incremental* truth discovery, and
//! [`ServeHandle::publish_ingest`] publishes the session's analysis
//! through the same watchdog gating as [`ServeHandle::refresh`] while
//! folding the session's [`IngestStats`](sailing::IngestStats)
//! (events, epochs, incremental-vs-fallback counts, dirty closures,
//! iterations spent, the last epoch's outcome) into
//! [`MetricsSnapshot::ingest`]. Incremental results bypass the engine's
//! analysis cache, so the dedicated
//! [`ServeHandle::refresh_analysis`] path exists to publish them
//! without re-running full discovery.
//!
//! # Graceful degradation
//!
//! [`ServeHandle::refresh`] is the degradation-aware admission path: an
//! analysis the engine's discovery watchdog ended *without convergence*
//! (deadline overrun, detected limit cycle — see
//! [`SailingEngineBuilder::discovery_watchdog`](sailing::engine::SailingEngineBuilder::discovery_watchdog))
//! is refused publication. Readers keep serving the **last good epoch**
//! (stale-while-revalidate) and [`ServeHandle::health`] reports
//! [`Health::Degraded`] — carrying when the outage began and why — until
//! a refresh converges again. [`MetricsSnapshot`] folds the health in
//! (`healthy` / `degraded_reason` / `degraded_for_secs`) alongside the
//! persist tier's resilience counters (`cache.persist.retries`,
//! `breaker_fast_fails`, `breaker`), so one poll answers both "are the
//! answers fresh?" and "is the disk behind them struggling?".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod handle;
pub mod histogram;
pub mod metrics;
pub mod workload;

pub use epoch::EpochPointer;
pub use handle::{Health, ServeHandle, ServeReader};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use metrics::{Endpoint, EndpointStats, MetricsSnapshot};
pub use workload::{ServeQuery, Workload, WorkloadMix};
