//! # sailing
//!
//! A Rust reproduction of *Sailing the Information Ocean with Awareness of
//! Currents: Discovery and Application of Source Dependence* (Berti-Équille,
//! Das Sarma, Dong, Marian, Srivastava — CIDR 2009).
//!
//! The Web makes it as easy to spread false information as true information,
//! and naive majority voting over conflicting sources is defeated the moment
//! sources copy from each other. This workspace implements the paper's
//! programme end to end behind one facade:
//!
//! * [`engine`] — **the entry point**: [`SailingEngine`] runs the iterative
//!   *truth ↔ accuracy ↔ dependence* loop at most once per distinct
//!   snapshot (analyses are cached by content hash) and hands back an owned
//!   [`Analysis`] feeding fusion, online query answering, and source
//!   recommendation; [`TimelineSession`] walks a whole update history epoch
//!   by epoch with warm-started incremental discovery;
//! * [`error`] — the single typed [`SailingError`] every fallible API in
//!   the workspace reports;
//! * [`model`] — the structured-source data model (claims, snapshots,
//!   temporal update traces, ground truths);
//! * [`persist`] — the **persistent cross-process analysis store**: a
//!   versioned, checksummed on-disk format for converged pipeline
//!   results, the durable tier under the engine's analysis cache
//!   (attach one with
//!   [`persist_dir`](SailingEngineBuilder::persist_dir));
//! * [`core`] — **dependence discovery**: Bayesian snapshot copy detection,
//!   dissimilarity-dependence detection on opinions, temporal (update-trace)
//!   dependence with lazy-copier lag estimation, pluggable
//!   [`TruthDiscovery`](core::TruthDiscovery) strategies, and the iterative
//!   truth ↔ accuracy ↔ dependence pipeline;
//! * [`linkage`] — record linkage: string metrics, author-list parsing,
//!   representation clustering, wrong-value vs alternative-representation
//!   classification;
//! * [`fusion`] — dependence-aware data fusion and probabilistic-database
//!   output;
//! * [`query`] — online query answering with dependence-aware source
//!   ordering and top-k early termination;
//! * [`recommend`] — source recommendation from accuracy, coverage,
//!   freshness and independence;
//! * [`ingest`] — **streaming ingestion**: an append-only claim log with
//!   durable checksummed segments and torn-tail recovery, sealing claim
//!   events into delta epochs that feed incremental discovery (see
//!   *Streaming ingestion* below);
//! * [`datagen`] — seeded synthetic worlds, including the AbeBooks-like
//!   corpus of the paper's Example 4.1, churn worlds for streaming
//!   workloads, and variant worlds whose sources disagree about
//!   formatting as much as about facts.
//!
//! For read-heavy, multi-threaded deployments, the companion crate
//! `sailing-serve` wraps the engine in a **concurrent query-serving
//! tier**: a `ServeHandle` publishes the current [`Analysis`] behind an
//! epoch pointer (readers revalidate with one atomic load per request,
//! no lock on the hot path), admission of new snapshots is single-flight
//! through the engine's cache ([`CacheStats::inflight_waits`]), and every
//! endpoint is counted and timed into p50/p99 latency histograms. It is
//! a separate crate because it *depends on* this one; see its crate docs
//! and `examples/serve_loadgen.rs`.
//!
//! ## Quickstart
//!
//! Build an engine once, analyze a snapshot once, and derive every
//! downstream application from the cached [`Analysis`]:
//!
//! ```
//! use sailing::engine::SailingEngine;
//! use sailing::model::fixtures;
//! use sailing::query::OrderingPolicy;
//! use sailing::recommend::Goal;
//!
//! // Table 1 of the paper: five sources, two of them copying a third.
//! let (store, truth) = fixtures::table1();
//! let snapshot = store.snapshot();
//!
//! // Naive voting follows the copiers...
//! let naive = sailing::core::vote::naive_vote(&snapshot);
//! assert_eq!(truth.decision_precision(&naive), Some(0.4));
//!
//! // ...the engine's dependence-aware analysis does not.
//! let engine = SailingEngine::builder().build()?;
//! let analysis = engine.analyze(&snapshot);
//! assert_eq!(truth.decision_precision(&analysis.decisions()), Some(1.0));
//!
//! // The same analysis powers every Section 4 application:
//! let fused = analysis.fuse();                 // data fusion
//! let mut session = analysis.online_session(); // online query answering
//! let order = analysis.visit_order(&OrderingPolicy::GreedyIndependent);
//! session.run_order(&order[..2]);              // probe the two independents
//! let recs = analysis.recommend(Goal::TruthSeeking, 2);
//!
//! assert_eq!(fused.strategy, "accu-copy");
//! assert_eq!(recs.len(), 2);
//! # Ok::<(), sailing::error::SailingError>(())
//! ```
//!
//! Strategies are pluggable: pass
//! [`NaiveVote`](core::NaiveVote) / [`AccuCopy::baseline`](core::AccuCopy::baseline) (or your own
//! [`TruthDiscovery`](core::TruthDiscovery) implementation) to
//! [`SailingEngine::builder`] to reproduce the paper's baseline ladder
//! through one code path.
//!
//! ## Streaming ingestion
//!
//! The batch path above re-analyzes a whole snapshot per call. When
//! claims arrive as a **live stream**, open an [`IngestSession`]
//! instead: claims append to an in-memory or durable
//! [`ingest::ClaimLog`], a [`ingest::SealPolicy`] (event count, stream
//! time span, or manual) seals them into delta epochs, and each epoch
//! runs **incremental** truth discovery
//! ([`core::AccuCopy::run_delta`]) — re-iterating only the delta's
//! *dirty closure* (the claims' sources and objects plus everything
//! reachable through shared claims) and splicing the untouched region's
//! posterior through unchanged. Epochs whose closure exceeds a dirty
//! fraction ceiling, or that follow a non-converged epoch, fall back to
//! a full warm re-analysis with a typed outcome
//! ([`core::DeltaOutcome`]); [`IngestStats`] counts which path each
//! epoch took.
//!
//! ```
//! use sailing::engine::SailingEngine;
//! use sailing::ingest::SealPolicy;
//! use sailing::model::fixtures;
//!
//! let (store, truth) = fixtures::table1();
//! let snapshot = store.snapshot();
//! let engine = SailingEngine::builder().build()?;
//!
//! // Claims arrive one by one; every 10 events seals a delta epoch.
//! let mut session = engine.ingest_session(SealPolicy::after_events(10));
//! for s in 0..snapshot.num_sources() {
//!     let source = sailing::model::SourceId::from_index(s);
//!     for &(object, value) in snapshot.source_assertions(source) {
//!         session.assert_claim(source, object, value, 0, s as i64);
//!     }
//! }
//! session.seal(); // flush the open tail
//!
//! let analysis = session.analysis();
//! assert_eq!(truth.decision_precision(&analysis.decisions()), Some(1.0));
//! assert!(session.stats().deltas_sealed >= 2);
//! # Ok::<(), sailing::error::SailingError>(())
//! ```
//!
//! Durable logs ([`ingest::ClaimLog::open`]) persist sealed epochs as
//! checksummed segment files through the same write-then-rename
//! discipline as [`persist`]; a torn tail truncates to the last valid
//! record on reopen and [`SailingEngine::ingest_session_from`]
//! bootstraps the session from whatever survived. See
//! `examples/ingest_stream.rs` for the end-to-end flow.
//!
//! ## Value equivalence
//!
//! Real sources render the same fact differently — `"J. Smith"` vs
//! `"j smith"`, `"3.14"` vs `"3.140"` — and under bitwise identity a
//! split honest majority can lose to a coherent block of copiers. The
//! engine therefore runs discovery over a **quotient of the value
//! space**: a pluggable [`ValueEquivalence`](model::ValueEquivalence)
//! backend partitions the snapshot's interned values once per analysis,
//! every claim is rewritten to its class representative, and voting,
//! dissimilarity, and copy detection proceed over plain integer ids
//! exactly as before — the inner loops never call a comparator.
//!
//! Four backends ship: [`Exact`](model::Exact) (the default — bitwise
//! identity, zero overhead, legacy cache keys untouched),
//! [`NormalizedString`](linkage::NormalizedString) (case, whitespace,
//! punctuation and diacritic folding via
//! [`linkage::normalize()`]), [`NumericTolerance`](model::NumericTolerance)
//! (numbers within an epsilon merge transitively), and
//! [`HashedDigest`](model::HashedDigest) (salted digests: federation
//! members match values without revealing them — see
//! `examples/private_federation.rs`).
//!
//! ```
//! use sailing::datagen::variants::{VariantWorld, VariantWorldConfig};
//! use sailing::engine::SailingEngine;
//! use sailing::linkage::NormalizedString;
//!
//! // Half the assertions arrive as formatting variants of the truth.
//! let world = VariantWorld::generate(&VariantWorldConfig::messy(120, 8, 42));
//!
//! let exact = SailingEngine::builder().build()?;
//! let normalized = SailingEngine::builder()
//!     .value_equivalence(NormalizedString)
//!     .build()?;
//!
//! let score = |engine: &SailingEngine| {
//!     world
//!         .truth
//!         .decision_precision(&engine.analyze(&world.snapshot).decisions())
//!         .unwrap()
//! };
//! // Collapsing the variants re-forms the split majority.
//! assert!(score(&normalized) > score(&exact));
//! # Ok::<(), sailing::error::SailingError>(())
//! ```
//!
//! The quotient's digest is folded into the analysis cache key and the
//! persistent [`persist::StoreKey`], so results computed under one
//! backend are never served to an engine running another — in memory or
//! across processes. Streaming sessions degrade safely: ingest events
//! carry bare value ids, so a sealed epoch that names a value the
//! quotient has never classified falls back to a full warm re-analysis
//! with the typed [`core::DeltaOutcome::Unsupported`].
//!
//! ## Failure semantics
//!
//! The workspace is built to **degrade, not error**, when the world
//! misbehaves; each layer has a typed, observable fallback:
//!
//! * **Persistence** — transient filesystem failures are retried with
//!   bounded exponential backoff ([`persist::StoreOptions::retry`] via
//!   [`persist_options`](SailingEngineBuilder::persist_options), visible
//!   as [`persist::PersistStats::retries`] under [`CacheStats::persist`]);
//!   persistent failure trips a circuit breaker
//!   ([`persist::StoreOptions::breaker`]) that fast-fails writes without
//!   touching the disk until a cooldown passes and a half-open probe
//!   succeeds ([`persist::PersistStats::breaker`]). A failed or refused write is never
//!   an analysis error — just a future cold miss. Damaged or torn store
//!   files are rejected by checksum on read and degrade to cold misses.
//!   Fault paths are testable deterministically by routing the store
//!   through an injected filesystem
//!   ([`persist_fs`](SailingEngineBuilder::persist_fs) +
//!   [`persist::FaultyFs`]).
//! * **Discovery** — a run that will not settle can be bounded by a
//!   [`discovery_watchdog`](SailingEngineBuilder::discovery_watchdog)
//!   (wall-clock deadline, limit-cycle detection); the run ends as a
//!   typed non-converged outcome ([`Analysis::termination`],
//!   [`core::Termination`]) instead of spinning to the iteration cap,
//!   and is returned but never cached or persisted.
//! * **Serving** — the `sailing-serve` tier refuses to publish
//!   watchdog-stopped analyses: readers keep answering from the last
//!   good epoch (stale-while-revalidate) while its `Health` reports the
//!   degradation and its cause.
//!
//! ## One stats surface, by composition
//!
//! Each layer owns exactly one typed stats value and the layer above
//! nests it whole: the store's [`persist::PersistStats`] (with its
//! breaker phase) sits in [`CacheStats::persist`], and `sailing-serve`'s
//! `MetricsSnapshot` holds the engine's [`CacheStats`] and the folded
//! [`IngestStats`] as its `cache` and `ingest` fields. No layer re-declares
//! another's counters, so a counter added to one layer reaches the
//! serve snapshot (and its JSON) without a copy to keep in step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;

pub use engine::{
    Analysis, CacheStats, EpochAnalysis, IngestSession, IngestStats, SailingEngine,
    SailingEngineBuilder, TimelineSession,
};
pub use error::{SailingError, SailingResult};

pub use sailing_core as core;
pub use sailing_datagen as datagen;
pub use sailing_fusion as fusion;
pub use sailing_ingest as ingest;
pub use sailing_linkage as linkage;
pub use sailing_model as model;
pub use sailing_persist as persist;
pub use sailing_query as query;
pub use sailing_recommend as recommend;
