//! The unified engine: one pipeline run, every downstream application.
//!
//! The paper's programme is a single loop — *determine true values ↔
//! compute source accuracy ↔ discover dependence* — whose converged output
//! feeds every application in Section 4: data fusion, online query
//! answering, and source recommendation. Before this facade existed each
//! downstream crate re-orchestrated that loop by hand ("pilot pipeline
//! runs" feeding raw accuracy vectors and dependence matrices around);
//! [`SailingEngine`] runs it **once per snapshot** and hands back a cached
//! [`Analysis`] from which everything else derives:
//!
//! ```
//! use sailing::core::DetectionParams;
//! use sailing::engine::SailingEngine;
//! use sailing::model::fixtures;
//! use sailing::query::OrderingPolicy;
//! use sailing::recommend::Goal;
//!
//! let (store, truth) = fixtures::table1();
//! let snapshot = store.snapshot();
//! let engine = SailingEngine::builder()
//!     .params(DetectionParams {
//!         threads: 2,
//!         ..DetectionParams::default()
//!     })
//!     .build()?;
//! let analysis = engine.analyze(&snapshot);
//!
//! // Fusion, online answering, and recommendation all reuse the same
//! // converged accuracies and dependence matrix — no plumbing.
//! assert_eq!(truth.decision_precision(&analysis.decisions()), Some(1.0));
//! let fused = analysis.fuse();
//! let mut session = analysis.online_session();
//! let order = analysis.visit_order(&OrderingPolicy::GreedyIndependent);
//! let steps = session.run_order(&order);
//! let recs = analysis.recommend(Goal::TruthSeeking, 3);
//! assert_eq!(fused.decisions, steps.last().unwrap().decisions);
//! assert_eq!(recs.len(), 3);
//! # Ok::<(), sailing::error::SailingError>(())
//! ```
//!
//! # Sessions over timelines
//!
//! The paper's whole point is sailing with awareness of *currents*: sources
//! evolve, copy, and correct each other **over time**. The engine is
//! therefore timeline-native, not frozen at one snapshot:
//!
//! * [`Analysis`] is **owned** (`Send + 'static`): it shares the snapshot
//!   and the converged pipeline result through [`Arc`]s, so analyses can be
//!   stored, returned, and handed across threads. [`SailingEngine::analyze`]
//!   remains as a thin compatibility wrapper that clones the borrowed
//!   snapshot into an `Arc` (on a cache miss only);
//!   [`SailingEngine::analyze_owned`] is the primary, clone-free entry.
//! * [`SailingEngine::timeline`] walks a [`History`] change point by change
//!   point, materialises each epoch's snapshot once, and **warm-starts**
//!   truth discovery from the previous epoch's posterior
//!   ([`TruthDiscovery::run_warm`]) — fewer iterations per epoch on small
//!   deltas, identical fixpoints. Each [`EpochAnalysis`] also carries the
//!   update-trace dependence evidence
//!   ([`sailing_core::temporal::detect_all`]) so lazy copiers invisible in
//!   any single snapshot still surface in the epoch's report.
//! * Analyses are cached inside the engine, keyed by the snapshot's
//!   [content hash](SnapshotView::content_hash) plus the computation's
//!   warm/cold provenance, with LRU eviction — repeating a query through
//!   the same path (another cold `analyze`, a timeline re-walk) is free,
//!   while a cold `analyze` never silently observes a warm-seeded result;
//!   see [`SailingEngine::cache_stats`].
//! * Cache misses are admitted with **single-flight** semantics: when many
//!   threads miss on the same snapshot concurrently, exactly one runs the
//!   discovery loop (and the persistent-store lookup) while the rest block
//!   on the in-flight computation and adopt its pointer-identical result —
//!   a thundering herd performs one unit of work, counted in
//!   [`CacheStats::inflight_waits`]. The `sailing-serve` crate builds its
//!   concurrent query-serving tier on exactly this admission path.
//! * The cache can be backed by a **persistent store**
//!   ([`SailingEngineBuilder::persist_dir`]): computed results are
//!   written to disk in a versioned, checksummed format
//!   ([`sailing_persist`]), and a second *process* over the same
//!   snapshots gets disk hits instead of cold discovery runs — damaged
//!   or stale files degrade to cold misses, never errors. With
//!   [`StoreOptions::async_writer`] passed to
//!   [`SailingEngineBuilder::persist_options`] the store writes on its own
//!   background thread, so the analysis path performs **zero filesystem
//!   syscalls** ([`SailingEngine::flush_persist`], a drain barrier in
//!   both write modes, then waits for that thread; deferred failures
//!   surface via [`SailingEngine::take_persist_write_errors`]); one
//!   store directory
//!   is safe to share across engines, processes, and machines —
//!   compaction takes the directory's advisory lock and can never sweep
//!   a just-written valid entry.
//! * On multi-core machines [`TimelineSession::prefetch_cold`], called on
//!   a fresh session, runs the timeline's cold epoch analyses **in
//!   parallel** first — the epochs fan out under [`std::thread::scope`]
//!   in LPT-balanced chunks, and each worker resolves its epochs through
//!   the same single-flight miss path as a cold `analyze_owned`, so
//!   cached, store-resident and in-flight epochs cost no discovery run —
//!   and the walk then consumes the precomputed results, preserving the
//!   converged-prior gating semantics exactly.
//!
//! ```
//! use sailing::engine::SailingEngine;
//! use sailing::model::fixtures;
//!
//! // Table 3: three sources updating researcher affiliations over years.
//! let (store, history, _) = fixtures::table3();
//! let engine = SailingEngine::with_defaults();
//!
//! // One warm-started analysis per epoch, oldest first.
//! let epochs: Vec<_> = engine.timeline(history.clone()).collect();
//! assert_eq!(epochs.len(), history.change_points().count());
//! for epoch in &epochs {
//!     // Reproducibly ordered decisions for this epoch's snapshot…
//!     let decisions = epoch.analysis().decisions();
//!     assert!(decisions.len() <= 5);
//!     // …and dependence evidence fused from the snapshot *and* the
//!     // update traces (the lazy copier S3 → S1 is a temporal finding).
//!     let fused = epoch.fused_dependences();
//!     assert!(fused.len() >= epoch.analysis().dependences().len());
//! }
//!
//! // Walking the same timeline again is free: every epoch is served
//! // from the engine's analysis cache — pointer-identical results, no
//! // discovery re-run (`total_iterations` of the rerun stays 0).
//! let rerun: Vec<_> = engine.timeline(history).collect();
//! assert!(rerun.iter().all(|e| e.from_cache()));
//! assert!(engine.cache_stats().hits as usize >= rerun.len());
//! assert_eq!(
//!     epochs.last().unwrap().analysis().decisions(),
//!     rerun.last().unwrap().analysis().decisions()
//! );
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::Serialize;

use sailing_core::pairs::balanced_chunks;
use sailing_core::shard::{iteration_digest, shard_ranges, PairRange, PartialDependence};
use sailing_core::truth::{DependenceMatrix, ValueProbabilities};
use sailing_core::{
    AccuCopy, DeltaOutcome, DeltaRun, DetectionParams, PairDependence, PipelineResult,
    SourceReport, TemporalParams, Termination, TruthDiscovery, Watchdog,
};
use sailing_datagen::bookstores::BookCorpusConfig;
use sailing_fusion::{FusionOutcome, ProbabilisticDatabase};
use sailing_ingest::{ClaimLog, IngestLogStats, SealPolicy};
use sailing_model::equivalence::{Exact, ValueEquivalence, ValueQuotient};
use sailing_model::{
    fx_mix, Delta, History, ObjectId, SailingError, SnapshotView, SourceId, Timestamp, ValueId,
};
use sailing_persist::{
    CompactReport, PersistStats, PersistentStore, StoreFs, StoreKey, StoreOptions,
};
use sailing_query::topk::{top_k_values_for_object, TopKResult};
use sailing_query::{order_sources, OnlineSession, OrderingPolicy};
use sailing_recommend::{
    recommend_sources, trust_scores, Goal, Recommendation, TrustScore, TrustWeights,
};

/// Default number of snapshot analyses the engine keeps cached.
const DEFAULT_CACHE_CAPACITY: usize = 16;

/// How often a cooperative sharded analysis re-polls the store for a
/// partial claimed by another process.
const SHARD_ADOPT_POLL: Duration = Duration::from_millis(25);

/// How long it polls before concluding the claimant is gone and
/// recomputing the range locally — the liveness bound for a crashed
/// peer.
const SHARD_ADOPT_DEADLINE: Duration = Duration::from_secs(2);

/// Store name (claim and blob alike) coordinating one pair-range of one
/// iteration of one snapshot's sharded analysis, under the run's cold
/// [`quotient_cache_key`]. Blob names carry no self-certifying snapshot
/// hash (unlike store entries), so the key's provenance — the
/// equivalence backend's lane — is folded into the named hash: partials
/// computed under different backends can never be adopted across runs.
/// The exact backend's key has no provenance, so its names are the bare
/// content hash.
fn shard_partial_name(key: StoreKey, iteration: usize, range: PairRange) -> String {
    let hash = match key.provenance {
        None => key.snapshot_hash,
        Some(provenance) => fx_mix(key.snapshot_hash, provenance),
    };
    format!(
        "shard-{hash:016x}-i{iteration}-{}-{}",
        range.start, range.end
    )
}

/// Joins scoped workers in spawn order, one outcome per worker. A
/// worker's panic becomes [`SailingError::WorkerPanicked`] instead of
/// re-raising on the coordinating thread; every handle is joined, so no
/// panicked worker is left for the scope to re-raise.
fn join_workers<T>(
    context: &'static str,
    handles: Vec<std::thread::ScopedJoinHandle<'_, T>>,
) -> Vec<Result<T, SailingError>> {
    handles
        .into_iter()
        .map(|handle| {
            handle.join().map_err(|payload| {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                SailingError::WorkerPanicked { context, reason }
            })
        })
        .collect()
}

/// Builder for [`SailingEngine`]; start from [`SailingEngine::builder`].
pub struct SailingEngineBuilder {
    params: Option<DetectionParams>,
    corpus_min_overlap: Option<usize>,
    strategy: Option<Arc<dyn TruthDiscovery>>,
    trust_weights: TrustWeights,
    temporal_params: TemporalParams,
    cache_capacity: usize,
    persist_dir: Option<PathBuf>,
    persist_options: StoreOptions,
    persist_fs: Option<Arc<dyn StoreFs>>,
    watchdog: Option<Watchdog>,
    equivalence: Option<Arc<dyn ValueEquivalence>>,
}

impl SailingEngineBuilder {
    fn new() -> Self {
        Self {
            params: None,
            corpus_min_overlap: None,
            strategy: None,
            trust_weights: TrustWeights::default(),
            temporal_params: TemporalParams::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            persist_dir: None,
            persist_options: StoreOptions::default(),
            persist_fs: None,
            watchdog: None,
            equivalence: None,
        }
    }

    /// Sets the detection parameters used by the default strategy and by
    /// downstream voting (online sessions, fusion damping).
    #[must_use]
    pub fn params(mut self, params: DetectionParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Installs a custom truth-discovery strategy (defaults to ACCU-COPY
    /// with the configured parameters).
    #[must_use]
    pub fn strategy(mut self, strategy: impl TruthDiscovery + 'static) -> Self {
        self.strategy = Some(Arc::new(strategy));
        self
    }

    /// Sets the trust-factor weights used by [`Analysis::recommend`].
    #[must_use]
    pub fn trust_weights(mut self, weights: TrustWeights) -> Self {
        self.trust_weights = weights;
        self
    }

    /// Sets the update-trace detection parameters used by
    /// [`SailingEngine::timeline`]'s temporal dependence pass.
    #[must_use]
    pub fn temporal_params(mut self, params: TemporalParams) -> Self {
        self.temporal_params = params;
        self
    }

    /// Bounds the engine's snapshot-keyed analysis cache (LRU). `0`
    /// disables in-memory caching entirely; the default keeps 16 analyses.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Attaches a **persistent analysis store** rooted at `dir`
    /// ([`sailing_persist::PersistentStore`]): every freshly computed
    /// [`PipelineResult`] is written to disk in the versioned, checksummed
    /// store format, and in-memory cache misses fall through to a disk
    /// lookup — so a second process (or a re-run after restart) over the
    /// same snapshots gets disk hits instead of cold discovery runs. Disk
    /// traffic shows up as [`CacheStats::disk_hits`] /
    /// [`CacheStats::disk_misses`]; damaged or wrong-version store files
    /// degrade to cold misses, never errors. The directory is created on
    /// [`SailingEngineBuilder::build`].
    #[must_use]
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Configures the persistent store's write path — async writer and
    /// queue bound, retry, circuit breaker, and drop-drain deadline — as
    /// one [`StoreOptions`] value, passed as is to
    /// [`PersistentStore::open_with`] (which clamps it; read the effective
    /// value back from [`SailingEngine::persist_store`]). Defaults to
    /// [`StoreOptions::default`]: synchronous writes, no retry, no breaker.
    /// No effect without [`SailingEngineBuilder::persist_dir`].
    ///
    /// With [`StoreOptions::async_writer`] the analysis path performs
    /// **zero filesystem syscalls**: `analyze`/`analyze_owned` enqueue
    /// the freshly computed result and return, and the store's writer
    /// thread drains the queue. [`SailingEngine::flush_persist`] waits
    /// for that thread; write failures that happen after the analysis
    /// returned surface through [`PersistStats::write_errors`] (under
    /// [`CacheStats::persist`]) and
    /// [`SailingEngine::take_persist_write_errors`].
    ///
    /// ```
    /// use sailing::engine::SailingEngine;
    /// use sailing::model::fixtures;
    /// use sailing::persist::StoreOptions;
    ///
    /// let dir = std::env::temp_dir().join(format!("sailing-doc-po-{}", std::process::id()));
    /// let engine = SailingEngine::builder()
    ///     .persist_dir(&dir)
    ///     .persist_options(StoreOptions::async_writer(64))
    ///     .build()?;
    /// let (store, _) = fixtures::table1();
    /// let analysis = engine.analyze(&store.snapshot()); // no fs write here
    /// engine.flush_persist()?; // drain barrier: the entry is on disk now
    /// assert!(engine.take_persist_write_errors().is_empty());
    /// assert!(!analysis.decisions().is_empty());
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), sailing::error::SailingError>(())
    /// ```
    #[must_use]
    pub fn persist_options(mut self, options: StoreOptions) -> Self {
        self.persist_options = options;
        self
    }

    /// Routes the persistent store's filesystem access through a custom
    /// [`StoreFs`] — primarily [`sailing_persist::FaultyFs`] for
    /// deterministic fault-injection testing of the retry/breaker/
    /// degraded-serving paths. No effect without
    /// [`SailingEngineBuilder::persist_dir`].
    #[must_use]
    pub fn persist_fs(mut self, fs: Arc<dyn StoreFs>) -> Self {
        self.persist_fs = Some(fs);
        self
    }

    /// Arms a **discovery watchdog** on the default ACCU-COPY strategy and
    /// on [`SailingEngine::analyze_sharded`]: a wall-clock deadline and/or
    /// limit-cycle detection that end a non-converging run as a typed
    /// outcome ([`Analysis::termination`]) instead of spinning to the
    /// iteration cap. A watchdog-stopped analysis is returned but never
    /// cached or persisted. Rejected on [`SailingEngineBuilder::build`] when
    /// combined with [`SailingEngineBuilder::strategy`] — a custom
    /// strategy runs its own loop, so the watchdog could never reach it;
    /// configure it on the strategy object instead.
    #[must_use]
    pub fn discovery_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Installs a [`ValueEquivalence`] backend: before any discovery
    /// runs, the engine quotients the snapshot's value space under it
    /// ([`SnapshotView::quotient`]) and rewrites every assertion to its
    /// class representative, so dissimilarity, copy detection, and voting
    /// treat equivalent values ("J. Smith" / "John Smith", `3.14` /
    /// `3.140`) as one value — while the hot loops stay pure integer
    /// comparisons.
    ///
    /// The default is [`sailing_model::equivalence::Exact`], which is
    /// bitwise identical to an engine without this call (no quotient is
    /// built, cache and persist keys keep their legacy values). Non-exact
    /// backends fold the realised partition's digest into every cache and
    /// persist key, so an exact analysis never aliases a normalized one —
    /// in memory or on disk. Snapshots without a value arena (wire
    /// round-trips, bare triples, history replays) quotient to the
    /// identity: a non-exact backend degrades to exact matching there
    /// rather than guessing, still under its own keys.
    #[must_use]
    pub fn value_equivalence(mut self, equivalence: impl ValueEquivalence + 'static) -> Self {
        self.equivalence = Some(Arc::new(equivalence));
        self
    }

    /// Attaches a bookstore-corpus configuration, making its screening the
    /// engine default: the candidate-pair floor is raised to the corpus's
    /// `min_shared_books` (Example 4.1 screens AbeBooks pairs by "at least
    /// the same 10 books"). On the seed-42 bookstore world this takes
    /// copy-detection precision from ≈0.29 at the generic `min_overlap = 3`
    /// to above 0.7. An explicitly configured higher `min_overlap` wins.
    #[must_use]
    pub fn bookstore_corpus(mut self, config: &BookCorpusConfig) -> Self {
        self.corpus_min_overlap = Some(config.min_shared_books);
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    /// Returns [`SailingError::InvalidParameter`] when the detection
    /// parameters violate their documented constraints.
    pub fn build(self) -> Result<SailingEngine, SailingError> {
        let mut params = self.params.clone().unwrap_or_default();
        if let Some(min_shared) = self.corpus_min_overlap {
            params.min_overlap = params.min_overlap.max(min_shared);
        }
        params.validate()?;
        let watchdog = self.watchdog.unwrap_or_default();
        let strategy: Arc<dyn TruthDiscovery> = match self.strategy {
            Some(s) => {
                // Same conflict rule as params below: the watchdog lives
                // inside the discovery loop, so it can only reach the
                // default strategy the builder constructs itself.
                if self.watchdog.is_some() {
                    return Err(SailingError::config(
                        "SailingEngineBuilder",
                        "discovery_watchdog only applies to the default strategy; \
                         configure the watchdog on the custom strategy object instead",
                    ));
                }
                // A strategy carrying its own detection parameters (e.g. a
                // hand-built `AccuCopy`) is the source of truth for the
                // whole loop: discovery runs inside the strategy object, so
                // builder-level `params()`/corpus screening could never
                // reach it. Accepting both silently would let the
                // overrides appear to take effect while discovery ignores
                // them — reject the conflict instead.
                if let Some(sp) = s.detection_params() {
                    if self.params.is_some() || self.corpus_min_overlap.is_some() {
                        return Err(SailingError::config(
                            "SailingEngineBuilder",
                            "the installed strategy carries its own DetectionParams; \
                             configure params/corpus screening on the strategy \
                             instead of the builder",
                        ));
                    }
                    params = sp.clone();
                    params.validate()?;
                }
                s
            }
            None => Arc::new(AccuCopy::new(params.clone())?.with_watchdog(watchdog)),
        };
        self.temporal_params.validate()?;
        let persist = match self.persist_dir {
            Some(dir) => {
                let store = match self.persist_fs {
                    Some(fs) => PersistentStore::open_with_fs(dir, self.persist_options, fs)?,
                    None => PersistentStore::open_with(dir, self.persist_options)?,
                };
                Some(Arc::new(store))
            }
            None => None,
        };
        Ok(SailingEngine {
            params,
            watchdog,
            strategy,
            trust_weights: self.trust_weights,
            temporal_params: self.temporal_params,
            cache: Arc::new(AnalysisCache::new(self.cache_capacity)),
            persist,
            shard: Arc::new(ShardCounters::default()),
            equivalence: self.equivalence.unwrap_or_else(|| Arc::new(Exact)),
        })
    }
}

/// The top-level entry point of the workspace.
///
/// An engine is a validated configuration (detection parameters, a
/// pluggable [`TruthDiscovery`] strategy, trust weights) plus a bounded
/// snapshot-keyed analysis cache. It is cheap to clone and safe to share
/// across threads — clones share the cache; each
/// [`SailingEngine::analyze_owned`] call runs the discovery loop at most
/// once per distinct snapshot and returns an owned [`Analysis`].
#[derive(Clone)]
pub struct SailingEngine {
    params: DetectionParams,
    /// The discovery watchdog armed through
    /// [`SailingEngineBuilder::discovery_watchdog`] — inside the default
    /// strategy, and on every [`SailingEngine::analyze_sharded`] run.
    watchdog: Watchdog,
    strategy: Arc<dyn TruthDiscovery>,
    trust_weights: TrustWeights,
    temporal_params: TemporalParams,
    cache: Arc<AnalysisCache>,
    /// The durable tier under the in-memory cache, when configured —
    /// shared by clones, like the cache itself.
    persist: Option<Arc<PersistentStore>>,
    /// Counters for the pair-sharded analysis path — shared by clones,
    /// like the cache.
    shard: Arc<ShardCounters>,
    /// The value-equivalence backend every analysis path quotients
    /// through; [`Exact`] by default (zero-cost, bitwise-identical).
    equivalence: Arc<dyn ValueEquivalence>,
}

/// Counters behind [`CacheStats::shard_runs`] /
/// [`CacheStats::shard_partials_adopted`].
#[derive(Debug, Default)]
struct ShardCounters {
    /// Pair-range detection passes this engine (and its clones) computed
    /// locally.
    runs: AtomicU64,
    /// Partials adopted from a cooperating process's published blob
    /// instead of being recomputed.
    adopted: AtomicU64,
}

impl SailingEngine {
    /// Starts configuring an engine.
    pub fn builder() -> SailingEngineBuilder {
        SailingEngineBuilder::new()
    }

    /// An engine with default parameters and the ACCU-COPY strategy.
    pub fn with_defaults() -> Self {
        Self::builder()
            .build()
            .expect("default engine parameters are valid")
    }

    /// The detection parameters in force.
    pub fn params(&self) -> &DetectionParams {
        &self.params
    }

    /// The temporal detection parameters used by
    /// [`SailingEngine::timeline`].
    pub fn temporal_params(&self) -> &TemporalParams {
        &self.temporal_params
    }

    /// The name of the installed strategy.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Hit/miss/occupancy counters of the snapshot-keyed analysis cache,
    /// with the persistent store's own [`PersistStats`] nested whole when
    /// one is attached. Shared by all clones of this engine.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = &self.cache;
        CacheStats {
            hits: cache.hits.load(Ordering::Relaxed),
            misses: cache.misses.load(Ordering::Relaxed),
            inflight_waits: cache.inflight_waits.load(Ordering::Relaxed),
            entries: cache.entries.lock().expect("analysis cache poisoned").len(),
            capacity: cache.capacity,
            disk_hits: cache.disk_hits.load(Ordering::Relaxed),
            disk_misses: cache.disk_misses.load(Ordering::Relaxed),
            shard_runs: self.shard.runs.load(Ordering::Relaxed),
            shard_partials_adopted: self.shard.adopted.load(Ordering::Relaxed),
            persist: self.persist.as_deref().map(PersistentStore::stats),
        }
    }

    /// The attached persistent analysis store, when
    /// [`SailingEngineBuilder::persist_dir`] configured one.
    pub fn persist_store(&self) -> Option<&PersistentStore> {
        self.persist.as_deref()
    }

    /// Flushes the persistent store's buffered writes to disk; returns the
    /// number of entries written during the call (`0` when no store is
    /// attached — results are also flushed automatically and when the
    /// last engine clone drops). In both write modes this is a **drain
    /// barrier** ([`PersistentStore::flush`]): it returns once every
    /// result computed before the call has been written (or failed) —
    /// inline by the calling thread, or by the store's writer thread when
    /// [`StoreOptions::async_writer`] is configured.
    ///
    /// # Errors
    /// [`SailingError::Persist`] carrying the first failure of a batch
    /// this call wrote itself, otherwise [`SailingError::PersistDeferred`]
    /// carrying the oldest failure nobody was waiting for (a background
    /// write, an automatic flush, a compaction's drain); the rest stay
    /// available via [`SailingEngine::take_persist_write_errors`].
    pub fn flush_persist(&self) -> Result<usize, SailingError> {
        match &self.persist {
            Some(store) => store.flush(),
            None => Ok(0),
        }
    }

    /// Takes (and clears) the persistent store's deferred write errors —
    /// background or auto-flush failures that happened after the
    /// originating analysis had already returned. Empty when no store is
    /// attached or nothing failed; counts stay visible in
    /// [`PersistStats::write_errors`] (under [`CacheStats::persist`])
    /// either way.
    ///
    /// ```
    /// use sailing::engine::SailingEngine;
    /// use sailing::persist::StoreOptions;
    ///
    /// let dir = std::env::temp_dir().join(format!("sailing-doc-twe-{}", std::process::id()));
    /// let engine = SailingEngine::builder()
    ///     .persist_dir(&dir)
    ///     .persist_options(StoreOptions::async_writer(64))
    ///     .build()?;
    /// // … analyses run, the writer thread persists them in the background …
    /// for err in engine.take_persist_write_errors() {
    ///     eprintln!("analysis persisted late or not at all: {err}");
    /// }
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), sailing::error::SailingError>(())
    /// ```
    pub fn take_persist_write_errors(&self) -> Vec<SailingError> {
        self.persist
            .as_deref()
            .map_or_else(Vec::new, PersistentStore::take_write_errors)
    }

    /// Sweeps the persistent store, removing damaged or wrong-version
    /// entries (a no-op report when no store is attached).
    ///
    /// # Errors
    /// [`SailingError::Persist`] on a filesystem failure.
    pub fn compact_persist(&self) -> Result<CompactReport, SailingError> {
        match &self.persist {
            Some(store) => store.compact(),
            None => Ok(CompactReport::default()),
        }
    }

    /// Runs the truth ↔ accuracy ↔ dependence loop once over `snapshot`
    /// and returns everything downstream consumers need.
    ///
    /// Compatibility wrapper over [`SailingEngine::analyze_owned`]: on a
    /// cache miss the borrowed snapshot is cloned into an [`Arc`] so the
    /// returned [`Analysis`] owns its data (`Send + 'static`); on a hit
    /// the cached snapshot handle is reused and nothing is copied. Callers
    /// that already hold an `Arc<SnapshotView>` should prefer
    /// `analyze_owned`.
    pub fn analyze(&self, snapshot: &SnapshotView) -> Analysis {
        self.analyze_inner(SnapshotInput::Borrowed(snapshot), None, None)
            .0
    }

    /// The primary entry point: analyzes a shared snapshot without copying
    /// it.
    ///
    /// Results are cached per engine keyed by
    /// [`SnapshotView::content_hash`] (verified against the snapshot's
    /// content on every hit, so a hash collision can never serve another
    /// snapshot's analysis): a repeated call with an equal snapshot (same
    /// assertions, not necessarily the same allocation) returns an
    /// [`Analysis`] sharing the **pointer-identical** pipeline result,
    /// skipping the discovery loop entirely.
    pub fn analyze_owned(&self, snapshot: Arc<SnapshotView>) -> Analysis {
        self.analyze_inner(SnapshotInput::Owned(snapshot), None, None)
            .0
    }

    /// Like [`SailingEngine::analyze_owned`], additionally attaching
    /// update traces so freshness-aware recommendation has temporal
    /// signal. Takes the snapshot and history by value or as [`Arc`]s.
    pub fn analyze_with_history(
        &self,
        snapshot: impl Into<Arc<SnapshotView>>,
        history: impl Into<Arc<History>>,
    ) -> Analysis {
        self.analyze_inner(
            SnapshotInput::Owned(snapshot.into()),
            Some(history.into()),
            None,
        )
        .0
    }

    /// Pair-sharded distributed analysis: fans the dependence-detection
    /// pass of each discovery iteration over `workers` contiguous ranges
    /// of the candidate-pair list (see [`sailing_core::shard`]) and folds
    /// the partials back into a result **bitwise identical** to
    /// [`SailingEngine::analyze`] on the same snapshot. The loop runs under
    /// the watchdog armed with
    /// [`SailingEngineBuilder::discovery_watchdog`], so a limit cycle or a
    /// deadline stops it at the same iteration, with the same
    /// [`Analysis::termination`], as the monolithic run.
    ///
    /// Without a persistent store the fan-out runs on `workers` scoped
    /// threads in this process. With one attached
    /// ([`SailingEngineBuilder::persist_dir`]), the fan-out is
    /// **cooperative**: each iteration's ranges are claimed through
    /// durable `.claim` entries and finished partials are published as
    /// store blobs, so several engine *processes* pointed at one store
    /// directory split the detection work of a single analysis. Unclaimed
    /// partials are adopted from the store (validated against the local
    /// iteration state and counted in
    /// [`CacheStats::shard_partials_adopted`]); a claimed partial that
    /// never appears is recomputed locally after a short deadline, so a
    /// crashed peer slows the run down but can neither wedge nor skew it.
    /// Claims and blobs are swept best-effort when the run completes;
    /// debris from a crashed run is adopted (if still valid) or simply
    /// out-waited by the next run.
    ///
    /// Sharded results bypass the analysis cache, like streamed analyses:
    /// the path exists to bound the latency of one large analysis, not to
    /// warm the cache.
    ///
    /// # Errors
    /// A configuration error when the installed strategy is not the
    /// iterative ACCU/ACCU-COPY family (the sharded loop distributes that
    /// specific iteration), a merge error if the store hands back
    /// partials that cannot reproduce the monolithic pass, or
    /// [`SailingError::WorkerPanicked`] if a local shard worker panics.
    pub fn analyze_sharded(
        &self,
        snapshot: &SnapshotView,
        workers: usize,
    ) -> Result<Analysis, SailingError> {
        if self.strategy.detection_params().is_none() {
            return Err(SailingError::config(
                "analyze_sharded",
                format!(
                    "the installed strategy `{}` does not run the iterative detection \
                     loop the sharded path distributes; use the default strategy or \
                     the ACCU/ACCU-COPY family",
                    self.strategy.name()
                ),
            ));
        }
        let pipeline = AccuCopy::new(self.params.clone())?.with_watchdog(self.watchdog);
        // The coordinator quotients once, before any ranges are cut: every
        // worker (local thread or cooperating process) sees the quotiented
        // snapshot, and the partial blob/claim names carry the equivalence
        // provenance through the run's cold key — partials computed under
        // different backends can never be adopted across runs.
        let (snapshot, quotient_digest) = self.quotient_input(SnapshotInput::Borrowed(snapshot));
        let snapshot = snapshot.into_arc();
        let ranges = shard_ranges(pipeline.pair_count(&snapshot), workers.max(1));
        let key = quotient_cache_key(snapshot.content_hash(), quotient_digest, None);
        let state = pipeline.drive(&snapshot, None, |state| {
            let partials = self.sharded_iteration(&pipeline, &snapshot, &ranges, state, key)?;
            pipeline.merge_partials(&snapshot, state, &partials)
        })?;
        if let Some(store) = self.persist.as_deref() {
            // Best-effort sweep of the run's coordination files. A racing
            // straggler re-publishing after this sweep cleans up again
            // when it finishes; only a crashed process leaks its names,
            // and those are validated-or-out-waited by the next run.
            for iteration in 1..=state.iterations {
                for &range in &ranges {
                    let name = shard_partial_name(key, iteration, range);
                    store.remove_blob(&name);
                    store.remove_claim(&name);
                }
            }
        }
        Ok(self.assemble_analysis(snapshot, None, Arc::new(state)))
    }

    /// One iteration's fan-out: claim what we can, compute claimed ranges
    /// on scoped threads, publish them, adopt the rest from cooperating
    /// processes (recomputing locally when a claimant never delivers).
    /// A panicking local worker surfaces as
    /// [`SailingError::WorkerPanicked`].
    fn sharded_iteration(
        &self,
        pipeline: &AccuCopy,
        snapshot: &SnapshotView,
        ranges: &[PairRange],
        state: &PipelineResult,
        key: StoreKey,
    ) -> Result<Vec<PartialDependence>, SailingError> {
        let iteration = state.iterations + 1;
        let store = self.persist.as_deref();
        let (mine, theirs): (Vec<PairRange>, Vec<PairRange>) = match store {
            Some(store) => ranges
                .iter()
                .partition(|&&r| store.try_claim(&shard_partial_name(key, iteration, r))),
            None => (ranges.to_vec(), Vec::new()),
        };

        let mut partials: Vec<PartialDependence> = if mine.len() <= 1 {
            mine.iter()
                .map(|&r| pipeline.run_shard(snapshot, r, state))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = mine
                    .iter()
                    .map(|&r| scope.spawn(move || pipeline.run_shard(snapshot, r, state)))
                    .collect();
                join_workers("shard", handles)
                    .into_iter()
                    .collect::<Result<_, _>>()
            })?
        };
        self.shard
            .runs
            .fetch_add(mine.len() as u64, Ordering::Relaxed);

        let Some(store) = store else {
            return Ok(partials);
        };
        // Publishing is cooperative best-effort: a failed publish only
        // denies peers an adoption (they recompute), never this merge.
        for partial in &partials {
            let name = shard_partial_name(key, iteration, partial.range);
            let _ = store.put_blob(&name, partial.to_canonical_json().as_bytes());
        }
        let digest = iteration_digest(state);
        let total_pairs = ranges.last().map_or(0, |r| r.end);
        let deadline = Instant::now() + SHARD_ADOPT_DEADLINE;
        let mut waiting = theirs;
        while !waiting.is_empty() {
            waiting.retain(|&range| {
                let adopted = store
                    .get_blob(&shard_partial_name(key, iteration, range))
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .and_then(|text| PartialDependence::from_json_str(&text).ok())
                    // A blob from a crashed earlier run (or a peer on a
                    // different epoch) fails the digest check and is
                    // recomputed rather than merged.
                    .filter(|p| {
                        p.range == range && p.total_pairs == total_pairs && p.state_digest == digest
                    });
                match adopted {
                    Some(partial) => {
                        partials.push(partial);
                        self.shard.adopted.fetch_add(1, Ordering::Relaxed);
                        false
                    }
                    None => true,
                }
            });
            if waiting.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(SHARD_ADOPT_POLL);
        }
        for &range in &waiting {
            let partial = pipeline.run_shard(snapshot, range, state);
            let name = shard_partial_name(key, iteration, partial.range);
            let _ = store.put_blob(&name, partial.to_canonical_json().as_bytes());
            self.shard.runs.fetch_add(1, Ordering::Relaxed);
            partials.push(partial);
        }
        Ok(partials)
    }

    /// Opens a [`TimelineSession`] over a history (by value or as an
    /// [`Arc`]): one warm-started epoch analysis per
    /// [change point](History::change_points), oldest first, each fused
    /// with the update-trace dependence evidence. Follow with
    /// [`TimelineSession::prefetch_cold`] to batch the cold epochs across
    /// threads before walking.
    pub fn timeline(&self, history: impl Into<Arc<History>>) -> TimelineSession {
        let history = history.into();
        let change_points: Vec<Timestamp> = history.change_points().collect();
        let temporal = Arc::new(sailing_core::temporal::detect_all(
            &history,
            &self.temporal_params,
        ));
        TimelineSession {
            engine: self.clone(),
            history,
            change_points,
            temporal,
            prior: None,
            next: 0,
            total_iterations: 0,
            batched: BTreeMap::new(),
        }
    }

    /// Opens a streaming [`IngestSession`] over a fresh in-memory claim
    /// log sealed by `policy`: append claims, seal delta epochs, and get
    /// **incremental** truth discovery per epoch
    /// ([`TruthDiscovery::run_delta`]) instead of a full re-analysis.
    pub fn ingest_session(&self, policy: SealPolicy) -> IngestSession {
        IngestSession::start(self.clone(), ClaimLog::in_memory(policy))
    }

    /// Opens a streaming [`IngestSession`] over an existing claim log —
    /// typically one recovered from disk ([`ClaimLog::open`]). The log's
    /// resident events (everything torn-tail recovery kept) are replayed
    /// as one bootstrap delta and analyzed in full; streaming then
    /// continues incrementally from that state.
    pub fn ingest_session_from(&self, log: ClaimLog) -> IngestSession {
        IngestSession::start(self.clone(), log)
    }

    /// The shared analysis path: [`SailingEngine::resolve`] the snapshot,
    /// then assemble the handle. Returns the analysis plus whether it was
    /// served without a discovery run, so the timeline can account
    /// discovery work honestly.
    fn analyze_inner(
        &self,
        snapshot: SnapshotInput<'_>,
        history: Option<Arc<History>>,
        prior: Option<&PipelineResult>,
    ) -> (Analysis, bool) {
        let (snapshot, result, from_cache) = self.resolve(snapshot, prior);
        let analysis = self.assemble_analysis(snapshot, history, result);
        (analysis, from_cache)
    }

    /// The engine's one miss path: quotient the snapshot, consult the
    /// cache, the in-flight table and the store, and run the strategy
    /// (warm when a prior is supplied) only when all of them miss.
    /// Returns the (quotiented) snapshot and result the tiers hold, plus
    /// whether they were served without a discovery run by this call.
    ///
    /// The cache key carries the computation's provenance alongside the
    /// content hash: `None` for a cold run, or a digest of the seeding
    /// prior for a warm one — a warm-started result is only ever returned
    /// to a request seeded from an identical prior. Under parameter
    /// regimes where the vote map is bistable (see the timeline tests),
    /// runs from different starting points can settle on different
    /// attractors — a plain `analyze()` must never observe a warm-seeded
    /// result just because a timeline walked the same epoch first, and two
    /// timelines over different histories must not swap epoch results just
    /// because one snapshot coincides.
    fn resolve(
        &self,
        snapshot: SnapshotInput<'_>,
        prior: Option<&PipelineResult>,
    ) -> (Arc<SnapshotView>, Arc<PipelineResult>, bool) {
        // Quotient first: everything downstream — cache, persist,
        // discovery, the returned handle — sees the quotiented snapshot,
        // so a cached result is always consistent with the snapshot it is
        // stored against. The exact backend skips this entirely.
        let (snapshot, quotient_digest) = self.quotient_input(snapshot);
        // With both tiers disabled, skip key construction entirely —
        // hashing the snapshot and digesting the prior are linear scans
        // that would be pure waste when nothing can hit.
        if !self.cache.enabled() && self.persist.is_none() {
            self.cache.note_miss();
            let snapshot = snapshot.into_arc();
            let fresh = Arc::new(self.strategy.run_warm(&snapshot, prior));
            return (snapshot, fresh, false);
        }
        let key = quotient_cache_key(
            snapshot.view().content_hash(),
            quotient_digest,
            prior.map(PipelineResult::content_digest),
        );
        self.lookup_or_compute(key, snapshot, prior)
    }

    /// Applies the engine's [`ValueEquivalence`] to an incoming snapshot:
    /// the exact backend passes it through untouched with no digest
    /// (legacy cache/store keys, zero work); a non-exact backend builds
    /// the quotient and rewrites assertions to class representatives,
    /// returning the realised partition's digest for key derivation.
    /// Identity quotients (nothing merged — including arena-less
    /// snapshots) skip the rewrite but still carry the digest, so their
    /// keys stay disjoint from exact ones.
    fn quotient_input<'a>(&self, snapshot: SnapshotInput<'a>) -> (SnapshotInput<'a>, Option<u64>) {
        if self.equivalence.is_exact() {
            return (snapshot, None);
        }
        let quotient = snapshot.view().quotient(self.equivalence.as_ref());
        let digest = Some(quotient.digest());
        if quotient.is_identity() {
            (snapshot, digest)
        } else {
            let quotiented = snapshot.view().quotiented(&quotient);
            (SnapshotInput::Owned(Arc::new(quotiented)), digest)
        }
    }

    /// The full miss path with **single-flight admission**: memory hit →
    /// adopt an identical in-flight computation → disk hit → compute, in
    /// that order. Only the flight's *leader* probes the persistent tier
    /// and (on a disk miss) runs discovery; every concurrent request for
    /// the same key blocks on the leader and adopts its result, so a
    /// thundering herd of identical cache-missing requests performs one
    /// disk lookup and at most one discovery run between them
    /// (`CacheStats::inflight_waits` counts the adopters).
    fn lookup_or_compute(
        &self,
        key: StoreKey,
        snapshot: SnapshotInput<'_>,
        prior: Option<&PipelineResult>,
    ) -> (Arc<SnapshotView>, Arc<PipelineResult>, bool) {
        if let Some((snap, result)) = self.cache.get(key, snapshot.view()) {
            return (snap, result, true);
        }
        match self.cache.admit(key, snapshot.view()) {
            Admission::Served(snap, result) => (snap, result, true),
            Admission::Lead(guard) => {
                if let Some(store) = self.persist.as_deref() {
                    let disk = store.get(key, snapshot.view());
                    self.cache.note_disk_probe(disk.is_some());
                    if let Some((snap, result)) = disk {
                        let (snap, result) = self.cache.insert_or_get(key, snap, result);
                        guard.complete(&snap, &result);
                        return (snap, result, true);
                    }
                }
                let snapshot = snapshot.into_arc();
                let fresh = Arc::new(self.strategy.run_warm(&snapshot, prior));
                let (snap, result) = self.retain_result(key, snapshot, fresh);
                guard.complete(&snap, &result);
                (snap, result, false)
            }
            Admission::Collision => {
                // The in-flight computation under this 64-bit key is for
                // *different* snapshot content; waiting again could adopt
                // the wrong analysis, so compute outside the flight (the
                // two contents thrash one slot — slow, never wrong).
                let snapshot = snapshot.into_arc();
                let fresh = Arc::new(self.strategy.run_warm(&snapshot, prior));
                let (snap, result) = self.retain_result(key, snapshot, fresh);
                (snap, result, false)
            }
        }
    }

    /// Retains a freshly computed result in both tiers. Returns the
    /// allocations the memory cache actually holds, so concurrent missers
    /// racing on the same snapshot converge on one `PipelineResult`.
    ///
    /// A watchdog-stopped result goes back to its caller (and to any
    /// single-flight waiter) but into neither tier: a deadline stop
    /// depends on wall time, and the store's wire form does not record
    /// how a run ended, so a later reader could not tell it apart.
    fn retain_result(
        &self,
        key: StoreKey,
        snapshot: Arc<SnapshotView>,
        result: Arc<PipelineResult>,
    ) -> (Arc<SnapshotView>, Arc<PipelineResult>) {
        if result.termination.is_watchdog_stop() {
            return (snapshot, result);
        }
        if let Some(store) = &self.persist {
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        }
        self.cache.insert_or_get(key, snapshot, result)
    }

    /// Builds the public [`Analysis`] handle around a (cached or fresh)
    /// pipeline result.
    fn assemble_analysis(
        &self,
        snapshot: Arc<SnapshotView>,
        history: Option<Arc<History>>,
        result: Arc<PipelineResult>,
    ) -> Analysis {
        let derived = Arc::new(Derived {
            matrix: OnceLock::new(),
            reports: OnceLock::new(),
            trust: OnceLock::new(),
            fused: OnceLock::new(),
        });
        Analysis {
            snapshot,
            history,
            result,
            derived,
            params: self.params.clone(),
            trust_weights: self.trust_weights,
            strategy_name: self.strategy.name(),
        }
    }
}

/// A snapshot handed to the analysis path: borrowed snapshots are only
/// cloned into an [`Arc`] on a cache miss (a hit reuses the cached
/// handle), so compatibility-wrapper calls never pay for a copy of data
/// the engine already holds.
enum SnapshotInput<'a> {
    Borrowed(&'a SnapshotView),
    Owned(Arc<SnapshotView>),
}

impl SnapshotInput<'_> {
    fn view(&self) -> &SnapshotView {
        match self {
            SnapshotInput::Borrowed(s) => s,
            SnapshotInput::Owned(s) => s,
        }
    }

    fn into_arc(self) -> Arc<SnapshotView> {
        match self {
            SnapshotInput::Borrowed(s) => Arc::new(s.clone()),
            SnapshotInput::Owned(s) => s,
        }
    }
}

impl std::fmt::Debug for SailingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SailingEngine")
            .field("strategy", &self.strategy.name())
            .field("params", &self.params)
            .finish()
    }
}

/// Everything the engine learned about one snapshot, computed once.
///
/// All accessors are cheap: the pipeline ran during
/// [`SailingEngine::analyze_owned`], and what is derived from its result
/// (the dependence matrix, reports, trust scores, fusion outcome) is built
/// on first use, once per analysis.
/// The handle **owns** its data through [`Arc`]s — it is `Send + 'static`,
/// so analyses can be stored beyond the snapshot's scope, kept alive across
/// epochs of a timeline, and shared across threads; cloning bumps reference
/// counts, never copies payloads.
#[derive(Debug, Clone)]
pub struct Analysis {
    snapshot: Arc<SnapshotView>,
    history: Option<Arc<History>>,
    /// Shared with every [`FusionOutcome`] derived from this analysis:
    /// `fuse()` bumps a reference count instead of deep-cloning the full
    /// posterior payload per call.
    result: Arc<PipelineResult>,
    /// The memos, shared by every clone.
    derived: Arc<Derived>,
    params: DetectionParams,
    trust_weights: TrustWeights,
    strategy_name: &'static str,
}

/// What an [`Analysis`] derives from its pipeline result. It sits behind
/// one [`Arc`], so clones of an analysis share whatever memo any of them
/// filled.
#[derive(Debug)]
struct Derived {
    /// The dependence matrix; memoised so a cache or disk hit that never
    /// reads it does not pay for building it.
    matrix: OnceLock<DependenceMatrix>,
    /// Per-source reports; memoised so repeated `source_reports()` /
    /// `top_k()` calls do not redo the O(sources²) summary work.
    reports: OnceLock<Vec<SourceReport>>,
    /// Trust scores, for the same reason: `recommend()` may be called
    /// once per goal/limit against one analysis.
    trust: OnceLock<Vec<TrustScore>>,
    /// The fusion outcome, so `fuse()` clones the decision map instead of
    /// rebuilding it over every object.
    fused: OnceLock<FusionOutcome>,
}

impl Analysis {
    /// The analyzed snapshot.
    pub fn snapshot(&self) -> &SnapshotView {
        &self.snapshot
    }

    /// The analyzed snapshot as a shared handle — pass it back to
    /// [`SailingEngine::analyze_owned`] (a guaranteed cache hit) or to
    /// another thread without copying.
    pub fn snapshot_arc(&self) -> Arc<SnapshotView> {
        Arc::clone(&self.snapshot)
    }

    /// The shared pipeline result — the payload [`Analysis::fuse`] and the
    /// engine cache hand around without deep-cloning.
    pub fn result_arc(&self) -> Arc<PipelineResult> {
        Arc::clone(&self.result)
    }

    /// The strategy that produced this analysis.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy_name
    }

    /// The raw pipeline result (probabilities, accuracies, dependences).
    pub fn result(&self) -> &PipelineResult {
        &self.result
    }

    /// Posterior value distributions per object.
    pub fn probabilities(&self) -> &ValueProbabilities {
        &self.result.probabilities
    }

    /// Converged per-source accuracies (empty for accuracy-blind
    /// strategies such as naive voting).
    pub fn accuracies(&self) -> &[f64] {
        &self.result.accuracies
    }

    /// Detected pairwise dependences.
    pub fn dependences(&self) -> &[PairDependence] {
        &self.result.dependences
    }

    /// Pairs whose dependence posterior crosses `threshold`, most probable
    /// first.
    pub fn dependent_pairs(&self, threshold: f64) -> Vec<&PairDependence> {
        self.result.dependent_pairs(threshold)
    }

    /// The dependence matrix implied by the detected pairs, built on
    /// first use and then memoised.
    pub fn dependence_matrix(&self) -> &DependenceMatrix {
        self.derived
            .matrix
            .get_or_init(|| self.result.dependence_matrix())
    }

    /// Hard truth decisions: most probable value per object, in ascending
    /// object order. The ordered map makes downstream output reproducible —
    /// iterating the decisions prints the same report every run, where a
    /// hash map's iteration order is randomized per process.
    pub fn decisions(&self) -> BTreeMap<ObjectId, ValueId> {
        self.result.decisions_sorted()
    }

    /// Whether the discovery loop reached its fixpoint.
    pub fn converged(&self) -> bool {
        self.result.converged
    }

    /// Why the discovery loop stopped — convergence, the iteration cap,
    /// or a [`Watchdog`] intervention ([`sailing_core::Termination`]).
    /// Watchdog outcomes are what `sailing-serve` refuses to publish,
    /// keeping a degraded engine serving its last good analysis.
    pub fn termination(&self) -> sailing_core::Termination {
        self.result.termination
    }

    /// Per-source summary: accuracy, coverage, copier probability, mean
    /// vote independence. Computed once per analysis from the cached
    /// dependence matrix, then memoised.
    pub fn source_reports(&self) -> &[SourceReport] {
        self.derived.reports.get_or_init(|| {
            self.result
                .source_reports_with(&self.snapshot, self.dependence_matrix())
        })
    }

    /// The fusion outcome implied by this analysis — equivalent to running
    /// `sailing_fusion::fuse` with the engine's strategy, but sharing the
    /// already-converged pipeline result (no re-run, no deep clone). The
    /// outcome is built once per analysis and memoised; each call returns
    /// a clone of it, whose result is this analysis's [`Analysis::result_arc`].
    pub fn fuse(&self) -> FusionOutcome {
        self.derived
            .fused
            .get_or_init(|| {
                FusionOutcome::from_shared(Arc::clone(&self.result), self.strategy_name)
            })
            .clone()
    }

    /// The probabilistic-database view of the fused value distributions.
    pub fn probabilistic_database(&self) -> ProbabilisticDatabase {
        ProbabilisticDatabase::from_probabilities(&self.result.probabilities)
    }

    /// An online answering session pre-seeded with the converged
    /// accuracies and dependence matrix — the caller never assembles
    /// either by hand. The session borrows this analysis's snapshot.
    pub fn online_session(&self) -> OnlineSession<'_> {
        OnlineSession::new(
            &self.snapshot,
            self.result.accuracies.clone(),
            self.dependence_matrix().clone(),
            self.params.clone(),
        )
    }

    /// The complete source-visit order a policy produces under this
    /// analysis's accuracies and dependences.
    pub fn visit_order(&self, policy: &OrderingPolicy) -> Vec<SourceId> {
        order_sources(
            &self.snapshot,
            &self.result.accuracies,
            self.dependence_matrix(),
            policy,
        )
    }

    /// Dependence-aware top-k answering for one object: each source's
    /// support is weighted by its accuracy times its vote independence.
    pub fn top_k(&self, object: ObjectId, k: usize, policy: &OrderingPolicy) -> TopKResult {
        let order = self.visit_order(policy);
        let weights: Vec<f64> = self
            .source_reports()
            .iter()
            .map(|r| r.accuracy * r.mean_independence)
            .collect();
        top_k_values_for_object(&self.snapshot, object, &order, &weights, k)
    }

    /// Per-source trust scores (accuracy, coverage, freshness,
    /// independence); freshness uses the attached history when present.
    /// Computed once per analysis, then memoised.
    pub fn trust_scores(&self) -> &[TrustScore] {
        self.derived.trust.get_or_init(|| {
            trust_scores(
                &self.snapshot,
                &self.result.accuracies,
                self.dependence_matrix(),
                self.history.as_deref(),
            )
        })
    }

    /// Goal-directed source recommendations derived from the cached trust
    /// scores and dependences.
    pub fn recommend(&self, goal: Goal, limit: usize) -> Vec<Recommendation> {
        recommend_sources(
            self.trust_scores(),
            &self.result.dependences,
            goal,
            &self.trust_weights,
            limit,
        )
    }
}

/// Hit/miss/occupancy counters of an engine's analysis cache — the
/// engine layer's one stats value. Every field is counted by the engine
/// itself except [`CacheStats::persist`], which is the attached store's
/// own [`PersistStats`], nested whole rather than copied field by field.
///
/// Two invariants hold by construction, at every sampling point:
///
/// * `hits + misses` equals the number of analysis requests;
/// * with a store attached,
///   `disk_hits + disk_misses + inflight_waits == misses` — the disk
///   fields count the engine's own probes of the store, so a caller that
///   reads through [`SailingEngine::persist_store`] directly moves
///   `persist.disk_hits` but never these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Analyses served from the in-memory tier.
    pub hits: u64,
    /// In-memory misses — every one of these fell through to the
    /// persistent tier (when attached), ran the discovery loop, or
    /// adopted another request's in-flight computation
    /// ([`CacheStats::inflight_waits`]), so `hits + misses` always equals
    /// the number of analysis requests.
    pub misses: u64,
    /// In-memory misses that did **not** run discovery (or touch the
    /// persistent tier) because an identical computation was already in
    /// flight: the request blocked on — or arrived just as it landed and
    /// adopted — the leader's result. Single-flight admission means a
    /// thundering herd of `K` concurrent misses on one snapshot runs
    /// discovery once and reports `K - 1` waits here; with a store
    /// attached, `disk_hits + disk_misses + inflight_waits == misses`.
    /// [`TimelineSession::prefetch_cold`]'s workers resolve through the
    /// same admission, so a worker that joins a serve request's flight
    /// (or a repeat epoch's) counts here too.
    pub inflight_waits: u64,
    /// Pipeline results currently retained in memory.
    pub entries: usize,
    /// Maximum retained results (`0` = in-memory caching disabled).
    pub capacity: usize,
    /// In-memory misses this engine served from the persistent store
    /// instead of a discovery run (`0` when no store is attached).
    pub disk_hits: u64,
    /// In-memory misses this engine probed the persistent store for and
    /// found no usable entry — exactly the requests that went on to run
    /// the discovery loop (`0` when no store is attached).
    pub disk_misses: u64,
    /// Pair-range detection passes [`SailingEngine::analyze_sharded`]
    /// computed locally (claimed ranges plus recomputed fallbacks).
    pub shard_runs: u64,
    /// Pair-range partials adopted from a cooperating process's
    /// published blob instead of being recomputed (`0` without a
    /// persistent store — threads-only fan-outs have no one to adopt
    /// from).
    pub shard_partials_adopted: u64,
    /// The attached store's own counters — writes, write errors, queue
    /// drops, retries, breaker fast-fails, rejected files, and the
    /// breaker's phase ([`PersistStats::breaker`]) — or `None` without a
    /// store. Its `disk_hits`/`disk_misses` count every read of the store
    /// handle, including direct ones through
    /// [`SailingEngine::persist_store`].
    pub persist: Option<PersistStats>,
}

/// Provenance-lane tags separating quotiented analyses from exact ones
/// (and cold quotiented runs from warm ones). Arbitrary ASCII constants;
/// only their distinctness matters.
const QUOTIENT_COLD_PROVENANCE: u64 = 0x636f_6c64_2d71_756f; // "cold-quo"
const QUOTIENT_WARM_PROVENANCE: u64 = 0x7761_726d_2d71_756f; // "warm-quo"

/// Derives the two-tier cache identity for an analysis: the (quotiented)
/// snapshot's content hash, plus a provenance lane carrying the warm-start
/// prior and the equivalence backend. A warm-started result never answers
/// a cold request (or one seeded from a *different* prior) and vice versa,
/// so `analyze()`'s output cannot depend on whether a timeline happened to
/// walk the same epoch first.
///
/// The [`ValueQuotient::digest`] is folded into the **provenance** lane,
/// not the snapshot hash, because persistent-store entries are
/// self-certifying: `StoreKey::snapshot_hash` must equal the stored
/// snapshot's recomputed content hash or the entry is rejected on read.
/// The exact backend passes `None` and keeps the legacy keys bit-for-bit —
/// pre-existing cache entries and on-disk store files stay addressable —
/// while any non-exact backend (even one whose quotient happened to be the
/// identity) lands on a disjoint provenance, so an exact analysis never
/// aliases a normalized one, in memory or on disk, and two backends that
/// rewrite to the same quotiented snapshot still key apart.
fn quotient_cache_key(hash: u64, quotient_digest: Option<u64>, prior: Option<u64>) -> StoreKey {
    let provenance = match (quotient_digest, prior) {
        (None, prior) => prior,
        (Some(digest), None) => Some(fx_mix(QUOTIENT_COLD_PROVENANCE, digest)),
        (Some(digest), Some(prior)) => {
            Some(fx_mix(fx_mix(QUOTIENT_WARM_PROVENANCE, digest), prior))
        }
    };
    StoreKey {
        snapshot_hash: hash,
        provenance,
    }
}

/// One retained analysis: the snapshot it was computed from (kept both to
/// verify hits against hash collisions and to let borrowed-snapshot calls
/// reuse the allocation) and the converged result.
struct CacheEntry {
    key: StoreKey,
    snapshot: Arc<SnapshotView>,
    result: Arc<PipelineResult>,
}

/// A bounded LRU of converged pipeline results keyed by [`StoreKey`].
///
/// The engine's configuration (strategy + parameters) is immutable after
/// `build()`, so hash + provenance identify an analysis; the stored
/// snapshot is compared on every hit, so a 64-bit hash collision degrades
/// to a miss instead of serving another snapshot's analysis (two colliding
/// snapshots will thrash one slot — acceptable for a cache, never wrong).
/// The store is a short `Vec` in recency order behind one mutex:
/// capacities are small (default 16) and the values are `Arc`s, so a
/// scan-and-rotate beats a hash map plus intrusive list at this size.
struct AnalysisCache {
    entries: Mutex<Vec<CacheEntry>>,
    /// Computations currently in flight, keyed like the entries: the
    /// **single-flight admission table**. The first request to miss on a
    /// key registers a flight and becomes its leader; every concurrent
    /// miss on the same key blocks on the flight instead of recomputing,
    /// and adopts the leader's allocations when it lands. Flights are
    /// registered even when `capacity == 0` with a persistent store
    /// attached — single-flight dedupes concurrent *work*, which is
    /// orthogonal to how many finished results are retained.
    flights: Mutex<Vec<(StoreKey, Arc<Inflight>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
    /// Outcomes of this cache's own probes of the persistent store.
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    capacity: usize,
}

impl AnalysisCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(Vec::with_capacity(capacity.min(64))),
            flights: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// `false` when built with capacity 0: lookups cannot hit, so callers
    /// skip key construction altogether.
    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records a miss without a lookup — the disabled-cache path, keeping
    /// `cache_stats()` an honest request counter either way.
    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one persistent-store probe made on behalf
    /// of an in-memory miss.
    fn note_disk_probe(&self, hit: bool) {
        let counter = if hit {
            &self.disk_hits
        } else {
            &self.disk_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a result, verifying the stored snapshot really equals the
    /// requested one and refreshing its recency on a hit.
    fn get(
        &self,
        key: StoreKey,
        snapshot: &SnapshotView,
    ) -> Option<(Arc<SnapshotView>, Arc<PipelineResult>)> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut entries = self.entries.lock().expect("analysis cache poisoned");
        let pos = entries
            .iter()
            .position(|e| e.key == key && *e.snapshot == *snapshot);
        if let Some(pos) = pos {
            let entry = entries.remove(pos);
            let hit = (Arc::clone(&entry.snapshot), Arc::clone(&entry.result));
            entries.push(entry);
            drop(entries);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(hit)
        } else {
            drop(entries);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts a result — unless an equivalent entry (same key, same
    /// snapshot content) is already resident, in which case the resident
    /// allocations are returned and refreshed instead of replaced. This is
    /// the retention half of what keeps hits **pointer-identical under
    /// concurrency**: [`AnalysisCache::admit`]'s single-flight table
    /// ensures at most one request *computes* per key, and on the rare
    /// path where two computations do land (a hash-collision
    /// [`Admission::Collision`]), the first writer wins and every later
    /// caller adopts the winner's `PipelineResult` allocation. A disabled
    /// cache returns the inputs unchanged; a same-key entry for
    /// *different* content (a 64-bit hash collision) is replaced — the two
    /// snapshots thrash one slot, which is slow but never wrong.
    fn insert_or_get(
        &self,
        key: StoreKey,
        snapshot: Arc<SnapshotView>,
        result: Arc<PipelineResult>,
    ) -> (Arc<SnapshotView>, Arc<PipelineResult>) {
        if self.capacity == 0 {
            return (snapshot, result);
        }
        let mut entries = self.entries.lock().expect("analysis cache poisoned");
        if let Some(pos) = entries.iter().position(|e| e.key == key) {
            let entry = entries.remove(pos);
            if *entry.snapshot == *snapshot {
                let kept = (Arc::clone(&entry.snapshot), Arc::clone(&entry.result));
                entries.push(entry);
                return kept;
            }
            // Hash collision: fall through and let the new content win.
        }
        entries.push(CacheEntry {
            key,
            snapshot: Arc::clone(&snapshot),
            result: Arc::clone(&result),
        });
        if entries.len() > self.capacity {
            entries.remove(0);
        }
        (snapshot, result)
    }

    /// Joins or opens the single-flight admission for `key` after a miss.
    /// Exactly one concurrent caller per key becomes the leader
    /// ([`Admission::Lead`]) and must finish its [`FlightGuard`]; everyone
    /// else blocks until the leader lands and adopts its result. A request
    /// that finds the result already resident (the leader completed
    /// between this caller's miss and its admit) adopts it the same way —
    /// either way the adoption is counted in
    /// [`CacheStats::inflight_waits`]. An abandoned flight (leader
    /// panicked) wakes the waiters to retry, so one of them leads next.
    fn admit(&self, key: StoreKey, snapshot: &SnapshotView) -> Admission<'_> {
        loop {
            let flight = {
                let mut flights = self.flights.lock().expect("analysis flights poisoned");
                match flights.iter().find(|(k, _)| *k == key) {
                    Some((_, flight)) => Arc::clone(flight),
                    None => {
                        // Re-check residency before leading: a previous
                        // leader may have completed (and deregistered its
                        // flight) between this request's miss and now.
                        let entries = self.entries.lock().expect("analysis cache poisoned");
                        if let Some(entry) = entries
                            .iter()
                            .find(|e| e.key == key && *e.snapshot == *snapshot)
                        {
                            let hit = (Arc::clone(&entry.snapshot), Arc::clone(&entry.result));
                            drop(entries);
                            drop(flights);
                            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                            return Admission::Served(hit.0, hit.1);
                        }
                        drop(entries);
                        let flight = Arc::new(Inflight::new());
                        flights.push((key, Arc::clone(&flight)));
                        return Admission::Lead(FlightGuard {
                            cache: self,
                            key,
                            flight,
                            completed: false,
                        });
                    }
                }
            };
            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            match flight.wait() {
                FlightState::Done(snap, result) => {
                    if *snap == *snapshot {
                        return Admission::Served(snap, result);
                    }
                    return Admission::Collision;
                }
                FlightState::Abandoned => continue,
                FlightState::Pending => unreachable!("wait() returns only settled states"),
            }
        }
    }

    /// Deregisters a flight and publishes its outcome to every waiter.
    fn finish_flight(&self, key: StoreKey, flight: &Arc<Inflight>, outcome: FlightState) {
        let mut flights = self.flights.lock().expect("analysis flights poisoned");
        flights.retain(|(k, f)| !(*k == key && Arc::ptr_eq(f, flight)));
        drop(flights);
        let mut state = flight.state.lock().expect("analysis flight poisoned");
        *state = outcome;
        drop(state);
        flight.landed.notify_all();
    }
}

/// Outcome of [`AnalysisCache::admit`]: lead the computation, or adopt a
/// concurrent one's result.
enum Admission<'a> {
    /// This request leads: probe the persistent tier, compute on a disk
    /// miss, and land the flight via [`FlightGuard::complete`].
    Lead(FlightGuard<'a>),
    /// Another request's computation (in flight or just landed) served
    /// this one — counted in [`CacheStats::inflight_waits`].
    Served(Arc<SnapshotView>, Arc<PipelineResult>),
    /// The in-flight computation under this key is for different snapshot
    /// content (a 64-bit hash collision): compute outside the flight.
    Collision,
}

/// One in-flight computation: waiters block on `landed` until the leader
/// publishes a settled [`FlightState`].
struct Inflight {
    state: Mutex<FlightState>,
    landed: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            landed: Condvar::new(),
        }
    }

    /// Blocks until the flight settles; never returns `Pending`.
    fn wait(&self) -> FlightState {
        let mut state = self.state.lock().expect("analysis flight poisoned");
        while matches!(*state, FlightState::Pending) {
            state = self.landed.wait(state).expect("analysis flight poisoned");
        }
        state.clone()
    }
}

#[derive(Clone)]
enum FlightState {
    Pending,
    Done(Arc<SnapshotView>, Arc<PipelineResult>),
    /// The leader dropped its guard without completing (a strategy panic):
    /// waiters retry, and one of them becomes the next leader.
    Abandoned,
}

/// The leader's obligation: either [`FlightGuard::complete`] is called
/// with the retained allocations, or dropping the guard abandons the
/// flight and wakes the waiters to retry — a panicking strategy can never
/// wedge a herd of waiters.
struct FlightGuard<'a> {
    cache: &'a AnalysisCache,
    key: StoreKey,
    flight: Arc<Inflight>,
    completed: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, snapshot: &Arc<SnapshotView>, result: &Arc<PipelineResult>) {
        self.cache.finish_flight(
            self.key,
            &self.flight,
            FlightState::Done(Arc::clone(snapshot), Arc::clone(result)),
        );
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.cache
                .finish_flight(self.key, &self.flight, FlightState::Abandoned);
        }
    }
}

/// A walk over a history's epochs with **incremental** truth discovery.
///
/// Created by [`SailingEngine::timeline`]. Iterating yields one
/// [`EpochAnalysis`] per [change point](History::change_points), oldest
/// first. Each epoch's snapshot is materialised exactly once; discovery is
/// warm-started from the previous epoch's converged posterior
/// ([`TruthDiscovery::run_warm`]), so consecutive epochs that differ by a
/// few updates cost a few iterations instead of a cold climb — the paper's
/// "series of queries over evolving sources" amortisation. The update-trace
/// dependence evidence (computed once for the whole history) rides along on
/// every epoch.
pub struct TimelineSession {
    engine: SailingEngine,
    history: Arc<History>,
    change_points: Vec<Timestamp>,
    temporal: Arc<Vec<PairDependence>>,
    prior: Option<Arc<PipelineResult>>,
    next: usize,
    total_iterations: usize,
    /// Epoch analyses precomputed by [`TimelineSession::prefetch_cold`],
    /// consumed (and removed) as the walk reaches them. Held in the
    /// session rather than only the engine cache so LRU eviction cannot
    /// drop a batch result before its epoch is yielded.
    batched: BTreeMap<Timestamp, BatchSlot>,
}

/// One prefetched epoch: the cold analysis and whether this session's
/// batch pass credits its spend to this epoch (vs found it resident, in
/// flight, or already credited to an earlier epoch of equal content).
struct BatchSlot {
    snapshot: Arc<SnapshotView>,
    result: Arc<PipelineResult>,
    fresh: bool,
}

impl TimelineSession {
    /// The history this session walks.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// All change points of the timeline (epoch boundaries), ascending.
    pub fn change_points(&self) -> &[Timestamp] {
        &self.change_points
    }

    /// Number of epochs in the whole timeline.
    pub fn num_epochs(&self) -> usize {
        self.change_points.len()
    }

    /// Total truth-discovery iterations actually *spent* so far across the
    /// epochs already yielded — the quantity warm starting minimises.
    /// Epochs served from the engine's analysis cache ran no discovery and
    /// contribute nothing, so a re-walk against a warm cache reports 0.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// **Batches the remaining epochs' cold analyses across `threads`
    /// worker threads**, so the subsequent walk consumes precomputed
    /// results instead of running discovery epoch by epoch. Returns the
    /// number of distinct analyses this call computed (the rest were
    /// already resident in the engine's cache or its persistent store, or
    /// joined a computation already in flight).
    ///
    /// The sequential warm-start chain amortises iterations but is
    /// inherently serial — epoch *N+1*'s seed is epoch *N*'s posterior. A
    /// **cold** analysis of every epoch needs no seed, so the cold runs
    /// are embarrassingly parallel: this pass materialises each remaining
    /// epoch's snapshot and fans them out under [`std::thread::scope`] in
    /// LPT-balanced chunks (weighted by assertion count, the same
    /// discipline as the pairwise-detection fan-out). Each worker resolves
    /// its epochs through the engine's own miss path with
    /// **single-flight** admission, exactly as a cold
    /// [`SailingEngine::analyze_owned`] would: store-resident epochs are
    /// read, an epoch another request is already computing (a serve
    /// request, or a repeat of the same content in this batch) is joined
    /// rather than recomputed, and every computed result is retained in
    /// both tiers, so other processes benefit via the persistent store.
    ///
    /// Cold runs trade the warm chain's iteration savings for
    /// parallelism; posteriors agree with the sequential path within the
    /// convergence tolerance (pinned by the timeline parity tests).
    /// Accounting keeps the sequential discipline: of the epochs sharing
    /// an allocation this pass computed, the first in walk order reports
    /// [`EpochAnalysis::from_cache`]` == false` (fresh work spent by this
    /// session, counted in [`TimelineSession::total_iterations`]), whichever
    /// worker led; every other epoch reports `from_cache == true` and costs
    /// nothing. The converged-prior gating is preserved exactly — the
    /// prior chain advances through the consumed epochs, and any epoch
    /// missing from the batch falls back to the warm-started sequential
    /// path unchanged. That includes every epoch of a worker that
    /// panicked: its chunk is dropped rather than re-raised, and is not
    /// counted in the return value.
    pub fn prefetch_cold(&mut self, threads: usize) -> usize {
        let pending: Vec<(Timestamp, Arc<SnapshotView>)> = self.change_points[self.next..]
            .iter()
            .filter(|at| !self.batched.contains_key(at))
            .map(|&at| (at, Arc::new(self.history.snapshot_at(at))))
            .collect();
        // LPT over assertion counts: discovery cost scales with snapshot
        // size, and equal-length contiguous chunks would let one fat chunk
        // serialize the scope. Iteration cost is per-assertion per-round;
        // +1 keeps empty snapshots from all landing in one bucket.
        let chunks = balanced_chunks(&pending, threads.max(1), |(_, snapshot)| {
            snapshot.num_assertions() + 1
        });
        let engine = &self.engine;
        let mut landed: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(at, snapshot)| {
                                (at, engine.resolve(SnapshotInput::Owned(snapshot), None))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            join_workers("cold-epoch", handles)
        })
        .into_iter()
        .flatten()
        .flatten()
        .collect();
        // A panicked chunk's epochs stay un-batched and take the
        // sequential warm path when reached. Repeated contents share one
        // allocation, computed by whichever worker led its flight; the
        // spend is credited to the first of them in walk order.
        landed.sort_by_key(|&(at, _)| at);
        let mut computed: std::collections::HashSet<*const PipelineResult> = landed
            .iter()
            .filter(|(_, (_, _, from_cache))| !from_cache)
            .map(|(_, (_, result, _))| Arc::as_ptr(result))
            .collect();
        let count = computed.len();
        for (at, (snapshot, result, _)) in landed {
            let fresh = computed.remove(&Arc::as_ptr(&result));
            self.batched.insert(
                at,
                BatchSlot {
                    snapshot,
                    result,
                    fresh,
                },
            );
        }
        count
    }

    /// Analyzes the next epoch, or `None` once the timeline is exhausted.
    pub fn next_epoch(&mut self) -> Option<EpochAnalysis> {
        let at = *self.change_points.get(self.next)?;
        self.next += 1;
        if let Some(slot) = self.batched.remove(&at) {
            let analysis = self.engine.assemble_analysis(
                slot.snapshot,
                Some(Arc::clone(&self.history)),
                slot.result,
            );
            // The converged-prior chain advances exactly as in the
            // sequential walk, so an epoch that has to fall back to the
            // warm path below still sees the gate it would have seen.
            self.prior = analysis.result().converged.then(|| analysis.result_arc());
            if slot.fresh {
                self.total_iterations += analysis.result().iterations;
            }
            return Some(EpochAnalysis {
                at,
                warm_started: false,
                from_cache: !slot.fresh,
                analysis,
                temporal: Arc::clone(&self.temporal),
            });
        }
        let prior_available = self.prior.is_some();
        let snapshot = Arc::new(self.history.snapshot_at(at));
        let (analysis, from_cache) = self.engine.analyze_inner(
            SnapshotInput::Owned(snapshot),
            Some(Arc::clone(&self.history)),
            self.prior.as_deref(),
        );
        // Only a *converged* posterior seeds the next epoch: a capped-out
        // oscillation is not a fixpoint, and warm-starting from one would
        // cascade its bias down the rest of the timeline.
        self.prior = analysis.result().converged.then(|| analysis.result_arc());
        if !from_cache {
            self.total_iterations += analysis.result().iterations;
        }
        Some(EpochAnalysis {
            at,
            warm_started: prior_available && !from_cache,
            from_cache,
            analysis,
            temporal: Arc::clone(&self.temporal),
        })
    }
}

impl Iterator for TimelineSession {
    type Item = EpochAnalysis;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_epoch()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.change_points.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl std::fmt::Debug for TimelineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimelineSession")
            .field("epochs", &self.change_points.len())
            .field("next", &self.next)
            .field("total_iterations", &self.total_iterations)
            .finish()
    }
}

/// One epoch of a [`TimelineSession`]: a full (owned) [`Analysis`] of the
/// snapshot in force at one change point, plus the timeline-wide temporal
/// dependence evidence.
#[derive(Debug, Clone)]
pub struct EpochAnalysis {
    at: Timestamp,
    warm_started: bool,
    from_cache: bool,
    analysis: Analysis,
    temporal: Arc<Vec<PairDependence>>,
}

impl EpochAnalysis {
    /// The change point this epoch's snapshot was materialised at.
    pub fn timestamp(&self) -> Timestamp {
        self.at
    }

    /// `true` when discovery actually ran for this epoch *and* was seeded
    /// from the previous epoch's posterior. `false` for the first epoch
    /// (cold), for epochs following a non-converged one, and for epochs
    /// served from the engine's analysis cache (no discovery ran at all —
    /// see [`EpochAnalysis::from_cache`]).
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// `true` when this epoch's result came straight from the engine's
    /// analysis cache, skipping the discovery loop entirely.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// Truth-discovery iterations the cached result records. For a
    /// cache-served epoch these were spent when the result was first
    /// computed, not by this walk — [`TimelineSession::total_iterations`]
    /// counts only freshly-spent work.
    pub fn iterations(&self) -> usize {
        self.analysis.result().iterations
    }

    /// The epoch's full analysis.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Unwraps the epoch into its owned analysis.
    pub fn into_analysis(self) -> Analysis {
        self.analysis
    }

    /// Dependence evidence with the *currents* folded in: the epoch
    /// snapshot's detected pairs merged with the timeline's update-trace
    /// pairs, keeping whichever report is more confident per source pair,
    /// most probable first. A lazy copier that looks independent in any
    /// single snapshot (it lags its original, so the values rarely match at
    /// one instant) is still flagged here through its trace evidence.
    pub fn fused_dependences(&self) -> Vec<PairDependence> {
        let mut fused: BTreeMap<(SourceId, SourceId), PairDependence> = BTreeMap::new();
        for dep in self
            .analysis
            .dependences()
            .iter()
            .chain(self.temporal.iter())
        {
            let dep = dep.clone().canonical();
            match fused.entry((dep.a, dep.b)) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if dep.probability > e.get().probability {
                        e.insert(dep);
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(dep);
                }
            }
        }
        let mut out: Vec<PairDependence> = fused.into_values().collect();
        out.sort_by(|x, y| y.probability.total_cmp(&x.probability));
        out
    }
}

/// Default dirty-set ceiling for [`IngestSession`]: deltas touching more
/// than this fraction of the snapshot's objects fall back to a full warm
/// re-analysis, because propagating through most of the world costs as
/// much as recomputing it.
pub const DEFAULT_MAX_DIRTY_FRACTION: f64 = 0.25;

/// Running counters for a streaming [`IngestSession`]: how many events
/// and epochs flowed through, how often the incremental path held versus
/// fell back to a full re-analysis, and how much discovery work was spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct IngestStats {
    /// Claim events resident in the session's claim log (recovered plus
    /// appended) — [`ClaimLog::len`].
    pub events: u64,
    /// Delta epochs sealed and analyzed — the log's own
    /// [`IngestLogStats::deltas_sealed`].
    pub deltas_sealed: u64,
    /// Epochs served by the incremental path
    /// ([`DeltaOutcome::Incremental`]).
    pub incremental_runs: u64,
    /// Epochs that fell back to a full warm re-analysis (dirty fraction
    /// exceeded, prior not converged, or strategy unsupported).
    pub full_fallbacks: u64,
    /// Objects in the most recent epoch's dirty closure.
    pub dirty_objects_last: usize,
    /// Sources in the most recent epoch's dirty closure.
    pub dirty_sources_last: usize,
    /// Total objects across all epochs' dirty closures.
    pub dirty_objects_total: u64,
    /// Total truth-discovery iterations spent across all epochs
    /// (including the recovery bootstrap of
    /// [`SailingEngine::ingest_session_from`]).
    pub iterations_total: u64,
    /// How the most recent epoch was resolved.
    pub last_outcome: Option<DeltaOutcome>,
}

/// A streaming ingestion session: an append-only [`ClaimLog`] feeding
/// delta epochs into **incremental** truth discovery.
///
/// Claims appended via [`assert_claim`](IngestSession::assert_claim) /
/// [`retract`](IngestSession::retract) accumulate in the log's open
/// epoch. When the log's [`SealPolicy`] trips (or [`seal`](IngestSession::seal)
/// is called), the epoch is sealed into a [`Delta`], applied to the
/// session's snapshot via [`SnapshotView::apply_delta`], and analyzed
/// with [`TruthDiscovery::run_delta`] — re-iterating only the delta's
/// dirty closure when the prior epoch converged and the closure stays
/// under the session's dirty-fraction ceiling, and falling back to a
/// full warm re-analysis otherwise. [`stats`](IngestSession::stats)
/// records which path each epoch took.
///
/// [`analysis`](IngestSession::analysis) assembles the current posterior
/// into an [`Analysis`] handle. Incremental results are *not* admitted
/// to the engine's analysis cache: they match a full re-analysis to
/// ~1e-9, not bit-for-bit, and must not alias exact cached entries.
pub struct IngestSession {
    engine: SailingEngine,
    log: ClaimLog,
    max_dirty_fraction: f64,
    snapshot: Arc<SnapshotView>,
    last: Arc<PipelineResult>,
    /// The counters only the session knows; `events` and
    /// `deltas_sealed` stay zero here and are read from `log`.
    stats: IngestStats,
    /// Process-unique identity, so downstream consumers folding stats
    /// from several sessions (see `sailing-serve`'s metrics) can track
    /// per-session deltas instead of clobbering each other's totals.
    session_id: u64,
    /// Quotient state under a non-exact [`ValueEquivalence`] backend;
    /// `None` under [`Exact`] (the common case — zero overhead, the
    /// session runs on the raw snapshots exactly as before).
    equiv: Option<IngestEquivalence>,
}

/// The non-exact ingest session's quotient state: the quotient covering
/// every value id the session has seen, and the quotiented snapshot the
/// discovery loop actually runs over. Stream events carry bare
/// [`ValueId`]s — no payloads — so ids beyond the bootstrap arena are
/// extended as **singletons** (never merged), and a delta naming an
/// unseen id forces the typed [`DeltaOutcome::Unsupported`] fallback: an
/// unknown payload could in principle merge classes anywhere, so the
/// dirty closure cannot be trusted.
struct IngestEquivalence {
    quotient: ValueQuotient,
    qsnapshot: Arc<SnapshotView>,
}

impl IngestEquivalence {
    /// The quotiented twin of `snapshot` under the current quotient
    /// (shared allocation when the quotient is the identity).
    fn quotiented_arc(&self, snapshot: &Arc<SnapshotView>) -> Arc<SnapshotView> {
        if self.quotient.is_identity() {
            Arc::clone(snapshot)
        } else {
            Arc::new(snapshot.quotiented(&self.quotient))
        }
    }
}

/// Monotonic source for [`IngestSession::session_id`].
static NEXT_INGEST_SESSION_ID: AtomicU64 = AtomicU64::new(1);

impl IngestSession {
    fn start(engine: SailingEngine, log: ClaimLog) -> Self {
        let mut session = IngestSession {
            engine,
            log,
            max_dirty_fraction: DEFAULT_MAX_DIRTY_FRACTION,
            snapshot: Arc::new(SnapshotView::from_triples(0, 0, Vec::new())),
            last: Arc::new(trivial_result()),
            stats: IngestStats::default(),
            session_id: NEXT_INGEST_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            equiv: None,
        };
        if !session.engine.equivalence.is_exact() {
            // Non-exact backend: seed the quotient from the (empty)
            // starting snapshot so `advance` can route every sealed
            // epoch through the quotient arms from the first event on.
            let mut quotient = session
                .snapshot
                .quotient(session.engine.equivalence.as_ref());
            quotient.extend_to(session.snapshot.value_space());
            session.equiv = Some(IngestEquivalence {
                qsnapshot: Arc::clone(&session.snapshot),
                quotient,
            });
        }
        if !session.log.is_empty() {
            // Recovery bootstrap: fold the log's *sealed* epochs into one
            // snapshot and pay a full cold analysis for them. The open
            // tail stays out deliberately — its eventual seal re-emits
            // those events as a delta, so folding it here too would
            // apply them twice: a spurious dirty-closure re-analysis and
            // double-counted epoch stats.
            if session.log.sealed_len() > 0 {
                let bootstrap = session.log.replay_sealed_delta();
                session.snapshot = Arc::new(session.snapshot.apply_delta(&bootstrap));
                let target = match &mut session.equiv {
                    None => Arc::clone(&session.snapshot),
                    Some(eq) => {
                        // Rebuild the quotient over the recovered value
                        // space (replayed events carry bare ids, so the
                        // extension is all singletons) and bootstrap
                        // over the quotiented snapshot.
                        let mut quotient = session
                            .snapshot
                            .quotient(session.engine.equivalence.as_ref());
                        quotient.extend_to(session.snapshot.value_space());
                        eq.quotient = quotient;
                        eq.qsnapshot = eq.quotiented_arc(&session.snapshot);
                        Arc::clone(&eq.qsnapshot)
                    }
                };
                let result = session.engine.strategy.run_warm(&target, None);
                session.stats.iterations_total += result.iterations as u64;
                session.last = Arc::new(result);
            }
        }
        session
    }

    /// Replaces the dirty-fraction ceiling above which an epoch falls
    /// back to a full warm re-analysis (default
    /// [`DEFAULT_MAX_DIRTY_FRACTION`]).
    pub fn with_max_dirty_fraction(mut self, max_dirty_fraction: f64) -> Self {
        self.max_dirty_fraction = max_dirty_fraction;
        self
    }

    /// Appends a positive claim to the log and advances the session if
    /// the seal policy trips. Returns the event's sequence number.
    pub fn assert_claim(
        &mut self,
        source: SourceId,
        object: ObjectId,
        value: ValueId,
        provenance: u64,
        ts: Timestamp,
    ) -> u64 {
        self.append(source, object, Some(value), provenance, ts)
    }

    /// Appends a retraction to the log and advances the session if the
    /// seal policy trips. Returns the event's sequence number.
    pub fn retract(
        &mut self,
        source: SourceId,
        object: ObjectId,
        provenance: u64,
        ts: Timestamp,
    ) -> u64 {
        self.append(source, object, None, provenance, ts)
    }

    /// Appends a raw event (`None` value = retraction), sealing and
    /// analyzing an epoch when the policy says so.
    pub fn append(
        &mut self,
        source: SourceId,
        object: ObjectId,
        value: Option<ValueId>,
        provenance: u64,
        ts: Timestamp,
    ) -> u64 {
        let seq = self.log.append(source, object, value, provenance, ts);
        if let Some(delta) = self.log.poll_seal() {
            self.advance(&delta);
        }
        seq
    }

    /// Seals the open epoch regardless of policy and analyzes it.
    /// Returns `false` when there was nothing to seal.
    pub fn seal(&mut self) -> bool {
        match self.log.seal() {
            Some(delta) => {
                self.advance(&delta);
                true
            }
            None => false,
        }
    }

    fn advance(&mut self, delta: &Delta) {
        let next = Arc::new(self.snapshot.apply_delta(delta));
        let run = match &mut self.equiv {
            None => self.engine.strategy.run_delta(
                &next,
                Some(&self.last),
                delta,
                self.max_dirty_fraction,
            ),
            Some(eq) if eq.quotient.covers(delta) => {
                // Every id the delta names is already classified, so the
                // quotiented delta's dirty closure is exact: rewrite the
                // ops onto class representatives and run incrementally
                // over the quotiented snapshot.
                let qdelta = eq.quotient.map_delta(delta);
                let qnext = Arc::new(eq.qsnapshot.apply_delta(&qdelta));
                let run = self.engine.strategy.run_delta(
                    &qnext,
                    Some(&self.last),
                    &qdelta,
                    self.max_dirty_fraction,
                );
                eq.qsnapshot = qnext;
                run
            }
            Some(eq) => {
                // The delta names a value id the quotient has never
                // seen. Stream events carry bare ids — no payloads — so
                // the new value could in principle merge classes
                // anywhere and the delta's dirty closure cannot be
                // trusted. Extend the quotient with singletons (the
                // only sound extension for unknown payloads) and fall
                // back to a full warm re-analysis; `run_warm` still
                // gates on a converged prior, so the warm-start rule is
                // preserved, and the typed outcome lets callers observe
                // the degradation.
                eq.quotient.extend_to(next.value_space());
                let qnext = eq.quotiented_arc(&next);
                let result = self.engine.strategy.run_warm(&qnext, Some(&self.last));
                let (dirty_objects, dirty_sources) = (qnext.num_objects(), qnext.num_sources());
                eq.qsnapshot = qnext;
                DeltaRun {
                    result,
                    outcome: DeltaOutcome::Unsupported,
                    dirty_objects,
                    dirty_sources,
                }
            }
        };
        if run.outcome.is_incremental() {
            self.stats.incremental_runs += 1;
        } else {
            self.stats.full_fallbacks += 1;
        }
        self.stats.dirty_objects_last = run.dirty_objects;
        self.stats.dirty_sources_last = run.dirty_sources;
        self.stats.dirty_objects_total += run.dirty_objects as u64;
        self.stats.iterations_total += run.result.iterations as u64;
        self.stats.last_outcome = Some(run.outcome);
        self.snapshot = next;
        self.last = Arc::new(run.result);
    }

    /// Assembles the session's current posterior into an [`Analysis`]
    /// handle, bypassing the engine's analysis cache (see the type docs).
    pub fn analysis(&self) -> Analysis {
        // Under a non-exact backend the posterior was computed over the
        // quotiented snapshot, so the handle must index into it — class
        // representatives, not raw stream ids.
        let snapshot = self.equiv.as_ref().map_or_else(
            || Arc::clone(&self.snapshot),
            |eq| Arc::clone(&eq.qsnapshot),
        );
        self.engine
            .assemble_analysis(snapshot, None, Arc::clone(&self.last))
    }

    /// The session's current snapshot (all sealed epochs applied).
    pub fn snapshot(&self) -> &SnapshotView {
        &self.snapshot
    }

    /// Shared handle to the session's current snapshot.
    pub fn snapshot_arc(&self) -> Arc<SnapshotView> {
        Arc::clone(&self.snapshot)
    }

    /// Running session counters. Event and seal counts are read from the
    /// claim log, which already counts them.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            events: self.log.len() as u64,
            deltas_sealed: self.log.stats().deltas_sealed,
            ..self.stats
        }
    }

    /// This session's process-unique identity (monotonic, never reused).
    /// Stats consumers key their last-seen [`IngestStats`] on it so that
    /// several sessions publishing through one sink fold additively
    /// instead of overwriting each other.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The underlying claim log.
    pub fn log(&self) -> &ClaimLog {
        &self.log
    }

    /// Durability counters from the underlying claim log.
    pub fn log_stats(&self) -> IngestLogStats {
        self.log.stats()
    }

    /// All retained events at or after `since`, oldest first.
    pub fn events_since(&self, since: u64) -> &[sailing_ingest::IngestEvent] {
        self.log.events_since(since)
    }
}

impl std::fmt::Debug for IngestSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("max_dirty_fraction", &self.max_dirty_fraction)
            .field("open_events", &self.log.open_events().len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// The converged-but-empty posterior a fresh session starts from. Its
/// empty accuracy vector fails `run_delta`'s warm-start gate, so the
/// first sealed epoch correctly pays a full cold analysis.
fn trivial_result() -> PipelineResult {
    PipelineResult {
        probabilities: ValueProbabilities::default(),
        accuracies: Vec::new(),
        dependences: Vec::new(),
        iterations: 0,
        converged: true,
        termination: Termination::Converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::NaiveVote;
    use sailing_datagen::world::{SnapshotWorld, WorldConfig};
    use sailing_fusion::{fuse, FusionStrategy};
    use sailing_linkage::NormalizedString;
    use sailing_model::fixtures;

    #[test]
    fn builder_validates_params() {
        let err = SailingEngine::builder()
            .params(DetectionParams {
                copy_rate: 2.0,
                ..DetectionParams::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SailingError::InvalidParameter {
                param: "copy_rate",
                ..
            }
        ));
        assert!(SailingEngine::builder()
            .params(DetectionParams {
                threads: 0,
                ..DetectionParams::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn analysis_matches_direct_pipeline_on_table1() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let engine = SailingEngine::with_defaults();
        let analysis = engine.analyze(&snap);

        let direct = AccuCopy::with_defaults().run(&snap);
        assert_eq!(analysis.decisions(), direct.decisions_sorted());
        // Hash-map iteration order varies between runs, so float summation
        // can differ by an ULP; the estimates must agree to high precision.
        assert_eq!(analysis.accuracies().len(), direct.accuracies.len());
        for (a, d) in analysis.accuracies().iter().zip(&direct.accuracies) {
            assert!((a - d).abs() < 1e-9);
        }
        assert_eq!(analysis.dependences().len(), direct.dependences.len());
        assert_eq!(truth.decision_precision(&analysis.decisions()), Some(1.0));
        assert!(analysis.converged());
        assert_eq!(analysis.strategy_name(), "accu-copy");
    }

    #[test]
    fn fuse_matches_fusion_crate_without_rerun() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        let via_engine = analysis.fuse();
        let via_crate = fuse(&snap, &FusionStrategy::dependence_aware()).unwrap();
        assert_eq!(via_engine.decisions, via_crate.decisions);
        assert_eq!(via_engine.strategy, via_crate.strategy);
    }

    #[test]
    fn online_session_is_auto_seeded() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        let order = analysis.visit_order(&OrderingPolicy::GreedyIndependent);
        let mut session = analysis.online_session();
        let steps = session.run_order(&order);
        assert_eq!(steps.len(), 5);
        // The greedy order front-loads the independents; after two probes
        // the answers are already fully correct (paper's Example 4.1 idea).
        assert_eq!(truth.decision_precision(&steps[1].decisions), Some(1.0));
    }

    #[test]
    fn recommendations_avoid_the_copier_cluster() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        let recs = analysis.recommend(Goal::TruthSeeking, 2);
        assert_eq!(recs.len(), 2);
        let s = |n: &str| store.source_id(n).unwrap();
        let picked: Vec<SourceId> = recs.iter().map(|r| r.source).collect();
        assert!(picked.contains(&s("S1")), "{picked:?}");
        // No two recommended sources may be a confident dependent pair.
        for (i, x) in picked.iter().enumerate() {
            for y in &picked[i + 1..] {
                assert!(analysis.dependence_matrix().dependent(*x, *y) < 0.5);
            }
        }
    }

    #[test]
    fn pluggable_strategies_change_the_analysis() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let naive = SailingEngine::builder()
            .strategy(NaiveVote::new())
            .build()
            .unwrap();
        let accu = SailingEngine::builder()
            .strategy(AccuCopy::baseline())
            .build()
            .unwrap();
        let p_naive = truth
            .decision_precision(&naive.analyze(&snap).decisions())
            .unwrap();
        let p_accu = truth
            .decision_precision(&accu.analyze(&snap).decisions())
            .unwrap();
        assert!((p_naive - 0.4).abs() < 1e-9);
        assert!(p_accu >= p_naive);
        assert_eq!(naive.strategy_name(), "naive");
        assert!(naive.analyze(&snap).dependences().is_empty());
    }

    #[test]
    fn top_k_answers_through_the_facade() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        let halevy = store.object_id("Halevy").unwrap();
        let result = analysis.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
        assert_eq!(result.top.len(), 1);
        assert_eq!(Some(result.top[0].0), truth.value(halevy));
    }

    #[test]
    fn engine_is_shareable_and_debuggable() {
        let engine = SailingEngine::with_defaults();
        let clone = engine.clone();
        let handle = std::thread::spawn(move || {
            let (store, _) = fixtures::table1();
            clone.analyze(&store.snapshot()).decisions().len()
        });
        assert_eq!(handle.join().unwrap(), 5);
        assert!(format!("{engine:?}").contains("accu-copy"));
    }

    #[test]
    fn custom_strategy_params_drive_downstream_voting() {
        // A strategy carrying its own parameters must also govern the
        // online-session voting path, keeping the facade invariant that a
        // fully-probed session equals the fused decisions.
        let params = DetectionParams {
            n_false_values: 50,
            copy_rate: 0.6,
            ..DetectionParams::default()
        };
        let engine = SailingEngine::builder()
            .strategy(AccuCopy::new(params.clone()).unwrap())
            .build()
            .unwrap();
        assert_eq!(engine.params().n_false_values, 50);

        // Builder-level overrides cannot reach inside a param-carrying
        // strategy, so combining them is a typed configuration error
        // rather than a silent no-op.
        let err = SailingEngine::builder()
            .strategy(AccuCopy::new(params.clone()).unwrap())
            .params(DetectionParams {
                threads: 8,
                ..DetectionParams::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SailingError::InvalidConfig { .. }));

        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = engine.analyze(&snap);
        let order = analysis.visit_order(&OrderingPolicy::ByAccuracy);
        let mut session = analysis.online_session();
        let steps = session.run_order(&order);
        assert_eq!(
            steps.last().unwrap().decisions,
            analysis.fuse().decisions,
            "fully-probed session must match fused decisions under custom params"
        );
    }

    #[test]
    fn bookstore_corpus_raises_the_screening_floor() {
        let config = BookCorpusConfig::small(7);
        assert_eq!(config.min_shared_books, 10);
        // Attached corpus → Example 4.1 screening becomes the default.
        let engine = SailingEngine::builder()
            .bookstore_corpus(&config)
            .build()
            .unwrap();
        assert_eq!(engine.params().min_overlap, 10);
        // An explicitly stricter floor wins over the corpus's.
        let engine = SailingEngine::builder()
            .params(DetectionParams {
                min_overlap: 25,
                ..DetectionParams::default()
            })
            .bookstore_corpus(&config)
            .build()
            .unwrap();
        assert_eq!(engine.params().min_overlap, 25);
        // A param-carrying strategy conflicts, like params().
        let err = SailingEngine::builder()
            .strategy(AccuCopy::with_defaults())
            .bookstore_corpus(&config)
            .build()
            .unwrap_err();
        assert!(matches!(err, SailingError::InvalidConfig { .. }));
    }

    #[test]
    fn fuse_shares_the_pipeline_result_without_deep_clone() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        let f1 = analysis.fuse();
        let f2 = analysis.fuse();
        // Pointer identity: every outcome reads the exact PipelineResult
        // allocation the analysis holds — fuse() is a refcount bump.
        assert!(
            std::ptr::eq(analysis.result(), f1.result()),
            "fuse() must share, not clone, the analysis result"
        );
        assert!(std::ptr::eq(f1.result(), f2.result()));
        // And therefore the distribution slices are the same memory.
        let o = analysis.probabilities().objects()[0];
        assert!(std::ptr::eq(
            analysis.probabilities().distribution(o).as_ptr(),
            f1.probabilities().distribution(o).as_ptr(),
        ));
    }

    #[test]
    fn clones_share_the_memos() {
        let (store, _) = fixtures::table1();
        let analysis = SailingEngine::with_defaults().analyze(&store.snapshot());
        let reports = analysis.source_reports();
        let trust = analysis.trust_scores();
        let fused = analysis.fuse();
        // Filled before the clone: the clone reads the same allocations.
        let clone = analysis.clone();
        assert!(std::ptr::eq(reports, clone.source_reports()));
        assert!(std::ptr::eq(trust, clone.trust_scores()));
        assert!(std::ptr::eq(
            analysis.dependence_matrix(),
            clone.dependence_matrix()
        ));
        // Filled through a clone: the original sees it too.
        let other = SailingEngine::with_defaults().analyze(&store.snapshot());
        let other_clone = other.clone();
        assert!(std::ptr::eq(
            other_clone.dependence_matrix(),
            other.dependence_matrix()
        ));
        assert!(std::ptr::eq(
            other_clone.source_reports(),
            other.source_reports()
        ));
        // Every memoised outcome shares the one pipeline result and
        // repeats the fresh outcome's decisions.
        let again = clone.fuse();
        let shared = analysis.result_arc();
        assert!(std::ptr::eq(fused.result(), &*shared));
        assert!(std::ptr::eq(again.result(), &*shared));
        assert_eq!(
            again.decisions,
            FusionOutcome::from_shared(shared, analysis.strategy_name()).decisions
        );
    }

    #[test]
    fn empty_snapshot_analysis_is_sane() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        let analysis = SailingEngine::with_defaults().analyze(&snap);
        assert!(analysis.decisions().is_empty());
        assert!(analysis.recommend(Goal::DiversitySeeking, 3).is_empty());
        assert!(analysis.source_reports().is_empty());
        assert!(analysis.online_session().current_decisions().is_empty());
    }

    #[test]
    fn analysis_is_owned_send_and_outlives_the_snapshot() {
        // The core of the API redesign: an Analysis is a self-contained
        // value — it can be returned from a scope that owned the snapshot
        // and shipped to another thread.
        fn produce() -> Analysis {
            let (store, _) = fixtures::table1();
            SailingEngine::with_defaults().analyze_owned(Arc::new(store.snapshot()))
        }
        let analysis = produce();
        let handle = std::thread::spawn(move || analysis.decisions().len());
        assert_eq!(handle.join().unwrap(), 5);

        fn assert_static_send<T: Send + Sync + 'static>() {}
        assert_static_send::<Analysis>();
    }

    #[test]
    fn analyze_owned_hits_the_cache_pointer_identically() {
        let (store, _) = fixtures::table1();
        let snap = Arc::new(store.snapshot());
        let engine = SailingEngine::with_defaults();
        assert_eq!(engine.cache_stats().hits, 0);

        let first = engine.analyze_owned(Arc::clone(&snap));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

        // Second analysis of the same Arc: no pipeline re-run — the
        // returned analysis shares the exact PipelineResult allocation.
        let second = engine.analyze_owned(Arc::clone(&snap));
        assert!(std::ptr::eq(first.result(), second.result()));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // An equal snapshot in a fresh allocation hits too (content hash,
        // not pointer, is the key)…
        let rebuilt = engine.analyze(&store.snapshot());
        assert!(std::ptr::eq(first.result(), rebuilt.result()));
        assert_eq!(engine.cache_stats().hits, 2);

        // …and clones of the engine share the same cache.
        let clone = engine.clone();
        let via_clone = clone.analyze_owned(snap);
        assert!(std::ptr::eq(first.result(), via_clone.result()));
        assert_eq!(engine.cache_stats().hits, 3);
    }

    #[test]
    fn cold_analyze_never_observes_warm_seeded_results() {
        // The cache key carries warm/cold provenance: a timeline walk must
        // not change what a plain analyze() of the same snapshot returns.
        let (_, history, _) = fixtures::table3();
        let engine = SailingEngine::with_defaults();
        let epochs: Vec<_> = engine.timeline(history).collect();
        let warm = epochs
            .iter()
            .find(|e| e.warm_started())
            .expect("some epoch warm-started");
        let cold = engine.analyze_owned(warm.analysis().snapshot_arc());
        assert!(
            !std::ptr::eq(cold.result(), warm.analysis().result()),
            "cold analyze must run its own discovery, not reuse the warm result"
        );
        // A cold-computed epoch (the first) IS shared with a cold analyze.
        let first = &epochs[0];
        assert!(!first.warm_started());
        let again = engine.analyze_owned(first.analysis().snapshot_arc());
        assert!(std::ptr::eq(again.result(), first.analysis().result()));
    }

    #[test]
    fn borrowed_analyze_reuses_the_cached_snapshot_on_a_hit() {
        let (store, _) = fixtures::table1();
        let engine = SailingEngine::with_defaults();
        let first = engine.analyze(&store.snapshot());
        // The second borrowed call is a hit: no clone happens — the
        // returned analysis shares the snapshot allocation the cache holds.
        let second = engine.analyze(&store.snapshot());
        assert!(Arc::ptr_eq(&first.snapshot_arc(), &second.snapshot_arc()));
        assert!(std::ptr::eq(first.result(), second.result()));
    }

    #[test]
    fn cache_evicts_least_recently_used_and_can_be_disabled() {
        let snapshots: Vec<Arc<SnapshotView>> = (0..3u32)
            .map(|i| {
                Arc::new(SnapshotView::from_triples(
                    1,
                    1,
                    vec![(SourceId(0), ObjectId(0), ValueId(i))],
                ))
            })
            .collect();

        let tiny = SailingEngine::builder().cache_capacity(2).build().unwrap();
        let first = tiny.analyze_owned(Arc::clone(&snapshots[0]));
        tiny.analyze_owned(Arc::clone(&snapshots[1]));
        tiny.analyze_owned(Arc::clone(&snapshots[2])); // evicts snapshot 0
        assert_eq!(tiny.cache_stats().entries, 2);
        let again = tiny.analyze_owned(Arc::clone(&snapshots[0])); // miss
        assert!(!std::ptr::eq(first.result(), again.result()));
        assert_eq!(tiny.cache_stats().hits, 0);
        assert_eq!(tiny.cache_stats().misses, 4);

        let uncached = SailingEngine::builder().cache_capacity(0).build().unwrap();
        let a = uncached.analyze_owned(Arc::clone(&snapshots[0]));
        let b = uncached.analyze_owned(Arc::clone(&snapshots[0]));
        assert!(!std::ptr::eq(a.result(), b.result()));
        let stats = uncached.cache_stats();
        assert_eq!((stats.entries, stats.capacity), (0, 0));
    }

    #[test]
    fn decisions_are_reproducibly_ordered() {
        let (store, _) = fixtures::table1();
        let analysis = SailingEngine::with_defaults().analyze(&store.snapshot());
        let a: Vec<_> = analysis.decisions().into_iter().collect();
        let b: Vec<_> = analysis.decisions().into_iter().collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "ascending objects");
    }

    #[test]
    fn timeline_walks_table3_epoch_by_epoch() {
        let (store, history, _) = fixtures::table3();
        let engine = SailingEngine::with_defaults();
        let session = engine.timeline(history.clone());
        let expected: Vec<_> = history.change_points().collect();
        assert_eq!(session.change_points(), &expected[..]);
        assert_eq!(session.num_epochs(), expected.len());

        let epochs: Vec<_> = session.collect();
        assert_eq!(epochs.len(), expected.len());
        assert!(!epochs[0].warm_started());
        // Exactly the epochs following a *converged* epoch are warm-started
        // (a capped-out oscillation never seeds its successor).
        for pair in epochs.windows(2) {
            assert_eq!(
                pair[1].warm_started(),
                pair[0].analysis().converged(),
                "at {}",
                pair[1].timestamp()
            );
        }
        assert!(
            epochs[1..].iter().any(EpochAnalysis::warm_started),
            "no epoch warm-started at all"
        );

        // Every epoch analysis matches the snapshot at its change point.
        for epoch in &epochs {
            let snap = history.snapshot_at(epoch.timestamp());
            assert_eq!(
                epoch.analysis().snapshot().content_hash(),
                snap.content_hash()
            );
            // The attached history feeds freshness-aware trust scoring.
            assert_eq!(
                epoch.analysis().trust_scores().len(),
                snap.num_sources().max(history.num_sources())
            );
        }

        // The temporal evidence surfaces the lazy copier S3 → S1 even
        // though single snapshots carry too little overlap to see it: the
        // fused report must rank S1–S3 above the independent pair S1–S2
        // (Example 3.2's inference).
        let s = |n: &str| store.source_id(n).unwrap();
        let last = epochs.last().unwrap();
        let fused = last.fused_dependences();
        let prob = |a: SourceId, b: SourceId| {
            fused
                .iter()
                .find(|p| (p.a, p.b) == (a.min(b), a.max(b)))
                .map_or(0.0, |p| p.probability)
        };
        assert!(
            prob(s("S1"), s("S3")) > prob(s("S1"), s("S2")),
            "lazy copier must outrank the slow independent: {fused:?}"
        );
        assert!(fused
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability));
        // Fusing keeps the more confident of the two evidence channels.
        for p in &fused {
            let snap_p = last
                .analysis()
                .dependences()
                .iter()
                .find(|d| (d.a, d.b) == (p.a, p.b))
                .map_or(0.0, |d| d.probability);
            let temp_p = last
                .temporal
                .iter()
                .find(|d| (d.a, d.b) == (p.a, p.b))
                .map_or(0.0, |d| d.probability);
            assert!((p.probability - snap_p.max(temp_p)).abs() < 1e-12);
        }
    }

    #[test]
    fn timeline_on_empty_history_yields_nothing() {
        let engine = SailingEngine::with_defaults();
        let mut session = engine.timeline(History::new(3, 2));
        assert_eq!(session.num_epochs(), 0);
        assert!(session.next_epoch().is_none());
        assert_eq!(session.total_iterations(), 0);
        // Batched construction over nothing is equally a no-op.
        let mut batched = engine.timeline(History::new(3, 2));
        batched.prefetch_cold(4);
        assert!(batched.next_epoch().is_none());
    }

    fn persist_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sailing-engine-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_dir_turns_a_second_engine_into_disk_hits() {
        let dir = persist_temp_dir("second-engine");
        let (store, _) = fixtures::table1();
        let snapshot = Arc::new(store.snapshot());

        let first = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let a = first.analyze_owned(Arc::clone(&snapshot));
        let stats = first.cache_stats();
        assert_eq!((stats.disk_hits, stats.disk_misses), (0, 1));
        first.flush_persist().unwrap();
        assert_eq!(first.persist_store().unwrap().len(), 1);

        // A brand-new engine over the same directory — a stand-in for a
        // second process — serves the analysis from disk.
        let second = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let b = second.analyze_owned(Arc::clone(&snapshot));
        let stats = second.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "memory tier is cold");
        assert_eq!((stats.disk_hits, stats.disk_misses), (1, 0));
        assert_eq!(a.decisions(), b.decisions());
        for (x, y) in a.accuracies().iter().zip(b.accuracies()) {
            assert_eq!(x.to_bits(), y.to_bits(), "disk round-trip is bit-exact");
        }
        // The disk hit was promoted into memory: a third request is a
        // pointer-identical memory hit.
        let c = second.analyze_owned(snapshot);
        assert!(std::ptr::eq(b.result(), c.result()));
        assert_eq!(second.cache_stats().hits, 1);

        // compact keeps the valid entry; an engine without a store
        // reports the empty defaults.
        assert_eq!(
            second.compact_persist().unwrap(),
            sailing_persist::CompactReport {
                kept: 1,
                ..Default::default()
            }
        );
        let plain = SailingEngine::with_defaults();
        assert!(plain.persist_store().is_none());
        assert_eq!(plain.flush_persist().unwrap(), 0);
        assert_eq!(plain.compact_persist().unwrap(), Default::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_options_reach_the_store_as_clamped() {
        let dir = persist_temp_dir("options");
        let options = StoreOptions::async_writer(0)
            .retry(2, Duration::from_millis(3))
            .breaker(4, Duration::from_millis(50))
            .shutdown_deadline(Duration::from_millis(700));
        let engine = SailingEngine::builder()
            .persist_dir(&dir)
            .persist_options(options)
            .build()
            .unwrap();
        // Every field arrives; the store clamps the zero queue bound to 1.
        assert_eq!(
            engine.persist_store().unwrap().options(),
            StoreOptions {
                async_writer: true,
                queue_depth: 1,
                retry_max_attempts: 2,
                retry_base_delay: Duration::from_millis(3),
                breaker_threshold: 4,
                breaker_cooldown: Duration::from_millis(50),
                shutdown_deadline: Duration::from_millis(700),
            }
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_keys_keep_warm_and_cold_results_apart_on_disk() {
        let dir = persist_temp_dir("provenance");
        let (_, history, _) = fixtures::table3();
        let engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let epochs: Vec<_> = engine.timeline(history).collect();
        let warm = epochs
            .iter()
            .find(|e| e.warm_started())
            .expect("some epoch warm-started");
        engine.flush_persist().unwrap();

        // A cold analyze in a fresh engine over the same directory must
        // not be answered by the warm-provenance entry.
        let second = SailingEngine::builder().persist_dir(&dir).build().unwrap();
        let cold = second.analyze_owned(warm.analysis().snapshot_arc());
        assert_eq!(second.cache_stats().disk_misses, 1);
        assert_eq!(cold.decisions(), warm.analysis().decisions());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_timeline_agrees_with_sequential_and_accounts_identically() {
        let (_, history, _) = fixtures::table3();
        let params = DetectionParams {
            min_overlap: 1,
            ..DetectionParams::default()
        };
        let seq_engine = SailingEngine::builder()
            .params(params.clone())
            .cache_capacity(0)
            .build()
            .unwrap();
        let par_engine = SailingEngine::builder()
            .params(params)
            .cache_capacity(0)
            .build()
            .unwrap();

        let sequential: Vec<_> = seq_engine.timeline(history.clone()).collect();
        let mut batched_session = par_engine.timeline(history);
        batched_session.prefetch_cold(4);
        let batched: Vec<_> = batched_session.by_ref().collect();

        assert_eq!(sequential.len(), batched.len());
        let mut spent = 0usize;
        for (s, b) in sequential.iter().zip(&batched) {
            assert_eq!(s.timestamp(), b.timestamp());
            assert_eq!(s.analysis().decisions(), b.analysis().decisions());
            // Fresh engines: both walks did fresh work for every epoch.
            assert!(!s.from_cache() && !b.from_cache());
            assert!(!b.warm_started(), "batched epochs run cold");
            spent += b.iterations();
        }
        // Same accounting discipline: total == sum of fresh epochs' spend.
        assert_eq!(batched_session.total_iterations(), spent);
    }

    #[test]
    fn prefetch_dedupes_content_repeat_epochs() {
        // An update that reverts an object gives two change points the
        // same snapshot content; the batch must compute that content once
        // and fan it out, like the sequential walk's cache would.
        let mut history = History::new(1, 1);
        history.record(SourceId(0), ObjectId(0), 1, ValueId(1));
        history.record(SourceId(0), ObjectId(0), 2, ValueId(2));
        history.record(SourceId(0), ObjectId(0), 3, ValueId(1)); // revert
        let engine = SailingEngine::with_defaults();
        let mut session = engine.timeline(Arc::new(history));
        assert_eq!(session.num_epochs(), 3);
        assert_eq!(session.prefetch_cold(2), 2, "two distinct contents");
        let epochs: Vec<_> = session.by_ref().collect();
        assert_eq!(epochs.len(), 3);
        // The repeat shares the first epoch's allocation and reports as
        // served rather than freshly computed.
        assert!(std::ptr::eq(
            epochs[0].analysis().result(),
            epochs[2].analysis().result()
        ));
        assert!(!epochs[0].from_cache() && !epochs[1].from_cache());
        assert!(epochs[2].from_cache());
        assert_eq!(
            session.total_iterations(),
            epochs[0].iterations() + epochs[1].iterations()
        );

        // With no cache and no store there is nowhere to keep a result:
        // the repeat is computed again, exactly as the capacity-0
        // sequential walk recomputes it.
        let uncached = || SailingEngine::builder().cache_capacity(0).build().unwrap();
        let mut sequential = uncached().timeline(session.history().clone());
        assert_eq!(sequential.by_ref().count(), 3);
        let mut batched = uncached().timeline(session.history().clone());
        assert_eq!(batched.prefetch_cold(2), 3, "every epoch is computed");
        let epochs: Vec<_> = batched.by_ref().collect();
        assert!(epochs.iter().all(|e| !e.from_cache()));
        assert_eq!(batched.total_iterations(), sequential.total_iterations());
    }

    #[test]
    fn prefetch_against_a_warm_cache_computes_nothing() {
        let (_, history, _) = fixtures::table3();
        let engine = SailingEngine::builder()
            .params(DetectionParams {
                min_overlap: 1,
                ..DetectionParams::default()
            })
            .cache_capacity(64)
            .build()
            .unwrap();
        // A batched walk populates the cache with cold-keyed results…
        let mut first_walk = engine.timeline(history.clone());
        first_walk.prefetch_cold(2);
        let first: Vec<_> = first_walk.collect();
        assert!(first.iter().all(|e| !e.from_cache()));
        // …so a second batched walk prefetches zero and serves everything
        // as cache hits with no spend.
        let mut rerun = engine.timeline(Arc::new(history));
        assert_eq!(rerun.prefetch_cold(2), 0);
        let second: Vec<_> = rerun.by_ref().collect();
        assert_eq!(first.len(), second.len());
        assert!(second.iter().all(|e| e.from_cache()));
        assert_eq!(rerun.total_iterations(), 0);
        for (a, b) in first.iter().zip(&second) {
            assert!(std::ptr::eq(a.analysis().result(), b.analysis().result()));
        }
    }

    /// Tight-epsilon params for streaming tests: continuous vote map so
    /// incremental and full fixpoints are comparable to 1e-9.
    fn ingest_params() -> DetectionParams {
        DetectionParams {
            hard_damping_threshold: 1.0,
            convergence_epsilon: 1e-12,
            ..DetectionParams::default()
        }
    }

    /// Same two-block world as the core `run_delta` tests: block A is
    /// sources 0-2 over objects 0-3, block B sources 3-5 over objects
    /// 4-7, values namespaced per object (`o*10`, `k = 0` true).
    fn block_world_triples() -> Vec<(SourceId, ObjectId, ValueId)> {
        let mut triples = Vec::new();
        for block in 0..2u32 {
            for s in 0..3u32 {
                let sid = SourceId(block * 3 + s);
                for o in 0..4u32 {
                    let oid = ObjectId(block * 4 + o);
                    let k = u32::from(o == s + 1);
                    triples.push((sid, oid, ValueId(oid.0 * 10 + k)));
                }
            }
        }
        triples
    }

    #[test]
    fn ingest_stream_matches_batch_analysis_on_table1() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let engine = SailingEngine::with_defaults();

        let mut session = engine.ingest_session(SealPolicy::manual());
        for s in 0..snap.num_sources() {
            let sid = SourceId::from_index(s);
            for &(object, value) in snap.source_assertions(sid) {
                session.assert_claim(sid, object, value, 7, s as Timestamp);
            }
        }
        assert!(session.seal());
        assert!(!session.seal(), "nothing left in the open epoch");

        let streamed = session.analysis();
        let batch = engine.analyze(&snap);
        assert_eq!(streamed.decisions(), batch.decisions());
        assert_eq!(truth.decision_precision(&streamed.decisions()), Some(1.0));

        let stats = session.stats();
        assert_eq!(stats.events, snap.num_assertions() as u64);
        assert_eq!(stats.deltas_sealed, 1);
        // The fresh session's trivial prior has no accuracies, so the
        // first epoch must pay the full cold analysis.
        assert_eq!(stats.full_fallbacks, 1);
        assert_eq!(stats.incremental_runs, 0);
        assert_eq!(stats.last_outcome, Some(DeltaOutcome::PriorNotConverged));
        assert!(stats.iterations_total > 0);
    }

    #[test]
    fn ingest_goes_incremental_on_block_confined_epochs() {
        let engine = SailingEngine::builder()
            .params(ingest_params())
            .build()
            .unwrap();
        let mut session = engine
            .ingest_session(SealPolicy::manual())
            .with_max_dirty_fraction(0.5);
        for (s, o, v) in block_world_triples() {
            session.assert_claim(s, o, v, 0, 0);
        }
        assert!(session.seal());
        assert_eq!(session.stats().full_fallbacks, 1, "bootstrap epoch");

        // Epoch 2: block A only — source 1 flips object 0 to the truth.
        session.assert_claim(SourceId(1), ObjectId(0), ValueId(0), 0, 1);
        assert!(session.seal());
        let stats = session.stats();
        assert_eq!(stats.deltas_sealed, 2);
        assert_eq!(stats.incremental_runs, 1);
        assert_eq!(stats.last_outcome, Some(DeltaOutcome::Incremental));
        assert_eq!(stats.dirty_objects_last, 4, "block A objects only");
        assert_eq!(stats.dirty_sources_last, 3);

        // Parity with a one-shot analysis of the final snapshot.
        let final_snap = session.snapshot_arc();
        let direct = AccuCopy::new(ingest_params()).unwrap().run(&final_snap);
        let streamed = session.analysis();
        assert_eq!(streamed.decisions(), direct.decisions_sorted());
        for (a, d) in streamed.accuracies().iter().zip(&direct.accuracies) {
            assert!((a - d).abs() < 1e-9);
        }

        // Epoch 3 touches both blocks: dirty fraction 1.0 > 0.5 must
        // produce the typed fallback, still with matching decisions.
        session.assert_claim(SourceId(0), ObjectId(1), ValueId(10), 0, 2);
        session.assert_claim(SourceId(3), ObjectId(5), ValueId(50), 0, 2);
        assert!(session.seal());
        let stats = session.stats();
        assert_eq!(stats.full_fallbacks, 2);
        assert!(matches!(
            stats.last_outcome,
            Some(DeltaOutcome::DirtyFractionExceeded { dirty_fraction }) if dirty_fraction > 0.5
        ));
    }

    #[test]
    fn ingest_session_recovers_from_a_durable_log() {
        let dir = persist_temp_dir("ingest-recover");
        let engine = SailingEngine::with_defaults();
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();

        {
            let log = ClaimLog::open(&dir, SealPolicy::after_events(8)).unwrap();
            let mut session = engine.ingest_session_from(log);
            for s in 0..snap.num_sources() {
                let sid = SourceId::from_index(s);
                for &(object, value) in snap.source_assertions(sid) {
                    session.assert_claim(sid, object, value, 1, 0);
                }
            }
            session.seal();
            assert!(session.log_stats().segments_written > 0);
        }

        // A new process reopens the log and bootstraps its state from the
        // recovered events in one full analysis.
        let log = ClaimLog::open(&dir, SealPolicy::after_events(8)).unwrap();
        assert_eq!(log.stats().recovered_events, snap.num_assertions() as u64);
        let session = engine.ingest_session_from(log);
        let recovered = session.analysis();
        let batch = engine.analyze(&snap);
        assert_eq!(recovered.decisions(), batch.decisions());
        assert_eq!(session.stats().events, snap.num_assertions() as u64);
        assert_eq!(
            session.stats().deltas_sealed,
            0,
            "bootstrap is not an epoch"
        );
        assert!(session.stats().iterations_total > 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_sharded_matches_analyze_bitwise() {
        let (store, truth) = fixtures::table1();
        // Table 1 plus two specialist worlds large enough that every
        // worker count splits the candidate pairs into several ranges.
        let specialist = |sources, objects, coverage| {
            SnapshotWorld::generate(&WorldConfig::specialist(sources, objects, coverage, 21))
                .snapshot
        };
        let worlds = [
            store.snapshot(),
            specialist(24, 96, 16),
            specialist(40, 120, 20),
        ];
        let engine = SailingEngine::with_defaults();
        for (w, snap) in worlds.iter().enumerate() {
            let solo = engine.analyze(snap);
            for workers in [1, 2, 3, 4] {
                let sharded = engine.analyze_sharded(snap, workers).unwrap();
                assert_eq!(sharded.decisions(), solo.decisions(), "world {w}");
                for (x, y) in sharded.accuracies().iter().zip(solo.accuracies()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "world {w}, workers={workers}");
                }
                assert_eq!(
                    sharded.result().iterations,
                    solo.result().iterations,
                    "the sharded coordinator replays the same iterations (world {w})"
                );
                assert_eq!(
                    sharded.result().dependences,
                    solo.result().dependences,
                    "partials merge in range order (world {w}, workers={workers})"
                );
                if w == 0 {
                    assert_eq!(truth.decision_precision(&sharded.decisions()).unwrap(), 1.0);
                }
            }
        }
        let stats = engine.cache_stats();
        assert!(stats.shard_runs > 0, "local detection passes are counted");
        assert_eq!(
            stats.shard_partials_adopted, 0,
            "threads-only fan-outs have no peers to adopt from"
        );
        // Sharded results bypass the cache: only the plain analyze()
        // calls touched the request counters.
        assert_eq!(stats.hits + stats.misses, worlds.len() as u64);
    }

    #[test]
    fn worker_panic_joins_into_a_typed_error() {
        let joined = std::thread::scope(|scope| {
            let handles = vec![
                scope.spawn(|| 1),
                scope.spawn(|| -> i32 { panic!("range 3 exploded") }),
                scope.spawn(|| 3),
            ];
            join_workers("shard", handles)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        });
        assert_eq!(
            joined,
            Err(SailingError::WorkerPanicked {
                context: "shard",
                reason: "range 3 exploded".to_string(),
            })
        );
        let ok = std::thread::scope(|scope| {
            let handles = (0..3).map(|i| scope.spawn(move || i * 2)).collect();
            join_workers("shard", handles)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        });
        assert_eq!(ok, Ok(vec![0, 2, 4]));
    }

    #[test]
    fn analyze_sharded_rejects_accuracy_blind_strategies() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let engine = SailingEngine::builder()
            .strategy(NaiveVote::new())
            .build()
            .unwrap();
        let err = engine.analyze_sharded(&snap, 2).unwrap_err();
        assert!(err.to_string().contains("strategy"), "{err}");
    }

    #[test]
    fn analyze_sharded_adopts_peer_partials_through_the_store() {
        let dir = persist_temp_dir("shard-adopt");
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let engine = SailingEngine::builder().persist_dir(&dir).build().unwrap();

        // A stand-in for a cooperating process: claim the first range of
        // iteration 1 and publish its partial through the shared store
        // before the engine's own run begins.
        let pipeline = AccuCopy::new(engine.params().clone()).unwrap();
        let ranges = shard_ranges(pipeline.pair_count(&snap), 2);
        assert_eq!(ranges.len(), 2, "table1 has enough candidate pairs");
        let state = pipeline.bootstrap_sharded(&snap, None);
        let name = shard_partial_name(
            quotient_cache_key(snap.content_hash(), None, None),
            1,
            ranges[0],
        );
        let peer = engine.persist_store().unwrap();
        assert!(peer.try_claim(&name));
        let partial = pipeline.run_shard(&snap, ranges[0], &state);
        peer.put_blob(&name, partial.to_canonical_json().as_bytes())
            .unwrap();

        let sharded = engine.analyze_sharded(&snap, 2).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(
            stats.shard_partials_adopted, 1,
            "the pre-published partial was adopted, not recomputed"
        );
        assert!(stats.shard_runs > 0);

        let solo = SailingEngine::with_defaults().analyze(&snap);
        assert_eq!(sharded.decisions(), solo.decisions());
        for (x, y) in sharded.accuracies().iter().zip(solo.accuracies()) {
            assert_eq!(x.to_bits(), y.to_bits(), "cooperation stays bit-exact");
        }

        // The completed run swept its coordination files, so the claim
        // is takeable again and the blob is gone.
        assert!(peer.get_blob(&name).is_none());
        assert!(peer.try_claim(&name));

        // A partial published under the exact name is invisible to a
        // non-exact backend on the same store, even when its quotient is
        // the identity: the iteration state (and so the partial's digest)
        // matches, and only the name keeps the two runs apart.
        assert!(snap.quotient(&NormalizedString).is_identity());
        peer.put_blob(&name, partial.to_canonical_json().as_bytes())
            .unwrap();
        let normalized = SailingEngine::builder()
            .persist_dir(&dir)
            .value_equivalence(NormalizedString)
            .build()
            .unwrap();
        let sharded = normalized.analyze_sharded(&snap, 2).unwrap();
        assert_eq!(normalized.cache_stats().shard_partials_adopted, 0);
        assert_eq!(sharded.decisions(), solo.decisions());
        std::fs::remove_dir_all(&dir).ok();
    }
}
