//! The serving handle: one per corpus, shared across every serving
//! thread.
//!
//! [`ServeHandle`] owns the engine, the [`EpochPointer`] holding the
//! current [`Analysis`], and the metrics layer. It is `Clone` (cheap —
//! one `Arc` bump) and `Send + Sync`, so ingestion and serving threads
//! share the same handle. It publishes; [`ServeReader`] reads. Each
//! serving thread holds its own reader — the generation-validated cached
//! `Arc` that makes the steady-state read path a single atomic load.
//!
//! Division of labor with the engine: the engine deduplicates *work*
//! (analysis cache + single-flight admission), the handle deduplicates
//! *publication* (the epoch pointer) and measures everything.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use sailing::engine::{IngestSession, SailingEngine};
use sailing::fusion::FusionOutcome;
use sailing::model::{ObjectId, SnapshotView};
use sailing::query::{OrderingPolicy, TopKResult};
use sailing::recommend::{Goal, Recommendation};
use sailing::Analysis;

use crate::epoch::EpochPointer;
use crate::metrics::{Endpoint, MetricsSnapshot, ServeMetrics};

/// Re-exported from `sailing-core`: the per-source summary
/// `source_reports` returns.
pub use sailing::core::SourceReport;

/// Serving-tier health: is the current epoch the freshest admissible
/// analysis, or is the handle serving its **last good** epoch because
/// publications keep being refused?
///
/// Every publication ([`ServeHandle::admit`],
/// [`ServeHandle::publish_ingest`]) enters or leaves degradation: an
/// analysis the discovery watchdog ended without convergence
/// ([`sailing::core::Termination::is_watchdog_stop`]) is *not*
/// published — readers keep answering from the previous epoch
/// (stale-while-revalidate) and the handle reports `Degraded` until a
/// publication converges again. Surfaces in
/// [`MetricsSnapshot::healthy`](crate::MetricsSnapshot) for dashboards.
#[derive(Debug, Clone)]
pub enum Health {
    /// The most recent publication swapped in (or kept) a fresh epoch.
    Healthy,
    /// At least one publication has been refused since the last good
    /// epoch; the handle keeps serving that last good analysis.
    Degraded {
        /// When the current run of refused publications began (preserved
        /// across consecutive refusals, so dashboards see how long the
        /// tier has been stale).
        since: Instant,
        /// Why the most recent publication was refused.
        reason: String,
    },
}

impl Health {
    /// `true` in the [`Health::Healthy`] state.
    pub fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }
}

struct ServeInner {
    engine: SailingEngine,
    epoch: EpochPointer<Analysis>,
    metrics: ServeMetrics,
    /// Guarded by its own mutex (not the epoch's): health flips on the
    /// rare publish path, never on reads. Poison-recovered like the
    /// epoch pointer — a panicking publisher must not stop health
    /// reporting.
    health: Mutex<Health>,
}

/// A shareable handle serving one corpus's current analysis.
///
/// See the [crate docs](crate) for the full tour. In short:
///
/// * [`ServeHandle::admit`] analyzes a snapshot (through the engine's
///   single-flight cache) and publishes it as the new epoch;
/// * [`ServeHandle::publish_ingest`] publishes a streaming ingestion
///   session's analysis;
/// * [`ServeHandle::reader`] hands out the per-thread lock-free read
///   path, the only way to query;
/// * [`ServeHandle::metrics`] snapshots every counter.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServeInner>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("generation", &self.generation())
            .field("engine", &self.inner.engine)
            .finish()
    }
}

impl ServeHandle {
    /// Analyzes `snapshot` with `engine` and publishes the result as the
    /// first served epoch. The admission is timed and counted like any
    /// later [`ServeHandle::admit`].
    pub fn new(engine: SailingEngine, snapshot: Arc<SnapshotView>) -> Self {
        let metrics = ServeMetrics::default();
        let start = Instant::now();
        let analysis = Arc::new(engine.analyze_owned(snapshot));
        metrics.record(Endpoint::Admit, start.elapsed());
        metrics.note_swap();
        Self {
            inner: Arc::new(ServeInner {
                engine,
                epoch: EpochPointer::new(analysis),
                metrics,
                health: Mutex::new(Health::Healthy),
            }),
        }
    }

    /// Analyzes `snapshot` and publishes it as the new current epoch,
    /// returning the analysis now served.
    ///
    /// The analysis goes through the engine's cache, so re-admitting the
    /// snapshot that is already current is cheap and does **not** bump
    /// the epoch generation — readers' cached clones stay valid, and a
    /// thundering herd of identical admissions swaps the pointer at most
    /// once (the engine's single-flight admission guarantees they all
    /// hold the *same* `Arc`'d result, which is what makes the
    /// pointer-equality dedup in [`EpochPointer::publish`] effective).
    ///
    /// An analysis the discovery watchdog ended without convergence — a
    /// deadline overrun or a detected limit cycle (see
    /// [`sailing::engine::SailingEngineBuilder::discovery_watchdog`]) — is
    /// **refused**: the handle keeps serving the last good epoch, flips
    /// [`ServeHandle::health`] to [`Health::Degraded`], and returns the
    /// *currently served* analysis rather than the refused one. A later
    /// publication that converges swaps normally and restores
    /// [`Health::Healthy`].
    pub fn admit(&self, snapshot: Arc<SnapshotView>) -> Arc<Analysis> {
        let start = Instant::now();
        let analysis = Arc::new(self.inner.engine.analyze_owned(snapshot));
        self.publish(analysis, start)
    }

    /// Publishes an ingestion session's current analysis under the same
    /// watchdog gate as [`ServeHandle::admit`], and folds its
    /// [`IngestStats`](sailing::IngestStats) into
    /// [`MetricsSnapshot::ingest`]. Call once per sealed epoch.
    ///
    /// Incremental results are computed outside the engine's analysis
    /// cache (they match a full re-analysis to ~1e-9, not bit-for-bit),
    /// so this publishes the session's analysis as is instead of
    /// re-running discovery. Several sessions may feed one handle: each
    /// session's cumulative stats are tracked by
    /// [`IngestSession::session_id`] and only its delta is added, so the
    /// additive metrics never reset or clobber.
    pub fn publish_ingest(&self, session: &IngestSession) -> Arc<Analysis> {
        self.inner
            .metrics
            .note_ingest(session.session_id(), session.stats());
        let analysis = Arc::new(session.analysis());
        self.publish(analysis, Instant::now())
    }

    /// The publication tail of [`admit`](ServeHandle::admit) and
    /// [`publish_ingest`](ServeHandle::publish_ingest): refuse a
    /// watchdog-stopped analysis (entering [`Health::Degraded`]), or swap
    /// `analysis` in as the current epoch (restoring
    /// [`Health::Healthy`]); either way record the admission latency
    /// since `start` and return the analysis now served.
    fn publish(&self, analysis: Arc<Analysis>, start: Instant) -> Arc<Analysis> {
        let served = if analysis.termination().is_watchdog_stop() {
            let reason = format!(
                "analysis ended without converging: {:?}",
                analysis.termination()
            );
            let mut health = self.lock_health();
            let since = match &*health {
                // An ongoing outage keeps its start time.
                Health::Degraded { since, .. } => *since,
                Health::Healthy => Instant::now(),
            };
            *health = Health::Degraded { since, reason };
            drop(health);
            self.current()
        } else {
            // Adopt the already-published Arc when the analysis is
            // value-identical (same shared pipeline result), so ptr_eq
            // dedup keeps re-admissions from bumping the generation.
            let current = self.current();
            let published = if Arc::ptr_eq(&current.result_arc(), &analysis.result_arc())
                && Arc::ptr_eq(&current.snapshot_arc(), &analysis.snapshot_arc())
            {
                current
            } else {
                analysis
            };
            if self.inner.epoch.publish(Arc::clone(&published)) {
                self.inner.metrics.note_swap();
            }
            *self.lock_health() = Health::Healthy;
            published
        };
        self.inner.metrics.record(Endpoint::Admit, start.elapsed());
        served
    }

    /// The serving tier's current health — [`Health::Degraded`] while
    /// refused publications leave it serving a stale epoch.
    pub fn health(&self) -> Health {
        self.lock_health().clone()
    }

    fn lock_health(&self) -> std::sync::MutexGuard<'_, Health> {
        self.inner
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The analysis currently being served.
    pub fn current(&self) -> Arc<Analysis> {
        self.inner.epoch.load()
    }

    /// The current epoch generation (bumped on every pointer swap).
    pub fn generation(&self) -> u64 {
        self.inner.epoch.generation()
    }

    /// A per-thread reader holding a generation-validated cached clone of
    /// the current analysis — the lock-free read path.
    pub fn reader(&self) -> ServeReader {
        let (cached, seen) = self.inner.epoch.load_tagged();
        ServeReader {
            handle: self.clone(),
            cached,
            seen,
        }
    }

    /// Snapshots the serve metrics, nesting the engine's
    /// [`CacheStats`](sailing::CacheStats) (and through it the store's
    /// persistence stats) and the current [`Health`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .snapshot(self.inner.engine.cache_stats(), &self.health())
    }
}

/// The read path over a [`ServeHandle`]: caches the current
/// `Arc<Analysis>` and revalidates it with one atomic generation load per
/// request, touching the epoch mutex only right after a swap. Every
/// query endpoint lives here and is counted and timed in the handle's
/// [`MetricsSnapshot`].
///
/// Readers are made by [`ServeHandle::reader`] and are intentionally
/// `!Clone` per thread of use — make one per serving thread. Answers are
/// always internally consistent: each request runs against exactly one
/// published `Analysis`, never a mix of two epochs.
#[derive(Debug)]
pub struct ServeReader {
    handle: ServeHandle,
    cached: Arc<Analysis>,
    seen: u64,
}

impl ServeReader {
    /// The analysis this reader will answer from, refreshed if an epoch
    /// swap has landed since the last request.
    ///
    /// The staleness check errs safe: the generation is read *before*
    /// reloading, and `load_tagged` pairs value and generation under one
    /// critical section, so the cached clone is never newer than `seen`
    /// claims — at worst one extra refresh, never a stale serve that
    /// claims to be current.
    pub fn current(&mut self) -> &Arc<Analysis> {
        let generation = self.handle.inner.epoch.generation();
        if generation != self.seen {
            let (cached, seen) = self.handle.inner.epoch.load_tagged();
            self.cached = cached;
            self.seen = seen;
        }
        &self.cached
    }

    /// The epoch generation of the currently cached analysis.
    pub fn seen_generation(&self) -> u64 {
        self.seen
    }

    /// Answers `query` from the current analysis and records its latency
    /// under `endpoint`.
    fn timed<T>(&mut self, endpoint: Endpoint, query: impl FnOnce(&Analysis) -> T) -> T {
        let start = Instant::now();
        let out = query(self.current());
        self.handle.inner.metrics.record(endpoint, start.elapsed());
        out
    }

    /// Dependence-aware top-k answering for `object`.
    pub fn top_k(&mut self, object: ObjectId, k: usize, policy: &OrderingPolicy) -> TopKResult {
        self.timed(Endpoint::TopK, |a| a.top_k(object, k, policy))
    }

    /// The current epoch's full fusion outcome: the analysis's memoised
    /// outcome itself, shared rather than copied.
    pub fn fuse(&mut self) -> Arc<FusionOutcome> {
        self.timed(Endpoint::Fuse, Analysis::fuse)
    }

    /// Goal-directed source recommendations, copied from the analysis's
    /// per-goal memo whenever the answer is a prefix of it (see
    /// [`Analysis::recommend`]).
    pub fn recommend(&mut self, goal: Goal, limit: usize) -> Vec<Recommendation> {
        self.timed(Endpoint::Recommend, |a| a.recommend(goal, limit))
    }

    /// Per-source reports.
    pub fn source_reports(&mut self) -> Vec<SourceReport> {
        self.timed(Endpoint::SourceReports, |a| a.source_reports().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing::model::fixtures;

    #[test]
    fn handle_serves_and_counts_every_endpoint() {
        let (store, truth) = fixtures::table1();
        let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::new(store.snapshot()));
        assert_eq!(handle.generation(), 1);

        let mut reader = handle.reader();
        let halevy = store.object_id("Halevy").unwrap();
        let top = reader.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
        assert_eq!(Some(top.top[0].0), truth.value(halevy));
        let outcome = reader.fuse();
        assert_eq!(
            outcome.decisions_sorted().get(&halevy).copied(),
            truth.value(halevy)
        );
        assert!(!reader.recommend(Goal::TruthSeeking, 3).is_empty());
        assert_eq!(
            reader.source_reports().len(),
            store.snapshot().num_sources()
        );

        let metrics = handle.metrics();
        assert_eq!(metrics.endpoint(Endpoint::Admit).requests, 1);
        assert_eq!(metrics.endpoint(Endpoint::TopK).requests, 1);
        assert_eq!(metrics.endpoint(Endpoint::Fuse).requests, 1);
        assert_eq!(metrics.endpoint(Endpoint::Recommend).requests, 1);
        assert_eq!(metrics.endpoint(Endpoint::SourceReports).requests, 1);
        assert_eq!(metrics.query_requests(), 4);
        assert_eq!(metrics.epoch_swaps, 1);
    }

    #[test]
    fn zero_k_top_k_is_an_empty_answer_and_the_reader_keeps_serving() {
        let (store, truth) = fixtures::table1();
        let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::new(store.snapshot()));
        let halevy = store.object_id("Halevy").unwrap();
        let reader_thread = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut reader = handle.reader();
                let empty = reader.top_k(halevy, 0, &OrderingPolicy::ByAccuracy);
                let after = reader.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
                (empty, after)
            })
        };
        let (empty, after) = reader_thread
            .join()
            .expect("k = 0 must not kill the reader");
        assert!(empty.top.is_empty());
        assert_eq!((empty.probed, empty.early_stopped), (0, false));
        assert_eq!(Some(after.top[0].0), truth.value(halevy));
        assert_eq!(handle.metrics().endpoint(Endpoint::TopK).requests, 2);
    }

    #[test]
    fn readmitting_the_current_snapshot_does_not_swap_the_epoch() {
        let (store, _) = fixtures::table1();
        let snapshot = Arc::new(store.snapshot());
        let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::clone(&snapshot));
        let first = handle.current();

        let again = handle.admit(snapshot);
        assert!(Arc::ptr_eq(&first, &again), "cache hit must share the Arc");
        assert_eq!(handle.generation(), 1, "no swap on identical re-admit");
        assert_eq!(handle.metrics().epoch_swaps, 1);
        assert_eq!(handle.metrics().endpoint(Endpoint::Admit).requests, 2);
    }

    #[test]
    fn reader_refreshes_exactly_when_the_epoch_swaps() {
        let (store, _) = fixtures::table1();
        let handle = ServeHandle::new(SailingEngine::with_defaults(), Arc::new(store.snapshot()));
        let mut reader = handle.reader();
        let before = Arc::clone(reader.current());
        assert_eq!(reader.seen_generation(), 1);

        // Publish a different snapshot (drop one source's claims via a
        // fresh world) — generation must advance and the reader must pick
        // up the new analysis on its next request.
        let config = sailing::datagen::WorldConfig::specialist(6, 24, 12, 7);
        let world = sailing::datagen::SnapshotWorld::generate(&config);
        handle.admit(Arc::new(world.snapshot));
        assert_eq!(handle.generation(), 2);

        let after = Arc::clone(reader.current());
        assert_eq!(reader.seen_generation(), 2);
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn publish_ingest_swaps_epochs_and_folds_stats() {
        use sailing::ingest::SealPolicy;
        use sailing::model::{SourceId, ValueId};

        let (store, truth) = fixtures::table1();
        let snapshot = store.snapshot();
        let engine = SailingEngine::with_defaults();
        // Start serving an empty world; the stream fills it in.
        let handle = ServeHandle::new(
            engine.clone(),
            Arc::new(SnapshotView::from_triples(0, 0, Vec::new())),
        );
        let mut reader = handle.reader();
        assert!(reader.current().decisions().is_empty());

        let mut session = engine.ingest_session(SealPolicy::manual());
        for s in 0..snapshot.num_sources() {
            let source = SourceId::from_index(s);
            for &(object, value) in snapshot.source_assertions(source) {
                session.assert_claim(source, object, value, 0, 0);
            }
        }
        assert!(session.seal());
        let published = handle.publish_ingest(&session);
        assert_eq!(handle.generation(), 2, "epoch swapped");
        assert!(handle.health().is_healthy());
        assert_eq!(truth.decision_precision(&published.decisions()), Some(1.0));
        // The reader picks the streamed analysis up on its next request.
        assert_eq!(
            truth.decision_precision(&reader.current().decisions()),
            Some(1.0)
        );

        let metrics = handle.metrics();
        assert_eq!(metrics.ingest.events, snapshot.num_assertions() as u64);
        assert_eq!(metrics.ingest.deltas_sealed, 1);
        assert_eq!(metrics.ingest.full_fallbacks, 1, "cold bootstrap epoch");
        assert_eq!(metrics.ingest.incremental_runs, 0);
        assert!(metrics.ingest.iterations_total > 0);
        // The ingest stats serialize as one nested object.
        let json = serde_json::to_string(&metrics).unwrap();
        assert!(json.contains("\"ingest\":{"), "{json}");
        assert!(json.contains("\"deltas_sealed\":1"), "{json}");

        // Re-publishing the unchanged session analysis must not bump the
        // generation: assemble shares the same result/snapshot Arcs only
        // within one Analysis, so value-identical re-publication relies
        // on the ptr_eq dedup of the session's retained Arcs.
        let again = handle.publish_ingest(&session);
        assert_eq!(handle.generation(), 2, "no swap without a new epoch");
        assert!(Arc::ptr_eq(&published.result_arc(), &again.result_arc()));

        // A retraction epoch flows through the same path.
        session.retract(
            SourceId::from_index(0),
            store.object_id("Halevy").unwrap(),
            0,
            1,
        );
        // Make the epoch non-trivial for value assertions too.
        session.assert_claim(
            SourceId::from_index(1),
            store.object_id("Halevy").unwrap(),
            ValueId(0),
            0,
            1,
        );
        assert!(session.seal());
        handle.publish_ingest(&session);
        assert_eq!(handle.metrics().ingest.deltas_sealed, 2);
        assert_eq!(handle.generation(), 3);
    }

    #[test]
    fn two_ingest_sessions_fold_into_one_handle() {
        use sailing::ingest::SealPolicy;
        use sailing::model::{ObjectId, SourceId, ValueId};

        let engine = SailingEngine::with_defaults();
        let handle = ServeHandle::new(
            engine.clone(),
            Arc::new(SnapshotView::from_triples(0, 0, Vec::new())),
        );

        let mut one = engine.ingest_session(SealPolicy::manual());
        one.assert_claim(SourceId(0), ObjectId(0), ValueId(1), 0, 0);
        one.assert_claim(SourceId(1), ObjectId(0), ValueId(1), 0, 1);
        assert!(one.seal());
        handle.publish_ingest(&one);

        let mut two = engine.ingest_session(SealPolicy::manual());
        two.assert_claim(SourceId(0), ObjectId(1), ValueId(2), 0, 2);
        assert!(two.seal());
        handle.publish_ingest(&two);

        // Regression: the ingest fold used to *replace* the stored stats
        // with the latest session's cumulative counters, so the second
        // session clobbered the first instead of adding to it.
        let metrics = handle.metrics();
        assert_eq!(metrics.ingest.events, 3, "2 from session one + 1 from two");
        assert_eq!(metrics.ingest.deltas_sealed, 2);

        // Re-publishing an unchanged session is a zero delta, and further
        // progress in either session folds additively.
        handle.publish_ingest(&one);
        assert_eq!(handle.metrics().ingest.events, 3);
        one.assert_claim(SourceId(2), ObjectId(0), ValueId(1), 0, 3);
        assert!(one.seal());
        handle.publish_ingest(&one);
        let metrics = handle.metrics();
        assert_eq!(metrics.ingest.events, 4);
        assert_eq!(metrics.ingest.deltas_sealed, 3);
    }
}
