//! The serving handle: one per corpus, shared across every serving
//! thread.
//!
//! [`ServeHandle`] owns the engine, the [`EpochPointer`] holding the
//! current [`Analysis`], and the metrics layer. It is `Clone` (cheap —
//! one `Arc` bump) and `Send + Sync`, so ingestion and serving threads
//! share the same handle. Each serving thread additionally holds a
//! [`ServeReader`] — the generation-validated cached `Arc` that makes the
//! steady-state read path a single atomic load.
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
use sailing::{Analysis, SailingError};

use crate::epoch::EpochPointer;
use crate::metrics::{Endpoint, MetricsSnapshot, ServeMetrics};

/// Re-exported from `sailing-core`: the per-source summary
/// `source_reports` returns.
pub use sailing::core::SourceReport;

/// Serving-tier health: is the current epoch the freshest admissible
/// analysis, or is the handle serving its **last good** epoch because
/// refreshes keep failing?
///
/// Degradation is entered and left by [`ServeHandle::refresh`]: an
/// analysis the discovery watchdog ended without convergence
/// ([`sailing::core::Termination::is_watchdog_stop`]) is *not*
/// published — readers keep answering from the previous epoch
/// (stale-while-revalidate) and the handle reports `Degraded` until a
/// refresh converges again. Surfaces in
/// [`MetricsSnapshot::healthy`](crate::MetricsSnapshot) for dashboards.
#[derive(Debug, Clone)]
pub enum Health {
    /// The most recent refresh (or admission) published a fresh epoch.
    Healthy,
    /// At least one refresh has failed since the last good epoch; the
    /// handle keeps serving that last good analysis.
    Degraded {
        /// When the current run of failed refreshes began (preserved
        /// across consecutive failures, so dashboards see how long the
        /// tier has been stale).
        since: Instant,
        /// Why the most recent refresh was refused publication.
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
    /// rare refresh path, never on reads. Poison-recovered like the
    /// epoch pointer — a panicking refresher must not stop health
    /// reporting.
    health: Mutex<Health>,
}

/// A shareable handle serving one corpus's current analysis.
///
/// See the [crate docs](crate) for the full tour. In short:
///
/// * [`ServeHandle::admit`] analyzes a snapshot (through the engine's
///   single-flight cache) and publishes it as the new epoch;
/// * [`ServeHandle::reader`] hands out the per-thread lock-free read
///   path;
/// * the query methods on the handle itself ([`ServeHandle::top_k`] &c.)
///   load the current epoch per call — correct from any thread, just one
///   mutex touch slower than a [`ServeReader`] in a tight loop;
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
    /// returning the (possibly cache-shared) analysis.
    ///
    /// The analysis goes through the engine's cache, so re-admitting the
    /// snapshot that is already current is cheap and does **not** bump
    /// the epoch generation — readers' cached clones stay valid, and a
    /// thundering herd of identical admissions swaps the pointer at most
    /// once (the engine's single-flight admission guarantees they all
    /// hold the *same* `Arc`'d result, which is what makes the
    /// pointer-equality dedup in [`EpochPointer::publish`] effective).
    pub fn admit(&self, snapshot: Arc<SnapshotView>) -> Arc<Analysis> {
        let start = Instant::now();
        let analysis = Arc::new(self.inner.engine.analyze_owned(snapshot));
        self.publish(analysis, start)
    }

    /// Like [`ServeHandle::admit`], but **refuses to publish an analysis
    /// the discovery watchdog ended without convergence** — a deadline
    /// overrun or a detected limit cycle (see
    /// [`sailing::engine::SailingEngineBuilder::discovery_watchdog`]).
    /// On such a failure the handle keeps serving the last good epoch
    /// (stale-while-revalidate), flips [`ServeHandle::health`] to
    /// [`Health::Degraded`], and returns the *currently served* analysis
    /// rather than the refused one. A later refresh that converges
    /// publishes normally and restores [`Health::Healthy`].
    ///
    /// `admit` keeps its historical publish-unconditionally semantics;
    /// use `refresh` from ingestion loops that must never regress the
    /// served answers.
    pub fn refresh(&self, snapshot: Arc<SnapshotView>) -> Arc<Analysis> {
        let start = Instant::now();
        let analysis = Arc::new(self.inner.engine.analyze_owned(snapshot));
        self.publish_gated(analysis, start)
    }

    /// Like [`ServeHandle::refresh`], but publishes an **already
    /// computed** analysis instead of analyzing a snapshot through the
    /// engine's cache. Same gating: a watchdog-stopped analysis is
    /// refused, the last good epoch keeps serving, and
    /// [`ServeHandle::health`] flips to [`Health::Degraded`].
    ///
    /// This is the publication path for **streaming ingestion**
    /// ([`IngestSession::analysis`]): incremental results are computed
    /// outside the engine's analysis cache (they match a full re-analysis
    /// to ~1e-9, not bit-for-bit), so `refresh` would wastefully re-run
    /// full discovery. Most callers want
    /// [`ServeHandle::publish_ingest`], which also folds the session's
    /// counters into [`MetricsSnapshot`].
    pub fn refresh_analysis(&self, analysis: Arc<Analysis>) -> Arc<Analysis> {
        let start = Instant::now();
        self.publish_gated(analysis, start)
    }

    /// Publishes an ingestion session's current analysis (through the
    /// [`ServeHandle::refresh_analysis`] gating) and records its
    /// [`IngestStats`](sailing::IngestStats) for [`ServeHandle::metrics`].
    /// Call once per sealed epoch.
    pub fn publish_ingest(&self, session: &IngestSession) -> Arc<Analysis> {
        self.note_ingest(session);
        self.refresh_analysis(Arc::new(session.analysis()))
    }

    /// Folds a streaming ingestion session's counters into
    /// [`ServeHandle::metrics`] without publishing anything. Safe to call
    /// from several sessions feeding one handle: each session's
    /// cumulative stats are tracked by [`IngestSession::session_id`] and
    /// only the per-session delta is added, so the additive metrics
    /// fields never reset or clobber.
    pub fn note_ingest(&self, session: &IngestSession) {
        self.inner
            .metrics
            .note_ingest(session.session_id(), session.stats());
    }

    /// The shared gated-publication tail of
    /// [`refresh`](ServeHandle::refresh) /
    /// [`refresh_analysis`](ServeHandle::refresh_analysis).
    fn publish_gated(&self, analysis: Arc<Analysis>, start: Instant) -> Arc<Analysis> {
        if analysis.termination().is_watchdog_stop() {
            let reason = format!(
                "refresh analysis ended without converging: {:?}",
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
            self.inner.metrics.record(Endpoint::Admit, start.elapsed());
            return self.current();
        }
        let published = self.publish(analysis, start);
        *self.lock_health() = Health::Healthy;
        published
    }

    /// The publication tail shared by [`admit`](ServeHandle::admit) and
    /// [`publish_gated`](ServeHandle::publish_gated): swap `analysis` in
    /// as the current epoch, count the swap, and record the admission
    /// latency since `start`.
    fn publish(&self, analysis: Arc<Analysis>, start: Instant) -> Arc<Analysis> {
        // Adopt the already-published Arc when the analysis is
        // value-identical (same shared pipeline result), so ptr_eq dedup
        // keeps re-admissions from bumping the generation.
        let published = {
            let current = self.inner.epoch.load();
            if Arc::ptr_eq(&current.result_arc(), &analysis.result_arc())
                && Arc::ptr_eq(&current.snapshot_arc(), &analysis.snapshot_arc())
            {
                current
            } else {
                analysis
            }
        };
        if self.inner.epoch.publish(Arc::clone(&published)) {
            self.inner.metrics.note_swap();
        }
        self.inner.metrics.record(Endpoint::Admit, start.elapsed());
        published
    }

    /// The serving tier's current health — [`Health::Degraded`] while
    /// [`ServeHandle::refresh`] failures leave it serving a stale epoch.
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
    /// the current analysis — the lock-free hot read path.
    pub fn reader(&self) -> ServeReader {
        let (cached, seen) = self.inner.epoch.load_tagged();
        ServeReader {
            handle: self.clone(),
            cached,
            seen,
        }
    }

    /// Dependence-aware top-k answering for `object` under the current
    /// epoch.
    pub fn top_k(&self, object: ObjectId, k: usize, policy: &OrderingPolicy) -> TopKResult {
        let start = Instant::now();
        let out = self.current().top_k(object, k, policy);
        self.inner.metrics.record(Endpoint::TopK, start.elapsed());
        out
    }

    /// The current epoch's full fusion outcome.
    pub fn fuse(&self) -> FusionOutcome {
        let start = Instant::now();
        let out = self.current().fuse();
        self.inner.metrics.record(Endpoint::Fuse, start.elapsed());
        out
    }

    /// Goal-directed source recommendations under the current epoch.
    pub fn recommend(&self, goal: Goal, limit: usize) -> Vec<Recommendation> {
        let start = Instant::now();
        let out = self.current().recommend(goal, limit);
        self.inner
            .metrics
            .record(Endpoint::Recommend, start.elapsed());
        out
    }

    /// Per-source reports under the current epoch.
    pub fn source_reports(&self) -> Vec<SourceReport> {
        let start = Instant::now();
        let out = self.current().source_reports().to_vec();
        self.inner
            .metrics
            .record(Endpoint::SourceReports, start.elapsed());
        out
    }

    /// Snapshots the serve metrics, nesting the engine's
    /// [`CacheStats`](sailing::CacheStats) (and through it the store's
    /// persistence stats) and the current [`Health`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .snapshot(self.inner.engine.cache_stats(), &self.health())
    }

    /// Drains the engine's retained deferred persistence errors
    /// ([`SailingError::PersistDeferred`] values from background store
    /// writes that failed after their analysis was already served).
    /// Counts stay visible in `cache.persist.write_errors` of
    /// [`ServeHandle::metrics`];
    /// this hands over the errors themselves, clearing the retained list.
    pub fn take_persist_write_errors(&self) -> Vec<SailingError> {
        self.inner.engine.take_persist_write_errors()
    }

    /// The engine behind the handle, for admission-adjacent work (e.g.
    /// attaching history, inspecting parameters).
    pub fn engine(&self) -> &SailingEngine {
        &self.inner.engine
    }
}

/// A per-thread read path over a [`ServeHandle`]: caches the current
/// `Arc<Analysis>` and revalidates it with one atomic generation load per
/// request, touching the epoch mutex only right after a swap.
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

    /// The handle this reader serves from.
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// Dependence-aware top-k answering for `object`.
    pub fn top_k(&mut self, object: ObjectId, k: usize, policy: &OrderingPolicy) -> TopKResult {
        let start = Instant::now();
        let out = self.current().top_k(object, k, policy);
        self.handle
            .inner
            .metrics
            .record(Endpoint::TopK, start.elapsed());
        out
    }

    /// The current epoch's full fusion outcome.
    pub fn fuse(&mut self) -> FusionOutcome {
        let start = Instant::now();
        let out = self.current().fuse();
        self.handle
            .inner
            .metrics
            .record(Endpoint::Fuse, start.elapsed());
        out
    }

    /// Goal-directed source recommendations.
    pub fn recommend(&mut self, goal: Goal, limit: usize) -> Vec<Recommendation> {
        let start = Instant::now();
        let out = self.current().recommend(goal, limit);
        self.handle
            .inner
            .metrics
            .record(Endpoint::Recommend, start.elapsed());
        out
    }

    /// Per-source reports.
    pub fn source_reports(&mut self) -> Vec<SourceReport> {
        let start = Instant::now();
        let out = self.current().source_reports().to_vec();
        self.handle
            .inner
            .metrics
            .record(Endpoint::SourceReports, start.elapsed());
        out
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

        let halevy = store.object_id("Halevy").unwrap();
        let top = handle.top_k(halevy, 1, &OrderingPolicy::ByAccuracy);
        assert_eq!(Some(top.top[0].0), truth.value(halevy));
        let outcome = handle.fuse();
        assert_eq!(
            outcome.decisions_sorted().get(&halevy).copied(),
            truth.value(halevy)
        );
        assert!(!handle.recommend(Goal::TruthSeeking, 3).is_empty());
        assert_eq!(
            handle.source_reports().len(),
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
        // No deferred persistence configured: nothing to drain.
        assert!(handle.take_persist_write_errors().is_empty());
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
        handle.note_ingest(&one);

        let mut two = engine.ingest_session(SealPolicy::manual());
        two.assert_claim(SourceId(0), ObjectId(1), ValueId(2), 0, 2);
        assert!(two.seal());
        handle.note_ingest(&two);

        // Regression: note_ingest used to *replace* the stored stats with
        // the latest session's cumulative counters, so the second session
        // clobbered the first instead of adding to it.
        let metrics = handle.metrics();
        assert_eq!(metrics.ingest.events, 3, "2 from session one + 1 from two");
        assert_eq!(metrics.ingest.deltas_sealed, 2);

        // Re-publishing an unchanged session is a zero delta, and further
        // progress in either session folds additively.
        handle.note_ingest(&one);
        assert_eq!(handle.metrics().ingest.events, 3);
        one.assert_claim(SourceId(2), ObjectId(0), ValueId(1), 0, 3);
        assert!(one.seal());
        handle.note_ingest(&one);
        let metrics = handle.metrics();
        assert_eq!(metrics.ingest.events, 4);
        assert_eq!(metrics.ingest.deltas_sealed, 3);
    }
}
