//! The serve-level metrics layer: per-endpoint request counters and
//! latency histograms, snapshotted together with the engine's
//! [`CacheStats`] and the folded [`IngestStats`] into one cheap
//! [`MetricsSnapshot`]. The lower layers' stats values are nested whole,
//! never copied field by field.
//!
//! Recording is lock-free (one relaxed counter bump plus one histogram
//! bucket bump per request) so the metrics layer never becomes the
//! serialization point the epoch pointer was designed to avoid.
//! Snapshotting reads ~200 atomics — cheap enough to poll from a stats
//! endpoint or after every benchmark phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sailing::{CacheStats, IngestStats};
use serde::Serialize;

use crate::handle::Health;
use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// The serving tier's instrumented endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// [`ServeHandle::top_k`](crate::ServeHandle::top_k) — dependence-aware
    /// top-k answering for one object.
    TopK,
    /// [`ServeHandle::fuse`](crate::ServeHandle::fuse) — the full fusion
    /// outcome of the current epoch.
    Fuse,
    /// [`ServeHandle::recommend`](crate::ServeHandle::recommend) —
    /// goal-directed source recommendation.
    Recommend,
    /// [`ServeHandle::source_reports`](crate::ServeHandle::source_reports)
    /// — per-source accuracy/coverage/copier summaries.
    SourceReports,
    /// [`ServeHandle::admit`](crate::ServeHandle::admit) — snapshot
    /// admission (analysis + epoch publication).
    Admit,
}

impl Endpoint {
    /// Every instrumented endpoint, in display order.
    pub const ALL: [Endpoint; 5] = [
        Endpoint::TopK,
        Endpoint::Fuse,
        Endpoint::Recommend,
        Endpoint::SourceReports,
        Endpoint::Admit,
    ];

    /// Stable display/serialization name.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::TopK => "top_k",
            Endpoint::Fuse => "fuse",
            Endpoint::Recommend => "recommend",
            Endpoint::SourceReports => "source_reports",
            Endpoint::Admit => "admit",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::TopK => 0,
            Endpoint::Fuse => 1,
            Endpoint::Recommend => 2,
            Endpoint::SourceReports => 3,
            Endpoint::Admit => 4,
        }
    }
}

/// One endpoint's live counters.
#[derive(Debug, Default)]
struct EndpointRecorder {
    requests: AtomicU64,
    latency: LatencyHistogram,
}

/// Folded ingest counters: additive totals across every session that has
/// published through this handle, plus the last cumulative stats seen per
/// session so a re-publication folds only its delta. Without the
/// per-session memory, two live sessions (or a recreated one) would
/// clobber each other's cumulative counts.
#[derive(Debug, Default)]
struct IngestFold {
    totals: IngestStats,
    /// `(session_id, last cumulative stats seen from it)`. A linear Vec:
    /// a handle sees a handful of sessions over its lifetime, and folds
    /// happen at epoch cadence, never on the request hot path.
    last_seen: Vec<(u64, IngestStats)>,
}

/// The live metrics a [`ServeHandle`](crate::ServeHandle) records into.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    endpoints: [EndpointRecorder; 5],
    epoch_swaps: AtomicU64,
    /// Counters folded from the streaming ingestion session(s) feeding
    /// this handle (if any). A mutex, not atomics: ingestion publishes at
    /// epoch cadence, never on the per-request hot path.
    ingest: Mutex<IngestFold>,
}

impl ServeMetrics {
    /// Records one request against `endpoint`.
    pub(crate) fn record(&self, endpoint: Endpoint, elapsed: Duration) {
        let recorder = &self.endpoints[endpoint.index()];
        recorder.requests.fetch_add(1, Ordering::Relaxed);
        recorder
            .latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records an epoch publication that actually swapped the pointer.
    pub(crate) fn note_swap(&self) {
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one session's cumulative counters into the retained totals.
    ///
    /// `stats` is cumulative *for that session*; the fold subtracts the
    /// last stats seen under the same `session_id` so only the new delta
    /// is added — additive fields stay additive across sessions, and the
    /// latest-value fields (`dirty_objects_last` &c.) take the incoming
    /// session's view.
    pub(crate) fn note_ingest(&self, session_id: u64, stats: IngestStats) {
        let mut fold = self
            .ingest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let last = match fold.last_seen.iter_mut().find(|(id, _)| *id == session_id) {
            Some((_, last)) => std::mem::replace(last, stats),
            None => {
                fold.last_seen.push((session_id, stats));
                IngestStats::default()
            }
        };
        let totals = &mut fold.totals;
        totals.events += stats.events.saturating_sub(last.events);
        totals.deltas_sealed += stats.deltas_sealed.saturating_sub(last.deltas_sealed);
        totals.incremental_runs += stats.incremental_runs.saturating_sub(last.incremental_runs);
        totals.full_fallbacks += stats.full_fallbacks.saturating_sub(last.full_fallbacks);
        totals.dirty_objects_total += stats
            .dirty_objects_total
            .saturating_sub(last.dirty_objects_total);
        totals.iterations_total += stats.iterations_total.saturating_sub(last.iterations_total);
        totals.dirty_objects_last = stats.dirty_objects_last;
        totals.dirty_sources_last = stats.dirty_sources_last;
        totals.last_outcome = stats.last_outcome;
    }

    /// Snapshots every counter, nesting the engine's cache stats and the
    /// handle's current health.
    pub(crate) fn snapshot(&self, cache: CacheStats, health: &Health) -> MetricsSnapshot {
        let endpoints = Endpoint::ALL
            .iter()
            .map(|&e| {
                let recorder = &self.endpoints[e.index()];
                let latency = recorder.latency.snapshot();
                let to_us = |q: Option<f64>| q.map_or(0.0, |nanos| nanos / 1000.0);
                EndpointStats {
                    endpoint: e.name(),
                    requests: recorder.requests.load(Ordering::Relaxed),
                    p50_us: to_us(latency.quantile(0.5)),
                    p99_us: to_us(latency.quantile(0.99)),
                    mean_us: to_us(latency.mean_nanos()),
                    latency,
                }
            })
            .collect();
        let (healthy, degraded_reason, degraded_for_secs) = match health {
            Health::Healthy => (true, None, 0.0),
            Health::Degraded { since, reason } => {
                (false, Some(reason.clone()), since.elapsed().as_secs_f64())
            }
        };
        MetricsSnapshot {
            endpoints,
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            cache,
            ingest: self
                .ingest
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .totals,
            healthy,
            degraded_reason,
            degraded_for_secs,
        }
    }
}

/// One endpoint's counters at snapshot time.
#[derive(Debug, Clone, Serialize)]
pub struct EndpointStats {
    /// Endpoint name ([`Endpoint::name`]).
    pub endpoint: &'static str,
    /// Requests served since the handle was created.
    pub requests: u64,
    /// Median latency in microseconds (0 while unused).
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds (0 while unused).
    pub p99_us: f64,
    /// Mean latency in microseconds — exact, not bucketed (0 while
    /// unused).
    pub mean_us: f64,
    /// The full fixed-bucket histogram, for callers that want other
    /// quantiles.
    pub latency: HistogramSnapshot,
}

/// Everything the serving tier can tell you about itself, in one cheap
/// value: per-endpoint request counts and latency quantiles, the epoch
/// swap count, and health — plus each lower layer's own stats value,
/// nested whole:
///
/// * [`MetricsSnapshot::cache`] — the engine's [`CacheStats`]
///   (memory-tier hits and misses, single-flight waits, the engine's disk
///   probes, sharded-analysis counters), which in turn nests the
///   persistent store's [`PersistStats`](sailing::persist::PersistStats)
///   as `cache.persist`: writes, the **deferred persistence failures**
///   (`write_errors`, `dropped` — background writes that failed or were
///   evicted unwritten after the originating analysis was served),
///   retries, breaker fast-fails, rejected files and the breaker's phase.
///   The retained errors themselves come from
///   [`ServeHandle::take_persist_write_errors`](crate::ServeHandle::take_persist_write_errors).
/// * [`MetricsSnapshot::ingest`] — the [`IngestStats`] folded across every
///   ingestion session published through this handle.
///
/// The JSON form mirrors this nesting: `cache`, `cache.persist` and
/// `ingest` are objects.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Per-endpoint stats, in [`Endpoint::ALL`] order.
    pub endpoints: Vec<EndpointStats>,
    /// Number of [`ServeHandle::admit`](crate::ServeHandle::admit) calls
    /// that actually changed the current epoch pointer.
    pub epoch_swaps: u64,
    /// The engine's analysis-cache stats at snapshot time, with the
    /// persistent store's stats nested as `cache.persist` (`None` without
    /// a store).
    pub cache: CacheStats,
    /// Ingestion counters folded across every session published through
    /// [`ServeHandle::publish_ingest`](crate::ServeHandle::publish_ingest):
    /// additive totals, and the latest session's `dirty_*_last` and
    /// `last_outcome` (all zero / `None` when no ingestion is wired).
    pub ingest: IngestStats,
    /// `false` while the handle is serving a stale last-good epoch
    /// because refreshes keep failing (see
    /// [`Health`]).
    pub healthy: bool,
    /// Why the most recent refresh was refused, when degraded.
    pub degraded_reason: Option<String>,
    /// Seconds since the current run of failed refreshes began (`0.0`
    /// when healthy).
    pub degraded_for_secs: f64,
}

impl MetricsSnapshot {
    /// The stats for one endpoint.
    ///
    /// # Panics
    /// Never — every [`Endpoint`] is present in every snapshot.
    pub fn endpoint(&self, endpoint: Endpoint) -> &EndpointStats {
        &self.endpoints[endpoint.index()]
    }

    /// Total requests across the four *query* endpoints (admissions not
    /// included).
    pub fn query_requests(&self) -> u64 {
        Endpoint::ALL
            .iter()
            .filter(|e| !matches!(e, Endpoint::Admit))
            .map(|&e| self.endpoint(e).requests)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let metrics = ServeMetrics::default();
        metrics.record(Endpoint::TopK, Duration::from_micros(10));
        metrics.record(Endpoint::TopK, Duration::from_micros(20));
        metrics.record(Endpoint::Fuse, Duration::from_micros(5));
        metrics.note_swap();

        let cache = {
            // Engine stats to fold in; only the counters matter here.
            let engine = sailing::engine::SailingEngine::with_defaults();
            engine.cache_stats()
        };
        let snap = metrics.snapshot(cache, &Health::Healthy);
        assert_eq!(snap.endpoint(Endpoint::TopK).requests, 2);
        assert!(snap.healthy);
        assert_eq!(snap.cache.persist, None, "no store attached");
        assert_eq!(snap.degraded_reason, None);
        assert_eq!(snap.endpoint(Endpoint::Fuse).requests, 1);
        assert_eq!(snap.endpoint(Endpoint::Recommend).requests, 0);
        assert_eq!(snap.endpoint(Endpoint::Recommend).p99_us, 0.0);
        assert_eq!(snap.epoch_swaps, 1);
        assert_eq!(snap.query_requests(), 3);
        let topk = snap.endpoint(Endpoint::TopK);
        assert!(topk.p50_us > 0.0 && topk.p50_us <= topk.p99_us);
        assert!((topk.mean_us - 15.0).abs() < 1.0);

        // The snapshot serializes (the bench and loadgen print it).
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"top_k\""), "{json}");
        assert!(json.contains("\"cache\":{\"hits\":0"), "{json}");
        assert!(json.contains("\"persist\":null"), "{json}");
        assert!(json.contains("\"last_outcome\":null"), "{json}");
    }

    #[test]
    fn note_ingest_folds_deltas_across_sessions() {
        let metrics = ServeMetrics::default();
        let cache = sailing::engine::SailingEngine::with_defaults().cache_stats();

        let mut a = IngestStats {
            events: 10,
            deltas_sealed: 2,
            incremental_runs: 1,
            full_fallbacks: 1,
            dirty_objects_last: 5,
            iterations_total: 100,
            ..IngestStats::default()
        };
        metrics.note_ingest(1, a);
        let b = IngestStats {
            events: 4,
            deltas_sealed: 1,
            full_fallbacks: 1,
            dirty_objects_last: 3,
            iterations_total: 30,
            ..IngestStats::default()
        };
        metrics.note_ingest(2, b);
        // Session 1 publishes again with cumulative growth; only the
        // delta since its last publication may be added.
        a.events += 6;
        a.deltas_sealed += 1;
        a.incremental_runs += 1;
        a.dirty_objects_last = 2;
        a.iterations_total += 20;
        metrics.note_ingest(1, a);

        let snap = metrics.snapshot(cache, &Health::Healthy);
        assert_eq!(snap.ingest.events, 20, "10 + 4 + 6");
        assert_eq!(snap.ingest.deltas_sealed, 4);
        assert_eq!(snap.ingest.incremental_runs, 2);
        assert_eq!(snap.ingest.full_fallbacks, 2);
        assert_eq!(snap.ingest.iterations_total, 150);
        assert_eq!(snap.ingest.dirty_objects_last, 2, "latest wins");

        // Re-publishing unchanged stats folds a zero delta.
        metrics.note_ingest(1, a);
        assert_eq!(metrics.snapshot(cache, &Health::Healthy).ingest.events, 20);

        // A recreated session (fresh id, counters from zero) adds to the
        // totals instead of resetting them — the old clobber bug.
        let c = IngestStats {
            events: 1,
            ..IngestStats::default()
        };
        metrics.note_ingest(3, c);
        assert_eq!(metrics.snapshot(cache, &Health::Healthy).ingest.events, 21);
    }

    #[test]
    fn endpoint_names_are_stable_and_indexed() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        assert_eq!(Endpoint::TopK.name(), "top_k");
        assert_eq!(Endpoint::Admit.name(), "admit");
    }
}
