//! # sailing-persist
//!
//! The persistent cross-process analysis store: computed
//! [`PipelineResult`]s written to disk in a **versioned, checksummed**
//! format (whatever the strategy returned — like the in-memory tier, a
//! capped-out non-converged result is stored too, with its `converged`
//! flag intact, so downstream gates such as the timeline's
//! converged-prior chain keep working across processes), keyed by the
//! analyzed snapshot's
//! [content hash](SnapshotView::content_hash) plus the computation's
//! warm/cold provenance — so a second process (or a re-run after restart)
//! over the same snapshots gets cheap disk hits instead of cold
//! truth-discovery runs. This is the durable tier under the `sailing`
//! facade's in-memory analysis cache.
//!
//! # Write modes
//!
//! Both modes queue entries in one write-behind buffer and empty it
//! through **one drain barrier**; they differ only in who does the
//! writing.
//!
//! * A store opened with [`PersistentStore::open`] is **synchronous**:
//!   the barrier writes the buffer on the calling thread. It runs on
//!   [`PersistentStore::flush`], automatically every few `put`s, before
//!   [`PersistentStore::compact`] sweeps, and on drop — a hot analysis
//!   loop occasionally pays a filesystem batch.
//! * A store opened with [`StoreOptions::async_writer`] owns a
//!   **background writer thread**: `put` enqueues onto a bounded
//!   in-memory queue and returns **without any filesystem syscall**, and
//!   the writer runs the same batch step the barrier would. The barrier
//!   then only waits for the writer. Dropping the last handle waits with
//!   a deadline ([`SHUTDOWN_DRAIN_DEADLINE`]); a filesystem that hangs
//!   past it gets the writer detached rather than the process wedged —
//!   unwritten entries are caches of recomputable work.
//!
//! In both modes an entry stays visible to [`PersistentStore::get`] from
//! the moment `put` returns until it is durably renamed into place from
//! its unique temp file, so a just-put analysis never reads as a miss,
//! not even while its write is in flight. [`PersistentStore::flush`] returns
//! once every entry queued before the call has been written (or failed),
//! whichever thread wrote it; two concurrent flushes never write one
//! batch twice — the later one waits for the batch in flight.
//!
//! **Deferred errors are never silently lost.** Every failed write is
//! counted in [`PersistStats::write_errors`]. A failure no caller is
//! waiting for (a background write, an automatic flush, the drain before
//! a compaction) is retained as a [`SailingError::PersistDeferred`] for
//! [`PersistentStore::take_write_errors`]. `flush()` has one contract in
//! both modes: it returns the first failure of a batch it wrote itself,
//! otherwise the oldest deferred failure, otherwise the number of entries
//! written during the call:
//!
//! ```
//! use sailing_persist::{PersistentStore, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("sailing-doc-async-{}", std::process::id()));
//! let store = PersistentStore::open_with(&dir, StoreOptions::async_writer(64))?;
//! // … puts happen on the analysis path, syscall-free …
//! store.flush()?; // drain barrier: everything enqueued is now on disk
//! for err in store.take_write_errors() {
//!     eprintln!("deferred store write failed: {err}");
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), sailing_model::SailingError>(())
//! ```
//!
//! # Sharing one directory across handles, processes, and machines
//!
//! Entry writes are atomic (unique temp file + rename), so a reader in
//! another process — or on another machine over a shared POSIX
//! filesystem — sees either the previous complete entry or the new one,
//! never a torn write. [`PersistentStore::compact`] is safe to run while
//! other handles keep reading and writing, via two mechanisms:
//!
//! * **One compactor at a time** — a `compact.lock` file taken with
//!   `O_CREAT|O_EXCL` (atomic on local and modern network filesystems).
//!   A contended `compact` returns [`CompactReport::contended`] instead
//!   of racing; a lock left by a crashed compactor goes stale after
//!   [`STALE_COMPACT_LOCK`] and is broken via a unique rename, so two
//!   waiting compactors can never each delete a successor's fresh lock.
//! * **Capture-validate-restore** — an entry that scans as invalid is
//!   never unlinked in place (a racing writer may have just renamed a
//!   fresh valid entry onto that very path). The compactor atomically
//!   *captures* the file by renaming it to a unique side name,
//!   re-validates the captured bytes, and either deletes them (still
//!   damage) or renames them back ([`CompactReport::restored`]) — so a
//!   concurrent `put` can never lose a valid just-written entry to the
//!   sweep, and a concurrent `get` sees a complete entry or a clean
//!   cold miss, never a half-swept one.
//!
//! # Coordination files
//!
//! Every file of a store — entries, blobs, claims, the compaction lock —
//! lives in its one root directory, at a path that is a pure function of
//! its name. Subdirectories are never read, counted, or swept, so a
//! `shards/` tree left by an older build's hash-prefix layout holds only
//! cold misses and may be deleted by hand. Alongside keyed entries, a
//! store carries **named
//! coordination files** for cooperating processes (the distributed
//! pair-shard analysis drives these):
//!
//! * [`PersistentStore::put_blob`] / [`get_blob`](PersistentStore::get_blob)
//!   — checksummed, atomically renamed payloads addressed by name
//!   (`<name>.blob`); any damage reads as `None`, like entries.
//! * [`PersistentStore::try_claim`] — an `O_CREAT|O_EXCL` marker
//!   (`<name>.claim`): exactly one process wins each name. Claims are
//!   advisory work-distribution hints, not locks — a claimed unit whose
//!   result never appears is simply recomputed by whoever needs it, so
//!   a crashed worker costs duplicated work, never liveness.
//!
//! Blob and claim files are invisible to the entry read path, `len`,
//! and compaction's entry sweep (only aged `.blob.tmp-` debris is
//! orphan-swept); the protocol built on them owns their lifecycle via
//! [`remove_blob`](PersistentStore::remove_blob) /
//! [`remove_claim`](PersistentStore::remove_claim).
//!
//! # Failure semantics
//!
//! Every filesystem touch goes through the [`StoreFs`] trait
//! ([`RealFs`] in production, [`FaultyFs`] under a scripted
//! [`FaultPlan`] in chaos tests), and the store layers three policies on
//! top of the raw syscalls:
//!
//! * **Retry with bounded exponential backoff** —
//!   [`StoreOptions::retry`]`(max_attempts, base_delay)` re-attempts a
//!   failed entry write up to `max_attempts` times total, sleeping
//!   `base_delay * 2^(attempt-1)` between attempts (a zero base delay
//!   retries immediately, which is what deterministic tests use). Each
//!   re-attempt is counted in [`PersistStats::retries`]; a write that
//!   eventually succeeds is **zero user-visible errors**.
//! * **Circuit breaker** — [`StoreOptions::breaker`]`(threshold,
//!   cooldown)` trips after `threshold` *consecutive* exhausted-retry
//!   failures: the breaker **opens** and `put` stops enqueueing (each
//!   refused entry counts in [`PersistStats::breaker_fast_fails`] — a
//!   future cold miss, but no queue churn and no doomed syscalls against
//!   a dead disk). After `cooldown`, the next `put` is admitted as a
//!   **half-open probe**: if its write succeeds the breaker closes and
//!   normal service resumes; if it fails the breaker re-opens for
//!   another cooldown. [`PersistStats::breaker`] reports the current
//!   [`BreakerState`]; the `sailing` facade nests the whole
//!   [`PersistStats`] in `CacheStats::persist`, and the serve tier nests
//!   that in its `MetricsSnapshot`.
//! * **Bounded shutdown** — dropping the last handle of an async store
//!   drains with a deadline ([`StoreOptions::shutdown_deadline`],
//!   default [`SHUTDOWN_DRAIN_DEADLINE`]); a filesystem hung past the
//!   deadline gets the writer detached rather than the process wedged.
//!
//! All three compose with the standing degradation contract: entries are
//! caches of recomputable work, so every contained failure is a future
//! cold miss — never data loss, never a torn entry served, never a
//! wedged analysis thread.
//!
//! # Format (version 1)
//!
//! One file per entry, named after the key
//! (`<snapshot_hash:016x>-<cold|provenance:016x>.sail`), laid out as:
//!
//! ```text
//! sailing-analysis-store v1 <payload_len> <checksum:016x>\n
//! { canonical JSON payload }
//! ```
//!
//! The payload is canonical JSON of `{snapshot_hash, provenance, snapshot,
//! result}`: no whitespace, keys in one fixed order, floats in
//! shortest-round-trip form so a load reproduces every `f64` bit for bit
//! (a non-finite float is written as `null` and read back as NaN). Unlike
//! the model types' legacy wire shapes (map-per-source snapshots,
//! map-keyed distributions), it is **compact by design**: flat numeric
//! arrays (`assertions: [s,o,v, …]`, `dists: [[v,p, v,p, …], …]`), no
//! string map keys, no redundant inverted index. One private codec writes
//! and reads it straight between the result types and bytes, with no JSON
//! tree in between, which makes a disk hit decisively cheaper than a
//! discovery re-run. Only that writer produces entries, so the reader takes
//! the **canonical layout only**: valid JSON that is re-spaced, reordered
//! or escaped is a clean miss like any other damage. The checksum is an
//! FxHash-style digest of the payload bytes: not cryptographic, but it
//! reliably catches truncation and bit rot.
//!
//! **Degradation contract:** a damaged, truncated, or
//! wrong-format-version file is *never* an error on the read path — every
//! validation failure degrades to a clean cold miss (counted in
//! [`PersistStats::rejected`]), and the caller simply re-runs discovery.
//! Only infrastructure failures (the directory cannot be created, a write
//! or rename fails) surface as [`SailingError::Persist`]. The stored
//! snapshot is replayed and compared against the requested one on every
//! hit, so a 64-bit hash collision also degrades to a miss rather than
//! serving another snapshot's analysis.
//!
//! **Version policy:** readers accept exactly [`FORMAT_VERSION`]. A
//! format change bumps the version, old files then read as misses (and
//! [`PersistentStore::compact`] sweeps them out); there is deliberately no
//! in-place migration — entries are caches of recomputable work, never
//! primary data.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sailing_core::AccuCopy;
//! use sailing_model::fixtures;
//! use sailing_persist::{PersistentStore, StoreKey};
//!
//! let dir = std::env::temp_dir().join(format!("sailing-doc-{}", std::process::id()));
//! let (store_fixture, _) = fixtures::table1();
//! let snapshot = Arc::new(store_fixture.snapshot());
//! let result = Arc::new(AccuCopy::with_defaults().run(&snapshot));
//! let key = StoreKey::cold(snapshot.content_hash());
//!
//! // First process: run discovery once, persist the converged result.
//! let store = PersistentStore::open(&dir)?;
//! store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
//! store.flush()?;
//!
//! // Second process: the same analysis is a disk hit — no discovery run.
//! let reopened = PersistentStore::open(&dir)?;
//! let (loaded_snap, loaded) = reopened.get(key, &snapshot).expect("disk hit");
//! assert_eq!(*loaded_snap, *snapshot);
//! assert_eq!(loaded.decisions_sorted(), result.decisions_sorted());
//! assert_eq!(reopened.stats().disk_hits, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), sailing_model::SailingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
pub mod fs;

pub use fs::{FaultPlan, FaultyFs, Gate, RealFs, RenameFault, StoreFs, WriteFault};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;

use sailing_core::PipelineResult;
use sailing_model::{fx_mix, SailingError, SnapshotView};

/// The on-disk format version this build writes and accepts. Files
/// carrying any other version read as cold misses.
pub const FORMAT_VERSION: u32 = 1;

/// Magic token opening every store file's header line.
pub const MAGIC: &str = "sailing-analysis-store";

/// File extension of store entries.
pub const ENTRY_EXTENSION: &str = "sail";

/// Pending writes buffered before a synchronous-mode
/// [`PersistentStore::flush`] runs automatically.
const AUTO_FLUSH_THRESHOLD: usize = 8;

/// Default bound of the async write-behind queue (entries).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default of [`StoreOptions::shutdown_deadline`]: how long dropping the
/// last handle of an async store waits for the writer thread to drain
/// before detaching it. A filesystem hung past the deadline loses the
/// unwritten tail — future cold misses, never a wedged process.
pub const SHUTDOWN_DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Age a stray side file (`.tmp-`, `.trash-`, stale-lock tomb) must reach
/// before [`PersistentStore::compact`] sweeps it as an orphan. A younger
/// side file may be another handle's *in-flight* write parked between
/// temp-file creation and rename — deleting it would fail that write for
/// no reason. Crash debris ages past this in seconds; a live write never
/// does.
pub const ORPHAN_SWEEP_AGE: Duration = Duration::from_secs(30);

/// Name of the advisory compaction lock file inside a store directory.
const COMPACT_LOCK_NAME: &str = "compact.lock";

/// File extension of named blobs ([`PersistentStore::put_blob`]).
pub const BLOB_EXTENSION: &str = "blob";

/// File extension of claim markers ([`PersistentStore::try_claim`]).
pub const CLAIM_EXTENSION: &str = "claim";

/// Magic token opening every named-blob file.
const BLOB_MAGIC: &str = "sailing-blob";

/// Age after which a `compact.lock` is presumed abandoned by a crashed
/// compactor and may be broken.
pub const STALE_COMPACT_LOCK: Duration = Duration::from_secs(30);

/// Cap on retained deferred write errors — beyond this only
/// [`PersistStats::write_errors`] keeps counting, so a long-dead disk
/// cannot grow an error list without bound.
const MAX_DEFERRED_ERRORS: usize = 32;

/// Key of one stored analysis: the snapshot's content hash plus the
/// computation's provenance — `None` for a cold run, `Some(digest of the
/// seeding prior)` for a warm-started one (see
/// [`PipelineResult::content_digest`]). The `sailing` facade keys its
/// in-memory cache and its in-flight table by this same type, so the two
/// tiers never confuse a warm-seeded result with a cold one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// [`SnapshotView::content_hash`] of the analyzed snapshot.
    pub snapshot_hash: u64,
    /// `None` for a cold run; the seeding prior's
    /// [`PipelineResult::content_digest`] for a warm-started one.
    pub provenance: Option<u64>,
}

impl StoreKey {
    /// Key of a cold (unseeded) analysis.
    pub fn cold(snapshot_hash: u64) -> Self {
        Self {
            snapshot_hash,
            provenance: None,
        }
    }

    /// Key of a warm-started analysis seeded from a prior with the given
    /// content digest.
    pub fn warm(snapshot_hash: u64, prior_digest: u64) -> Self {
        Self {
            snapshot_hash,
            provenance: Some(prior_digest),
        }
    }

    /// The entry file name this key maps to (the key is fully recoverable
    /// from the name, which is what lets `compact` cross-check files
    /// against their content).
    pub fn file_name(&self) -> String {
        match self.provenance {
            None => format!("{:016x}-cold.{ENTRY_EXTENSION}", self.snapshot_hash),
            Some(p) => format!("{:016x}-{p:016x}.{ENTRY_EXTENSION}", self.snapshot_hash),
        }
    }
}

/// How a [`PersistentStore`] moves buffered entries to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// `true` spawns a background writer thread owned by the store:
    /// [`PersistentStore::put`] becomes a syscall-free enqueue, and the
    /// drain barrier ([`PersistentStore::flush`]) waits for that thread.
    /// `false` (the default) runs the same barrier on the calling
    /// thread.
    pub async_writer: bool,
    /// Bound of the async queue, in entries. When the queue is full the
    /// **oldest unwritten** entry is evicted (counted in
    /// [`PersistStats::dropped`]) — a future cold miss, never a blocked
    /// analysis thread. Clamped to at least 1; ignored in synchronous
    /// mode.
    pub queue_depth: usize,
    /// Total write attempts per entry (first try included). `1` — the
    /// default — means no retry; see [`StoreOptions::retry`].
    pub retry_max_attempts: u32,
    /// Backoff before the first re-attempt; doubles each further attempt.
    /// [`Duration::ZERO`] retries immediately (deterministic tests).
    pub retry_base_delay: Duration,
    /// Consecutive exhausted-retry failures that trip the circuit
    /// breaker. `0` — the default — disables the breaker entirely; see
    /// [`StoreOptions::breaker`].
    pub breaker_threshold: u32,
    /// How long an open breaker refuses writes before admitting one
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// How long dropping the last handle of an async store waits for the
    /// writer to drain before detaching it. Defaults to
    /// [`SHUTDOWN_DRAIN_DEADLINE`].
    pub shutdown_deadline: Duration,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            async_writer: false,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            retry_max_attempts: 1,
            retry_base_delay: Duration::ZERO,
            breaker_threshold: 0,
            breaker_cooldown: Duration::ZERO,
            shutdown_deadline: SHUTDOWN_DRAIN_DEADLINE,
        }
    }
}

impl StoreOptions {
    /// Options for an async write-behind store with the given queue bound.
    pub fn async_writer(queue_depth: usize) -> Self {
        Self {
            async_writer: true,
            queue_depth,
            ..Self::default()
        }
    }

    /// Retries each failed entry write up to `max_attempts` total
    /// attempts (clamped to at least 1), backing off
    /// `base_delay * 2^(attempt-1)` between attempts. Re-attempts are
    /// counted in [`PersistStats::retries`]; a write that eventually
    /// succeeds surfaces no error anywhere.
    #[must_use]
    pub fn retry(mut self, max_attempts: u32, base_delay: Duration) -> Self {
        self.retry_max_attempts = max_attempts.max(1);
        self.retry_base_delay = base_delay;
        self
    }

    /// Arms the circuit breaker: after `threshold` consecutive
    /// exhausted-retry write failures the store stops enqueueing
    /// (refusals counted in [`PersistStats::breaker_fast_fails`]) until
    /// `cooldown` passes and a half-open probe write succeeds. See the
    /// [module docs](self#failure-semantics).
    #[must_use]
    pub fn breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Sets the async drop-drain deadline (default
    /// [`SHUTDOWN_DRAIN_DEADLINE`]). [`Duration::ZERO`] never waits:
    /// drop detaches the writer immediately.
    #[must_use]
    pub fn shutdown_deadline(mut self, deadline: Duration) -> Self {
        self.shutdown_deadline = deadline;
        self
    }
}

/// Externally visible phase of the persistence circuit breaker (see
/// [`StoreOptions::breaker`] and the
/// [module docs](self#failure-semantics)). A store without a breaker
/// configured always reports `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum BreakerState {
    /// Writes flow normally.
    #[default]
    Closed,
    /// Tripped: `put` fast-fails until the cooldown elapses.
    Open,
    /// One probe write is in flight; its outcome re-closes or re-opens
    /// the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (`"closed"` / `"open"` / `"half-open"`)
    /// for metrics surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
enum BreakerPhase {
    Closed,
    Open { since: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    consecutive_failures: u32,
    phase: BreakerPhase,
}

/// Counters of one store handle's activity (in-memory; they reset with the
/// process, while the entries themselves persist), plus the circuit
/// breaker's phase at sampling time. This is the persist layer's one stats
/// value: the `sailing` facade nests it whole in `CacheStats::persist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PersistStats {
    /// Lookups answered from disk (or the pending write buffer).
    pub disk_hits: u64,
    /// Lookups that found no usable entry.
    pub disk_misses: u64,
    /// Files that existed but failed validation (bad magic/version/
    /// checksum, damaged payload, snapshot mismatch) — each also counted
    /// as a miss.
    pub rejected: u64,
    /// Entries written to disk so far.
    pub writes: u64,
    /// Writes that failed at the filesystem level and were dropped. Each
    /// failure is also retained (up to a cap) for
    /// [`PersistentStore::take_write_errors`].
    pub write_errors: u64,
    /// Entries evicted **unwritten** because the bounded async queue was
    /// full — future cold misses taken instead of blocking the analysis
    /// thread.
    pub dropped: u64,
    /// Write re-attempts performed under [`StoreOptions::retry`]. A
    /// transient failure absorbed by retry shows up *only* here — never
    /// in [`PersistStats::write_errors`].
    pub retries: u64,
    /// Entries refused at `put` because the circuit breaker was open (or
    /// a half-open probe was already in flight) — future cold misses
    /// taken instead of queueing doomed writes.
    pub breaker_fast_fails: u64,
    /// The circuit breaker's phase when these stats were taken
    /// ([`BreakerState::Closed`] when no breaker is configured). Purely
    /// observational — admission decisions happen inside `put`.
    pub breaker: BreakerState,
}

/// Outcome of a [`PersistentStore::compact`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Entries that validated end to end and were kept.
    pub kept: usize,
    /// Damaged, stale-version, or misnamed entries removed.
    pub removed: usize,
    /// Entries that scanned as invalid but re-validated after capture — a
    /// racing writer republished the path mid-sweep — and were restored
    /// instead of deleted. Also counted in
    /// [`CompactReport::kept`].
    pub restored: usize,
    /// `true` when another compactor held the store's `compact.lock`, so
    /// this call swept nothing.
    pub contended: bool,
}

#[derive(Clone)]
struct PendingEntry {
    key: StoreKey,
    snapshot: Arc<SnapshotView>,
    result: Arc<PipelineResult>,
}

/// One queued entry plus its position in the global put order, so drain
/// barriers can wait for "everything enqueued before me".
struct SeqEntry {
    seq: u64,
    entry: PendingEntry,
}

/// Mutable queue state shared between callers and the writer thread.
struct QueueState {
    /// Entries visible to `get` and not yet durably renamed. Ascending
    /// `seq` order (puts append; a drain step removes what it wrote).
    pending: Vec<SeqEntry>,
    /// Next sequence number a `put` will take (first is 1).
    next_seq: u64,
    /// Every entry with `seq <= drained_through` has left the queue —
    /// written, failed, or evicted.
    drained_through: u64,
    /// Highest seq a drain step has claimed for writing. While
    /// `claimed_through > drained_through` a batch is in flight: a
    /// barrier waits for it instead of writing it twice, and queue-full
    /// eviction skips its entries (evicting one would count it both
    /// written and dropped, and free no memory — the batch holds a
    /// clone).
    claimed_through: u64,
    /// Set once by the dropping handle; the writer drains and exits.
    shutdown: bool,
    /// Cleared by the writer thread on exit.
    writer_alive: bool,
}

/// The handle-shared core: everything but the writer's `JoinHandle`.
struct StoreInner {
    dir: PathBuf,
    options: StoreOptions,
    /// Every filesystem touch goes through here — [`RealFs`] in
    /// production, [`FaultyFs`] under chaos tests.
    fs: Arc<dyn StoreFs>,
    state: Mutex<QueueState>,
    /// Wakes the writer thread: new work or shutdown.
    work_cv: Condvar,
    /// Wakes drain barriers after each batch and when the writer exits.
    drain_cv: Condvar,
    breaker: Mutex<Breaker>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    rejected: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    dropped: AtomicU64,
    retries: AtomicU64,
    breaker_fast_fails: AtomicU64,
    /// Deferred write failures, oldest first, capped at
    /// [`MAX_DEFERRED_ERRORS`].
    deferred: Mutex<Vec<SailingError>>,
    /// Every thread that has performed an entry filesystem write through
    /// this handle — the proof hook that the async path keeps analysis
    /// threads syscall-free.
    fs_write_threads: Mutex<Vec<ThreadId>>,
}

/// A durable store of computed analyses under one directory.
///
/// Handles are cheap to share behind an [`Arc`]; all methods take `&self`.
/// See the [module docs](self) for the two write modes (synchronous
/// write-behind vs a background writer thread), the drain-barrier `flush`
/// semantics, and the multi-handle compaction protocol. Entries are
/// written atomically (unique temp file + rename), so a reader in another
/// process sees either the previous state or the complete new entry,
/// never a torn write.
pub struct PersistentStore {
    inner: Arc<StoreInner>,
    /// The background writer, when [`StoreOptions::async_writer`] is on.
    writer: Option<JoinHandle<()>>,
}

/// Poison recovery: a panic on *another* thread while it held a store
/// lock must not convert every later `get`/`put` on this shared cache
/// into a panic cascade. The guarded data stays structurally valid across
/// an unwind (worst case: an entry is re-written or re-reported, which
/// the store format and stats contract already tolerate), so the poison
/// flag is deliberately ignored.
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl StoreInner {
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        recover(self.state.lock())
    }

    fn push_deferred(&self, err: SailingError) {
        let mut deferred = recover(self.deferred.lock());
        if deferred.len() < MAX_DEFERRED_ERRORS {
            deferred.push(err);
        }
    }

    /// Writes one entry through [`StoreInner::publish`], recording the
    /// calling thread in the syscall-proof hook.
    fn write_entry(&self, e: &PendingEntry) -> Result<(), SailingError> {
        {
            let mut threads = recover(self.fs_write_threads.lock());
            let id = std::thread::current().id();
            if !threads.contains(&id) {
                threads.push(id);
            }
        }
        self.publish(
            &e.key.file_name(),
            &entry::encode(e.key, &e.snapshot, &e.result),
        )
    }

    /// The one atomic publish, for entries and blobs alike: writes
    /// `bytes` to a unique temp file in the store directory, then renames
    /// it into place under `file_name`. A reader sees the previous file or
    /// the complete new one, never a torn write; a failed rename removes
    /// its temp file.
    fn publish(&self, file_name: &str, bytes: &[u8]) -> Result<(), SailingError> {
        // The temp name must be unique per *write*, not just per process:
        // two in-process writers can race on one name (two handles
        // sharing a dir, two publishers of one blob), and a shared temp
        // path would let one write truncate the other mid-stream and
        // publish a torn file.
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let final_path = self.dir.join(file_name);
        let tmp_path = self.dir.join(format!(
            "{file_name}.tmp-{}-{}",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.fs
            .write(&tmp_path, bytes)
            .map_err(|err| SailingError::persist(tmp_path.display().to_string(), err))?;
        self.fs.rename(&tmp_path, &final_path).map_err(|err| {
            let _ = self.fs.remove_file(&tmp_path);
            SailingError::persist(final_path.display().to_string(), err)
        })
    }

    /// [`StoreInner::write_entry`] plus the resilience policies: bounded
    /// exponential-backoff retry, then a breaker transition on the final
    /// outcome. [`StoreInner::write_claimed`] writes every queued entry
    /// through here, so the policies apply uniformly.
    fn write_entry_resilient(&self, e: &PendingEntry) -> Result<(), SailingError> {
        let max_attempts = self.options.retry_max_attempts.max(1);
        let mut attempt = 0u32;
        let outcome = loop {
            attempt += 1;
            match self.write_entry(e) {
                Ok(()) => break Ok(()),
                Err(_transient) if attempt < max_attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self
                        .options
                        .retry_base_delay
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                Err(err) => break Err(err),
            }
        };
        self.breaker_record(outcome.is_ok());
        outcome
    }

    /// Breaker admission check for `put`. `true` admits the entry;
    /// `false` refuses it (the caller counts the fast-fail). An open
    /// breaker whose cooldown has elapsed flips to half-open and admits
    /// exactly this entry as the probe.
    fn breaker_admits(&self) -> bool {
        if self.options.breaker_threshold == 0 {
            return true;
        }
        let mut b = recover(self.breaker.lock());
        match b.phase {
            BreakerPhase::Closed => true,
            // A probe is already in flight; don't pile more on.
            BreakerPhase::HalfOpen => false,
            BreakerPhase::Open { since } => {
                if since.elapsed() >= self.options.breaker_cooldown {
                    b.phase = BreakerPhase::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Feeds one exhausted-retry write outcome into the breaker. A
    /// failure during the open phase (an entry queued before the trip)
    /// deliberately does **not** refresh `since` — only a failed
    /// half-open probe restarts the cooldown.
    fn breaker_record(&self, ok: bool) {
        if self.options.breaker_threshold == 0 {
            return;
        }
        let mut b = recover(self.breaker.lock());
        if ok {
            b.consecutive_failures = 0;
            b.phase = BreakerPhase::Closed;
            return;
        }
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        match b.phase {
            BreakerPhase::HalfOpen => {
                b.phase = BreakerPhase::Open {
                    since: Instant::now(),
                };
            }
            BreakerPhase::Closed if b.consecutive_failures >= self.options.breaker_threshold => {
                b.phase = BreakerPhase::Open {
                    since: Instant::now(),
                };
            }
            _ => {}
        }
    }

    /// The one batch step that writes queued entries. It claims every
    /// pending entry with `seq <= target` and writes them with the lock
    /// released while they stay in `pending`, so `get` keeps serving them
    /// until they are renamed. It then defers the failures and only after
    /// that removes the batch and advances the drain watermark to
    /// `target`: a barrier woken by the watermark always finds the
    /// batch's failures already deferred. With `defer_all` every failure
    /// is deferred; otherwise the first is returned to the calling
    /// barrier. The caller ensures no other batch is in flight.
    fn write_claimed<'a>(
        &'a self,
        mut st: MutexGuard<'a, QueueState>,
        target: u64,
        defer_all: bool,
    ) -> (MutexGuard<'a, QueueState>, Option<SailingError>) {
        st.claimed_through = target;
        let batch: Vec<PendingEntry> = st
            .pending
            .iter()
            .take_while(|p| p.seq <= target)
            .map(|p| p.entry.clone())
            .collect();
        drop(st);
        let mut first_error = None;
        for e in &batch {
            match self.write_entry_resilient(e) {
                Ok(()) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => {
                    self.write_errors.fetch_add(1, Ordering::Relaxed);
                    if defer_all || first_error.is_some() {
                        self.push_deferred(err.into_deferred());
                    } else {
                        first_error = Some(err);
                    }
                }
            }
        }
        let mut st = self.lock_state();
        // Every pending seq <= target was in the batch (puts append larger
        // seqs; dedupe and eviction only remove), so that range is
        // exactly what was written.
        st.pending.retain(|p| p.seq > target);
        st.drained_through = target;
        self.drain_cv.notify_all();
        (st, first_error)
    }

    /// The one drain barrier: returns once every entry queued before the
    /// call has left the queue — written, failed, or evicted. While a
    /// writer thread is alive, or another caller's batch is in flight, it
    /// waits for them; otherwise it writes the rest itself through
    /// [`StoreInner::write_claimed`], which is all a synchronous store
    /// ever does. `Some(Err)` carries the first failure of a batch this
    /// call wrote (never with `defer_all`); `None` means `deadline`
    /// passed first.
    fn drain(
        &self,
        deadline: Option<Instant>,
        defer_all: bool,
    ) -> Option<Result<(), SailingError>> {
        let mut st = self.lock_state();
        let target = st.next_seq - 1;
        let mut first_error = None;
        while st.drained_through < target {
            if st.writer_alive || st.claimed_through > st.drained_through {
                st = match deadline {
                    None => recover(self.drain_cv.wait(st)),
                    Some(deadline) => {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return None;
                        }
                        self.drain_cv
                            .wait_timeout(st, remaining)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            } else {
                let (guard, err) = self.write_claimed(st, target, defer_all);
                st = guard;
                first_error = err;
            }
        }
        Some(first_error.map_or(Ok(()), Err))
    }

    /// The background writer: waits for queued work or shutdown, then
    /// runs the batch step over everything queued so far. Every failure
    /// is deferred — its `put` has already returned.
    fn writer_loop(self: &Arc<Self>) {
        let mut st = self.lock_state();
        loop {
            while st.pending.is_empty() && !st.shutdown {
                st = recover(self.work_cv.wait(st));
            }
            if st.pending.is_empty() {
                break; // shutdown with nothing left to drain
            }
            let target = st.next_seq - 1;
            st = self.write_claimed(st, target, true).0;
        }
        st.writer_alive = false;
        drop(st);
        self.drain_cv.notify_all();
    }
}

impl PersistentStore {
    /// Opens (creating if necessary) a store rooted at `dir`, in the
    /// default synchronous write-behind mode.
    ///
    /// # Errors
    /// [`SailingError::Persist`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SailingError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens a store with explicit [`StoreOptions`] — in particular the
    /// async write-behind mode, which spawns the background writer thread
    /// this call's handle owns.
    ///
    /// # Errors
    /// [`SailingError::Persist`] when the directory cannot be created.
    pub fn open_with(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Self, SailingError> {
        Self::open_with_fs(dir, options, Arc::new(RealFs))
    }

    /// Opens a store whose every filesystem touch goes through `fs` —
    /// [`RealFs`] in production (what [`PersistentStore::open_with`]
    /// passes), a [`FaultyFs`] under a scripted [`FaultPlan`] in chaos
    /// tests.
    ///
    /// # Errors
    /// [`SailingError::Persist`] when the directory cannot be created.
    pub fn open_with_fs(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
        fs: Arc<dyn StoreFs>,
    ) -> Result<Self, SailingError> {
        let dir = dir.into();
        fs.create_dir_all(&dir)
            .map_err(|e| SailingError::persist(dir.display().to_string(), e))?;
        let options = StoreOptions {
            queue_depth: options.queue_depth.max(1),
            ..options
        };
        let inner = Arc::new(StoreInner {
            dir,
            options,
            fs,
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                next_seq: 1,
                drained_through: 0,
                claimed_through: 0,
                shutdown: false,
                writer_alive: false,
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            breaker: Mutex::new(Breaker {
                consecutive_failures: 0,
                phase: BreakerPhase::Closed,
            }),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
            deferred: Mutex::new(Vec::new()),
            fs_write_threads: Mutex::new(Vec::new()),
        });
        let writer = if options.async_writer {
            inner.lock_state().writer_alive = true;
            let thread_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("sailing-persist-writer".into())
                    .spawn(move || thread_inner.writer_loop())
                    .map_err(|e| SailingError::persist("spawn persist writer", e))?,
            )
        } else {
            None
        };
        Ok(Self { inner, writer })
    }

    /// The directory entries live under.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The write-mode options this store was opened with.
    pub fn options(&self) -> StoreOptions {
        self.inner.options
    }

    /// This handle's activity counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            disk_hits: self.inner.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.inner.disk_misses.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            write_errors: self.inner.write_errors.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            breaker_fast_fails: self.inner.breaker_fast_fails.load(Ordering::Relaxed),
            breaker: match recover(self.inner.breaker.lock()).phase {
                BreakerPhase::Closed => BreakerState::Closed,
                BreakerPhase::Open { .. } => BreakerState::Open,
                BreakerPhase::HalfOpen => BreakerState::HalfOpen,
            },
        }
    }

    /// Takes (and clears) the deferred write errors accumulated so far —
    /// failures that happened after their `put` had already returned
    /// (background writes, auto-flush batches). Errors surface here
    /// **and** in [`PersistStats::write_errors`]; retention is capped, so
    /// under a long-dead disk the count keeps growing while the list
    /// stays bounded.
    ///
    /// ```
    /// # let dir = std::env::temp_dir().join(format!("sailing-doc-twe-{}", std::process::id()));
    /// # let store = sailing_persist::PersistentStore::open(&dir)?;
    /// assert!(store.take_write_errors().is_empty()); // healthy store
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), sailing_model::SailingError>(())
    /// ```
    pub fn take_write_errors(&self) -> Vec<SailingError> {
        std::mem::take(&mut *recover(self.inner.deferred.lock()))
    }

    /// Threads that have performed entry filesystem writes through this
    /// handle, in first-write order. With the async writer on, an
    /// analysis thread that only ever calls `put` never appears here —
    /// the proof hook used by the engine tests and the
    /// `async_write_behind` bench section.
    pub fn fs_write_threads(&self) -> Vec<ThreadId> {
        recover(self.inner.fs_write_threads.lock()).clone()
    }

    /// Number of entry files currently in the store directory (excluding
    /// buffered writes; call [`PersistentStore::flush`] first for an
    /// exact total).
    pub fn len(&self) -> usize {
        entry_files(self.inner.fs.as_ref(), &self.inner.dir).len()
    }

    /// `true` when no entry file is on disk.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the analysis stored under `key`, verifying the stored
    /// snapshot equals `snapshot` (a hash collision or a damaged file
    /// degrades to a miss, never a wrong hit or an error).
    pub fn get(
        &self,
        key: StoreKey,
        snapshot: &SnapshotView,
    ) -> Option<(Arc<SnapshotView>, Arc<PipelineResult>)> {
        // The write-behind buffer is part of the store's contents: an
        // entry put moments ago must hit even before it reaches disk.
        // Entries stay in the buffer *until durably renamed*, in both
        // modes, so there is no put-visible-but-nowhere window.
        {
            let pending = self.inner.lock_state();
            if let Some(e) = pending.pending.iter().rev().find(|e| e.entry.key == key) {
                if *e.entry.snapshot == *snapshot {
                    let hit = (Arc::clone(&e.entry.snapshot), Arc::clone(&e.entry.result));
                    drop(pending);
                    self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(hit);
                }
            }
        }
        if let Ok(bytes) = self.inner.fs.read(&self.inner.dir.join(key.file_name())) {
            match entry::decode(&bytes) {
                Ok(entry) if entry.key == key && entry.snapshot == *snapshot => {
                    self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some((Arc::new(entry.snapshot), Arc::new(entry.result)));
                }
                // Damaged, stale-version, or mismatched content: a clean
                // cold miss by contract.
                _ => {
                    self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.inner.disk_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Buffers an entry for writing. The entry is visible to
    /// [`PersistentStore::get`] immediately, and stays visible until it
    /// is durably renamed.
    ///
    /// * **Async mode:** a bounded enqueue with **no filesystem
    ///   syscalls** — the background writer drains it. A full queue
    ///   evicts the oldest entry not already being written
    ///   ([`PersistStats::dropped`]) rather than blocking.
    /// * **Sync mode:** once a handful of entries are buffered, `put`
    ///   runs the drain barrier on the calling thread (see
    ///   [`PersistentStore::flush`]); otherwise the entry waits for the
    ///   next flush, compaction, or drop.
    ///
    /// Filesystem failures that happen after `put` returned are counted
    /// in [`PersistStats::write_errors`] and retained for
    /// [`PersistentStore::take_write_errors`] (and the next `flush`) — the
    /// store is a cache of recomputable work, so losing a write is a
    /// future cold miss, not data loss.
    pub fn put(&self, key: StoreKey, snapshot: Arc<SnapshotView>, result: Arc<PipelineResult>) {
        if !self.inner.breaker_admits() {
            // Open breaker: refuse instead of queueing a doomed write.
            // A future cold miss, no queue churn, no syscalls.
            self.inner
                .breaker_fast_fails
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let entry = PendingEntry {
            key,
            snapshot,
            result,
        };
        let options = &self.inner.options;
        let auto_flush = {
            let mut st = self.inner.lock_state();
            st.pending.retain(|p| p.entry.key != key);
            if options.async_writer && st.pending.len() >= options.queue_depth {
                // Evict the oldest *unclaimed* entry instead of blocking
                // the analysis thread — a claimed entry is being written
                // right now, so evicting it would count it both written
                // and dropped. When every queued entry is claimed, allow a
                // transient overshoot; the batch in flight removes them
                // momentarily.
                let claimed_through = st.claimed_through;
                if let Some(pos) = st.pending.iter().position(|p| p.seq > claimed_through) {
                    st.pending.remove(pos);
                    self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.pending.push(SeqEntry { seq, entry });
            !options.async_writer && st.pending.len() >= AUTO_FLUSH_THRESHOLD
        };
        self.inner.work_cv.notify_one();
        if auto_flush {
            // The drain counts and defers every failure itself; nothing
            // to return from `put`.
            self.inner.drain(None, true);
        }
    }

    /// Drains every buffered entry to disk (atomic per entry: unique temp
    /// file + rename) — a **drain barrier** in both write modes: it
    /// returns once every entry queued before the call has been written
    /// (or failed). A synchronous store writes them on the calling
    /// thread; an async store waits for its writer thread. A concurrent
    /// flush whose batch is still in flight is waited for, never raced.
    /// Returns the number of entries written during the call.
    ///
    /// # Errors
    /// [`SailingError::Persist`] carrying the first failure of a batch
    /// this call wrote itself; otherwise [`SailingError::PersistDeferred`]
    /// carrying the oldest deferred failure (a background write, an
    /// automatic flush, or another drain). Failed entries are dropped
    /// either way (and counted in [`PersistStats::write_errors`]) so a
    /// read-only directory cannot grow the buffer without bound;
    /// remaining deferred errors stay available via
    /// [`PersistentStore::take_write_errors`].
    pub fn flush(&self) -> Result<usize, SailingError> {
        let writes_before = self.inner.writes.load(Ordering::Relaxed);
        if let Some(Err(err)) = self.inner.drain(None, false) {
            return Err(err);
        }
        let mut deferred = recover(self.inner.deferred.lock());
        if !deferred.is_empty() {
            return Err(deferred.remove(0));
        }
        Ok((self.inner.writes.load(Ordering::Relaxed) - writes_before) as usize)
    }

    /// Validates every entry file end to end — header, checksum, payload,
    /// key-vs-content agreement — removing the ones that fail, along with
    /// any orphaned temp files a crashed write left behind, so a store
    /// that accumulated damage or pre-[`FORMAT_VERSION`] files shrinks
    /// back to its valid core. The drain barrier runs first (the same
    /// one [`PersistentStore::flush`] runs), so every buffered entry is
    /// on disk, or has failed, before the sweep starts.
    ///
    /// Safe to run while other handles (including other processes over a
    /// shared filesystem) keep reading and writing the same directory:
    /// the directory's `compact.lock` admits one compactor at a time
    /// (a contended call returns [`CompactReport::contended`] without
    /// sweeping), and an entry that scans as invalid is **captured by
    /// rename and re-validated** before deletion — a racing writer that
    /// republished the path mid-sweep gets its fresh entry restored
    /// ([`CompactReport::restored`]), never deleted. Concurrent readers
    /// see a complete entry or a clean cold miss throughout.
    ///
    /// The orphan sweep (stray `.tmp-`, `.trash-`, and stale-lock-tomb
    /// side files) is **age-gated** by [`ORPHAN_SWEEP_AGE`]: a side file
    /// younger than the gate may be another handle's in-flight write
    /// parked between temp-file creation and rename, so it is left
    /// alone — only crash debris old enough that no live write can still
    /// own it is removed. A side file whose age the filesystem cannot
    /// report is treated as young (never delete what might be alive).
    ///
    /// # Errors
    /// [`SailingError::Persist`] when the directory scan or a removal
    /// fails at the filesystem level (validation failures are what this
    /// sweep is *for* and are never errors). Per-entry **write** failures
    /// during the pre-sweep drain are not compaction failures either:
    /// they stay counted in [`PersistStats::write_errors`] and are
    /// deferred — retained for [`PersistentStore::take_write_errors`] and
    /// returned by the next `flush`.
    pub fn compact(&self) -> Result<CompactReport, SailingError> {
        self.inner.drain(None, true);
        let mut report = CompactReport::default();
        let Some(_lock) = CompactLock::acquire(&self.inner.fs, &self.inner.dir)? else {
            report.contended = true;
            return Ok(report);
        };
        self.compact_dir(&mut report)?;
        Ok(report)
    }

    /// Sweeps the store directory (the caller holds its compact lock):
    /// entry validation with capture-revalidate-restore, then the
    /// age-gated orphan sweep.
    fn compact_dir(&self, report: &mut CompactReport) -> Result<(), SailingError> {
        let fs = self.inner.fs.as_ref();
        let dir = self.inner.dir.as_path();
        for path in entry_files(fs, dir) {
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if entry_file_is_valid(fs, &path, &name) {
                report.kept += 1;
                continue;
            }
            // Invalid as scanned — but a racing writer may have renamed a
            // fresh valid entry onto this very path since we read it, so
            // never unlink in place. Capture the file atomically under a
            // unique side name, re-validate the captured bytes, and only
            // then decide.
            static CAPTURE_SEQ: AtomicU64 = AtomicU64::new(0);
            let captured = dir.join(format!(
                "{name}.trash-{}-{}",
                std::process::id(),
                CAPTURE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            match fs.rename(&path, &captured) {
                Ok(()) => {}
                // Vanished between scan and capture (another handle's
                // activity): nothing left to sweep here.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(SailingError::persist(path.display().to_string(), e)),
            }
            if entry_file_is_valid(fs, &captured, &name) {
                // We raced a writer and captured its fresh valid entry:
                // put it back. (If an even newer write landed meanwhile,
                // this restore overwrites a same-key valid entry with a
                // same-key valid entry — last-writer-wins, as always.)
                fs.rename(&captured, &path)
                    .map_err(|e| SailingError::persist(path.display().to_string(), e))?;
                report.restored += 1;
                report.kept += 1;
            } else {
                fs.remove_file(&captured)
                    .map_err(|e| SailingError::persist(captured.display().to_string(), e))?;
                report.removed += 1;
            }
        }
        // Orphaned side files — a write that crashed between create and
        // rename, a compactor that crashed between capture and decision,
        // or a broken stale lock — are not entries (`entry_files` skips
        // them), so sweep them here or repeated crashes would accumulate
        // junk forever. The sweep is age-gated: a *young* side file may
        // be another handle's in-flight write sitting between its temp
        // create and its rename, and deleting it would fail that write
        // for nothing. Unknown age counts as young.
        for path in fs.list_dir(dir).into_iter().flatten() {
            let orphan = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.contains(&format!(".{ENTRY_EXTENSION}.tmp-"))
                    || n.contains(&format!(".{ENTRY_EXTENSION}.trash-"))
                    || n.contains(&format!(".{BLOB_EXTENSION}.tmp-"))
                    || n.contains(&format!("{COMPACT_LOCK_NAME}.stale-"))
            });
            let abandoned = orphan
                && fs
                    .file_age(&path)
                    .is_some_and(|age| age >= ORPHAN_SWEEP_AGE);
            if abandoned {
                match fs.remove_file(&path) {
                    Ok(()) => report.removed += 1,
                    // The orphan vanished between the scan and the
                    // removal — a racing writer renamed its temp into
                    // place (or finished cleaning up). Not an error.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(SailingError::persist(path.display().to_string(), e)),
                }
            }
        }
        Ok(())
    }

    /// Durably publishes `bytes` as the named blob — a checksummed,
    /// atomically renamed coordination file addressed by `name` instead
    /// of a [`StoreKey`]. Blobs live in the store directory beside
    /// entries but are invisible to `get`/`len`/`compact`'s entry sweep;
    /// shard workers use them to exchange partial results (see the
    /// [module docs](self#coordination-files)). A re-put under the same
    /// name atomically replaces the previous blob.
    ///
    /// # Errors
    /// [`SailingError::InvalidConfig`] for an unusable name (empty, too
    /// long, or containing path separators); [`SailingError::Persist`]
    /// when the filesystem write or rename fails.
    pub fn put_blob(&self, name: &str, bytes: &[u8]) -> Result<(), SailingError> {
        let file_name = blob_file_name(name, BLOB_EXTENSION)?;
        self.inner.publish(&file_name, &frame(BLOB_MAGIC, bytes))
    }

    /// Reads back a named blob published by [`PersistentStore::put_blob`]
    /// (by this or any cooperating process). Every failure — missing
    /// file, torn write, checksum or version mismatch, unusable name —
    /// degrades to `None`, mirroring the entry read path's
    /// miss-never-error contract.
    pub fn get_blob(&self, name: &str) -> Option<Vec<u8>> {
        let file_name = blob_file_name(name, BLOB_EXTENSION).ok()?;
        let bytes = self.inner.fs.read(&self.inner.dir.join(file_name)).ok()?;
        unframe(BLOB_MAGIC, &bytes).ok().map(<[u8]>::to_vec)
    }

    /// Removes a named blob. `true` when a file was actually unlinked.
    pub fn remove_blob(&self, name: &str) -> bool {
        let Ok(file_name) = blob_file_name(name, BLOB_EXTENSION) else {
            return false;
        };
        self.inner
            .fs
            .remove_file(&self.inner.dir.join(file_name))
            .is_ok()
    }

    /// Attempts to take the named advisory claim: an `O_CREAT|O_EXCL`
    /// marker file in the store directory. Exactly one cooperating
    /// process wins each name; the rest observe `false` and move on.
    /// Claims are coordination hints, not locks — a claimed work unit
    /// that never publishes its result is simply recomputed by whoever
    /// needs it (see the multi-process shard protocol in the
    /// [module docs](self#coordination-files)).
    pub fn try_claim(&self, name: &str) -> bool {
        let Ok(file_name) = blob_file_name(name, CLAIM_EXTENSION) else {
            return false;
        };
        let token = format!("{} {}", std::process::id(), unix_millis());
        self.inner
            .fs
            .create_exclusive(&self.inner.dir.join(file_name), token.as_bytes())
            .is_ok()
    }

    /// Removes a claim marker taken via [`PersistentStore::try_claim`].
    /// `true` when a file was actually unlinked.
    pub fn remove_claim(&self, name: &str) -> bool {
        let Ok(file_name) = blob_file_name(name, CLAIM_EXTENSION) else {
            return false;
        };
        self.inner
            .fs
            .remove_file(&self.inner.dir.join(file_name))
            .is_ok()
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        self.inner.lock_state().shutdown = true;
        self.inner.work_cv.notify_all();
        if std::thread::panicking() {
            // Already unwinding: never block, write, or risk a second
            // panic in a destructor. A detached writer still drains what
            // it holds and exits on its own; a synchronous store's buffer
            // is a cache of recomputable work — future cold misses.
            return;
        }
        // Best effort, with failures counted and deferred by the drain. An
        // async store waits with a deadline and never wedges the process
        // on a hung filesystem: past it the writer is detached and the
        // unwritten tail becomes future cold misses. A synchronous store
        // has no writer to wait for and drains inline.
        let deadline = self
            .writer
            .is_some()
            .then(|| Instant::now() + self.inner.options.shutdown_deadline);
        if self.inner.drain(deadline, true).is_some() {
            if let Some(handle) = self.writer.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.inner.dir)
            .field("options", &self.inner.options)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The single-compactor advisory lock: a `compact.lock` file created with
/// `O_CREAT|O_EXCL`, carrying a unique `"<pid> <unix-millis> <seq>"`
/// token so an abandoned lock can be recognised as stale and broken — and
/// so release can verify ownership first: a sweep that ran *longer* than
/// [`STALE_COMPACT_LOCK`] may have had its lock broken by a successor,
/// and unconditionally unlinking here would delete the successor's fresh
/// lock and admit a third concurrent compactor. (The read-then-unlink
/// window is microseconds, vs the whole sweep duration without the
/// check.)
struct CompactLock {
    fs: Arc<dyn StoreFs>,
    path: PathBuf,
    token: String,
}

impl CompactLock {
    /// Tries to take the directory's compaction lock. `Ok(None)` means
    /// another compactor holds a fresh lock (the caller reports
    /// contention); a stale lock is broken via a unique rename so two
    /// breakers can never each delete a successor's fresh lock.
    fn acquire(fs: &Arc<dyn StoreFs>, dir: &Path) -> Result<Option<Self>, SailingError> {
        static BREAK_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(COMPACT_LOCK_NAME);
        for attempt in 0..3 {
            let token = format!(
                "{} {} {}",
                std::process::id(),
                unix_millis(),
                BREAK_SEQ.fetch_add(1, Ordering::Relaxed)
            );
            match fs.create_exclusive(&path, token.as_bytes()) {
                Ok(()) => {
                    return Ok(Some(Self {
                        fs: Arc::clone(fs),
                        path,
                        token,
                    }))
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if attempt == 2 || !lock_is_stale(fs.as_ref(), &path) {
                        return Ok(None);
                    }
                    // Break the stale lock by renaming it away under a
                    // unique name: of two concurrent breakers only one
                    // rename succeeds, so the loser retries against the
                    // winner's *fresh* lock instead of deleting it.
                    let tomb = dir.join(format!(
                        "{COMPACT_LOCK_NAME}.stale-{}-{}",
                        std::process::id(),
                        BREAK_SEQ.fetch_add(1, Ordering::Relaxed)
                    ));
                    if fs.rename(&path, &tomb).is_ok() {
                        let _ = fs.remove_file(&tomb);
                    }
                }
                Err(e) => return Err(SailingError::persist(path.display().to_string(), e)),
            }
        }
        Ok(None)
    }
}

impl Drop for CompactLock {
    fn drop(&mut self) {
        // Release only a lock we still own: if the sweep outlived
        // STALE_COMPACT_LOCK, a successor may have broken this lock and
        // taken its own — deleting that would cascade into concurrent
        // compactors.
        let still_ours = self
            .fs
            .read_to_string(&self.path)
            .is_ok_and(|content| content == self.token);
        if still_ours {
            let _ = self.fs.remove_file(&self.path);
        }
    }
}

fn unix_millis() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// A lock is stale when its embedded timestamp (preferred) or, failing
/// that, its file mtime is older than [`STALE_COMPACT_LOCK`]. A lock
/// whose stamp cannot be read *and* whose mtime is unavailable is left
/// alone — breaking a live compactor's lock is the one mistake this
/// protocol must never make.
fn lock_is_stale(fs: &dyn StoreFs, path: &Path) -> bool {
    let age_from_stamp = fs.read_to_string(path).ok().and_then(|text| {
        let stamp: u128 = text.split(' ').nth(1)?.trim().parse().ok()?;
        Some(unix_millis().saturating_sub(stamp))
    });
    if let Some(age_ms) = age_from_stamp {
        return age_ms > STALE_COMPACT_LOCK.as_millis();
    }
    fs.file_age(path)
        .is_some_and(|age| age > STALE_COMPACT_LOCK)
}

/// Full validation of one entry file: readable, decodable (which checks
/// the snapshot against its declared hash), and the key agrees with the
/// file name it is (or was) published under.
fn entry_file_is_valid(fs: &dyn StoreFs, path: &Path, expected_name: &str) -> bool {
    fs.read(path)
        .ok()
        .and_then(|bytes| entry::decode(&bytes).ok())
        .is_some_and(|entry| expected_name == entry.key.file_name())
}

/// FxHash-style digest of a byte string, mixing 8-byte little-endian
/// chunks (length-prefixed so trailing truncation always changes the
/// digest). Corruption detection only — not cryptographic.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut h = fx_mix(0x63_68_65_63_6b, bytes.len() as u64); // "check"
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = fx_mix(
            h,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let mut last = [0u8; 8];
    let rem = chunks.remainder();
    last[..rem.len()].copy_from_slice(rem);
    fx_mix(h, u64::from_le_bytes(last))
}

/// Validates a blob/claim name and appends the extension. Names address
/// files directly, so they must be a single portable path component.
fn blob_file_name(name: &str, extension: &str) -> Result<String, SailingError> {
    let ok = !name.is_empty()
        && name.len() <= 200
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    if !ok {
        return Err(SailingError::config(
            "persist blob name",
            format!("{name:?} is not a portable single-component file stem"),
        ));
    }
    Ok(format!("{name}.{extension}"))
}

/// Frames `payload` as one store file, entry or blob: the header line
/// `<magic> v<FORMAT_VERSION> <payload_len> <checksum:016x>\n`, then
/// the payload bytes.
fn frame(magic: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{magic} v{FORMAT_VERSION} {} {:016x}\n",
        payload.len(),
        checksum_bytes(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Validates a [`frame`]d file under `magic` — header fields, format
/// version, payload length, checksum — and returns its payload. Every
/// failure is a `&'static str` reason; readers map them all to a miss.
fn unframe<'a>(magic: &str, bytes: &'a [u8]) -> Result<&'a [u8], &'static str> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| "header not UTF-8")?;
    let mut fields = header.split(' ');
    if fields.next() != Some(magic) {
        return Err("bad magic");
    }
    let version = fields
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or("unreadable version")?;
    if version != FORMAT_VERSION {
        return Err("wrong format version");
    }
    let declared_len: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable payload length")?;
    let declared_checksum = fields
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("unreadable checksum")?;
    if fields.next().is_some() {
        return Err("trailing header fields");
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != declared_len {
        return Err("payload length mismatch (truncated or padded)");
    }
    if checksum_bytes(payload) != declared_checksum {
        return Err("checksum mismatch");
    }
    Ok(payload)
}

fn entry_files(fs: &dyn StoreFs, dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs
        .list_dir(dir)
        .into_iter()
        .flatten()
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXTENSION))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::AccuCopy;
    use sailing_model::fixtures;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sailing-persist-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Backdates a file's mtime so age-gated logic sees it as old.
    fn age_file(path: &Path, by: Duration) {
        let old = SystemTime::now() - by;
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(old))
            .expect("backdate mtime");
    }

    fn table1_entry() -> (Arc<SnapshotView>, Arc<PipelineResult>, StoreKey) {
        let (store, _) = fixtures::table1();
        let snapshot = Arc::new(store.snapshot());
        let result = Arc::new(AccuCopy::with_defaults().run(&snapshot));
        let key = StoreKey::cold(snapshot.content_hash());
        (snapshot, result, key)
    }

    #[test]
    fn roundtrip_across_handles() {
        let dir = temp_dir("roundtrip");
        let (snapshot, result, key) = table1_entry();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
            // Visible before flush (write-behind buffer)…
            assert!(store.get(key, &snapshot).is_some());
            assert_eq!(store.flush().unwrap(), 1);
            assert_eq!(store.len(), 1);
        }
        // …and from a fresh handle, i.e. another process.
        let store = PersistentStore::open(&dir).unwrap();
        let (snap, loaded) = store.get(key, &snapshot).expect("disk hit");
        assert_eq!(*snap, *snapshot);
        assert_eq!(loaded.decisions_sorted(), result.decisions_sorted());
        assert_eq!(loaded.iterations, result.iterations);
        assert_eq!(loaded.content_digest(), result.content_digest());
        for (a, b) in loaded.accuracies.iter().zip(&result.accuracies) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64s must survive bit-exactly");
        }
        let stats = store.stats();
        assert_eq!((stats.disk_hits, stats.disk_misses), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_put_is_fs_free_on_the_calling_thread() {
        let dir = temp_dir("async-putter");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open_with(&dir, StoreOptions::async_writer(16)).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        // Visible immediately, before any disk write necessarily happened.
        assert!(store.get(key, &snapshot).is_some());
        // Drain barrier: after flush the entry is durably on disk.
        store.flush().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().writes, 1);
        // The proof hook: only the writer thread ever touched the
        // filesystem — the calling thread never appears.
        let writers = store.fs_write_threads();
        assert!(
            !writers.contains(&std::thread::current().id()),
            "{writers:?}"
        );
        assert_eq!(writers.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_drop_drains_with_deadline() {
        let dir = temp_dir("async-drop");
        let (snapshot, result, key) = table1_entry();
        {
            let store = PersistentStore::open_with(&dir, StoreOptions::async_writer(16)).unwrap();
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
            // No explicit flush: drop must drain within the deadline.
        }
        let reopened = PersistentStore::open(&dir).unwrap();
        assert!(reopened.get(key, &snapshot).is_some(), "drop must drain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_queue_overflow_evicts_oldest_and_counts_dropped() {
        let dir = temp_dir("async-overflow");
        let (snapshot, result, _) = table1_entry();
        let store = PersistentStore::open_with(&dir, StoreOptions::async_writer(1)).unwrap();
        // Hold the writer back so the queue genuinely overflows: the
        // writer only wakes on notify, but it may also grab entries fast —
        // a depth-1 queue with several distinct keys forces evictions
        // regardless of writer pacing (each put either evicts or the
        // writer already drained; both keep the invariants below).
        for i in 0..8u64 {
            let key = StoreKey::warm(snapshot.content_hash(), i);
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(
            stats.writes + stats.dropped,
            8,
            "every put is either written or dropped: {stats:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deferred_write_errors_surface_in_flush_take_and_stats() {
        let dir = temp_dir("deferred-errors");
        let (snapshot, result, _) = table1_entry();
        let store = PersistentStore::open_with(&dir, StoreOptions::async_writer(16)).unwrap();
        // Kill the directory out from under the writer: every background
        // write now fails after its `put` already returned.
        std::fs::remove_dir_all(&dir).unwrap();
        for i in 0..3u64 {
            let key = StoreKey::warm(snapshot.content_hash(), i);
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        }
        let err = store.flush().expect_err("deferred failure must surface");
        assert!(
            matches!(err, SailingError::PersistDeferred { .. }),
            "{err:?}"
        );
        let stats = store.stats();
        assert_eq!(stats.write_errors, 3, "{stats:?}");
        assert_eq!(stats.writes, 0, "{stats:?}");
        // flush took the oldest; the remainder is still retrievable.
        let remaining = store.take_write_errors();
        assert_eq!(remaining.len(), 2);
        assert!(remaining
            .iter()
            .all(|e| matches!(e, SailingError::PersistDeferred { .. })));
        assert!(store.take_write_errors().is_empty(), "take clears");
    }

    /// A synchronous store over a filesystem that parks the first write.
    fn held_sync_store(dir: &Path, gate: &Gate) -> PersistentStore {
        PersistentStore::open_with_fs(
            dir,
            StoreOptions::default(),
            Arc::new(FaultyFs::new(
                FaultPlan::new().fail_nth_write(1, WriteFault::Hold(gate.clone())),
            )),
        )
        .unwrap()
    }

    #[test]
    fn sync_entry_stays_visible_while_its_flush_is_mid_write() {
        let dir = temp_dir("sync-visible");
        let (snapshot, result, key) = table1_entry();
        let gate = Gate::new();
        let store = held_sync_store(&dir, &gate);
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        std::thread::scope(|s| {
            let flusher = s.spawn(|| store.flush());
            gate.wait_until_held();
            // Read while the write is parked, then release before any
            // assert so a failure cannot leave the flusher parked.
            let hit = store.get(key, &snapshot).is_some();
            gate.release();
            assert!(hit, "an entry whose write is in flight must still hit");
            assert_eq!(flusher.join().unwrap().unwrap(), 1);
        });
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_flush_waits_for_a_concurrent_flush_batch() {
        let dir = temp_dir("sync-barrier");
        let (snapshot, result, key) = table1_entry();
        let gate = Gate::new();
        let store = held_sync_store(&dir, &gate);
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        std::thread::scope(|s| {
            let first = s.spawn(|| store.flush());
            gate.wait_until_held();
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                gate.release();
            });
            // The entry is claimed by the parked first flush: the second
            // must wait for that batch rather than return at once.
            let second = store.flush();
            assert_eq!(
                store.len(),
                1,
                "a flush returned before the entry was on disk"
            );
            assert!(second.is_ok(), "{second:?}");
            assert!(first.join().unwrap().is_ok());
        });
        assert_eq!(store.stats().writes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_flush_returns_a_failed_auto_flush_as_deferred() {
        let dir = temp_dir("sync-deferred");
        let (snapshot, result, _) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // The last put triggers the automatic flush, which fails for all.
        for i in 0..AUTO_FLUSH_THRESHOLD as u64 {
            let key = StoreKey::warm(snapshot.content_hash(), i);
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        }
        let stats = store.stats();
        assert_eq!((stats.writes, stats.write_errors), (0, 8), "{stats:?}");
        let err = store
            .flush()
            .expect_err("the auto-flush failure must surface in the next flush");
        assert!(
            matches!(err, SailingError::PersistDeferred { .. }),
            "{err:?}"
        );
        assert_eq!(store.take_write_errors().len(), 7);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let dir = temp_dir("poison");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        // Poison the queue mutex: panic on another thread while holding it.
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.inner.state.lock().unwrap();
            panic!("poison the persist queue");
        }));
        assert!(poisoner.is_err());
        assert!(store.inner.state.is_poisoned());
        // Every path over the lock must keep working: the buffer is
        // structurally valid, so the poison flag is recovered, not obeyed.
        assert!(store.get(key, &snapshot).is_some(), "get after poison");
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        assert_eq!(store.flush().unwrap(), 1, "flush after poison");
        assert!(store.compact().is_ok(), "compact after poison");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_during_unwind_skips_the_flush() {
        let dir = temp_dir("unwind-drop");
        let (snapshot, result, key) = table1_entry();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let store = PersistentStore::open(&dir).unwrap();
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
            panic!("unwind with a buffered entry");
            // `store` drops here, mid-unwind: the guard must skip the
            // best-effort flush instead of risking a double panic.
        }));
        assert!(unwound.is_err());
        // The flush was skipped, so nothing reached disk — proof the
        // destructor did no best-effort I/O while unwinding.
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 0, "unwind drop must not flush");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_and_cold_keys_are_distinct_entries() {
        let dir = temp_dir("provenance");
        let (snapshot, result, cold) = table1_entry();
        let warm = StoreKey::warm(snapshot.content_hash(), result.content_digest());
        assert_ne!(cold.file_name(), warm.file_name());
        let store = PersistentStore::open(&dir).unwrap();
        store.put(cold, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();
        // The warm key must not be answered by the cold entry.
        assert!(store.get(warm, &snapshot).is_none());
        assert!(store.get(cold, &snapshot).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshot_is_a_miss_not_a_wrong_hit() {
        let dir = temp_dir("collision");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();
        // Same key, different snapshot content (simulated collision):
        // must miss, both from the buffer path and from disk.
        let other = SnapshotView::from_triples(1, 1, vec![]);
        assert!(store.get(key, &other).is_none());
        assert_eq!(store.stats().disk_misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_detects_any_single_bit_flip_in_small_payloads() {
        let payload = b"sailing checksum probe";
        let base = checksum_bytes(payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(base, checksum_bytes(&flipped), "byte {byte} bit {bit}");
            }
        }
        // Truncation changes the digest too (length is mixed in).
        assert_ne!(base, checksum_bytes(&payload[..payload.len() - 1]));
    }

    #[test]
    fn compact_keeps_valid_and_sweeps_damage() {
        let dir = temp_dir("compact");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();
        // Plant damage: garbage file, stale version, misnamed valid entry.
        std::fs::write(
            dir.join(format!("deadbeef00000000-cold.{ENTRY_EXTENSION}")),
            b"junk",
        )
        .unwrap();
        let good = std::fs::read(dir.join(key.file_name())).unwrap();
        let stale = String::from_utf8(good.clone())
            .unwrap()
            .replacen(" v1 ", " v0 ", 1);
        std::fs::write(
            dir.join(format!("00000000000000aa-cold.{ENTRY_EXTENSION}")),
            stale,
        )
        .unwrap();
        std::fs::write(
            dir.join(format!("badc0ffee0000000-cold.{ENTRY_EXTENSION}")),
            good,
        )
        .unwrap();
        // And an orphaned temp file from a "crashed" write: not an entry
        // (invisible to len), but compact must sweep it — once it is old
        // enough that no live write can still own it.
        let orphan = dir.join(format!("00000000000000bb-cold.{ENTRY_EXTENSION}.tmp-123-0"));
        std::fs::write(&orphan, b"half-written").unwrap();
        age_file(&orphan, ORPHAN_SWEEP_AGE * 2);
        assert_eq!(store.len(), 4);
        let report = store.compact().unwrap();
        assert_eq!(
            report,
            CompactReport {
                kept: 1,
                removed: 4,
                restored: 0,
                contended: false,
            }
        );
        assert_eq!(store.len(), 1);
        assert!(store.get(key, &snapshot).is_some());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "orphan swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_contends_on_a_fresh_lock_and_breaks_a_stale_one() {
        let dir = temp_dir("compact-lock");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();

        // A fresh lock held by "another compactor": contended, no sweep.
        let lock_path = dir.join(COMPACT_LOCK_NAME);
        std::fs::write(&lock_path, format!("99999 {}", unix_millis())).unwrap();
        let report = store.compact().unwrap();
        assert!(report.contended, "{report:?}");
        assert_eq!((report.kept, report.removed), (0, 0));

        // A stale lock (ancient stamp) is broken and the sweep proceeds.
        std::fs::write(&lock_path, "99999 5").unwrap();
        let report = store.compact().unwrap();
        assert!(!report.contended, "{report:?}");
        assert_eq!(report.kept, 1);
        // The lock is released afterwards (and no stale tomb lingers).
        assert!(!lock_path.exists(), "lock must be released");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_restores_an_entry_republished_mid_sweep() {
        // Deterministic re-creation of the capture-validate-restore race:
        // a file that scans as invalid but holds *valid* bytes by the time
        // it is captured must be restored, not deleted. We simulate the
        // racing writer by planting a valid entry under its correct name
        // with a device of the sweep: scan-validity is checked against the
        // same bytes, so instead we pin the primitive directly — a valid
        // captured file round-trips back to its path.
        let dir = temp_dir("compact-restore");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open(&dir).unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();
        let path = dir.join(key.file_name());
        let name = key.file_name();
        // The capture side-name a compactor would use.
        let captured = dir.join(format!("{name}.trash-{}-77", std::process::id()));
        std::fs::rename(&path, &captured).unwrap();
        assert!(
            entry_file_is_valid(&RealFs, &captured, &name),
            "captured bytes revalidate against the original name"
        );
        std::fs::rename(&captured, &path).unwrap();
        assert!(store.get(key, &snapshot).is_some(), "restored entry serves");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_absorbs_a_transient_write_failure() {
        let dir = temp_dir("retry");
        let (snapshot, result, key) = table1_entry();
        let plan = Arc::new(FaultPlan::new().fail_nth_write(1, WriteFault::Eio));
        let store = PersistentStore::open_with_fs(
            &dir,
            StoreOptions::async_writer(16).retry(3, Duration::ZERO),
            Arc::new(FaultyFs::with_plan(Arc::clone(&plan))),
        )
        .unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        // Zero user-visible errors: the first attempt failed, the retry
        // landed, and nothing surfaces anywhere but the retry counter.
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!((stats.writes, stats.write_errors, stats.retries), (1, 0, 1));
        assert!(store.take_write_errors().is_empty());
        assert_eq!(plan.writes_seen(), 2, "attempt + retry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn breaker_opens_probes_half_open_and_recloses() {
        let dir = temp_dir("breaker-cycle");
        let (snapshot, result, _) = table1_entry();
        let key = |i: u64| StoreKey::warm(snapshot.content_hash(), i);
        let plan = Arc::new(FaultPlan::new().fail_writes(1, u64::MAX, WriteFault::Enospc));
        let store = PersistentStore::open_with_fs(
            &dir,
            StoreOptions::default()
                .retry(2, Duration::ZERO)
                .breaker(2, Duration::ZERO),
            Arc::new(FaultyFs::with_plan(Arc::clone(&plan))),
        )
        .unwrap();
        let put = |i: u64| store.put(key(i), Arc::clone(&snapshot), Arc::clone(&result));
        // Two consecutive exhausted-retry failures trip the breaker.
        put(1);
        assert!(store.flush().is_err());
        assert_eq!(store.stats().breaker, BreakerState::Closed);
        put(2);
        assert!(store.flush().is_err());
        assert_eq!(store.stats().breaker, BreakerState::Open);
        // Zero cooldown: the next put is admitted as the half-open probe…
        put(3);
        assert_eq!(store.stats().breaker, BreakerState::HalfOpen);
        // …and anything piling on behind the pending probe fast-fails.
        put(4);
        assert_eq!(store.stats().breaker_fast_fails, 1);
        // The probe fails: back to open for another cooldown.
        assert!(store.flush().is_err());
        assert_eq!(store.stats().breaker, BreakerState::Open);
        // The disk heals; the next probe succeeds and re-closes.
        plan.heal();
        put(5);
        assert_eq!(store.stats().breaker, BreakerState::HalfOpen);
        assert_eq!(store.flush().unwrap(), 1);
        assert_eq!(store.stats().breaker, BreakerState::Closed);
        // Normal service resumed.
        put(6);
        assert_eq!(store.flush().unwrap(), 1);
        let stats = store.stats();
        assert_eq!(stats.writes, 2, "{stats:?}");
        assert_eq!(stats.write_errors, 3, "{stats:?}");
        assert_eq!(stats.retries, 3, "one retry per exhausted entry: {stats:?}");
        assert_eq!(stats.breaker_fast_fails, 1, "{stats:?}");
        assert_eq!(stats.dropped, 0, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_breaker_fast_fails_until_cooldown() {
        let dir = temp_dir("breaker-open");
        let (snapshot, result, _) = table1_entry();
        let key = |i: u64| StoreKey::warm(snapshot.content_hash(), i);
        let store = PersistentStore::open_with_fs(
            &dir,
            StoreOptions::default().breaker(1, Duration::from_secs(3600)),
            Arc::new(FaultyFs::new(FaultPlan::new().fail_writes(
                1,
                u64::MAX,
                WriteFault::Eio,
            ))),
        )
        .unwrap();
        store.put(key(1), Arc::clone(&snapshot), Arc::clone(&result));
        assert!(store.flush().is_err());
        assert_eq!(store.stats().breaker, BreakerState::Open);
        // An hour-long cooldown: every put inside it is refused — no
        // queue growth, no syscalls, no half-open probe yet.
        store.put(key(2), Arc::clone(&snapshot), Arc::clone(&result));
        store.put(key(3), Arc::clone(&snapshot), Arc::clone(&result));
        assert_eq!(store.stats().breaker, BreakerState::Open);
        let stats = store.stats();
        assert_eq!(stats.breaker_fast_fails, 2, "{stats:?}");
        assert_eq!(stats.writes, 0, "{stats:?}");
        assert_eq!(
            store.flush().unwrap(),
            0,
            "nothing queued behind an open breaker"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_spares_a_fresh_inflight_temp_write() {
        // The fixed race, reproduced deterministically: handle A is
        // frozen *between* writing its temp file and renaming it while
        // handle B compacts. The age-gated orphan sweep must leave A's
        // fresh temp alone (while still sweeping genuinely old debris),
        // and A's write must then complete with zero errors.
        let dir = temp_dir("compact-inflight");
        let (snapshot, result, key) = table1_entry();
        let gate = Gate::new();
        let store_a = PersistentStore::open_with_fs(
            &dir,
            StoreOptions::async_writer(16),
            Arc::new(FaultyFs::new(
                FaultPlan::new().fail_nth_rename(1, RenameFault::Hold(gate.clone())),
            )),
        )
        .unwrap();
        store_a.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        // Deterministic rendezvous: A's writer thread has created its
        // temp file and is parked right before the rename.
        gate.wait_until_held();
        // Genuinely old debris must still be swept.
        let old_orphan = dir.join(format!("00000000000000cc-cold.{ENTRY_EXTENSION}.tmp-999-9"));
        std::fs::write(&old_orphan, b"crash debris").unwrap();
        age_file(&old_orphan, ORPHAN_SWEEP_AGE * 2);
        let store_b = PersistentStore::open(&dir).unwrap();
        let report = store_b.compact().unwrap();
        assert!(!report.contended, "{report:?}");
        assert_eq!(report.removed, 1, "only the aged debris goes: {report:?}");
        // A's rename proceeds and must succeed — its temp file survived.
        gate.release();
        store_a.flush().unwrap();
        let stats = store_a.stats();
        assert_eq!(stats.write_errors, 0, "{stats:?}");
        assert_eq!(stats.writes, 1, "{stats:?}");
        assert!(
            store_b.get(key, &snapshot).is_some(),
            "published entry serves"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_degrades_to_a_clean_cold_miss() {
        let dir = temp_dir("torn");
        let (snapshot, result, key) = table1_entry();
        let store = PersistentStore::open_with_fs(
            &dir,
            StoreOptions::default(),
            Arc::new(FaultyFs::new(
                FaultPlan::new().fail_nth_write(1, WriteFault::Torn { keep: 40 }),
            )),
        )
        .unwrap();
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        // The torn write *reports success* — silent corruption.
        assert_eq!(store.flush().unwrap(), 1);
        // The checksum catches it on the read path: a clean cold miss,
        // never a torn entry served and never an error.
        let reader = PersistentStore::open(&dir).unwrap();
        assert!(reader.get(key, &snapshot).is_none());
        let stats = reader.stats();
        assert_eq!((stats.rejected, stats.disk_misses), (1, 1), "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shutdown_deadline_detaches_instead_of_waiting() {
        let dir = temp_dir("shutdown-deadline");
        let (snapshot, result, key) = table1_entry();
        let gate = Gate::new();
        {
            let store = PersistentStore::open_with_fs(
                &dir,
                StoreOptions::async_writer(4).shutdown_deadline(Duration::ZERO),
                Arc::new(FaultyFs::new(
                    FaultPlan::new().fail_nth_write(1, WriteFault::Hold(gate.clone())),
                )),
            )
            .unwrap();
            assert_eq!(store.options().shutdown_deadline, Duration::ZERO);
            store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
            // The writer is parked mid-write ("hung filesystem")…
            gate.wait_until_held();
            // …and drop must return immediately rather than draining.
        }
        assert!(
            !dir.join(key.file_name()).exists(),
            "drop with a zero deadline must not have waited for the write"
        );
        gate.release();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_options_keep_the_historical_contract() {
        let d = StoreOptions::default();
        assert_eq!(d.retry_max_attempts, 1, "no retry unless asked");
        assert_eq!(d.breaker_threshold, 0, "no breaker unless asked");
        assert_eq!(d.shutdown_deadline, SHUTDOWN_DRAIN_DEADLINE);
        let tuned = StoreOptions::async_writer(32)
            .retry(4, Duration::from_millis(5))
            .breaker(3, Duration::from_secs(1))
            .shutdown_deadline(Duration::from_secs(1));
        assert_eq!(tuned.retry_max_attempts, 4);
        assert_eq!(tuned.retry_base_delay, Duration::from_millis(5));
        assert_eq!(tuned.breaker_threshold, 3);
        assert_eq!(tuned.breaker_cooldown, Duration::from_secs(1));
        assert_eq!(tuned.shutdown_deadline, Duration::from_secs(1));
    }

    #[test]
    fn open_rejects_unwritable_location() {
        // A path under a *file* cannot become a directory.
        let blocker =
            std::env::temp_dir().join(format!("sailing-persist-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"x").unwrap();
        let err = PersistentStore::open(blocker.join("store")).unwrap_err();
        assert!(matches!(err, SailingError::Persist { .. }), "{err}");
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn leftover_shard_files_are_inert() {
        let dir = temp_dir("leftover-shards");
        let (snapshot, result, key) = table1_entry();
        // A valid entry under `shards/0a/`, as an older build's hash-prefix
        // layout would have left it: the store never looks there.
        let shard = dir.join("shards").join("0a");
        std::fs::create_dir_all(&shard).unwrap();
        let planted = shard.join(key.file_name());
        std::fs::write(&planted, entry::encode(key, &snapshot, &result)).unwrap();

        let store = PersistentStore::open(&dir).unwrap();
        assert!(store.get(key, &snapshot).is_none(), "a cold miss");
        let stats = store.stats();
        assert_eq!((stats.disk_misses, stats.rejected), (1, 0), "{stats:?}");
        assert_eq!(store.len(), 0, "not counted");
        let report = store.compact().unwrap();
        assert_eq!(report, CompactReport::default(), "nothing swept");
        assert!(planted.exists(), "compaction leaves the subdirectory alone");

        // A root entry beside it still hits.
        store.put(key, Arc::clone(&snapshot), Arc::clone(&result));
        store.flush().unwrap();
        assert!(store.get(key, &snapshot).is_some());
        assert_eq!(store.stats().disk_hits, 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.compact().unwrap().kept, 1);
        assert!(planted.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_and_claim_roundtrip_with_damage_as_none() {
        let dir = temp_dir("blobs");
        let store = PersistentStore::open(&dir).unwrap();
        assert!(store.get_blob("partial-0").is_none(), "absent reads None");
        store.put_blob("partial-0", b"payload bytes").unwrap();
        assert_eq!(store.get_blob("partial-0").unwrap(), b"payload bytes");
        // Re-put replaces atomically.
        store.put_blob("partial-0", b"v2").unwrap();
        assert_eq!(store.get_blob("partial-0").unwrap(), b"v2");
        // Blobs are invisible to the entry surface.
        assert_eq!(store.len(), 0);

        // A torn/corrupted blob degrades to a clean None.
        let name = blob_file_name("partial-0", BLOB_EXTENSION).unwrap();
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get_blob("partial-0").is_none(), "torn blob is None");

        // Claims: exactly one winner per name, idempotent removal.
        assert!(store.try_claim("shard-0-4"));
        assert!(!store.try_claim("shard-0-4"), "second claimant loses");
        let other = PersistentStore::open(&dir).unwrap();
        assert!(!other.try_claim("shard-0-4"), "other handles lose too");
        assert!(store.remove_claim("shard-0-4"));
        assert!(!store.remove_claim("shard-0-4"), "already gone");
        assert!(other.try_claim("shard-0-4"), "free again after removal");

        // Unusable names are refused without touching the filesystem.
        assert!(store.put_blob("../escape", b"x").is_err());
        assert!(store.get_blob("").is_none());
        assert!(!store.try_claim("a/b"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
