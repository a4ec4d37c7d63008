//! # sailing-ingest
//!
//! The streaming ingestion tier: an **append-only claim log** that turns a
//! live stream of assertions and retractions into sealed **delta epochs**
//! ([`Delta`]) for incremental truth discovery.
//!
//! The paper's setting is a batch one — collect every source's claims,
//! then run the *truth ↔ accuracy ↔ dependence* loop to fixpoint. Real
//! sources do not arrive in a batch: they trickle in, revise, and vanish.
//! [`ClaimLog`] is the boundary between those two worlds. Events are
//! appended with a monotonically increasing sequence number; a
//! [`SealPolicy`] (event count, timestamp span, or an explicit
//! [`ClaimLog::seal`]) batches the open tail into a normalised [`Delta`]
//! that `SnapshotView::apply_delta` and the pipeline's `run_delta` consume
//! downstream.
//!
//! # Durability
//!
//! A log opened on a directory ([`ClaimLog::open`] /
//! [`ClaimLog::open_with_fs`]) writes one **segment file per sealed
//! epoch** using the same discipline as `sailing-persist`: a unique temp
//! file renamed into place, one checksummed line per record
//! (`{checksum:016x} {payload}`, digest via
//! [`sailing_persist::checksum_bytes`]). Reopening replays the segments in
//! sequence order; a **torn tail** — a crash or injected
//! [`WriteFault::Torn`](sailing_persist::WriteFault) mid-segment — is
//! detected by the per-record checksum and cleanly truncated to the last
//! valid record, and any later segment stranded behind the resulting
//! sequence gap is dropped rather than replayed out of order.
//!
//! Durability failures follow the workspace's standing degradation
//! contract: a segment that cannot be written is counted in
//! [`IngestLogStats::segment_write_errors`] and the events stay served
//! from memory — a future recovery loses that epoch, but the live session
//! never wedges on a dead disk.
//!
//! ```
//! use sailing_ingest::{ClaimLog, SealPolicy};
//! use sailing_model::{ObjectId, SourceId, ValueId};
//!
//! let mut log = ClaimLog::in_memory(SealPolicy::after_events(2));
//! log.assert_claim(SourceId(0), ObjectId(0), ValueId(7), 1, 100);
//! assert!(log.poll_seal().is_none(), "one open event: not due yet");
//! log.assert_claim(SourceId(1), ObjectId(0), ValueId(8), 1, 101);
//! let delta = log.poll_seal().expect("two events seal an epoch");
//! assert_eq!(delta.len(), 2);
//! assert_eq!(log.stats().deltas_sealed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sailing_model::{Delta, ObjectId, SourceId, Timestamp, ValueId};
use sailing_persist::{checksum_bytes, RealFs, StoreFs};

/// Magic token opening every segment file.
const SEGMENT_MAGIC: &str = "sailing-ingest-seg";

/// On-disk segment format version.
pub const FORMAT_VERSION: u32 = 1;

/// One appended log event: a source asserting (`Some(value)`) or
/// retracting (`None`) its claim on an object, stamped with the log's
/// monotonic sequence number, an opaque provenance token (e.g. a batch or
/// connection id the caller wants to audit later), and the event's
/// logical timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestEvent {
    /// Monotonic position in the log (dense: no gaps while the log lives).
    pub seq: u64,
    /// The asserting source.
    pub source: SourceId,
    /// The object the claim is about.
    pub object: ObjectId,
    /// `Some(value)` upserts the source's claim; `None` retracts it.
    pub value: Option<ValueId>,
    /// Opaque caller-provided provenance token, persisted verbatim.
    pub provenance: u64,
    /// Logical timestamp of the event (the stream's clock, not the host's).
    pub ts: Timestamp,
}

/// When the open tail of the log should seal into a [`Delta`] epoch.
///
/// Both triggers use the **stream's own clock**: the span trigger compares
/// event timestamps, not host wall time, so replaying a recorded stream
/// seals identical epochs. `Default` is fully manual — only an explicit
/// [`ClaimLog::seal`] closes an epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealPolicy {
    /// Seal once this many open events have accumulated.
    pub max_events: Option<usize>,
    /// Seal once the open tail spans this many timestamp units
    /// (`max(ts) - min(ts) >= max_span` — min/max, not first/last,
    /// because appends never enforce monotonic timestamps).
    pub max_span: Option<i64>,
}

impl SealPolicy {
    /// Seal only on explicit [`ClaimLog::seal`] calls.
    pub fn manual() -> Self {
        Self::default()
    }

    /// Seal after `n` open events (clamped to at least 1).
    pub fn after_events(n: usize) -> Self {
        Self {
            max_events: Some(n.max(1)),
            max_span: None,
        }
    }

    /// Whether an open tail of `events` is due for sealing.
    fn due(&self, events: &[IngestEvent]) -> bool {
        if events.is_empty() {
            return false;
        }
        if self.max_events.is_some_and(|n| events.len() >= n) {
            return true;
        }
        self.max_span.is_some_and(|span| {
            // Span over the min/max timestamps of the tail, not
            // first/last: appends never enforce monotonic timestamps,
            // and an out-of-order tail (last < first) would otherwise
            // read as a zero span and stall span-based sealing.
            let mut min = events[0].ts;
            let mut max = events[0].ts;
            for event in &events[1..] {
                min = min.min(event.ts);
                max = max.max(event.ts);
            }
            max.saturating_sub(min) >= span
        })
    }
}

/// Counters describing everything the log has done — appends, seals,
/// segment writes, and what recovery found on reopen. Plain data; the
/// serve tier folds the interesting subset into its metrics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestLogStats {
    /// Events appended through this handle (excludes recovered events).
    pub events_appended: u64,
    /// Delta epochs sealed (manual or policy-triggered).
    pub deltas_sealed: u64,
    /// Segment files durably written (temp write + rename both succeeded).
    pub segments_written: u64,
    /// Segment writes that failed; the epoch stays in memory only.
    pub segment_write_errors: u64,
    /// Events recovered from disk when the log was opened.
    pub recovered_events: u64,
    /// Records discarded on reopen because their checksum or sequence
    /// number did not verify — the torn tail of a crashed write.
    pub truncated_records: u64,
    /// Whole segments dropped on reopen: unreadable, a bad header, or
    /// stranded behind a sequence gap left by an earlier torn segment.
    pub dropped_segments: u64,
}

/// The append-only claim log: events in, sealed [`Delta`] epochs out.
///
/// Single-writer by construction (`&mut self` appends); share a log by
/// owning it inside one ingest session. All events — sealed and open —
/// stay resident and are served by [`ClaimLog::events_since`]; sealed
/// epochs are additionally durable when the log was opened on a directory.
#[derive(Debug)]
pub struct ClaimLog {
    /// `None` for a purely in-memory log.
    storage: Option<(Arc<dyn StoreFs>, PathBuf)>,
    policy: SealPolicy,
    /// Every event, ascending `seq`; `[open_start..]` is the unsealed tail.
    events: Vec<IngestEvent>,
    open_start: usize,
    next_seq: u64,
    stats: IngestLogStats,
}

impl ClaimLog {
    /// A log with no durable backing: sealing produces deltas but writes
    /// nothing.
    pub fn in_memory(policy: SealPolicy) -> Self {
        Self {
            storage: None,
            policy,
            events: Vec::new(),
            open_start: 0,
            next_seq: 0,
            stats: IngestLogStats::default(),
        }
    }

    /// Opens (or creates) a durable log in `dir` on the real filesystem,
    /// replaying any segments found there.
    pub fn open(dir: impl AsRef<Path>, policy: SealPolicy) -> io::Result<Self> {
        Self::open_with_fs(Arc::new(RealFs), dir, policy)
    }

    /// Opens (or creates) a durable log in `dir` through an explicit
    /// filesystem — the fault-injection seam chaos tests use.
    ///
    /// Recovery replays segment files in sequence order, truncating at
    /// the first record whose checksum or sequence number fails to verify
    /// and dropping any segment stranded behind the resulting gap; the
    /// damage is tallied in [`IngestLogStats`], never an error.
    pub fn open_with_fs(
        fs: Arc<dyn StoreFs>,
        dir: impl AsRef<Path>,
        policy: SealPolicy,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        let mut log = Self {
            storage: Some((fs, dir)),
            policy,
            events: Vec::new(),
            open_start: 0,
            next_seq: 0,
            stats: IngestLogStats::default(),
        };
        log.recover();
        Ok(log)
    }

    /// Appends one event, returning its sequence number.
    pub fn append(
        &mut self,
        source: SourceId,
        object: ObjectId,
        value: Option<ValueId>,
        provenance: u64,
        ts: Timestamp,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(IngestEvent {
            seq,
            source,
            object,
            value,
            provenance,
            ts,
        });
        self.stats.events_appended += 1;
        seq
    }

    /// Appends an assertion: `source` now claims `value` for `object`.
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

    /// Appends a retraction: `source` no longer claims anything for
    /// `object`.
    pub fn retract(
        &mut self,
        source: SourceId,
        object: ObjectId,
        provenance: u64,
        ts: Timestamp,
    ) -> u64 {
        self.append(source, object, None, provenance, ts)
    }

    /// Seals the open tail if the [`SealPolicy`] says it is due.
    pub fn poll_seal(&mut self) -> Option<Delta> {
        if self.policy.due(self.open_events()) {
            self.seal()
        } else {
            None
        }
    }

    /// Seals the open tail unconditionally: normalises it into a
    /// [`Delta`], writes the segment when the log is durable, and starts
    /// a fresh epoch. `None` when there is nothing open.
    pub fn seal(&mut self) -> Option<Delta> {
        if self.open_start == self.events.len() {
            return None;
        }
        let open = &self.events[self.open_start..];
        let mut builder = Delta::builder();
        for event in open {
            match event.value {
                Some(v) => builder.assert_value(event.source, event.object, v),
                None => builder.retract(event.source, event.object),
            }
        }
        let delta = builder.build();
        self.write_segment(self.open_start);
        self.open_start = self.events.len();
        self.stats.deltas_sealed += 1;
        Some(delta)
    }

    /// Every event with `seq >= since`, ascending — sealed and open alike.
    pub fn events_since(&self, since: u64) -> &[IngestEvent] {
        let from = self.events.partition_point(|e| e.seq < since);
        &self.events[from..]
    }

    /// The unsealed tail of the log.
    pub fn open_events(&self) -> &[IngestEvent] {
        &self.events[self.open_start..]
    }

    /// The net effect of **every** event in the log as one delta — the
    /// recovery bootstrap: apply it to an empty snapshot to reconstruct
    /// the world the log describes.
    pub fn replay_delta(&self) -> Delta {
        let mut builder = Delta::builder();
        for event in &self.events {
            match event.value {
                Some(v) => builder.assert_value(event.source, event.object, v),
                None => builder.retract(event.source, event.object),
            }
        }
        builder.build()
    }

    /// The net effect of every **sealed** event as one delta, leaving the
    /// open tail out. Bootstrapping from this (rather than
    /// [`replay_delta`](ClaimLog::replay_delta)) means the tail's eventual
    /// seal is the first and only time those events are applied — no
    /// double count.
    pub fn replay_sealed_delta(&self) -> Delta {
        let mut builder = Delta::builder();
        for event in &self.events[..self.open_start] {
            match event.value {
                Some(v) => builder.assert_value(event.source, event.object, v),
                None => builder.retract(event.source, event.object),
            }
        }
        builder.build()
    }

    /// Number of sealed (non-tail) events resident in the log.
    pub fn sealed_len(&self) -> usize {
        self.open_start
    }

    /// Total events resident (recovered + appended).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The next sequence number an append would receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The seal policy in force.
    pub fn policy(&self) -> SealPolicy {
        self.policy
    }

    /// Counters for appends, seals, segment writes, and recovery.
    pub fn stats(&self) -> IngestLogStats {
        self.stats
    }

    /// Writes `events[from..]` as one durable segment file; failures are
    /// counted, not returned (the epoch stays served from memory).
    fn write_segment(&mut self, from: usize) {
        let Some((fs, dir)) = &self.storage else {
            return;
        };
        let records = &self.events[from..];
        let (first, last) = (records[0].seq, records[records.len() - 1].seq);
        let name = format!("seg-{first:016x}-{last:016x}.ilog");
        let mut buf = format!("{SEGMENT_MAGIC} v{FORMAT_VERSION} {}\n", records.len());
        for event in records {
            let payload = encode_event(event);
            let checksum = checksum_bytes(payload.as_bytes());
            buf.push_str(&format!("{checksum:016x} {payload}\n"));
        }
        // Same discipline as the persist store: unique temp file, then an
        // atomic rename — a reader never observes a half-published name.
        // A torn *write* still reports success and is only caught by the
        // per-record checksums on the next recovery.
        let tmp = dir.join(format!("{name}.tmp-{}", std::process::id()));
        let published = dir.join(&name);
        let outcome = fs
            .write(&tmp, buf.as_bytes())
            .and_then(|()| fs.rename(&tmp, &published));
        match outcome {
            Ok(()) => self.stats.segments_written += 1,
            Err(_) => {
                fs.remove_file(&tmp).ok();
                self.stats.segment_write_errors += 1;
            }
        }
    }

    /// Replays every segment in `dir` in sequence order, stopping at the
    /// first gap. Only called from `open_with_fs` on an empty log.
    fn recover(&mut self) {
        let Some((fs, dir)) = &self.storage else {
            return;
        };
        let (fs, dir) = (Arc::clone(fs), dir.clone());
        let mut segments: Vec<(u64, PathBuf)> = fs
            .list_dir(&dir)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|p| Some((segment_first_seq(&p)?, p)))
            .collect();
        segments.sort();
        let mut torn_tail = false;
        for (first_seq, path) in segments {
            if torn_tail || first_seq != self.next_seq {
                // A gap: an earlier segment was torn or lost. Replaying
                // past it would fabricate a contiguous history, so the
                // stranded segment is dropped instead.
                self.stats.dropped_segments += 1;
                continue;
            }
            match self.replay_segment(&fs, &path) {
                SegmentReplay::Complete => {}
                SegmentReplay::Truncated => torn_tail = true,
                SegmentReplay::Dropped => {
                    self.stats.dropped_segments += 1;
                    torn_tail = true;
                }
            }
        }
        self.open_start = self.events.len();
        self.stats.recovered_events = self.events.len() as u64;
    }

    fn replay_segment(&mut self, fs: &Arc<dyn StoreFs>, path: &Path) -> SegmentReplay {
        let Ok(text) = fs.read_to_string(path) else {
            return SegmentReplay::Dropped;
        };
        let mut lines = text.lines();
        let Some(declared) = parse_header(lines.next().unwrap_or_default()) else {
            return SegmentReplay::Dropped;
        };
        let mut replayed = 0usize;
        for line in lines {
            match decode_record(line) {
                Some(event) if event.seq == self.next_seq => {
                    self.next_seq += 1;
                    self.events.push(event);
                    replayed += 1;
                }
                // First bad checksum, bad field, or out-of-order seq:
                // everything from here on is the torn tail.
                _ => {
                    self.stats.truncated_records += 1;
                    return SegmentReplay::Truncated;
                }
            }
        }
        if replayed < declared {
            // The file ended early — torn between records, so every line
            // parsed but the tail is still missing.
            self.stats.truncated_records += 1;
            return SegmentReplay::Truncated;
        }
        SegmentReplay::Complete
    }
}

/// Outcome of replaying one segment during recovery.
enum SegmentReplay {
    Complete,
    Truncated,
    Dropped,
}

/// Space-separated record payload; the retraction marker `-` keeps every
/// field non-empty so `split_whitespace` round-trips exactly.
fn encode_event(event: &IngestEvent) -> String {
    let value = match event.value {
        Some(v) => v.0.to_string(),
        None => "-".to_string(),
    };
    format!(
        "{} {} {} {} {} {}",
        event.seq, event.source.0, event.object.0, value, event.provenance, event.ts
    )
}

/// Parses one `{checksum:016x} {payload}` record line; `None` on any
/// corruption (bad hex, checksum mismatch, wrong field count).
fn decode_record(line: &str) -> Option<IngestEvent> {
    let (checksum_hex, payload) = line.split_once(' ')?;
    let declared = u64::from_str_radix(checksum_hex, 16).ok()?;
    if checksum_bytes(payload.as_bytes()) != declared {
        return None;
    }
    let mut fields = payload.split_whitespace();
    let seq = fields.next()?.parse().ok()?;
    let source = SourceId(fields.next()?.parse().ok()?);
    let object = ObjectId(fields.next()?.parse().ok()?);
    let value = match fields.next()? {
        "-" => None,
        raw => Some(ValueId(raw.parse().ok()?)),
    };
    let provenance = fields.next()?.parse().ok()?;
    let ts = fields.next()?.parse().ok()?;
    if fields.next().is_some() {
        return None;
    }
    Some(IngestEvent {
        seq,
        source,
        object,
        value,
        provenance,
        ts,
    })
}

/// Parses the `{MAGIC} v{FORMAT_VERSION} {count}` header, returning the
/// declared record count.
fn parse_header(line: &str) -> Option<usize> {
    let rest = line.strip_prefix(SEGMENT_MAGIC)?.strip_prefix(" v")?;
    let (version, count) = rest.split_once(' ')?;
    if version.parse::<u32>().ok()? != FORMAT_VERSION {
        return None;
    }
    count.parse().ok()
}

/// Extracts the first sequence number from a `seg-{first}-{last}.ilog`
/// file name; `None` for anything else (temp files, strangers).
fn segment_first_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let body = name.strip_prefix("seg-")?.strip_suffix(".ilog")?;
    let (first, _last) = body.split_once('-')?;
    u64::from_str_radix(first, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_persist::{FaultPlan, FaultyFs, WriteFault};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sailing-ingest-{tag}-{}", std::process::id()))
    }

    fn fill(log: &mut ClaimLog, events: &[(u32, u32, Option<u32>, Timestamp)]) {
        for &(s, o, v, ts) in events {
            log.append(SourceId(s), ObjectId(o), v.map(ValueId), 42, ts);
        }
    }

    #[test]
    fn seqs_are_dense_and_events_since_slices() {
        let mut log = ClaimLog::in_memory(SealPolicy::manual());
        for i in 0..5u32 {
            let seq = log.assert_claim(SourceId(i), ObjectId(0), ValueId(1), 9, i64::from(i));
            assert_eq!(seq, u64::from(i));
        }
        assert_eq!(log.events_since(0).len(), 5);
        assert_eq!(log.events_since(3).len(), 2);
        assert_eq!(log.events_since(3)[0].seq, 3);
        assert!(log.events_since(99).is_empty());
        assert_eq!(log.next_seq(), 5);
    }

    #[test]
    fn policy_seals_by_count_and_span() {
        let mut by_count = ClaimLog::in_memory(SealPolicy::after_events(3));
        fill(&mut by_count, &[(0, 0, Some(1), 10), (1, 0, Some(2), 11)]);
        assert!(by_count.poll_seal().is_none());
        fill(&mut by_count, &[(2, 0, Some(1), 12)]);
        let delta = by_count.poll_seal().expect("3 events due");
        assert_eq!(delta.len(), 3);
        assert!(by_count.open_events().is_empty());

        let mut by_span = ClaimLog::in_memory(SealPolicy {
            max_span: Some(10),
            ..SealPolicy::manual()
        });
        fill(&mut by_span, &[(0, 0, Some(1), 100), (0, 1, Some(2), 105)]);
        assert!(by_span.poll_seal().is_none(), "span 5 < 10");
        fill(&mut by_span, &[(0, 2, Some(3), 110)]);
        assert!(by_span.poll_seal().is_some(), "span 10 seals");

        let mut manual = ClaimLog::in_memory(SealPolicy::manual());
        fill(&mut manual, &[(0, 0, Some(1), 0)]);
        assert!(manual.poll_seal().is_none(), "manual never auto-seals");
        assert_eq!(manual.seal().unwrap().len(), 1);
        assert!(manual.seal().is_none(), "nothing open after a seal");
    }

    #[test]
    fn policy_span_survives_out_of_order_timestamps() {
        // Regression: the span used to be `last.ts - first.ts`, so a tail
        // whose newest event carried an *older* timestamp read as span 0
        // and span-based sealing stalled indefinitely.
        let mut log = ClaimLog::in_memory(SealPolicy {
            max_span: Some(10),
            ..SealPolicy::manual()
        });
        fill(&mut log, &[(0, 0, Some(1), 110), (0, 1, Some(2), 105)]);
        assert!(log.poll_seal().is_none(), "span 5 < 10");
        // Third event is older than both: min/max span is now 110-100=10.
        fill(&mut log, &[(0, 2, Some(3), 100)]);
        assert!(
            log.poll_seal().is_some(),
            "out-of-order tail spans 10 timestamps and must seal"
        );
        assert!(log.open_events().is_empty());
    }

    #[test]
    fn replay_sealed_delta_excludes_open_tail() {
        let mut log = ClaimLog::in_memory(SealPolicy::manual());
        fill(&mut log, &[(0, 0, Some(1), 0), (1, 0, Some(2), 1)]);
        let sealed = log.seal().unwrap();
        fill(&mut log, &[(2, 1, Some(3), 2)]);
        assert_eq!(log.sealed_len(), 2);
        assert_eq!(log.replay_sealed_delta(), sealed);
        assert_eq!(
            log.replay_delta().len(),
            3,
            "full replay still sees the tail"
        );
    }

    #[test]
    fn seal_normalises_last_event_per_pair() {
        let mut log = ClaimLog::in_memory(SealPolicy::manual());
        log.assert_claim(SourceId(0), ObjectId(0), ValueId(1), 0, 0);
        log.assert_claim(SourceId(0), ObjectId(0), ValueId(2), 0, 1);
        log.retract(SourceId(1), ObjectId(0), 0, 2);
        let delta = log.seal().unwrap();
        assert_eq!(
            delta.ops(),
            &[
                (SourceId(0), ObjectId(0), Some(ValueId(2))),
                (SourceId(1), ObjectId(0), None),
            ]
        );
        // replay_delta covers sealed epochs too.
        assert_eq!(log.replay_delta(), delta);
    }

    #[test]
    fn durable_round_trip_recovers_sealed_epochs() {
        let dir = temp_dir("roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
            fill(&mut log, &[(0, 0, Some(1), 5), (1, 0, Some(2), 6)]);
            log.seal().unwrap();
            fill(&mut log, &[(2, 1, None, 7)]);
            log.seal().unwrap();
            // Open (never-sealed) tail: lost on reopen by design.
            fill(&mut log, &[(3, 2, Some(9), 8)]);
            assert_eq!(log.stats().segments_written, 2);
        }
        let log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
        assert_eq!(log.stats().recovered_events, 3, "sealed events only");
        assert_eq!(log.next_seq(), 3);
        let events = log.events_since(0);
        assert_eq!(
            (events[0].source, events[0].object, events[0].value),
            (SourceId(0), ObjectId(0), Some(ValueId(1)))
        );
        assert_eq!(events[2].value, None, "retraction round-trips");
        assert_eq!(events[2].provenance, 42);
        assert_eq!(events[2].ts, 7);
        // Appends resume from the recovered sequence.
        let mut log = log;
        assert_eq!(
            log.assert_claim(SourceId(9), ObjectId(9), ValueId(9), 0, 9),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let dir = temp_dir("torn");
        std::fs::remove_dir_all(&dir).ok();
        // Tear the first segment write mid-payload: the header and first
        // record survive, the second record is cut. The rename still
        // succeeds, so only recovery's checksums can catch it.
        let header_and_one = format!("{SEGMENT_MAGIC} v{FORMAT_VERSION} 2\n").len()
            + format!("{:016x} {}\n", 0u64, "0 0 0 1 42 5").len();
        let fs = Arc::new(FaultyFs::new(FaultPlan::new().fail_nth_write(
            1,
            WriteFault::Torn {
                keep: header_and_one + 10,
            },
        )));
        {
            let mut log = ClaimLog::open_with_fs(fs.clone(), &dir, SealPolicy::manual()).unwrap();
            fill(&mut log, &[(0, 0, Some(1), 5), (1, 0, Some(2), 6)]);
            log.seal().unwrap();
            assert_eq!(log.stats().segments_written, 1, "tear reports success");
        }
        let log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
        assert_eq!(log.stats().recovered_events, 1, "valid prefix only");
        assert_eq!(log.stats().truncated_records, 1);
        assert_eq!(log.next_seq(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_stranded_behind_a_gap_is_dropped() {
        let dir = temp_dir("gap");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
            fill(&mut log, &[(0, 0, Some(1), 5)]);
            log.seal().unwrap();
            fill(&mut log, &[(1, 0, Some(2), 6)]);
            log.seal().unwrap();
        }
        // Lose the first segment entirely (crash before rename).
        std::fs::remove_file(dir.join(format!("seg-{:016x}-{:016x}.ilog", 0, 0))).unwrap();
        let log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
        assert_eq!(log.stats().recovered_events, 0);
        assert_eq!(log.stats().dropped_segments, 1);
        assert_eq!(log.next_seq(), 0, "log restarts rather than fabricating");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_errors_degrade_without_losing_the_live_epoch() {
        let dir = temp_dir("enospc");
        std::fs::remove_dir_all(&dir).ok();
        let fs = Arc::new(FaultyFs::new(
            FaultPlan::new().fail_nth_write(1, WriteFault::Enospc),
        ));
        let mut log = ClaimLog::open_with_fs(fs, &dir, SealPolicy::manual()).unwrap();
        fill(&mut log, &[(0, 0, Some(1), 5)]);
        let delta = log.seal().expect("seal still yields the delta");
        assert_eq!(delta.len(), 1);
        assert_eq!(log.stats().segment_write_errors, 1);
        assert_eq!(log.stats().segments_written, 0);
        // The epoch is still served from memory.
        assert_eq!(log.events_since(0).len(), 1);
        // The next seal writes fine (the plan is exhausted).
        fill(&mut log, &[(1, 0, Some(2), 6)]);
        log.seal().unwrap();
        assert_eq!(log.stats().segments_written, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_chaos_recovery_is_a_valid_prefix() {
        // Whatever a seeded fault script does to the segment writes,
        // recovery must yield a contiguous prefix of the sealed events.
        for seed in 1..=3u64 {
            let dir = temp_dir(&format!("chaos-{seed}"));
            std::fs::remove_dir_all(&dir).ok();
            let fs = Arc::new(FaultyFs::new(FaultPlan::seeded(seed)));
            let mut sealed = Vec::new();
            {
                let mut log =
                    ClaimLog::open_with_fs(fs, &dir, SealPolicy::after_events(2)).unwrap();
                for i in 0..10u32 {
                    log.assert_claim(
                        SourceId(i % 3),
                        ObjectId(i % 4),
                        ValueId(i),
                        7,
                        i64::from(i),
                    );
                    if let Some(_delta) = log.poll_seal() {
                        sealed = log.events_since(0).to_vec();
                    }
                }
            }
            let log = ClaimLog::open(&dir, SealPolicy::manual()).unwrap();
            let recovered = log.events_since(0);
            assert!(
                recovered.len() <= sealed.len(),
                "seed {seed}: recovery cannot invent events"
            );
            assert_eq!(
                recovered,
                &sealed[..recovered.len()],
                "seed {seed}: recovered events are a contiguous prefix"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn header_and_record_parsers_reject_noise() {
        assert_eq!(parse_header("sailing-ingest-seg v1 4"), Some(4));
        assert!(parse_header("sailing-ingest-seg v2 4").is_none());
        assert!(parse_header("garbage").is_none());
        assert!(decode_record("not-hex payload").is_none());
        let payload = "0 1 2 - 3 4";
        let good = format!("{:016x} {payload}", checksum_bytes(payload.as_bytes()));
        let event = decode_record(&good).unwrap();
        assert_eq!(event.value, None);
        assert_eq!(event.ts, 4);
        let bad = format!("{:016x} {payload}x", checksum_bytes(payload.as_bytes()));
        assert!(decode_record(&bad).is_none(), "checksum catches edits");
        assert!(
            segment_first_seq(Path::new("/x/seg-00000000000000ff-0000000000000100.ilog"))
                == Some(0xff)
        );
        assert!(segment_first_seq(Path::new("/x/seg-0-1.ilog.tmp-9")).is_none());
    }
}
