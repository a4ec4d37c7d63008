//! The indexed claim store and its snapshot view.
//!
//! [`ClaimStore`] owns the three catalogs (sources, objects, values) and the
//! flat claim list, with per-source and per-object indexes. It is immutable
//! once built; construction goes through [`ClaimStoreBuilder`].
//!
//! [`SnapshotView`] materialises the paper's *snapshot* setting: for each
//! `(source, object)` pair only the most recent claim survives, giving one
//! value per source per covered object (Table 1 shape). All snapshot-mode
//! algorithms in `sailing-core` consume this view.
//!
//! # Columnar (CSR) layout
//!
//! The snapshot is the data plane of every hot loop in the workspace
//! (candidate-pair enumeration is `Σ support²`, pairwise detection is
//! `Σ overlap` per iteration), so it is stored as two compressed-sparse-row
//! indexes over flat arenas instead of nested hash maps:
//!
//! * `src_offsets`/`src_entries` — per source, a contiguous slice of
//!   `(ObjectId, ValueId)` assertions **sorted by object**. `value(s, o)`
//!   is a binary search; `overlap(a, b)` is a sorted-merge intersection of
//!   two contiguous slices (no hashing, linear cache-friendly scans).
//! * `obj_offsets`/`obj_entries` — per object, a contiguous slice of
//!   `(SourceId, ValueId)` assertions **sorted by source**; this is the
//!   inverted index candidate-pair enumeration walks.
//! * `obj_distinct` — the number of distinct values asserted per object,
//!   precomputed once so `distinct_values` (the `n` in every vote weight
//!   and pair likelihood) is O(1) instead of a per-call hash count.
//!
//! Invariants (upheld by every constructor, relied on by consumers):
//! offsets are monotone with `len() == dimension + 1`; each `(source,
//! object)` pair appears at most once; source slices are strictly sorted by
//! object and object slices strictly sorted by source; both arenas contain
//! the same assertions. The serde representation is **not** the CSR arrays:
//! snapshots serialize in the legacy map-per-source JSON shape so stored
//! artifacts stay wire-compatible across the layout change. One deliberate
//! narrowing: because the CSR offsets allocate per dense id, documents
//! whose id space is implausibly larger than their assertion count (see
//! [`serde::plausible_id_space`]) are rejected instead of allocated —
//! catalog ids are dense, so real artifacts always pass.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

use crate::claim::{Claim, Timestamp};
use crate::delta::Delta;
use crate::equivalence::{ValueEquivalence, ValueQuotient};
use crate::ids::{Catalog, ObjectId, SourceId};
use crate::value::{Value, ValueId};

/// Incrementally assembles a [`ClaimStore`].
#[derive(Debug, Default, Clone)]
pub struct ClaimStoreBuilder {
    sources: Catalog<String, SourceId>,
    objects: Catalog<String, ObjectId>,
    values: Catalog<Value, ValueId>,
    claims: Vec<Claim>,
}

impl ClaimStoreBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a source name.
    pub fn source(&mut self, name: &str) -> SourceId {
        self.sources.intern(&name.to_string())
    }

    /// Interns an object (data item) name.
    pub fn object(&mut self, name: &str) -> ObjectId {
        self.objects.intern(&name.to_string())
    }

    /// Interns a value.
    pub fn value(&mut self, value: &Value) -> ValueId {
        self.values.intern(value)
    }

    /// Adds an untimed, certain claim, interning all names.
    pub fn add(&mut self, source: &str, object: &str, value: impl Into<Value>) -> &mut Self {
        let s = self.source(source);
        let o = self.object(object);
        let v = self.value(&value.into());
        self.claims.push(Claim::snapshot(s, o, v));
        self
    }

    /// Adds a timestamped, certain claim, interning all names.
    pub fn add_timed(
        &mut self,
        source: &str,
        object: &str,
        value: impl Into<Value>,
        time: Timestamp,
    ) -> &mut Self {
        let s = self.source(source);
        let o = self.object(object);
        let v = self.value(&value.into());
        self.claims.push(Claim::timed(s, o, v, time));
        self
    }

    /// Finalises the store, building all indexes.
    pub fn build(self) -> ClaimStore {
        // Materialise the value arena once; every snapshot taken from this
        // store shares it by `Arc`, which is what lets
        // [`SnapshotView::quotient`] partition values without a catalog in
        // reach.
        let value_arena = Arc::new(self.values.iter().cloned().collect::<Vec<Value>>());
        ClaimStore {
            sources: self.sources,
            objects: self.objects,
            values: self.values,
            claims: self.claims,
            value_arena,
        }
    }
}

/// An immutable, indexed collection of claims from many sources.
#[derive(Debug, Clone)]
pub struct ClaimStore {
    sources: Catalog<String, SourceId>,
    objects: Catalog<String, ObjectId>,
    values: Catalog<Value, ValueId>,
    claims: Vec<Claim>,
    /// The interned values in id order, shared with every snapshot.
    value_arena: Arc<Vec<Value>>,
}

impl ClaimStore {
    /// Number of distinct sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of distinct objects (data items).
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of distinct interned values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Total number of claims.
    pub fn num_claims(&self) -> usize {
        self.claims.len()
    }

    /// All claims, in insertion order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// The name behind a source id.
    pub fn source_name(&self, id: SourceId) -> Option<&str> {
        self.sources.name(id).map(String::as_str)
    }

    /// The name behind an object id.
    pub fn object_name(&self, id: ObjectId) -> Option<&str> {
        self.objects.name(id).map(String::as_str)
    }

    /// The value behind a value id.
    pub fn value(&self, id: ValueId) -> Option<&Value> {
        self.values.name(id)
    }

    /// Looks up a source id by name.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.sources.lookup(&name.to_string())
    }

    /// Looks up an object id by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.objects.lookup(&name.to_string())
    }

    /// Looks up a value id for an exact value.
    pub fn value_id(&self, value: &Value) -> Option<ValueId> {
        self.values.lookup(value)
    }

    /// Builds the snapshot view: the most recent claim per `(source, object)`.
    ///
    /// Untimed claims are treated as *current* (they out-date any timestamped
    /// claim); among equal times the later-inserted claim wins, so repeated
    /// `add` calls behave like upserts.
    pub fn snapshot(&self) -> SnapshotView {
        self.snapshot_at(None)
    }

    /// Builds the snapshot as of time `t` (inclusive). Claims with no
    /// timestamp are included only when `t` is `None`.
    pub fn snapshot_at(&self, t: Option<Timestamp>) -> SnapshotView {
        // Rank: None (untimed/current) above any timestamp.
        type Rank = (i64, i64);
        fn rank(time: Option<Timestamp>) -> Rank {
            match time {
                None => (1, 0),
                Some(ts) => (0, ts),
            }
        }
        let mut latest: HashMap<(SourceId, ObjectId), (usize, Rank)> = HashMap::new();
        for (i, c) in self.claims.iter().enumerate() {
            if let (Some(cutoff), Some(ts)) = (t, c.time) {
                if ts > cutoff {
                    continue;
                }
            }
            if t.is_some() && c.time.is_none() {
                continue;
            }
            let r = rank(c.time);
            let entry = latest.entry((c.source, c.object)).or_insert((i, r));
            // `>=` so later insertion wins ties.
            if (r, i) >= (entry.1, entry.0) {
                *entry = (i, r);
            }
        }

        let mut entries: Vec<_> = latest.into_iter().collect();
        // Deterministic order regardless of hash-map iteration.
        entries.sort_by_key(|&((s, o), _)| (s, o));
        let mut rows = Vec::with_capacity(entries.len());
        for ((s, o), (i, _)) in entries {
            let v = self.claims[i].value;
            if let Some(val) = self.values.name(v) {
                if val.is_absent() {
                    continue; // withdrawn value: source no longer covers object
                }
            }
            rows.push((s, o, v));
        }
        SnapshotView::from_unique_sorted(self.sources.len(), self.objects.len(), rows)
            .with_values(Arc::clone(&self.value_arena))
    }
}

/// One value per source per covered object: the paper's snapshot setting.
///
/// Stored as two CSR indexes over flat arenas (see the module docs): the
/// per-source side drives `value`/`assertions_of`/`overlap`, the per-object
/// side drives `assertions_on`/`value_counts`, and a precomputed
/// distinct-value column makes `distinct_values` O(1). Equality compares
/// content (dimensions + assertions); the canonical CSR layout makes the
/// field-wise comparison exactly that. The optional value arena is
/// advisory payload metadata (it enables [`SnapshotView::quotient`]) and
/// deliberately takes no part in equality, hashing, or the wire format.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    num_sources: usize,
    num_objects: usize,
    /// `src_entries[src_offsets[s]..src_offsets[s+1]]` = source `s`'s
    /// assertions, sorted by object.
    src_offsets: Vec<u32>,
    src_entries: Vec<(ObjectId, ValueId)>,
    /// `obj_entries[obj_offsets[o]..obj_offsets[o+1]]` = object `o`'s
    /// assertions, sorted by source.
    obj_offsets: Vec<u32>,
    obj_entries: Vec<(SourceId, ValueId)>,
    /// Distinct values asserted per object.
    obj_distinct: Vec<u32>,
    /// The interned values in id order, when the snapshot's producer had
    /// them (snapshots built from a [`ClaimStore`]; snapshots rebuilt from
    /// the wire or from bare triples carry `None`).
    values: Option<Arc<Vec<Value>>>,
}

// Equality is CSR content only: two snapshots asserting the same
// `(source, object, value)` set are the same snapshot whether or not one
// of them happens to carry the payload arena. The persist tier relies on
// this — stored snapshots round-trip through the arena-less wire shape
// and must still verify equal against live ones.
impl PartialEq for SnapshotView {
    fn eq(&self, other: &Self) -> bool {
        self.num_sources == other.num_sources
            && self.num_objects == other.num_objects
            && self.src_offsets == other.src_offsets
            && self.src_entries == other.src_entries
            && self.obj_offsets == other.obj_offsets
            && self.obj_entries == other.obj_entries
            && self.obj_distinct == other.obj_distinct
    }
}

impl Eq for SnapshotView {}

impl Default for SnapshotView {
    fn default() -> Self {
        Self::from_unique_sorted(0, 0, Vec::new())
    }
}

/// Sorted-merge intersection of two per-source assertion slices.
///
/// When the side to advance is much longer than the other, the skip is a
/// binary search (galloping) instead of a linear walk, so a tiny
/// specialist screened against a near-global source costs
/// `O(min · log max)` rather than `O(max)`.
struct OverlapIter<'a> {
    a: &'a [(ObjectId, ValueId)],
    b: &'a [(ObjectId, ValueId)],
}

/// Advance-by-search kicks in once the lagging side is this many times
/// longer than the other.
const GALLOP_FACTOR: usize = 16;

impl Iterator for OverlapIter<'_> {
    type Item = (ObjectId, ValueId, ValueId);

    fn next(&mut self) -> Option<Self::Item> {
        while let (Some(&(oa, va)), Some(&(ob, vb))) = (self.a.first(), self.b.first()) {
            match oa.cmp(&ob) {
                std::cmp::Ordering::Less => {
                    if self.a.len() > GALLOP_FACTOR * self.b.len() {
                        let skip = self.a.partition_point(|&(o, _)| o < ob);
                        self.a = &self.a[skip..];
                    } else {
                        self.a = &self.a[1..];
                    }
                }
                std::cmp::Ordering::Greater => {
                    if self.b.len() > GALLOP_FACTOR * self.a.len() {
                        let skip = self.b.partition_point(|&(o, _)| o < oa);
                        self.b = &self.b[skip..];
                    } else {
                        self.b = &self.b[1..];
                    }
                }
                std::cmp::Ordering::Equal => {
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    return Some((oa, va, vb));
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.a.len().min(self.b.len())))
    }
}

impl SnapshotView {
    /// Builds a snapshot view directly from `(source, object, value)` triples.
    ///
    /// Ids must be dense; `num_sources`/`num_objects` bound the id spaces.
    /// Later triples overwrite earlier ones for the same `(source, object)`.
    pub fn from_triples(
        num_sources: usize,
        num_objects: usize,
        triples: impl IntoIterator<Item = (SourceId, ObjectId, ValueId)>,
    ) -> Self {
        let mut rows: Vec<(SourceId, ObjectId, ValueId, u32)> = triples
            .into_iter()
            .enumerate()
            .map(|(i, (s, o, v))| (s, o, v, i as u32))
            .collect();
        // Stable (source, object) order with the *last* insertion winning.
        rows.sort_unstable_by_key(|&(s, o, _, i)| (s, o, i));
        let mut unique: Vec<(SourceId, ObjectId, ValueId)> = Vec::with_capacity(rows.len());
        for &(s, o, v, _) in &rows {
            match unique.last_mut() {
                Some(last) if last.0 == s && last.1 == o => last.2 = v,
                _ => unique.push((s, o, v)),
            }
        }
        Self::from_unique_sorted(num_sources, num_objects, unique)
    }

    /// Core constructor: `rows` must be sorted by `(source, object)` with
    /// unique `(source, object)` pairs; both CSR sides and the distinct
    /// counts are built in two linear passes.
    fn from_unique_sorted(
        num_sources: usize,
        num_objects: usize,
        rows: Vec<(SourceId, ObjectId, ValueId)>,
    ) -> Self {
        debug_assert!(rows.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let n = rows.len();
        let mut src_offsets = vec![0u32; num_sources + 1];
        let mut obj_offsets = vec![0u32; num_objects + 1];
        for &(s, o, _) in &rows {
            src_offsets[s.index() + 1] += 1;
            obj_offsets[o.index() + 1] += 1;
        }
        for i in 1..src_offsets.len() {
            src_offsets[i] += src_offsets[i - 1];
        }
        for i in 1..obj_offsets.len() {
            obj_offsets[i] += obj_offsets[i - 1];
        }
        let mut src_entries = Vec::with_capacity(n);
        let mut obj_entries = vec![(SourceId(0), ValueId(0)); n];
        let mut obj_fill: Vec<u32> = obj_offsets[..num_objects].to_vec();
        // Rows arrive sorted by (source, object): the source side is a plain
        // append, and scattering into per-object buckets in that order
        // leaves every object slice sorted by source.
        for &(s, o, v) in &rows {
            src_entries.push((o, v));
            let slot = &mut obj_fill[o.index()];
            obj_entries[*slot as usize] = (s, v);
            *slot += 1;
        }
        let mut obj_distinct = vec![0u32; num_objects];
        let mut scratch: Vec<ValueId> = Vec::new();
        for o in 0..num_objects {
            let slice = &obj_entries[obj_offsets[o] as usize..obj_offsets[o + 1] as usize];
            scratch.clear();
            scratch.extend(slice.iter().map(|&(_, v)| v));
            scratch.sort_unstable();
            scratch.dedup();
            obj_distinct[o] = scratch.len() as u32;
        }
        Self {
            num_sources,
            num_objects,
            src_offsets,
            src_entries,
            obj_offsets,
            obj_entries,
            obj_distinct,
            values: None,
        }
    }

    /// Number of sources (including sources covering nothing).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of objects (including objects covered by nobody).
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// One source's assertions as a contiguous `(object, value)` slice,
    /// sorted by object. Empty for out-of-range sources.
    #[inline]
    pub fn source_assertions(&self, source: SourceId) -> &[(ObjectId, ValueId)] {
        let s = source.index();
        if s >= self.num_sources {
            return &[];
        }
        &self.src_entries[self.src_offsets[s] as usize..self.src_offsets[s + 1] as usize]
    }

    /// The value `source` asserts for `object` in this snapshot.
    #[inline]
    pub fn value(&self, source: SourceId, object: ObjectId) -> Option<ValueId> {
        let slice = self.source_assertions(source);
        slice
            .binary_search_by_key(&object, |&(o, _)| o)
            .ok()
            .map(|i| slice[i].1)
    }

    /// All `(object, value)` assertions of one source, ascending by object.
    pub fn assertions_of(
        &self,
        source: SourceId,
    ) -> impl Iterator<Item = (ObjectId, ValueId)> + '_ {
        self.source_assertions(source).iter().copied()
    }

    /// All `(source, value)` assertions about one object, sorted by source.
    #[inline]
    pub fn assertions_on(&self, object: ObjectId) -> &[(SourceId, ValueId)] {
        let o = object.index();
        if o >= self.num_objects {
            return &[];
        }
        &self.obj_entries[self.obj_offsets[o] as usize..self.obj_offsets[o + 1] as usize]
    }

    /// How many objects `source` covers.
    #[inline]
    pub fn coverage(&self, source: SourceId) -> usize {
        self.source_assertions(source).len()
    }

    /// How many sources cover `object`.
    #[inline]
    pub fn support(&self, object: ObjectId) -> usize {
        self.assertions_on(object).len()
    }

    /// Distinct values asserted for `object`, with their supporter counts,
    /// sorted by descending support then by value id.
    pub fn value_counts(&self, object: ObjectId) -> Vec<(ValueId, usize)> {
        let slice = self.assertions_on(object);
        let mut out: Vec<(ValueId, usize)> = Vec::with_capacity(self.distinct_values(object));
        // Per-object supports are small; a linear probe beats hashing and
        // keeps the output deterministic.
        for &(_, v) in slice {
            match out.iter_mut().find(|e| e.0 == v) {
                Some(e) => e.1 += 1,
                None => out.push((v, 1)),
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of distinct values asserted for `object` (precomputed: O(1)).
    #[inline]
    pub fn distinct_values(&self, object: ObjectId) -> usize {
        self.obj_distinct
            .get(object.index())
            .map_or(0, |&d| d as usize)
    }

    /// Objects covered by *both* sources, with both values:
    /// `(object, value_a, value_b)`, ascending by object — a sorted-merge
    /// intersection of two contiguous slices.
    pub fn overlap(
        &self,
        a: SourceId,
        b: SourceId,
    ) -> impl Iterator<Item = (ObjectId, ValueId, ValueId)> + '_ {
        OverlapIter {
            a: self.source_assertions(a),
            b: self.source_assertions(b),
        }
    }

    /// Size of the overlap (objects covered by both sources).
    pub fn overlap_size(&self, a: SourceId, b: SourceId) -> usize {
        self.overlap(a, b).count()
    }

    /// Total number of `(source, object)` assertions in this snapshot.
    #[inline]
    pub fn num_assertions(&self) -> usize {
        self.src_entries.len()
    }

    /// A cheap content hash over the CSR arenas: two snapshots holding the
    /// same assertions (same dimensions, same `(source, object, value)`
    /// set) hash equal, regardless of how they were constructed.
    ///
    /// This is the cache key for the `sailing` facade's analysis cache —
    /// an FxHash-style multiply-xor over the flat arrays, one word per
    /// assertion, so hashing costs one linear scan and no allocation. It is
    /// *not* cryptographic; collisions are possible in principle, so use it
    /// for caching, never for integrity.
    pub fn content_hash(&self) -> u64 {
        // The per-source CSR side fully determines the snapshot (the
        // object side is derived from it), so hashing dims + src offsets +
        // src entries covers everything.
        let mut h = fx_mix(0x53_61_69_6c_69_6e_67, self.num_sources as u64);
        h = fx_mix(h, self.num_objects as u64);
        for &off in &self.src_offsets {
            h = fx_mix(h, u64::from(off));
        }
        for &(o, v) in &self.src_entries {
            h = fx_mix(h, (u64::from(o.0) << 32) | u64::from(v.0));
        }
        h
    }

    /// Canonical JSON text of this snapshot: the legacy map-per-source wire
    /// shape, rendered deterministically (the CSR layout fixes the entry
    /// order, and the writer emits floats in shortest-round-trip form).
    /// Two snapshots holding the same assertions produce byte-identical
    /// text, which is what the persistent store's checksums cover.
    pub fn to_canonical_json(&self) -> String {
        serde::json::write(&self.serialize())
    }

    /// Parses a snapshot back from its canonical (or any legacy
    /// map-shaped) JSON text. Inverse of
    /// [`SnapshotView::to_canonical_json`]; content hashes survive the
    /// round-trip.
    ///
    /// # Errors
    /// Returns the underlying parse/shape error; persistent-store readers
    /// treat any error as a cold cache miss.
    pub fn from_json_str(text: &str) -> Result<Self, SerdeError> {
        Self::deserialize(&serde::json::parse(text)?)
    }

    /// Applies a sealed [`Delta`] to this snapshot, producing the
    /// post-delta snapshot without rescanning any claim history.
    ///
    /// The delta's arena and the per-source CSR slices are both sorted by
    /// `(source, object)`, so this is one linear sorted-merge: upserts
    /// overwrite (or extend) the source's slice, retractions drop the
    /// entry, untouched slices are copied through verbatim. The result is
    /// **canonical** — equal (same [`SnapshotView::content_hash`], same
    /// CSR columns) to a full rebuild from the post-delta claim set — so
    /// cache keys and persisted artifacts derived from it behave exactly
    /// as if the snapshot had been rebuilt from scratch. Id spaces grow to
    /// cover any source/object the delta names beyond the current bounds.
    pub fn apply_delta(&self, delta: &Delta) -> SnapshotView {
        let num_sources = self.num_sources.max(delta.min_source_space());
        let num_objects = self.num_objects.max(delta.min_object_space());
        let ops = delta.ops();
        let mut rows: Vec<(SourceId, ObjectId, ValueId)> =
            Vec::with_capacity(self.src_entries.len() + ops.len());
        let mut next_op = 0usize;
        for s in 0..num_sources {
            let sid = SourceId::from_index(s);
            let base = self.source_assertions(sid);
            let mut bi = 0usize;
            while next_op < ops.len() && ops[next_op].0 == sid {
                let (_, o, v) = ops[next_op];
                while bi < base.len() && base[bi].0 < o {
                    rows.push((sid, base[bi].0, base[bi].1));
                    bi += 1;
                }
                if bi < base.len() && base[bi].0 == o {
                    bi += 1; // overwritten upsert or retracted entry
                }
                if let Some(v) = v {
                    rows.push((sid, o, v));
                }
                next_op += 1;
            }
            for &(o, v) in &base[bi..] {
                rows.push((sid, o, v));
            }
        }
        let mut out = Self::from_unique_sorted(num_sources, num_objects, rows);
        // The arena describes interned values, not assertions; the delta
        // may name ids beyond it (streamed values carry no payloads) and
        // those are simply uncovered.
        out.values = self.values.clone();
        out
    }

    /// The interned value arena backing this snapshot's ids, when known.
    /// `values()[v.index()]` is the payload behind `v` for ids the arena
    /// covers; ids at or beyond its length (e.g. streamed in without
    /// payloads) are opaque.
    pub fn values(&self) -> Option<&[Value]> {
        self.values.as_deref().map(Vec::as_slice)
    }

    /// Attaches a value arena (in id order) to this snapshot, replacing
    /// any existing one. The arena is advisory: it does not participate
    /// in equality, [`SnapshotView::content_hash`], or serialization.
    pub fn with_values(mut self, values: Arc<Vec<Value>>) -> Self {
        self.values = Some(values);
        self
    }

    /// The smallest value-id space covering both the arena and every
    /// assertion in this snapshot.
    pub fn value_space(&self) -> usize {
        let asserted = self
            .src_entries
            .iter()
            .map(|&(_, v)| v.index() + 1)
            .max()
            .unwrap_or(0);
        asserted.max(self.values.as_deref().map_or(0, Vec::len))
    }

    /// Builds the quotient of this snapshot's value arena under `equiv`.
    ///
    /// Snapshots without an arena (wire round-trips, bare triples,
    /// history replays) quotient over the empty arena: every asserted id
    /// is an implicit singleton, so the quotient is the identity — a
    /// non-exact backend degrades to exact matching rather than guessing.
    pub fn quotient(&self, equiv: &dyn ValueEquivalence) -> ValueQuotient {
        ValueQuotient::build(equiv, self.values().unwrap_or(&[]))
    }

    /// Rewrites every assertion's value to its class representative under
    /// `quotient`, producing the snapshot the discovery hot loops run
    /// over: two sources that asserted equivalent values now assert the
    /// *same* `ValueId`, so the integer comparisons in overlap merging,
    /// dissimilarity, copy detection, and voting see the quotient space
    /// for free. `(source, object)` keys are untouched, distinct-value
    /// counts are rebuilt, and the same arena is carried along. Identity
    /// quotients return a plain clone.
    pub fn quotiented(&self, quotient: &ValueQuotient) -> SnapshotView {
        if quotient.is_identity() {
            return self.clone();
        }
        let rows: Vec<(SourceId, ObjectId, ValueId)> = (0..self.num_sources)
            .flat_map(|s| {
                let sid = SourceId::from_index(s);
                self.source_assertions(sid)
                    .iter()
                    .map(move |&(o, v)| (sid, o, quotient.representative_of(v)))
            })
            .collect();
        let mut out = Self::from_unique_sorted(self.num_sources, self.num_objects, rows);
        out.values = self.values.clone();
        out
    }
}

/// One FxHash-style mixing step (rotate, xor, multiply by a large odd
/// constant) — the same recurrence rustc's FxHasher uses, defined here
/// because the build environment has no crates.io access. Public so every
/// content digest in the workspace ([`SnapshotView::content_hash`], the
/// `sailing` facade's cache keys) mixes with one hash family instead of
/// drifting copies of the constant.
#[inline]
pub fn fx_mix(hash: u64, word: u64) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

// The CSR arrays are an in-memory layout, not a wire format: snapshots
// serialize in the legacy `{"per_source": [...], "per_object": [...]}`
// shape so persisted artifacts survive the layout change unchanged.
impl Serialize for SnapshotView {
    fn serialize(&self) -> Content {
        let per_source = Content::Seq(
            (0..self.num_sources)
                .map(|s| {
                    Content::Map(
                        self.source_assertions(SourceId::from_index(s))
                            .iter()
                            .map(|&(o, v)| (Content::U64(o.0 as u64), Content::U64(v.0 as u64)))
                            .collect(),
                    )
                })
                .collect(),
        );
        let per_object = Content::Seq(
            (0..self.num_objects)
                .map(|o| {
                    Content::Seq(
                        self.assertions_on(ObjectId::from_index(o))
                            .iter()
                            .map(|&(s, v)| {
                                Content::Seq(vec![
                                    Content::U64(s.0 as u64),
                                    Content::U64(v.0 as u64),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        Content::Map(vec![
            (Content::Str("per_source".to_string()), per_source),
            (Content::Str("per_object".to_string()), per_object),
        ])
    }
}

impl Deserialize for SnapshotView {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            content
                .field(name)
                .ok_or_else(|| SerdeError::msg(format!("SnapshotView: missing field `{name}`")))
        };
        let per_source = match field("per_source")? {
            Content::Seq(s) => s,
            other => {
                return Err(SerdeError::msg(format!(
                    "SnapshotView: per_source must be a sequence, found {other:?}"
                )))
            }
        };
        let num_objects = match field("per_object")? {
            Content::Seq(s) => s.len(),
            other => {
                return Err(SerdeError::msg(format!(
                    "SnapshotView: per_object must be a sequence, found {other:?}"
                )))
            }
        };
        let mut rows = Vec::new();
        let mut max_object = 0usize;
        for (s, source_map) in per_source.iter().enumerate() {
            let map = match source_map {
                Content::Map(m) => m,
                other => {
                    return Err(SerdeError::msg(format!(
                        "SnapshotView: per_source[{s}] must be a map, found {other:?}"
                    )))
                }
            };
            for (k, v) in map {
                // JSON map keys come back as strings; `u32::deserialize`
                // re-parses them.
                let o = u32::deserialize(k)?;
                let val = u32::deserialize(v)?;
                max_object = max_object.max(o as usize + 1);
                rows.push((SourceId::from_index(s), ObjectId(o), ValueId(val)));
            }
        }
        // `per_object` is redundant with `per_source`; its length defines
        // the object-id space. A document may legally reference objects
        // beyond it (the old hash layout tolerated that), so grow — but the
        // CSR offsets allocate per id, so reject documents whose id space
        // is absurdly larger than their content (a 30-byte document must
        // not force a multi-gigabyte allocation).
        let num_objects = num_objects.max(max_object);
        if !serde::plausible_id_space(num_objects, rows.len()) {
            return Err(SerdeError::msg(format!(
                "SnapshotView: object id space {num_objects} is implausibly \
                 large for {} assertions",
                rows.len()
            )));
        }
        Ok(Self::from_triples(per_source.len(), num_objects, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ClaimStore {
        let mut b = ClaimStoreBuilder::new();
        b.add("S1", "Suciu", "UW")
            .add("S1", "Dong", "AT&T")
            .add("S2", "Suciu", "MSR")
            .add("S2", "Dong", "Google")
            .add("S3", "Dong", "UW");
        b.build()
    }

    fn source_ids(store: &ClaimStore) -> impl Iterator<Item = SourceId> {
        (0..store.num_sources()).map(SourceId::from_index)
    }

    fn object_ids(store: &ClaimStore) -> impl Iterator<Item = ObjectId> {
        (0..store.num_objects()).map(ObjectId::from_index)
    }

    #[test]
    fn builder_interns_and_counts() {
        let store = sample_store();
        assert_eq!(store.num_sources(), 3);
        assert_eq!(store.num_objects(), 2);
        assert_eq!(store.num_values(), 4); // UW, AT&T, MSR, Google
        assert_eq!(store.num_claims(), 5);
    }

    #[test]
    fn name_lookups_roundtrip() {
        let store = sample_store();
        let s1 = store.source_id("S1").unwrap();
        assert_eq!(store.source_name(s1), Some("S1"));
        let dong = store.object_id("Dong").unwrap();
        assert_eq!(store.object_name(dong), Some("Dong"));
        let uw = store.value_id(&Value::text("UW")).unwrap();
        assert_eq!(store.value(uw), Some(&Value::text("UW")));
        assert_eq!(store.source_id("nope"), None);
    }

    #[test]
    fn snapshot_takes_latest_claim() {
        let mut b = ClaimStoreBuilder::new();
        b.add_timed("S1", "Dong", "UW", 2002)
            .add_timed("S1", "Dong", "Google", 2006)
            .add_timed("S1", "Dong", "AT&T", 2007);
        let store = b.build();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let dong = store.object_id("Dong").unwrap();
        let att = store.value_id(&Value::text("AT&T")).unwrap();
        assert_eq!(snap.value(s1, dong), Some(att));
    }

    #[test]
    fn snapshot_untimed_wins_and_upserts() {
        let mut b = ClaimStoreBuilder::new();
        b.add_timed("S1", "Dong", "Google", 2006)
            .add("S1", "Dong", "AT&T") // untimed = current
            .add("S2", "Dong", "UW")
            .add("S2", "Dong", "MSR"); // later add wins ties
        let store = b.build();
        let snap = store.snapshot();
        let dong = store.object_id("Dong").unwrap();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        assert_eq!(snap.value(s1, dong), store.value_id(&Value::text("AT&T")));
        assert_eq!(snap.value(s2, dong), store.value_id(&Value::text("MSR")));
    }

    #[test]
    fn snapshot_at_cutoff() {
        let mut b = ClaimStoreBuilder::new();
        b.add_timed("S1", "Dong", "UW", 2002)
            .add_timed("S1", "Dong", "Google", 2006)
            .add_timed("S1", "Dong", "AT&T", 2007)
            .add("S1", "Suciu", "UW"); // untimed, excluded from dated snapshots
        let store = b.build();
        let s1 = store.source_id("S1").unwrap();
        let dong = store.object_id("Dong").unwrap();
        let suciu = store.object_id("Suciu").unwrap();

        let snap2006 = store.snapshot_at(Some(2006));
        assert_eq!(
            snap2006.value(s1, dong),
            store.value_id(&Value::text("Google"))
        );
        assert_eq!(snap2006.value(s1, suciu), None);

        let snap2004 = store.snapshot_at(Some(2004));
        assert_eq!(snap2004.value(s1, dong), store.value_id(&Value::text("UW")));

        let snap2000 = store.snapshot_at(Some(2000));
        assert_eq!(snap2000.value(s1, dong), None);
    }

    #[test]
    fn absent_value_removes_coverage() {
        let mut b = ClaimStoreBuilder::new();
        b.add_timed("S1", "Dong", "UW", 2002);
        b.add_timed("S1", "Dong", Value::Absent, 2005);
        let store = b.build();
        let s1 = store.source_id("S1").unwrap();
        let dong = store.object_id("Dong").unwrap();
        assert_eq!(store.snapshot().value(s1, dong), None);
        assert_eq!(store.snapshot().coverage(s1), 0);
        // But the 2002 snapshot still has it.
        assert_eq!(
            store.snapshot_at(Some(2002)).value(s1, dong),
            store.value_id(&Value::text("UW"))
        );
    }

    #[test]
    fn snapshot_counts_and_support() {
        let store = sample_store();
        let snap = store.snapshot();
        let dong = store.object_id("Dong").unwrap();
        let suciu = store.object_id("Suciu").unwrap();
        assert_eq!(snap.support(dong), 3);
        assert_eq!(snap.support(suciu), 2);
        assert_eq!(snap.distinct_values(dong), 3);
        assert_eq!(snap.num_assertions(), 5);
        let s1 = store.source_id("S1").unwrap();
        assert_eq!(snap.coverage(s1), 2);
    }

    #[test]
    fn value_counts_sorted_by_support() {
        let mut b = ClaimStoreBuilder::new();
        b.add("S1", "o", "UW")
            .add("S2", "o", "UW")
            .add("S3", "o", "MSR");
        let store = b.build();
        let o = store.object_id("o").unwrap();
        let counts = store.snapshot().value_counts(o);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0].1, 2);
        assert_eq!(store.value(counts[0].0), Some(&Value::text("UW")));
    }

    #[test]
    fn overlap_iterates_common_objects() {
        let store = sample_store();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let s3 = store.source_id("S3").unwrap();
        assert_eq!(snap.overlap_size(s1, s2), 2);
        assert_eq!(snap.overlap_size(s1, s3), 1);
        let mut pairs: Vec<_> = snap.overlap(s1, s2).collect();
        pairs.sort_by_key(|&(o, _, _)| o);
        let dong = store.object_id("Dong").unwrap();
        let (o, va, vb) = pairs.iter().find(|&&(o, _, _)| o == dong).copied().unwrap();
        assert_eq!(o, dong);
        assert_eq!(store.value(va), Some(&Value::text("AT&T")));
        assert_eq!(store.value(vb), Some(&Value::text("Google")));
    }

    #[test]
    fn overlap_orientation_is_stable_under_swap() {
        let store = sample_store();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let ab: Vec<_> = snap.overlap(s1, s2).collect();
        let ba: Vec<_> = snap.overlap(s2, s1).collect();
        for (o, va, vb) in ab {
            assert!(ba.contains(&(o, vb, va)));
        }
    }

    #[test]
    fn from_triples_matches_store_snapshot() {
        let store = sample_store();
        let snap = store.snapshot();
        let triples: Vec<_> = store
            .claims()
            .iter()
            .map(|c| (c.source, c.object, c.value))
            .collect();
        let direct = SnapshotView::from_triples(store.num_sources(), store.num_objects(), triples);
        for s in source_ids(&store) {
            for o in object_ids(&store) {
                assert_eq!(snap.value(s, o), direct.value(s, o));
            }
        }
        assert_eq!(snap.num_assertions(), direct.num_assertions());
    }

    #[test]
    fn snapshot_serde_keeps_legacy_map_shape() {
        let store = sample_store();
        let snap = store.snapshot();
        let json = serde::json::write(&snap.serialize());
        // The wire format is the pre-CSR map-per-source shape.
        assert!(json.starts_with(r#"{"per_source":[{"#), "{json}");
        assert!(json.contains(r#""per_object":[["#), "{json}");
        let back = SnapshotView::deserialize(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.num_sources(), snap.num_sources());
        assert_eq!(back.num_objects(), snap.num_objects());
        assert_eq!(back.num_assertions(), snap.num_assertions());
        for s in source_ids(&store) {
            for o in object_ids(&store) {
                assert_eq!(back.value(s, o), snap.value(s, o));
            }
        }

        // A hand-written legacy document (string keys, as JSON text always
        // delivers them) still deserializes.
        let legacy = r#"{"per_source":[{"0":1},{"0":2}],"per_object":[[[0,1],[1,2]],[]]}"#;
        let view = SnapshotView::deserialize(&serde::json::parse(legacy).unwrap()).unwrap();
        assert_eq!(view.num_sources(), 2);
        assert_eq!(view.num_objects(), 2);
        assert_eq!(view.value(SourceId(0), ObjectId(0)), Some(ValueId(1)));
        assert_eq!(view.value(SourceId(1), ObjectId(0)), Some(ValueId(2)));
        assert_eq!(view.support(ObjectId(0)), 2);
    }

    #[test]
    fn snapshot_deserialize_tolerates_and_bounds_stray_object_ids() {
        // An object id beyond per_object's length (the old hash layout
        // accepted this) must deserialize, not panic: the id space grows.
        let stray = r#"{"per_source":[{"5":1}],"per_object":[[],[]]}"#;
        let view = SnapshotView::deserialize(&serde::json::parse(stray).unwrap()).unwrap();
        assert_eq!(view.num_objects(), 6);
        assert_eq!(view.value(SourceId(0), ObjectId(5)), Some(ValueId(1)));
        // But an absurd id space for a tiny document is rejected instead of
        // allocating gigabytes of offsets.
        let bomb = r#"{"per_source":[{"4294967295":1}],"per_object":[]}"#;
        assert!(SnapshotView::deserialize(&serde::json::parse(bomb).unwrap()).is_err());
    }

    #[test]
    fn overlap_gallops_through_asymmetric_coverage() {
        // One near-global source vs a tiny specialist: the merge must find
        // the right intersection (galloping path) with correct values.
        let mut triples = Vec::new();
        for o in 0..5000u32 {
            triples.push((SourceId(0), ObjectId(o), ValueId(o)));
        }
        for &o in &[17u32, 1999, 4998] {
            triples.push((SourceId(1), ObjectId(o), ValueId(o + 10_000)));
        }
        let snap = SnapshotView::from_triples(2, 5000, triples);
        let hits: Vec<_> = snap.overlap(SourceId(0), SourceId(1)).collect();
        assert_eq!(
            hits,
            vec![
                (ObjectId(17), ValueId(17), ValueId(10_017)),
                (ObjectId(1999), ValueId(1999), ValueId(11_999)),
                (ObjectId(4998), ValueId(4998), ValueId(14_998)),
            ]
        );
        let rev: Vec<_> = snap.overlap(SourceId(1), SourceId(0)).collect();
        assert_eq!(rev.len(), 3);
        assert_eq!(rev[0], (ObjectId(17), ValueId(10_017), ValueId(17)));
        assert_eq!(snap.overlap_size(SourceId(0), SourceId(1)), 3);
    }

    #[test]
    fn csr_slices_are_sorted_and_consistent() {
        let store = sample_store();
        let snap = store.snapshot();
        let mut total = 0;
        for s in source_ids(&store) {
            let slice = snap.source_assertions(s);
            assert!(
                slice.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted by object"
            );
            total += slice.len();
        }
        assert_eq!(total, snap.num_assertions());
        for o in object_ids(&store) {
            let slice = snap.assertions_on(o);
            assert!(
                slice.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted by source"
            );
            for &(s, v) in slice {
                assert_eq!(snap.value(s, o), Some(v));
            }
            assert_eq!(snap.distinct_values(o), snap.value_counts(o).len());
        }
    }

    #[test]
    fn from_triples_last_write_wins() {
        let triples = vec![
            (SourceId(0), ObjectId(0), ValueId(1)),
            (SourceId(0), ObjectId(1), ValueId(2)),
            (SourceId(0), ObjectId(0), ValueId(3)), // overwrites value 1
        ];
        let snap = SnapshotView::from_triples(1, 2, triples);
        assert_eq!(snap.value(SourceId(0), ObjectId(0)), Some(ValueId(3)));
        assert_eq!(snap.num_assertions(), 2);
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        assert_eq!(snap.num_sources(), 0);
        assert_eq!(snap.num_objects(), 0);
        assert_eq!(snap.num_assertions(), 0);
        assert_eq!(snap.value(SourceId(0), ObjectId(0)), None);
        assert_eq!(snap.assertions_on(ObjectId(3)), &[]);
    }

    #[test]
    fn content_hash_is_construction_independent() {
        let store = sample_store();
        let snap = store.snapshot();
        // Same assertions delivered in a different order → same hash.
        let mut triples: Vec<_> = store
            .claims()
            .iter()
            .map(|c| (c.source, c.object, c.value))
            .collect();
        triples.reverse();
        let rebuilt = SnapshotView::from_triples(store.num_sources(), store.num_objects(), triples);
        assert_eq!(snap.content_hash(), rebuilt.content_hash());
        // And a serde round-trip preserves it.
        let json = serde::json::write(&snap.serialize());
        let back = SnapshotView::deserialize(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(snap.content_hash(), back.content_hash());
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        let base_triples = vec![
            (SourceId(0), ObjectId(0), ValueId(1)),
            (SourceId(0), ObjectId(2), ValueId(2)),
            (SourceId(1), ObjectId(0), ValueId(1)),
            (SourceId(1), ObjectId(1), ValueId(3)),
            (SourceId(2), ObjectId(2), ValueId(4)),
        ];
        let base = SnapshotView::from_triples(3, 3, base_triples.clone());

        let mut b = Delta::builder();
        b.assert_value(SourceId(0), ObjectId(1), ValueId(5)); // new object for S0
        b.assert_value(SourceId(1), ObjectId(0), ValueId(9)); // overwrite
        b.retract(SourceId(2), ObjectId(2)); // S2 vanishes
        b.assert_value(SourceId(3), ObjectId(3), ValueId(6)); // new source + object
        let delta = b.build();

        let applied = base.apply_delta(&delta);
        let rebuilt = SnapshotView::from_triples(
            4,
            4,
            vec![
                (SourceId(0), ObjectId(0), ValueId(1)),
                (SourceId(0), ObjectId(1), ValueId(5)),
                (SourceId(0), ObjectId(2), ValueId(2)),
                (SourceId(1), ObjectId(0), ValueId(9)),
                (SourceId(1), ObjectId(1), ValueId(3)),
                (SourceId(3), ObjectId(3), ValueId(6)),
            ],
        );
        assert_eq!(applied, rebuilt);
        assert_eq!(applied.content_hash(), rebuilt.content_hash());
        assert_eq!(applied.num_sources(), 4);
        assert_eq!(applied.num_objects(), 4);
        assert_eq!(applied.coverage(SourceId(2)), 0);
        assert_eq!(applied.value(SourceId(1), ObjectId(0)), Some(ValueId(9)));

        // An empty delta is the identity.
        let same = base.apply_delta(&Delta::builder().build());
        assert_eq!(same, base);
        assert_eq!(same.content_hash(), base.content_hash());

        // Retracting a pair that was never asserted is a no-op on content
        // (though it may widen the id space it names).
        let mut b = Delta::builder();
        b.retract(SourceId(1), ObjectId(2));
        let noop = base.apply_delta(&b.build());
        assert_eq!(noop, base);
    }

    #[test]
    fn snapshots_carry_the_value_arena_and_equality_ignores_it() {
        let store = sample_store();
        let snap = store.snapshot();
        let arena = snap.values().expect("store snapshots carry the arena");
        assert_eq!(arena.len(), store.num_values());
        assert_eq!(arena[0], Value::text("UW"));
        assert_eq!(snap.value_space(), store.num_values());

        // The wire shape drops the arena, but the round-trip still
        // compares equal and hashes identically.
        let back = SnapshotView::from_json_str(&snap.to_canonical_json()).unwrap();
        assert!(back.values().is_none());
        assert_eq!(back, snap);
        assert_eq!(back.content_hash(), snap.content_hash());

        // apply_delta carries the arena through, even past its coverage.
        let mut b = Delta::builder();
        b.assert_value(SourceId(0), ObjectId(0), ValueId(9));
        let bumped = snap.apply_delta(&b.build());
        assert_eq!(bumped.values().map(<[Value]>::len), Some(arena.len()));
        assert_eq!(bumped.value_space(), 10);
    }

    #[test]
    fn quotiented_rewrites_values_to_representatives() {
        use crate::equivalence::NumericTolerance;
        let mut b = ClaimStoreBuilder::new();
        b.add("S1", "o0", "3.14")
            .add("S2", "o0", "3.140")
            .add("S3", "o0", "2.71")
            .add("S1", "o1", "3.140");
        let store = b.build();
        let snap = store.snapshot();
        let q = snap.quotient(&NumericTolerance::new(1e-6).unwrap());
        assert!(!q.is_identity());
        let quot = snap.quotiented(&q);
        let v314 = store.value_id(&Value::text("3.14")).unwrap();
        let v271 = store.value_id(&Value::text("2.71")).unwrap();
        let o0 = store.object_id("o0").unwrap();
        let o1 = store.object_id("o1").unwrap();
        for s in ["S1", "S2"] {
            let sid = store.source_id(s).unwrap();
            assert_eq!(quot.value(sid, o0), Some(v314));
        }
        assert_eq!(quot.value(store.source_id("S3").unwrap(), o0), Some(v271));
        assert_eq!(quot.value(store.source_id("S1").unwrap(), o1), Some(v314));
        // Distinct-value counts see the quotient space.
        assert_eq!(snap.distinct_values(o0), 3);
        assert_eq!(quot.distinct_values(o0), 2);
        // The arena rides along, and the original is untouched.
        assert!(quot.values().is_some());
        assert_ne!(quot.content_hash(), snap.content_hash());

        // An identity quotient leaves the snapshot bitwise identical.
        let exact = snap.quotiented(&snap.quotient(&crate::equivalence::Exact));
        assert_eq!(exact, snap);
        assert_eq!(exact.content_hash(), snap.content_hash());
    }

    #[test]
    fn arenaless_snapshots_quotient_to_identity() {
        use crate::equivalence::HashedDigest;
        let snap = SnapshotView::from_triples(
            2,
            1,
            vec![
                (SourceId(0), ObjectId(0), ValueId(3)),
                (SourceId(1), ObjectId(0), ValueId(7)),
            ],
        );
        assert!(snap.values().is_none());
        let q = snap.quotient(&HashedDigest::new(42));
        assert!(q.is_identity());
        assert_eq!(q.coverage(), 0);
        assert_eq!(snap.quotiented(&q), snap);
        assert_eq!(snap.value_space(), 8);
    }

    #[test]
    fn content_hash_distinguishes_changed_snapshots() {
        let base = SnapshotView::from_triples(
            2,
            2,
            vec![
                (SourceId(0), ObjectId(0), ValueId(1)),
                (SourceId(1), ObjectId(1), ValueId(2)),
            ],
        );
        // One changed value.
        let changed_value = SnapshotView::from_triples(
            2,
            2,
            vec![
                (SourceId(0), ObjectId(0), ValueId(9)),
                (SourceId(1), ObjectId(1), ValueId(2)),
            ],
        );
        // Same assertions attributed to a different source.
        let moved = SnapshotView::from_triples(
            2,
            2,
            vec![
                (SourceId(1), ObjectId(0), ValueId(1)),
                (SourceId(0), ObjectId(1), ValueId(2)),
            ],
        );
        // Same assertions, wider object space.
        let widened = SnapshotView::from_triples(
            2,
            3,
            vec![
                (SourceId(0), ObjectId(0), ValueId(1)),
                (SourceId(1), ObjectId(1), ValueId(2)),
            ],
        );
        assert_ne!(base.content_hash(), changed_value.content_hash());
        assert_ne!(base.content_hash(), moved.content_hash());
        assert_ne!(base.content_hash(), widened.content_hash());
        assert_ne!(
            base.content_hash(),
            SnapshotView::from_triples(0, 0, Vec::new()).content_hash()
        );
    }
}
