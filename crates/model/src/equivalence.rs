//! Pluggable value equivalence: the quotient of the value space that
//! dissimilarity, copy detection, and voting actually run over.
//!
//! The paper's algorithms decide truth and copy relationships by testing
//! whether two sources assert *the same value* — and historically "same"
//! was hard-wired to exact [`ValueId`] equality in every hot loop. A
//! [`ValueEquivalence`] makes "same" a strategy: given the interned value
//! arena, a backend partitions it into equivalence classes once, and
//! [`ValueQuotient`] turns that partition into a dense
//! `ValueId → ClassId` mapping plus a per-class member arena. Snapshots
//! are then rewritten ([`crate::SnapshotView::quotiented`]) so every
//! assertion carries its class **representative** — the smallest member
//! id — and the CSR inner loops stay pure integer comparisons with zero
//! per-comparison string work.
//!
//! Backends shipped here:
//!
//! * [`Exact`] — the identity partition. Snapshots pass through untouched
//!   (pointer-identical), so exact-mode analyses stay bitwise identical
//!   to the pre-quotient engine.
//! * [`NumericTolerance`] — values whose numeric reading differs by at
//!   most `eps` are equivalent, via union-find over the sorted parses so
//!   tolerance *chains* (`3.14 ~ 3.15 ~ 3.16`) resolve deterministically
//!   regardless of arena order.
//! * [`HashedDigest`] — equivalence of salted content digests: exact
//!   matching that never needs to compare plaintext, the
//!   private-federation backend (sources can publish digests instead of
//!   values).
//!
//! `NormalizedString` (case/punctuation/diacritic-folded text matching)
//! lives in `sailing-linkage`, which owns the normalizer; it implements
//! this trait against the same contract.
//!
//! # Contract
//!
//! A backend's [`ValueEquivalence::partition`] must be a function of the
//! value arena alone (deterministic, order-respecting: relabeling happens
//! here, so any consistent labeling works), and
//! [`ValueEquivalence::digest`] must change whenever the induced
//! partition could (backend identity + parameters). The quotient folds
//! the *realised* class labels into [`ValueQuotient::digest`], which the
//! `sailing` facade mixes into cache and persist keys — an exact analysis
//! can therefore never alias a normalized one, in memory or on disk.

use std::collections::HashMap;
use std::fmt;

use crate::delta::Delta;
use crate::error::SailingError;
use crate::store::fx_mix;
use crate::value::{Value, ValueId};

/// Identifies one equivalence class inside a [`ValueQuotient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The class id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a class id from a dense array index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ClassId(u32::try_from(index).expect("class index exceeds u32"))
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A strategy deciding when two interned values count as "the same value".
///
/// Implementations partition the value arena once per snapshot (see
/// [`crate::SnapshotView::quotient`]); the hot loops never call back into
/// the backend.
pub trait ValueEquivalence: Send + Sync {
    /// Short display name ("exact", "normalized-string", …).
    fn name(&self) -> &'static str;

    /// Provenance digest of the backend: identity plus every parameter
    /// that can change the induced partition. Mixed into
    /// [`ValueQuotient::digest`] so differently-configured backends never
    /// share cached artifacts.
    fn digest(&self) -> u64;

    /// `true` only for the identity backend ([`Exact`]): consumers skip
    /// quotient construction entirely and keep their legacy cache keys.
    fn is_exact(&self) -> bool {
        false
    }

    /// Labels each arena slot with its equivalence class. Labels may be
    /// arbitrary (the quotient densifies them in first-occurrence order);
    /// the only requirement is `labels[i] == labels[j]` iff `values[i]`
    /// and `values[j]` are equivalent. Must return exactly
    /// `values.len()` labels.
    fn partition(&self, values: &[Value]) -> Vec<u32>;
}

/// The identity equivalence: two values are the same only when their ids
/// are. The default backend; quotients under it are free and snapshots
/// pass through bitwise untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl ValueEquivalence for Exact {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn digest(&self) -> u64 {
        fx_mix(0x6571_7569_765f, 0) // "equiv_" tag, variant 0
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn partition(&self, values: &[Value]) -> Vec<u32> {
        (0..values.len() as u32).collect()
    }
}

/// Numeric equivalence with tolerance `eps`: values whose numeric
/// readings differ by at most `eps` are the same. [`Value::Int`] and
/// [`Value::Rating`] read as themselves; [`Value::Text`] reads as its
/// (trimmed) `f64` parse when finite — so `3.14`, `"3.14"`, and
/// `"3.140"` all land in one class. Non-numeric values stay singletons.
///
/// Tolerance is resolved by union-find over the **sorted** parses:
/// adjacent readings within `eps` are merged, so chains
/// (`1.00 ~ 1.01 ~ 1.02`) collapse into one class deterministically,
/// independent of arena order. A class can therefore span more than
/// `eps` end to end — that is the documented chain semantics, not a bug.
#[derive(Debug, Clone, Copy)]
pub struct NumericTolerance {
    eps: f64,
}

impl NumericTolerance {
    /// Creates the backend.
    ///
    /// # Errors
    /// Rejects a non-finite or negative `eps` with
    /// [`SailingError::InvalidParameter`].
    pub fn new(eps: f64) -> Result<Self, SailingError> {
        if !eps.is_finite() || eps < 0.0 {
            return Err(SailingError::param(
                "eps",
                format!("{eps} is not a finite non-negative tolerance"),
            ));
        }
        Ok(Self { eps })
    }

    /// The tolerance in force.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    fn numeric_key(value: &Value) -> Option<f64> {
        match value {
            Value::Int(i) => Some(*i as f64),
            Value::Rating(r) => Some(f64::from(*r)),
            Value::Text(s) => s.trim().parse::<f64>().ok().filter(|x| x.is_finite()),
            Value::List(_) | Value::Absent => None,
        }
    }
}

impl ValueEquivalence for NumericTolerance {
    fn name(&self) -> &'static str {
        "numeric-tolerance"
    }

    fn digest(&self) -> u64 {
        fx_mix(fx_mix(0x6571_7569_765f, 2), self.eps.to_bits())
    }

    fn partition(&self, values: &[Value]) -> Vec<u32> {
        let mut uf = UnionFind::new(values.len());
        let mut numeric: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Self::numeric_key(v).map(|x| (x, i as u32)))
            .collect();
        numeric.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("numeric keys are finite")
                .then(a.1.cmp(&b.1))
        });
        for w in numeric.windows(2) {
            if w[1].0 - w[0].0 <= self.eps {
                uf.union(w[0].1, w[1].1);
            }
        }
        (0..values.len() as u32).map(|i| uf.find(i)).collect()
    }
}

/// Equivalence of salted content digests: two values are the same when
/// their digests match — exact matching that never needs plaintext
/// comparison, so a federation can run copy detection over claims whose
/// values are published only as digests.
///
/// The digest is the workspace [`fx_mix`] family over a type tag plus the
/// canonical payload bytes (recursing into lists), seeded with the
/// per-deployment `salt`. It is **not cryptographic** — it models the
/// digest-equivalence protocol of the private-federation scenario; a
/// production deployment would swap in a keyed cryptographic hash with
/// the same interface.
#[derive(Debug, Clone, Copy)]
pub struct HashedDigest {
    salt: u64,
}

impl HashedDigest {
    /// Creates the backend with a per-deployment salt.
    pub fn new(salt: u64) -> Self {
        Self { salt }
    }

    /// The salted digest of one value — what a source would publish in
    /// place of the plaintext.
    pub fn value_digest(&self, value: &Value) -> u64 {
        fn fold(h: u64, value: &Value) -> u64 {
            match value {
                Value::Text(s) => {
                    let mut h = fx_mix(h, 1);
                    h = fx_mix(h, s.len() as u64);
                    for b in s.bytes() {
                        h = fx_mix(h, u64::from(b));
                    }
                    h
                }
                Value::Int(i) => fx_mix(fx_mix(h, 2), *i as u64),
                Value::Rating(r) => fx_mix(fx_mix(h, 3), u64::from(*r)),
                Value::List(items) => {
                    let mut h = fx_mix(fx_mix(h, 4), items.len() as u64);
                    for item in items {
                        h = fold(h, item);
                    }
                    h
                }
                Value::Absent => fx_mix(h, 5),
            }
        }
        fold(fx_mix(0x6469_6765_7374, self.salt), value) // "digest" tag
    }
}

impl ValueEquivalence for HashedDigest {
    fn name(&self) -> &'static str {
        "hashed-digest"
    }

    fn digest(&self) -> u64 {
        fx_mix(fx_mix(0x6571_7569_765f, 3), self.salt)
    }

    fn partition(&self, values: &[Value]) -> Vec<u32> {
        let mut classes: HashMap<u64, u32> = HashMap::with_capacity(values.len());
        values
            .iter()
            .map(|v| {
                let next = classes.len() as u32;
                *classes.entry(self.value_digest(v)).or_insert(next)
            })
            .collect()
    }
}

/// Union-find with path-halving over ids `0..n`. Every set's root is its
/// smallest member, so [`UnionFind::find`] names a set by its minimum id.
/// Resolves tolerance chains here and representation clusters in
/// `sailing-linkage`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    /// The smallest member of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Smaller root wins, so representatives stay minimal ids.
        if ra < rb {
            self.parent[rb as usize] = ra;
        } else {
            self.parent[ra as usize] = rb;
        }
    }
}

/// The materialised quotient of a value arena under one
/// [`ValueEquivalence`]: a dense `ValueId → ClassId` map, the per-class
/// member lists, and each class's **representative** — its smallest
/// member id, the id the quotiented snapshot carries in every CSR entry.
///
/// Value ids at or beyond [`ValueQuotient::coverage`] (ids the arena has
/// never described — e.g. ids streamed into an ingest log without
/// payloads) are implicit singletons: they represent themselves and
/// belong to no materialised class.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueQuotient {
    /// Class of each covered value id, densified in first-occurrence
    /// order (so `class_of[representative[c].index()] == c`).
    class_of: Vec<ClassId>,
    /// Smallest member id of each class.
    representative: Vec<ValueId>,
    /// CSR offsets into `members`, one slice per class.
    member_offsets: Vec<u32>,
    /// Class members in ascending id order.
    members: Vec<ValueId>,
    /// `true` when every class is a singleton — the quotient changes
    /// nothing and consumers can skip the snapshot rewrite.
    identity: bool,
    /// The backend's provenance digest, retained so extensions can
    /// re-derive the quotient digest.
    equiv_digest: u64,
    /// Digest of the realised partition (backend digest + coverage +
    /// class labels): what cache/persist keys mix in.
    digest: u64,
}

impl ValueQuotient {
    /// Builds the quotient of `values` under `equiv`. Backend labels are
    /// densified here in first-occurrence order, so representatives are
    /// always the minimal member ids whatever labels the backend chose.
    pub fn build(equiv: &dyn ValueEquivalence, values: &[Value]) -> Self {
        let raw = equiv.partition(values);
        assert_eq!(
            raw.len(),
            values.len(),
            "equivalence backend `{}` returned {} labels for {} values",
            equiv.name(),
            raw.len(),
            values.len()
        );
        let mut remap: HashMap<u32, u32> = HashMap::with_capacity(raw.len());
        let mut class_of = Vec::with_capacity(raw.len());
        let mut representative: Vec<ValueId> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (i, &label) in raw.iter().enumerate() {
            let next = remap.len() as u32;
            let dense = *remap.entry(label).or_insert(next);
            if dense.to_index() == representative.len() {
                representative.push(ValueId::from_index(i));
                counts.push(0);
            }
            counts[dense.to_index()] += 1;
            class_of.push(ClassId(dense));
        }
        let num_classes = representative.len();
        let mut member_offsets = vec![0u32; num_classes + 1];
        for (c, &n) in counts.iter().enumerate() {
            member_offsets[c + 1] = member_offsets[c] + n;
        }
        let mut fill = member_offsets[..num_classes].to_vec();
        let mut members = vec![ValueId(0); class_of.len()];
        for (i, &c) in class_of.iter().enumerate() {
            let slot = &mut fill[c.index()];
            members[*slot as usize] = ValueId::from_index(i);
            *slot += 1;
        }
        let identity = num_classes == class_of.len();
        let equiv_digest = equiv.digest();
        let mut quotient = Self {
            class_of,
            representative,
            member_offsets,
            members,
            identity,
            equiv_digest,
            digest: 0,
        };
        quotient.digest = quotient.compute_digest();
        quotient
    }

    fn compute_digest(&self) -> u64 {
        let mut h = fx_mix(0x71_75_6f_74, self.equiv_digest); // "quot" tag
        h = fx_mix(h, self.class_of.len() as u64);
        for &c in &self.class_of {
            h = fx_mix(h, u64::from(c.0));
        }
        h
    }

    /// How many value ids the quotient describes (the arena length it was
    /// built over, plus any [`ValueQuotient::extend_to`] extension).
    pub fn coverage(&self) -> usize {
        self.class_of.len()
    }

    /// Number of equivalence classes over the covered ids.
    pub fn num_classes(&self) -> usize {
        self.representative.len()
    }

    /// `true` when the quotient is the identity (every class a
    /// singleton): quotiented snapshots equal their originals.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Digest of the realised partition; see the module docs on aliasing.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The class of a covered value id, `None` for uncovered (unseen)
    /// ids.
    pub fn class_of(&self, value: ValueId) -> Option<ClassId> {
        self.class_of.get(value.index()).copied()
    }

    /// The representative the quotiented snapshot substitutes for
    /// `value`: the smallest id in its class, or `value` itself when the
    /// id is beyond coverage (implicit singleton).
    #[inline]
    pub fn representative_of(&self, value: ValueId) -> ValueId {
        match self.class_of.get(value.index()) {
            Some(c) => self.representative[c.index()],
            None => value,
        }
    }

    /// All member ids of one class, ascending. Empty for out-of-range
    /// classes.
    pub fn members(&self, class: ClassId) -> &[ValueId] {
        let c = class.index();
        if c >= self.num_classes() {
            return &[];
        }
        &self.members[self.member_offsets[c] as usize..self.member_offsets[c + 1] as usize]
    }

    /// `true` when every value id the delta upserts is covered — the
    /// precondition for [`ValueQuotient::map_delta`] to be exact. A delta
    /// naming an uncovered id may (for all the quotient knows) merge
    /// classes anywhere, so incremental consumers must fall back to a
    /// full re-analysis instead of trusting a dirty closure.
    pub fn covers(&self, delta: &Delta) -> bool {
        delta
            .ops()
            .iter()
            .all(|&(_, _, v)| v.is_none_or(|v| v.index() < self.coverage()))
    }

    /// Rewrites a delta's upsert values to their class representatives,
    /// producing the delta that advances a quotiented snapshot in step
    /// with the original. Requires [`ValueQuotient::covers`].
    pub fn map_delta(&self, delta: &Delta) -> Delta {
        let mut b = Delta::builder();
        for &(s, o, v) in delta.ops() {
            match v {
                Some(v) => b.assert_value(s, o, self.representative_of(v)),
                None => b.retract(s, o),
            };
        }
        b.build()
    }

    /// Extends coverage to `coverage` ids by appending **singleton**
    /// classes — the only sound extension when the new ids' payloads are
    /// unknown (ingest streams carry bare ids). A no-op when already
    /// covering that many ids.
    pub fn extend_to(&mut self, coverage: usize) {
        while self.class_of.len() < coverage {
            let id = ValueId::from_index(self.class_of.len());
            let class = ClassId::from_index(self.representative.len());
            self.class_of.push(class);
            self.representative.push(id);
            self.members.push(id);
            self.member_offsets.push(self.members.len() as u32);
        }
        self.identity = self.num_classes() == self.coverage();
        self.digest = self.compute_digest();
    }
}

/// Internal helper: `u32` label to array index.
trait ToIndex {
    fn to_index(self) -> usize;
}

impl ToIndex for u32 {
    fn to_index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, SourceId};

    fn arena(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| Value::text(*t)).collect()
    }

    #[test]
    fn exact_is_identity() {
        let values = arena(&["a", "b", "c"]);
        let q = ValueQuotient::build(&Exact, &values);
        assert!(q.is_identity());
        assert_eq!(q.num_classes(), 3);
        assert_eq!(q.coverage(), 3);
        for i in 0..3 {
            let v = ValueId::from_index(i);
            assert_eq!(q.representative_of(v), v);
            assert_eq!(q.class_of(v), Some(ClassId::from_index(i)));
            assert_eq!(q.members(ClassId::from_index(i)), &[v]);
        }
        assert!(Exact.is_exact());
    }

    #[test]
    fn numeric_tolerance_merges_within_eps_and_chains() {
        let values = vec![
            Value::text("3.14"),
            Value::text("3.140"),
            Value::Int(3),
            Value::text("3.0"),
            Value::text("not a number"),
            Value::text("3.1405"),
        ];
        let eq = NumericTolerance::new(1e-3).unwrap();
        let q = ValueQuotient::build(&eq, &values);
        // 3.14 ~ 3.140 ~ 3.1405 chain into one class; 3 ~ 3.0; text alone.
        assert_eq!(q.num_classes(), 3);
        assert_eq!(q.representative_of(ValueId(1)), ValueId(0));
        assert_eq!(q.representative_of(ValueId(5)), ValueId(0));
        assert_eq!(q.representative_of(ValueId(3)), ValueId(2));
        assert_eq!(q.representative_of(ValueId(4)), ValueId(4));
        assert_eq!(q.members(q.class_of(ValueId(0)).unwrap()).len(), 3);
        assert!(!q.is_identity());
    }

    #[test]
    fn numeric_tolerance_rejects_bad_eps() {
        assert!(NumericTolerance::new(-1.0).is_err());
        assert!(NumericTolerance::new(f64::NAN).is_err());
        assert!(NumericTolerance::new(f64::INFINITY).is_err());
        assert!(NumericTolerance::new(0.0).is_ok());
    }

    #[test]
    fn numeric_tolerance_is_order_independent() {
        let forward = vec![Value::text("1.00"), Value::text("1.01"), Value::Int(5)];
        let reversed: Vec<Value> = forward.iter().rev().cloned().collect();
        let eq = NumericTolerance::new(0.02).unwrap();
        let qf = ValueQuotient::build(&eq, &forward);
        let qr = ValueQuotient::build(&eq, &reversed);
        assert_eq!(qf.num_classes(), qr.num_classes());
        // Same pairs merged either way.
        assert_eq!(
            qf.representative_of(ValueId(0)),
            qf.representative_of(ValueId(1))
        );
        assert_eq!(
            qr.representative_of(ValueId(2)),
            qr.representative_of(ValueId(1))
        );
    }

    #[test]
    fn hashed_digest_matches_exact_payloads_only() {
        let values = vec![
            Value::text("UW"),
            Value::text("uw"),
            Value::Int(42),
            Value::list_of_texts(["a", "b"]),
            Value::list_of_texts(["ab"]),
        ];
        let eq = HashedDigest::new(7);
        let q = ValueQuotient::build(&eq, &values);
        // Distinct payloads (including case and list structure) stay
        // distinct: digest equivalence is exact matching without
        // plaintext.
        assert!(q.is_identity());
        // Same payload digests equal under the same salt, differently
        // under different salts.
        assert_eq!(
            eq.value_digest(&Value::text("UW")),
            eq.value_digest(&Value::text("UW"))
        );
        assert_ne!(
            HashedDigest::new(1).value_digest(&Value::text("UW")),
            HashedDigest::new(2).value_digest(&Value::text("UW"))
        );
    }

    #[test]
    fn digests_separate_backends_and_parameters() {
        let values = arena(&["a", "b"]);
        let exact = ValueQuotient::build(&Exact, &values);
        let tol1 = ValueQuotient::build(&NumericTolerance::new(0.1).unwrap(), &values);
        let tol2 = ValueQuotient::build(&NumericTolerance::new(0.2).unwrap(), &values);
        let hashed = ValueQuotient::build(&HashedDigest::new(1), &values);
        // All four induce the identity partition here, but their digests
        // must still differ — cached artifacts never alias across
        // backends or parameters.
        let digests = [
            exact.digest(),
            tol1.digest(),
            tol2.digest(),
            hashed.digest(),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn uncovered_ids_are_implicit_singletons() {
        let values = arena(&["a"]);
        let q = ValueQuotient::build(&Exact, &values);
        assert_eq!(q.class_of(ValueId(9)), None);
        assert_eq!(q.representative_of(ValueId(9)), ValueId(9));
        assert_eq!(q.members(ClassId(9)), &[]);
    }

    #[test]
    fn covers_and_map_delta() {
        let values = vec![Value::text("1.0"), Value::text("1.000")];
        let eq = NumericTolerance::new(1e-9).unwrap();
        let q = ValueQuotient::build(&eq, &values);

        let mut b = Delta::builder();
        b.assert_value(SourceId(0), ObjectId(0), ValueId(1));
        b.retract(SourceId(1), ObjectId(0));
        let covered = b.build();
        assert!(q.covers(&covered));
        let mapped = q.map_delta(&covered);
        assert_eq!(
            mapped.ops(),
            &[
                (SourceId(0), ObjectId(0), Some(ValueId(0))),
                (SourceId(1), ObjectId(0), None),
            ]
        );

        let mut b = Delta::builder();
        b.assert_value(SourceId(0), ObjectId(0), ValueId(7));
        assert!(!q.covers(&b.build()));
    }

    #[test]
    fn extend_to_appends_singletons_and_refreshes_digest() {
        let values = vec![Value::text("1.0"), Value::text("1.000")];
        let eq = NumericTolerance::new(1e-9).unwrap();
        let mut q = ValueQuotient::build(&eq, &values);
        let before = q.digest();
        assert_eq!(q.num_classes(), 1);
        q.extend_to(4);
        assert_eq!(q.coverage(), 4);
        assert_eq!(q.num_classes(), 3);
        assert_eq!(q.representative_of(ValueId(3)), ValueId(3));
        assert_eq!(q.members(q.class_of(ValueId(3)).unwrap()), &[ValueId(3)]);
        assert!(!q.is_identity(), "the merged class is still there");
        assert_ne!(q.digest(), before, "coverage change must re-key");
        // Extending to a smaller/equal coverage is a no-op.
        let snap = q.clone();
        q.extend_to(2);
        assert_eq!(q, snap);
    }
}
