//! The v1 entry payload codec, straight between the result types and
//! bytes with no intermediate JSON tree: a typed writer renders the
//! canonical layout (see the crate's *Format* section) into one buffer,
//! and a strict pull reader walks exactly that layout, key by key.

use std::fmt::{self, Write as _};

use sailing_core::truth::ValueProbabilities;
use sailing_core::{DependenceKind, Direction, PairDependence, PipelineResult, Termination};
use sailing_model::{ObjectId, SnapshotView, SourceId, ValueId};

use crate::{frame, unframe, StoreKey, MAGIC};

#[cfg(test)]
pub(crate) mod reference;

/// A fully validated entry, as read back from disk.
pub(crate) struct DecodedEntry {
    pub(crate) key: StoreKey,
    pub(crate) snapshot: SnapshotView,
    pub(crate) result: PipelineResult,
}

/// Why a payload was refused; every reason reads as a cold miss.
type Reject = &'static str;

const KINDS: [DependenceKind; 2] = [DependenceKind::Similarity, DependenceKind::Dissimilarity];
const DIRECTIONS: [Direction; 3] = [Direction::AOnB, Direction::BOnA, Direction::Unknown];

/// A dependence kind as its JSON string: the quoted variant name.
fn kind_name(kind: DependenceKind) -> &'static str {
    match kind {
        DependenceKind::Similarity => "\"Similarity\"",
        DependenceKind::Dissimilarity => "\"Dissimilarity\"",
    }
}

/// A direction as its JSON string: the quoted variant name.
fn direction_name(direction: Direction) -> &'static str {
    match direction {
        Direction::AOnB => "\"AOnB\"",
        Direction::BOnA => "\"BOnA\"",
        Direction::Unknown => "\"Unknown\"",
    }
}

/// An `f64` as JSON: its shortest round-trip `{:?}` form, or `null` when
/// it is not finite (the reader maps `null` back to NaN).
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Debug::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Appends `[item, item, …]`, rendering each element with `f`.
fn push_seq<T>(out: &mut String, items: impl IntoIterator<Item = T>, f: impl Fn(&mut String, T)) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f(out, item);
    }
    out.push(']');
}

/// Renders one entry in format v1, framed. Deterministic for equal
/// inputs, so golden files pin the format byte for byte.
pub(crate) fn encode(key: StoreKey, snapshot: &SnapshotView, result: &PipelineResult) -> Vec<u8> {
    let probs = &result.probabilities;
    let objects = probs.objects();
    let pairs: usize = objects.iter().map(|&o| probs.distribution(o).len()).sum();
    let size = 16 * snapshot.num_assertions() + 24 * pairs + 192 * result.dependences.len();
    let mut out = String::with_capacity(1024 + size);
    // Writing to a `String` cannot fail.
    let provenance = key.provenance.map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        "{{\"snapshot_hash\":{},\"provenance\":{provenance},\"snapshot\":{{\"sources\":{},\"objects\":{},\"assertions\":",
        key.snapshot_hash,
        snapshot.num_sources(),
        snapshot.num_objects()
    );
    let triples = (0..snapshot.num_sources())
        .map(SourceId::from_index)
        .flat_map(|s| snapshot.assertions_of(s).map(move |(o, v)| (s, o, v)));
    push_seq(&mut out, triples, |out, (s, o, v)| {
        let _ = write!(out, "{},{},{}", s.0, o.0, v.0);
    });
    out.push_str("},\"result\":{\"accuracies\":");
    push_seq(&mut out, &result.accuracies, |out, &a| {
        let _ = write!(out, "{}", Num(a));
    });
    out.push_str(",\"probabilities\":{\"objects\":");
    push_seq(&mut out, &objects, |out, o| {
        let _ = write!(out, "{}", o.0);
    });
    out.push_str(",\"dists\":");
    push_seq(&mut out, &objects, |out, &o| {
        push_seq(out, probs.distribution(o), |out, &(v, p)| {
            let _ = write!(out, "{},{}", v.0, Num(p));
        });
    });
    out.push_str("},\"dependences\":");
    push_seq(&mut out, &result.dependences, |out, d| {
        let _ = write!(
            out,
            "{{\"a\":{},\"b\":{},\"probability\":{},\"prob_a_on_b\":{},\"kind\":{},\"direction\":{},\"overlap\":{},\"diagnostic\":{}}}",
            d.a.0,
            d.b.0,
            Num(d.probability),
            Num(d.prob_a_on_b),
            kind_name(d.kind),
            direction_name(d.direction),
            d.overlap,
            Num(d.diagnostic)
        );
    });
    let _ = write!(
        out,
        ",\"iterations\":{},\"converged\":{}}}}}",
        result.iterations, result.converged
    );
    frame(MAGIC, out.as_bytes())
}

/// A pull cursor: the payload bytes not read yet.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    /// Consumes `lit` if the payload continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let rest = self.0.strip_prefix(lit.as_bytes());
        self.0 = rest.unwrap_or(self.0);
        rest.is_some()
    }

    /// Expects the literal `lit` (a key, a delimiter) next.
    fn expect(&mut self, lit: &str) -> Result<(), Reject> {
        self.eat(lit)
            .then_some(())
            .ok_or("payload not in canonical layout")
    }

    /// Expects the literal `key`, then reads its value with `value`.
    fn key<T>(
        &mut self,
        key: &str,
        value: impl FnOnce(&mut Self) -> Result<T, Reject>,
    ) -> Result<T, Reject> {
        self.expect(key)?;
        value(self)
    }

    /// Splits off the longest prefix of bytes `accept` takes.
    fn token(&mut self, accept: impl Fn(u8) -> bool) -> &str {
        let len = self.0.iter().take_while(|&&b| accept(b)).count();
        let (token, rest) = self.0.split_at(len);
        self.0 = rest;
        // Every accepted byte is ASCII.
        std::str::from_utf8(token).unwrap_or_default()
    }

    /// An unsigned decimal integer (digits only, no leading zero) that
    /// fits `T`.
    fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, Reject> {
        let text = self.token(|b| b.is_ascii_digit());
        if text.len() > 1 && text.starts_with('0') {
            return Err("integer with a leading zero");
        }
        let value: u64 = text.parse().map_err(|_| "bad integer")?;
        T::try_from(value).map_err(|_| "integer out of range")
    }

    /// A float as the writer renders it: a number with a fraction or an
    /// exponent, or `null` for a non-finite value (read back as NaN).
    fn float(&mut self) -> Result<f64, Reject> {
        if self.eat("null") {
            return Ok(f64::NAN);
        }
        let text = self.token(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        if !text.contains(['.', 'e', 'E']) {
            return Err("float without fraction or exponent");
        }
        text.parse().map_err(|_| "bad float")
    }

    /// One of `all`'s variants, written as its `name`.
    fn variant<T: Copy>(&mut self, all: &[T], name: fn(T) -> &'static str) -> Result<T, Reject> {
        all.iter()
            .copied()
            .find(|&v| self.eat(name(v)))
            .ok_or("unknown variant")
    }

    /// A JSON array, one `item` call per element.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Reject>,
    ) -> Result<Vec<T>, Reject> {
        self.expect("[")?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat("]") {
                return Ok(items);
            }
            self.expect(",")?;
        }
    }
}

/// Decodes and fully validates one entry: the frame (magic, version,
/// length, checksum), the canonical layout with no trailing bytes, id
/// ranges and plausible id spaces, and the snapshot against its declared
/// hash.
pub(crate) fn decode(bytes: &[u8]) -> Result<DecodedEntry, Reject> {
    let mut c = Cursor(unframe(MAGIC, bytes)?);
    let snapshot_hash = c.key("{\"snapshot_hash\":", Cursor::uint)?;
    let provenance = c.key(",\"provenance\":", |c| {
        (!c.eat("null")).then(|| c.uint()).transpose()
    })?;
    let sources: usize = c.key(",\"snapshot\":{\"sources\":", Cursor::uint)?;
    let objects: usize = c.key(",\"objects\":", Cursor::uint)?;
    let triples = c.key(",\"assertions\":", |c| {
        c.seq(|c| {
            let (s, o): (u32, u32) = (c.uint()?, c.key(",", Cursor::uint)?);
            let v = c.key(",", Cursor::uint)?;
            if s as usize >= sources || o as usize >= objects {
                return Err("assertion outside declared dimensions");
            }
            Ok((SourceId(s), ObjectId(o), ValueId(v)))
        })
    })?;
    // The CSR offsets allocate per dense id: refuse implausible id spaces
    // so a tiny hostile document cannot force a huge allocation.
    let plausible = |id_space| serde::plausible_id_space(id_space, triples.len());
    if !plausible(sources) || !plausible(objects) {
        return Err("implausible snapshot id space");
    }

    let accuracies = c.key("},\"result\":{\"accuracies\":", |c| c.seq(Cursor::float))?;
    let dist_objects = c.key(",\"probabilities\":{\"objects\":", |c| {
        c.seq(|c| c.uint().map(ObjectId))
    })?;
    let dists = c.key(",\"dists\":", |c| {
        c.seq(|c| c.seq(|c| Ok((ValueId(c.uint()?), c.key(",", Cursor::float)?))))
    })?;
    if dist_objects.len() != dists.len() {
        return Err("objects/dists length mismatch");
    }
    let max_object = dist_objects.iter().fold(0, |m, o| m.max(o.index() + 1));
    if !serde::plausible_id_space(max_object, dist_objects.len()) {
        return Err("implausible distribution id space");
    }

    let dependences = c.key("},\"dependences\":", |c| {
        c.seq(|c| {
            let dependence = PairDependence {
                a: SourceId(c.key("{\"a\":", Cursor::uint)?),
                b: SourceId(c.key(",\"b\":", Cursor::uint)?),
                probability: c.key(",\"probability\":", Cursor::float)?,
                prob_a_on_b: c.key(",\"prob_a_on_b\":", Cursor::float)?,
                kind: c.key(",\"kind\":", |c| c.variant(&KINDS, kind_name))?,
                direction: c.key(",\"direction\":", |c| {
                    c.variant(&DIRECTIONS, direction_name)
                })?,
                overlap: c.key(",\"overlap\":", Cursor::uint)?,
                diagnostic: c.key(",\"diagnostic\":", Cursor::float)?,
            };
            c.expect("}").map(|()| dependence)
        })
    })?;
    let iterations = c.key(",\"iterations\":", Cursor::uint)?;
    let converged = c.key(",\"converged\":", |c| {
        Ok(c.eat("true") || c.expect("false").map(|()| false)?)
    })?;
    c.expect("}}")?;
    if !c.0.is_empty() {
        return Err("trailing bytes after the payload");
    }

    let snapshot = SnapshotView::from_triples(sources, objects, triples);
    if snapshot.content_hash() != snapshot_hash {
        return Err("snapshot does not match its declared hash");
    }
    let per_object = dist_objects.into_iter().zip(dists).collect();
    Ok(DecodedEntry {
        key: StoreKey {
            snapshot_hash,
            provenance,
        },
        snapshot,
        result: PipelineResult {
            probabilities: ValueProbabilities::from_object_distributions(per_object),
            accuracies,
            dependences,
            iterations,
            converged,
            // The v1 wire carries only the convergence flag (format pinned
            // by golden files); rebuild the equivalent termination record.
            termination: Termination::from_converged(converged),
        },
    })
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sailing_core::AccuCopy;
    use sailing_model::fixtures;

    use super::reference::{self, oracle_worlds};
    use super::*;

    /// Bitwise `f64` equality, with every NaN equal to every NaN.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same_entry(what: &str, typed: &DecodedEntry, oracle: &DecodedEntry) {
        assert_eq!(typed.key, oracle.key, "{what}: key");
        assert!(typed.snapshot == oracle.snapshot, "{what}: snapshot");
        let (t, o) = (&typed.result, &oracle.result);
        assert_eq!(t.accuracies.len(), o.accuracies.len(), "{what}: accuracies");
        for (i, (&a, &b)) in t.accuracies.iter().zip(&o.accuracies).enumerate() {
            assert!(same(a, b), "{what}: accuracy {i}: {a:?} vs {b:?}");
        }
        let objects = t.probabilities.objects();
        assert_eq!(objects, o.probabilities.objects(), "{what}: objects");
        for object in objects {
            let (dt, dor) = (
                t.probabilities.distribution(object),
                o.probabilities.distribution(object),
            );
            assert_eq!(dt.len(), dor.len(), "{what}: {object:?}");
            for (&(vt, pt), &(vo, po)) in dt.iter().zip(dor) {
                assert!(
                    vt == vo && same(pt, po),
                    "{what}: {object:?}: {dt:?} vs {dor:?}"
                );
            }
        }
        assert_eq!(t.dependences.len(), o.dependences.len(), "{what}: deps");
        for (dt, dor) in t.dependences.iter().zip(&o.dependences) {
            let fields = |d: &PairDependence| (d.a, d.b, d.kind, d.direction, d.overlap);
            assert!(
                fields(dt) == fields(dor)
                    && same(dt.probability, dor.probability)
                    && same(dt.prob_a_on_b, dor.prob_a_on_b)
                    && same(dt.diagnostic, dor.diagnostic),
                "{what}: {dt:?} vs {dor:?}"
            );
        }
        assert_eq!(
            (t.iterations, t.converged, t.termination),
            (o.iterations, o.converged, o.termination),
            "{what}: iterations, converged, termination"
        );
    }

    /// Writes one entry with both codecs and checks the bytes are equal,
    /// then reads it back with both and checks the entries are equal.
    fn check_parity(
        what: &str,
        key: StoreKey,
        snapshot: &SnapshotView,
        result: &PipelineResult,
    ) -> Vec<u8> {
        let bytes = encode(key, snapshot, result);
        assert!(
            bytes == reference::encode_entry(key, snapshot, result),
            "{what}: typed writer bytes differ from the Content writer's"
        );
        let typed = decode(&bytes).unwrap_or_else(|e| panic!("{what}: typed reader: {e}"));
        let oracle =
            reference::decode_entry(&bytes).unwrap_or_else(|e| panic!("{what}: oracle: {e}"));
        assert_same_entry(what, &typed, &oracle);
        bytes
    }

    fn payload(bytes: &[u8]) -> &[u8] {
        unframe(MAGIC, bytes).expect("a freshly written entry unframes")
    }

    #[test]
    fn entry_parity_on_oracle_worlds_cold_and_warm() {
        for (name, snapshot, params) in oracle_worlds() {
            let result = AccuCopy::new(params).expect("valid params").run(&snapshot);
            let hash = snapshot.content_hash();
            let warm = StoreKey::warm(hash, result.content_digest());
            check_parity(
                &format!("{name} cold"),
                StoreKey::cold(hash),
                &snapshot,
                &result,
            );
            check_parity(&format!("{name} warm"), warm, &snapshot, &result);
        }
    }

    #[test]
    fn entry_parity_non_finite_floats_write_null_and_read_nan() {
        let snapshot = fixtures::table1().0.snapshot();
        let mut result = AccuCopy::with_defaults().run(&snapshot);
        let finite_accuracies = result.accuracies[3..].to_vec();
        result.accuracies[..3].copy_from_slice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let objects = result.probabilities.objects();
        let mut per_object: Vec<_> = objects
            .iter()
            .map(|&o| (o, result.probabilities.distribution(o).to_vec()))
            .collect();
        per_object[0].1[0].1 = f64::NAN;
        per_object[1].1[0].1 = f64::INFINITY;
        per_object[2].1[0].1 = f64::NEG_INFINITY;
        result.probabilities = ValueProbabilities::from_object_distributions(per_object);
        let dep = &mut result.dependences[0];
        dep.probability = f64::NAN;
        dep.prob_a_on_b = f64::INFINITY;
        dep.diagnostic = f64::NEG_INFINITY;

        let hash = snapshot.content_hash();
        for key in [StoreKey::cold(hash), StoreKey::warm(hash, 7)] {
            let bytes = check_parity("non-finite", key, &snapshot, &result);
            let text = std::str::from_utf8(payload(&bytes)).unwrap();
            assert!(text.contains("\"accuracies\":[null,null,null,"), "{text}");
            assert!(
                text.contains("\"probability\":null,\"prob_a_on_b\":null,"),
                "{text}"
            );
            assert!(text.contains("\"diagnostic\":null}"), "{text}");
            let got = decode(&bytes).unwrap().result;
            assert!(got.accuracies[..3].iter().all(|a| a.is_nan()));
            assert!(got.accuracies[3..]
                .iter()
                .zip(&finite_accuracies)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            for &o in &objects[..3] {
                assert!(got.probabilities.distribution(o)[0].1.is_nan(), "{o:?}");
            }
            let dep = &got.dependences[0];
            assert!(dep.probability.is_nan() && dep.prob_a_on_b.is_nan());
            assert!(dep.diagnostic.is_nan());
        }
    }

    /// Valid JSON that is not in the writer's canonical layout is refused
    /// by the typed reader, although the tree decoder reads it.
    #[test]
    fn entry_parity_non_canonical_json_is_refused() {
        let snapshot = fixtures::table1().0.snapshot();
        let result = AccuCopy::with_defaults().run(&snapshot);
        let bytes = encode(StoreKey::cold(snapshot.content_hash()), &snapshot, &result);
        let text = std::str::from_utf8(payload(&bytes)).unwrap();
        let variants = [
            ("re-spaced", text.replace(",\"", ", \"")),
            ("trailing newline", format!("{text}\n")),
            (
                "keys reordered",
                text.replacen(
                    "\"iterations\":",
                    &format!("\"converged\":{},\"iterations\":", result.converged),
                    1,
                )
                .replacen(
                    &format!(",\"converged\":{}}}}}", result.converged),
                    "}}",
                    1,
                ),
            ),
            (
                "escaped key",
                text.replacen("\"snapshot_hash\"", "\"snapshot\\u005fhash\"", 1),
            ),
        ];
        for (what, variant) in variants {
            let framed = frame(MAGIC, variant.as_bytes());
            assert!(
                reference::decode_entry(&framed).is_ok(),
                "{what}: the variant must stay valid JSON the tree decoder reads"
            );
            assert!(decode(&framed).is_err(), "{what}: must be refused");
        }
    }

    /// One damage step on a payload.
    fn mutate(rng: &mut ChaCha8Rng, payload: &[u8]) -> (&'static str, Vec<u8>) {
        const KEYS: [&str; 10] = [
            "\"sources\"",
            "\"objects\"",
            "\"probability\"",
            "\"prob_a_on_b\"",
            "\"a\"",
            "\"b\"",
            "\"iterations\"",
            "\"overlap\"",
            "\"accuracies\"",
            "\"dists\"",
        ];
        let mut out = payload.to_vec();
        let at = rng.gen_range(0..out.len());
        let kind = match rng.gen_range(0..6u32) {
            0 => {
                out[at] ^= 1 << rng.gen_range(0..8u32);
                "flip"
            }
            1 => {
                out.truncate(at);
                "truncate"
            }
            2 => {
                out.insert(at, b'0' + rng.gen_range(0..10u8));
                "insert digit"
            }
            3 => {
                out.insert(at, [b' ', b'\n', b'\t'][rng.gen_range(0..3usize)]);
                "insert whitespace"
            }
            4 => {
                let token = b"0123456789.,:[]{}-+eE\"n";
                out[at] = token[rng.gen_range(0..token.len())];
                "overwrite"
            }
            _ => {
                let (i, j) = (rng.gen_range(0..KEYS.len()), rng.gen_range(0..KEYS.len()));
                // An earlier damage step may have left invalid UTF-8;
                // such a payload keeps its keys.
                if let Ok(text) = std::str::from_utf8(&out) {
                    let swapped = text
                        .replacen(KEYS[i], "\u{1}", 1)
                        .replacen(KEYS[j], KEYS[i], 1)
                        .replacen('\u{1}', KEYS[j], 1);
                    out = swapped.into_bytes();
                }
                "swap keys"
            }
        };
        (kind, out)
    }

    /// Seeded hostile payloads, re-framed with a valid checksum so they
    /// reach the payload reader: it never panics, and whatever it accepts
    /// the tree decoder accepts too, as an equal entry.
    #[test]
    fn entry_parity_hostile_payloads() {
        let snapshots = [
            fixtures::table1().0.snapshot(),
            fixtures::table2().snapshot(),
            fixtures::table3().1.latest_snapshot(),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A11);
        let (mut accepted, mut refused) = (0, 0);
        for snapshot in &snapshots {
            let result = AccuCopy::with_defaults().run(snapshot);
            let bytes = encode(StoreKey::cold(snapshot.content_hash()), snapshot, &result);
            let payload = payload(&bytes);
            for case in 0..800 {
                let (kind, mut damaged) = mutate(&mut rng, payload);
                if case % 4 == 3 {
                    damaged = mutate(&mut rng, &damaged).1;
                }
                let framed = frame(MAGIC, &damaged);
                let what = format!("case {case} ({kind})");
                let typed = catch_unwind(AssertUnwindSafe(|| decode(&framed)))
                    .unwrap_or_else(|_| panic!("{what}: the typed reader panicked"));
                match typed {
                    Ok(typed) => {
                        let oracle = reference::decode_entry(&framed).unwrap_or_else(|e| {
                            panic!("{what}: typed reader accepts, oracle refuses: {e}")
                        });
                        assert_same_entry(&what, &typed, &oracle);
                        accepted += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        // Both outcomes occur, so neither branch is vacuous.
        assert!(
            accepted > 20 && refused > 20,
            "{accepted} accepted, {refused} refused"
        );
    }
}
