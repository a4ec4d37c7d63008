//! The `Content`-tree entry codec that the typed [`super::encode`] and
//! [`super::decode`] replaced, kept only as a test oracle: the whole
//! payload is built as a [`Content`] tree and rendered by the vendored
//! JSON writer, and read back by parsing the text into a tree and looking
//! fields up by name. The typed writer must produce its bytes exactly, and
//! every payload the typed reader accepts must decode here to an equal
//! entry.
//!
//! [`oracle_worlds`] lists the worlds the parity tests of [`super`] run
//! on: the worlds of `sailing_core`'s detection-kernel oracle.

use serde::{Content, Deserialize};

use sailing_core::truth::ValueProbabilities;
use sailing_core::{DetectionParams, PairDependence, PipelineResult};
use sailing_datagen::bookstores::{BookCorpus, BookCorpusConfig};
use sailing_datagen::temporal::{table3_style, TemporalWorld};
use sailing_datagen::world::{SnapshotWorld, WorldConfig};
use sailing_datagen::{ChurnConfig, ChurnWorld, VariantWorld, VariantWorldConfig};
use sailing_model::{fixtures, ObjectId, SnapshotView, SourceId, ValueId};

use super::DecodedEntry;
use crate::{frame, unframe, StoreKey, MAGIC};

/// The Table 1–3 fixtures and every generated world family, each with the
/// detection parameters its analysis runs under.
pub(crate) fn oracle_worlds() -> Vec<(String, SnapshotView, DetectionParams)> {
    let params = DetectionParams::default();
    let mut worlds = vec![
        ("table 1".to_string(), fixtures::table1().0.snapshot()),
        ("table 2".to_string(), fixtures::table2().snapshot()),
        (
            "table 3".to_string(),
            fixtures::table3().1.latest_snapshot(),
        ),
        (
            "specialist".to_string(),
            SnapshotWorld::generate(&WorldConfig::specialist(100, 400, 40, 2)).snapshot,
        ),
        (
            "mixed".to_string(),
            SnapshotWorld::generate(&WorldConfig::mixed(200, 12, 4, (0.3, 0.9), 3)).snapshot,
        ),
        (
            "table3_style".to_string(),
            TemporalWorld::generate(&table3_style(120, 2, 20).0)
                .history
                .latest_snapshot(),
        ),
        (
            "variants".to_string(),
            VariantWorld::generate(&VariantWorldConfig::messy(120, 8, 42)).snapshot,
        ),
    ];
    let churn = ChurnWorld::generate(&ChurnConfig::streaming(6, 3, 10, 3, 21));
    let epochs = churn.snapshots();
    worlds.push(("churn initial".to_string(), churn.initial));
    for (epoch, snapshot) in epochs.into_iter().enumerate() {
        worlds.push((format!("churn epoch {epoch}"), snapshot));
    }
    let mut worlds: Vec<_> = worlds
        .into_iter()
        .map(|(name, snapshot)| (name, snapshot, params.clone()))
        .collect();
    let corpus = BookCorpus::generate(&BookCorpusConfig::small(42));
    for linked in [false, true] {
        worlds.push((
            format!("bookstores linked={linked}"),
            corpus.author_claim_store(linked).snapshot(),
            DetectionParams {
                min_overlap: corpus.config.min_shared_books,
                ..params.clone()
            },
        ));
    }
    worlds
}

/// The store's compact snapshot shape: dimensions plus one flat
/// `[s,o,v, s,o,v, …]` array — half the legacy wire size (no redundant
/// inverted index) and no string map keys to allocate on decode.
fn snapshot_content(snapshot: &SnapshotView) -> Content {
    let mut flat = Vec::with_capacity(snapshot.num_assertions() * 3);
    for s in 0..snapshot.num_sources() {
        let source = SourceId::from_index(s);
        for (o, v) in snapshot.assertions_of(source) {
            flat.push(Content::U64(u64::from(source.0)));
            flat.push(Content::U64(u64::from(o.0)));
            flat.push(Content::U64(u64::from(v.0)));
        }
    }
    Content::Map(vec![
        (
            Content::Str("sources".to_string()),
            Content::U64(snapshot.num_sources() as u64),
        ),
        (
            Content::Str("objects".to_string()),
            Content::U64(snapshot.num_objects() as u64),
        ),
        (Content::Str("assertions".to_string()), Content::Seq(flat)),
    ])
}

fn snapshot_from_content(content: &Content) -> Result<SnapshotView, &'static str> {
    let dim = |name| {
        content
            .field(name)
            .and_then(|c| u64::deserialize(c).ok())
            .map(|d| d as usize)
            .ok_or("bad snapshot dimensions")
    };
    let (sources, objects) = (dim("sources")?, dim("objects")?);
    let flat = match content.field("assertions") {
        Some(Content::Seq(s)) => s,
        _ => return Err("missing assertions"),
    };
    if flat.len() % 3 != 0 {
        return Err("assertion array not a multiple of 3");
    }
    let entries = flat.len() / 3;
    // The CSR offsets allocate per dense id: refuse implausible id spaces
    // so a tiny hostile document cannot force a huge allocation.
    if !serde::plausible_id_space(sources, entries) || !serde::plausible_id_space(objects, entries)
    {
        return Err("implausible snapshot id space");
    }
    let mut triples = Vec::with_capacity(entries);
    for t in flat.chunks_exact(3) {
        let id = |c: &Content| -> Result<u32, &'static str> {
            u64::deserialize(c)
                .ok()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("bad assertion id")
        };
        let (s, o) = (id(&t[0])? as usize, id(&t[1])? as usize);
        if s >= sources || o >= objects {
            return Err("assertion outside declared dimensions");
        }
        triples.push((SourceId(s as u32), ObjectId(o as u32), ValueId(id(&t[2])?)));
    }
    Ok(SnapshotView::from_triples(sources, objects, triples))
}

/// The store's compact result shape: accuracies and per-object
/// distributions as flat numeric arrays (`dists[i]` = `[v,p, v,p, …]`
/// for `objects[i]`, kept in the reported descending-probability order so
/// the encode→decode round-trip is byte-canonical); dependences reuse the
/// small derived `PairDependence` shape.
fn result_content(result: &PipelineResult) -> Content {
    let objects = result.probabilities.objects();
    let dists = Content::Seq(
        objects
            .iter()
            .map(|&o| {
                Content::Seq(
                    result
                        .probabilities
                        .distribution(o)
                        .iter()
                        .flat_map(|&(v, p)| [Content::U64(u64::from(v.0)), Content::F64(p)])
                        .collect(),
                )
            })
            .collect(),
    );
    let objects = Content::Seq(
        objects
            .iter()
            .map(|o| Content::U64(u64::from(o.0)))
            .collect(),
    );
    Content::Map(vec![
        (
            Content::Str("accuracies".to_string()),
            serde::Serialize::serialize(&result.accuracies),
        ),
        (
            Content::Str("probabilities".to_string()),
            Content::Map(vec![
                (Content::Str("objects".to_string()), objects),
                (Content::Str("dists".to_string()), dists),
            ]),
        ),
        (
            Content::Str("dependences".to_string()),
            serde::Serialize::serialize(&result.dependences),
        ),
        (
            Content::Str("iterations".to_string()),
            Content::U64(result.iterations as u64),
        ),
        (
            Content::Str("converged".to_string()),
            Content::Bool(result.converged),
        ),
    ])
}

fn result_from_content(content: &Content) -> Result<PipelineResult, &'static str> {
    let accuracies = content
        .field("accuracies")
        .and_then(|c| <Vec<f64>>::deserialize(c).ok())
        .ok_or("bad accuracies")?;
    let probs = content
        .field("probabilities")
        .ok_or("missing probabilities")?;
    let objects = match probs.field("objects") {
        Some(Content::Seq(s)) => s,
        _ => return Err("missing distribution objects"),
    };
    let dists = match probs.field("dists") {
        Some(Content::Seq(s)) => s,
        _ => return Err("missing distributions"),
    };
    if objects.len() != dists.len() {
        return Err("objects/dists length mismatch");
    }
    let max_object = objects
        .iter()
        .map(|c| u64::deserialize(c).map(|o| o as usize + 1))
        .try_fold(0usize, |m, o| o.map(|o| m.max(o)))
        .map_err(|_| "bad distribution object id")?;
    if !serde::plausible_id_space(max_object, objects.len()) {
        return Err("implausible distribution id space");
    }
    let mut per_object = Vec::with_capacity(objects.len());
    for (o, dist) in objects.iter().zip(dists) {
        let o = u64::deserialize(o).map_err(|_| "bad distribution object id")?;
        let flat = match dist {
            Content::Seq(s) => s,
            _ => return Err("distribution not an array"),
        };
        if flat.len() % 2 != 0 {
            return Err("distribution array not value/probability pairs");
        }
        let mut d = Vec::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let v = u64::deserialize(&pair[0])
                .ok()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("bad distribution value id")?;
            let p = f64::deserialize(&pair[1]).map_err(|_| "bad probability")?;
            d.push((ValueId(v), p));
        }
        per_object.push((ObjectId(o as u32), d));
    }
    let dependences = content
        .field("dependences")
        .and_then(|c| <Vec<PairDependence>>::deserialize(c).ok())
        .ok_or("bad dependences")?;
    let iterations = content
        .field("iterations")
        .and_then(|c| u64::deserialize(c).ok())
        .ok_or("bad iterations")? as usize;
    let converged = content
        .field("converged")
        .and_then(|c| bool::deserialize(c).ok())
        .ok_or("bad converged flag")?;
    Ok(PipelineResult {
        probabilities: ValueProbabilities::from_object_distributions(per_object),
        accuracies,
        dependences,
        iterations,
        converged,
        // The v1 wire carries only the convergence flag (format pinned by
        // golden files); rebuild the equivalent termination record.
        termination: sailing_core::Termination::from_converged(converged),
    })
}

/// Renders one entry in format v1. Deterministic for equal inputs: the
/// payload is canonical JSON over canonical layouts, so golden files can
/// pin the format.
pub(crate) fn encode_entry(
    key: StoreKey,
    snapshot: &SnapshotView,
    result: &PipelineResult,
) -> Vec<u8> {
    let payload = serde::json::write(&Content::Map(vec![
        (
            Content::Str("snapshot_hash".to_string()),
            Content::U64(key.snapshot_hash),
        ),
        (
            Content::Str("provenance".to_string()),
            match key.provenance {
                Some(p) => Content::U64(p),
                None => Content::Null,
            },
        ),
        (
            Content::Str("snapshot".to_string()),
            snapshot_content(snapshot),
        ),
        (Content::Str("result".to_string()), result_content(result)),
    ]));
    frame(MAGIC, payload.as_bytes())
}

/// Decodes and fully validates one entry. Every failure is a `&'static
/// str` reason — the read path maps them all to a cold miss, `compact`
/// to a removal.
pub(crate) fn decode_entry(bytes: &[u8]) -> Result<DecodedEntry, &'static str> {
    let payload = unframe(MAGIC, bytes)?;
    let payload = std::str::from_utf8(payload).map_err(|_| "payload not UTF-8")?;
    let content = serde::json::parse(payload).map_err(|_| "payload not JSON")?;
    let snapshot_hash = content
        .field("snapshot_hash")
        .and_then(|c| u64::deserialize(c).ok())
        .ok_or("missing snapshot_hash")?;
    let provenance = match content.field("provenance") {
        Some(Content::Null) | None => None,
        Some(other) => Some(u64::deserialize(other).map_err(|_| "bad provenance")?),
    };
    let snapshot = content
        .field("snapshot")
        .ok_or("missing snapshot")
        .and_then(snapshot_from_content)?;
    let result = content
        .field("result")
        .ok_or("missing result")
        .and_then(result_from_content)?;
    if snapshot.content_hash() != snapshot_hash {
        return Err("snapshot does not match its declared hash");
    }
    Ok(DecodedEntry {
        key: StoreKey {
            snapshot_hash,
            provenance,
        },
        snapshot,
        result,
    })
}
