//! Property-based tests over the core invariants.
//!
//! The offline build cannot use `proptest`, so these properties run over a
//! seeded generator loop: every case derives from the vendored
//! ChaCha8-based RNG, so failures are exactly reproducible from the case
//! index printed in the assertion message.

use rand::seq::SliceRandom;
use rand::Rng as _;

use sailing::core::dissim::{DissimParams, RatingView};
use sailing::core::truth::{naive_probabilities, weighted_vote, DependenceMatrix};
use sailing::core::{copy, AccuCopy, DetectionParams, Termination, Watchdog};
use sailing::datagen::rng;
use sailing::linkage::{jaro_winkler, levenshtein, normalize, normalized_eq, parse_author_list};
use sailing::model::{
    ClaimStoreBuilder, Delta, ObjectId, SnapshotView, SourceId, UpdateTrace, ValueId,
};

const CASES: u64 = 64;

/// Arbitrary small snapshot: up to 8 sources × 12 objects × 4 values.
fn random_snapshot(seed: u64) -> SnapshotView {
    let mut rng = rng(seed);
    let n_triples = rng.gen_range(1..120usize);
    let triples: Vec<(SourceId, ObjectId, ValueId)> = (0..n_triples)
        .map(|_| {
            let s = rng.gen_range(0..8u32);
            let o = rng.gen_range(0..12u32);
            let v = rng.gen_range(0..4u32);
            (SourceId(s), ObjectId(o), ValueId(o * 4 + v))
        })
        .collect();
    SnapshotView::from_triples(8, 12, triples)
}

fn random_word(rng: &mut sailing::datagen::Rng, chars: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| *chars.choose(rng).unwrap()).collect()
}

fn lowercase_pool() -> Vec<char> {
    ('a'..='z').collect()
}

/// A deliberately naive hash-map snapshot, mirroring the pre-CSR layout:
/// the oracle the columnar implementation is checked against.
struct ReferenceSnapshot {
    per_source: Vec<std::collections::HashMap<ObjectId, ValueId>>,
}

impl ReferenceSnapshot {
    fn from_triples(num_sources: usize, triples: &[(SourceId, ObjectId, ValueId)]) -> Self {
        let mut per_source = vec![std::collections::HashMap::new(); num_sources];
        for &(s, o, v) in triples {
            per_source[s.index()].insert(o, v); // last write wins
        }
        Self { per_source }
    }

    fn value(&self, s: SourceId, o: ObjectId) -> Option<ValueId> {
        self.per_source[s.index()].get(&o).copied()
    }

    fn coverage(&self, s: SourceId) -> usize {
        self.per_source[s.index()].len()
    }

    fn assertions_on(&self, o: ObjectId) -> Vec<(SourceId, ValueId)> {
        let mut out: Vec<_> = self
            .per_source
            .iter()
            .enumerate()
            .filter_map(|(s, m)| m.get(&o).map(|&v| (SourceId::from_index(s), v)))
            .collect();
        out.sort();
        out
    }

    fn value_counts(&self, o: ObjectId) -> Vec<(ValueId, usize)> {
        let mut counts: std::collections::HashMap<ValueId, usize> =
            std::collections::HashMap::new();
        for (_, v) in self.assertions_on(o) {
            *counts.entry(v).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn overlap(&self, a: SourceId, b: SourceId) -> Vec<(ObjectId, ValueId, ValueId)> {
        let mut out: Vec<_> = self.per_source[a.index()]
            .iter()
            .filter_map(|(&o, &va)| self.value(b, o).map(|vb| (o, va, vb)))
            .collect();
        out.sort_by_key(|&(o, _, _)| o);
        out
    }
}

/// The CSR `SnapshotView` must agree with the reference hash-map layout on
/// every accessor, across random worlds including duplicate `(source,
/// object)` triples (last write wins).
#[test]
fn csr_snapshot_agrees_with_reference_hashmap() {
    for case in 0..CASES {
        let mut r = rng(11_000 + case);
        let n_triples = r.gen_range(0..150usize);
        let triples: Vec<(SourceId, ObjectId, ValueId)> = (0..n_triples)
            .map(|_| {
                (
                    SourceId(r.gen_range(0..8u32)),
                    ObjectId(r.gen_range(0..12u32)),
                    ValueId(r.gen_range(0..5u32)),
                )
            })
            .collect();
        let snap = SnapshotView::from_triples(8, 12, triples.clone());
        let reference = ReferenceSnapshot::from_triples(8, &triples);

        let mut total = 0usize;
        for s in (0..8).map(SourceId) {
            assert_eq!(snap.coverage(s), reference.coverage(s), "case {case}");
            total += reference.coverage(s);
            for o in (0..12).map(ObjectId) {
                assert_eq!(snap.value(s, o), reference.value(s, o), "case {case}");
            }
            let mut of: Vec<_> = snap.assertions_of(s).collect();
            of.sort();
            let mut expected: Vec<_> = reference.per_source[s.index()]
                .iter()
                .map(|(&o, &v)| (o, v))
                .collect();
            expected.sort();
            assert_eq!(of, expected, "case {case}: assertions_of({s})");
        }
        assert_eq!(snap.num_assertions(), total, "case {case}");

        for o in (0..12).map(ObjectId) {
            assert_eq!(
                snap.assertions_on(o),
                reference.assertions_on(o).as_slice(),
                "case {case}: assertions_on({o})"
            );
            assert_eq!(
                snap.value_counts(o),
                reference.value_counts(o),
                "case {case}: value_counts({o})"
            );
            assert_eq!(
                snap.distinct_values(o),
                reference.value_counts(o).len(),
                "case {case}: distinct_values({o})"
            );
        }

        for a in (0..8).map(SourceId) {
            for b in (0..8).map(SourceId) {
                let got: Vec<_> = snap.overlap(a, b).collect();
                assert_eq!(
                    got,
                    reference.overlap(a, b),
                    "case {case}: overlap({a},{b})"
                );
                assert_eq!(snap.overlap_size(a, b), got.len(), "case {case}");
            }
        }
    }
}

/// `SnapshotView::content_hash` — the analysis cache's and persistent
/// store's key — must be invariant under (a) source/claim insertion order
/// and (b) a serde round-trip through the canonical JSON wire shape, for
/// randomized worlds. It must also *change* whenever the assertion set
/// changes, or distinct snapshots would silently share cache entries.
#[test]
fn content_hash_invariant_under_serde_and_insertion_order() {
    for case in 0..CASES {
        let mut r = rng(12_000 + case);
        let n_triples = r.gen_range(1..150usize);
        let mut triples: Vec<(SourceId, ObjectId, ValueId)> = (0..n_triples)
            .map(|_| {
                (
                    SourceId(r.gen_range(0..8u32)),
                    ObjectId(r.gen_range(0..12u32)),
                    ValueId(r.gen_range(0..5u32)),
                )
            })
            .collect();
        // Duplicate (source, object) pairs make insertion order *matter*
        // for content (last write wins), so compare permutations of the
        // deduplicated assertion set, where order must NOT matter.
        triples.sort_unstable();
        triples.dedup_by_key(|&mut (s, o, _)| (s, o));
        let snap = SnapshotView::from_triples(8, 12, triples.clone());
        let hash = snap.content_hash();

        let mut shuffled = triples.clone();
        shuffled.shuffle(&mut r);
        let reordered = SnapshotView::from_triples(8, 12, shuffled);
        assert_eq!(
            hash,
            reordered.content_hash(),
            "case {case}: insertion order leaked into the content hash"
        );

        let back = SnapshotView::from_json_str(&snap.to_canonical_json())
            .unwrap_or_else(|e| panic!("case {case}: round-trip failed: {e}"));
        assert_eq!(back, snap, "case {case}: serde round-trip changed content");
        assert_eq!(
            hash,
            back.content_hash(),
            "case {case}: serde round-trip changed the hash"
        );

        // Sensitivity: dropping one assertion must move the hash (else
        // the cache would serve a stale analysis for the shrunk world).
        if triples.len() > 1 {
            let mut smaller = triples.clone();
            smaller.remove(r.gen_range(0..smaller.len()));
            let shrunk = SnapshotView::from_triples(8, 12, smaller);
            assert_ne!(hash, shrunk.content_hash(), "case {case}");
        }
    }
}

/// The warm-start provenance digest must likewise survive the canonical
/// serde round-trip — the persistent store keys warm entries by it, so a
/// digest that drifted across save/load would turn every cross-process
/// warm lookup into a miss (or worse, a false hit).
#[test]
fn pipeline_result_digest_survives_serde_round_trip() {
    for case in 0..(CASES / 4) {
        let snapshot = random_snapshot(13_000 + case);
        let result = AccuCopy::with_defaults().run(&snapshot);
        let json = result.to_canonical_json();
        let back = sailing::core::PipelineResult::from_json_str(&json)
            .unwrap_or_else(|e| panic!("case {case}: round-trip failed: {e}"));
        assert_eq!(
            back.content_digest(),
            result.content_digest(),
            "case {case}"
        );
        assert_eq!(back.to_canonical_json(), json, "case {case}: not canonical");
        for (a, b) in back.accuracies.iter().zip(&result.accuracies) {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: f64 drifted");
        }
    }
}

#[test]
fn value_probabilities_are_valid() {
    for case in 0..CASES {
        let snapshot = random_snapshot(1000 + case);
        let acc = 0.05 + (case as f64 / CASES as f64) * 0.9;
        let params = DetectionParams::default();
        let accs = vec![acc; snapshot.num_sources()];
        let probs = weighted_vote(&snapshot, &accs, &DependenceMatrix::new(), &params);
        for o in probs.objects() {
            let d = probs.distribution(o);
            let total: f64 = d.iter().map(|&(_, p)| p).sum();
            assert!(total <= 1.0 + 1e-9, "case {case}: mass {total} at {o:?}");
            assert!(
                d.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)),
                "case {case}"
            );
            assert!(
                d.windows(2).all(|w| w[0].1 >= w[1].1),
                "case {case}: sorted desc"
            );
        }
    }
}

#[test]
fn copy_posteriors_are_probabilities() {
    for case in 0..CASES {
        let snapshot = random_snapshot(2000 + case);
        let params = DetectionParams {
            min_overlap: 1,
            ..DetectionParams::default()
        };
        let probs = naive_probabilities(&snapshot);
        let accs = vec![0.7; snapshot.num_sources()];
        for a in 0..snapshot.num_sources() {
            for b in (a + 1)..snapshot.num_sources() {
                if let Some(dep) = copy::detect_pair(
                    &snapshot,
                    SourceId(a as u32),
                    SourceId(b as u32),
                    &probs,
                    &accs,
                    &params,
                ) {
                    assert!((0.0..=1.0).contains(&dep.probability), "case {case}");
                    assert!((0.0..=1.0).contains(&dep.prob_a_on_b), "case {case}");
                    assert!(dep.a < dep.b, "case {case}");
                }
            }
        }
    }
}

#[test]
fn copy_detection_is_orientation_stable() {
    for case in 0..CASES {
        let snapshot = random_snapshot(3000 + case);
        let params = DetectionParams {
            min_overlap: 1,
            ..DetectionParams::default()
        };
        let probs = naive_probabilities(&snapshot);
        let accs = vec![0.7; snapshot.num_sources()];
        for a in 0..snapshot.num_sources().min(4) {
            for b in (a + 1)..snapshot.num_sources().min(4) {
                let ab = copy::detect_pair(
                    &snapshot,
                    SourceId(a as u32),
                    SourceId(b as u32),
                    &probs,
                    &accs,
                    &params,
                );
                let ba = copy::detect_pair(
                    &snapshot,
                    SourceId(b as u32),
                    SourceId(a as u32),
                    &probs,
                    &accs,
                    &params,
                );
                match (ab, ba) {
                    (Some(x), Some(y)) => {
                        assert!((x.probability - y.probability).abs() < 1e-9, "case {case}");
                        assert!((x.prob_a_on_b - y.prob_a_on_b).abs() < 1e-9, "case {case}");
                    }
                    (None, None) => {}
                    _ => panic!("case {case}: asymmetric overlap gating"),
                }
            }
        }
    }
}

#[test]
fn pipeline_always_terminates_with_valid_state() {
    for case in 0..CASES {
        let snapshot = random_snapshot(4000 + case);
        let result = AccuCopy::with_defaults().run(&snapshot);
        assert!(
            result.iterations <= DetectionParams::default().max_iterations,
            "case {case}"
        );
        for &a in &result.accuracies {
            assert!((0.0..=1.0).contains(&a), "case {case}");
        }
        for dep in &result.dependences {
            assert!((0.0..=1.0).contains(&dep.probability), "case {case}");
        }
        // Decisions only pick asserted values.
        for (o, v) in result.decisions() {
            let asserted = snapshot.assertions_on(o).iter().any(|&(_, av)| av == v);
            assert!(asserted, "case {case}: decision must be an asserted value");
        }
    }
}

#[test]
fn source_relabeling_permutes_results() {
    for seed in 0..CASES {
        // Renaming sources must not change what is detected, only labels.
        let mut b1 = ClaimStoreBuilder::new();
        let mut b2 = ClaimStoreBuilder::new();
        let objects = ["o1", "o2", "o3", "o4", "o5"];
        for (i, o) in objects.iter().enumerate() {
            let v = format!("v{}", (seed as usize + i) % 3);
            b1.add("A", o, v.as_str())
                .add("B", o, v.as_str())
                .add("C", o, "other");
            // Same data, sources added in reverse order.
            b2.add("C", o, "other")
                .add("B", o, v.as_str())
                .add("A", o, v.as_str());
        }
        let r1 = AccuCopy::with_defaults().run(&b1.build().snapshot());
        let r2 = AccuCopy::with_defaults().run(&b2.build().snapshot());
        // A↔B dependence must be identical regardless of labelling order.
        let p1 = r1
            .dependences
            .iter()
            .map(|d| d.probability)
            .fold(0.0, f64::max);
        let p2 = r2
            .dependences
            .iter()
            .map(|d| d.probability)
            .fold(0.0, f64::max);
        assert!((p1 - p2).abs() < 1e-6, "seed {seed}: {p1} vs {p2}");
    }
}

#[test]
fn update_trace_invariants() {
    for case in 0..CASES {
        let mut r = rng(5000 + case);
        let n = r.gen_range(0..40usize);
        let pairs: Vec<(i64, ValueId)> = (0..n)
            .map(|_| (r.gen_range(0..100i64), ValueId(r.gen_range(0..5u32))))
            .collect();
        let trace = UpdateTrace::from_pairs(pairs);
        let updates = trace.updates();
        assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "case {case}: strictly increasing times"
        );
        assert!(
            updates.windows(2).all(|w| w[0].1 != w[1].1),
            "case {case}: no consecutive duplicates"
        );
        if let Some((t, v)) = trace.latest() {
            assert_eq!(trace.value_at(t), Some(v), "case {case}");
            assert_eq!(trace.value_at(i64::MAX), Some(v), "case {case}");
        }
    }
}

#[test]
fn levenshtein_is_a_metric() {
    let pool = lowercase_pool();
    for case in 0..CASES {
        let mut r = rng(6000 + case);
        let a = random_word(&mut r, &pool, 12);
        let b = random_word(&mut r, &pool, 12);
        let c = random_word(&mut r, &pool, 12);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "case {case}");
        assert_eq!(levenshtein(&a, &a), 0, "case {case}");
        // Triangle inequality.
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "case {case}: {a:?} {b:?} {c:?}"
        );
    }
}

#[test]
fn jaro_winkler_bounded_and_reflexive() {
    let pool: Vec<char> = ('a'..='z').chain('A'..='Z').chain([' ']).collect();
    for case in 0..CASES {
        let mut r = rng(7000 + case);
        let a = random_word(&mut r, &pool, 16);
        let b = random_word(&mut r, &pool, 16);
        let s = jaro_winkler(&a, &b);
        assert!((0.0..=1.0 + 1e-12).contains(&s), "case {case}");
        assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12, "case {case}");
        assert!((s - jaro_winkler(&b, &a)).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn normalize_is_idempotent() {
    // Printable chars across scripts, punctuation, accents, and whitespace.
    let pool: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain([
            'é', 'Ü', 'ß', 'ç', 'ø', 'Б', '中', '.', ',', ';', '-', '\'', '"', ' ', '\t',
        ])
        .collect();
    for case in 0..CASES {
        let mut r = rng(8000 + case);
        let s = random_word(&mut r, &pool, 24);
        let once = normalize(&s);
        assert_eq!(normalize(&once), once, "case {case}: input {s:?}");
    }
}

#[test]
fn author_list_match_score_symmetric_and_bounded() {
    let first_pool = lowercase_pool();
    let make_author_list = |r: &mut sailing::datagen::Rng| {
        let n = r.gen_range(1..=3usize);
        (0..n)
            .map(|_| {
                let cap = |w: String| {
                    let mut cs = w.chars();
                    match cs.next() {
                        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
                        None => String::new(),
                    }
                };
                let first = cap(format!("{}x", random_word(r, &first_pool, 7)));
                let last = cap(format!("{}y", random_word(r, &first_pool, 7)));
                format!("{first} {last}")
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    for case in 0..CASES {
        let mut r = rng(9000 + case);
        let a = make_author_list(&mut r);
        let b = make_author_list(&mut r);
        let la = parse_author_list(&a);
        let lb = parse_author_list(&b);
        let sab = la.match_score(&lb);
        let sba = lb.match_score(&la);
        assert!((sab - sba).abs() < 1e-9, "case {case}: {a:?} vs {b:?}");
        assert!((0.0..=1.0 + 1e-9).contains(&sab), "case {case}");
        assert!(la.match_score(&la) > 0.99, "case {case}: {a:?}");
    }
}

/// `SnapshotView::apply_delta` must agree with a full rebuild from
/// scratch after every epoch of a random delta sequence — same CSR
/// content (`==`) and same `content_hash` (the cache/persist key) — for
/// random worlds with asserts, retractions, duplicate `(source, object)`
/// events (last wins), and deltas that grow the source/object spaces.
#[test]
fn apply_delta_agrees_with_full_rebuild() {
    for case in 0..CASES {
        let mut r = rng(14_000 + case);
        let n_triples = r.gen_range(0..100usize);
        let triples: Vec<(SourceId, ObjectId, ValueId)> = (0..n_triples)
            .map(|_| {
                let o = r.gen_range(0..12u32);
                (
                    SourceId(r.gen_range(0..8u32)),
                    ObjectId(o),
                    ValueId(o * 4 + r.gen_range(0..4u32)),
                )
            })
            .collect();
        let mut snap = SnapshotView::from_triples(8, 12, triples.clone());
        let mut reference: Vec<std::collections::HashMap<ObjectId, ValueId>> =
            vec![std::collections::HashMap::new(); 8];
        for &(s, o, v) in &triples {
            reference[s.index()].insert(o, v); // last write wins
        }
        let (mut num_sources, mut num_objects) = (8usize, 12usize);

        for epoch in 0..r.gen_range(1..5usize) {
            let mut b = Delta::builder();
            for _ in 0..r.gen_range(1..30usize) {
                // Ids up to 10/14 exercise space growth beyond the base 8/12.
                let s = SourceId(r.gen_range(0..10u32));
                let o = ObjectId(r.gen_range(0..14u32));
                if r.gen::<f64>() < 0.25 {
                    b.retract(s, o);
                } else {
                    b.assert_value(s, o, ValueId(o.0 * 4 + r.gen_range(0..4u32)));
                }
            }
            let delta = b.build();
            snap = snap.apply_delta(&delta);

            num_sources = num_sources.max(delta.min_source_space());
            num_objects = num_objects.max(delta.min_object_space());
            reference.resize(num_sources, std::collections::HashMap::new());
            for &(s, o, v) in delta.ops() {
                match v {
                    Some(v) => {
                        reference[s.index()].insert(o, v);
                    }
                    None => {
                        reference[s.index()].remove(&o);
                    }
                }
            }

            let rebuilt_triples = reference.iter().enumerate().flat_map(|(s, m)| {
                m.iter()
                    .map(move |(&o, &v)| (SourceId::from_index(s), o, v))
            });
            let rebuilt = SnapshotView::from_triples(num_sources, num_objects, rebuilt_triples);
            assert_eq!(
                snap, rebuilt,
                "case {case} epoch {epoch}: apply_delta diverged from rebuild"
            );
            assert_eq!(
                snap.content_hash(),
                rebuilt.content_hash(),
                "case {case} epoch {epoch}: content hash diverged"
            );
        }
    }
}

/// Whenever the incremental path runs (converged prior, any dirty
/// fraction admitted) and both the incremental and the full warm
/// re-analysis converge, their posteriors and accuracy estimates must
/// agree within 1e-9 — on random worlds, not just block-structured ones.
#[test]
fn incremental_run_delta_matches_full_warm_rerun() {
    let pipeline = AccuCopy::new(DetectionParams {
        hard_damping_threshold: 1.0,
        convergence_epsilon: 1e-12,
        // The default 20-iteration cap never reaches a 1e-12 fixpoint;
        // parity needs both runs genuinely converged.
        max_iterations: 400,
        ..DetectionParams::default()
    })
    .unwrap();
    let mut checked = 0usize;
    for case in 0..CASES {
        let mut r = rng(15_000 + case);
        let base = random_snapshot(15_500 + case);
        let prev = pipeline.run(&base);
        if !prev.converged {
            continue;
        }
        let mut b = Delta::builder();
        for _ in 0..r.gen_range(1..8usize) {
            let s = SourceId(r.gen_range(0..8u32));
            let o = ObjectId(r.gen_range(0..12u32));
            if r.gen::<f64>() < 0.3 {
                b.retract(s, o);
            } else {
                b.assert_value(s, o, ValueId(o.0 * 4 + r.gen_range(0..4u32)));
            }
        }
        let delta = b.build();
        let after = base.apply_delta(&delta);

        let run = pipeline.run_delta(&after, Some(&prev), &delta, 1.0);
        assert!(
            run.outcome.is_incremental(),
            "case {case}: dirty budget 1.0 with a converged prior must go incremental, got {:?}",
            run.outcome
        );
        let full = pipeline.run_warm(&after, Some(&prev));
        if !(run.result.converged && full.converged) {
            continue;
        }
        checked += 1;
        assert_eq!(
            run.result.termination,
            Termination::Converged,
            "case {case}"
        );
        assert_eq!(
            run.result.accuracies.len(),
            full.accuracies.len(),
            "case {case}"
        );
        for (i, (x, y)) in run
            .result
            .accuracies
            .iter()
            .zip(&full.accuracies)
            .enumerate()
        {
            assert!(
                (x - y).abs() < 1e-9,
                "case {case}: accuracy[{i}] {x} vs {y}"
            );
        }
        for o in 0..after.num_objects() {
            let o = ObjectId::from_index(o);
            for &(v, p) in full.probabilities.distribution(o) {
                let q = run.result.probabilities.prob(o, v);
                assert!(
                    (p - q).abs() < 1e-9,
                    "case {case}: posterior({o:?}, {v:?}) {p} vs {q}"
                );
            }
        }
    }
    assert!(
        checked >= CASES as usize / 4,
        "only {checked} cases converged — the property barely ran"
    );
}

/// The pair-sharded coordinator (`run_sharded`, the reference driver for
/// `SailingEngine::analyze_sharded`) must reproduce the monolithic loop
/// **bitwise** — same iterations, same accuracies, same posteriors, same
/// dependences (which subsumes the 1e-9 acceptance bound), same
/// termination — on random worlds, random shard counts, and warm-started
/// runs. Every other case arms limit-cycle detection, which both loops
/// must apply at the same iteration.
#[test]
fn sharded_analysis_matches_monolithic_on_random_worlds() {
    let unwatched = AccuCopy::new(DetectionParams {
        hard_damping_threshold: 1.0,
        convergence_epsilon: 1e-12,
        // The default 20-iteration cap never reaches a 1e-12 fixpoint;
        // the property should mostly compare genuinely converged runs.
        max_iterations: 400,
        ..DetectionParams::default()
    })
    .unwrap();
    let watched = unwatched
        .clone()
        .with_watchdog(Watchdog::off().limit_cycles());
    let mut checked = 0usize;
    for case in 0..CASES {
        let pipeline = if case % 2 == 0 { &watched } else { &unwatched };
        let mut r = rng(16_000 + case);
        let snapshot = random_snapshot(16_500 + case);
        let workers = r.gen_range(1..7usize);
        let monolithic = pipeline.run(&snapshot);
        let sharded = pipeline.run_sharded(&snapshot, None, workers).unwrap();
        assert_eq!(sharded.iterations, monolithic.iterations, "case {case}");
        assert_eq!(sharded.converged, monolithic.converged, "case {case}");
        assert_eq!(sharded.termination, monolithic.termination, "case {case}");
        for (i, (x, y)) in sharded
            .accuracies
            .iter()
            .zip(&monolithic.accuracies)
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: accuracy[{i}] {x} vs {y} (workers {workers})"
            );
        }
        for o in monolithic.probabilities.objects() {
            let got = sharded.probabilities.distribution(o);
            let want = monolithic.probabilities.distribution(o);
            assert_eq!(got.len(), want.len(), "case {case}: width at {o:?}");
            for (&(v, p), &(w, q)) in got.iter().zip(want) {
                assert_eq!(v, w, "case {case}: value order at {o:?}");
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "case {case}: posterior({o:?}, {v:?}) {p} vs {q}"
                );
            }
        }
        assert_eq!(sharded.dependences, monolithic.dependences, "case {case}");

        if monolithic.converged {
            checked += 1;
            // Warm-started sharded runs share run_warm's prior gate and
            // its fixpoint.
            let warm = pipeline.run_warm(&snapshot, Some(&monolithic));
            let warm_sharded = pipeline
                .run_sharded(&snapshot, Some(&monolithic), workers)
                .unwrap();
            assert_eq!(warm_sharded.iterations, warm.iterations, "case {case}");
            for (x, y) in warm_sharded.accuracies.iter().zip(&warm.accuracies) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}: warm drifted");
            }
        }
    }
    assert!(
        checked >= CASES as usize / 4,
        "only {checked} cases converged — the property barely ran"
    );
}

#[test]
fn dissim_posteriors_are_probabilities() {
    for case in 0..CASES {
        let mut r = rng(10_000 + case);
        let n = r.gen_range(10..80usize);
        let ratings: Vec<(SourceId, ObjectId, u8)> = (0..n)
            .map(|_| {
                (
                    SourceId(r.gen_range(0..5u32)),
                    ObjectId(r.gen_range(0..15u32)),
                    r.gen_range(0..3u32) as u8,
                )
            })
            .collect();
        let view = RatingView::from_triples(5, 15, 2, ratings);
        for dep in sailing::core::dissim::detect_all(&view, &DissimParams::default()) {
            assert!((0.0..=1.0).contains(&dep.probability), "case {case}");
            assert!((0.0..=1.0).contains(&dep.prob_a_on_b), "case {case}");
        }
    }
}

/// Draws a messy string over letters, digits, diacritics, punctuation,
/// and whitespace — the raw material `normalize` has to canonicalize.
fn random_messy_string(rng: &mut sailing::datagen::Rng) -> String {
    let pool: Vec<char> = "abcXYZ019áéñöÅ .-_,/;'\"\t".chars().collect();
    random_word(rng, &pool, 24)
}

/// A random reformatting of `base` that [`normalize`] must erase: case,
/// whitespace runs, hyphens-for-spaces, diacritic re-spellings, padding.
fn random_variant(rng: &mut sailing::datagen::Rng, base: &str) -> String {
    match rng.gen_range(0..6u32) {
        0 => base.to_uppercase(),
        1 => base.replace(' ', "-"),
        2 => base.replace(' ', "   "),
        3 => base.replacen('a', "á", 1).replacen('o', "ó", 1),
        4 => format!("  {base} "),
        _ => {
            let mut upper = false;
            base.chars()
                .map(|c| {
                    upper = !upper;
                    if upper {
                        c.to_uppercase().next().unwrap()
                    } else {
                        c
                    }
                })
                .collect()
        }
    }
}

/// `normalized_eq` is a true equivalence relation — reflexive, symmetric,
/// and transitive — over generated variant strings. The quotient
/// construction in `sailing-model` is only sound for genuine equivalences,
/// so this property underwrites the `NormalizedString` backend.
#[test]
fn normalized_eq_is_an_equivalence_relation() {
    for case in 0..CASES {
        let mut r = rng(16_000 + case);
        // A small pool mixing variants of two shared bases with unrelated
        // messy strings, so the transitivity check exercises both the
        // equal and unequal regimes.
        let base_a = format!("john q{case} smith");
        let base_b = format!("jane p{case} doe");
        let mut pool: Vec<String> = Vec::new();
        for _ in 0..4 {
            pool.push(random_variant(&mut r, &base_a));
            pool.push(random_variant(&mut r, &base_b));
            pool.push(random_messy_string(&mut r));
        }
        for s in &pool {
            assert!(normalized_eq(s, s), "case {case}: reflexivity on {s:?}");
        }
        for a in &pool {
            for b in &pool {
                assert_eq!(
                    normalized_eq(a, b),
                    normalized_eq(b, a),
                    "case {case}: symmetry on {a:?} / {b:?}"
                );
            }
        }
        for a in &pool {
            for b in &pool {
                for c in &pool {
                    if normalized_eq(a, b) && normalized_eq(b, c) {
                        assert!(
                            normalized_eq(a, c),
                            "case {case}: transitivity on {a:?} / {b:?} / {c:?}"
                        );
                    }
                }
            }
        }
        // Variants of one base all collapse to it; the two bases stay
        // distinct (sanity that the generator exercises the equal regime).
        assert!(pool
            .iter()
            .step_by(3)
            .all(|v| normalized_eq(v, &base_a) || v.trim().is_empty()));
        assert!(!normalized_eq(&base_a, &base_b), "case {case}");
    }
}
