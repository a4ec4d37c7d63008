//! Scalable candidate-pair enumeration and parallel pairwise detection.
//!
//! "Given the huge number of data sources ... determining dependence between
//! sources in a scalable manner is extremely challenging" (Section 1).
//! Testing all `O(S²)` pairs is wasteful when most pairs share nothing: only
//! pairs that co-cover at least `min_overlap` objects can ever be flagged
//! (the paper's Example 4.1 screens AbeBooks bookstore pairs by "at least
//! the same 10 books"). [`candidate_pairs`] enumerates exactly those pairs
//! from a per-object inverted index; [`detect_all`] fans the surviving pairs
//! out across worker threads, each pair's row carrying its direction hint.

use sailing_model::{SnapshotView, SourceId};

use crate::copy::DetectionPass;
use crate::params::DetectionParams;
use crate::report::PairDependence;
use crate::truth::ValueProbabilities;

/// Enumerates unordered source pairs sharing at least `min_overlap` objects,
/// with their exact overlap counts, sorted by source ids.
///
/// Cost is `Σ_o support(o)²` rather than `S² · O` — proportional to the
/// actual co-coverage in the data.
pub fn candidate_pairs(
    snapshot: &SnapshotView,
    min_overlap: usize,
) -> Vec<(SourceId, SourceId, usize)> {
    let min_overlap = min_overlap.max(1);
    // One source's overlap with each later source, and the partners it
    // touched: a dense counter row, emptied after each source.
    let mut counts = vec![0usize; snapshot.num_sources()];
    let mut touched: Vec<SourceId> = Vec::new();
    let mut pairs = Vec::new();
    for a in (0..snapshot.num_sources()).map(SourceId::from_index) {
        for &(object, _) in snapshot.source_assertions(a) {
            let on = snapshot.assertions_on(object);
            let later = on.partition_point(|&(s, _)| s <= a);
            for &(b, _) in &on[later..] {
                let count = &mut counts[b.index()];
                if *count == 0 {
                    touched.push(b);
                }
                *count += 1;
            }
        }
        touched.sort_unstable();
        for b in touched.drain(..) {
            let count = std::mem::take(&mut counts[b.index()]);
            if count >= min_overlap {
                pairs.push((a, b, count));
            }
        }
    }
    pairs
}

/// Runs snapshot copy detection over every candidate pair, optionally in
/// parallel ([`DetectionParams::threads`]).
///
/// The output is sorted by `(a, b)` and therefore deterministic regardless
/// of thread count.
pub fn detect_all(
    snapshot: &SnapshotView,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Vec<PairDependence> {
    let pairs = candidate_pairs(snapshot, params.min_overlap);
    detect_all_with_pairs(snapshot, &pairs, probs, accuracies, params)
}

/// [`detect_all`] over an already-enumerated candidate-pair list.
///
/// The pair list is snapshot-invariant, so iterative callers (the
/// [`crate::AccuCopy`] loop) enumerate it **once per snapshot** and thread
/// it through every iteration instead of rebuilding the inverted-index
/// counts each round. One column, `probs.prob` of every assertion in the
/// snapshot's per-source layout, is built here once per call and shared by
/// every worker; each worker (or the caller, single-threaded) owns one
/// scratch slot array that the pair kernel fills with a first source's
/// objects and reuses while consecutive pairs share that source. Each row
/// is [`crate::copy::detect_pair`]'s: the copy posterior with the
/// overlap-property direction hint blended in.
///
/// The parallel fan-out assigns pairs to workers by **overlap-weighted
/// balanced chunks** (longest-processing-time greedy): per-pair cost is
/// proportional to its overlap, and overlap counts are heavily skewed, so
/// equal-length contiguous chunks let one fat chunk serialize the scope.
/// A worker that panics does not take the pass down: its chunk is
/// detected again on the calling thread. The output is sorted by `(a, b)`
/// and therefore deterministic regardless of thread count or chunk shape.
pub fn detect_all_with_pairs(
    snapshot: &SnapshotView,
    pairs: &[(SourceId, SourceId, usize)],
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Vec<PairDependence> {
    // Nothing to test (always so with copy detection off): skip building
    // the per-pass column.
    if pairs.is_empty() {
        return Vec::new();
    }
    let pass = DetectionPass::new(snapshot, probs, accuracies, params, None);
    let detect_chunk = |chunk: &[(SourceId, SourceId, usize)]| {
        let mut scratch = pass.scratch();
        chunk
            .iter()
            .filter_map(|&(a, b, _)| pass.detect(&mut scratch, a, b))
            .collect::<Vec<_>>()
    };
    let threads = params.threads.max(1);
    let mut out = if threads == 1 || pairs.len() < 2 * threads {
        detect_chunk(pairs)
    } else {
        // Every pair costs at least the detection setup, so overlap 0
        // still weighs 1.
        let mut chunks = balanced_chunks(pairs, threads, |&(_, _, overlap)| overlap.max(1));
        // LPT fills chunks heaviest-first; a worker reuses its scratch
        // slots across pairs that share a first source.
        for chunk in &mut chunks {
            chunk.sort_unstable_by_key(|&(a, b, _)| (a, b));
        }
        #[cfg(test)]
        let poisoned = tests::PANIC_ON_PAIR.with(std::cell::Cell::take);
        let detect_chunk = &detect_chunk;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        #[cfg(test)]
                        tests::panic_if_poisoned(chunk, poisoned);
                        detect_chunk(chunk)
                    })
                })
                .collect();
            // Every handle is joined; a panicked worker's chunk is
            // re-detected here, so the output stays complete.
            handles
                .into_iter()
                .zip(&chunks)
                .flat_map(|(handle, chunk)| handle.join().unwrap_or_else(|_| detect_chunk(chunk)))
                .collect()
        })
    };
    // The caller may hand pairs in any order (e.g. a shard's LPT
    // ordering); sorted output must not depend on the thread count.
    out.sort_by_key(|p| (p.a, p.b));
    out
}

/// Splits `items` into at most `buckets` non-empty chunks with near-equal
/// total `weight`: items are taken heaviest-first (ties in input order)
/// and each goes to the currently lightest chunk (ties to the lowest
/// index) — the classic LPT greedy, within 4/3 of optimal. Deterministic
/// for a given input. Give every item a weight of at least 1, so
/// zero-cost items still spread instead of piling into one chunk.
pub fn balanced_chunks<T: Clone>(
    items: &[T],
    buckets: usize,
    weight: impl Fn(&T) -> usize,
) -> Vec<Vec<T>> {
    let buckets = buckets.min(items.len()).max(1);
    let weights: Vec<usize> = items.iter().map(weight).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut chunks: Vec<Vec<T>> = vec![Vec::new(); buckets];
    let mut loads = vec![0usize; buckets];
    for i in order {
        let lightest = (0..buckets).min_by_key(|&b| loads[b]).expect("buckets > 0");
        loads[lightest] += weights[i];
        chunks[lightest].push(items[i].clone());
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{weighted_vote, DependenceMatrix};
    use sailing_model::{fixtures, ObjectId};
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// Fault injection: the next parallel [`detect_all_with_pairs`] on
        /// this thread panics in the worker whose chunk holds this pair.
        pub(super) static PANIC_ON_PAIR: Cell<Option<(SourceId, SourceId)>> =
            const { Cell::new(None) };
    }

    pub(super) fn panic_if_poisoned(
        chunk: &[(SourceId, SourceId, usize)],
        poisoned: Option<(SourceId, SourceId)>,
    ) {
        let hit = chunk.iter().any(|&(a, b, _)| Some((a, b)) == poisoned);
        assert!(!hit, "injected detection worker panic");
    }

    #[test]
    fn a_panicked_worker_chunk_is_detected_on_the_caller() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);
        let pairs = candidate_pairs(&snap, params.min_overlap);
        let seq = detect_all_with_pairs(&snap, &pairs, &probs, &accs, &params);

        let par_params = DetectionParams {
            threads: 3,
            ..params
        };
        assert!(
            pairs.len() >= 2 * par_params.threads,
            "takes the parallel path"
        );
        let (a, b, _) = pairs[pairs.len() / 2];
        PANIC_ON_PAIR.with(|p| p.set(Some((a, b))));
        let par = detect_all_with_pairs(&snap, &pairs, &probs, &accs, &par_params);
        assert_eq!(
            PANIC_ON_PAIR.with(Cell::get),
            None,
            "the armed injection was consumed"
        );
        assert_eq!(seq.len(), par.len(), "no row lost with the panicked chunk");
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!((x.a, x.b, x.direction), (y.a, y.b, y.direction));
            assert_eq!(x.probability.to_bits(), y.probability.to_bits());
            assert_eq!(x.prob_a_on_b.to_bits(), y.prob_a_on_b.to_bits());
        }
    }

    /// The hash-map count [`candidate_pairs`] replaced, kept as its oracle.
    fn candidate_pairs_reference(
        snapshot: &SnapshotView,
        min_overlap: usize,
    ) -> Vec<(SourceId, SourceId, usize)> {
        let mut counts: HashMap<(SourceId, SourceId), usize> = HashMap::new();
        for idx in 0..snapshot.num_objects() {
            let assertions = snapshot.assertions_on(ObjectId::from_index(idx));
            for (i, &(a, _)) in assertions.iter().enumerate() {
                for &(b, _) in &assertions[i + 1..] {
                    let key = if a < b { (a, b) } else { (b, a) };
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut pairs: Vec<_> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_overlap.max(1))
            .map(|((a, b), c)| (a, b, c))
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn candidate_pairs_match_the_hash_map_count() {
        for (name, snapshot, params) in crate::copy::reference::oracle_worlds() {
            for min_overlap in [0, 1, 3, params.min_overlap] {
                assert_eq!(
                    candidate_pairs(&snapshot, min_overlap),
                    candidate_pairs_reference(&snapshot, min_overlap),
                    "{name}, min_overlap {min_overlap}"
                );
            }
        }
    }

    #[test]
    fn candidate_pairs_on_table1_is_complete() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        // All 5 sources cover all 5 objects → C(5,2)=10 pairs, overlap 5.
        let pairs = candidate_pairs(&snap, 1);
        assert_eq!(pairs.len(), 10);
        assert!(pairs.iter().all(|&(_, _, c)| c == 5));
    }

    #[test]
    fn min_overlap_prunes() {
        let mut b = sailing_model::ClaimStoreBuilder::new();
        b.add("A", "x", "1").add("B", "x", "1"); // overlap 1
        b.add("C", "y", "1").add("C", "z", "1");
        b.add("D", "y", "1").add("D", "z", "1"); // overlap 2
        let store = b.build();
        let snap = store.snapshot();
        assert_eq!(candidate_pairs(&snap, 1).len(), 2);
        assert_eq!(candidate_pairs(&snap, 2).len(), 1);
        assert_eq!(candidate_pairs(&snap, 3).len(), 0);
        // min_overlap 0 behaves like 1 (disjoint sources never pair).
        assert_eq!(candidate_pairs(&snap, 0).len(), 2);
    }

    #[test]
    fn pairs_are_canonical_and_sorted() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pairs = candidate_pairs(&snap, 1);
        assert!(pairs.iter().all(|&(a, b, _)| a < b));
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn detect_all_sequential_equals_parallel() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);

        let seq = detect_all(&snap, &probs, &accs, &params);
        let par_params = DetectionParams {
            threads: 4,
            ..params
        };
        let par = detect_all(&snap, &probs, &accs, &par_params);
        assert_eq!(seq.len(), par.len());
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn detect_all_flags_the_copy_cluster() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = crate::truth::naive_probabilities(&snap);
        let deps = detect_all(&snap, &probs, &accs, &params);
        let s = |n: &str| store.source_id(n).unwrap();
        let find = |a: SourceId, b: SourceId| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            deps.iter().find(|p| p.a == a && p.b == b).unwrap()
        };
        let p34 = find(s("S3"), s("S4")).probability;
        let p12 = find(s("S1"), s("S2")).probability;
        assert!(p34 > 0.35, "one-shot cluster evidence: {p34}");
        assert!(p12 < p34);
    }

    #[test]
    fn empty_snapshot_no_pairs() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        assert!(candidate_pairs(&snap, 1).is_empty());
    }

    #[test]
    fn detect_all_equals_hoisted_pair_list() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = crate::truth::naive_probabilities(&snap);

        let direct = detect_all(&snap, &probs, &accs, &params);
        let pairs = candidate_pairs(&snap, params.min_overlap);
        let hoisted = detect_all_with_pairs(&snap, &pairs, &probs, &accs, &params);
        assert_eq!(direct.len(), hoisted.len());
        for (x, y) in direct.iter().zip(&hoisted) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(x.probability, y.probability);
            assert_eq!(x.prob_a_on_b, y.prob_a_on_b);
        }
    }

    #[test]
    fn balanced_chunks_cover_all_pairs_with_bounded_skew() {
        // Heavily skewed weights: one fat pair plus many light ones.
        let mut pairs: Vec<(SourceId, SourceId, usize)> =
            (1..=20u32).map(|i| (SourceId(0), SourceId(i), 2)).collect();
        pairs.push((SourceId(21), SourceId(22), 40));
        let chunks = balanced_chunks(&pairs, 4, |&(_, _, w)| w.max(1));
        assert!(chunks.len() <= 4);
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, pairs.len(), "every pair assigned exactly once");
        let mut seen: Vec<_> = chunks.iter().flatten().copied().collect();
        seen.sort();
        let mut expected = pairs.clone();
        expected.sort();
        assert_eq!(seen, expected);
        // The fat pair must sit alone-ish: no bucket may hold more than the
        // fat weight plus one light pair's worth beyond the mean.
        let loads: Vec<usize> = chunks
            .iter()
            .map(|c| c.iter().map(|&(_, _, w)| w.max(1)).sum())
            .collect();
        let max = *loads.iter().max().unwrap();
        assert!(
            max <= 40 + 2,
            "LPT must not stack light pairs onto the fat bucket: {loads:?}"
        );
    }

    #[test]
    fn skewed_world_parallel_matches_sequential() {
        // A world where one source pair overlaps on everything and the rest
        // barely overlap — the chunking's worst case pre-balancing.
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..30 {
            let o = format!("o{i}");
            b.add("big1", &o, "v").add("big2", &o, "v");
            if i < 3 {
                b.add("small1", &o, "v").add("small2", &o, "w");
            }
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = crate::truth::naive_probabilities(&snap);
        let seq = detect_all(&snap, &probs, &accs, &params);
        let par = detect_all(
            &snap,
            &probs,
            &accs,
            &DetectionParams {
                threads: 3,
                ..params
            },
        );
        assert_eq!(seq.len(), par.len());
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(x.probability, y.probability);
        }
    }
}
