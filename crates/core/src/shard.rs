//! Pair-sharded distributed analysis: the dependence-detection pass of
//! the [`AccuCopy`] loop split over contiguous slices of the canonical
//! candidate-pair list.
//!
//! Per iteration, dependence detection is O(|pairs|) pairwise Bayesian
//! tests and dominates the loop's cost, while the vote/estimate tail is
//! cheap and global. The decomposition here exploits that split: a
//! **coordinator** owns the outer iteration, **workers** (threads or
//! cooperating processes) each run [`AccuCopy::run_shard`] over one
//! [`PairRange`] of the sorted pair list, and the coordinator folds the
//! resulting [`PartialDependence`] records back together with
//! [`AccuCopy::merge_partials`], which concatenates them in pair order
//! and runs the vote → accuracy-estimate → convergence tail.
//!
//! # Exactness
//!
//! The sharded loop is **bitwise identical** to [`AccuCopy::run_warm`],
//! not merely close:
//!
//! * candidate enumeration ([`crate::pairs::candidate_pairs`]) is a
//!   deterministic, sorted function of the snapshot, so every worker
//!   sees the same list and slicing commutes with detection;
//! * per-pair detection, direction hint included, touches no cross-pair
//!   state, so concatenating per-range outputs in range order
//!   reproduces the monolithic detection output element for element;
//! * the merge tail is [`AccuCopy::run_warm`]'s iteration step itself,
//!   run on the same `f64`s in the same order.
//!
//! Each partial is stamped with the [`state digest`](PartialDependence::state_digest)
//! of the iteration state it was computed against; the merge rejects
//! stale or mismatched partials rather than folding them in, so a
//! worker that raced an old epoch can never skew the posterior.
//!
//! The sharded loop is the same [`AccuCopy::drive`] loop as the
//! monolithic one, so the pipeline's armed [`Watchdog`](crate::Watchdog)
//! (limit cycles, deadline) stops a sharded run exactly where it stops
//! [`AccuCopy::run_warm`], with the same [`Termination`].

use serde::{Deserialize, Serialize};

use sailing_model::{fx_mix, SailingError, SnapshotView};

use crate::pipeline::seed_accuracies;
use crate::pipeline::{AccuCopy, PipelineResult, Termination};
use crate::report::PairDependence;
use crate::truth::naive_probabilities;

/// One contiguous half-open slice `[start, end)` of the canonical sorted
/// candidate-pair list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairRange {
    /// First pair index covered (inclusive).
    pub start: usize,
    /// One past the last pair index covered.
    pub end: usize,
}

impl PairRange {
    /// Number of candidate pairs in the range.
    pub fn len(self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the range covers no pairs.
    pub fn is_empty(self) -> bool {
        self.end <= self.start
    }
}

/// Dependence posteriors for one pair-range shard at one iteration —
/// the unit workers publish and the coordinator merges.
///
/// Serializable (canonical JSON via [`PartialDependence::to_canonical_json`])
/// so cooperating worker *processes* can publish partials through the
/// persistent store's blob API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialDependence {
    /// The slice of the canonical pair list this partial covers.
    pub range: PairRange,
    /// Length of the full candidate-pair list the worker enumerated —
    /// lets the merge confirm every worker saw the same snapshot-derived
    /// list before trusting the tiling.
    pub total_pairs: usize,
    /// Digest of the iteration state (accuracies + posteriors) the
    /// detection ran against; the merge rejects partials whose digest
    /// differs from the coordinator's own.
    pub state_digest: u64,
    /// Detected dependences for the range, in canonical pair order.
    pub dependences: Vec<PairDependence>,
}

impl PartialDependence {
    /// Canonical JSON text of this partial (same guarantees as
    /// [`PipelineResult::to_canonical_json`]: byte-identical for equal
    /// partials, floats round-trip bit for bit).
    pub fn to_canonical_json(&self) -> String {
        serde::json::write(&self.serialize())
    }

    /// Parses a partial back from its canonical JSON text.
    ///
    /// # Errors
    /// Returns the underlying parse/shape error; coordinators treat any
    /// error as "partial not available" and recompute locally.
    pub fn from_json_str(text: &str) -> Result<Self, serde::Error> {
        Self::deserialize(&serde::json::parse(text)?)
    }
}

/// The outcome of merging one iteration's partials.
#[derive(Debug, Clone)]
pub struct ShardStep {
    /// The post-iteration state: updated posteriors, accuracies, and the
    /// merged dependences, with `iterations` advanced and `converged` /
    /// `termination` reflecting this iteration's convergence test. When
    /// `done`, this is the final result.
    pub state: PipelineResult,
    /// `true` once the loop should stop — converged, or the iteration
    /// cap was reached.
    pub done: bool,
}

/// Order-sensitive digest of an iteration state: every accuracy bit and
/// every posterior (object, value, probability) bit. Same hash family as
/// [`SnapshotView::content_hash`]; not cryptographic.
///
/// It has two uses. A [`PartialDependence`] computed against `state`
/// carries it ([`PartialDependence::state_digest`]), and a coordinator
/// compares it before *adopting* a partial published by a cooperating
/// process, so a stale one is recomputed locally instead of poisoning
/// the merge. And the [`Watchdog`](crate::Watchdog) records it per
/// iteration: an exact recurrence means the deterministic loop has
/// entered a cycle. A 64-bit collision there would end a run a few
/// iterations early as a (correctly non-converged) `LimitCycle` — a
/// wrong *diagnosis label* at worst, never a wrong posterior served.
pub fn iteration_digest(state: &PipelineResult) -> u64 {
    let mut h = fx_mix(0x63_79_63_6c_65, state.accuracies.len() as u64); // "cycle"
    for a in &state.accuracies {
        h = fx_mix(h, a.to_bits());
    }
    let probabilities = &state.probabilities;
    for o in probabilities.objects() {
        h = fx_mix(h, u64::from(o.0));
        for &(v, p) in probabilities.distribution(o) {
            h = fx_mix(h, u64::from(v.0));
            h = fx_mix(h, p.to_bits());
        }
    }
    h
}

/// Splits `[0, total_pairs)` into at most `workers` contiguous
/// near-equal ranges (earlier ranges take the remainder). Always returns
/// at least one range; with `total_pairs == 0` that single range is
/// empty, so a copy-detection-free run still produces a valid tiling.
pub fn shard_ranges(total_pairs: usize, workers: usize) -> Vec<PairRange> {
    if total_pairs == 0 {
        return vec![PairRange { start: 0, end: 0 }];
    }
    let workers = workers.clamp(1, total_pairs);
    let base = total_pairs / workers;
    let extra = total_pairs % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < extra);
        out.push(PairRange {
            start,
            end: start + len,
        });
        start += len;
    }
    out
}

impl AccuCopy {
    /// Length of the canonical candidate-pair list for `snapshot` under
    /// these parameters — zero when copy detection is disabled. This is
    /// the `total_pairs` that [`shard_ranges`] should tile.
    pub fn pair_count(&self, snapshot: &SnapshotView) -> usize {
        self.candidates(snapshot).len()
    }

    /// The iteration-zero state every participant must agree on before
    /// the first fan-out: naive bootstrap posteriors and the (optionally
    /// warm-seeded) accuracy vector, with `iterations == 0`. Shares the
    /// warm-start gating of [`AccuCopy::run_warm`] — non-converged or
    /// accuracy-blind priors are ignored.
    ///
    /// The posteriors are naive vote shares even when warm: they feed the
    /// *first* dependence-detection pass, and seeding it with saturated
    /// posteriors — the prior's, or any weighted vote's — hides the
    /// shared-false-value mass copy detection needs, steering the loop
    /// into the copier-locked fixpoint. Warmth lives in the accuracy seed
    /// alone, which is what the convergence criterion measures.
    pub fn bootstrap_sharded(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
    ) -> PipelineResult {
        PipelineResult {
            probabilities: naive_probabilities(snapshot),
            accuracies: seed_accuracies(self.params(), snapshot, prior),
            dependences: Vec::new(),
            iterations: 0,
            converged: false,
            termination: Termination::IterationCap,
        }
    }

    /// Runs one shard's dependence-detection pass (each pair's posterior
    /// with its direction hint) against the current iteration `state`,
    /// over `range` of the canonical candidate-pair list.
    ///
    /// The range is clamped to the list actually enumerated from
    /// `snapshot`, so a caller-supplied range that overshoots (e.g.
    /// computed against a different snapshot) yields a short partial the
    /// merge's tiling check will reject rather than a panic.
    pub fn run_shard(
        &self,
        snapshot: &SnapshotView,
        range: PairRange,
        state: &PipelineResult,
    ) -> PartialDependence {
        let candidates = self.candidates(snapshot);
        let total = candidates.len();
        let start = range.start.min(total);
        let end = range.end.clamp(start, total);
        PartialDependence {
            range: PairRange { start, end },
            total_pairs: total,
            state_digest: iteration_digest(state),
            dependences: self.detect(snapshot, &candidates[start..end], state),
        }
    }

    /// Merges one iteration's partials and runs the cheap global tail:
    /// concatenates the per-range dependences in canonical order and runs
    /// [`AccuCopy::run_warm`]'s own iteration step on them (vote with the
    /// *old* accuracies, re-estimate, test convergence, and only when not
    /// converged re-vote with the fresh accuracies).
    ///
    /// # Errors
    /// Rejects (without partial effects) any fan-in that cannot be
    /// trusted to reproduce the monolithic pass:
    /// * no partials at all;
    /// * partials disagreeing on the candidate-list length;
    /// * a partial computed against a different iteration state
    ///   (digest mismatch — the stale-worker case);
    /// * ranges that gap, overlap, or fail to cover `[0, total_pairs)`
    ///   (duplicated claims must be deduplicated by the caller).
    pub fn merge_partials(
        &self,
        snapshot: &SnapshotView,
        state: &PipelineResult,
        partials: &[PartialDependence],
    ) -> Result<ShardStep, SailingError> {
        let Some(first) = partials.first() else {
            return Err(SailingError::config(
                "shard merge",
                "no partials to merge; every iteration needs a full tiling",
            ));
        };
        let expected_digest = iteration_digest(state);
        let total = first.total_pairs;
        let mut sorted: Vec<&PartialDependence> = partials.iter().collect();
        sorted.sort_by_key(|part| (part.range.start, part.range.end));
        let mut cursor = 0usize;
        for part in &sorted {
            if part.total_pairs != total {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "partials disagree on the candidate-pair list: {} vs {}",
                        part.total_pairs, total
                    ),
                ));
            }
            if part.state_digest != expected_digest {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "stale partial for pairs [{}, {}): state digest {:016x} != {:016x}",
                        part.range.start, part.range.end, part.state_digest, expected_digest
                    ),
                ));
            }
            if part.range.start != cursor || part.range.end < part.range.start {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "ranges gap or overlap at pair {}: next partial covers [{}, {})",
                        cursor, part.range.start, part.range.end
                    ),
                ));
            }
            cursor = part.range.end;
        }
        if cursor != total {
            return Err(SailingError::config(
                "shard merge",
                format!("ranges cover [0, {cursor}) of {total} candidate pairs"),
            ));
        }

        let dependences: Vec<PairDependence> = sorted
            .iter()
            .flat_map(|part| part.dependences.iter().cloned())
            .collect();
        Ok(self.step(snapshot, state, dependences))
    }

    /// The inline (single-participant) sharded driver: the
    /// [`AccuCopy::drive`] loop with each iteration's detection fanned
    /// over `workers` ranges via [`AccuCopy::run_shard`] and folded with
    /// [`AccuCopy::merge_partials`]. Produces a result bitwise identical
    /// to [`AccuCopy::run_warm`], watchdog stops included — the reference
    /// the engine's threaded and multi-process drivers are pinned against.
    ///
    /// # Errors
    /// Propagates [`AccuCopy::merge_partials`] failures; none occur when
    /// the partials come from this driver's own fan-out.
    pub fn run_sharded(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
        workers: usize,
    ) -> Result<PipelineResult, SailingError> {
        let ranges = shard_ranges(self.pair_count(snapshot), workers);
        self.drive(snapshot, prior, |state| {
            let partials: Vec<PartialDependence> = ranges
                .iter()
                .map(|&range| self.run_shard(snapshot, range, state))
                .collect();
            self.merge_partials(snapshot, state, &partials)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DetectionParams;
    use sailing_model::fixtures;

    fn assert_bitwise_equal(sharded: &PipelineResult, monolithic: &PipelineResult) {
        assert_eq!(sharded.iterations, monolithic.iterations);
        assert_eq!(sharded.converged, monolithic.converged);
        assert_eq!(sharded.accuracies.len(), monolithic.accuracies.len());
        for (i, (a, b)) in sharded
            .accuracies
            .iter()
            .zip(&monolithic.accuracies)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "accuracy[{i}] {a} vs {b}");
        }
        for o in monolithic.probabilities.objects() {
            let got = sharded.probabilities.distribution(o);
            let want = monolithic.probabilities.distribution(o);
            assert_eq!(got.len(), want.len(), "distribution width for {o:?}");
            for (&(v, p), &(w, q)) in got.iter().zip(want) {
                assert_eq!(v, w, "value order for {o:?}");
                assert_eq!(p.to_bits(), q.to_bits(), "posterior({o:?}, {v:?})");
            }
        }
        assert_eq!(sharded.dependences, monolithic.dependences);
    }

    #[test]
    fn shard_ranges_tile_exactly() {
        for (total, workers) in [(0, 4), (1, 4), (7, 3), (12, 4), (5, 1), (3, 9)] {
            let ranges = shard_ranges(total, workers);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= workers.max(1));
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor, "total={total} workers={workers}");
                assert!(r.end >= r.start);
                cursor = r.end;
            }
            assert_eq!(cursor, total, "total={total} workers={workers}");
        }
    }

    #[test]
    fn sharded_matches_monolithic_bitwise_on_table1() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let monolithic = pipeline.run(&snap);
        for workers in [1, 2, 3, 16] {
            let sharded = pipeline.run_sharded(&snap, None, workers).unwrap();
            assert_bitwise_equal(&sharded, &monolithic);
        }
        let sharded = pipeline.run_sharded(&snap, None, 3).unwrap();
        assert_eq!(
            truth.decision_precision(&sharded.decisions()).unwrap(),
            1.0,
            "the sharded loop keeps the paper's Table 1 outcome"
        );
    }

    #[test]
    fn sharded_matches_monolithic_with_copy_detection_off() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::baseline();
        assert_eq!(pipeline.pair_count(&snap), 0);
        let monolithic = pipeline.run(&snap);
        let sharded = pipeline.run_sharded(&snap, None, 4).unwrap();
        assert_bitwise_equal(&sharded, &monolithic);
        assert!(sharded.dependences.is_empty());
    }

    #[test]
    fn sharded_warm_start_matches_monolithic_warm_start() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let prior = pipeline.run(&snap);
        assert!(prior.converged);
        let warm = pipeline.run_warm(&snap, Some(&prior));
        let sharded = pipeline.run_sharded(&snap, Some(&prior), 2).unwrap();
        assert_bitwise_equal(&sharded, &warm);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_stale_partials() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let state = pipeline.bootstrap_sharded(&snap, None);
        let total = pipeline.pair_count(&snap);
        assert!(total >= 2, "table1 must produce at least two candidates");
        let ranges = shard_ranges(total, 2);
        let partials: Vec<PartialDependence> = ranges
            .iter()
            .map(|&r| pipeline.run_shard(&snap, r, &state))
            .collect();

        // The honest tiling merges.
        assert!(pipeline.merge_partials(&snap, &state, &partials).is_ok());

        // A missing range is a gap.
        let err = pipeline
            .merge_partials(&snap, &state, &partials[..1])
            .unwrap_err();
        assert!(err.to_string().contains("cover"), "{err}");

        // A duplicated range overlaps.
        let mut dup = partials.clone();
        dup.push(partials[0].clone());
        assert!(pipeline.merge_partials(&snap, &state, &dup).is_err());

        // A partial from a different iteration state is stale.
        let mut stale = partials.clone();
        stale[0].state_digest ^= 1;
        let err = pipeline.merge_partials(&snap, &state, &stale).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");

        // Disagreement on the candidate list is rejected.
        let mut other = partials.clone();
        other[1].total_pairs += 1;
        assert!(pipeline.merge_partials(&snap, &state, &other).is_err());

        // No partials at all is rejected.
        assert!(pipeline.merge_partials(&snap, &state, &[]).is_err());
    }

    #[test]
    fn partial_dependence_round_trips_canonical_json() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::new(DetectionParams {
            convergence_epsilon: 1e-12,
            max_iterations: 50,
            ..DetectionParams::default()
        })
        .unwrap();
        let state = pipeline.bootstrap_sharded(&snap, None);
        let total = pipeline.pair_count(&snap);
        let partial = pipeline.run_shard(
            &snap,
            PairRange {
                start: 0,
                end: total,
            },
            &state,
        );
        assert!(!partial.dependences.is_empty());
        let text = partial.to_canonical_json();
        let back = PartialDependence::from_json_str(&text).unwrap();
        assert_eq!(back, partial);
        assert_eq!(back.to_canonical_json(), text, "canonical text is stable");
    }
}
