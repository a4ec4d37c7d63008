//! The iterative Bayesian loop: truth ↔ accuracy ↔ dependence.
//!
//! "A solution strategy can be devised using Bayesian analysis by iteratively
//! determining true values, computing accuracy of sources, and discovering
//! dependence between sources" (Section 3.2). [`AccuCopy`] runs that loop on
//! a snapshot to a fixpoint; with copy detection disabled
//! ([`DetectionParams::accu_baseline`]) it degenerates to accuracy-weighted
//! voting (the dependence-*unaware* comparator used throughout the
//! experiments).

use std::collections::HashMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use sailing_model::{Delta, ObjectId, SailingError, SnapshotView, SourceId, ValueId};

use crate::accuracy::{estimate_accuracies, max_delta};
use crate::pairs::{candidate_pairs, detect_all_with_pairs};
use crate::params::DetectionParams;
use crate::report::{PairDependence, SourceReport};
use crate::shard::{iteration_digest, ShardStep};
use crate::truth::{weighted_vote, DependenceMatrix, ValueProbabilities};

/// Dependence-aware truth discovery, run as a converging iteration.
#[derive(Debug, Clone)]
pub struct AccuCopy {
    params: DetectionParams,
    watchdog: Watchdog,
}

/// Why a discovery run stopped iterating. Richer than the boolean
/// [`PipelineResult::converged`] (which stays the source of truth for
/// warm-start gating): the watchdog outcomes distinguish a run that
/// burned its whole iteration budget from one that was *ended early* as
/// provably spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Termination {
    /// The accuracy fixpoint was reached (`converged == true`).
    Converged,
    /// `max_iterations` elapsed without convergence — the historical
    /// non-converged outcome, and the default when no richer record
    /// exists (deserialized legacy results, hand-built values).
    #[default]
    IterationCap,
    /// The [`Watchdog`] recognised an exact recurrence of the iteration
    /// state: the loop is in a cycle of this period and would spin until
    /// the cap without ever converging, so it was ended immediately.
    LimitCycle {
        /// Iterations between the two identical states (≥ 2; a
        /// period-1 recurrence is a fixpoint and reports `Converged`).
        period: usize,
    },
    /// The [`Watchdog`] wall-clock deadline elapsed mid-run.
    DeadlineExceeded,
}

impl Termination {
    /// The record implied by a bare convergence flag — what legacy
    /// carriers (the persist wire, fusion outcomes) can reconstruct.
    pub fn from_converged(converged: bool) -> Self {
        if converged {
            Termination::Converged
        } else {
            Termination::IterationCap
        }
    }

    /// `true` for the two watchdog outcomes ([`Termination::LimitCycle`],
    /// [`Termination::DeadlineExceeded`]).
    pub fn is_watchdog_stop(self) -> bool {
        matches!(
            self,
            Termination::LimitCycle { .. } | Termination::DeadlineExceeded
        )
    }
}

/// Runaway-run protection for the discovery loop: a wall-clock deadline
/// and/or limit-cycle detection. Off by default — the historical
/// behaviour is to iterate until convergence or `max_iterations`.
///
/// The numerics caution in this workspace's roadmap is real: with the
/// default hard damping threshold the vote map is discontinuous, and
/// sparse snapshots can oscillate between states forever instead of
/// converging. A watchdogged run ends such a spin as a **typed
/// non-converged outcome** ([`Termination::LimitCycle`] /
/// [`Termination::DeadlineExceeded`], with `converged == false` so the
/// warm-start gate keeps rejecting it) instead of silently burning the
/// whole iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watchdog {
    /// Wall-clock budget for one [`AccuCopy::run`] / [`AccuCopy::run_warm`]
    /// call, or one sharded run ([`AccuCopy::run_sharded`], the `sailing`
    /// facade's `analyze_sharded`); checked between iterations, so one
    /// iteration always completes.
    pub deadline: Option<Duration>,
    /// Record a digest of each iteration's end state and stop the moment
    /// a state recurs exactly. Costs one hash of the accuracy and
    /// posterior vectors per iteration and O(iterations) memory.
    pub detect_limit_cycles: bool,
}

impl Watchdog {
    /// The inert watchdog (no deadline, no cycle detection).
    pub fn off() -> Self {
        Self::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables limit-cycle detection.
    #[must_use]
    pub fn limit_cycles(mut self) -> Self {
        self.detect_limit_cycles = true;
        self
    }
}

/// Everything the pipeline learned about a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Posterior value distributions per object.
    pub probabilities: ValueProbabilities,
    /// Converged accuracy per source (indexed by [`SourceId`]).
    pub accuracies: Vec<f64>,
    /// Detected pairwise dependences (candidate pairs only).
    pub dependences: Vec<PairDependence>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the accuracy fixpoint was reached before the iteration cap.
    pub converged: bool,
    /// Why the run stopped — convergence, the iteration cap, or a
    /// [`Watchdog`] stop. Not on the canonical wire (the persist format
    /// and [`PipelineResult::content_digest`] are pinned by golden
    /// fixtures); a deserialized result carries the record implied by its
    /// `converged` flag.
    #[serde(skip)]
    pub termination: Termination,
}

impl PipelineResult {
    /// Hard truth decisions: most probable value per object.
    pub fn decisions(&self) -> HashMap<ObjectId, ValueId> {
        self.probabilities.decisions()
    }

    /// Hard truth decisions in ascending object order — deterministic
    /// iteration for reproducible downstream output.
    pub fn decisions_sorted(&self) -> std::collections::BTreeMap<ObjectId, ValueId> {
        self.probabilities.decisions_sorted()
    }

    /// Pairs whose dependence posterior crosses `threshold`, most probable
    /// first.
    pub fn dependent_pairs(&self, threshold: f64) -> Vec<&PairDependence> {
        let mut out: Vec<_> = self
            .dependences
            .iter()
            .filter(|p| p.is_dependent(threshold))
            .collect();
        // `total_cmp` keeps the sort NaN-safe: a detector emitting a NaN
        // posterior must not panic the reporting path.
        out.sort_by(|x, y| y.probability.total_cmp(&x.probability));
        out
    }

    /// The dependence matrix implied by the detected pairs.
    pub fn dependence_matrix(&self) -> DependenceMatrix {
        DependenceMatrix::from_pairs(&self.dependences)
    }

    /// Per-source summary: accuracy, coverage, copier probability and mean
    /// vote independence.
    pub fn source_reports(&self, snapshot: &SnapshotView) -> Vec<SourceReport> {
        self.source_reports_with(snapshot, &self.dependence_matrix())
    }

    /// Canonical JSON text of this result: field order and collection
    /// order are fixed by the struct layout (no hash-map iteration
    /// anywhere on the wire), and floats render in shortest-round-trip
    /// form, so equal results produce byte-identical text and a parse of
    /// the text reproduces every `f64` bit for bit. This is the payload
    /// the persistent analysis store checksums and re-loads in place of a
    /// cold discovery run.
    pub fn to_canonical_json(&self) -> String {
        serde::json::write(&self.serialize())
    }

    /// Parses a result back from its canonical JSON text. Inverse of
    /// [`PipelineResult::to_canonical_json`]: posteriors, accuracies, and
    /// the convergence record survive exactly ([`Self::content_digest`] is
    /// invariant under the round-trip).
    ///
    /// # Errors
    /// Returns the underlying parse/shape error; persistent-store readers
    /// treat any error as a cold cache miss.
    pub fn from_json_str(text: &str) -> Result<Self, serde::Error> {
        let mut result = Self::deserialize(&serde::json::parse(text)?)?;
        // The wire deliberately carries only `converged` (format pinned
        // by golden fixtures); rebuild the equivalent termination record.
        result.termination = Termination::from_converged(result.converged);
        Ok(result)
    }

    /// An order-sensitive digest over everything a strategy could
    /// legitimately warm-start from — accuracies, posterior distributions,
    /// dependence count, and convergence. Two results digesting equal
    /// present the same seed to a warm-started discovery run, so the
    /// digest serves as the *provenance* half of analysis-cache and
    /// persistent-store keys. Mixes with the same hash family as
    /// [`SnapshotView::content_hash`] ([`sailing_model::fx_mix`]); not
    /// cryptographic.
    pub fn content_digest(&self) -> u64 {
        let mut h = sailing_model::fx_mix(0x70_72_69_6f_72, self.accuracies.len() as u64);
        for a in &self.accuracies {
            h = sailing_model::fx_mix(h, a.to_bits());
        }
        for o in self.probabilities.objects() {
            h = sailing_model::fx_mix(h, u64::from(o.0));
            for &(v, p) in self.probabilities.distribution(o) {
                h = sailing_model::fx_mix(h, u64::from(v.0));
                h = sailing_model::fx_mix(h, p.to_bits());
            }
        }
        h = sailing_model::fx_mix(h, self.dependences.len() as u64);
        sailing_model::fx_mix(h, u64::from(self.converged))
    }

    /// Like [`PipelineResult::source_reports`], reusing an
    /// already-materialised dependence matrix instead of rebuilding it —
    /// the path the `sailing` facade's cached analysis takes.
    pub fn source_reports_with(
        &self,
        snapshot: &SnapshotView,
        matrix: &DependenceMatrix,
    ) -> Vec<SourceReport> {
        (0..snapshot.num_sources())
            .map(|idx| {
                let s = SourceId::from_index(idx);
                let copier_probability = (0..snapshot.num_sources())
                    .filter(|&j| j != idx)
                    .map(|j| matrix.dep_on(s, SourceId::from_index(j)))
                    .fold(0.0, f64::max);
                let mut independence = 1.0;
                for j in 0..snapshot.num_sources() {
                    if j != idx {
                        independence *= 1.0 - matrix.dep_on(s, SourceId::from_index(j));
                    }
                }
                SourceReport {
                    source: s,
                    accuracy: self.accuracies.get(idx).copied().unwrap_or(0.5),
                    coverage: snapshot.coverage(s),
                    copier_probability,
                    mean_independence: independence,
                }
            })
            .collect()
    }
}

impl AccuCopy {
    /// Creates a pipeline after validating the parameters.
    pub fn new(params: DetectionParams) -> Result<Self, SailingError> {
        params.validate()?;
        Ok(Self {
            params,
            watchdog: Watchdog::off(),
        })
    }

    /// Creates the dependence-aware pipeline with default parameters.
    pub fn with_defaults() -> Self {
        Self {
            params: DetectionParams::default(),
            watchdog: Watchdog::off(),
        }
    }

    /// Creates the ACCU baseline (accuracy-aware, dependence-unaware).
    pub fn baseline() -> Self {
        Self {
            params: DetectionParams::accu_baseline(),
            watchdog: Watchdog::off(),
        }
    }

    /// Arms the discovery watchdog (see [`Watchdog`]). Off by default.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// The parameters in force.
    pub fn params(&self) -> &DetectionParams {
        &self.params
    }

    /// The watchdog in force ([`Watchdog::off`] unless armed).
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog
    }

    /// Runs the loop to convergence on `snapshot`.
    ///
    /// Each iteration: (1) vote with the current accuracies and dependence
    /// matrix; (2) re-detect dependence from the fresh value probabilities;
    /// (3) re-vote with the fresh dependences so copied votes are damped
    /// *before* accuracies are re-estimated — otherwise a copier cluster
    /// inflates its own accuracy in the first round and the iteration can
    /// lock onto the copied values; (4) re-estimate accuracies and test
    /// convergence.
    ///
    /// The candidate-pair list is snapshot-invariant, so it is enumerated
    /// once here and threaded through every iteration's detection pass.
    pub fn run(&self, snapshot: &SnapshotView) -> PipelineResult {
        self.run_warm(snapshot, None)
    }

    /// Like [`AccuCopy::run`], optionally **warm-started** from a previous
    /// epoch's converged result.
    ///
    /// With `prior = None` this is exactly the cold loop. With a converged
    /// prior, the accuracy vector is seeded from the prior's converged
    /// accuracies (resized with the configured initial accuracy for sources
    /// the prior never saw), so on a snapshot that differs from the prior's
    /// by a small delta the iteration starts near the fixpoint and
    /// converges in fewer rounds. Warm starting trades iterations, not
    /// answers: the loop, its convergence criterion, and its fixpoint are
    /// unchanged — the `sailing` facade's timeline tests pin warm-vs-cold
    /// posterior parity. Priors that never converged (or estimate no
    /// accuracies at all) are ignored rather than trusted.
    pub fn run_warm(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
    ) -> PipelineResult {
        let candidates = self.candidates(snapshot);
        let Ok(result) = self.drive(snapshot, prior, |state| {
            let dependences = self.detect(snapshot, &candidates, state);
            Ok::<_, Infallible>(self.step(snapshot, state, dependences))
        });
        result
    }

    /// The one discovery loop every ACCU-family entry point runs:
    /// [`AccuCopy::run_warm`] over a local detection pass,
    /// [`AccuCopy::run_sharded`] and the `sailing` facade's
    /// `analyze_sharded` over a fanned-out one.
    ///
    /// Starts from [`AccuCopy::bootstrap_sharded`]'s iteration-zero state
    /// and calls `iteration` once per round: it detects dependence
    /// against the current state and returns the vote → estimate →
    /// converge → re-vote step ([`AccuCopy::merge_partials`] for
    /// partials). Between rounds the armed [`Watchdog`] checks run, so
    /// one iteration always completes and a converged run is never
    /// interrupted. The loop ends on convergence, the iteration cap, a
    /// watchdog stop, or the first error `iteration` returns.
    ///
    /// # Errors
    /// Propagates the first error `iteration` returns.
    pub fn drive<E>(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
        mut iteration: impl FnMut(&PipelineResult) -> Result<ShardStep, E>,
    ) -> Result<PipelineResult, E> {
        let started = Instant::now();
        // Digests of each iteration's end state, in order — empty (and
        // cost-free) unless limit-cycle detection is armed.
        let mut seen_states: Vec<u64> = Vec::new();
        let mut state = self.bootstrap_sharded(snapshot, prior);
        loop {
            let step = iteration(&state)?;
            state = step.state;
            if state.converged {
                break;
            }
            if self.watchdog.detect_limit_cycles {
                let digest = iteration_digest(&state);
                if let Some(seen_at) = seen_states.iter().position(|&d| d == digest) {
                    // The full iteration state (accuracies + posteriors,
                    // from which the next dependence pass derives
                    // deterministically) recurred exactly: the loop is in
                    // a cycle and will never converge. End it now.
                    state.termination = Termination::LimitCycle {
                        period: seen_states.len() - seen_at,
                    };
                    break;
                }
                seen_states.push(digest);
            }
            if let Some(deadline) = self.watchdog.deadline {
                if started.elapsed() >= deadline {
                    state.termination = Termination::DeadlineExceeded;
                    break;
                }
            }
            if step.done {
                break;
            }
        }
        Ok(state)
    }

    /// One iteration's global tail, shared by every loop variant: builds
    /// the dependence matrix from this iteration's `dependences`, votes
    /// with the *old* accuracies, re-estimates accuracies and tests
    /// convergence. Only a non-converged iteration re-votes with the fresh
    /// accuracies, so copied votes are damped before the next detection
    /// pass.
    pub(crate) fn step(
        &self,
        snapshot: &SnapshotView,
        state: &PipelineResult,
        dependences: Vec<PairDependence>,
    ) -> ShardStep {
        let p = &self.params;
        let matrix = DependenceMatrix::from_pairs(&dependences);
        let iterations = state.iterations + 1;
        let mut probabilities = weighted_vote(snapshot, &state.accuracies, &matrix, p);
        let accuracies = estimate_accuracies(snapshot, &probabilities, p);
        let converged = max_delta(&state.accuracies, &accuracies) < p.convergence_epsilon;
        if !converged {
            probabilities = weighted_vote(snapshot, &accuracies, &matrix, p);
        }
        ShardStep {
            done: converged || iterations >= p.max_iterations,
            state: PipelineResult {
                probabilities,
                accuracies,
                dependences,
                iterations,
                converged,
                termination: Termination::from_converged(converged),
            },
        }
    }

    /// The canonical candidate-pair list for `snapshot` — empty when copy
    /// detection is off.
    pub(crate) fn candidates(&self, snapshot: &SnapshotView) -> Vec<(SourceId, SourceId, usize)> {
        if self.params.enable_copy_detection {
            candidate_pairs(snapshot, self.params.min_overlap)
        } else {
            Vec::new()
        }
    }

    /// One dependence-detection pass over `candidates` against `state`;
    /// each row carries its pair's direction hint.
    pub(crate) fn detect(
        &self,
        snapshot: &SnapshotView,
        candidates: &[(SourceId, SourceId, usize)],
        state: &PipelineResult,
    ) -> Vec<PairDependence> {
        detect_all_with_pairs(
            snapshot,
            candidates,
            &state.probabilities,
            &state.accuracies,
            &self.params,
        )
    }
}

/// Which path [`AccuCopy::run_delta`] took — the typed record the ingest
/// tier folds into its stats, so "incremental" vs "fell back to a full
/// run" is observable rather than inferred from timings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DeltaOutcome {
    /// Only the dirty component was re-converged; everything outside it
    /// was spliced through from the previous result unchanged.
    Incremental,
    /// The dirty closure reached more of the object space than the
    /// caller's `max_dirty_fraction` allows, so the full
    /// [`AccuCopy::run_warm`] ran instead.
    DirtyFractionExceeded {
        /// Fraction of the object space the dirty closure reached.
        dirty_fraction: f64,
    },
    /// No usable prior (absent, non-converged, or accuracy-blind). The
    /// warm-start gating rule applies to deltas too — a mid-oscillation
    /// state must not seed anything — so the full warm run (which itself
    /// degrades to cold) ran instead.
    PriorNotConverged,
    /// The strategy has no incremental path
    /// ([`TruthDiscovery::run_delta`](crate::TruthDiscovery::run_delta)'s
    /// default); its plain warm entry ran over the whole snapshot.
    Unsupported,
}

impl DeltaOutcome {
    /// `true` only for the genuinely incremental path.
    pub fn is_incremental(self) -> bool {
        matches!(self, DeltaOutcome::Incremental)
    }
}

/// A [`AccuCopy::run_delta`] result: a full-snapshot [`PipelineResult`]
/// (indistinguishable in shape from a [`AccuCopy::run_warm`] result) plus
/// the provenance of how it was produced.
#[derive(Debug, Clone)]
pub struct DeltaRun {
    /// The full-snapshot result.
    pub result: PipelineResult,
    /// Which path produced it.
    pub outcome: DeltaOutcome,
    /// Objects in the dirty closure (the whole object space on the
    /// fallback paths — a fallback re-converges everything).
    pub dirty_objects: usize,
    /// Sources in the dirty closure (ditto).
    pub dirty_sources: usize,
}

impl AccuCopy {
    /// Incrementally re-converges after a [`Delta`], seeding from the
    /// previous **converged** result and re-running the loop only where
    /// the delta can have changed anything.
    ///
    /// `snapshot` must be the *post-delta* snapshot (i.e.
    /// `prev_snapshot.apply_delta(delta)`), and `prev` the result of
    /// analysing the pre-delta snapshot. The dirty set starts from the
    /// objects the delta touches plus the sources asserting on them, and
    /// that one-hop rule is propagated through the vote → accuracy →
    /// dependence loop until it closes: a dirty object dirties every
    /// source asserting on it, a dirty source dirties every object it
    /// asserts. At the fixpoint the dirty set is a union of connected
    /// components of the source–object bipartite graph, and every term
    /// the loop computes — per-object votes, per-source accuracy
    /// estimates, candidate pairs (screened at overlap ≥ 1) — is local to
    /// a component, so the clean remainder provably cannot move: its
    /// previous converged values are spliced through verbatim while only
    /// the dirty component is extracted (order-preserving compaction, so
    /// per-component float operations run in the same order a full run
    /// would) and re-converged by the unmodified [`AccuCopy::run_warm`]
    /// loop. Posteriors therefore match a full warm re-analysis to within
    /// the convergence tolerance; the facade's property tests pin 1e-9.
    ///
    /// When the closure exceeds `max_dirty_fraction` of the object space
    /// (or the prior fails the warm-start gate) this falls back to the
    /// full [`AccuCopy::run_warm`] with a typed [`DeltaOutcome`] saying
    /// so.
    pub fn run_delta(
        &self,
        snapshot: &SnapshotView,
        prev: Option<&PipelineResult>,
        delta: &Delta,
        max_dirty_fraction: f64,
    ) -> DeltaRun {
        let p = &self.params;
        let num_sources = snapshot.num_sources();
        let num_objects = snapshot.num_objects();
        let gated = prev.filter(|r| r.converged && !r.accuracies.is_empty());
        let Some(prev) = gated else {
            return DeltaRun {
                result: self.run_warm(snapshot, prev),
                outcome: DeltaOutcome::PriorNotConverged,
                dirty_objects: num_objects,
                dirty_sources: num_sources,
            };
        };
        if delta.is_empty() {
            return DeltaRun {
                // The previous result verbatim; no iterations were spent
                // on this (empty) delta.
                result: PipelineResult {
                    iterations: 0,
                    ..prev.clone()
                },
                outcome: DeltaOutcome::Incremental,
                dirty_objects: 0,
                dirty_sources: 0,
            };
        }

        // Dirty closure: alternate the two one-hop expansions until both
        // worklists drain. Ids beyond the snapshot's spaces cannot occur
        // when `snapshot` was built by `apply_delta` (it grows to cover
        // the delta); stray ids from a mismatched caller are ignored.
        let mut src_dirty = vec![false; num_sources];
        let mut obj_dirty = vec![false; num_objects];
        let mut src_stack: Vec<SourceId> = Vec::new();
        let mut obj_stack: Vec<ObjectId> = Vec::new();
        for o in delta.touched_objects() {
            if o.index() < num_objects {
                obj_dirty[o.index()] = true;
                obj_stack.push(o);
            }
        }
        for s in delta.touched_sources() {
            if s.index() < num_sources {
                src_dirty[s.index()] = true;
                src_stack.push(s);
            }
        }
        loop {
            if let Some(o) = obj_stack.pop() {
                for &(s, _) in snapshot.assertions_on(o) {
                    if !src_dirty[s.index()] {
                        src_dirty[s.index()] = true;
                        src_stack.push(s);
                    }
                }
                continue;
            }
            if let Some(s) = src_stack.pop() {
                for &(o, _) in snapshot.source_assertions(s) {
                    if !obj_dirty[o.index()] {
                        obj_dirty[o.index()] = true;
                        obj_stack.push(o);
                    }
                }
                continue;
            }
            break;
        }
        let dirty_objects = obj_dirty.iter().filter(|&&d| d).count();
        let dirty_sources = src_dirty.iter().filter(|&&d| d).count();
        let dirty_fraction = dirty_objects as f64 / num_objects.max(1) as f64;
        if dirty_fraction > max_dirty_fraction {
            return DeltaRun {
                result: self.run_warm(snapshot, Some(prev)),
                outcome: DeltaOutcome::DirtyFractionExceeded { dirty_fraction },
                dirty_objects: num_objects,
                dirty_sources: num_sources,
            };
        }

        // Extract the dirty component as a compact sub-snapshot. The
        // remaps are monotone, so CSR iteration order — and with it every
        // float summation order — matches the full run's.
        let sub_sources: Vec<SourceId> = (0..num_sources)
            .filter(|&i| src_dirty[i])
            .map(SourceId::from_index)
            .collect();
        let sub_objects: Vec<ObjectId> = (0..num_objects)
            .filter(|&i| obj_dirty[i])
            .map(ObjectId::from_index)
            .collect();
        let mut obj_remap = vec![u32::MAX; num_objects];
        for (compact, o) in sub_objects.iter().enumerate() {
            obj_remap[o.index()] = compact as u32;
        }
        let mut rows = Vec::new();
        for (compact, &s) in sub_sources.iter().enumerate() {
            for &(o, v) in snapshot.source_assertions(s) {
                // Every object a dirty source asserts is dirty (closure),
                // so the remap is always populated here.
                rows.push((
                    SourceId::from_index(compact),
                    ObjectId(obj_remap[o.index()]),
                    v,
                ));
            }
        }
        let sub_snapshot = SnapshotView::from_triples(sub_sources.len(), sub_objects.len(), rows);
        let sub_prior = PipelineResult {
            probabilities: ValueProbabilities::default(),
            accuracies: sub_sources
                .iter()
                .map(|s| {
                    prev.accuracies
                        .get(s.index())
                        .copied()
                        .unwrap_or(p.initial_accuracy)
                })
                .collect(),
            dependences: Vec::new(),
            iterations: 0,
            converged: true,
            termination: Termination::Converged,
        };
        let sub = self.run_warm(&sub_snapshot, Some(&sub_prior));

        // Splice the re-converged component back over the previous
        // result; the clean remainder is carried through untouched.
        let mut accuracies = prev.accuracies.clone();
        accuracies.resize(num_sources, p.initial_accuracy);
        for (compact, &s) in sub_sources.iter().enumerate() {
            accuracies[s.index()] = sub.accuracies[compact];
        }
        let mut per_object: Vec<(ObjectId, Vec<(ValueId, f64)>)> = Vec::new();
        for idx in 0..num_objects {
            let o = ObjectId::from_index(idx);
            let dist = if obj_dirty[idx] {
                sub.probabilities
                    .distribution(ObjectId(obj_remap[idx]))
                    .to_vec()
            } else {
                prev.probabilities.distribution(o).to_vec()
            };
            if !dist.is_empty() {
                per_object.push((o, dist));
            }
        }
        let probabilities = ValueProbabilities::from_object_distributions(per_object);
        let mut dependences: Vec<PairDependence> = prev
            .dependences
            .iter()
            .filter(|d| {
                d.a.index() < num_sources
                    && d.b.index() < num_sources
                    && !src_dirty[d.a.index()]
                    && !src_dirty[d.b.index()]
            })
            .cloned()
            .collect();
        for d in &sub.dependences {
            let mut mapped = d.clone();
            mapped.a = sub_sources[d.a.index()];
            mapped.b = sub_sources[d.b.index()];
            dependences.push(mapped);
        }
        // Candidate enumeration is sorted by (a, b); keep the merged list
        // in the same canonical order.
        dependences.sort_by_key(|x| (x.a, x.b));

        DeltaRun {
            result: PipelineResult {
                probabilities,
                accuracies,
                dependences,
                iterations: sub.iterations,
                converged: sub.converged,
                termination: sub.termination,
            },
            outcome: DeltaOutcome::Incremental,
            dirty_objects,
            dirty_sources,
        }
    }
}

/// The warm-start accuracy seed shared by [`AccuCopy::run_warm`] and the
/// sharded coordinator bootstrap ([`crate::shard`]) — one definition so
/// the gating rule cannot drift between the two paths.
///
/// A prior from an accuracy-blind strategy (empty accuracy vector)
/// carries nothing to warm-start from, and a *non-converged* prior is a
/// mid-oscillation state, not a posterior — seeding from one measurably
/// steers the loop into a different attractor than the cold bootstrap
/// reaches (observed on seeded temporal worlds). Both fall back to the
/// cold start.
pub(crate) fn seed_accuracies(
    params: &DetectionParams,
    snapshot: &SnapshotView,
    prior: Option<&PipelineResult>,
) -> Vec<f64> {
    let prior = prior.filter(|r| r.converged && !r.accuracies.is_empty());
    match prior {
        Some(r) => {
            let mut seeded = r.accuracies.clone();
            // Pads new sources with the initial accuracy; equally
            // shrinks a longer prior to this snapshot's source count.
            seeded.resize(snapshot.num_sources(), params.initial_accuracy);
            for a in &mut seeded {
                *a = params.clamp_accuracy(*a);
            }
            seeded
        }
        None => vec![params.initial_accuracy; snapshot.num_sources()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::naive_probabilities;
    use sailing_model::fixtures;

    #[test]
    fn table1_accu_copy_recovers_all_truths() {
        // Example 3.1: ignoring the values of the copy cluster lets the
        // accurate source win everywhere.
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::with_defaults().run(&snap);
        let precision = truth.decision_precision(&result.decisions()).unwrap();
        assert_eq!(
            precision, 1.0,
            "dependence-aware fusion must be correct on all five researchers; \
             accuracies={:?}",
            result.accuracies
        );
    }

    #[test]
    fn table1_baseline_follows_the_copiers() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::baseline().run(&snap);
        let precision = truth.decision_precision(&result.decisions()).unwrap();
        assert!(
            precision < 1.0,
            "the dependence-unaware baseline should be misled on Table 1"
        );
        assert!(result.dependences.is_empty());
    }

    #[test]
    fn table1_flags_the_cluster_not_the_independents() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::with_defaults().run(&snap);
        let s = |n: &str| store.source_id(n).unwrap();
        let find = |a: SourceId, b: SourceId| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            result
                .dependences
                .iter()
                .find(|p| p.a == a && p.b == b)
                .unwrap()
                .probability
        };
        for (x, y) in [("S3", "S4"), ("S3", "S5"), ("S4", "S5")] {
            assert!(
                find(s(x), s(y)) > 0.8,
                "{x}-{y} should be flagged: {}",
                find(s(x), s(y))
            );
        }
        assert!(
            find(s("S1"), s("S2")) < 0.5,
            "S1-S2 share only true values: {}",
            find(s("S1"), s("S2"))
        );
    }

    #[test]
    fn table1_accuracy_ordering_is_recovered() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::with_defaults().run(&snap);
        let a = |n: &str| result.accuracies[store.source_id(n).unwrap().index()];
        assert!(a("S1") > a("S2"), "S1 perfect vs S2 3/5");
        assert!(a("S2") > a("S3"), "S2 3/5 vs S3 2/5");
    }

    #[test]
    fn pipeline_converges_and_reports() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::with_defaults().run(&snap);
        assert!(result.converged, "Table 1 should converge quickly");
        assert!(result.iterations <= 20);
        let reports = result.source_reports(&snap);
        assert_eq!(reports.len(), 5);
        let s4 = store.source_id("S4").unwrap();
        let s1 = store.source_id("S1").unwrap();
        let r4 = reports.iter().find(|r| r.source == s4).unwrap();
        let r1 = reports.iter().find(|r| r.source == s1).unwrap();
        assert!(r4.copier_probability > r1.copier_probability);
        assert!(r1.mean_independence > r4.mean_independence);
        assert_eq!(r1.coverage, 5);
    }

    #[test]
    fn dependent_pairs_sorted_and_thresholded() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let result = AccuCopy::with_defaults().run(&snap);
        let pairs = result.dependent_pairs(0.8);
        assert!(!pairs.is_empty());
        assert!(pairs
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability));
        assert!(pairs.iter().all(|p| p.probability >= 0.8));
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = DetectionParams {
            copy_rate: 2.0,
            ..DetectionParams::default()
        };
        assert!(AccuCopy::new(bad).is_err());
        assert!(AccuCopy::new(DetectionParams::default()).is_ok());
    }

    #[test]
    fn empty_snapshot_is_fine() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        let result = AccuCopy::with_defaults().run(&snap);
        assert!(result.decisions().is_empty());
        assert!(result.dependences.is_empty());
        assert!(result.converged);
    }

    #[test]
    fn warm_start_none_is_exactly_the_cold_run() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let cold = pipeline.run(&snap);
        let warm_none = pipeline.run_warm(&snap, None);
        assert_eq!(cold.iterations, warm_none.iterations);
        assert_eq!(cold.accuracies, warm_none.accuracies);
    }

    #[test]
    fn warm_start_from_own_result_converges_fast_and_agrees() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let cold = pipeline.run(&snap);
        let warm = pipeline.run_warm(&snap, Some(&cold));
        // Restarting at the fixpoint must stay at the fixpoint, in fewer
        // iterations than the cold climb.
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.converged);
        assert_eq!(warm.decisions(), cold.decisions());
        assert_eq!(truth.decision_precision(&warm.decisions()), Some(1.0));
        for (w, c) in warm.accuracies.iter().zip(&cold.accuracies) {
            assert!((w - c).abs() < 1e-3, "warm {w} vs cold {c}");
        }
    }

    #[test]
    fn warm_start_ignores_accuracy_blind_priors_and_resizes() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        // A naive-vote prior (no accuracies) must behave exactly like cold.
        let naive_prior = PipelineResult {
            probabilities: naive_probabilities(&snap),
            accuracies: Vec::new(),
            dependences: Vec::new(),
            iterations: 1,
            converged: true,
            termination: Termination::Converged,
        };
        let cold = pipeline.run(&snap);
        let warm = pipeline.run_warm(&snap, Some(&naive_prior));
        assert_eq!(cold.iterations, warm.iterations);
        assert_eq!(cold.accuracies, warm.accuracies);
        // A prior with a shorter accuracy vector is padded, a longer one
        // truncated — no panics, sane output either way.
        let mut short = cold.clone();
        short.accuracies.truncate(2);
        let padded = pipeline.run_warm(&snap, Some(&short));
        assert_eq!(padded.accuracies.len(), snap.num_sources());
        let mut long = cold.clone();
        long.accuracies.extend([0.7; 4]);
        let truncated = pipeline.run_warm(&snap, Some(&long));
        assert_eq!(truncated.accuracies.len(), snap.num_sources());
    }

    #[test]
    fn serde_roundtrip() {
        let (store, _) = fixtures::table1();
        let result = AccuCopy::with_defaults().run(&store.snapshot());
        let json = serde_json::to_string(&result).unwrap();
        let back: PipelineResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.iterations, result.iterations);
        for (x, y) in back.accuracies.iter().zip(&result.accuracies) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn termination_is_not_on_the_wire_and_rebuilds_from_converged() {
        let (store, _) = fixtures::table1();
        let result = AccuCopy::with_defaults().run(&store.snapshot());
        assert_eq!(result.termination, Termination::Converged);
        let json = result.to_canonical_json();
        assert!(
            !json.contains("termination"),
            "the pinned wire must not grow a field"
        );
        let back = PipelineResult::from_json_str(&json).unwrap();
        assert_eq!(back.termination, Termination::Converged);
        // A non-converged record rebuilds as the iteration cap.
        let mut capped = result.clone();
        capped.converged = false;
        capped.termination = Termination::DeadlineExceeded;
        let back = PipelineResult::from_json_str(&capped.to_canonical_json()).unwrap();
        assert_eq!(back.termination, Termination::IterationCap);
        assert_eq!(
            capped.content_digest(),
            {
                let mut t = capped.clone();
                t.termination = Termination::IterationCap;
                t.content_digest()
            },
            "termination must not leak into the provenance digest"
        );
    }

    #[test]
    fn watchdog_deadline_stops_a_run_as_a_typed_outcome() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        // A zero deadline elapses after the very first iteration — the
        // deterministic way to pin the deadline path without sleeping.
        let watchdogged =
            AccuCopy::with_defaults().with_watchdog(Watchdog::off().deadline(Duration::ZERO));
        let result = watchdogged.run(&snap);
        assert_eq!(result.iterations, 1, "one iteration always completes");
        assert!(!result.converged);
        assert_eq!(result.termination, Termination::DeadlineExceeded);
        assert!(result.termination.is_watchdog_stop());
        // A generous deadline never interferes with convergence.
        let relaxed = AccuCopy::with_defaults().with_watchdog(
            Watchdog::off()
                .deadline(Duration::from_secs(3600))
                .limit_cycles(),
        );
        let result = relaxed.run(&snap);
        assert!(result.converged);
        assert_eq!(result.termination, Termination::Converged);
    }

    #[test]
    fn watchdog_off_is_the_historical_loop() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let plain = AccuCopy::with_defaults().run(&snap);
        let armed = AccuCopy::with_defaults()
            .with_watchdog(Watchdog::off().limit_cycles())
            .run(&snap);
        assert_eq!(plain.iterations, armed.iterations);
        assert_eq!(plain.accuracies, armed.accuracies);
        assert_eq!(plain.content_digest(), armed.content_digest());
    }

    /// Two disjoint source/object blocks. Block A: sources 0–2 over
    /// objects 0–3; block B: sources 3–5 over objects 4–7. Values are
    /// namespaced per object (`o*10 + k`, `k = 0` true), each source is
    /// wrong on one object of its block.
    fn block_world() -> SnapshotView {
        let mut triples = Vec::new();
        for block in 0..2u32 {
            for s in 0..3u32 {
                let sid = SourceId(block * 3 + s);
                for o in 0..4u32 {
                    let oid = ObjectId(block * 4 + o);
                    let k = u32::from(o == s + 1); // source s wrong on object s+1
                    triples.push((sid, oid, ValueId(oid.0 * 10 + k)));
                }
            }
        }
        SnapshotView::from_triples(6, 8, triples)
    }

    fn delta_params() -> DetectionParams {
        // Per the workspace numerics caution: continuous vote map + tight
        // epsilon, so fixpoints are stable and parity is meaningful.
        DetectionParams {
            hard_damping_threshold: 1.0,
            convergence_epsilon: 1e-12,
            ..DetectionParams::default()
        }
    }

    #[test]
    fn run_delta_parity_with_full_warm_rerun() {
        let base = block_world();
        let pipeline = AccuCopy::new(delta_params()).unwrap();
        let prev = pipeline.run(&base);
        assert!(prev.converged, "block world must converge");

        // Delta confined to block A: one flipped value, one new source.
        let mut b = Delta::builder();
        b.assert_value(SourceId(1), ObjectId(0), ValueId(1));
        for o in 0..4u32 {
            b.assert_value(SourceId(6), ObjectId(o), ValueId(o * 10));
        }
        let delta = b.build();
        let after = base.apply_delta(&delta);

        let run = pipeline.run_delta(&after, Some(&prev), &delta, 0.9);
        let full = pipeline.run_warm(&after, Some(&prev));

        assert_eq!(run.outcome, DeltaOutcome::Incremental);
        assert!(run.outcome.is_incremental());
        assert_eq!(run.dirty_objects, 4, "block A objects only");
        assert_eq!(run.dirty_sources, 4, "sources 0-2 plus the new 6");
        assert!(run.result.converged);
        assert_eq!(run.result.termination, Termination::Converged);
        assert!(run.result.iterations <= full.iterations);

        // Posterior and accuracy parity with the full warm re-analysis.
        assert_eq!(run.result.accuracies.len(), full.accuracies.len());
        for (i, (x, y)) in run
            .result
            .accuracies
            .iter()
            .zip(&full.accuracies)
            .enumerate()
        {
            assert!((x - y).abs() < 1e-9, "accuracy[{i}]: {x} vs {y}");
        }
        for o in 0..after.num_objects() {
            let o = ObjectId::from_index(o);
            for &(v, p) in full.probabilities.distribution(o) {
                let q = run.result.probabilities.prob(o, v);
                assert!((p - q).abs() < 1e-9, "posterior({o:?}, {v:?}): {p} vs {q}");
            }
        }
        // The clean block B is spliced through bit-for-bit.
        for s in 3..6 {
            assert_eq!(run.result.accuracies[s], prev.accuracies[s]);
        }
        for o in 4..8u32 {
            assert_eq!(
                run.result.probabilities.distribution(ObjectId(o)),
                prev.probabilities.distribution(ObjectId(o))
            );
        }
    }

    #[test]
    fn run_delta_gates_and_falls_back() {
        let base = block_world();
        let pipeline = AccuCopy::new(delta_params()).unwrap();
        let prev = pipeline.run(&base);
        let mut b = Delta::builder();
        b.assert_value(SourceId(0), ObjectId(0), ValueId(1));
        let delta = b.build();
        let after = base.apply_delta(&delta);

        // A zero dirty budget forces the typed full fallback, which must
        // be exactly the full warm run.
        let run = pipeline.run_delta(&after, Some(&prev), &delta, 0.0);
        assert!(matches!(
            run.outcome,
            DeltaOutcome::DirtyFractionExceeded { dirty_fraction } if dirty_fraction > 0.0
        ));
        assert_eq!(run.dirty_objects, after.num_objects());
        let full = pipeline.run_warm(&after, Some(&prev));
        assert_eq!(run.result.accuracies, full.accuracies);
        assert_eq!(run.result.content_digest(), full.content_digest());

        // A non-converged prior fails the warm-start gate.
        let mut spun = prev.clone();
        spun.converged = false;
        let run = pipeline.run_delta(&after, Some(&spun), &delta, 0.9);
        assert_eq!(run.outcome, DeltaOutcome::PriorNotConverged);
        let cold = pipeline.run(&after);
        assert_eq!(run.result.content_digest(), cold.content_digest());
        let run = pipeline.run_delta(&after, None, &delta, 0.9);
        assert_eq!(run.outcome, DeltaOutcome::PriorNotConverged);

        // An empty delta is a no-op: the prior is returned as-is.
        let run = pipeline.run_delta(&base, Some(&prev), &Delta::builder().build(), 0.9);
        assert_eq!(run.outcome, DeltaOutcome::Incremental);
        assert_eq!(run.dirty_objects, 0);
        assert_eq!(run.result.iterations, 0);
        assert_eq!(run.result.content_digest(), prev.content_digest());
    }

    #[test]
    fn run_delta_handles_retraction_only_deltas() {
        let base = block_world();
        let pipeline = AccuCopy::new(delta_params()).unwrap();
        let prev = pipeline.run(&base);
        // Source 4 vanishes entirely from block B.
        let mut b = Delta::builder();
        for o in 4..8u32 {
            b.retract(SourceId(4), ObjectId(o));
        }
        let delta = b.build();
        let after = base.apply_delta(&delta);
        assert_eq!(after.coverage(SourceId(4)), 0);

        let run = pipeline.run_delta(&after, Some(&prev), &delta, 0.9);
        let full = pipeline.run_warm(&after, Some(&prev));
        assert_eq!(run.outcome, DeltaOutcome::Incremental);
        assert_eq!(run.dirty_objects, 4, "block B objects");
        for (i, (x, y)) in run
            .result
            .accuracies
            .iter()
            .zip(&full.accuracies)
            .enumerate()
        {
            assert!((x - y).abs() < 1e-9, "accuracy[{i}]: {x} vs {y}");
        }
        for o in 0..after.num_objects() {
            let o = ObjectId::from_index(o);
            for &(v, p) in full.probabilities.distribution(o) {
                let q = run.result.probabilities.prob(o, v);
                assert!((p - q).abs() < 1e-9, "posterior({o:?}, {v:?}): {p} vs {q}");
            }
        }
    }
}
