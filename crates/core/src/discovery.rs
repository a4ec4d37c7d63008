//! Pluggable truth-discovery strategies.
//!
//! The paper's programme is one loop — *determine true values ↔ compute
//! source accuracy ↔ discover dependence* — instantiated at three rungs of
//! the experiment ladder: naive voting, accuracy-weighted voting (ACCU),
//! and the full dependence-aware pipeline (ACCU-COPY). [`TruthDiscovery`]
//! makes the rung a first-class object: fusion, the online-query planner,
//! the recommender, and the `sailing` facade all consume `dyn
//! TruthDiscovery` instead of re-matching a strategy enum, so new
//! strategies (e.g. a future sharded or incremental pipeline) plug in
//! without touching the downstream crates.

use sailing_model::{Delta, SnapshotView};

use crate::params::DetectionParams;
use crate::pipeline::{AccuCopy, DeltaOutcome, DeltaRun, PipelineResult, Termination};
use crate::truth::naive_probabilities;

/// A truth-discovery strategy: everything that can turn a snapshot of
/// conflicting claims into per-object value beliefs (and, for the
/// dependence-aware rungs, source accuracies and pairwise dependences).
///
/// Implementations must be deterministic for a given snapshot so cached
/// [`PipelineResult`]s can be reused across fusion, query planning, and
/// recommendation.
pub trait TruthDiscovery: Send + Sync {
    /// Short display name used in experiment tables and reports.
    fn name(&self) -> &'static str;

    /// Runs the strategy over a snapshot.
    fn discover(&self, snapshot: &SnapshotView) -> PipelineResult;

    /// Runs the strategy **warm-started** from a previous epoch's result —
    /// the incremental entry the `sailing` facade's `TimelineSession` uses
    /// when walking a history change point by change point.
    ///
    /// The contract is *speed, not answers*: implementations may use the
    /// prior to start iterating closer to the fixpoint (fewer rounds on a
    /// small snapshot delta) but must converge to the same result the cold
    /// [`TruthDiscovery::discover`] would produce, up to the convergence
    /// tolerance. The default implementation ignores the prior and runs
    /// cold, so single-shot strategies (e.g. naive voting) need no code.
    fn run_warm(&self, snapshot: &SnapshotView, prior: Option<&PipelineResult>) -> PipelineResult {
        let _ = prior;
        self.discover(snapshot)
    }

    /// Runs the strategy **delta-incrementally**: `snapshot` is the
    /// post-delta snapshot and `prev` the previous epoch's result for the
    /// pre-delta one. Strategies with a real incremental path (the
    /// ACCU-COPY family) re-converge only what the delta can have changed
    /// and splice the rest through; the default implementation has none
    /// and runs the plain warm entry over the whole snapshot, reported as
    /// [`DeltaOutcome::Unsupported`]. Like [`TruthDiscovery::run_warm`],
    /// the contract is *speed, not answers* — posteriors must match a
    /// full re-analysis up to the convergence tolerance either way.
    fn run_delta(
        &self,
        snapshot: &SnapshotView,
        prev: Option<&PipelineResult>,
        delta: &Delta,
        max_dirty_fraction: f64,
    ) -> DeltaRun {
        let _ = (delta, max_dirty_fraction);
        DeltaRun {
            result: self.run_warm(snapshot, prev),
            outcome: DeltaOutcome::Unsupported,
            dirty_objects: snapshot.num_objects(),
            dirty_sources: snapshot.num_sources(),
        }
    }

    /// `true` when the strategy estimates per-source accuracies.
    fn estimates_accuracies(&self) -> bool {
        true
    }

    /// `true` when the strategy detects source dependences.
    fn detects_dependence(&self) -> bool {
        true
    }

    /// The detection parameters the strategy runs with, when it has any.
    ///
    /// Consumers that vote downstream of discovery (fusion damping, online
    /// sessions) should prefer these over their own defaults so the whole
    /// loop uses one parameter set; `None` means the strategy is
    /// parameter-free (e.g. naive voting).
    fn detection_params(&self) -> Option<&DetectionParams> {
        None
    }
}

/// Majority voting — the paper's inadequate baseline (Section 1).
///
/// Produces naive vote shares as "probabilities", no accuracy estimates,
/// and no dependences.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveVote;

impl NaiveVote {
    /// Creates the naive-voting strategy.
    pub fn new() -> Self {
        NaiveVote
    }
}

impl TruthDiscovery for NaiveVote {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn discover(&self, snapshot: &SnapshotView) -> PipelineResult {
        PipelineResult {
            probabilities: naive_probabilities(snapshot),
            accuracies: Vec::new(),
            dependences: Vec::new(),
            iterations: 1,
            converged: true,
            termination: Termination::Converged,
        }
    }

    fn estimates_accuracies(&self) -> bool {
        false
    }

    fn detects_dependence(&self) -> bool {
        false
    }
}

impl TruthDiscovery for AccuCopy {
    fn name(&self) -> &'static str {
        if self.params().enable_copy_detection {
            "accu-copy"
        } else {
            "accu"
        }
    }

    fn discover(&self, snapshot: &SnapshotView) -> PipelineResult {
        self.run(snapshot)
    }

    fn run_warm(&self, snapshot: &SnapshotView, prior: Option<&PipelineResult>) -> PipelineResult {
        AccuCopy::run_warm(self, snapshot, prior)
    }

    fn run_delta(
        &self,
        snapshot: &SnapshotView,
        prev: Option<&PipelineResult>,
        delta: &Delta,
        max_dirty_fraction: f64,
    ) -> DeltaRun {
        AccuCopy::run_delta(self, snapshot, prev, delta, max_dirty_fraction)
    }

    fn detects_dependence(&self) -> bool {
        self.params().enable_copy_detection
    }

    fn detection_params(&self) -> Option<&DetectionParams> {
        Some(self.params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;

    fn strategies() -> Vec<Box<dyn TruthDiscovery>> {
        vec![
            Box::new(NaiveVote::new()),
            Box::new(AccuCopy::baseline()),
            Box::new(AccuCopy::with_defaults()),
        ]
    }

    #[test]
    fn names_and_capabilities() {
        let s = strategies();
        assert_eq!(s[0].name(), "naive");
        assert_eq!(s[1].name(), "accu");
        assert_eq!(s[2].name(), "accu-copy");
        assert!(!s[0].estimates_accuracies());
        assert!(s[1].estimates_accuracies());
        assert!(!s[1].detects_dependence());
        assert!(s[2].detects_dependence());
    }

    #[test]
    fn table1_ladder_through_the_trait() {
        // The paper's headline, driven entirely through trait objects.
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let mut precisions = Vec::new();
        for s in strategies() {
            let result = s.discover(&snap);
            precisions.push(truth.decision_precision(&result.decisions()).unwrap());
        }
        assert!(
            (precisions[0] - 0.4).abs() < 1e-9,
            "naive follows the copiers"
        );
        assert_eq!(precisions[2], 1.0, "accu-copy recovers all truths");
        assert!(precisions[2] >= precisions[1]);
    }

    #[test]
    fn naive_matches_naive_vote() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let via_trait = NaiveVote::new().discover(&snap).decisions();
        let direct = crate::vote::naive_vote(&snap);
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn accu_forces_copy_detection_off() {
        let (store, _) = fixtures::table1();
        let result = AccuCopy::baseline().discover(&store.snapshot());
        assert!(result.dependences.is_empty());
    }

    #[test]
    fn run_warm_defaults_to_cold_and_accelerates_iterative_strategies() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        // Single-shot strategy: warm is the cold run (default impl).
        let naive = NaiveVote::new();
        let cold = naive.discover(&snap);
        let warm = naive.run_warm(&snap, Some(&cold));
        assert_eq!(warm.iterations, cold.iterations);
        // Iterative strategies restart near the fixpoint.
        for s in [&strategies()[1], &strategies()[2]] {
            let cold = s.discover(&snap);
            let warm = s.run_warm(&snap, Some(&cold));
            assert!(
                warm.iterations < cold.iterations,
                "{}: warm {} vs cold {}",
                s.name(),
                warm.iterations,
                cold.iterations
            );
            assert_eq!(warm.decisions(), cold.decisions());
        }
    }

    #[test]
    fn accu_copy_name_tracks_params() {
        assert_eq!(TruthDiscovery::name(&AccuCopy::baseline()), "accu");
        assert_eq!(
            TruthDiscovery::name(&AccuCopy::with_defaults()),
            "accu-copy"
        );
    }
}
