//! Conflict-resolution strategies.
//!
//! [`FusionStrategy`] names the rungs of the paper's experiment ladder and
//! resolves each to a pluggable [`TruthDiscovery`] object from
//! `sailing-core`; [`fuse`] is a thin driver over that trait rather than a
//! re-implementation per strategy.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

use sailing_core::truth::ValueProbabilities;
use sailing_core::{
    AccuCopy, DetectionParams, NaiveVote, PairDependence, PipelineResult, SailingError,
    TruthDiscovery,
};
use sailing_model::{ObjectId, SnapshotView, ValueId};

/// Which fusion algorithm to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FusionStrategy {
    /// Majority voting — the paper's inadequate baseline.
    NaiveVote,
    /// Accuracy-weighted voting without dependence awareness (ACCU).
    AccuracyVote,
    /// The full dependence-aware pipeline (ACCU-COPY).
    DependenceAware(DetectionParams),
}

impl FusionStrategy {
    /// The default dependence-aware strategy.
    pub fn dependence_aware() -> Self {
        FusionStrategy::DependenceAware(DetectionParams::default())
    }

    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            FusionStrategy::NaiveVote => "naive",
            FusionStrategy::AccuracyVote => "accu",
            FusionStrategy::DependenceAware(_) => "accu-copy",
        }
    }

    /// Resolves the named strategy to a pluggable [`TruthDiscovery`]
    /// object, validating any embedded parameters.
    pub fn discovery(&self) -> Result<Box<dyn TruthDiscovery>, SailingError> {
        Ok(match self {
            FusionStrategy::NaiveVote => Box::new(NaiveVote::new()),
            FusionStrategy::AccuracyVote => Box::new(AccuCopy::baseline()),
            FusionStrategy::DependenceAware(params) => Box::new(AccuCopy::new(params.clone())?),
        })
    }
}

/// What fusion produced.
///
/// The posterior payload (probabilities, accuracies, dependences) is a
/// shared [`Arc`] over the discovery [`PipelineResult`]: deriving an
/// outcome from a cached analysis shares every distribution instead of
/// deep-copying them — only the small per-object decision map is
/// materialised per outcome. Serialization is unchanged from the old
/// by-value shape.
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// Hard decision per object.
    pub decisions: HashMap<ObjectId, ValueId>,
    /// Strategy name, for reporting.
    pub strategy: String,
    result: Arc<PipelineResult>,
}

impl FusionOutcome {
    /// Packages a discovery result under a strategy name.
    pub fn from_result(result: PipelineResult, strategy: &str) -> Self {
        Self::from_shared(Arc::new(result), strategy)
    }

    /// Packages an already-shared discovery result without copying it —
    /// the path the `sailing` facade's cached analysis takes.
    pub fn from_shared(result: Arc<PipelineResult>, strategy: &str) -> Self {
        FusionOutcome {
            decisions: result.decisions(),
            strategy: strategy.to_string(),
            result,
        }
    }

    /// Posterior value distributions (naive voting reports raw vote shares
    /// rather than calibrated probabilities — use
    /// [`crate::ProbabilisticDatabase`] for downstream probability math).
    pub fn probabilities(&self) -> &ValueProbabilities {
        &self.result.probabilities
    }

    /// Estimated source accuracies (empty for naive voting).
    pub fn accuracies(&self) -> &[f64] {
        &self.result.accuracies
    }

    /// Detected dependences (empty unless dependence-aware).
    pub fn dependences(&self) -> &[PairDependence] {
        &self.result.dependences
    }

    /// The underlying (shared) pipeline result.
    pub fn result(&self) -> &PipelineResult {
        &self.result
    }

    /// The hard decisions in ascending object order — iterate this (not
    /// the `decisions` hash map, whose order is randomized per process)
    /// when emitting reports that must be reproducible run to run.
    pub fn decisions_sorted(&self) -> std::collections::BTreeMap<ObjectId, ValueId> {
        self.result.decisions_sorted()
    }
}

// Wire-compatible with the old by-value field shape: `{"decisions": ...,
// "probabilities": ..., "accuracies": ..., "dependences": ..., "strategy":
// ...}` — the `Arc` is an in-memory sharing detail.
impl Serialize for FusionOutcome {
    fn serialize(&self) -> Content {
        Content::Map(vec![
            (
                Content::Str("decisions".to_string()),
                self.decisions.serialize(),
            ),
            (
                Content::Str("probabilities".to_string()),
                self.result.probabilities.serialize(),
            ),
            (
                Content::Str("accuracies".to_string()),
                self.result.accuracies.serialize(),
            ),
            (
                Content::Str("dependences".to_string()),
                self.result.dependences.serialize(),
            ),
            (
                Content::Str("strategy".to_string()),
                self.strategy.serialize(),
            ),
        ])
    }
}

impl Deserialize for FusionOutcome {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            content
                .field(name)
                .ok_or_else(|| SerdeError::msg(format!("FusionOutcome: missing field `{name}`")))
        };
        let result = PipelineResult {
            probabilities: ValueProbabilities::deserialize(field("probabilities")?)?,
            accuracies: Vec::deserialize(field("accuracies")?)?,
            dependences: Vec::deserialize(field("dependences")?)?,
            // The wire format never carried loop metadata; report the
            // conservative unknown (no iterations recorded, convergence
            // not claimed) rather than fabricating a settled run.
            iterations: 0,
            converged: false,
            termination: sailing_core::Termination::from_converged(false),
        };
        Ok(FusionOutcome {
            decisions: HashMap::deserialize(field("decisions")?)?,
            strategy: String::deserialize(field("strategy")?)?,
            result: Arc::new(result),
        })
    }
}

/// Runs a fusion strategy over a snapshot.
///
/// # Errors
/// Returns [`SailingError::InvalidParameter`] when the strategy embeds
/// invalid detection parameters.
pub fn fuse(
    snapshot: &SnapshotView,
    strategy: &FusionStrategy,
) -> Result<FusionOutcome, SailingError> {
    let discovery = strategy.discovery()?;
    Ok(fuse_with(snapshot, discovery.as_ref()))
}

/// Runs fusion with an explicit (possibly custom) discovery strategy.
pub fn fuse_with(snapshot: &SnapshotView, discovery: &dyn TruthDiscovery) -> FusionOutcome {
    FusionOutcome::from_result(discovery.discover(snapshot), discovery.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;

    #[test]
    fn strategy_names() {
        assert_eq!(FusionStrategy::NaiveVote.name(), "naive");
        assert_eq!(FusionStrategy::AccuracyVote.name(), "accu");
        assert_eq!(FusionStrategy::dependence_aware().name(), "accu-copy");
    }

    #[test]
    fn table1_strategy_ladder() {
        // The paper's headline: naive < dependence-aware on Table 1.
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let naive = fuse(&snap, &FusionStrategy::NaiveVote).unwrap();
        let aware = fuse(&snap, &FusionStrategy::dependence_aware()).unwrap();
        let p_naive = truth.decision_precision(&naive.decisions).unwrap();
        let p_aware = truth.decision_precision(&aware.decisions).unwrap();
        assert!((p_naive - 0.4).abs() < 1e-9);
        assert_eq!(p_aware, 1.0);
        assert!(!aware.dependences().is_empty());
        assert!(naive.dependences().is_empty());
    }

    #[test]
    fn accu_reports_accuracies_but_no_dependences() {
        let (store, _) = fixtures::table1();
        let outcome = fuse(&store.snapshot(), &FusionStrategy::AccuracyVote).unwrap();
        assert_eq!(outcome.accuracies().len(), 5);
        assert!(outcome.dependences().is_empty());
        assert_eq!(outcome.decisions.len(), 5);
    }

    #[test]
    fn invalid_params_surface_as_typed_errors() {
        let (store, _) = fixtures::table1();
        let bad = FusionStrategy::DependenceAware(DetectionParams {
            copy_rate: 2.0,
            ..DetectionParams::default()
        });
        let err = fuse(&store.snapshot(), &bad).unwrap_err();
        assert!(matches!(
            err,
            SailingError::InvalidParameter {
                param: "copy_rate",
                ..
            }
        ));
    }

    #[test]
    fn fuse_with_accepts_custom_strategies() {
        let (store, truth) = fixtures::table1();
        let outcome = fuse_with(&store.snapshot(), &AccuCopy::with_defaults());
        assert_eq!(outcome.strategy, "accu-copy");
        assert_eq!(truth.decision_precision(&outcome.decisions), Some(1.0));
    }

    #[test]
    fn decisions_sorted_matches_the_hash_map_in_order() {
        let (store, _) = fixtures::table1();
        let outcome = fuse(&store.snapshot(), &FusionStrategy::dependence_aware()).unwrap();
        let sorted = outcome.decisions_sorted();
        assert_eq!(sorted.len(), outcome.decisions.len());
        for (o, v) in &sorted {
            assert_eq!(outcome.decisions.get(o), Some(v));
        }
        let objects: Vec<_> = sorted.keys().copied().collect();
        assert!(objects.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fuse_warm_agrees_with_cold_fusion() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let strategy = AccuCopy::with_defaults();
        let cold = fuse_with(&snap, &strategy);
        // A warm-started fusion is `from_result` over `run_warm`.
        let fuse_warm =
            |prior| FusionOutcome::from_result(strategy.run_warm(&snap, prior), strategy.name());
        let warm = fuse_warm(Some(cold.result()));
        assert_eq!(warm.decisions, cold.decisions);
        assert!(warm.result().iterations < cold.result().iterations);
        assert_eq!(truth.decision_precision(&warm.decisions), Some(1.0));
        // No prior → exactly the cold driver.
        let none = fuse_warm(None);
        assert_eq!(none.result().iterations, cold.result().iterations);
    }

    #[test]
    fn outcome_serializes() {
        let (store, _) = fixtures::table1();
        let outcome = fuse(&store.snapshot(), &FusionStrategy::dependence_aware()).unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: FusionOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.decisions.len(), outcome.decisions.len());
        assert_eq!(back.strategy, "accu-copy");
    }
}
