//! Result types shared by the detectors.

use serde::{Deserialize, Serialize};

use sailing_model::SourceId;

/// Which flavour of dependence a detector found (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DependenceKind {
    /// One source copies (a subset of) another's values.
    Similarity,
    /// One source deliberately contradicts another's values.
    Dissimilarity,
}

/// The inferred direction of a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// `a` depends on `b` (e.g. `a` copies from `b`).
    AOnB,
    /// `b` depends on `a`.
    BOnA,
    /// The evidence does not favour either direction.
    Unknown,
}

impl Direction {
    /// Flips the direction (for swapping the pair orientation).
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Direction::AOnB => Direction::BOnA,
            Direction::BOnA => Direction::AOnB,
            Direction::Unknown => Direction::Unknown,
        }
    }
}

/// Detected dependence between one unordered pair of sources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairDependence {
    /// First source of the pair (lower id).
    pub a: SourceId,
    /// Second source of the pair (higher id).
    pub b: SourceId,
    /// Posterior probability that the pair is dependent at all.
    pub probability: f64,
    /// Posterior probability of `a` depending on `b`, given dependence.
    pub prob_a_on_b: f64,
    /// Which kind of dependence was detected.
    pub kind: DependenceKind,
    /// The favoured direction.
    pub direction: Direction,
    /// Number of shared objects the decision is based on.
    pub overlap: usize,
    /// Detector-specific diagnostic (e.g. estimated copying lag for temporal
    /// detection, log-likelihood ratio for snapshot detection).
    pub diagnostic: f64,
}

impl PairDependence {
    /// Canonicalises the orientation so `a < b`, flipping direction-sensitive
    /// fields as needed.
    #[must_use]
    pub fn canonical(mut self) -> Self {
        if self.a > self.b {
            std::mem::swap(&mut self.a, &mut self.b);
            self.prob_a_on_b = 1.0 - self.prob_a_on_b;
            self.direction = self.direction.flipped();
        }
        self
    }

    /// The source this dependence says is the *dependent* one, if the
    /// direction is resolved.
    pub fn dependent_source(&self) -> Option<SourceId> {
        match self.direction {
            Direction::AOnB => Some(self.a),
            Direction::BOnA => Some(self.b),
            Direction::Unknown => None,
        }
    }

    /// `true` when the posterior crosses `threshold`.
    pub fn is_dependent(&self, threshold: f64) -> bool {
        self.probability >= threshold
    }
}

/// Per-source summary produced by the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceReport {
    /// The source.
    pub source: SourceId,
    /// Estimated accuracy after convergence.
    pub accuracy: f64,
    /// Number of objects the source covers.
    pub coverage: usize,
    /// Probability that the source is a copier of *someone*
    /// (max over its pairwise dependence posteriors where it is the
    /// dependent side).
    pub copier_probability: f64,
    /// Mean probability that this source's individual votes were provided
    /// independently (1.0 for a source with no detected dependence).
    pub mean_independence: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pd(a: u32, b: u32) -> PairDependence {
        PairDependence {
            a: SourceId(a),
            b: SourceId(b),
            probability: 0.9,
            prob_a_on_b: 0.8,
            kind: DependenceKind::Similarity,
            direction: Direction::AOnB,
            overlap: 5,
            diagnostic: 1.5,
        }
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::AOnB.flipped(), Direction::BOnA);
        assert_eq!(Direction::BOnA.flipped(), Direction::AOnB);
        assert_eq!(Direction::Unknown.flipped(), Direction::Unknown);
    }

    #[test]
    fn canonical_orders_and_flips() {
        let p = pd(3, 1).canonical();
        assert_eq!(p.a, SourceId(1));
        assert_eq!(p.b, SourceId(3));
        assert!((p.prob_a_on_b - 0.2).abs() < 1e-12);
        assert_eq!(p.direction, Direction::BOnA);

        let q = pd(1, 3).canonical();
        assert_eq!(q.a, SourceId(1));
        assert_eq!(q.direction, Direction::AOnB);
    }

    #[test]
    fn dependent_and_original() {
        let p = pd(1, 3);
        assert_eq!(p.dependent_source(), Some(SourceId(1)));
        let mut q = p.clone();
        q.direction = Direction::Unknown;
        assert_eq!(q.dependent_source(), None);
    }

    #[test]
    fn threshold_check() {
        let p = pd(1, 2);
        assert!(p.is_dependent(0.5));
        assert!(p.is_dependent(0.9));
        assert!(!p.is_dependent(0.95));
    }

    #[test]
    fn serde_roundtrip() {
        let p = pd(1, 2);
        let back: PairDependence =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, back);
    }
}
