//! Source-visit orderings.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sailing_core::truth::DependenceMatrix;
use sailing_model::{SnapshotView, SourceId};

/// How to order source visits during online answering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OrderingPolicy {
    /// Uniform random order (the no-information baseline).
    Random(
        /// RNG seed.
        u64,
    ),
    /// Largest coverage first.
    ByCoverage,
    /// Highest estimated accuracy first.
    ByAccuracy,
    /// Greedy marginal gain: each step picks the source with the best
    /// `accuracy × coverage × independence-from-already-probed` score —
    /// the paper's "avoid going to sources dependent on ... the ones
    /// already visited".
    GreedyIndependent,
}

impl OrderingPolicy {
    /// Display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingPolicy::Random(_) => "random",
            OrderingPolicy::ByCoverage => "coverage",
            OrderingPolicy::ByAccuracy => "accuracy",
            OrderingPolicy::GreedyIndependent => "greedy-independent",
        }
    }
}

/// A visit order together with each source's position in it, built once
/// from [`order_sources`]' output. A query over one object sorts the few
/// sources covering it by [`VisitOrder::rank`] instead of walking every
/// source in the order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitOrder {
    sources: Vec<SourceId>,
    /// `rank[s]` is the position of source `s`; `usize::MAX` marks a
    /// source the order leaves out.
    rank: Vec<usize>,
}

impl VisitOrder {
    /// Indexes `sources` (usually a permutation of every source) by
    /// position.
    ///
    /// # Panics
    /// Panics if a source appears twice.
    pub fn new(sources: Vec<SourceId>) -> Self {
        let len = sources.iter().map(|s| s.index() + 1).max().unwrap_or(0);
        let mut rank = vec![usize::MAX; len];
        for (position, s) in sources.iter().enumerate() {
            assert_eq!(
                rank[s.index()],
                usize::MAX,
                "source {s:?} appears twice in a visit order"
            );
            rank[s.index()] = position;
        }
        Self { sources, rank }
    }

    /// The sources in visit order.
    pub fn sources(&self) -> &[SourceId] {
        &self.sources
    }

    /// The sources in visit order, by value.
    pub fn into_sources(self) -> Vec<SourceId> {
        self.sources
    }

    /// The position of `source` in the order, if the order visits it.
    #[inline]
    pub fn rank(&self, source: SourceId) -> Option<usize> {
        self.rank
            .get(source.index())
            .copied()
            .filter(|&r| r != usize::MAX)
    }
}

/// Produces the complete visit order for a policy.
///
/// `accuracies` and `deps` typically come from a prior (or incremental)
/// run of the detection pipeline; passing uniform accuracies and an empty
/// matrix degrades gracefully.
pub fn order_sources(
    snapshot: &SnapshotView,
    accuracies: &[f64],
    deps: &DependenceMatrix,
    policy: &OrderingPolicy,
) -> Vec<SourceId> {
    let n = snapshot.num_sources();
    let all: Vec<SourceId> = (0..n).map(SourceId::from_index).collect();
    match policy {
        OrderingPolicy::Random(seed) => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
            let mut order = all;
            order.shuffle(&mut rng);
            order
        }
        OrderingPolicy::ByCoverage => {
            let mut order = all;
            order.sort_by_key(|&s| (std::cmp::Reverse(snapshot.coverage(s)), s));
            order
        }
        OrderingPolicy::ByAccuracy => {
            let mut order = all;
            order.sort_by(|&x, &y| {
                let ax = accuracies.get(x.index()).copied().unwrap_or(0.5);
                let ay = accuracies.get(y.index()).copied().unwrap_or(0.5);
                ay.total_cmp(&ax).then(x.cmp(&y))
            });
            order
        }
        OrderingPolicy::GreedyIndependent => {
            let mut remaining: Vec<SourceId> = all;
            let mut chosen: Vec<SourceId> = Vec::with_capacity(n);
            while !remaining.is_empty() {
                let (best_idx, _) = remaining
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let acc = accuracies.get(s.index()).copied().unwrap_or(0.5);
                        let cov = snapshot.coverage(s) as f64;
                        let independence: f64 =
                            chosen.iter().map(|&p| 1.0 - deps.dependent(s, p)).product();
                        (i, acc * cov.max(1.0) * independence)
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                    .expect("remaining non-empty");
                chosen.push(remaining.remove(best_idx));
            }
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::report::{DependenceKind, Direction, PairDependence};
    use sailing_model::fixtures;

    fn setup() -> (SnapshotView, Vec<f64>) {
        let (store, _) = fixtures::table1();
        (store.snapshot(), vec![0.95, 0.7, 0.4, 0.4, 0.4])
    }

    #[test]
    fn policies_are_permutations() {
        let (snap, accs) = setup();
        for policy in [
            OrderingPolicy::Random(7),
            OrderingPolicy::ByCoverage,
            OrderingPolicy::ByAccuracy,
            OrderingPolicy::GreedyIndependent,
        ] {
            let order = order_sources(&snap, &accs, &DependenceMatrix::new(), &policy);
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(
                sorted,
                (0..5).map(SourceId::from_index).collect::<Vec<_>>(),
                "{} must be a permutation",
                policy.name()
            );
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (snap, accs) = setup();
        let a = order_sources(
            &snap,
            &accs,
            &DependenceMatrix::new(),
            &OrderingPolicy::Random(3),
        );
        let b = order_sources(
            &snap,
            &accs,
            &DependenceMatrix::new(),
            &OrderingPolicy::Random(3),
        );
        let c = order_sources(
            &snap,
            &accs,
            &DependenceMatrix::new(),
            &OrderingPolicy::Random(4),
        );
        assert_eq!(a, b);
        assert!(a != c || a.len() <= 1);
    }

    #[test]
    fn by_accuracy_puts_best_first() {
        let (snap, accs) = setup();
        let order = order_sources(
            &snap,
            &accs,
            &DependenceMatrix::new(),
            &OrderingPolicy::ByAccuracy,
        );
        assert_eq!(order[0], SourceId(0));
        assert_eq!(order[1], SourceId(1));
    }

    #[test]
    fn greedy_defers_dependent_sources() {
        let (snap, _) = setup();
        // S3, S4, S5 mutually dependent; accuracies equal, coverage equal.
        let mk = |a: u32, b: u32| PairDependence {
            a: SourceId(a),
            b: SourceId(b),
            probability: 0.95,
            prob_a_on_b: 0.5,
            kind: DependenceKind::Similarity,
            direction: Direction::Unknown,
            overlap: 5,
            diagnostic: 0.0,
        };
        let deps = DependenceMatrix::from_pairs(&[mk(2, 3), mk(2, 4), mk(3, 4)]);
        let accs = vec![0.8; 5];
        let order = order_sources(&snap, &accs, &deps, &OrderingPolicy::GreedyIndependent);
        // After one cluster member is probed, the other two must sink to the
        // end, behind the two independents.
        let first_cluster = order
            .iter()
            .position(|s| s.index() >= 2)
            .expect("cluster member present");
        let independents_done = order.iter().take(3).filter(|s| s.index() < 2).count();
        assert_eq!(
            independents_done, 2,
            "both independents within first three probes: {order:?} (first cluster at {first_cluster})"
        );
        assert!(order[3].index() >= 2 && order[4].index() >= 2);
    }

    #[test]
    fn by_coverage_orders_by_size() {
        let mut b = sailing_model::ClaimStoreBuilder::new();
        b.add("big", "o1", "v")
            .add("big", "o2", "v")
            .add("big", "o3", "v");
        b.add("small", "o1", "v");
        let store = b.build();
        let snap = store.snapshot();
        let order = order_sources(
            &snap,
            &[0.5, 0.5],
            &DependenceMatrix::new(),
            &OrderingPolicy::ByCoverage,
        );
        assert_eq!(order[0], store.source_id("big").unwrap());
    }

    #[test]
    fn names() {
        assert_eq!(OrderingPolicy::Random(0).name(), "random");
        assert_eq!(OrderingPolicy::ByCoverage.name(), "coverage");
        assert_eq!(OrderingPolicy::ByAccuracy.name(), "accuracy");
        assert_eq!(
            OrderingPolicy::GreedyIndependent.name(),
            "greedy-independent"
        );
    }
}
