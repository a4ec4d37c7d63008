//! Snapshot worlds: Table 1 at arbitrary scale.
//!
//! A world has `num_objects` data items, each with one true value and
//! `domain_size − 1` plausible false values. Sources follow a
//! [`SourceBehavior`]: honest-but-imperfect independents, or copiers that
//! replicate another source's assertions (possibly partially and with
//! copy-time mutations). The generator returns the observable
//! [`SnapshotView`] *and* the planted truth/dependences for scoring.

use rand::seq::SliceRandom;
use rand::Rng as _;
use serde::{Deserialize, Serialize};

use sailing_model::{GroundTruth, ObjectId, SailingError, SnapshotView, SourceId, ValueId};

/// How a synthetic source produces its values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceBehavior {
    /// Provides its own values: the true value with probability `accuracy`,
    /// otherwise a uniformly chosen false value. Covers `coverage` objects
    /// (chosen uniformly).
    Independent {
        /// Probability each covered object gets the true value.
        accuracy: f64,
        /// Number of objects covered.
        coverage: usize,
    },
    /// Copies from source `original` (an index into the behaviour list,
    /// which must be smaller than this source's own index).
    Copier {
        /// The copied source's index.
        original: usize,
        /// Fraction of the original's assertions that are copied.
        copy_fraction: f64,
        /// Probability a copied value is mutated to a random false value
        /// (the `S5` behaviour in Table 1).
        mutation_rate: f64,
        /// Accuracy of the copier's *own* assertions on objects it covers
        /// beyond the copied ones.
        own_accuracy: f64,
        /// Number of additional (non-copied) objects it covers on its own.
        own_coverage: usize,
    },
}

impl SourceBehavior {
    /// The copied source's index, for copiers.
    pub fn original(&self) -> Option<usize> {
        match self {
            SourceBehavior::Copier { original, .. } => Some(*original),
            SourceBehavior::Independent { .. } => None,
        }
    }
}

/// Configuration of a snapshot world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of data items.
    pub num_objects: usize,
    /// Values per object (1 true + `domain_size − 1` false).
    pub domain_size: usize,
    /// Source behaviours, in order; copiers must reference earlier indices.
    pub sources: Vec<SourceBehavior>,
    /// RNG seed.
    pub seed: u64,
}

impl WorldConfig {
    /// A convenient mixed world: `independents` honest sources with
    /// accuracies spread over `accuracy_range`, plus `copiers` sources each
    /// copying a random earlier independent in full.
    pub fn mixed(
        num_objects: usize,
        independents: usize,
        copiers: usize,
        accuracy_range: (f64, f64),
        seed: u64,
    ) -> Self {
        assert!(independents > 0);
        let mut sources = Vec::with_capacity(independents + copiers);
        for i in 0..independents {
            let t = if independents == 1 {
                0.5
            } else {
                i as f64 / (independents - 1) as f64
            };
            sources.push(SourceBehavior::Independent {
                accuracy: accuracy_range.0 + t * (accuracy_range.1 - accuracy_range.0),
                coverage: num_objects,
            });
        }
        for j in 0..copiers {
            sources.push(SourceBehavior::Copier {
                original: j % independents,
                copy_fraction: 1.0,
                mutation_rate: 0.02,
                own_accuracy: 0.5,
                own_coverage: 0,
            });
        }
        Self {
            num_objects,
            domain_size: 10,
            sources,
            seed,
        }
    }

    /// The scalability benchmark's *specialist* world: each source covers a
    /// random `coverage`-sized slice of `num_objects` objects, so most
    /// pairs share little (candidate pruning's best case, and the realistic
    /// one per Example 4.1's coverage skew). Every tenth source is a full
    /// copier of its predecessor, planting detectable dependences.
    pub fn specialist(num_sources: usize, num_objects: usize, coverage: usize, seed: u64) -> Self {
        let mut sources = Vec::with_capacity(num_sources);
        for i in 0..num_sources {
            if i % 10 == 9 {
                sources.push(SourceBehavior::Copier {
                    original: i - 1,
                    copy_fraction: 1.0,
                    mutation_rate: 0.02,
                    own_accuracy: 0.6,
                    own_coverage: 0,
                });
            } else {
                sources.push(SourceBehavior::Independent {
                    accuracy: 0.5 + 0.4 * ((i % 7) as f64 / 6.0),
                    coverage,
                });
            }
        }
        Self {
            num_objects,
            domain_size: 10,
            sources,
            seed,
        }
    }

    /// Checks structural validity (copier references, ranges).
    pub fn validate(&self) -> Result<(), SailingError> {
        let err = |reason: String| SailingError::config("WorldConfig", reason);
        if self.num_objects == 0 {
            return Err(err("num_objects must be positive".into()));
        }
        if self.domain_size < 2 {
            return Err(err("domain_size must be at least 2".into()));
        }
        for (i, s) in self.sources.iter().enumerate() {
            match s {
                SourceBehavior::Independent { accuracy, coverage } => {
                    if !(0.0..=1.0).contains(accuracy) {
                        return Err(err(format!(
                            "source {i}: accuracy {accuracy} outside [0,1]"
                        )));
                    }
                    if *coverage == 0 || *coverage > self.num_objects {
                        return Err(err(format!("source {i}: coverage {coverage} out of range")));
                    }
                }
                SourceBehavior::Copier {
                    original,
                    copy_fraction,
                    mutation_rate,
                    own_accuracy,
                    ..
                } => {
                    if *original >= i {
                        return Err(err(format!(
                            "source {i}: copier must reference an earlier source, got {original}"
                        )));
                    }
                    for (name, p) in [
                        ("copy_fraction", copy_fraction),
                        ("mutation_rate", mutation_rate),
                        ("own_accuracy", own_accuracy),
                    ] {
                        if !(0.0..=1.0).contains(p) {
                            return Err(err(format!("source {i}: {name} {p} outside [0,1]")));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A generated snapshot world.
#[derive(Debug, Clone)]
pub struct SnapshotWorld {
    /// The observable data.
    pub snapshot: SnapshotView,
    /// The planted truth.
    pub truth: GroundTruth,
    /// The behaviours that produced each source.
    pub behaviors: Vec<SourceBehavior>,
    /// The planted dependent pairs `(copier, original)`.
    pub planted_pairs: Vec<(SourceId, SourceId)>,
}

impl SnapshotWorld {
    /// Generates the world.
    ///
    /// # Panics
    /// Panics when the configuration is invalid ([`WorldConfig::validate`]).
    pub fn generate(config: &WorldConfig) -> Self {
        config.validate().expect("invalid world config");
        let mut rng = crate::rng(config.seed);
        let num_sources = config.sources.len();
        let num_objects = config.num_objects;

        // Value ids: object o's candidate values are
        // [o*domain .. o*domain+domain); index 0 is the true one.
        let value_of = |o: usize, k: usize| ValueId::from_index(o * config.domain_size + k);
        let truth = GroundTruth::from_pairs(
            (0..num_objects).map(|o| (ObjectId::from_index(o), value_of(o, 0))),
        );

        let mut assertions: Vec<Vec<(ObjectId, ValueId)>> = Vec::with_capacity(num_sources);
        let mut planted_pairs = Vec::new();
        let all_objects: Vec<usize> = (0..num_objects).collect();

        for (i, behavior) in config.sources.iter().enumerate() {
            match behavior {
                SourceBehavior::Independent { accuracy, coverage } => {
                    let mut objs = all_objects.clone();
                    objs.shuffle(&mut rng);
                    objs.truncate(*coverage);
                    let mut mine = Vec::with_capacity(*coverage);
                    for &o in &objs {
                        let k = if rng.gen::<f64>() < *accuracy {
                            0
                        } else {
                            rng.gen_range(1..config.domain_size)
                        };
                        mine.push((ObjectId::from_index(o), value_of(o, k)));
                    }
                    mine.sort_by_key(|&(o, _)| o);
                    assertions.push(mine);
                }
                SourceBehavior::Copier {
                    original,
                    copy_fraction,
                    mutation_rate,
                    own_accuracy,
                    own_coverage,
                } => {
                    planted_pairs.push((SourceId::from_index(i), SourceId::from_index(*original)));
                    let source_assertions = assertions[*original].clone();
                    let mut mine: Vec<(ObjectId, ValueId)> = Vec::new();
                    let mut covered = vec![false; num_objects];
                    for (o, v) in source_assertions {
                        if rng.gen::<f64>() >= *copy_fraction {
                            continue;
                        }
                        let v = if rng.gen::<f64>() < *mutation_rate {
                            value_of(o.index(), rng.gen_range(1..config.domain_size))
                        } else {
                            v
                        };
                        covered[o.index()] = true;
                        mine.push((o, v));
                    }
                    // Own (independent) additional coverage.
                    let mut free: Vec<usize> = (0..num_objects).filter(|&o| !covered[o]).collect();
                    free.shuffle(&mut rng);
                    free.truncate(*own_coverage);
                    for o in free {
                        let k = if rng.gen::<f64>() < *own_accuracy {
                            0
                        } else {
                            rng.gen_range(1..config.domain_size)
                        };
                        mine.push((ObjectId::from_index(o), value_of(o, k)));
                    }
                    mine.sort_by_key(|&(o, _)| o);
                    assertions.push(mine);
                }
            }
        }

        // Copiers of the same original are mutually dependent too (their
        // data is near-identical); count every within-cluster pair.
        let mut root = (0..num_sources).collect::<Vec<usize>>();
        for (i, b) in config.sources.iter().enumerate() {
            if let Some(orig) = b.original() {
                root[i] = root[orig];
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &r) in root.iter().enumerate() {
            groups.entry(r).or_default().push(i);
        }
        planted_pairs.clear();
        let mut group_keys: Vec<usize> = groups.keys().copied().collect();
        group_keys.sort_unstable();
        for k in group_keys {
            let members = &groups[&k];
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    planted_pairs.push((SourceId::from_index(a), SourceId::from_index(b)));
                }
            }
        }

        let triples = assertions.iter().enumerate().flat_map(|(s, items)| {
            items
                .iter()
                .map(move |&(o, v)| (SourceId::from_index(s), o, v))
        });
        let snapshot = SnapshotView::from_triples(num_sources, num_objects, triples);
        Self {
            snapshot,
            truth,
            behaviors: config.sources.clone(),
            planted_pairs,
        }
    }

    /// Scores a detected pair list against the planted pairs: returns
    /// `(precision, recall)` treating pairs as unordered.
    pub fn pair_detection_quality(&self, detected: &[(SourceId, SourceId)]) -> (f64, f64) {
        let canon = |&(a, b): &(SourceId, SourceId)| if a < b { (a, b) } else { (b, a) };
        let planted: std::collections::HashSet<_> = self.planted_pairs.iter().map(canon).collect();
        let detected: std::collections::HashSet<_> = detected.iter().map(canon).collect();
        let hits = detected.intersection(&planted).count();
        let precision = if detected.is_empty() {
            1.0
        } else {
            hits as f64 / detected.len() as f64
        };
        let recall = if planted.is_empty() {
            1.0
        } else {
            hits as f64 / planted.len() as f64
        };
        (precision, recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::AccuCopy;

    fn small_world(seed: u64) -> SnapshotWorld {
        SnapshotWorld::generate(&WorldConfig::mixed(100, 5, 3, (0.6, 0.95), seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = small_world(7);
        let w2 = small_world(7);
        for s in 0..w1.snapshot.num_sources() {
            let sid = SourceId::from_index(s);
            for o in 0..w1.snapshot.num_objects() {
                let oid = ObjectId::from_index(o);
                assert_eq!(w1.snapshot.value(sid, oid), w2.snapshot.value(sid, oid));
            }
        }
    }

    #[test]
    fn independent_accuracy_matches_spec() {
        let config = WorldConfig {
            num_objects: 2000,
            domain_size: 10,
            sources: vec![SourceBehavior::Independent {
                accuracy: 0.7,
                coverage: 2000,
            }],
            seed: 1,
        };
        let w = SnapshotWorld::generate(&config);
        let acc = w.truth.accuracy_of(&w.snapshot, SourceId(0)).unwrap();
        assert!((acc - 0.7).abs() < 0.05, "empirical accuracy {acc}");
    }

    #[test]
    fn copier_replicates_original() {
        let config = WorldConfig {
            num_objects: 500,
            domain_size: 10,
            sources: vec![
                SourceBehavior::Independent {
                    accuracy: 0.8,
                    coverage: 500,
                },
                SourceBehavior::Copier {
                    original: 0,
                    copy_fraction: 1.0,
                    mutation_rate: 0.0,
                    own_accuracy: 0.5,
                    own_coverage: 0,
                },
            ],
            seed: 3,
        };
        let w = SnapshotWorld::generate(&config);
        let same = w
            .snapshot
            .overlap(SourceId(0), SourceId(1))
            .filter(|&(_, a, b)| a == b)
            .count();
        assert_eq!(same, 500);
        assert_eq!(w.planted_pairs, vec![(SourceId(0), SourceId(1))]);
    }

    #[test]
    fn partial_copier_covers_both_kinds() {
        let config = WorldConfig {
            num_objects: 400,
            domain_size: 10,
            sources: vec![
                SourceBehavior::Independent {
                    accuracy: 0.9,
                    coverage: 200,
                },
                SourceBehavior::Copier {
                    original: 0,
                    copy_fraction: 0.5,
                    mutation_rate: 0.0,
                    own_accuracy: 0.7,
                    own_coverage: 100,
                },
            ],
            seed: 5,
        };
        let w = SnapshotWorld::generate(&config);
        let copier_cov = w.snapshot.coverage(SourceId(1));
        assert!(
            copier_cov > 120 && copier_cov <= 220,
            "coverage {copier_cov}"
        );
        // Some private, some shared.
        let shared = w.snapshot.overlap_size(SourceId(0), SourceId(1));
        assert!(shared > 50);
        assert!(copier_cov > shared - 50);
    }

    #[test]
    fn accu_copy_detects_planted_copiers_at_scale() {
        let w = small_world(11);
        let result = AccuCopy::with_defaults().run(&w.snapshot);
        let detected: Vec<_> = result
            .dependent_pairs(0.7)
            .iter()
            .map(|p| (p.a, p.b))
            .collect();
        let (precision, recall) = w.pair_detection_quality(&detected);
        assert!(
            precision > 0.7 && recall > 0.7,
            "precision {precision}, recall {recall}, detected {detected:?}, planted {:?}",
            w.planted_pairs
        );
    }

    #[test]
    fn fusion_beats_naive_with_copiers() {
        // Low-accuracy original with many copiers: naive voting follows the
        // cluster, dependence-aware fusion resists. Note the independents
        // must retain *some* collective signal — a copier coalition that
        // forms the plurality on every object with almost no independent
        // corroboration is information-theoretically unrecoverable (the
        // paper's Example 3.1 reasoning presumes truth is identifiable).
        let mut sources = vec![
            SourceBehavior::Independent {
                accuracy: 0.9,
                coverage: 150,
            },
            SourceBehavior::Independent {
                accuracy: 0.85,
                coverage: 150,
            },
            SourceBehavior::Independent {
                accuracy: 0.8,
                coverage: 150,
            },
            SourceBehavior::Independent {
                accuracy: 0.75,
                coverage: 150,
            },
            SourceBehavior::Independent {
                accuracy: 0.4,
                coverage: 150,
            },
        ];
        for _ in 0..4 {
            sources.push(SourceBehavior::Copier {
                original: 4,
                copy_fraction: 1.0,
                mutation_rate: 0.02,
                own_accuracy: 0.5,
                own_coverage: 0,
            });
        }
        let w = SnapshotWorld::generate(&WorldConfig {
            num_objects: 150,
            domain_size: 10,
            sources,
            seed: 13,
        });
        let naive = sailing_core::vote::naive_vote(&w.snapshot);
        let naive_precision = w.truth.decision_precision(&naive).unwrap();
        let aware = AccuCopy::with_defaults().run(&w.snapshot);
        let aware_precision = w.truth.decision_precision(&aware.decisions()).unwrap();
        assert!(
            aware_precision > naive_precision + 0.1,
            "aware {aware_precision} vs naive {naive_precision}"
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = WorldConfig::mixed(10, 2, 1, (0.5, 0.9), 0);
        c.num_objects = 0;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::mixed(10, 2, 1, (0.5, 0.9), 0);
        c.domain_size = 1;
        assert!(c.validate().is_err());

        let c = WorldConfig {
            num_objects: 10,
            domain_size: 5,
            sources: vec![SourceBehavior::Copier {
                original: 0,
                copy_fraction: 1.0,
                mutation_rate: 0.0,
                own_accuracy: 0.5,
                own_coverage: 0,
            }],
            seed: 0,
        };
        assert!(c.validate().is_err(), "copier cannot reference itself");

        let c = WorldConfig {
            num_objects: 10,
            domain_size: 5,
            sources: vec![SourceBehavior::Independent {
                accuracy: 1.5,
                coverage: 5,
            }],
            seed: 0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn pair_quality_scoring() {
        let w = small_world(17);
        let (p, r) = w.pair_detection_quality(&w.planted_pairs.clone());
        assert_eq!((p, r), (1.0, 1.0));
        let (p, r) = w.pair_detection_quality(&[]);
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.0);
        let bogus = vec![(SourceId(0), SourceId(1))];
        let (p, _) = w.pair_detection_quality(&bogus);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn behavior_helpers() {
        let c = SourceBehavior::Copier {
            original: 2,
            copy_fraction: 1.0,
            mutation_rate: 0.0,
            own_accuracy: 0.5,
            own_coverage: 0,
        };
        assert_eq!(c.original(), Some(2));
        let i = SourceBehavior::Independent {
            accuracy: 0.9,
            coverage: 10,
        };
        assert_eq!(i.original(), None);
    }
}
