//! The fused direction hint against its reference form, bit for bit.
//!
//! Batched detection (`detect_all_with_pairs`) computes each pair's
//! overlap-property direction hint inside the same merge that accumulates
//! the copy likelihoods. The reference is the per-pair composition the
//! pipeline used to run as a separate pass: `posterior` on the pair's
//! likelihoods, then an equal-weight blend with `partial::direction_hint`
//! and the direction rule re-applied. Every candidate pair must agree on
//! `probability`, `prob_a_on_b` and `direction` bits, at 1 and 3 threads,
//! and `detect_pair` must give the batched row exactly.

use sailing::core::copy::{detect_pair, pair_likelihoods, posterior};
use sailing::core::pairs::{candidate_pairs, detect_all_with_pairs};
use sailing::core::partial::direction_hint;
use sailing::core::report::{Direction, PairDependence};
use sailing::core::truth::{naive_probabilities, ValueProbabilities};
use sailing::core::{AccuCopy, DetectionParams};
use sailing::datagen::world::{SnapshotWorld, SourceBehavior, WorldConfig};
use sailing::model::{fixtures, SnapshotView};

/// Which branch of `direction_hint` each reference row took.
#[derive(Debug, Default)]
struct Branches {
    contrast: usize,
    contained_a: usize,
    contained_b: usize,
    none: usize,
}

fn reference_row(
    snapshot: &SnapshotView,
    (a, b): (sailing::model::SourceId, sailing::model::SourceId),
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
    branches: &mut Branches,
) -> Option<PairDependence> {
    let lik = pair_likelihoods(snapshot, a, b, probs, accuracies, params);
    if lik.overlap < params.min_overlap {
        return None;
    }
    let mut dep = posterior(a, b, &lik, params);
    match direction_hint(snapshot, dep.a, dep.b, probs) {
        Some(hint) => {
            if hint == 0.8 {
                branches.contained_a += 1;
            } else if hint == 0.2 {
                branches.contained_b += 1;
            } else {
                branches.contrast += 1;
            }
            dep.prob_a_on_b = 0.5 * dep.prob_a_on_b + 0.5 * hint;
            dep.direction = if dep.probability < 0.5 || (dep.prob_a_on_b - 0.5).abs() < 0.1 {
                Direction::Unknown
            } else if dep.prob_a_on_b > 0.5 {
                Direction::AOnB
            } else {
                Direction::BOnA
            };
        }
        None => branches.none += 1,
    }
    Some(dep)
}

fn assert_same(what: &str, x: &PairDependence, y: &PairDependence) {
    assert_eq!((x.a, x.b), (y.a, y.b), "{what}");
    assert_eq!(
        x.probability.to_bits(),
        y.probability.to_bits(),
        "{what}: probability"
    );
    assert_eq!(
        x.prob_a_on_b.to_bits(),
        y.prob_a_on_b.to_bits(),
        "{what}: prob_a_on_b of {:?}-{:?}",
        x.a,
        x.b
    );
    assert_eq!(
        x.direction, y.direction,
        "{what}: direction of {:?}-{:?}",
        x.a, x.b
    );
    assert_eq!(x.overlap, y.overlap, "{what}: overlap");
    assert_eq!(
        x.diagnostic.to_bits(),
        y.diagnostic.to_bits(),
        "{what}: diagnostic"
    );
}

/// Checks every candidate pair of `snapshot` in three iteration states:
/// the cold start, three iterations in, and the converged fixpoint.
fn check_world(name: &str, snapshot: &SnapshotView) -> Branches {
    let params = DetectionParams::default();
    let early = AccuCopy::new(DetectionParams {
        max_iterations: 3,
        ..params
    })
    .unwrap()
    .run(snapshot);
    let converged = AccuCopy::new(params.clone()).unwrap().run(snapshot);
    let cold_accuracies = vec![params.initial_accuracy; snapshot.num_sources()];
    let states = [
        ("cold", naive_probabilities(snapshot), cold_accuracies),
        ("3 iterations", early.probabilities, early.accuracies),
        ("converged", converged.probabilities, converged.accuracies),
    ];
    let pairs = candidate_pairs(snapshot, params.min_overlap);
    assert!(!pairs.is_empty(), "{name}: the world has candidate pairs");
    let mut branches = Branches::default();
    for (state, probs, accuracies) in &states {
        let reference: Vec<PairDependence> = pairs
            .iter()
            .filter_map(|&(a, b, _)| {
                reference_row(snapshot, (a, b), probs, accuracies, &params, &mut branches)
            })
            .collect();
        for threads in [1, 3] {
            let what = format!("{name}, {state}, {threads} threads");
            let params = DetectionParams {
                threads,
                ..params.clone()
            };
            let rows = detect_all_with_pairs(snapshot, &pairs, probs, accuracies, &params);
            assert_eq!(rows.len(), reference.len(), "{what}: row count");
            for (row, expected) in rows.iter().zip(&reference) {
                assert_same(&what, row, expected);
                let single = detect_pair(snapshot, row.a, row.b, probs, accuracies, &params)
                    .expect("a batched row passed the overlap gate");
                assert_same(&format!("{what}, detect_pair"), &single, row);
                // Asked the other way round, the pair is detected in that
                // orientation and canonicalised, the hint after it.
                let mut unused = Branches::default();
                let (b, a) = (row.a, row.b);
                let flipped = detect_pair(snapshot, a, b, probs, accuracies, &params);
                let expected =
                    reference_row(snapshot, (a, b), probs, accuracies, &params, &mut unused);
                assert_same(
                    &format!("{what}, detect_pair reversed"),
                    &flipped.unwrap(),
                    &expected.unwrap(),
                );
            }
        }
    }
    branches
}

/// `exp_partial_copy`'s world: six independents covering 150 of 200
/// objects and two partial copiers of the weakest, each with 60 items of
/// its own, so copier pairs have both shared and private subsets.
fn partial_copy_world(copy_fraction: f64, seed: u64) -> SnapshotView {
    let mut sources: Vec<SourceBehavior> = (0..6)
        .map(|i| SourceBehavior::Independent {
            accuracy: 0.35 + 0.11 * i as f64,
            coverage: 150,
        })
        .collect();
    for _ in 0..2 {
        sources.push(SourceBehavior::Copier {
            original: 0,
            copy_fraction,
            mutation_rate: 0.02,
            own_accuracy: 0.7,
            own_coverage: 60,
        });
    }
    SnapshotWorld::generate(&WorldConfig {
        num_objects: 200,
        domain_size: 10,
        sources,
        seed,
    })
    .snapshot
}

#[test]
fn table1_hints_match_the_reference() {
    check_world("table 1", &fixtures::table1().0.snapshot());
}

#[test]
fn partial_copier_hints_match_the_reference() {
    let mut contrast = 0;
    for fraction in [0.25, 0.5] {
        let world = partial_copy_world(fraction, 500);
        contrast += check_world(&format!("partial copy {fraction}"), &world).contrast;
    }
    assert!(
        contrast > 0,
        "the shared-vs-private contrast branch was exercised"
    );
}

#[test]
fn containment_hints_match_the_reference() {
    // `mixed` with full copiers: every independent covers all 200 objects
    // and each copier copies its original in full. Independent 0 is cut
    // to 120 objects, so it sits inside every later independent (the
    // contained side is `a`: hint 0.8) and its copier sits inside every
    // independent but its original (the contained side is `b`: 0.2).
    let mut config = WorldConfig::mixed(200, 12, 4, (0.3, 0.9), 3);
    if let SourceBehavior::Independent { coverage, .. } = &mut config.sources[0] {
        *coverage = 120;
    }
    let branches = check_world("mixed", &SnapshotWorld::generate(&config).snapshot);
    assert!(branches.contained_a > 0, "0.8 branch hit: {branches:?}");
    assert!(branches.contained_b > 0, "0.2 branch hit: {branches:?}");
    assert!(branches.none > 0, "no-contrast branch hit: {branches:?}");
}

#[test]
fn specialist_hints_match_the_reference() {
    for seed in 0..4 {
        let world = SnapshotWorld::generate(&WorldConfig::specialist(100, 400, 40, seed));
        check_world(&format!("specialist seed {seed}"), &world.snapshot);
    }
}
