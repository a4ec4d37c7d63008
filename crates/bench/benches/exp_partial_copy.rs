//! E10 — partial copying (Section 3.1's *Partial dependence* challenge):
//! detection quality vs copied fraction, and the overlap-property test's
//! contribution to direction.

use sailing_bench::{banner, f1, header, pair_quality, row};
use sailing_core::partial::overlap_contrast;
use sailing_core::truth::naive_probabilities;
use sailing_core::AccuCopy;
use sailing_datagen::world::{SnapshotWorld, SourceBehavior, WorldConfig};
use sailing_model::SourceId;

fn world(copy_fraction: f64, seed: u64) -> SnapshotWorld {
    let mut sources = Vec::new();
    // Independents cover 150 of the 200 objects each, so partial copiers
    // keep genuinely private items (the overlap-property test needs both a
    // shared and a private subset to contrast).
    for i in 0..6 {
        sources.push(SourceBehavior::Independent {
            accuracy: 0.35 + 0.11 * i as f64,
            coverage: 150,
        });
    }
    // Two partial copiers of the weakest source, with their own coverage.
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
}

/// The direction column (`ok/resolved/all` over the copier–original pairs
/// flagged across the three seeds) per copied fraction, as the
/// overlap-property hint and the likelihood posterior resolve it today. A
/// change to either direction signal shows up here first.
const EXPECTED_DIRECTIONS: [(f64, &str); 5] = [
    (0.1, "-"),
    (0.25, "2/5/6"),
    (0.5, "4/4/6"),
    (0.75, "6/6/6"),
    (1.0, "0/0/6"),
];

fn main() {
    banner("E10", "Partial-copy detection vs copied fraction");
    header(&["copied frac", "precision", "recall", "F1", "dir ok/res/all"]);
    let mut directions = Vec::new();
    for &(fraction, _) in &EXPECTED_DIRECTIONS {
        let mut precision = 0.0;
        let mut recall = 0.0;
        let mut dir_ok = 0usize;
        let mut dir_resolved = 0usize;
        let mut dir_total = 0usize;
        const SEEDS: u64 = 3;
        for seed in 0..SEEDS {
            let w = world(fraction, 500 + seed);
            let result = AccuCopy::with_defaults().run(&w.snapshot);
            let flagged: Vec<_> = result
                .dependent_pairs(0.7)
                .iter()
                .map(|p| (p.a, p.b))
                .collect();
            let (p, r) = pair_quality(&flagged, &w.planted_pairs);
            precision += p;
            recall += r;
            // Direction: the copier (ids 6, 7) should be the dependent side
            // of any flagged pair with the original (id 0).
            for dep in result.dependent_pairs(0.7) {
                let copier_pair = (dep.a.index() == 0 && dep.b.index() >= 6)
                    || (dep.b.index() == 0 && dep.a.index() >= 6);
                if copier_pair {
                    dir_total += 1;
                    if let Some(d) = dep.dependent_source() {
                        dir_resolved += 1;
                        if d.index() >= 6 {
                            dir_ok += 1;
                        }
                    }
                }
            }
        }
        let direction = if dir_total == 0 {
            "-".to_string()
        } else {
            format!("{dir_ok}/{dir_resolved}/{dir_total}")
        };
        println!(
            "{}",
            row(&[
                format!("{fraction:.2}"),
                format!("{:.2}", precision / SEEDS as f64),
                format!("{:.2}", recall / SEEDS as f64),
                format!("{:.2}", f1(precision / SEEDS as f64, recall / SEEDS as f64)),
                direction.clone(),
            ])
        );
        directions.push((fraction, direction));
    }
    for ((fraction, got), (_, expected)) in directions.iter().zip(EXPECTED_DIRECTIONS) {
        assert_eq!(
            got, expected,
            "E10 direction column changed at copied fraction {fraction}"
        );
    }

    // The overlap-property signal itself (intuition 2).
    println!("\nOverlap-vs-private accuracy contrast of one partial copier (frac 0.5):");
    let w = world(0.5, 512);
    let probs = naive_probabilities(&w.snapshot);
    header(&["subject", "overlap acc", "private acc", "z"]);
    for (name, subject, other) in [
        ("copier vs orig", SourceId(6), SourceId(0)),
        ("honest vs honest", SourceId(3), SourceId(4)),
    ] {
        if let Some(c) = overlap_contrast(&w.snapshot, subject, other, &probs) {
            println!(
                "{}",
                row(&[
                    name.to_string(),
                    format!("{:.2}", c.overlap_accuracy),
                    format!("{:.2}", c.private_accuracy),
                    format!("{:+.1}", c.z_score),
                ])
            );
        }
    }
    println!("\nPaper expectation (shape): detection degrades gracefully as the");
    println!("copied fraction shrinks; the overlap-property contrast separates the");
    println!("partial copier (large |z|) from honest pairs (small |z|).");
}
