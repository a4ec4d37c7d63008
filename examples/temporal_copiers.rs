//! Temporal dependence: Table 3's lazy copier and slow-but-independent
//! provider, exactly and at scale.
//!
//! Run with `cargo run --example temporal_copiers`.

use sailing::core::params::TemporalParams;
use sailing::core::temporal::{consensus_truth, detect_all, gather_evidence, precedence_contrast};
use sailing::datagen::temporal::{table3_style, TemporalWorld};
use sailing::engine::SailingEngine;
use sailing::model::fixtures;
use sailing::model::TruthClass;
use sailing::recommend::Goal;

fn main() {
    // --- The paper's exact Table 3 ---
    let (store, history, truth) = fixtures::table3();
    println!("== Table 3: temporal researcher affiliations ==\n");
    for researcher in fixtures::RESEARCHERS {
        let o = store.object_id(researcher).unwrap();
        print!("{researcher:<12}");
        for s in ["S1", "S2", "S3"] {
            let sid = store.source_id(s).unwrap();
            let trace = history
                .trace(sid, o)
                .map(|t| {
                    t.updates()
                        .iter()
                        .map(|&(y, v)| format!("({y},{})", store.value(v).unwrap()))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            print!("{trace:<30}");
        }
        println!();
    }

    println!("\n== Example 3.2 inferences ==");
    let params = TemporalParams::default();
    let deps = detect_all(&history, &params);
    for dep in &deps {
        println!(
            "  {} ~ {}  p = {:.3}  lag ≈ {} yr",
            store.source_name(dep.a).unwrap(),
            store.source_name(dep.b).unwrap(),
            dep.probability,
            dep.diagnostic
        );
    }
    let s1 = store.source_id("S1").unwrap();
    let s3 = store.source_id("S3").unwrap();
    let ev = gather_evidence(&history, s1, s3, &params);
    println!(
        "  S3 repeats {} of its {} updates after S1, median lag {} yr → lazy copier",
        ev.matched_b_after_a,
        ev.updates_b,
        ev.median_lag_b_after_a().unwrap_or(0)
    );

    // Out-of-date vs false: S2's stale values are outdated-true.
    let s2 = store.source_id("S2").unwrap();
    println!("\n== S2's current values classified against the truth at 2007 ==");
    for researcher in fixtures::RESEARCHERS {
        let o = store.object_id(researcher).unwrap();
        if let Some(v) = history.value_at(s2, o, 2007) {
            let class = truth.classify(o, v, 2007);
            let label = match class {
                Some(TruthClass::CurrentTrue) => "current",
                Some(TruthClass::OutdatedTrue) => "outdated (not false!)",
                Some(TruthClass::False) => "false",
                None => "unknown",
            };
            println!("  {researcher:<12} {} → {label}", store.value(v).unwrap());
        }
    }

    // --- Scale: 100 objects, sweeping the copier's laziness ---
    println!("\n== Lazy-copier detection vs copying lag (100 objects) ==");
    println!("  {:<6} {:<12} {:<12}", "lag", "P(S1~S3)", "est. lag");
    for lag in [1i64, 2, 3, 4] {
        let (config, _) = table3_style(100, lag, 99);
        let world = TemporalWorld::generate(&config);
        let params = TemporalParams {
            max_lag: 5,
            ..Default::default()
        };
        let deps = detect_all(&world.history, &params);
        let pair = deps
            .iter()
            .find(|p| (p.a.0, p.b.0) == (0, 2))
            .expect("pair S1-S3 present");
        println!(
            "  {lag:<6} {:<12.3} {:<12}",
            pair.probability, pair.diagnostic
        );
    }

    // Direction via temporal intuition 3 on the generated world.
    let (config, _) = table3_style(100, 2, 5);
    let world = TemporalWorld::generate(&config);
    let consensus = consensus_truth(&world.history);
    if let Some((earlier, later)) = precedence_contrast(
        &world.history,
        sailing::model::SourceId(2),
        sailing::model::SourceId(0),
        &consensus,
    ) {
        println!(
            "\nCopier's accuracy on values it publishes earlier vs later than the original: {earlier:.2} vs {later:.2}"
        );
        println!("(accurate only in what it publishes second — the copying signature)");
    }

    // --- The timeline session: the whole history, epoch by epoch ---
    // One warm-started analysis per change point; decisions evolve as the
    // sources publish, and the update-trace dependence evidence is fused
    // into every epoch's report.
    let engine = SailingEngine::with_defaults();
    println!("\n== Timeline session over Table 3 (one analysis per epoch) ==");
    let mut session = engine.timeline(history.clone());
    println!(
        "  {} epochs at change points {:?}",
        session.num_epochs(),
        session.change_points()
    );
    let mut last_epoch = None;
    while let Some(epoch) = session.next_epoch() {
        // BTreeMap decisions → reproducible printing order.
        let decided: Vec<String> = epoch
            .analysis()
            .decisions()
            .iter()
            .map(|(&o, &v)| {
                format!(
                    "{}={}",
                    store.object_name(o).unwrap(),
                    store.value(v).unwrap()
                )
            })
            .collect();
        println!(
            "  {}  [{}{} iter] {}",
            epoch.timestamp(),
            if epoch.warm_started() {
                "warm, "
            } else {
                "cold, "
            },
            epoch.iterations(),
            decided.join(" ")
        );
        last_epoch = Some(epoch);
    }
    println!(
        "  total truth-discovery iterations (warm-started): {}",
        session.total_iterations()
    );
    if let Some(top) = last_epoch
        .map(|e| e.fused_dependences())
        .filter(|f| !f.is_empty())
    {
        println!(
            "  strongest fused dependence (snapshot ∪ traces): {} ~ {} p = {:.3}",
            store.source_name(top[0].a).unwrap(),
            store.source_name(top[0].b).unwrap(),
            top[0].probability
        );
    }
    println!("  engine cache after the walk: {:?}", engine.cache_stats());

    // --- Freshness-aware recommendation through the engine facade ---
    // Attaching the update history lets trust scoring see that S3 (the lazy
    // copier) publishes late, on top of its detected dependence on S1.
    let analysis = engine.analyze_with_history(history.latest_snapshot(), history);
    println!("\n== Freshness-aware trust (engine analysis of Table 3's snapshot) ==");
    for (i, score) in analysis.trust_scores().iter().enumerate() {
        println!(
            "  {}: freshness {:.2}, independence {:.2}",
            store
                .source_name(sailing::model::SourceId::from_index(i))
                .unwrap(),
            score.freshness,
            score.independence
        );
    }
    if let Some(rec) = analysis.recommend(Goal::TruthSeeking, 1).first() {
        println!(
            "  top truth-seeking recommendation: {} — {}",
            store.source_name(rec.source).unwrap(),
            rec.rationale
        );
    }
}
