//! Quickstart: the paper's Table 1 end to end through the `SailingEngine`.
//!
//! Reproduces Example 2.1 / 3.1: naive voting is defeated by the copiers
//! `S4`, `S5` of `S3`; the engine's dependence-aware analysis detects the
//! copy cluster, discounts it, and recovers every researcher's true
//! affiliation — then the same cached analysis answers queries online and
//! recommends sources.
//!
//! Run with `cargo run --example quickstart`.

use sailing::core::vote::naive_vote;
use sailing::engine::SailingEngine;
use sailing::model::fixtures;
use sailing::query::OrderingPolicy;
use sailing::recommend::Goal;

fn main() -> Result<(), sailing::SailingError> {
    let (store, truth) = fixtures::table1();
    let snapshot = store.snapshot();

    println!("== Table 1: researcher affiliations from five sources ==\n");
    print!("{:<12}", "");
    for s in fixtures::AFFILIATION_SOURCES {
        print!("{s:<8}");
    }
    println!("truth");
    for researcher in fixtures::RESEARCHERS {
        let o = store.object_id(researcher).unwrap();
        print!("{researcher:<12}");
        for s in fixtures::AFFILIATION_SOURCES {
            let sid = store.source_id(s).unwrap();
            let v = snapshot.value(sid, o).unwrap();
            print!("{:<8}", store.value(v).unwrap().to_string());
        }
        println!("{}", store.value(truth.value(o).unwrap()).unwrap());
    }

    println!("\n== Naive voting ==");
    let naive = naive_vote(&snapshot);
    for researcher in fixtures::RESEARCHERS {
        let o = store.object_id(researcher).unwrap();
        let v = naive[&o];
        let ok = if truth.is_true(o, v) { "✓" } else { "✗" };
        println!(
            "  {researcher:<12} → {:<8} {ok}",
            store.value(v).unwrap().to_string()
        );
    }
    println!(
        "  precision: {:.0}%",
        truth.decision_precision(&naive).unwrap() * 100.0
    );

    // One engine, one analysis; everything below derives from it. The
    // analysis is an owned, shareable handle (`analyze_owned` skips even
    // the snapshot clone; re-analyses are cache hits).
    let engine = SailingEngine::builder().build()?;
    let analysis = engine.analyze_owned(std::sync::Arc::new(snapshot));

    println!(
        "\n== Dependence-aware analysis ({}) ==",
        analysis.strategy_name()
    );
    let decisions = analysis.decisions();
    for researcher in fixtures::RESEARCHERS {
        let o = store.object_id(researcher).unwrap();
        let v = decisions[&o];
        let ok = if truth.is_true(o, v) { "✓" } else { "✗" };
        println!(
            "  {researcher:<12} → {:<8} {ok}",
            store.value(v).unwrap().to_string()
        );
    }
    println!(
        "  precision: {:.0}%  ({} iterations)",
        truth.decision_precision(&decisions).unwrap() * 100.0,
        analysis.result().iterations
    );

    println!("\n== Detected dependences (posterior ≥ 0.5) ==");
    for dep in analysis.dependent_pairs(0.5) {
        println!(
            "  {} ~ {}  p = {:.3}  (overlap {})",
            store.source_name(dep.a).unwrap(),
            store.source_name(dep.b).unwrap(),
            dep.probability,
            dep.overlap
        );
    }

    println!("\n== Source reports ==");
    for report in analysis.source_reports() {
        println!(
            "  {}: accuracy {:.2}, copier probability {:.2}",
            store.source_name(report.source).unwrap(),
            report.accuracy,
            report.copier_probability
        );
    }

    println!("\n== Online answering: greedy-independent probes ==");
    let order = analysis.visit_order(&OrderingPolicy::GreedyIndependent);
    let mut session = analysis.online_session();
    for step in session.run_order(&order) {
        println!(
            "  after probing {:<3} ({} sources): precision {:.0}%",
            store.source_name(step.source).unwrap(),
            step.probed,
            truth.decision_precision(&step.decisions).unwrap() * 100.0
        );
    }

    println!("\n== Truth-seeking recommendations ==");
    for rec in analysis.recommend(Goal::TruthSeeking, 2) {
        println!(
            "  {} (score {:.2}) — {}",
            store.source_name(rec.source).unwrap(),
            rec.score,
            rec.rationale
        );
    }

    // Asking again is free: the engine caches analyses by snapshot content.
    let again = engine.analyze_owned(analysis.snapshot_arc());
    assert!(std::ptr::eq(analysis.result(), again.result()));
    println!("\n== Analysis cache ==\n  {:?}", engine.cache_stats());

    // Serving tier: wrap the engine in a ServeHandle to answer the same
    // queries from many threads — readers revalidate the published
    // analysis with one atomic load per request, and every endpoint is
    // timed (see `cargo run --example serve_loadgen` for the full loop).
    let handle = sailing_serve::ServeHandle::new(engine, analysis.snapshot_arc());
    let answers: Vec<_> = std::thread::scope(|scope| {
        (0..2)
            .map(|_| {
                let mut reader = handle.reader();
                let dong = store.object_id("Dong").unwrap();
                scope.spawn(move || reader.top_k(dong, 1, &OrderingPolicy::ByAccuracy).top)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(answers[0], answers[1]);
    let metrics = handle.metrics();
    println!(
        "\n== Serving tier ==\n  top_k requests: {}, p99: {:.1} us (epoch generation {})",
        metrics.endpoint(sailing_serve::Endpoint::TopK).requests,
        metrics.endpoint(sailing_serve::Endpoint::TopK).p99_us,
        handle.generation()
    );

    // Degraded-mode observability: `handle.admit(...)` refuses to
    // publish an analysis the discovery watchdog ended without
    // convergence — readers keep the last good epoch and health flips to
    // Degraded until an admission converges again. One poll reads both the
    // health and the persist tier's resilience counters.
    match handle.health() {
        sailing_serve::Health::Healthy => {
            println!("  health: healthy — serving the freshest epoch");
        }
        sailing_serve::Health::Degraded { reason, .. } => {
            println!("  health: DEGRADED — serving stale ({reason})");
        }
    }
    assert!(metrics.healthy);
    let persist = metrics.cache.persist.unwrap_or_default();
    println!(
        "  disk retries: {}, breaker: {}",
        persist.retries,
        persist.breaker.as_str()
    );
    Ok(())
}
