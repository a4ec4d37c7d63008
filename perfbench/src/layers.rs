//! Per-layer figures derived from a traced run's spans.
//!
//! Each traced operation is a root span. Its first child is the real call
//! the untraced run times (e.g. `engine.analyze_owned`); a later child
//! named `replay` repeats the same work through the lower layers' public
//! functions, one span per call. The share of the real call's wall time
//! that the replayed layer calls do not cover is the operation's
//! *unaccounted* share. A root span named [`SIDE_OP`] marks a side
//! operation whose spans only feed span medians: it stays out of the
//! layer self times and the unaccounted share.

use std::collections::BTreeSet;

use crate::stats::median;
use crate::trace::{covered, self_times, Span, SETUP_OP};
use crate::{Outcome, LAYERS};

/// Root span name of a traced side operation.
pub const SIDE_OP: &str = "side_op";

/// Median duration of the spans named `name`, in milliseconds.
pub fn median_ms(spans: &[Span], name: &str) -> Option<f64> {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    (!durations.is_empty()).then(|| median(&durations))
}

/// Records the median duration of `name` spans as `metric`, scaled from
/// milliseconds by `scale` (1 for ms, 1000 for µs).
pub fn put_median(outcome: &mut Outcome, metric: &'static str, name: &str, scale: f64) {
    if let Some(ms) = median_ms(&outcome.spans, name) {
        outcome.metric(metric, ms * scale);
    }
}

/// Adds the span-derived metrics every workload shares — self time per
/// layer per operation and the unaccounted share — and a per-layer table
/// to the notes.
pub fn derive(outcome: &mut Outcome) {
    let spans = &outcome.spans;
    let selfs = self_times(spans);
    let side: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == SIDE_OP)
        .map(|s| s.op)
        .collect();
    let counted = |s: &Span| s.op != SETUP_OP && !side.contains(&s.op);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && counted(&spans[i]))
        .collect();
    let ops = roots.len().max(1) as f64;

    let mut table = Vec::new();
    let mut metrics = Vec::new();
    for &(layer, metric) in LAYERS {
        let (calls, self_ns) = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| counted(s) && s.layer() == layer)
            .fold((0u64, 0u64), |(c, t), (_, &ns)| (c + 1, t + ns));
        let per_op_ms = self_ns as f64 / 1e6 / ops;
        table.push(format!(
            "layer {layer:<10} calls {calls:>9}  self {:>12.3} ms  per op {per_op_ms:>10.4} ms",
            self_ns as f64 / 1e6
        ));
        metrics.push((metric, per_op_ms));
    }

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let shares: Vec<f64> = roots
        .iter()
        .filter_map(|&root| {
            let kids = &children[root];
            let real = spans[*kids.first()?];
            let replay = kids.iter().find(|&&k| spans[k].name == "replay")?;
            let intervals: Vec<(u64, u64)> = children[*replay]
                .iter()
                .map(|&k| (spans[k].start, spans[k].end))
                .collect();
            let replayed = covered(&intervals, 0, u64::MAX) as f64;
            let real_ns = real.duration().max(1) as f64;
            Some(((real_ns - replayed) / real_ns).max(0.0))
        })
        .collect();
    if !shares.is_empty() {
        metrics.push(("trace.unaccounted_share", median(&shares)));
        table.push(format!(
            "unaccounted share of the real call (median over {} replayed ops): {:.4}",
            shares.len(),
            median(&shares)
        ));
    }
    for (name, value) in metrics {
        outcome.metric(name, value);
    }
    outcome.notes.extend(table);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn unaccounted_share_compares_replay_to_the_real_call() {
        let mut outcome = Outcome {
            spans: vec![
                span("op", None, 0, 1_000),
                span("engine.analyze_owned", Some(0), 0, 400),
                span("replay", Some(0), 400, 1_000),
                span("core.truth.vote", Some(2), 400, 600),
                span("core.accuracy.estimate", Some(2), 650, 750),
                Span {
                    op: 2,
                    ..span(SIDE_OP, None, 1_000, 3_000)
                },
                Span {
                    op: 2,
                    ..span("core.shard.merge", Some(5), 1_000, 2_000)
                },
            ],
            ..Outcome::default()
        };
        derive(&mut outcome);
        let get = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(get("trace.unaccounted_share"), Some(0.25));
        // 400 ns engine + 300 ns core self time over one operation.
        assert_eq!(get("engine.self_ms"), Some(400e-6));
        assert_eq!(get("core.self_ms"), Some(300e-6));
        assert_eq!(get("persist.self_ms"), Some(0.0));
        assert_eq!(median_ms(&outcome.spans, "core.truth.vote"), Some(200e-6));
        // The side operation feeds span medians only.
        assert_eq!(median_ms(&outcome.spans, "core.shard.merge"), Some(1e-3));
    }
}
