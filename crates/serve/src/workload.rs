//! Deterministic mixed-query workload generation for benchmarks and load
//! tests.
//!
//! A [`Workload`] is a tiny seeded generator (SplitMix64 — no external
//! RNG dependency, reproducible across runs and platforms) producing a
//! stream of [`ServeQuery`] values. The mix is read-heavy the way a
//! serving tier is: mostly `top_k` point lookups, with occasional full
//! fusions, recommendations, and report scans. [`Workload::execute`] runs one query against a
//! [`ServeReader`] and returns a small fingerprint so closed-loop drivers
//! can keep the optimizer from discarding the work.

use sailing::model::ObjectId;
use sailing::query::OrderingPolicy;
use sailing::recommend::Goal;

use crate::handle::ServeReader;

/// One query against the serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeQuery {
    /// `top_k(object, k)` under [`OrderingPolicy::ByAccuracy`].
    TopK(ObjectId, usize),
    /// The full fusion outcome.
    Fuse,
    /// `recommend(goal, limit)`.
    Recommend(Goal, usize),
    /// The per-source report scan.
    SourceReports,
}

/// A deterministic stream of [`ServeQuery`] values.
#[derive(Debug, Clone)]
pub struct Workload {
    state: u64,
    num_objects: usize,
}

impl Workload {
    /// A workload over `num_objects` objects. Two workloads built from the
    /// same `seed` and `num_objects` produce identical query streams.
    ///
    /// # Panics
    /// Panics if `num_objects` is 0.
    pub fn new(seed: u64, num_objects: usize) -> Self {
        assert!(num_objects > 0, "workload needs at least one object");
        Self {
            // SplitMix64 recommends a non-trivial seed scramble; golden
            // gamma keeps seed 0 usable.
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
            num_objects,
        }
    }

    /// SplitMix64 step — the standard 64-bit mixer (public domain
    /// constants), plenty for endpoint/object selection.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next query in the stream: 10% each of `fuse`, `recommend` and
    /// `source_reports`, the other 70% `top_k`.
    pub fn next_query(&mut self) -> ServeQuery {
        // Cumulative percentile bounds of the read-heavy serving mix.
        const FUSE_END: u64 = 10;
        const RECOMMEND_END: u64 = 20;
        const REPORTS_END: u64 = 30;
        let roll = self.next_u64() % 100;
        let object_roll = self.next_u64();
        if roll < FUSE_END {
            ServeQuery::Fuse
        } else if roll < RECOMMEND_END {
            let goal = if object_roll.is_multiple_of(2) {
                Goal::TruthSeeking
            } else {
                Goal::DiversitySeeking
            };
            ServeQuery::Recommend(goal, 5)
        } else if roll < REPORTS_END {
            ServeQuery::SourceReports
        } else {
            let object = ObjectId::from_index((object_roll % self.num_objects as u64) as usize);
            ServeQuery::TopK(object, 3)
        }
    }

    /// Runs `query` against `reader`, returning a small fingerprint
    /// (result sizes) a closed-loop driver can accumulate so the work is
    /// observably used.
    pub fn execute(reader: &mut ServeReader, query: &ServeQuery) -> usize {
        match query {
            ServeQuery::TopK(object, k) => {
                let top = reader.top_k(*object, *k, &OrderingPolicy::ByAccuracy);
                top.top.len() + top.probed
            }
            ServeQuery::Fuse => reader.fuse().decisions_sorted().len(),
            ServeQuery::Recommend(goal, limit) => reader.recommend(*goal, *limit).len(),
            ServeQuery::SourceReports => reader.source_reports().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_respect_the_mix() {
        let mut a = Workload::new(42, 16);
        let mut b = Workload::new(42, 16);
        let queries: Vec<ServeQuery> = (0..2000).map(|_| a.next_query()).collect();
        let again: Vec<ServeQuery> = (0..2000).map(|_| b.next_query()).collect();
        assert_eq!(queries, again);

        let count = |f: fn(&ServeQuery) -> bool| queries.iter().filter(|q| f(q)).count();
        let topk = count(|q| matches!(q, ServeQuery::TopK(..)));
        let fuse = count(|q| matches!(q, ServeQuery::Fuse));
        let recommend = count(|q| matches!(q, ServeQuery::Recommend(..)));
        let reports = count(|q| matches!(q, ServeQuery::SourceReports));
        assert_eq!(topk + fuse + recommend + reports, 2000);
        // The default mix is 70/10/10/10; allow generous slack for a
        // 2000-sample draw.
        assert!((1200..=1600).contains(&topk), "topk = {topk}");
        for (name, n) in [
            ("fuse", fuse),
            ("recommend", recommend),
            ("reports", reports),
        ] {
            assert!((100..=320).contains(&n), "{name} = {n}");
        }
        // Objects stay in range.
        for q in &queries {
            if let ServeQuery::TopK(object, _) = q {
                assert!(object.index() < 16);
            }
        }
    }

    /// Pins the query stream: an FNV-1a fold over the first 100k queries
    /// of `Workload::new(7, 400)`. A change to the generator or the
    /// endpoint mix changes what perfbench's `serve_ingest` reader runs,
    /// and fails here.
    #[test]
    fn the_default_stream_is_pinned() {
        let mut workload = Workload::new(7, 400);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..100_000 {
            let words = match workload.next_query() {
                ServeQuery::TopK(object, k) => [0, object.index() as u64, k as u64],
                ServeQuery::Fuse => [1, 0, 0],
                ServeQuery::Recommend(goal, limit) => {
                    [2, u64::from(goal == Goal::TruthSeeking), limit as u64]
                }
                ServeQuery::SourceReports => [3, 0, 0],
            };
            for word in words {
                hash = (hash ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x67f0_5b71_5a94_38dd);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Workload::new(1, 8);
        let mut b = Workload::new(2, 8);
        let qa: Vec<ServeQuery> = (0..64).map(|_| a.next_query()).collect();
        let qb: Vec<ServeQuery> = (0..64).map(|_| b.next_query()).collect();
        assert_ne!(qa, qb);
    }
}
