//! Naive voting — the baseline that source dependence defeats.
//!
//! "Simply using the information that is asserted by the largest number of
//! data sources is clearly inadequate" (Section 1): Table 1 shows naive
//! voting picking the copied false affiliations. This module implements that
//! baseline so experiments can demonstrate exactly that failure.

use std::collections::HashMap;

use sailing_model::{ObjectId, SnapshotView, ValueId};

/// Picks, for every covered object, the value asserted by the most sources.
///
/// Ties break toward the smallest [`ValueId`] so results are deterministic;
/// the paper's Example 2.1 notes that under a genuine three-way tie
/// ("remain unsure of the affiliation of Dong") any choice is arbitrary.
pub fn naive_vote(snapshot: &SnapshotView) -> HashMap<ObjectId, ValueId> {
    let mut decisions = HashMap::new();
    for idx in 0..snapshot.num_objects() {
        let object = ObjectId::from_index(idx);
        if let Some((value, _)) = snapshot.value_counts(object).into_iter().next() {
            decisions.insert(object, value);
        }
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_model::fixtures;
    use sailing_model::Value;

    #[test]
    fn naive_vote_on_table1_follows_the_copiers() {
        // Example 2.1: with S4, S5 copying S3, naive voting selects S3's
        // values and is wrong on Halevy, Dalvi and Dong.
        let (store, truth) = fixtures::table1();
        let decisions = naive_vote(&store.snapshot());
        let uw = store.value_id(&Value::text("UW")).unwrap();
        for name in ["Halevy", "Dalvi", "Dong"] {
            let o = store.object_id(name).unwrap();
            assert_eq!(decisions[&o], uw, "naive vote should pick UW for {name}");
            assert!(!truth.is_true(o, decisions[&o]));
        }
        // Correct only on Suciu and Balazinska (2 of 5).
        let precision = truth.decision_precision(&decisions).unwrap();
        assert!((precision - 0.4).abs() < 1e-12);
    }

    #[test]
    fn naive_vote_on_independent_subset_gets_four_of_five() {
        // Example 2.1 first half: with S1..S3 only, naive voting finds the
        // correct affiliation for the first four researchers and a three-way
        // tie for Dong.
        let (store, truth) = fixtures::table1_independent_only();
        let decisions = naive_vote(&store.snapshot());
        for name in ["Suciu", "Halevy", "Balazinska", "Dalvi"] {
            let o = store.object_id(name).unwrap();
            assert!(truth.is_true(o, decisions[&o]), "{name} should be correct");
        }
        let dong = store.object_id("Dong").unwrap();
        assert_eq!(store.snapshot().distinct_values(dong), 3);
    }

    #[test]
    fn naive_distribution_sums_to_one() {
        // The naive vote shares are `truth::naive_probabilities`.
        let (store, _) = fixtures::table1();
        let dist = crate::truth::naive_probabilities(&store.snapshot());
        assert_eq!(dist.len(), 5);
        for o in dist.objects() {
            let shares = dist.distribution(o);
            let total: f64 = shares.iter().map(|&(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(shares.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn conflicted_objects_on_table1() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let conflicts: Vec<ObjectId> = (0..snap.num_objects())
            .map(ObjectId::from_index)
            .filter(|&o| snap.distinct_values(o) > 1)
            .collect();
        // Balazinska is unanimous (UW everywhere); the other four conflict.
        assert_eq!(conflicts.len(), 4);
        let bal = store.object_id("Balazinska").unwrap();
        assert!(!conflicts.contains(&bal));
    }

    #[test]
    fn empty_snapshot() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        assert!(naive_vote(&snap).is_empty());
    }
}
