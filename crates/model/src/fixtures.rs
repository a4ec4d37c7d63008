//! The paper's worked examples (Tables 1–3) as ready-made data sets.
//!
//! Every experiment that reproduces a table starts from these fixtures, so
//! their contents follow the paper verbatim.

use crate::history::History;
use crate::store::{ClaimStore, ClaimStoreBuilder};
use crate::value::Value;
use crate::world::{GroundTruth, TemporalTruth};

/// Source names used in Tables 1 and 3.
pub const AFFILIATION_SOURCES: [&str; 5] = ["S1", "S2", "S3", "S4", "S5"];
/// Researcher names used in Tables 1 and 3.
pub const RESEARCHERS: [&str; 5] = ["Suciu", "Halevy", "Balazinska", "Dalvi", "Dong"];
/// Reviewer names used in Table 2.
pub const REVIEWERS: [&str; 4] = ["R1", "R2", "R3", "R4"];
/// Movie names used in Table 2.
pub const MOVIES: [&str; 3] = ["The Pianist", "Into the Wild", "The Matrix"];

/// Rating levels used in Table 2.
pub mod rating {
    use crate::value::Value;

    /// "Bad".
    pub const BAD: Value = Value::Rating(0);
    /// "Neutral".
    pub const NEUTRAL: Value = Value::Rating(1);
    /// "Good".
    pub const GOOD: Value = Value::Rating(2);

    /// Renders a rating level the way the paper prints it.
    pub fn label(v: &Value) -> &'static str {
        match v {
            Value::Rating(0) => "Bad",
            Value::Rating(1) => "Neutral",
            Value::Rating(2) => "Good",
            _ => "?",
        }
    }
}

/// **Table 1**: the researcher-affiliation snapshot example.
///
/// Five sources provide affiliations for five researchers. Only `S1` provides
/// all true values; `S4` copies `S3` exactly and `S5` copies `S3` with one
/// change (Suciu → UWisc). Returns the claim store and the ground truth
/// (`S1`'s values).
pub fn table1() -> (ClaimStore, GroundTruth) {
    // Rows follow the paper's Table 1 exactly.
    let rows: [(&str, [&str; 5]); 5] = [
        ("Suciu", ["UW", "MSR", "UW", "UW", "UWisc"]),
        ("Halevy", ["Google", "Google", "UW", "UW", "UW"]),
        ("Balazinska", ["UW", "UW", "UW", "UW", "UW"]),
        ("Dalvi", ["Yahoo!", "Yahoo!", "UW", "UW", "UW"]),
        ("Dong", ["AT&T", "Google", "UW", "UW", "UW"]),
    ];
    let mut b = ClaimStoreBuilder::new();
    for source in AFFILIATION_SOURCES {
        b.source(source);
    }
    for (researcher, values) in rows {
        for (source, value) in AFFILIATION_SOURCES.iter().zip(values) {
            b.add(source, researcher, value);
        }
    }
    let store = b.build();

    // S1 provides the true affiliation of every researcher.
    let s1 = store.source_id("S1").expect("S1 interned");
    let snap = store.snapshot();
    let truth = GroundTruth::from_pairs(snap.assertions_of(s1));
    (store, truth)
}

/// **Table 1**, first three sources only — the paper's Example 2.1 first
/// considers `S1..S3` before introducing the copiers.
pub fn table1_independent_only() -> (ClaimStore, GroundTruth) {
    let (full, _) = table1();
    let mut b = ClaimStoreBuilder::new();
    for c in full.claims() {
        let sname = full.source_name(c.source).unwrap();
        if matches!(sname, "S1" | "S2" | "S3") {
            let oname = full.object_name(c.object).unwrap();
            let value = full.value(c.value).unwrap().clone();
            b.add(sname, oname, value);
        }
    }
    let store = b.build();
    let s1 = store.source_id("S1").unwrap();
    let snap = store.snapshot();
    let truth = GroundTruth::from_pairs(snap.assertions_of(s1));
    (store, truth)
}

/// **Table 2**: the movie-rating example.
///
/// Reviewers `R1`–`R3` rate independently; `R4` always provides the opposite
/// of `R1`'s rating (dissimilarity-dependence). There is no ground truth —
/// ratings are opinions.
pub fn table2() -> ClaimStore {
    use rating::{BAD, GOOD, NEUTRAL};
    let rows: [(&str, [Value; 4]); 3] = [
        ("The Pianist", [GOOD, NEUTRAL, BAD, BAD]),
        ("Into the Wild", [GOOD, BAD, GOOD, BAD]),
        ("The Matrix", [BAD, BAD, GOOD, GOOD]),
    ];
    let mut b = ClaimStoreBuilder::new();
    for reviewer in REVIEWERS {
        b.source(reviewer);
    }
    for (movie, ratings) in rows {
        for (reviewer, r) in REVIEWERS.iter().zip(ratings) {
            b.add(reviewer, movie, r);
        }
    }
    b.build()
}

/// **Table 3**: the temporal researcher-affiliation example.
///
/// `S1` provides up-to-date true values since 2002; `S2` is independent but
/// slow; `S3` copies `S1` lazily (≈ 1 year behind). Returns the claim store,
/// the derived [`History`], and the temporal ground truth (`S1`'s trace).
pub fn table3() -> (ClaimStore, History, TemporalTruth) {
    // (researcher, source, [(year, affiliation)...]) following Table 3.
    type Row = (&'static str, &'static str, &'static [(i64, &'static str)]);
    let entries: [Row; 15] = [
        ("Suciu", "S1", &[(2002, "UW"), (2006, "MSR"), (2007, "UW")]),
        ("Suciu", "S2", &[(2001, "UW"), (2006, "MSR")]),
        ("Suciu", "S3", &[(2003, "UW")]),
        ("Halevy", "S1", &[(2002, "UW"), (2006, "Google")]),
        ("Halevy", "S2", &[(2001, "UW"), (2006, "Google")]),
        ("Halevy", "S3", &[(2003, "UW")]),
        ("Balazinska", "S1", &[(2006, "UW")]),
        ("Balazinska", "S2", &[(2006, "UW")]),
        ("Balazinska", "S3", &[(2007, "UW")]),
        ("Dalvi", "S1", &[(2002, "UW"), (2007, "Yahoo!")]),
        ("Dalvi", "S2", &[(2007, "Yahoo!")]),
        ("Dalvi", "S3", &[(2003, "UW")]),
        (
            "Dong",
            "S1",
            &[(2002, "UW"), (2006, "Google"), (2007, "AT&T")],
        ),
        ("Dong", "S2", &[(2001, "UW"), (2006, "Google")]),
        ("Dong", "S3", &[(2003, "UW")]),
    ];
    let mut b = ClaimStoreBuilder::new();
    for source in ["S1", "S2", "S3"] {
        b.source(source);
    }
    for researcher in RESEARCHERS {
        b.object(researcher);
    }
    for (researcher, source, updates) in entries {
        for &(year, affiliation) in updates {
            b.add_timed(source, researcher, affiliation, year);
        }
    }
    let store = b.build();
    let history = History::from_store(&store);

    // S1's trace is the truth ("only S1 provides up-to-date true values
    // since 2002").
    let s1 = store.source_id("S1").unwrap();
    let mut truth = TemporalTruth::new();
    for (object, trace) in history.traces_of(s1) {
        for &(t, v) in trace.updates() {
            truth.record(object, t, v);
        }
    }
    (store, history, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::TruthClass;

    #[test]
    fn table1_shape() {
        let (store, truth) = table1();
        assert_eq!(store.num_sources(), 5);
        assert_eq!(store.num_objects(), 5);
        assert_eq!(store.num_claims(), 25);
        assert_eq!(truth.len(), 5);
    }

    #[test]
    fn table1_s1_is_perfect_and_s3_is_poor() {
        let (store, truth) = table1();
        let snap = store.snapshot();
        let s1 = store.source_id("S1").unwrap();
        let s3 = store.source_id("S3").unwrap();
        assert_eq!(truth.accuracy_of(&snap, s1), Some(1.0));
        // S3 is right only on Suciu(no: UW is true) and Balazinska → 2/5.
        assert_eq!(truth.accuracy_of(&snap, s3), Some(0.4));
    }

    #[test]
    fn table1_s4_copies_s3_exactly_s5_one_change() {
        let (store, _) = table1();
        let snap = store.snapshot();
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        let s5 = store.source_id("S5").unwrap();
        let same_34 = snap.overlap(s3, s4).filter(|&(_, a, b)| a == b).count();
        let same_35 = snap.overlap(s3, s5).filter(|&(_, a, b)| a == b).count();
        assert_eq!(same_34, 5);
        assert_eq!(same_35, 4);
    }

    #[test]
    fn table1_independent_subset() {
        let (store, truth) = table1_independent_only();
        assert_eq!(store.num_sources(), 3);
        assert_eq!(store.num_claims(), 15);
        assert_eq!(truth.len(), 5);
    }

    #[test]
    fn table2_shape_and_r4_inverts_r1() {
        let store = table2();
        assert_eq!(store.num_sources(), 4);
        assert_eq!(store.num_objects(), 3);
        let snap = store.snapshot();
        let r1 = store.source_id("R1").unwrap();
        let r4 = store.source_id("R4").unwrap();
        for (o, v1, v4) in snap.overlap(r1, r4) {
            let (Some(&Value::Rating(r1v)), Some(&Value::Rating(r4v))) =
                (store.value(v1), store.value(v4))
            else {
                panic!("Table 2 holds ratings only");
            };
            assert_eq!(
                r4v,
                2 - r1v,
                "R4 must invert R1 on {:?}",
                store.object_name(o)
            );
        }
    }

    #[test]
    fn rating_labels() {
        assert_eq!(rating::label(&rating::GOOD), "Good");
        assert_eq!(rating::label(&rating::NEUTRAL), "Neutral");
        assert_eq!(rating::label(&rating::BAD), "Bad");
        assert_eq!(rating::label(&Value::text("x")), "?");
    }

    #[test]
    fn table3_shape() {
        let (store, history, truth) = table3();
        assert_eq!(store.num_sources(), 3);
        assert_eq!(store.num_objects(), 5);
        assert_eq!(history.all_updates().count(), 24);
        assert_eq!(truth.len(), 5);
        assert_eq!(truth.horizon(), Some(2007));
    }

    #[test]
    fn table3_s2_values_are_outdated_not_false() {
        let (store, history, truth) = table3();
        let s2 = store.source_id("S2").unwrap();
        // At 2007, S2's latest value for Dong is Google — outdated-true.
        let dong = store.object_id("Dong").unwrap();
        let v = history.value_at(s2, dong, 2007).unwrap();
        assert_eq!(
            truth.classify(dong, v, 2007),
            Some(TruthClass::OutdatedTrue)
        );
        // And for Halevy it is Google — currently true.
        let halevy = store.object_id("Halevy").unwrap();
        let v = history.value_at(s2, halevy, 2007).unwrap();
        assert_eq!(
            truth.classify(halevy, v, 2007),
            Some(TruthClass::CurrentTrue)
        );
    }

    #[test]
    fn table3_s3_lags_s1() {
        let (store, history, _) = table3();
        let s1 = store.source_id("S1").unwrap();
        let s3 = store.source_id("S3").unwrap();
        // Every S3 update repeats an earlier S1 update with positive lag.
        let mut lags = Vec::new();
        for (o, trace) in history.traces_of(s3) {
            for &(t, v) in trace.updates() {
                let s1_first = history
                    .trace(s1, o)
                    .and_then(|tr| tr.first_asserted(v))
                    .expect("S3 copies S1 values");
                lags.push(t - s1_first);
            }
        }
        assert!(lags.iter().all(|&lag| lag >= 1));
    }
}
