//! The value domain.
//!
//! The paper deliberately does not constrain value domains: sources assert
//! atomic cell values ("UW"), numeric values, ordinal opinions ("Good"), or
//! whole tuples (author lists). [`Value`] covers those cases with a hashable,
//! totally ordered enum so values can be interned to [`ValueId`]s and
//! compared cheaply inside detection loops.

use std::fmt;

use serde::{Deserialize, Serialize};

pub use crate::ids::ValueId;

/// A value asserted by a source for a data item.
///
/// `Value` is `Eq + Hash + Ord` so it can be interned and used as a map key.
/// Real-valued measurements should be quantised by the caller (the paper's
/// settings — affiliations, author lists, ratings — are all discrete; see
/// [`Value::Rating`] for ordinal scales).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// An atomic textual value, e.g. an affiliation or a publisher name.
    Text(String),
    /// An integer value, e.g. a publication year.
    Int(i64),
    /// An ordinal rating on a small scale, e.g. 0 = Bad, 1 = Neutral, 2 = Good.
    Rating(u8),
    /// An ordered list value, e.g. an author list.
    List(Vec<Value>),
    /// An explicit "no value / withdrawn" marker, distinct from not covering
    /// the item at all (used for deletions in temporal traces).
    Absent,
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Convenience constructor for an author-list style value.
    pub fn list_of_texts<I, S>(items: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Value::List(items.into_iter().map(Value::text).collect())
    }

    /// Returns the inner text for `Text` values.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// `true` for the explicit [`Value::Absent`] marker.
    pub fn is_absent(&self) -> bool {
        matches!(self, Value::Absent)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Rating(r) => write!(f, "#{r}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Absent => write!(f, "⊥"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::text("UW").as_text(), Some("UW"));
        assert!(Value::Absent.is_absent());
        assert_eq!(Value::Int(1).as_text(), None);
    }

    #[test]
    fn list_of_texts_builds_nested_values() {
        let v = Value::list_of_texts(["Bloch", "Gafter"]);
        let Value::List(items) = v else {
            panic!("not a list: {v}")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].as_text(), Some("Bloch"));
    }

    #[test]
    fn values_hash_and_compare() {
        let mut set = HashSet::new();
        set.insert(Value::text("UW"));
        set.insert(Value::text("UW"));
        set.insert(Value::text("MSR"));
        set.insert(Value::Int(3));
        assert_eq!(set.len(), 3);
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Value::text("UW").to_string(), "UW");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Rating(1).to_string(), "#1");
        assert_eq!(Value::list_of_texts(["A", "B"]).to_string(), "[A, B]");
        assert_eq!(Value::Absent.to_string(), "⊥");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from("x".to_string()), Value::text("x"));
        assert_eq!(Value::from(9i64), Value::Int(9));
    }

    #[test]
    fn serde_roundtrip() {
        let v = Value::List(vec![Value::text("a"), Value::Int(1), Value::Rating(2)]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
