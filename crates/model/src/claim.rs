//! Claims: the paper's 4-tuples `(identifier, value, time, probability)`.

use serde::{Deserialize, Serialize};

use crate::ids::{ObjectId, SourceId};
use crate::value::ValueId;

/// A point in (logical) time.
///
/// The model does not prescribe a unit; fixtures use years (Table 3), the
/// generators use abstract ticks. Sources lacking temporal information leave
/// claims untimed ([`Claim::time`] = `None`), matching the paper's remark
/// that time "may either be inferred from snapshots or be missing
/// altogether".
pub type Timestamp = i64;

/// One assertion by one source: "object `o` has value `v` (at time `t`, with
/// probability `p`)".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// The asserting source.
    pub source: SourceId,
    /// The data item the assertion is about.
    pub object: ObjectId,
    /// The asserted (interned) value.
    pub value: ValueId,
    /// When the assertion was made/observed; `None` when the source provides
    /// no temporal information.
    pub time: Option<Timestamp>,
    /// The source's confidence in the assertion. Sources that do not provide
    /// probabilities get the paper's default of `1.0`.
    pub probability: f64,
}

impl Claim {
    /// A plain snapshot claim: no time, probability 1.
    pub fn snapshot(source: SourceId, object: ObjectId, value: ValueId) -> Self {
        Self {
            source,
            object,
            value,
            time: None,
            probability: 1.0,
        }
    }

    /// A timestamped claim with probability 1.
    pub fn timed(source: SourceId, object: ObjectId, value: ValueId, time: Timestamp) -> Self {
        Self {
            source,
            object,
            value,
            time: Some(time),
            probability: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (SourceId, ObjectId, ValueId) {
        (SourceId(1), ObjectId(2), ValueId(3))
    }

    #[test]
    fn snapshot_defaults() {
        let (s, o, v) = ids();
        let c = Claim::snapshot(s, o, v);
        assert_eq!(c.time, None);
        assert_eq!(c.probability, 1.0);
    }

    #[test]
    fn timed_carries_timestamp() {
        let (s, o, v) = ids();
        let c = Claim::timed(s, o, v, 2007);
        assert_eq!(c.time, Some(2007));
    }

    #[test]
    fn serde_roundtrip() {
        let (s, o, v) = ids();
        let c = Claim {
            probability: 0.25,
            ..Claim::timed(s, o, v, -5)
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: Claim = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
