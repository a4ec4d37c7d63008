//! The per-source adjacency matrix and the vote body that the pair-keyed
//! [`DependenceMatrix`] and the per-source vote weights replaced, kept only
//! as a test oracle: each row sorted by target and probed by binary search,
//! and one `vote_weight` per supporter per object. The fast path must agree
//! with it bit for bit on `dep_on`, `dependent`, `len`, the serialized JSON
//! and every `weighted_vote` distribution.

use super::*;

/// The adjacency matrix, as it was.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjacencyMatrix {
    /// `adj[s]` = `(target source index, P(s depends on target))`, sorted
    /// by target. Rows past the last recorded source are simply absent.
    adj: Vec<Vec<(u32, f64)>>,
    entries: usize,
}

impl AdjacencyMatrix {
    pub(crate) fn from_pairs(pairs: &[PairDependence]) -> Self {
        let mut directed = Vec::with_capacity(pairs.len() * 2);
        for p in pairs {
            let p = p.clone().canonical();
            directed.push((p.a, p.b, p.probability * p.prob_a_on_b));
            directed.push((p.b, p.a, p.probability * (1.0 - p.prob_a_on_b)));
        }
        Self::from_directed(directed)
    }

    fn from_directed(directed: Vec<(SourceId, SourceId, f64)>) -> Self {
        let rows = directed
            .iter()
            .map(|&(s, _, _)| s.index() + 1)
            .max()
            .unwrap_or(0);
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for (s, t, p) in directed {
            adj[s.index()].push((t.0, p));
        }
        let mut entries = 0;
        for row in &mut adj {
            row.sort_by_key(|&(t, _)| t);
            let mut write = 0usize;
            for read in 0..row.len() {
                if write > 0 && row[write - 1].0 == row[read].0 {
                    row[write - 1] = row[read];
                } else {
                    row[write] = row[read];
                    write += 1;
                }
            }
            row.truncate(write);
            entries += row.len();
        }
        Self { adj, entries }
    }

    pub(crate) fn dep_on(&self, s: SourceId, t: SourceId) -> f64 {
        match self.adj.get(s.index()) {
            Some(row) => row
                .binary_search_by_key(&t.0, |&(target, _)| target)
                .map_or(0.0, |i| row[i].1),
            None => 0.0,
        }
    }

    pub(crate) fn dependent(&self, s: SourceId, t: SourceId) -> f64 {
        (self.dep_on(s, t) + self.dep_on(t, s)).min(1.0)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries
    }
}

impl Serialize for AdjacencyMatrix {
    fn serialize(&self) -> Content {
        let mut entries = Vec::with_capacity(self.entries);
        for (s, row) in self.adj.iter().enumerate() {
            for &(t, p) in row {
                entries.push((
                    Content::Seq(vec![Content::U64(s as u64), Content::U64(t as u64)]),
                    Content::F64(p),
                ));
            }
        }
        Content::Map(vec![(
            Content::Str("entries".to_string()),
            Content::Map(entries),
        )])
    }
}

impl Deserialize for AdjacencyMatrix {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        let entries = content
            .field("entries")
            .ok_or_else(|| SerdeError::msg("DependenceMatrix: missing field `entries`"))?;
        let entries = match entries {
            Content::Map(m) => m,
            other => {
                return Err(SerdeError::msg(format!(
                    "DependenceMatrix: entries must be a map, found {other:?}"
                )))
            }
        };
        let mut directed = Vec::with_capacity(entries.len());
        for (k, v) in entries {
            let reparsed;
            let key = match k {
                Content::Str(s) => {
                    reparsed = serde::json::parse(s)
                        .map_err(|e| SerdeError::msg(format!("DependenceMatrix key: {e}")))?;
                    &reparsed
                }
                other => other,
            };
            let (s, t) = <(u32, u32)>::deserialize(key)?;
            directed.push((SourceId(s), SourceId(t), f64::deserialize(v)?));
        }
        let rows = directed
            .iter()
            .map(|&(s, _, _)| s.index() + 1)
            .max()
            .unwrap_or(0);
        if !serde::plausible_id_space(rows, directed.len()) {
            return Err(SerdeError::msg(format!(
                "DependenceMatrix: source id space {rows} is implausibly \
                 large for {} entries",
                directed.len()
            )));
        }
        Ok(Self::from_directed(directed))
    }
}

/// The vote body, as it was: one `vote_weight` per supporter per object.
pub(crate) fn weighted_vote_reference(
    snapshot: &SnapshotView,
    accuracies: &[f64],
    deps: &AdjacencyMatrix,
    params: &DetectionParams,
) -> ValueProbabilities {
    let num_objects = snapshot.num_objects();
    let mut offsets = Vec::with_capacity(num_objects + 1);
    offsets.push(0u32);
    let mut arena: Vec<(ValueId, f64)> = Vec::with_capacity(snapshot.num_assertions());
    let mut grouped: Vec<(ValueId, SourceId)> = Vec::new();
    let mut ordered: Vec<SourceId> = Vec::new();
    let mut scores: Vec<(ValueId, f64)> = Vec::new();

    for idx in 0..num_objects {
        let object = ObjectId::from_index(idx);
        let assertions = snapshot.assertions_on(object);
        if assertions.is_empty() {
            offsets.push(arena.len() as u32);
            continue;
        }
        let n_false = effective_n_false(snapshot, object, params);

        grouped.clear();
        grouped.extend(assertions.iter().map(|&(s, v)| (v, s)));
        grouped.sort_unstable();

        scores.clear();
        let mut start = 0usize;
        while start < grouped.len() {
            let value = grouped[start].0;
            let mut end = start + 1;
            while end < grouped.len() && grouped[end].0 == value {
                end += 1;
            }
            ordered.clear();
            ordered.extend(grouped[start..end].iter().map(|&(_, s)| s));
            ordered.sort_by(|&x, &y| {
                let ax = accuracies.get(x.index()).copied().unwrap_or(0.5);
                let ay = accuracies.get(y.index()).copied().unwrap_or(0.5);
                ay.total_cmp(&ax).then(x.cmp(&y))
            });
            let mut score = 0.0;
            for (i, &s) in ordered.iter().enumerate() {
                let a = accuracies.get(s.index()).copied().unwrap_or(0.5);
                let mut independence = 1.0;
                for &prev in &ordered[..i] {
                    let dep = deps.dependent(s, prev);
                    independence *= if dep >= params.hard_damping_threshold {
                        0.0
                    } else {
                        1.0 - params.copy_rate * dep
                    };
                }
                score += independence * vote_weight(a, n_false, params);
            }
            scores.push((value, score));
            start = end;
        }

        let unobserved = (n_false + 1).saturating_sub(scores.len()) as f64;
        let max_score = scores
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let mut z = unobserved * (-max_score).exp();
        for &(_, s) in &scores {
            z += (s - max_score).exp();
        }
        let object_start = arena.len();
        arena.extend(scores.iter().map(|&(v, s)| (v, (s - max_score).exp() / z)));
        arena[object_start..].sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        offsets.push(arena.len() as u32);
    }
    ValueProbabilities { offsets, arena }
}
