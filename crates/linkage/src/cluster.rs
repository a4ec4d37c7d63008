//! Clustering of alternative representations.
//!
//! When multiple sources spell one value differently, dependence detection
//! and fusion should treat the spellings as one value. [`cluster_values`]
//! groups values whose pairwise similarity crosses a threshold, using a
//! [`UnionFind`] over all candidate pairs.

/// A classic disjoint-set (union-find) structure with path compression and
/// union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Materialises the clusters, each sorted, ordered by smallest member.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort_by_key(|c| c[0]);
        out
    }
}

/// Groups `values` into clusters of alternative representations: two values
/// join the same cluster when `similarity(a, b) >= threshold`.
///
/// `O(n²)` comparisons; intended for per-object value sets (a handful of
/// spellings), not whole corpora.
pub fn cluster_values<T, F>(values: &[T], threshold: f64, similarity: F) -> Vec<Vec<usize>>
where
    F: Fn(&T, &T) -> f64,
{
    let mut uf = UnionFind::new(values.len());
    for i in 0..values.len() {
        for j in (i + 1)..values.len() {
            if similarity(&values[i], &values[j]) >= threshold {
                uf.union(i, j);
            }
        }
    }
    uf.clusters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::jaro_winkler;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        let clusters = uf.clusters();
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn union_find_path_compression_is_consistent() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
        assert_eq!(uf.clusters().len(), 1);
    }

    #[test]
    fn cluster_spelling_variants() {
        let values = [
            "AT&T Labs-Research",
            "AT&T Labs Research",
            "at&t labs research",
            "Rutgers University",
            "Rutgers Univ.",
            "Stanford",
        ];
        let clusters = cluster_values(&values, 0.9, |a, b| {
            jaro_winkler(&crate::normalize(a), &crate::normalize(b))
        });
        // AT&T variants together, Rutgers variants together, Stanford alone.
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4]);
        assert_eq!(clusters[2], vec![5]);
    }

    #[test]
    fn cluster_threshold_one_keeps_distinct() {
        let values = ["a", "b", "c"];
        let clusters = cluster_values(&values, 1.0, |a, b| if a == b { 1.0 } else { 0.0 });
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn cluster_transitive_merge() {
        // a~b and b~c but a!~c: single-link clustering merges all three.
        let sim = |a: &&str, b: &&str| match (*a, *b) {
            ("a", "b") | ("b", "a") | ("b", "c") | ("c", "b") => 0.95,
            _ if a == b => 1.0,
            _ => 0.0,
        };
        let values = ["a", "b", "c"];
        let clusters = cluster_values(&values, 0.9, sim);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        let values: [&str; 0] = [];
        assert!(cluster_values(&values, 0.5, |_, _| 1.0).is_empty());
        let mut uf = UnionFind::new(0);
        assert!(uf.clusters().is_empty());
        assert!(uf.is_empty());
    }
}
