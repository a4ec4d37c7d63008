//! Clustering of alternative representations.
//!
//! When multiple sources spell one value differently, dependence detection
//! and fusion should treat the spellings as one value. [`cluster_values`]
//! groups values whose pairwise similarity crosses a threshold, using the
//! model's [`UnionFind`] over all candidate pairs.

use sailing_model::equivalence::UnionFind;

/// Groups `values` into clusters of alternative representations: two values
/// join the same cluster when `similarity(a, b) >= threshold`. Each cluster
/// is sorted, and clusters are ordered by their smallest member.
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
                uf.union(i as u32, j as u32);
            }
        }
    }
    // Roots are smallest members, so a value that is its own root opens
    // the next cluster and every later member lands in it in id order.
    let mut slot = vec![0; values.len()];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for x in 0..values.len() {
        let root = uf.find(x as u32) as usize;
        if root == x {
            slot[x] = clusters.len();
            clusters.push(Vec::new());
        }
        clusters[slot[root]].push(x);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::jaro_winkler;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(1, 2);
        uf.union(2, 0);
        assert_eq!(uf.find(2), 0, "the smallest member is the root");
        assert_eq!(uf.find(1), uf.find(0));
        assert_ne!(uf.find(0), uf.find(3));
        let clusters = cluster_values(&[0, 1, 1, 3, 4], 1.0, |a, b| f64::from(u8::from(a == b)));
        assert_eq!(clusters, vec![vec![0], vec![1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn union_find_path_compression_is_consistent() {
        let mut uf = UnionFind::new(100);
        for i in (0..99).rev() {
            uf.union(i + 1, i);
        }
        for i in 0..100 {
            assert_eq!(uf.find(i), 0);
        }
        let chain: Vec<u32> = (0..100).collect();
        let clusters = cluster_values(
            &chain,
            0.5,
            |a, b| if a.abs_diff(*b) == 1 { 1.0 } else { 0.0 },
        );
        assert_eq!(
            clusters,
            vec![chain.iter().map(|&i| i as usize).collect::<Vec<_>>()]
        );
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
    }
}
