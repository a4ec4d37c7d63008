//! String similarity metrics.
//!
//! All similarities are in `[0, 1]` with 1 meaning identical. They operate on
//! `char`s, so multi-byte text is handled correctly (author names are not
//! ASCII-only: "Berti-Équille").

/// Levenshtein edit distance (insertions, deletions, substitutions).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter(|&(_, &used)| used)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(&matches_b)
        .filter(|&(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix (up to 4 chars),
/// the standard choice for person names.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    const PREFIX_SCALE: f64 = 0.1;
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * PREFIX_SCALE * (1.0 - j)
}

/// Jaccard similarity over whitespace-separated tokens.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let ta: std::collections::HashSet<&str> = a.split_whitespace().collect();
    let tb: std::collections::HashSet<&str> = b.split_whitespace().collect();
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count();
    let union = ta.union(&tb).count();
    inter as f64 / union as f64
}

/// Dice-style similarity over character n-grams (default bigram when `n = 2`).
pub fn ngram_similarity(a: &str, b: &str, n: usize) -> f64 {
    assert!(n > 0, "n-gram size must be positive");
    let grams = |s: &str| -> Vec<String> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() < n {
            if chars.is_empty() {
                Vec::new()
            } else {
                vec![chars.iter().collect()]
            }
        } else {
            chars.windows(n).map(|w| w.iter().collect()).collect()
        }
    };
    let ga = grams(a);
    let gb = grams(b);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let mut counts: std::collections::HashMap<&str, isize> = std::collections::HashMap::new();
    for g in &ga {
        *counts.entry(g.as_str()).or_insert(0) += 1;
    }
    let mut shared = 0usize;
    for g in &gb {
        if let Some(c) = counts.get_mut(g.as_str()) {
            if *c > 0 {
                *c -= 1;
                shared += 1;
            }
        }
    }
    2.0 * shared as f64 / (ga.len() + gb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("Équille", "Equille"), 1);
        assert_eq!(levenshtein("Dong", "Đong"), 1);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961_111).abs() < 1e-5);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-2);
        assert!(jaro_winkler("Dong", "Dong") == 1.0);
        // Prefix boost: names sharing a prefix score above plain Jaro.
        assert!(jaro_winkler("Ullman", "Ullmann") > jaro("Ullman", "Ullmann"));
    }

    #[test]
    fn jaccard_tokens_basics() {
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("a b c", "a b c"), 1.0);
        assert_eq!(jaccard_tokens("a b", "c d"), 0.0);
        assert!((jaccard_tokens("joshua bloch", "bloch joshua") - 1.0).abs() < 1e-12);
        assert!((jaccard_tokens("a b c", "b c d") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ngram_similarity_basics() {
        assert_eq!(ngram_similarity("", "", 2), 1.0);
        assert_eq!(ngram_similarity("ab", "", 2), 0.0);
        assert_eq!(ngram_similarity("night", "night", 2), 1.0);
        let s = ngram_similarity("night", "nacht", 2);
        assert!(s > 0.0 && s < 0.5);
        // Short strings fall back to whole-string grams.
        assert_eq!(ngram_similarity("a", "a", 2), 1.0);
        assert_eq!(ngram_similarity("a", "b", 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "n-gram size")]
    fn ngram_zero_panics() {
        ngram_similarity("a", "b", 0);
    }

    #[test]
    fn metrics_are_symmetric() {
        let pairs = [
            ("Jeffrey Ullman", "Jefrey Ullmann"),
            ("AT&T Labs-Research", "AT&T Research"),
            ("Effective Java", "Efective Java"),
        ];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
            assert!((jaro_winkler(a, b) - jaro_winkler(b, a)).abs() < 1e-12);
            assert!((jaccard_tokens(a, b) - jaccard_tokens(b, a)).abs() < 1e-12);
            assert!((ngram_similarity(a, b, 2) - ngram_similarity(b, a, 2)).abs() < 1e-12);
        }
    }
}
