//! Author-list parsing and matching.
//!
//! Example 4.1's listings carry author lists that are "formatted in various
//! ways; there are misspellings, missing authors, misordered authors, and
//! wrong authors". This module parses raw author-list strings into
//! structured [`AuthorName`]s and scores whether two lists plausibly denote
//! the same set of people.

use serde::{Deserialize, Serialize};

use crate::metrics::jaro_winkler;
use crate::normalize::normalize;

/// One parsed author: normalised given-name tokens and surname.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuthorName {
    /// Given names / initials, normalised, in order.
    pub given: Vec<String>,
    /// Family name, normalised.
    pub surname: String,
}

impl AuthorName {
    /// Parses a single name. Supports `"Last, First Middle"` and
    /// `"First Middle Last"`.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        if let Some((last, first)) = raw.split_once(',') {
            let surname = normalize(last);
            let given: Vec<String> = normalize(first)
                .split_whitespace()
                .map(str::to_string)
                .collect();
            if surname.is_empty() {
                return None;
            }
            return Some(Self { given, surname });
        }
        let norm = normalize(raw);
        let mut tokens: Vec<String> = norm.split_whitespace().map(str::to_string).collect();
        let surname = tokens.pop()?;
        Some(Self {
            given: tokens,
            surname,
        })
    }

    /// `true` when the two names are compatible: surnames match (exactly or
    /// within a small edit tolerance) and given names are compatible as full
    /// names or initials.
    pub fn matches(&self, other: &Self) -> bool {
        if !surname_match(&self.surname, &other.surname) {
            return false;
        }
        given_compatible(&self.given, &other.given)
    }

    /// Similarity in `[0, 1]` combining surname and given-name evidence.
    pub fn similarity(&self, other: &Self) -> f64 {
        let s = jaro_winkler(&self.surname, &other.surname);
        let g = if self.given.is_empty() || other.given.is_empty() {
            0.8 // unknown given names neither confirm nor deny
        } else if given_compatible(&self.given, &other.given) {
            1.0
        } else {
            jaro_winkler(&self.given.join(" "), &other.given.join(" "))
        };
        0.7 * s + 0.3 * g
    }

    /// Canonical display form `"given surname"`.
    pub fn display(&self) -> String {
        if self.given.is_empty() {
            self.surname.clone()
        } else {
            format!("{} {}", self.given.join(" "), self.surname)
        }
    }
}

fn surname_match(a: &str, b: &str) -> bool {
    a == b || jaro_winkler(a, b) >= 0.92
}

/// Given names are compatible when each aligned token matches fully or as an
/// initial ("j" vs "joshua").
fn given_compatible(a: &[String], b: &[String]) -> bool {
    if a.is_empty() || b.is_empty() {
        return true; // one side omits given names entirely
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short.iter().zip(long).all(|(x, y)| token_compatible(x, y))
}

fn token_compatible(x: &str, y: &str) -> bool {
    if x == y {
        return true;
    }
    let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    if short.len() == 1 {
        return long.starts_with(short);
    }
    jaro_winkler(x, y) >= 0.9
}

/// A parsed author list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AuthorList {
    /// Authors in listed order.
    pub authors: Vec<AuthorName>,
}

impl AuthorList {
    /// Number of authors.
    pub fn len(&self) -> usize {
        self.authors.len()
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.authors.is_empty()
    }

    /// Order-insensitive match score in `[0, 1]`: greedy best-match F1 over
    /// authors. Handles misordered lists (score 1), missing authors
    /// (recall < 1) and misspellings (fuzzy matches).
    pub fn match_score(&self, other: &Self) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut used = vec![false; other.authors.len()];
        let mut total = 0.0;
        for a in &self.authors {
            let mut best = 0.0;
            let mut best_j = None;
            for (j, b) in other.authors.iter().enumerate() {
                if used[j] {
                    continue;
                }
                let s = a.similarity(b);
                if s > best {
                    best = s;
                    best_j = Some(j);
                }
            }
            if let Some(j) = best_j {
                if best >= 0.75 {
                    used[j] = true;
                    total += best;
                }
            }
        }
        2.0 * total / (self.len() + other.len()) as f64
    }

    /// `true` when the two lists plausibly denote the same authors
    /// (match score ≥ 0.85).
    pub fn same_authors(&self, other: &Self) -> bool {
        self.match_score(other) >= 0.85
    }

    /// Canonical display form, `"; "`-separated.
    pub fn display(&self) -> String {
        self.authors
            .iter()
            .map(AuthorName::display)
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Parses a raw author-list string.
///
/// Accepts `";"`-separated lists, `"and"`/`"&"` conjunctions, and
/// `","`-separated lists. A comma list whose every other piece is a single
/// word reads as `"Last, First"` pairs, which this parser does not split:
/// it returns an empty list.
pub fn parse_author_list(raw: &str) -> AuthorList {
    let raw = raw.trim();
    if raw.is_empty() {
        return AuthorList::default();
    }
    // Unify conjunctions to ';'
    let mut unified = raw.replace(" & ", " ; ");
    for conj in [" and ", " AND ", " And "] {
        unified = unified.replace(conj, " ; ");
    }
    let pieces: Vec<&str> = if unified.contains(';') {
        unified.split(';').collect()
    } else {
        split_commas(&unified)
    };
    AuthorList {
        authors: pieces.iter().filter_map(|p| AuthorName::parse(p)).collect(),
    }
}

/// Splits on commas, except when the comma pattern looks like
/// `"Last, First"` pairs (alternating single pieces), in which case it
/// returns no pieces.
fn split_commas(s: &str) -> Vec<&str> {
    if !s.contains(',') {
        return vec![s];
    }
    let pieces: Vec<&str> = s.split(',').map(str::trim).collect();
    // Heuristic: "Last, First Middle" lists have 2k pieces where pieces at
    // even index are single-token surnames. Full "A B, C D" lists have
    // multi-token pieces throughout.
    let looks_paired = pieces.len().is_multiple_of(2)
        && pieces
            .iter()
            .step_by(2)
            .all(|p| p.split_whitespace().count() == 1);
    if looks_paired {
        Vec::new()
    } else {
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_names() {
        let n = AuthorName::parse("Joshua Bloch").unwrap();
        assert_eq!(n.surname, "bloch");
        assert_eq!(n.given, vec!["joshua"]);

        let n = AuthorName::parse("Bloch, Joshua").unwrap();
        assert_eq!(n.surname, "bloch");
        assert_eq!(n.given, vec!["joshua"]);

        let n = AuthorName::parse("J. D. Ullman").unwrap();
        assert_eq!(n.surname, "ullman");
        assert_eq!(n.given, vec!["j", "d"]);

        assert!(AuthorName::parse("").is_none());
        assert!(AuthorName::parse("   ").is_none());
    }

    #[test]
    fn name_matching_initials_and_typos() {
        let full = AuthorName::parse("Jeffrey Ullman").unwrap();
        let initial = AuthorName::parse("J. Ullman").unwrap();
        let typo = AuthorName::parse("Jefrey Ullman").unwrap();
        let other = AuthorName::parse("Jennifer Widom").unwrap();
        assert!(full.matches(&initial));
        assert!(full.matches(&typo));
        assert!(!full.matches(&other));
        assert!(full.similarity(&initial) > 0.9);
        assert!(full.similarity(&other) < 0.75);
    }

    #[test]
    fn display_forms() {
        let n = AuthorName::parse("Bloch, Joshua").unwrap();
        assert_eq!(n.display(), "joshua bloch");
        let solo = AuthorName::parse("Plato").unwrap();
        assert_eq!(solo.display(), "plato");
    }

    #[test]
    fn parse_semicolon_list() {
        let l = parse_author_list("Hector Garcia-Molina; Jeffrey Ullman; Jennifer Widom");
        assert_eq!(l.len(), 3);
        assert_eq!(l.authors[1].surname, "ullman");
    }

    #[test]
    fn parse_and_conjunction() {
        let l = parse_author_list("Joshua Bloch and Neal Gafter");
        assert_eq!(l.len(), 2);
        let l = parse_author_list("A. Silberschatz & H. Korth");
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn parse_comma_list() {
        let l = parse_author_list("Hector Garcia-Molina, Jeffrey Ullman, Jennifer Widom");
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn empty_list() {
        assert!(parse_author_list("").is_empty());
        assert_eq!(parse_author_list("").len(), 0);
        assert_eq!(parse_author_list("").display(), "");
    }

    #[test]
    fn match_score_order_insensitive() {
        let a = parse_author_list("Joshua Bloch; Neal Gafter");
        let b = parse_author_list("Neal Gafter; Joshua Bloch");
        assert!((a.match_score(&b) - 1.0).abs() < 1e-9);
        assert!(a.same_authors(&b));
    }

    #[test]
    fn match_score_missing_author() {
        let full = parse_author_list("Hector Garcia-Molina; Jeffrey Ullman; Jennifer Widom");
        let partial = parse_author_list("Jeffrey Ullman; Jennifer Widom");
        let s = full.match_score(&partial);
        assert!(s > 0.6 && s < 0.9, "partial overlap: {s}");
        assert!(!full.same_authors(&partial));
    }

    #[test]
    fn match_score_misspelling_tolerated() {
        let a = parse_author_list("Jeffrey Ullman; Jennifer Widom");
        let b = parse_author_list("Jefrey Ullmann; Jennifer Widom");
        assert!(a.same_authors(&b), "score: {}", a.match_score(&b));
    }

    #[test]
    fn match_score_wrong_author_penalised() {
        let a = parse_author_list("Joshua Bloch");
        let b = parse_author_list("Herbert Schildt");
        assert!(a.match_score(&b) < 0.5);
        assert!(!a.same_authors(&b));
    }

    #[test]
    fn match_score_empty_cases() {
        let empty = AuthorList::default();
        let one = parse_author_list("Plato");
        assert_eq!(empty.match_score(&empty), 1.0);
        assert_eq!(empty.match_score(&one), 0.0);
        assert_eq!(one.match_score(&empty), 0.0);
    }

    #[test]
    fn match_score_symmetric() {
        let a = parse_author_list("Joshua Bloch; Neal Gafter");
        let b = parse_author_list("J. Bloch");
        assert!((a.match_score(&b) - b.match_score(&a)).abs() < 1e-9);
    }
}
