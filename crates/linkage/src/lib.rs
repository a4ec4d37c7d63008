//! # sailing-linkage
//!
//! The record-linkage substrate the paper's applications need (Section 4,
//! *Record linkage*): "in practice we often need to simultaneously conduct
//! truth discovery and record linkage to distinguish between alternative
//! representations and false values".
//!
//! The crate provides:
//!
//! * classic string similarity [`metrics`] (Levenshtein, Jaro/Jaro-Winkler,
//!   token Jaccard, character n-grams),
//! * value [`mod@normalize`]-ation (case folding, punctuation, whitespace),
//! * [`authors`]: parsing and matching of the messy author lists of
//!   Example 4.1 ("formatted in various ways; misspellings, missing authors,
//!   misordered authors"),
//! * [`cluster`]: union-find clustering of alternative representations, and
//! * [`classify`]: the paper's "Luna Dong" vs "Xing Dong" problem — decide
//!   whether two values are the *same representation*, *alternative
//!   representations* of one underlying value, or *different values*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authors;
pub mod classify;
pub mod cluster;
pub mod equivalence;
pub mod metrics;
pub mod normalize;

pub use authors::{parse_author_list, AuthorList, AuthorName};
pub use classify::{classify_pair, ClassifyParams, ValueRelation};
pub use cluster::cluster_values;
pub use equivalence::NormalizedString;
pub use metrics::{jaccard_tokens, jaro, jaro_winkler, levenshtein, ngram_similarity};
pub use normalize::{normalize, normalized_eq};
