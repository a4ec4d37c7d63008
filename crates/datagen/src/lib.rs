//! # sailing-datagen
//!
//! Synthetic substrates for everything the paper evaluated on data we do not
//! have. Each generator is deterministic by seed (ChaCha-based RNG) and
//! returns the planted ground truth alongside the observable data, so
//! experiments can score detection and fusion exactly.
//!
//! * [`world`] — snapshot worlds: independent sources with chosen accuracy,
//!   full/partial copiers, coverage skew (Table 1 at scale);
//! * [`temporal`] — evolving worlds with slow providers and lazy copiers
//!   (Table 3 at scale);
//! * [`ratings`] — opinion worlds with item-popularity correlation, copier
//!   raters and inverter raters (Table 2 at scale);
//! * [`bookstores`] — the AbeBooks-like corpus calibrated to Example 4.1's
//!   published statistics (876 bookstores, 1263 books, 24364 listings, 471
//!   dependent store pairs, messy author lists);
//! * [`churn`] — streaming-ingestion workloads: cohort-structured worlds
//!   where sources appear and vanish epoch by epoch, with a contested
//!   never-churned hard cohort (the incremental-discovery benchmark's
//!   substrate);
//! * [`variants`] — worlds whose sources disagree about formatting as much
//!   as about facts: canonical values plus case/whitespace/diacritic and
//!   trailing-zero re-renderings, the substrate for the value-equivalence
//!   backends;
//! * [`zipf`] — the Zipf coverage-skew counts of the bookstore corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bookstores;
pub mod churn;
pub mod ratings;
pub mod temporal;
pub mod variants;
pub mod world;
pub mod zipf;

pub use bookstores::{BookCorpus, BookCorpusConfig};
pub use churn::{ChurnConfig, ChurnWorld};
pub use ratings::{RaterBehavior, RatingWorld, RatingWorldConfig};
pub use temporal::{TemporalWorld, TemporalWorldConfig};
pub use variants::{VariantWorld, VariantWorldConfig};
pub use world::{SnapshotWorld, SourceBehavior, WorldConfig};

/// The workspace-standard seeded RNG.
pub type Rng = rand_chacha::ChaCha8Rng;

/// Creates the workspace-standard RNG from a seed.
pub fn rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}
