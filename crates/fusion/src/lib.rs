//! # sailing-fusion
//!
//! Data fusion with awareness of source dependence (Section 4, *Data
//! fusion*): "when deciding the truth from conflicting values, we would like
//! to ignore values that are copied (but not necessarily the values
//! independently provided by copiers)".
//!
//! * [`strategy`] — the fusion strategies compared throughout the
//!   experiments: naive voting, accuracy-weighted voting (ACCU), and
//!   dependence-aware fusion (ACCU-COPY);
//! * [`probdb`] — probabilistic-database output: instead of one hard value
//!   per object, a distribution of possible values, with
//!   independence-assuming vs dependence-aware probability combination;
//! * [`ratings`] — opinion aggregation that discounts dependent raters,
//!   recovering the unbiased consensus of Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probdb;
pub mod ratings;
pub mod strategy;

pub use probdb::ProbabilisticDatabase;
pub use ratings::{aggregate_ratings, RatingAggregate};
pub use sailing_core::SailingError;
pub use strategy::{fuse, fuse_with, FusionOutcome, FusionStrategy};
