//! # sailing-query
//!
//! Online query answering (Section 4, *Query answering*): "rather than
//! necessarily going to all data sources and then combining the retrieved
//! answers, we want to visit the most promising sources and avoid going to
//! sources dependent on, or having been copied by, the ones already
//! visited".
//!
//! * [`ordering`] — source-visit orders: random, by coverage, by accuracy,
//!   and the dependence-aware greedy order that skips redundant sources;
//! * [`online`] — the incremental answering session: probe sources one at a
//!   time, keep per-object running answers, report the quality trajectory;
//! * [`topk`] — top-k answering with early termination once the remaining
//!   unprobed sources cannot change the top k.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod online;
pub mod ordering;
pub mod topk;

pub use online::{OnlineSession, StepSnapshot};
pub use ordering::{order_sources, OrderingPolicy};
pub use topk::TopKResult;
