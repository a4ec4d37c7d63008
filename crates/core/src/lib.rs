//! # sailing-core
//!
//! Discovery of **dependence between data sources** — the primary
//! contribution of *Sailing the Information Ocean with Awareness of Currents*
//! (CIDR 2009).
//!
//! The paper distinguishes two kinds of dependence (Section 2.2):
//!
//! * **similarity-dependence** — a source copies values from another source,
//!   boosting the copied values' vote counts under naive voting (Table 1);
//! * **dissimilarity-dependence** — a source deliberately provides values
//!   conflicting with another source's, cancelling its votes (Table 2).
//!
//! and two observation regimes: a single **snapshot** per source, or full
//! **temporal** update traces (Table 3).
//!
//! This crate implements the paper's Section 3.2 solution sketch:
//!
//! * [`vote`] — naive voting, the baseline dependence defeats;
//! * [`copy`] — Bayesian snapshot copy detection built on the
//!   shared-false-value intuition ("students sharing wrong quiz answers");
//! * [`partial`] — the overlap-property test (intuition 2: a copier's
//!   accuracy differs between what it shares and what it provides alone),
//!   used for direction and partial-copier detection;
//! * [`dissim`] — dissimilarity-dependence detection on opinion data with
//!   item-consensus residualisation (the "correlated information" challenge);
//! * [`temporal`] — update-trace dependence: rare shared updates, copying
//!   lag estimation (lazy copiers), out-of-date vs false classification;
//! * [`truth`] — dependence-aware truth discovery: weighted voting where
//!   copied votes are damped by their probability of being independent;
//! * [`pipeline`] — the iterative Bayesian loop the paper proposes:
//!   *determine true values ↔ compute source accuracy ↔ discover
//!   dependence*, run to fixpoint;
//! * [`pairs`] — scalable candidate-pair enumeration with shared-object
//!   pruning and optional parallelism (the "huge number of data sources"
//!   challenge);
//! * [`shard`] — pair-sharded distributed analysis: the detection pass
//!   split over contiguous ranges of the candidate-pair list, merged
//!   back bitwise-identically to the monolithic loop (the same
//!   challenge, scaled past one thread or one process);
//! * [`discovery`] — the [`TruthDiscovery`] strategy trait making the
//!   naive / ACCU / ACCU-COPY ladder pluggable objects consumed by fusion,
//!   query answering, recommendation, and the `sailing` facade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod copy;
pub mod discovery;
pub mod dissim;
pub mod pairs;
pub mod params;
pub mod partial;
pub mod pipeline;
pub mod report;
pub mod shard;
pub mod temporal;
pub mod truth;
pub mod vote;

pub use discovery::{NaiveVote, TruthDiscovery};
pub use params::{DetectionParams, TemporalParams};
pub use pipeline::{AccuCopy, DeltaOutcome, DeltaRun, PipelineResult, Termination, Watchdog};
pub use report::{DependenceKind, Direction, PairDependence, SourceReport};
pub use sailing_model::{SailingError, SailingResult};
pub use shard::{iteration_digest, shard_ranges, PairRange, PartialDependence, ShardStep};
