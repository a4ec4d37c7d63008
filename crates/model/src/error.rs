//! The workspace-wide error type.
//!
//! Every fallible constructor and validator in the workspace — model
//! construction and lookup, detection/fusion parameter validation, datagen
//! configuration — reports a [`SailingError`] so callers can match on the
//! failure instead of parsing strings. The error flows unchanged through
//! `sailing-core`, `sailing-fusion`, `sailing-query`, `sailing-recommend`,
//! and the `sailing` facade, which all re-export it.

use std::fmt;

/// Errors raised anywhere in the sailing workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum SailingError {
    /// A detection/fusion parameter violated its documented constraint.
    InvalidParameter {
        /// The parameter's field name (e.g. `copy_rate`).
        param: &'static str,
        /// Why the supplied value is rejected.
        reason: String,
    },
    /// A generator or engine configuration is structurally invalid.
    InvalidConfig {
        /// What was being configured (e.g. `WorldConfig`).
        context: &'static str,
        /// Why the configuration is rejected.
        reason: String,
    },
    /// A persistent-store operation failed at the filesystem level.
    ///
    /// Raised only for *infrastructure* failures (the directory cannot be
    /// created, a write or rename fails); a damaged or stale store **file**
    /// is never an error — readers degrade it to a cold cache miss.
    Persist {
        /// The path the operation targeted.
        path: String,
        /// The underlying I/O failure, rendered.
        reason: String,
    },
    /// A persistent-store write failed on the **background writer thread**,
    /// after the originating `put` had already returned to its caller.
    ///
    /// Deferred failures are never silently lost: each is counted in the
    /// store's `PersistStats::write_errors`, retained for
    /// `PersistentStore::take_write_errors`, and the first one pending is
    /// returned by the next `flush()` drain. The dropped entry itself is a
    /// cache of recomputable work — losing it is a future cold miss, not
    /// data loss.
    PersistDeferred {
        /// The path the background write targeted.
        path: String,
        /// The underlying I/O failure, rendered.
        reason: String,
    },
    /// A worker thread on a coordination path (e.g. one shard of
    /// `analyze_sharded`) panicked; the panic is caught at the join and
    /// reported instead of propagated.
    WorkerPanicked {
        /// Which fan-out the worker belonged to.
        context: &'static str,
        /// The panic payload, rendered when it is a string.
        reason: String,
    },
}

impl SailingError {
    /// Convenience constructor for an out-of-`[0, 1]` parameter.
    pub fn param_outside_unit(param: &'static str, value: f64) -> Self {
        SailingError::InvalidParameter {
            param,
            reason: format!("{value} outside [0, 1]"),
        }
    }

    /// Convenience constructor for [`SailingError::InvalidParameter`].
    pub fn param(param: &'static str, reason: impl Into<String>) -> Self {
        SailingError::InvalidParameter {
            param,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SailingError::InvalidConfig`].
    pub fn config(context: &'static str, reason: impl Into<String>) -> Self {
        SailingError::InvalidConfig {
            context,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SailingError::Persist`].
    pub fn persist(path: impl Into<String>, reason: impl std::fmt::Display) -> Self {
        SailingError::Persist {
            path: path.into(),
            reason: reason.to_string(),
        }
    }

    /// Re-labels a persist error as having happened on the background
    /// writer thread ([`SailingError::PersistDeferred`]). Non-persist
    /// errors pass through unchanged.
    pub fn into_deferred(self) -> Self {
        match self {
            SailingError::Persist { path, reason } => {
                SailingError::PersistDeferred { path, reason }
            }
            other => other,
        }
    }
}

impl fmt::Display for SailingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SailingError::InvalidParameter { param, reason } => {
                write!(f, "invalid parameter {param}: {reason}")
            }
            SailingError::InvalidConfig { context, reason } => {
                write!(f, "invalid {context}: {reason}")
            }
            SailingError::Persist { path, reason } => {
                write!(f, "persistent store failure at {path}: {reason}")
            }
            SailingError::PersistDeferred { path, reason } => {
                write!(
                    f,
                    "persistent store background write failed at {path}: {reason}"
                )
            }
            SailingError::WorkerPanicked { context, reason } => {
                write!(f, "{context} worker panicked: {reason}")
            }
        }
    }
}

impl std::error::Error for SailingError {}

/// Workspace-standard result alias.
pub type SailingResult<T> = Result<T, SailingError>;

/// Historical name of the model-layer error, kept as an alias through the
/// typed-error migration.
pub type ModelError = SailingError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SailingError::param_outside_unit("copy_rate", 2.0)
            .to_string()
            .contains("copy_rate"));
        assert!(SailingError::config("WorldConfig", "no sources")
            .to_string()
            .contains("WorldConfig"));
        assert!(SailingError::persist("/store/x", "disk full")
            .into_deferred()
            .to_string()
            .contains("background write"));
        assert!(SailingError::WorkerPanicked {
            context: "shard",
            reason: "boom".into()
        }
        .to_string()
        .contains("shard worker panicked: boom"));
    }

    #[test]
    fn into_deferred_relabels_only_persist() {
        let deferred = SailingError::persist("/store/a.sail", "io").into_deferred();
        assert!(matches!(deferred, SailingError::PersistDeferred { .. }));
        let other = SailingError::config("WorldConfig", "no sources").into_deferred();
        assert_eq!(other, SailingError::config("WorldConfig", "no sources"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&SailingError::param_outside_unit("copy_rate", 2.0));
    }

    #[test]
    fn model_error_alias_matches() {
        // The legacy alias stays pattern-matchable.
        let e: ModelError = SailingError::config("WorldConfig", "no sources");
        assert!(matches!(
            e,
            ModelError::InvalidConfig {
                context: "WorldConfig",
                ..
            }
        ));
    }
}
