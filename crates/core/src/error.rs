//! Error type for the BlinkML core.

use blinkml_linalg::LinalgError;
use blinkml_optim::OptimError;
use std::fmt;

/// Errors surfaced by BlinkML training and estimation.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// The optimizer failed while training a model.
    Optimization(OptimError),
    /// A matrix factorization failed (statistics computation).
    Linalg(LinalgError),
    /// The configuration is inconsistent (e.g. `ε ≤ 0`, empty holdout).
    InvalidConfig(String),
    /// The chosen statistics method is not available for this model
    /// class (e.g. ClosedForm for max-entropy).
    UnsupportedStatistics {
        /// Model class name.
        model: &'static str,
        /// Statistics method name.
        method: &'static str,
    },
    /// The dataset is unusable for the request (too small, wrong labels).
    InvalidData(String),
    /// A streamed row failed ingest validation (non-finite feature,
    /// label outside the model class's domain, dimension mismatch).
    InvalidRow {
        /// Index of the offending row within the appended block.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A cooperative cancellation checkpoint fired before training
    /// could produce any model with a guarantee (deadline expired
    /// before or during the pilot phase).
    Cancelled,
    /// A durable pool's log or snapshot is damaged mid-file (a CRC
    /// mismatch with complete records after it, a malformed record, an
    /// inconsistent epoch mark). Distinct from a torn tail, which
    /// recovery truncates silently: this error means acknowledged data
    /// may be unrecoverable and needs operator attention.
    CorruptLog {
        /// Byte offset of the damage within the file.
        offset: u64,
        /// Human-readable description.
        reason: String,
    },
}

impl CoreError {
    /// True when this error was caused by cooperative cancellation —
    /// either a checkpoint between training phases or the optimizer's
    /// per-iteration stop check. The serving layer maps these to
    /// deadline-specific errors instead of generic training failures.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            CoreError::Cancelled | CoreError::Optimization(OptimError::Cancelled)
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Optimization(e) => write!(f, "training failed: {e}"),
            CoreError::Linalg(e) => write!(f, "statistics computation failed: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::UnsupportedStatistics { model, method } => {
                write!(f, "{method} statistics are not available for {model}")
            }
            CoreError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            CoreError::InvalidRow { index, reason } => {
                write!(f, "ingest rejected row {index}: {reason}")
            }
            CoreError::Cancelled => {
                write!(f, "run cancelled before a guaranteed model was available")
            }
            CoreError::CorruptLog { offset, reason } => {
                write!(f, "corrupt durability log at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Optimization(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OptimError> for CoreError {
    fn from(e: OptimError) -> Self {
        CoreError::Optimization(e)
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<blinkml_data::IngestError> for CoreError {
    fn from(e: blinkml_data::IngestError) -> Self {
        match e {
            blinkml_data::IngestError::InvalidRow { index, reason } => {
                CoreError::InvalidRow { index, reason }
            }
            blinkml_data::IngestError::DimMismatch {
                index,
                expected,
                found,
            } => CoreError::InvalidRow {
                index,
                reason: format!("dimension {found} does not match the pool's {expected}"),
            },
            blinkml_data::IngestError::Durability(reason) => {
                CoreError::InvalidData(format!("append not durable, rows not admitted: {reason}"))
            }
        }
    }
}

impl From<blinkml_data::WalError> for CoreError {
    fn from(e: blinkml_data::WalError) -> Self {
        match e {
            blinkml_data::WalError::Corrupt { offset, reason } => {
                CoreError::CorruptLog { offset, reason }
            }
            blinkml_data::WalError::Io(io) => {
                CoreError::InvalidData(format!("durability I/O failure: {io}"))
            }
            blinkml_data::WalError::Rejected(ingest) => ingest.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = OptimError::NonFiniteObjective.into();
        assert!(e.to_string().contains("training failed"));
        let e: CoreError = LinalgError::NotPositiveDefinite { pivot: 1 }.into();
        assert!(e.to_string().contains("statistics"));
        let e = CoreError::UnsupportedStatistics {
            model: "maxent",
            method: "ClosedForm",
        };
        assert!(e.to_string().contains("maxent"));
        assert!(CoreError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(CoreError::InvalidData("y".into()).to_string().contains("y"));
        assert!(CoreError::Cancelled.to_string().contains("cancelled"));
        let e: CoreError = blinkml_data::IngestError::InvalidRow {
            index: 3,
            reason: "label 2 is not in {0, 1}".into(),
        }
        .into();
        assert!(matches!(e, CoreError::InvalidRow { index: 3, .. }));
        assert!(e.to_string().contains("row 3"));
        let e: CoreError = blinkml_data::IngestError::DimMismatch {
            index: 0,
            expected: 4,
            found: 5,
        }
        .into();
        assert!(e.to_string().contains("dimension 5"));
        let e: CoreError = blinkml_data::WalError::Corrupt {
            offset: 42,
            reason: "record CRC mismatch".into(),
        }
        .into();
        assert!(matches!(e, CoreError::CorruptLog { offset: 42, .. }));
        assert!(e.to_string().contains("byte 42"));
    }

    #[test]
    fn cancellation_predicate() {
        assert!(CoreError::Cancelled.is_cancellation());
        assert!(CoreError::Optimization(OptimError::Cancelled).is_cancellation());
        assert!(!CoreError::Optimization(OptimError::NonFiniteObjective).is_cancellation());
        assert!(!CoreError::InvalidConfig("x".into()).is_cancellation());
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: CoreError = OptimError::NonFiniteObjective.into();
        assert!(e.source().is_some());
        assert!(CoreError::InvalidConfig("z".into()).source().is_none());
    }
}
