use std::error::Error;
use std::fmt;

/// Errors produced by the master, on any transport.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Configuration inconsistent with the coding matrix or dataset.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// A round could not be sent: a worker thread disconnected (panic in
    /// worker code), or every worker connection is gone.
    WorkerLost {
        /// A worker whose channel or connection closed.
        worker: usize,
    },
    /// The coding layer failed (propagated message).
    Coding {
        /// Underlying message.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidConfig { reason } => write!(f, "invalid runtime config: {reason}"),
            RuntimeError::WorkerLost { worker } => write!(f, "worker {worker} disconnected"),
            RuntimeError::Coding { message } => write!(f, "coding failure: {message}"),
        }
    }
}

impl Error for RuntimeError {}

impl From<hetgc_coding::CodingError> for RuntimeError {
    fn from(e: hetgc_coding::CodingError) -> Self {
        RuntimeError::Coding {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RuntimeError::InvalidConfig { reason: "x".into() }
            .to_string()
            .contains("invalid"));
        assert!(RuntimeError::WorkerLost { worker: 1 }
            .to_string()
            .contains("worker 1"));
        assert!(RuntimeError::Coding {
            message: "m".into()
        }
        .to_string()
        .contains("coding"));
    }

    #[test]
    fn from_coding() {
        let e: RuntimeError =
            hetgc_coding::CodingError::InvalidParameter { reason: "r".into() }.into();
        assert!(matches!(e, RuntimeError::Coding { .. }));
    }
}
