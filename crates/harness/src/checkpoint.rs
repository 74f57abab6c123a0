//! Periodic-checkpoint errors.
//!
//! [`Scenario::run_checkpointed`](crate::Scenario::run_checkpointed)
//! writes an engine snapshot to disk at the interval it is given, so a
//! killed long run can pick up from the last checkpoint via
//! [`Scenario::resume_from`](crate::Scenario::resume_from) instead of
//! starting over.

use adca_simkit::DecodeError;
use std::fmt;

/// Why resuming from a checkpoint file failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot for this scenario/scheme.
    Decode(DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint file: {e}"),
            CheckpointError::Decode(e) => write!(f, "checkpoint decode: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let io = CheckpointError::from(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "missing.ckpt",
        ));
        assert!(io.to_string().contains("missing.ckpt"));
        let dec = CheckpointError::from(DecodeError::Truncated);
        assert!(dec.to_string().contains("checkpoint decode"));
    }
}
