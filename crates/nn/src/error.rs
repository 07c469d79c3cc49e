//! Typed error layer for the neural-network crate.
//!
//! Mirrors the `SimError` pattern from `drq-sim`: fallible `try_*`
//! constructors return [`NnError`], and the historical panicking APIs
//! delegate to them via `panic!("{e}")` so existing
//! `#[should_panic(expected = ...)]` tests keep matching the same message
//! text.

use std::error::Error;
use std::fmt;
use std::io;

/// Typed error for network construction, execution and serialization.
#[derive(Debug)]
pub enum NnError {
    /// Underlying I/O failure while reading or writing a weight stream.
    Io(String),
    /// The byte stream is not a weight file or uses an unknown version.
    BadHeader(String),
    /// The stream's parameters do not match the network architecture.
    ArchitectureMismatch(String),
    /// No copy of the checkpoint passes the `drq-store` frame check
    /// (truncated, bit-rotted, or unframed), or its payload ends early or
    /// carries trailing bytes.
    CorruptCheckpoint {
        /// Which check failed (the store's rejection reasons, ...).
        detail: String,
    },
    /// A layer constructor was given invalid hyperparameters.
    InvalidLayer {
        /// The layer kind ("conv2d", "linear", ...).
        context: &'static str,
        /// Human-readable description of the invalid parameter.
        detail: String,
    },
    /// Tensors flowing through the network have incompatible shapes.
    ShapeMismatch {
        /// Where the mismatch occurred ("residual", ...).
        context: &'static str,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Io(m) => write!(f, "i/o error: {m}"),
            NnError::BadHeader(m) => write!(f, "bad weight file header: {m}"),
            NnError::ArchitectureMismatch(m) => write!(f, "architecture mismatch: {m}"),
            NnError::CorruptCheckpoint { detail } => write!(f, "corrupt checkpoint: {detail}"),
            NnError::InvalidLayer { context, detail } | NnError::ShapeMismatch { context, detail } => {
                write!(f, "{context}: {detail}")
            }
        }
    }
}

impl Error for NnError {}

impl From<io::Error> for NnError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            NnError::CorruptCheckpoint {
                detail: format!("truncated stream: {e}"),
            }
        } else {
            NnError::Io(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_context_prefix() {
        let e = NnError::InvalidLayer {
            context: "conv2d",
            detail: "kernel and stride must be positive".to_string(),
        };
        assert_eq!(e.to_string(), "conv2d: kernel and stride must be positive");
    }

    #[test]
    fn unexpected_eof_maps_to_corrupt_checkpoint() {
        let io_err = io::Error::new(io::ErrorKind::UnexpectedEof, "early end");
        let e = NnError::from(io_err);
        assert!(matches!(e, NnError::CorruptCheckpoint { .. }));
        let io_err = io::Error::other("disk on fire");
        let e = NnError::from(io_err);
        assert!(matches!(e, NnError::Io(_)));
    }
}
