//! Typed errors for the simulator's user-reachable construction and
//! configuration paths.
//!
//! Every fallible `try_*` constructor in this crate returns a [`SimError`];
//! the historical panicking APIs now delegate to the `try_*` form and panic
//! with the error's `Display` text, so existing `#[should_panic]` callers
//! and error-message greps keep working while library users get a `Result`
//! they can handle.

use std::fmt;

/// A typed error from the DRQ simulator.
///
/// # Examples
///
/// ```
/// use drq_sim::{LayerCycleModel, SimError};
///
/// let err = LayerCycleModel::try_new(0, 11, 16).unwrap_err();
/// assert!(matches!(err, SimError::InvalidGeometry { .. }));
/// assert!(err.to_string().contains("array dimensions must be positive"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A structural dimension (array geometry, buffer capacity, kernel
    /// extent, matrix shape) is zero, ragged or otherwise unusable.
    InvalidGeometry {
        /// Which component rejected its geometry.
        context: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// An operand value is outside the datapath's representable range
    /// (the DRQ PE is an 8-bit-signed datapath).
    OperandRange {
        /// Which component rejected the operand.
        context: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// Two connected components disagree about a width or count.
    WidthMismatch {
        /// Which interface mismatched (includes the phrase callers grep
        /// for, e.g. "partial-sum").
        context: &'static str,
        /// The width the component expected.
        expected: usize,
        /// The width it was given.
        actual: usize,
    },
    /// A scalar parameter (bandwidth, efficiency, frequency) is out of its
    /// valid domain.
    InvalidParameter {
        /// Which component rejected the parameter.
        context: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// A fault plan failed to parse or validate.
    FaultPlan {
        /// What exactly was wrong.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidGeometry { context, detail }
            | SimError::OperandRange { context, detail }
            | SimError::InvalidParameter { context, detail } => {
                write!(f, "{context}: {detail}")
            }
            SimError::WidthMismatch { context, expected, actual } => {
                write!(f, "{context} width mismatch: expected {expected}, got {actual}")
            }
            SimError::FaultPlan { detail } => write!(f, "invalid fault plan: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<drq_store::FaultPlanError> for SimError {
    fn from(e: drq_store::FaultPlanError) -> Self {
        SimError::FaultPlan { detail: e.detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context_and_detail() {
        let e = SimError::InvalidGeometry {
            context: "systolic array",
            detail: "empty weight matrix".into(),
        };
        assert_eq!(e.to_string(), "systolic array: empty weight matrix");
        let w = SimError::WidthMismatch {
            context: "output buffer partial-sum",
            expected: 2,
            actual: 3,
        };
        assert!(w.to_string().contains("width mismatch"));
        assert!(w.to_string().contains("expected 2, got 3"));
    }
}
