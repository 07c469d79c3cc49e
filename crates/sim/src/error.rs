//! Typed errors for the simulator's user-reachable construction and
//! configuration paths.
//!
//! Every fallible `try_*` constructor in this crate (the architecture
//! builder, [`crate::DramModel`] and [`crate::LayerCycleModel`]) returns a
//! [`SimError`], as does fault-plan parsing; the panicking forms delegate
//! to the `try_*` form and panic with the error's `Display` text, while
//! library users get a `Result` they can handle.

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
    /// A structural dimension (array geometry, buffer capacity) is zero or
    /// otherwise unusable.
    InvalidGeometry {
        /// Which component rejected its geometry.
        context: &'static str,
        /// What exactly was wrong.
        detail: String,
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
            | SimError::InvalidParameter { context, detail } => {
                write!(f, "{context}: {detail}")
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
            context: "layer cycle model",
            detail: "zero pages".into(),
        };
        assert_eq!(e.to_string(), "layer cycle model: zero pages");
        let p = SimError::FaultPlan { detail: "unknown site".into() };
        assert_eq!(p.to_string(), "invalid fault plan: unknown site");
    }
}
