//! Typed errors for the algorithm layer.
//!
//! Mirrors `drq_sim::SimError` on the algorithm side: user-reachable
//! configuration and exploration paths report structured, matchable errors
//! instead of panicking, so the CLI can print context and exit cleanly.

use std::fmt;

/// Errors raised by the DRQ algorithm layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrqError {
    /// A configuration value is out of its valid domain.
    InvalidConfig {
        /// Which component rejected the value.
        context: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// An evaluator could not score one design-space candidate.
    EvaluationFailed {
        /// The candidate's index in its space.
        candidate: usize,
        /// Display text of the evaluator's failure.
        detail: String,
    },
}

impl fmt::Display for DrqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrqError::InvalidConfig { context, detail } => {
                write!(f, "{context}: {detail}")
            }
            DrqError::EvaluationFailed { candidate, detail } => {
                write!(f, "candidate {candidate}: evaluation failed: {detail}")
            }
        }
    }
}

impl std::error::Error for DrqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = DrqError::InvalidConfig {
            context: "region size",
            detail: "region extents must be positive".into(),
        };
        assert_eq!(e.to_string(), "region size: region extents must be positive");
        let e = DrqError::EvaluationFailed { candidate: 7, detail: "evaluator diverged".into() };
        assert_eq!(e.to_string(), "candidate 7: evaluation failed: evaluator diverged");
    }
}
