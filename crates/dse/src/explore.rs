//! The Section III-D trial-and-error loop (Table III).
//!
//! The paper finds each network's threshold and region size by trial and
//! error: start from empirically large values, evaluate accuracy with the
//! mixed-precision forward pass, and halve the region size or threshold
//! until accuracy meets the requirement. "Although trial-and-error, the
//! above process can always find the satisfactory values within a few
//! iterations."
//!
//! Section III-D also retrains during the exploration ("we retrain the
//! model for guaranteed accuracy, during which we will apply the
//! mix-precision convolution in the forward propagation, but full-precision
//! backward propagation"). The evaluator closure is where that composes:
//! run a few `drq_core::finetune_step`s at the candidate configuration
//! before measuring accuracy.

use drq_core::RegionSize;

/// Outcome of the iterative exploration loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseOutcome {
    /// Chosen region size.
    pub region: RegionSize,
    /// Chosen threshold.
    pub threshold: f32,
    /// Accuracy at the chosen point.
    pub accuracy: f64,
    /// 4-bit fraction at the chosen point.
    pub int4_fraction: f64,
    /// Number of evaluate-and-halve iterations performed.
    pub iterations: usize,
    /// Whether the accuracy target was met (false = budget exhausted; the
    /// best point seen is still returned).
    pub converged: bool,
}

/// A measurement the exploration loop asks the caller to perform: run the
/// model at `(region, threshold)` and report `(accuracy, int4_fraction)`.
pub type Evaluator<'a> = dyn FnMut(RegionSize, f32) -> (f64, f64) + 'a;

/// Runs the Section III-D trial-and-error loop.
///
/// Starting from `(initial_region, initial_threshold)` — "empirically
/// starting from some large values" — each iteration evaluates the current
/// point; if accuracy reaches `target_accuracy` the point is accepted,
/// otherwise the threshold and the region size are alternately halved
/// (threshold first: it is the cheaper knob, affecting no hardware buffer
/// sizing).
///
/// # Panics
///
/// Panics if `max_iterations == 0`.
///
/// # Examples
///
/// ```
/// use drq_core::RegionSize;
/// use drq_dse::explore;
///
/// // A synthetic model whose accuracy improves as the threshold shrinks.
/// let outcome = explore(
///     RegionSize::new(32, 32),
///     1.0,
///     0.9,
///     16,
///     &mut |_region, threshold| {
///         let acc = 1.0 - threshold as f64 * 0.5;
///         (acc, 0.9)
///     },
/// );
/// assert!(outcome.converged);
/// assert!(outcome.accuracy >= 0.9);
/// ```
pub fn explore(
    initial_region: RegionSize,
    initial_threshold: f32,
    target_accuracy: f64,
    max_iterations: usize,
    eval: &mut Evaluator<'_>,
) -> DseOutcome {
    assert!(max_iterations > 0, "need at least one iteration");
    let mut region = initial_region;
    let mut threshold = initial_threshold;
    let mut best: Option<DseOutcome> = None;
    let mut halve_threshold_next = true;

    for it in 1..=max_iterations {
        let (accuracy, int4_fraction) = eval(region, threshold);
        let point = DseOutcome {
            region,
            threshold,
            accuracy,
            int4_fraction,
            iterations: it,
            converged: accuracy >= target_accuracy,
        };
        if best.map(|b| accuracy > b.accuracy).unwrap_or(true) {
            best = Some(point);
        }
        if accuracy >= target_accuracy {
            return point;
        }
        // Halve the threshold or the region size, alternately.
        if halve_threshold_next {
            threshold /= 2.0;
        } else {
            region = region.halved();
        }
        halve_threshold_next = !halve_threshold_next;
    }
    let mut out = best.expect("at least one iteration ran");
    out.iterations = max_iterations;
    out.converged = false;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic accuracy model: accuracy falls with threshold and with
    /// region area; int4 fraction rises with threshold.
    fn model(region: RegionSize, threshold: f32) -> (f64, f64) {
        let acc = (1.0 - threshold as f64 * 0.02 - region.area() as f64 * 1e-4).max(0.0);
        let int4 = (0.5 + threshold as f64 * 0.02).min(1.0);
        (acc, int4)
    }

    #[test]
    fn explore_converges_within_few_iterations() {
        let out = explore(RegionSize::new(32, 32), 16.0, 0.85, 20, &mut model);
        assert!(out.converged);
        assert!(out.iterations <= 10, "took {} iterations", out.iterations);
        assert!(out.accuracy >= 0.85);
    }

    #[test]
    fn explore_returns_best_when_budget_exhausted() {
        // Impossible target: loop must exhaust and return best-seen.
        let out = explore(RegionSize::new(8, 8), 10.0, 2.0, 5, &mut model);
        assert!(!out.converged);
        assert_eq!(out.iterations, 5);
        assert!(out.accuracy > 0.0);
    }

    #[test]
    fn explore_halves_alternately() {
        let mut seen = Vec::new();
        let _ = explore(
            RegionSize::new(16, 16),
            8.0,
            2.0, // never met
            4,
            &mut |r, t| {
                seen.push((r, t));
                (0.0, 0.5)
            },
        );
        assert_eq!(seen[0], (RegionSize::new(16, 16), 8.0));
        assert_eq!(seen[1], (RegionSize::new(16, 16), 4.0)); // threshold halved
        assert_eq!(seen[2], (RegionSize::new(8, 16), 4.0)); // region halved
        assert_eq!(seen[3], (RegionSize::new(8, 16), 2.0)); // threshold again
    }
}
