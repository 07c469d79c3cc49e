//! Classification metrics.

use drq_tensor::Tensor;

/// Top-1 accuracy of logits `[n, classes]` against integer targets.
///
/// # Examples
///
/// ```
/// use drq_nn::accuracy;
/// use drq_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// ```
///
/// # Panics
///
/// Panics if `logits` is not rank 2 or lengths mismatch.
pub fn accuracy(logits: &Tensor<f32>, targets: &[usize]) -> f64 {
    assert_eq!(logits.rank(), 2, "logits must be [n, classes]");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(targets.len(), n, "target count mismatch");
    if n == 0 {
        return 0.0;
    }
    let lv = logits.as_slice();
    let mut hits = 0usize;
    for r in 0..n {
        let row = &lv[r * c..(r + 1) * c];
        let target_score = row[targets[r]];
        // A hit: no class has a strictly larger logit than the target.
        if !row.iter().any(|&v| v > target_score) {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits =
            Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_has_zero_accuracy() {
        let logits = Tensor::<f32>::zeros(&[0, 4]);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }
}
