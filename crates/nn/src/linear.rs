//! Fully connected layer.

use crate::NnError;
use drq_tensor::{gemm, he_normal, matmul, Rhs, Tensor, XorShiftRng};

/// A fully connected (dense) layer: `y = x W^T + b`.
///
/// Input is `[n, in_features]`, weight `[out_features, in_features]`.
///
/// # Examples
///
/// ```
/// use drq_nn::Linear;
/// use drq_tensor::Tensor;
///
/// let mut fc = Linear::new(4, 2, 1);
/// let y = fc.forward(&Tensor::zeros(&[3, 4]), false);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor<f32>,
    bias: Tensor<f32>,
    grad_weight: Tensor<f32>,
    grad_bias: Tensor<f32>,
    cached_input: Option<Tensor<f32>>,
}

impl Linear {
    /// Creates a dense layer with He-normal weights seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero (delegates to
    /// [`Linear::try_new`], preserving the message text).
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self::try_new(in_features, out_features, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Linear::new`] returning a typed error instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if either feature count is zero.
    pub fn try_new(in_features: usize, out_features: usize, seed: u64) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidLayer {
                context: "linear",
                detail: "feature counts must be positive".to_string(),
            });
        }
        let mut rng = XorShiftRng::new(seed);
        let weight = he_normal(&[out_features, in_features], in_features, &mut rng);
        Ok(Self {
            in_features,
            out_features,
            grad_weight: Tensor::zeros(weight.shape()),
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable weight tensor `[out, in]`.
    pub fn weight(&self) -> &Tensor<f32> {
        &self.weight
    }

    /// Mutable weight tensor.
    pub fn weight_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.weight
    }

    /// Multiply-accumulate count for a batch of `n` samples.
    pub fn mac_count(&self, n: usize) -> u64 {
        (n * self.in_features * self.out_features) as u64
    }

    /// Forward pass; caches the input when `train` is set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in_features]`.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        assert_eq!(x.rank(), 2, "linear input must be rank 2");
        assert_eq!(x.shape()[1], self.in_features, "feature count mismatch");
        let n = x.shape()[0];
        // x [n, in] · Wᵀ, with the [out, in] weight as the transposed operand.
        let mut y = Tensor::<f32>::zeros(&[n, self.out_features]);
        let (wv, yv) = (self.weight.as_slice(), y.as_mut_slice());
        gemm(n, self.in_features, self.out_features, x.as_slice(), wv, Rhs::Transposed, yv);
        for yrow in yv.chunks_exact_mut(self.out_features.max(1)) {
            for (v, &b) in yrow.iter_mut().zip(self.bias.as_slice()) {
                *v += b;
            }
        }
        if train {
            self.cached_input = Some(x.clone());
        }
        y
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let x = self
            .cached_input
            .take()
            .expect("linear backward without cached forward input");
        let n = x.shape()[0];
        assert_eq!(grad_out.shape(), &[n, self.out_features]);
        // dW = gy^T x ; db = column sums of gy ; dx = gy W.
        let mut gyt = Tensor::<f32>::zeros(&[self.out_features, n]);
        {
            let g = grad_out.as_slice();
            let t = gyt.as_mut_slice();
            for r in 0..n {
                for o in 0..self.out_features {
                    t[o * n + r] = g[r * self.out_features + o];
                }
            }
        }
        let gw = matmul(&gyt, &x);
        self.grad_weight.add_scaled(&gw, 1.0);
        {
            let g = grad_out.as_slice();
            let gb = self.grad_bias.as_mut_slice();
            for r in 0..n {
                for o in 0..self.out_features {
                    gb[o] += g[r * self.out_features + o];
                }
            }
        }
        matmul(grad_out, &self.weight)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    /// Visits `(param, grad)` pairs in a stable order (weight then bias).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_weight_passes_through() {
        let mut fc = Linear::new(3, 3, 1);
        fc.weight.map_inplace(|_| 0.0);
        for i in 0..3 {
            fc.weight[[i, i]] = 1.0;
        }
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = fc.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut fc = Linear::new(4, 3, 2);
        let mut rng = XorShiftRng::new(5);
        let x = Tensor::from_fn(&[2, 4], |_| rng.next_f32() - 0.5);
        let _ = fc.forward(&x, true);
        let ones = Tensor::<f32>::full(&[2, 3], 1.0);
        let gx = fc.backward(&ones);
        let eps = 1e-3;
        // Input gradient check.
        for probe in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (fc.forward(&xp, false).sum() - fc.forward(&xm, false).sum()) / (2.0 * eps);
            assert!((num - gx.as_slice()[probe]).abs() < 1e-2);
        }
        // Bias gradient: dL/db_o = batch size with all-ones upstream grad.
        assert!(fc.grad_bias.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-5));
    }

    #[test]
    fn weight_gradient_accumulates_over_calls() {
        let mut fc = Linear::new(2, 2, 3);
        let x = Tensor::<f32>::full(&[1, 2], 1.0);
        for _ in 0..2 {
            let _ = fc.forward(&x, true);
            let _ = fc.backward(&Tensor::<f32>::full(&[1, 2], 1.0));
        }
        // Each backward adds x (all ones) to every weight-grad row.
        assert!(fc.grad_weight.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        fc.zero_grad();
        assert!(fc.grad_weight.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_equals_matmul_on_the_materialized_transpose_bitwise() {
        // Batches 1..=9 walk the GEMM's row tail, 4-row and 8-row tiles;
        // 84 -> 10 stays under the small-product cutoff, 400 -> 120 does not.
        let mut rng = XorShiftRng::new(9);
        for (inf, outf) in [(84, 10), (400, 120)] {
            let mut fc = Linear::new(inf, outf, 4);
            fc.bias.map_inplace(|_| rng.next_f32() - 0.5);
            let wv = fc.weight.as_slice();
            let wt = Tensor::from_fn(&[inf, outf], |i| wv[(i % outf) * inf + i / outf]);
            for n in 1..=9 {
                let x = Tensor::from_fn(&[n, inf], |_| rng.next_f32() - 0.5);
                let mut want = matmul(&x, &wt);
                for row in want.as_mut_slice().chunks_exact_mut(outf) {
                    for (v, &b) in row.iter_mut().zip(fc.bias.as_slice()) {
                        *v += b;
                    }
                }
                let got = fc.forward(&x, false);
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{inf} -> {outf}, batch {n}");
                }
            }
        }
    }

    #[test]
    fn mac_count_scales_with_batch() {
        let fc = Linear::new(10, 5, 1);
        assert_eq!(fc.mac_count(1), 50);
        assert_eq!(fc.mac_count(8), 400);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn rejects_wrong_width() {
        let mut fc = Linear::new(3, 2, 1);
        let _ = fc.forward(&Tensor::zeros(&[1, 4]), false);
    }
}
