//! Max and average pooling (windowed and global).

use crate::workspace::Workspace;
use crate::NnError;
use drq_tensor::{conv_out_dim, Shape4, Tensor};

/// Which reduction a [`Pool2d`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window. Average pooling outputs are what the
    /// DRQ sensitivity predictor reuses (Section IV-E of the paper).
    Avg,
    /// Mean over the whole spatial extent (window/stride ignored).
    GlobalAvg,
}

/// A 2-D pooling layer over NCHW tensors.
///
/// # Examples
///
/// ```
/// use drq_nn::{Pool2d, PoolKind};
/// use drq_tensor::Tensor;
///
/// let mut pool = Pool2d::new(PoolKind::Max, 2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pool2d {
    kind: PoolKind,
    window: usize,
    stride: usize,
    ws: Workspace<PoolWs>,
}

/// The pooling layer's training workspace.
#[derive(Default)]
struct PoolWs {
    /// The training forward's input shape, once a forward has run.
    input_shape: Option<Shape4>,
    /// For max pooling: the linear input offset of each output's argmax.
    argmax: Vec<usize>,
}

impl Pool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0` for windowed kinds
    /// (delegates to [`Pool2d::try_new`], preserving the message text).
    pub fn new(kind: PoolKind, window: usize, stride: usize) -> Self {
        Self::try_new(kind, window, stride).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Pool2d::new`] returning a typed error instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if `window == 0` or `stride == 0`
    /// for windowed kinds.
    pub fn try_new(kind: PoolKind, window: usize, stride: usize) -> Result<Self, NnError> {
        if kind != PoolKind::GlobalAvg && (window == 0 || stride == 0) {
            return Err(NnError::InvalidLayer {
                context: "pool2d",
                detail: "window and stride must be positive".to_string(),
            });
        }
        Ok(Self { kind, window, stride, ws: Workspace::default() })
    }

    /// Convenience constructor for global average pooling.
    pub fn global_avg() -> Self {
        Self::new(PoolKind::GlobalAvg, 0, 0)
    }

    /// The pooling kind.
    pub fn kind(&self) -> PoolKind {
        self.kind
    }

    /// Window size (0 for global pooling).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Stride (0 for global pooling).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: Shape4) -> Shape4 {
        match self.kind {
            PoolKind::GlobalAvg => Shape4::new(input.n, input.c, 1, 1),
            _ => Shape4::new(
                input.n,
                input.c,
                conv_out_dim(input.h, self.window, self.stride, 0),
                conv_out_dim(input.w, self.window, self.stride, 0),
            ),
        }
    }

    /// Forward pass; caches pooling provenance when `train` is set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut out = Tensor::default();
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Self::forward`] into `out`, which is resized to the output shape.
    pub(crate) fn forward_into(&mut self, x: &Tensor<f32>, train: bool, out: &mut Tensor<f32>) {
        let s = x.shape4().expect("pool input must be rank 4");
        let os = self.output_shape(s);
        out.resize(&os.as_array());
        let xs = x.as_slice();
        let ov = out.as_mut_slice();
        // Training fills the kept argmax offsets; evaluation touches none.
        let keep_argmax = train && self.kind == PoolKind::Max;
        let mut argmax = if keep_argmax { std::mem::take(&mut self.ws.argmax) } else { Vec::new() };
        argmax.resize(if keep_argmax { os.len() } else { 0 }, 0);

        match self.kind {
            PoolKind::GlobalAvg => {
                let area = (s.h * s.w) as f32;
                for n in 0..s.n {
                    for c in 0..s.c {
                        let base = s.offset(n, c, 0, 0);
                        ov[os.offset(n, c, 0, 0)] =
                            xs[base..base + s.h * s.w].iter().sum::<f32>() / area;
                    }
                }
            }
            PoolKind::Max | PoolKind::Avg => {
                let area = (self.window * self.window) as f32;
                for n in 0..s.n {
                    for c in 0..s.c {
                        for oy in 0..os.h {
                            for ox in 0..os.w {
                                let mut best = f32::NEG_INFINITY;
                                let mut best_off = 0usize;
                                let mut sum = 0.0f32;
                                for wy in 0..self.window {
                                    let iy = oy * self.stride + wy;
                                    for wx in 0..self.window {
                                        let ix = ox * self.stride + wx;
                                        let off = s.offset(n, c, iy, ix);
                                        let v = xs[off];
                                        sum += v;
                                        if v > best {
                                            best = v;
                                            best_off = off;
                                        }
                                    }
                                }
                                let oo = os.offset(n, c, oy, ox);
                                if self.kind == PoolKind::Max {
                                    ov[oo] = best;
                                    if train {
                                        argmax[oo] = best_off;
                                    }
                                } else {
                                    ov[oo] = sum / area;
                                }
                            }
                        }
                    }
                }
            }
        }
        if train {
            self.ws.input_shape = Some(s);
            self.ws.argmax = argmax;
        }
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Self::backward`] into `grad_in`, which is resized to the input
    /// shape.
    pub(crate) fn backward_into(&mut self, grad_out: &Tensor<f32>, grad_in: &mut Tensor<f32>) {
        let s = self.ws.input_shape.take().expect("pool backward without cached forward");
        let os = self.output_shape(s);
        assert_eq!(grad_out.shape(), &os.as_array(), "grad shape mismatch");
        grad_in.resize(&s.as_array());
        let gi = grad_in.as_mut_slice();
        gi.fill(0.0);
        let go = grad_out.as_slice();
        match self.kind {
            PoolKind::Max => {
                for (oo, &src) in self.ws.argmax.iter().enumerate() {
                    gi[src] += go[oo];
                }
            }
            PoolKind::Avg => {
                let area = (self.window * self.window) as f32;
                for n in 0..s.n {
                    for c in 0..s.c {
                        for oy in 0..os.h {
                            for ox in 0..os.w {
                                let g = go[os.offset(n, c, oy, ox)] / area;
                                for wy in 0..self.window {
                                    for wx in 0..self.window {
                                        gi[s.offset(
                                            n,
                                            c,
                                            oy * self.stride + wy,
                                            ox * self.stride + wx,
                                        )] += g;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            PoolKind::GlobalAvg => {
                let area = (s.h * s.w) as f32;
                for n in 0..s.n {
                    for c in 0..s.c {
                        let g = go[os.offset(n, c, 0, 0)] / area;
                        let base = s.offset(n, c, 0, 0);
                        for p in 0..s.h * s.w {
                            gi[base + p] += g;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_selects_window_maximum() {
        let mut p = Pool2d::new(PoolKind::Max, 2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = p.forward(&x, false);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_averages_window() {
        let mut p = Pool2d::new(PoolKind::Avg, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = p.forward(&x, false);
        assert_eq!(y.as_slice(), &[4.0]);
    }

    #[test]
    fn global_avg_reduces_to_1x1() {
        let mut p = Pool2d::global_avg();
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.as_slice()[0], 4.0); // mean of 0..9
        assert_eq!(y.as_slice()[1], 13.0); // mean of 9..18
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let mut p = Pool2d::new(PoolKind::Max, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::full(&[1, 1, 1, 1], 5.0));
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_backward_distributes_uniformly() {
        let mut p = Pool2d::new(PoolKind::Avg, 2, 2);
        let x = Tensor::<f32>::zeros(&[1, 1, 2, 2]);
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::full(&[1, 1, 1, 1], 8.0));
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_backward_distributes_uniformly() {
        let mut p = Pool2d::global_avg();
        let x = Tensor::<f32>::zeros(&[1, 1, 2, 2]);
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::full(&[1, 1, 1, 1], 8.0));
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn overlapping_stride_pools() {
        let mut p = Pool2d::new(PoolKind::Max, 3, 2);
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }
}
