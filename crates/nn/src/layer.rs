//! The layer enumeration and uniform dispatch.

use crate::{BatchNorm2d, Conv2d, Flatten, Linear, Pool2d, ReLU, ResidualBlock};
use drq_tensor::Tensor;

/// Discriminant of a [`Layer`], used for reporting and for locating the
/// convolution layers the DRQ algorithm instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d,
    /// Fully connected.
    Linear,
    /// ReLU activation.
    ReLU,
    /// Batch normalization.
    BatchNorm,
    /// Windowed or global pooling.
    Pool,
    /// Flatten to matrix.
    Flatten,
    /// Residual block (main path + shortcut).
    Residual,
}

/// A network layer. Enum dispatch keeps the framework simple and lets the
/// quantization crates pattern-match on convolutions directly.
///
/// # Examples
///
/// ```
/// use drq_nn::{Conv2d, Layer, LayerKind};
///
/// let layer = Layer::from(Conv2d::new(3, 8, 3, 1, 1, 1));
/// assert_eq!(layer.kind(), LayerKind::Conv2d);
/// assert!(layer.as_conv().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected.
    Linear(Linear),
    /// ReLU activation.
    ReLU(ReLU),
    /// Batch normalization.
    BatchNorm(BatchNorm2d),
    /// Pooling.
    Pool(Pool2d),
    /// Flatten.
    Flatten(Flatten),
    /// Residual block.
    Residual(ResidualBlock),
}

impl Layer {
    /// The layer's kind discriminant.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Conv2d(_) => LayerKind::Conv2d,
            Layer::Linear(_) => LayerKind::Linear,
            Layer::ReLU(_) => LayerKind::ReLU,
            Layer::BatchNorm(_) => LayerKind::BatchNorm,
            Layer::Pool(_) => LayerKind::Pool,
            Layer::Flatten(_) => LayerKind::Flatten,
            Layer::Residual(_) => LayerKind::Residual,
        }
    }

    /// Returns the inner convolution if this is a [`Layer::Conv2d`].
    pub fn as_conv(&self) -> Option<&Conv2d> {
        match self {
            Layer::Conv2d(c) => Some(c),
            _ => None,
        }
    }

    /// Forward pass through whichever layer this is.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        match self {
            Layer::Conv2d(l) => l.forward(x, train),
            Layer::Linear(l) => l.forward(x, train),
            Layer::ReLU(l) => l.forward(x, train),
            Layer::BatchNorm(l) => l.forward(x, train),
            Layer::Pool(l) => l.forward(x, train),
            Layer::Flatten(l) => l.forward(x, train),
            Layer::Residual(l) => l.forward(x, train),
        }
    }

    /// Backward pass; returns the input gradient.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        match self {
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::ReLU(l) => l.backward(grad_out),
            Layer::BatchNorm(l) => l.backward(grad_out),
            Layer::Pool(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
            Layer::Residual(l) => l.backward(grad_out),
        }
    }

    /// Zeroes any accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv2d(l) => l.zero_grad(),
            Layer::Linear(l) => l.zero_grad(),
            Layer::BatchNorm(l) => l.zero_grad(),
            Layer::Residual(l) => l.zero_grad(),
            Layer::ReLU(_) | Layer::Pool(_) | Layer::Flatten(_) => {}
        }
    }

    /// Visits every `(param, grad)` pair in a stable, deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        match self {
            Layer::Conv2d(l) => l.visit_params(f),
            Layer::Linear(l) => l.visit_params(f),
            Layer::BatchNorm(l) => l.visit_params(f),
            Layer::Residual(l) => l.visit_params(f),
            Layer::ReLU(_) | Layer::Pool(_) | Layer::Flatten(_) => {}
        }
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}
impl From<Linear> for Layer {
    fn from(l: Linear) -> Self {
        Layer::Linear(l)
    }
}
impl From<ReLU> for Layer {
    fn from(l: ReLU) -> Self {
        Layer::ReLU(l)
    }
}
impl From<BatchNorm2d> for Layer {
    fn from(l: BatchNorm2d) -> Self {
        Layer::BatchNorm(l)
    }
}
impl From<Pool2d> for Layer {
    fn from(l: Pool2d) -> Self {
        Layer::Pool(l)
    }
}
impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}
impl From<ResidualBlock> for Layer {
    fn from(l: ResidualBlock) -> Self {
        Layer::Residual(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_variant() {
        assert_eq!(Layer::from(ReLU::new()).kind(), LayerKind::ReLU);
        assert_eq!(Layer::from(Flatten::new()).kind(), LayerKind::Flatten);
        assert_eq!(Layer::from(Conv2d::new(1, 1, 1, 1, 0, 1)).kind(), LayerKind::Conv2d);
    }

    #[test]
    fn as_conv_filters_non_convolutions() {
        let conv = Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1));
        assert!(conv.as_conv().is_some());
        let relu = Layer::from(ReLU::new());
        assert!(relu.as_conv().is_none());
    }

    #[test]
    fn param_visit_counts() {
        let mut conv = Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1));
        let mut count = 0;
        conv.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 2); // weight + bias
        let mut relu = Layer::from(ReLU::new());
        let mut count = 0;
        relu.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 0);
    }
}
