//! INT8 activation codes: the one f32→INT8 activation pass, shared by the
//! predictor and the mixed-precision convolution.

use crate::SensitivityPredictor;
use drq_quant::QuantParams;
use drq_tensor::{Shape4, Tensor};
use std::ops::Range;

/// The INT8 codes of NCHW feature maps and the parameters they were
/// quantized under.
///
/// In the paper's datapath (Section III-B) the predictor reads the same
/// INT8 activations the PE array multiplies, so each feature map is
/// quantized once. Here too: [`RegionSums`](crate::RegionSums) sums these
/// codes into masks, and [`MixedPrecisionConv`](crate::MixedPrecisionConv)
/// splits the same codes into its INT8 and INT4 planes. The parameters
/// are max-abs over the whole input tensor
/// ([`SensitivityPredictor::activation_params`]), so every image of a
/// request shares them.
///
/// # Examples
///
/// ```
/// use drq_core::Int8Codes;
/// use drq_tensor::Tensor;
///
/// let x = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32 - 2.0);
/// let codes = Int8Codes::quantize(&x);
/// // Max-abs 5.0 maps to 127.
/// assert_eq!(codes.image(1), &[51, 76, 102, 127]);
/// assert_eq!(codes.params().scale(), 5.0 / 127.0);
/// // Image 1 alone, under the same batch-wide parameters.
/// assert_eq!(Int8Codes::quantize_images(&x, 1..2).image(0), codes.image(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Codes {
    shape: Shape4,
    params: QuantParams,
    codes: Vec<i8>,
}

impl Int8Codes {
    /// Fits the INT8 parameters over `x` and quantizes every image.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4.
    pub fn quantize(x: &Tensor<f32>) -> Self {
        let n = x.shape4().expect("activation codes need a rank-4 input").n;
        Self::quantize_images(x, 0..n)
    }

    /// Fits the INT8 parameters over all of `x`, then quantizes only the
    /// images in `images`: image `i` of the result is image
    /// `images.start + i` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or `images` is not a range of its
    /// images.
    pub fn quantize_images(x: &Tensor<f32>, images: Range<usize>) -> Self {
        let s = x.shape4().expect("activation codes need a rank-4 input");
        assert!(images.start <= images.end && images.end <= s.n, "image range out of bounds");
        let params = SensitivityPredictor::activation_params(x);
        let len = s.c * s.h * s.w;
        let values = &x.as_slice()[images.start * len..images.end * len];
        // INT8 codes lie in [-128, 127], so the cast is exact.
        let codes = values.iter().map(|&v| params.quantize_value(v) as i8).collect();
        Self { shape: Shape4::new(images.len(), s.c, s.h, s.w), params, codes }
    }

    /// The shape of the quantized maps.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// The INT8 parameters the codes were quantized under.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The codes of image `n`, `[c, h, w]` flattened.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn image(&self, n: usize) -> &[i8] {
        let len = self.shape.c * self.shape.h * self.shape.w;
        &self.codes[n * len..(n + 1) * len]
    }
}
