//! Quantization library for the DRQ reproduction.
//!
//! Implements everything Sections II, III and V of the paper need from a
//! quantizer:
//!
//! * [`Precision`] — the INT4/INT8/INT16 bit-widths the accelerators use;
//! * [`QuantParams`] — symmetric linear quantization with round-to-nearest,
//!   plus [`QuantParams::fit`] to calibrate a scale from data;
//! * [`Quantizer`] — the trait every scheme implements (static params,
//!   per-call max-abs, per-channel weights, outlier-aware), so consumers
//!   never match on concrete quantizer types;
//! * [`quantize`]/[`dequantize`]/[`fake_quantize`] — tensor-level transforms
//!   (fake quantization runs the forward path in f32 while injecting exactly
//!   the rounding error real integer hardware would, which is how the paper
//!   evaluates NN accuracy in TensorFlow);
//! * [`noise`] — the Section II segment-noise methodology (patterns such as
//!   "TFF" that perturb only chosen magnitude segments of a feature map);
//! * [`outlier`] — the OLAccel-style outlier-aware weight quantization used
//!   as the state-of-the-art static baseline.
//!
//! # Examples
//!
//! ```
//! use drq_quant::{fake_quantize, Precision, QuantParams};
//! use drq_tensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![0.1, -0.7, 0.5], &[3]).unwrap();
//! let params = QuantParams::fit(x.as_slice(), Precision::Int8);
//! let xq = fake_quantize(&x, &params);
//! // INT8 keeps values within half a step of the original.
//! for (a, b) in x.as_slice().iter().zip(xq.as_slice()) {
//!     assert!((a - b).abs() <= params.scale() / 2.0 + 1e-6);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
pub mod noise;
pub mod outlier;
mod precision;
mod qparams;
mod quantize;
mod quantizer;
mod range;

pub use calibrate::Calibration;
pub use noise::{NoiseInjector, SegmentPattern, SegmentSplit};
pub use outlier::{OutlierQuantizer, OutlierStats};
pub use precision::Precision;
pub use qparams::QuantParams;
pub use quantize::{dequantize, fake_quantize, fake_quantize_per_channel, quantize};
pub use quantizer::{MaxAbsQuantizer, PerChannelQuantizer, Quantizer};
pub use range::{analyze_gemm, AccumWidth, RangeAnalysis};
