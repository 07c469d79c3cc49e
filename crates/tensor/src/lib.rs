//! Dense NCHW tensor substrate for the DRQ reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace: a dense, row-major, owned [`Tensor`] generic over a small
//! set of element types ([`Element`]), convolution-friendly layout helpers
//! ([`Shape4`]), the `im2col`/`col2im` transforms used both by the software
//! convolution in `drq-nn` and by the line-buffer model of the accelerator
//! simulator, and assorted reductions and statistics (percentiles drive the
//! segment analysis of Section II of the paper).
//!
//! # Examples
//!
//! ```
//! use drq_tensor::{Tensor, Shape4};
//!
//! # fn main() -> Result<(), drq_tensor::ShapeError> {
//! let x = Tensor::<f32>::zeros(&[1, 3, 8, 8]);
//! assert_eq!(x.len(), 3 * 64);
//! let s = Shape4::try_from(x.shape())?;
//! assert_eq!(s.c, 3);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: two scoped exemptions. The integer GEMM
// tier's `core::arch` micro-kernels (int_ops::simd), each call guarded by
// runtime feature detection; and the worker pool's `Pool::run`
// (parallel.rs), which lends a section's work to its helper threads and
// waits for all of them before it returns or unwinds.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod error;
mod im2col;
mod init;
mod int_ops;
mod ops;
pub mod parallel;
mod shape;
mod stats;
mod tensor;

pub use element::Element;
pub use error::ShapeError;
pub use im2col::{
    col2im_accumulate, col2im_accumulate_into, im2col, im2col_into, Im2ColLayout,
    IM2COL_PAR_MIN_ELEMS,
};
pub use init::{he_normal, uniform, XorShiftRng};
pub use int_ops::{
    int4_matmul, int8_matmul, int8_matmul_reference, int8_matmul_wide, int_gemm_indirect,
    int_gemm_indirect_wide, int_kernel_name, Int4Packed, PackedLhs,
};
pub use ops::{gemm, gemm_at, matmul, matmul_reference, Rhs};
pub use shape::{conv_out_dim, try_conv_out_dim, Shape4};
pub use stats::percentile;
pub use tensor::Tensor;
