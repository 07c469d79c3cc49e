//! `drq-testkit`: the in-tree property-based differential testing harness.
//!
//! The workspace's headline correctness claims — region-wise INT4/INT8
//! execution is numerically equivalent to fp32 under a bounded error, and
//! the fast compute/simulation paths agree with slow reference
//! implementations — need systematic evidence across the shape/precision
//! space, not just hand-picked examples. This crate supplies the workhorse
//! (std-only; the external `proptest`/`rand` crates were removed in PR 1):
//!
//! * **seeded generators** ([`gen`], [`cases`]) built on the in-tree
//!   [`XorShiftRng`]: tensor shapes, NCHW tensors under adversarial value
//!   distributions (denormals, ± huge magnitudes, outlier-heavy), conv
//!   layer geometries, quantizer configs, DRQ region masks and systolic
//!   input streams;
//! * **greedy shrinking** ([`shrink`]): failing cases are minimized before
//!   being reported, so a red run prints the smallest geometry the harness
//!   could find that still fails;
//! * **a deterministic runner** ([`TestKit`]): every case derives from a
//!   printable seed, `DRQ_TESTKIT_SEED`/`DRQ_TESTKIT_CASES` replay any
//!   failure exactly, and property panics are captured (not just `Err`
//!   returns) so shrinking survives `assert!`s inside the library under
//!   test;
//! * **reference oracles** ([`reference`](mod@reference)): naive
//!   triple-loop GEMM and convolution (bit-exact against the blocked/parallel kernels), an exact
//!   `i64` integer-GEMM oracle with wrapping- and saturating-`i32` views
//!   (the integer GEMM kernels are judged against the wrapping view at
//!   every depth), the mixed-precision conv as a scalar tap loop (the
//!   bit-exact oracle for `MixedPrecisionConv::forward`), its
//!   quantization-error bound, and the closed-form cycle/stall model of
//!   the variable-speed systolic array;
//! * **the PE-level exact tier** ([`exact`]): the register-transfer model
//!   of the DRQ accelerator (multi-precision PE, variable-speed systolic
//!   array with fault injection, PE page, line-buffer packing and the
//!   pooling-fused predictor), the reference `drq-sim`'s one cycle model
//!   is checked against.
//!
//! The integration suite `tests/differential.rs` at the workspace root
//! wires these into the standing correctness gate every perf PR must pass.
//!
//! # Examples
//!
//! ```
//! use drq_testkit::TestKit;
//!
//! let kit = TestKit::from_env("doc-example");
//! kit.check(
//!     "addition commutes",
//!     |rng| (rng.next_f32(), rng.next_f32()),
//!     |&(a, b)| vec![(0.0, b), (a, 0.0)],
//!     |&(a, b)| {
//!         if a + b == b + a {
//!             Ok(())
//!         } else {
//!             Err("addition does not commute".into())
//!         }
//!     },
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod exact;
pub mod gen;
pub mod reference;
pub mod runner;
pub mod shrink;

pub use drq_tensor::XorShiftRng;
pub use gen::ValueDist;
pub use runner::{thread_count_lock, TestKit};
