//! The PE-level exact tier of the DRQ accelerator: a register-transfer
//! reference that the simulator's one cycle model
//! ([`drq_sim::LayerCycleModel`]) and the algorithm's mixed-precision conv
//! are checked against.
//!
//! * [`MultiPrecisionPe`] — the dual-mode PE of Fig. 8: one INT4 MAC per
//!   cycle, or an INT8 MAC assembled from four 4×4 sub-products;
//! * [`SystolicArray`] — the variable-speed weight-stationary array of
//!   Fig. 7(b), including the stall propagation between columns and
//!   seeded fault injection ([`SystolicArray::simulate_faulted`]) over
//!   `drq-sim`'s [`drq_sim::FaultSite`]s;
//! * [`PageSimulator`] — one PE page running a whole small conv layer tile
//!   by tile through [`SubKernelPlan`], [`Im2ColEngine`], the array and
//!   the dual-buffered [`OutputBuffer`];
//! * [`PackedStream`] — the line buffer's dense 4/8-bit packing;
//! * [`predict_via_pooling`] — the pooling-fused predictor of Figs. 9–10.
//!
//! Nothing here runs in a production path: the tier is slow on purpose and
//! exists to be compared against.

mod im2col_engine;
mod line_buffer;
mod output_buffer;
mod page;
mod pe;
mod predictor;
mod systolic;

pub use im2col_engine::Im2ColEngine;
pub use line_buffer::PackedStream;
pub use output_buffer::{OutputBuffer, SubKernelPlan};
pub use page::{PageSimulator, PageTrace};
pub use pe::MultiPrecisionPe;
pub use predictor::predict_via_pooling;
pub use systolic::{SimTrace, StreamElement, SystolicArray};
