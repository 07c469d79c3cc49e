//! Baseline accelerator models: Eyeriss, BitFusion and OLAccel.
//!
//! Every comparison point of the paper's Figs. 11–13 is reproduced here:
//!
//! * [`Eyeriss`] — 224 INT16 MACs, row-stationary dataflow, coarse-grained
//!   INT16 quantization throughout (the accuracy reference);
//! * [`BitFusion`] — 3168 fusable INT4 MACs run fused as INT8 (the paper's
//!   comparison configuration), layer-wise static quantization;
//! * [`OlAccel`] — 2448 INT4 + 51 INT16 MACs, static outlier-aware weight
//!   quantization, first layer on the INT16 units, GPU-style register-file
//!   operand fetches;
//! * the [`Accelerator`] trait unifies them with the DRQ simulator so the
//!   benchmark harness can sweep all four;
//! * [`schemes`] evaluates each accelerator's *quantization scheme* on the
//!   trained stand-in networks for the accuracy axis of Fig. 11/13; a
//!   static scheme fake-quantizes each conv's weights and input with one
//!   drq-quant call apiece.
//!
//! All three baselines share the iso-area budget of Table II and the same
//! energy coefficient set as the DRQ simulator, so differences come from
//! architecture, not calibration.
//!
//! # Examples
//!
//! ```
//! use drq_baselines::{Accelerator, Eyeriss, BitFusion, OlAccel};
//! use drq_models::zoo;
//!
//! let net = zoo::lenet5();
//! let e = Eyeriss::new().simulate(&net, 1);
//! let b = BitFusion::new().simulate(&net, 1);
//! // More, smaller MACs: BitFusion outruns Eyeriss.
//! assert!(b.total_cycles < e.total_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitfusion;
mod eyeriss;
mod olaccel;
mod report;
pub mod schemes;

pub use bitfusion::BitFusion;
pub use eyeriss::Eyeriss;
pub use olaccel::OlAccel;
pub use report::{paper_lineup, AccelReport, Accelerator};
pub use schemes::{evaluate_scheme, QuantScheme, SchemeResult};
