//! Benchmark harness for the DRQ reproduction.
//!
//! Each table and figure of the paper's evaluation has a dedicated binary
//! under `src/bin/` (see `DESIGN.md` for the experiment index), plus the
//! `kernel_microbench` timing binary. This library hosts the
//! shared harness utilities: table rendering, run configuration, the
//! Table III per-network DRQ operating points, the Fig. 14/15 sweep
//! points and the dataflow traffic model of the ablation study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod harness;
pub mod sweep;

pub use harness::{
    network_operating_point, paper_networks, render_table, ObservabilityArgs, RunScale,
};
pub use sweep::{best_point, sweep_report, SweepPoint};
