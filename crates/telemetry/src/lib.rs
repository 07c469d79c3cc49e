//! Structured observability for the DRQ reproduction.
//!
//! Three pieces, composable and dependency-free:
//!
//! - a hierarchical [`MetricsRegistry`] (counters / gauges / histograms)
//!   with a process-global instance behind the zero-cost-when-disabled
//!   [`counter_add!`], [`gauge_set!`] and [`observe!`] macros,
//! - a [`Tracer`] that records span/event streams with *simulated-cycle*
//!   timestamps and serializes them as JSON lines,
//! - a schema-versioned [`Report`] — the single serialization shape every
//!   metrics producer (simulator, training loop, DSE sweeps, bench
//!   binaries, CLI) writes, so artifacts are diffable across runs.
//!
//! Determinism contract: reports built from deterministic inputs serialize
//! byte-for-byte identically ([`Json`] objects are insertion-ordered,
//! floats use shortest-round-trip formatting), and recording is strictly
//! write-only — enabling collection can never change a simulated result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod registry;
mod report;
mod trace;

pub use json::{Json, JsonParseError};
pub use registry::{
    disable, enable, enabled, global, reset, snapshot, Histogram,
    MetricsRegistry, WallClockScope,
};
pub use report::{Report, ReportParseError, SCHEMA_NAME, SCHEMA_VERSION};
pub use trace::{TraceEvent, Tracer, NO_FIELDS};
