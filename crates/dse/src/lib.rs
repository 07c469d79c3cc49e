//! # drq-dse — design-space exploration
//!
//! The one crate that explores the DRQ design space. It holds two
//! explorers:
//!
//! * [`explore()`] — the paper's Section III-D trial-and-error loop
//!   (Table III): start from large values and halve the threshold or the
//!   region size until a measured accuracy target is met.
//! * [`pareto`] — a branch-and-bound Pareto search over the combinatorial
//!   space the paper's nine-point threshold grid (Fig. 14) only samples:
//!   array geometry × precision mix (region threshold drives the INT4/INT8
//!   split) × region shape × buffer sizing.
//!
//! The Pareto search is built from:
//!
//! * [`pareto::CandidateSpace`] — the typed, sorted candidate grid; every
//!   candidate has a stable integer index (mixed-radix over the four axes).
//! * [`pareto::ParetoFront`] — an incremental front over
//!   (accuracy ↑, latency-cycles ↓, energy-pJ ↓) with dominated-candidate
//!   eviction.
//! * [`pareto::ParetoSearch`] — the seeded, resumable driver: a
//!   deterministic stack of index hypercubes, dominated-region cutting
//!   against per-box optimistic bounds, and leaf batches evaluated on the
//!   `drq_tensor::parallel` pool. The first evaluator failure stops the
//!   run with a typed error that names the candidate.
//! * [`pareto::SimSpaceEval`] — the simulator-backed evaluator: one
//!   [`drq_sim::SharedSession`] shared across all candidates and workers.
//!
//! Every search state serializes to a schema-versioned `kind:"pareto"`
//! report whose bytes are a pure function of `(space, seed, batch)` — a
//! killed search resumes from the artifact and converges to the identical
//! bytes (see `tests/pareto.rs` at the workspace root).

mod explore;
pub mod pareto;

pub use explore::{explore, DseOutcome, Evaluator};
pub use pareto::{
    dominates, strictly_dominates, Candidate, CandidateBox, CandidateEval, CandidateSpace,
    FrontMember, Geometry, InsertOutcome, Objectives, ParetoFront, ParetoSearch, ResumedSearch,
    SearchStatus, SimSpaceEval, PARETO_KIND,
};
