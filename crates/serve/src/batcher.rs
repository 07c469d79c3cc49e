//! Cross-request continuous batching: layer-by-layer group execution.
//!
//! A *group* is one EDF-critical request plus any compatible queued
//! requests (same dataset → same model and input geometry; never poison)
//! coalesced by [`crate::queue::AdmissionQueue::pop_group`]. The group
//! walks the network together, layer by layer:
//!
//! * Convolutions run as **one [`MixedPrecisionConv::forward`] call** per
//!   layer over every live member — activation quantization stays
//!   per-request, so every member's output is bit-identical to running it
//!   alone (the differential suite pins this).
//! * Non-conv layers loop per member (they are memory-bound; there is no
//!   shared kernel to win).
//! * Every layer boundary is a cancellation point: the whole group checks
//!   the shutdown hard-stop and the engine crash flag, and each member
//!   checks its own deadline — an expired member drops out of the group
//!   mid-flight without disturbing the others.
//!
//! Execution cost is tracked **per member** (each member's reply reports
//! its own virtual-cycle cost, identical at any worker count or group
//! shape), while the shared engine clock advances by the group's total so
//! deadline pressure reflects real work done.

use crate::clock::CycleClock;
use crate::plan_cache::PlanCache;
use crate::protocol::{ExecMode, InferRequest};
use crate::ServeError;
use drq_core::{
    uniform_masks, CoalesceInput, ConvOpCounts, ConvPlan, DrqConfig, MaskMap, MixedPrecisionConv,
    SensitivityPredictor,
};
use drq_nn::{Conv2d, Layer};
use drq_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One request's execution state inside a group.
pub(crate) struct Member {
    /// The admitted request (identity, dataset, seeds).
    pub request: InferRequest,
    /// Virtual cycle at which this member's budget expires.
    pub expiry_cycle: u64,
    /// Current activation tensor (input → logits as layers run).
    pub y: Tensor<f32>,
    /// Accumulated INT4/INT8 MAC split.
    pub counts: ConvOpCounts,
    /// This member's own virtual-cycle cost (the reply's `cycles`).
    pub cost: u64,
    /// Set once the member has failed (deadline/cancel); later layers
    /// skip it, the caller delivers the error after the group finishes.
    pub failed: Option<ServeError>,
}

/// Marker: the engine was crashed mid-group. Members must be salvaged
/// for rerouting, not answered.
pub(crate) struct Crashed;

/// Shared execution context for one group run.
pub(crate) struct GroupCtx<'a> {
    pub clock: &'a CycleClock,
    pub hard_stop: &'a AtomicBool,
    pub crashed: &'a AtomicBool,
    pub drq: DrqConfig,
    /// Fingerprint of `drq` for the input-mask cache key.
    pub config_fp: u64,
    pub mode: ExecMode,
    /// Conv count of the model (depth-schedule denominator).
    pub total_convs: usize,
    /// Prepared per-conv plans, traversal order (from the plan cache).
    pub plans: &'a [ConvPlan],
    /// The shared plan cache (layer-0 mask reuse).
    pub cache: &'a PlanCache,
    /// Index of the next convolution in traversal order.
    pub conv_index: usize,
    /// True until any layer has run: member `y` is still the raw seeded
    /// input, so layer-0 masks may come from the cache.
    pub at_input: bool,
}

/// Virtual cost of a convolution: INT4-equivalent MACs over an assumed
/// 64-lane array, minimum one cycle.
pub(crate) fn conv_cost(counts: ConvOpCounts) -> u64 {
    counts.int4_equivalent_ops() / 64 + 1
}

/// Virtual cost of a non-conv layer: one cycle per 64 output elements.
pub(crate) fn cheap_cost(elements: usize) -> u64 {
    elements as u64 / 64 + 1
}

/// The layer-boundary cancellation point: group-wide crash/hard-stop,
/// per-member deadline.
fn checkpoint(members: &mut [Member], ctx: &GroupCtx<'_>) -> Result<(), Crashed> {
    if ctx.crashed.load(Ordering::SeqCst) {
        return Err(Crashed);
    }
    let hard_stop = ctx.hard_stop.load(Ordering::SeqCst);
    let now = ctx.clock.now();
    for m in members.iter_mut() {
        if m.failed.is_some() {
            continue;
        }
        if hard_stop {
            m.failed = Some(ServeError::Cancelled {
                detail: "shutdown drain deadline".to_string(),
            });
        } else if now > m.expiry_cycle {
            m.failed = Some(ServeError::DeadlineExpired { phase: "layer" });
        }
    }
    Ok(())
}

/// Runs `members` through `layers` as one group. Residual blocks recurse
/// so their inner convolutions are boundaries (and coalesce) too.
pub(crate) fn run_group(
    layers: &mut [Layer],
    members: &mut [Member],
    ctx: &mut GroupCtx<'_>,
) -> Result<(), Crashed> {
    for layer in layers.iter_mut() {
        checkpoint(members, ctx)?;
        if members.iter().all(|m| m.failed.is_some()) {
            return Ok(());
        }
        match layer {
            Layer::Conv2d(conv) => run_conv(conv, members, ctx),
            Layer::Residual(block) => {
                // Stash each live member's block input for the shortcut.
                let inputs: Vec<Option<Tensor<f32>>> = members
                    .iter()
                    .map(|m| m.failed.is_none().then(|| m.y.clone()))
                    .collect();
                run_group(block.main_mut(), members, ctx)?;
                if block.shortcut().is_empty() {
                    finish_residual(members, ctx, inputs.into_iter());
                } else {
                    // Swap main outputs out, run the shortcut over the
                    // stashed inputs, then add.
                    let mains: Vec<Option<Tensor<f32>>> = members
                        .iter_mut()
                        .zip(inputs)
                        .map(|(m, input)| match (m.failed.is_none(), input) {
                            (true, Some(input)) => Some(std::mem::replace(&mut m.y, input)),
                            _ => None,
                        })
                        .collect();
                    run_group(block.shortcut_mut(), members, ctx)?;
                    finish_residual(members, ctx, mains.into_iter());
                }
            }
            other => {
                let mut advance = 0u64;
                for m in members.iter_mut() {
                    if m.failed.is_some() {
                        continue;
                    }
                    m.y = other.forward(&m.y, false);
                    let c = cheap_cost(m.y.len());
                    m.cost += c;
                    advance += c;
                }
                ctx.clock.advance(advance);
            }
        }
        ctx.at_input = false;
    }
    checkpoint(members, ctx)?;
    Ok(())
}

/// Adds the stashed residual operand back onto each live member.
fn finish_residual(
    members: &mut [Member],
    ctx: &GroupCtx<'_>,
    stashed: impl Iterator<Item = Option<Tensor<f32>>>,
) {
    let mut advance = 0u64;
    for (m, other) in members.iter_mut().zip(stashed) {
        if m.failed.is_some() {
            continue;
        }
        let Some(other) = other else { continue };
        m.y = other
            .zip_map(&m.y, |a, b| a + b)
            .expect("residual shape mismatch");
        let c = cheap_cost(m.y.len());
        m.cost += c;
        advance += c;
    }
    ctx.clock.advance(advance);
}

/// One convolution layer for the whole group: per-member masks, then a
/// single mixed-conv call over every live member.
fn run_conv(conv: &Conv2d, members: &mut [Member], ctx: &mut GroupCtx<'_>) {
    let conv_idx = ctx.conv_index;
    ctx.conv_index += 1;
    let plan = ctx.plans.get(conv_idx);
    let alive: Vec<usize> = members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.failed.is_none())
        .map(|(i, _)| i)
        .collect();
    if alive.is_empty() {
        return;
    }
    let s = members[alive[0]].y.shape4().expect("conv input must be rank 4");
    let masks: Vec<Arc<Vec<Vec<MaskMap>>>> = match ctx.mode {
        ExecMode::Mixed => {
            let depth = conv_idx as f64 / ctx.total_convs as f64;
            let layer_cfg = ctx.drq.for_layer(s.h, s.w, depth);
            let predictor = SensitivityPredictor::new(layer_cfg.region, layer_cfg.threshold);
            alive
                .iter()
                .map(|&i| {
                    let m = &members[i];
                    let build = || predictor.predict_batch(&m.y);
                    if ctx.at_input {
                        // Layer-0 masks are a pure function of the seeded
                        // input and the config — shared across workers.
                        ctx.cache.input_masks(
                            m.request.dataset,
                            m.request.sample_seed,
                            m.request.batch,
                            ctx.config_fp,
                            build,
                        )
                    } else {
                        Arc::new(build())
                    }
                })
                .collect()
        }
        ExecMode::Uniform8 => alive
            .iter()
            .map(|&i| {
                let ms = members[i].y.shape4().expect("conv input must be rank 4");
                Arc::new(uniform_masks(ms, true))
            })
            .collect(),
    };
    let inputs: Vec<CoalesceInput<'_>> = alive
        .iter()
        .zip(&masks)
        .map(|(&i, m)| CoalesceInput { x: &members[i].y, masks: m })
        .collect();
    let outputs = MixedPrecisionConv::forward(conv, plan, &inputs);
    drop(inputs);
    let mut advance = 0u64;
    for (&i, (out, counts)) in alive.iter().zip(outputs) {
        let m = &mut members[i];
        m.y = out;
        m.counts.merge(counts);
        let c = conv_cost(counts);
        m.cost += c;
        advance += c;
    }
    ctx.clock.advance(advance);
}
