//! Cross-request continuous batching: serve's side of the one layer walk.
//!
//! A *group* is one EDF-critical request plus any compatible queued
//! requests (same dataset → same model and input geometry; never poison)
//! coalesced by [`crate::queue::AdmissionQueue::pop_group`]. The group
//! runs through the model together on drq-nn's group walk
//! ([`drq_nn::Network::walk_group`]), with drq-core's DRQ executor at the
//! convolutions:
//!
//! * Convolutions run as **one [`drq_core::MixedPrecisionConv::forward`]
//!   call** per layer over every live member. Each member's input is
//!   quantized once, over its own tensor, and its masks are summed from
//!   those codes (all INT8 in degraded mode), so every member's output is
//!   bit-identical to running it alone (the differential suite pins this).
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
use crate::ServeError;
use drq_core::{ConvOpCounts, DrqExecutor};
use drq_nn::{Conv2d, Group, GroupWalk, WalkPoint};
use drq_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};

/// One request's execution state inside a group.
#[derive(Default)]
pub(crate) struct Member {
    /// Virtual cycle at which this member's budget expires.
    pub expiry_cycle: u64,
    /// Accumulated INT4/INT8 MAC split.
    pub counts: ConvOpCounts,
    /// This member's own virtual-cycle cost (the reply's `cycles`).
    pub cost: u64,
    /// Set once the member has failed (deadline/cancel); the walk drops
    /// it, the caller delivers the error after the group finishes.
    pub failed: Option<ServeError>,
}

/// Marker: the engine was crashed mid-group. Members must be salvaged
/// for rerouting, not answered.
pub(crate) struct Crashed;

/// One group's run of the walk: the DRQ executor at the convolutions,
/// and the per-layer hook that checks each boundary and bills each layer.
pub(crate) struct GroupRun<'a> {
    /// The group's members, in slot order.
    pub members: Vec<Member>,
    pub exec: DrqExecutor<'a>,
    pub clock: &'a CycleClock,
    pub hard_stop: &'a AtomicBool,
    pub crashed: &'a AtomicBool,
    /// Set once a boundary found the engine crashed: the walk stopped.
    pub stopped: bool,
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

impl GroupRun<'_> {
    /// The layer-boundary cancellation point: a crash stops the whole
    /// group; the hard stop or a member's own deadline fails that member.
    fn checkpoint(&mut self, group: &mut [Option<Tensor<f32>>]) {
        if self.crashed.load(Ordering::SeqCst) {
            self.stopped = true;
            group.iter_mut().for_each(|y| *y = None);
            return;
        }
        let hard_stop = self.hard_stop.load(Ordering::SeqCst);
        let now = self.clock.now();
        for (m, y) in self.members.iter_mut().zip(group) {
            if y.is_none() {
                continue;
            }
            if hard_stop {
                m.failed = Some(ServeError::Cancelled {
                    detail: "shutdown drain deadline".to_string(),
                });
            } else if now > m.expiry_cycle {
                m.failed = Some(ServeError::DeadlineExpired { phase: "layer" });
            } else {
                continue;
            }
            *y = None;
        }
    }

    /// Bills each live member `cost(member, output)` and advances the
    /// shared clock by the group's total.
    fn bill(
        members: &mut [Member],
        clock: &CycleClock,
        group: &[Option<Tensor<f32>>],
        mut cost: impl FnMut(usize, &mut Member, &Tensor<f32>) -> u64,
    ) {
        let mut advance = 0u64;
        for (i, (m, y)) in members.iter_mut().zip(group).enumerate() {
            if let Some(y) = y {
                let c = cost(i, m, y);
                m.cost += c;
                advance += c;
            }
        }
        clock.advance(advance);
    }
}

impl GroupWalk for GroupRun<'_> {
    fn conv(&mut self, conv_index: usize, conv: &Conv2d, group: &[Option<Tensor<f32>>]) -> Group {
        let out = self.exec.conv(conv_index, conv, group);
        let stats = &self.exec.stats;
        Self::bill(&mut self.members, self.clock, &out, |i, m, _| {
            let counts = stats[i].layers.last().expect("the conv ran on every live member").counts;
            m.counts.merge(counts);
            conv_cost(counts)
        });
        out
    }

    fn hook(&mut self, point: WalkPoint, group: &mut [Option<Tensor<f32>>]) {
        match point {
            WalkPoint::Boundary => self.checkpoint(group),
            WalkPoint::Layer => {
                Self::bill(&mut self.members, self.clock, group, |_, _, y| cheap_cost(y.len()))
            }
        }
    }
}
