//! Deterministic fault injection for the cycle-accurate simulator.
//!
//! The DRQ story is that trading precision for speed does not corrupt
//! results; a robustness study needs the converse experiment — what happens
//! when the *hardware model* misbehaves. This module supplies the hardware
//! fault sites to the seeded fault-plan engine of `drq-store`:
//!
//! * single-bit flips in PE accumulators and weight/activation registers
//!   ([`FaultSite::PeAccumulator`], [`FaultSite::PeWeightRegister`],
//!   [`FaultSite::PeActivationRegister`]),
//! * stuck-at-1 bits in packed line-buffer nibbles
//!   ([`FaultSite::LineBufferStuckAt`]),
//! * dropped / duplicated DRAM bursts ([`FaultSite::DramBurstDrop`],
//!   [`FaultSite::DramBurstDuplicate`]),
//! * spurious stall cycles ([`FaultSite::StallCycle`]).
//!
//! A [`FaultPlan`] (seed + site-targeted rate rules, JSON-serializable,
//! rules filtered by `"layer"`) configures a run; a [`FaultInjector`]
//! draws fault events from the plan's own `XorShiftRng` stream, so a
//! faulted run is a pure function of `(inputs, plan)` and replays exactly
//! on any thread or worker count. An **empty plan is zero-cost**: the
//! un-faulted code paths never consult the injector, and a
//! [`crate::SimSession`] armed with one short-circuits to the ordinary
//! simulation, byte-identical output included.
//!
//! A plan whose `seed` is `0` does not pin its own stream: the session
//! derives a fault seed from the session seed via a reserved stream index
//! (see [`crate::partition::stream_seed`]), so one seed governs the whole
//! run. Any non-zero plan seed is left untouched, which keeps archived
//! plan files replaying bit-for-bit regardless of the session seed.

use crate::SimError;
use drq_store::FaultSiteKind;

/// Where in the modeled hardware a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit flip in a column accumulator (one (column, step) partial sum).
    PeAccumulator,
    /// Bit flip in a PE's weight register for one MAC.
    PeWeightRegister,
    /// Bit flip in a PE's feature register for one MAC.
    PeActivationRegister,
    /// Stuck-at-1 bit in a packed line-buffer nibble.
    LineBufferStuckAt,
    /// A DRAM burst is dropped and must be refetched.
    DramBurstDrop,
    /// A DRAM burst is delivered twice.
    DramBurstDuplicate,
    /// A spurious one-cycle pipeline stall.
    StallCycle,
}

impl FaultSite {
    /// Every site, in schema order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::PeAccumulator,
        FaultSite::PeWeightRegister,
        FaultSite::PeActivationRegister,
        FaultSite::LineBufferStuckAt,
        FaultSite::DramBurstDrop,
        FaultSite::DramBurstDuplicate,
        FaultSite::StallCycle,
    ];

    /// The snake-case schema name used in fault-plan JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PeAccumulator => "pe_accumulator",
            FaultSite::PeWeightRegister => "pe_weight_register",
            FaultSite::PeActivationRegister => "pe_activation_register",
            FaultSite::LineBufferStuckAt => "line_buffer_stuck_at",
            FaultSite::DramBurstDrop => "dram_burst_drop",
            FaultSite::DramBurstDuplicate => "dram_burst_duplicate",
            FaultSite::StallCycle => "stall_cycle",
        }
    }

    /// Width in bits of the word this site corrupts (bit indices in rules
    /// must stay below this).
    pub fn bit_width(self) -> u32 {
        match self {
            FaultSite::PeAccumulator => 64,
            FaultSite::PeWeightRegister | FaultSite::PeActivationRegister => 8,
            FaultSite::LineBufferStuckAt => 4,
            // Burst and stall faults are events, not bit corruptions.
            FaultSite::DramBurstDrop
            | FaultSite::DramBurstDuplicate
            | FaultSite::StallCycle => 1,
        }
    }
}

// Delegates to the inherent items, which callers use without importing
// the trait.
impl FaultSiteKind for FaultSite {
    type Error = SimError;
    const ALL: &'static [Self] = &FaultSite::ALL;
    const TARGET_KEY: &'static str = "layer";

    fn name(self) -> &'static str {
        FaultSite::name(self)
    }

    fn bit_width(self) -> u32 {
        FaultSite::bit_width(self)
    }

    /// A rule scoped to a layer matches that layer name exactly.
    fn target_matches(layer: &str, opportunity_layer: &str) -> bool {
        layer == opportunity_layer
    }
}

/// A hardware fault plan: `{"seed": <u64>, "rules": [<rule>, ...]}` where
/// each rule is `{"site": <name>, "rate": <0..1>, "bit"?: <u32>,
/// "layer"?: <string>, "max_events"?: <u64>}`.
///
/// # Examples
///
/// ```
/// use drq_sim::{FaultPlan, FaultRule, FaultSite};
///
/// let plan = FaultPlan::parse(
///     r#"{"seed": 7, "rules": [{"site": "pe_accumulator", "rate": 1.0,
///         "bit": 3, "max_events": 1}]}"#,
/// )
/// .unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.rules[0].site, FaultSite::PeAccumulator);
/// assert!(FaultPlan::empty().is_empty());
/// # let _ = FaultRule::new(FaultSite::StallCycle, 0.5).with_target("conv1");
/// ```
pub type FaultPlan = drq_store::FaultPlan<FaultSite>;
/// One rule of a [`FaultPlan`]; its `target` is a layer name (network-level
/// simulation only — the exact array simulator in `drq_testkit::exact` has
/// no layer identity, so a layer-scoped rule never fires there).
pub type FaultRule = drq_store::FaultRule<FaultSite>;
/// Per-site event counts of a [`FaultInjector`].
pub type FaultCounters = drq_store::FaultCounters<FaultSite>;
/// Draws hardware fault events from a [`FaultPlan`]'s seeded stream.
pub type FaultInjector = drq_store::FaultInjector<FaultSite>;

/// A small fixed plan for smoke testing (used by `drq faults` and CI):
/// sparse stall noise plus exactly one accumulator bit flip. Rates are
/// chosen so each rule fires a handful of times even on a network as
/// small as LeNet-5 — a smoke run that injects nothing proves nothing.
pub fn smoke_fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        rules: vec![
            FaultRule::new(FaultSite::StallCycle, 5e-3),
            FaultRule::new(FaultSite::PeAccumulator, 1e-4)
                .with_bit(17)
                .with_max_events(1),
            FaultRule::new(FaultSite::DramBurstDrop, 5e-3),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan {
            seed: 99,
            rules: vec![
                FaultRule::new(FaultSite::PeAccumulator, 0.25)
                    .with_bit(5)
                    .with_target("conv1")
                    .with_max_events(3),
                FaultRule::new(FaultSite::StallCycle, 0.001),
            ],
        };
        let text = plan.to_json().to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn plan_validation_rejects_bits_past_the_word_and_store_keys() {
        for bad in [
            r#"{"rules": [{"site": "pe_weight_register", "rate": 0.1, "bit": 8}]}"#,
            r#"{"rules": [{"site": "line_buffer_stuck_at", "rate": 0.1, "bit": 4}]}"#,
            r#"{"rules": [{"site": "stall_cycle", "rate": 0.1, "path_substr": "a"}]}"#,
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(matches!(err, SimError::FaultPlan { .. }), "{bad}");
        }
    }

    #[test]
    fn layer_filters_apply() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new(FaultSite::StallCycle, 1.0).with_target("conv2")],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.draw_count(FaultSite::StallCycle, Some("conv1"), 100), 0);
        assert_eq!(inj.draw_count(FaultSite::StallCycle, Some("conv2_1"), 100), 0);
        assert_eq!(inj.draw_count(FaultSite::StallCycle, None, 100), 0);
        assert_eq!(inj.draw_count(FaultSite::StallCycle, Some("conv2"), 100), 100);
    }

    #[test]
    fn fixed_bit_is_respected_and_random_bits_fit_width() {
        let plan = FaultPlan {
            seed: 5,
            rules: vec![FaultRule::new(FaultSite::PeActivationRegister, 1.0).with_bit(6)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.draw_bit(FaultSite::PeActivationRegister, None), Some(6));

        let plan = FaultPlan {
            seed: 5,
            rules: vec![FaultRule::new(FaultSite::LineBufferStuckAt, 1.0)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        for _ in 0..50 {
            let bit = inj.draw_bit(FaultSite::LineBufferStuckAt, None).unwrap();
            assert!(bit < 4, "{bit}");
        }
    }

    #[test]
    fn smoke_plan_is_valid_and_nonempty() {
        let plan = smoke_fault_plan();
        assert!(plan.validate().is_ok());
        assert!(!plan.is_empty());
    }
}
