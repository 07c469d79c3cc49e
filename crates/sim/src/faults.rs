//! Deterministic fault injection for the cycle-accurate simulator.
//!
//! The DRQ story is that trading precision for speed does not corrupt
//! results; a robustness study needs the converse experiment — what happens
//! when the *hardware model* misbehaves. This module provides a seeded,
//! replayable fault layer:
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
//! A [`FaultPlan`] (seed + site-targeted rate rules, JSON-serializable)
//! configures a run; a [`FaultInjector`] draws fault events from the plan's
//! own `XorShiftRng` stream — the same generator the testkit uses — so a
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
use drq_telemetry::Json;
use drq_tensor::XorShiftRng;

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

    /// Parses a schema name back into a site.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
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

/// One rule of a fault plan: a site, a per-opportunity rate, and optional
/// targeting (fixed bit, layer-name filter, event cap).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The hardware site this rule attacks.
    pub site: FaultSite,
    /// Probability that one opportunity (one MAC, one nibble, one burst,
    /// one cycle) faults, in `[0, 1]`.
    pub rate: f64,
    /// Fixed bit index to corrupt; `None` draws a bit uniformly from the
    /// site's word width per event.
    pub bit: Option<u32>,
    /// Restrict the rule to a layer name (network-level simulation only;
    /// the exact array simulator has no layer identity and applies every
    /// rule).
    pub layer: Option<String>,
    /// Stop firing after this many events (`None` = unbounded).
    pub max_events: Option<u64>,
}

impl FaultRule {
    /// A rule attacking `site` at `rate` with no further targeting.
    pub fn new(site: FaultSite, rate: f64) -> Self {
        Self { site, rate, bit: None, layer: None, max_events: None }
    }

    /// Pins the corrupted bit index.
    pub fn with_bit(mut self, bit: u32) -> Self {
        self.bit = Some(bit);
        self
    }

    /// Restricts the rule to one layer name.
    pub fn with_layer(mut self, layer: impl Into<String>) -> Self {
        self.layer = Some(layer.into());
        self
    }

    /// Caps the number of events the rule may fire.
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    fn to_json(&self) -> Json {
        let mut entries = vec![
            ("site".to_string(), Json::str(self.site.name())),
            ("rate".to_string(), Json::F64(self.rate)),
        ];
        if let Some(bit) = self.bit {
            entries.push(("bit".to_string(), Json::U64(bit as u64)));
        }
        if let Some(layer) = &self.layer {
            entries.push(("layer".to_string(), Json::str(layer)));
        }
        if let Some(n) = self.max_events {
            entries.push(("max_events".to_string(), Json::U64(n)));
        }
        Json::Object(entries)
    }

    fn from_json(v: &Json) -> Result<FaultRule, SimError> {
        let bad = |detail: String| SimError::FaultPlan { detail };
        let entries = match v {
            Json::Object(entries) => entries,
            _ => return Err(bad("each rule must be an object".into())),
        };
        for (key, _) in entries {
            if !matches!(key.as_str(), "site" | "rate" | "bit" | "layer" | "max_events") {
                return Err(bad(format!("unknown rule key '{key}'")));
            }
        }
        let site_name = v
            .get("site")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("rule is missing a 'site' string".into()))?;
        let site = FaultSite::from_name(site_name)
            .ok_or_else(|| bad(format!("unknown fault site '{site_name}'")))?;
        let rate = v
            .get("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("rule is missing a numeric 'rate'".into()))?;
        let bit = match v.get("bit") {
            None | Some(Json::Null) => None,
            Some(b) => Some(
                b.as_u64()
                    .and_then(|b| u32::try_from(b).ok())
                    .ok_or_else(|| bad("'bit' must be a small non-negative integer".into()))?,
            ),
        };
        let layer = match v.get("layer") {
            None | Some(Json::Null) => None,
            Some(l) => Some(
                l.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("'layer' must be a string".into()))?,
            ),
        };
        let max_events = match v.get("max_events") {
            None | Some(Json::Null) => None,
            Some(n) => Some(
                n.as_u64()
                    .ok_or_else(|| bad("'max_events' must be a non-negative integer".into()))?,
            ),
        };
        Ok(FaultRule { site, rate, bit, layer, max_events })
    }
}

/// A complete fault-injection configuration: an RNG seed plus rules.
///
/// Serialized as `{"seed": <u64>, "rules": [<rule>, ...]}` where each rule
/// is `{"site": <name>, "rate": <0..1>, "bit"?: <u32>, "layer"?: <string>,
/// "max_events"?: <u64>}`.
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
/// # let _ = FaultRule::new(FaultSite::StallCycle, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault-event RNG stream (independent of the simulation's
    /// feature-map seed).
    pub seed: u64,
    /// The rules, applied independently per opportunity.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The no-fault plan. Runs configured with it are byte-identical to
    /// unfaulted runs.
    pub fn empty() -> Self {
        Self { seed: 0, rules: Vec::new() }
    }

    /// A small fixed plan for smoke testing (used by `drq faults` and CI):
    /// sparse stall noise plus exactly one accumulator bit flip. Rates are
    /// chosen so each rule fires a handful of times even on a network as
    /// small as LeNet-5 — a smoke run that injects nothing proves nothing.
    pub fn smoke() -> Self {
        Self {
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

    /// Whether the plan has no rules (every rule list is consulted lazily,
    /// so an empty plan injects nothing and costs nothing).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Checks every rule: rates must be finite and in `[0, 1]`, fixed bits
    /// must fit the site's word width.
    pub fn validate(&self) -> Result<(), SimError> {
        for (i, r) in self.rules.iter().enumerate() {
            if !r.rate.is_finite() || !(0.0..=1.0).contains(&r.rate) {
                return Err(SimError::FaultPlan {
                    detail: format!(
                        "rule {i} ({}): rate {} outside [0, 1]",
                        r.site.name(),
                        r.rate
                    ),
                });
            }
            if let Some(bit) = r.bit {
                if bit >= r.site.bit_width() {
                    return Err(SimError::FaultPlan {
                        detail: format!(
                            "rule {i} ({}): bit {bit} exceeds the site's {}-bit word",
                            r.site.name(),
                            r.site.bit_width()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Serializes the plan to its JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("rules", Json::arr(self.rules.iter().map(FaultRule::to_json))),
        ])
    }

    /// Builds a validated plan from a parsed JSON value.
    pub fn from_json(v: &Json) -> Result<FaultPlan, SimError> {
        let bad = |detail: String| SimError::FaultPlan { detail };
        let entries = match v {
            Json::Object(entries) => entries,
            _ => return Err(bad("fault plan must be a JSON object".into())),
        };
        for (key, _) in entries {
            if !matches!(key.as_str(), "seed" | "rules") {
                return Err(bad(format!("unknown fault-plan key '{key}'")));
            }
        }
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| bad("'seed' must be a non-negative integer".into()))?,
        };
        let rules = match v.get("rules") {
            None => Vec::new(),
            Some(Json::Array(items)) => items
                .iter()
                .map(FaultRule::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(bad("'rules' must be an array".into())),
        };
        let plan = FaultPlan { seed, rules };
        plan.validate()?;
        Ok(plan)
    }

    /// Parses and validates a plan from JSON text.
    pub fn parse(text: &str) -> Result<FaultPlan, SimError> {
        let v = Json::parse(text).map_err(|e| SimError::FaultPlan { detail: e.to_string() })?;
        FaultPlan::from_json(&v)
    }
}

/// Per-site event counts accumulated by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Accumulator bit flips.
    pub pe_accumulator: u64,
    /// Weight-register bit flips.
    pub pe_weight_register: u64,
    /// Feature-register bit flips.
    pub pe_activation_register: u64,
    /// Stuck-at line-buffer nibbles.
    pub line_buffer_stuck_at: u64,
    /// Dropped DRAM bursts.
    pub dram_burst_drop: u64,
    /// Duplicated DRAM bursts.
    pub dram_burst_duplicate: u64,
    /// Spurious stall cycles.
    pub stall_cycle: u64,
}

impl FaultCounters {
    fn slot(&mut self, site: FaultSite) -> &mut u64 {
        match site {
            FaultSite::PeAccumulator => &mut self.pe_accumulator,
            FaultSite::PeWeightRegister => &mut self.pe_weight_register,
            FaultSite::PeActivationRegister => &mut self.pe_activation_register,
            FaultSite::LineBufferStuckAt => &mut self.line_buffer_stuck_at,
            FaultSite::DramBurstDrop => &mut self.dram_burst_drop,
            FaultSite::DramBurstDuplicate => &mut self.dram_burst_duplicate,
            FaultSite::StallCycle => &mut self.stall_cycle,
        }
    }

    /// This site's event count.
    pub fn count(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::PeAccumulator => self.pe_accumulator,
            FaultSite::PeWeightRegister => self.pe_weight_register,
            FaultSite::PeActivationRegister => self.pe_activation_register,
            FaultSite::LineBufferStuckAt => self.line_buffer_stuck_at,
            FaultSite::DramBurstDrop => self.dram_burst_drop,
            FaultSite::DramBurstDuplicate => self.dram_burst_duplicate,
            FaultSite::StallCycle => self.stall_cycle,
        }
    }

    /// Total events across all sites.
    pub fn total(&self) -> u64 {
        FaultSite::ALL.into_iter().map(|s| self.count(s)).sum()
    }

    /// Serializes the counters as a schema object (site name → count).
    pub fn to_json(&self) -> Json {
        let mut entries: Vec<(String, Json)> = FaultSite::ALL
            .into_iter()
            .map(|s| (s.name().to_string(), Json::U64(self.count(s))))
            .collect();
        entries.push(("total".to_string(), Json::U64(self.total())));
        Json::Object(entries)
    }
}

struct RuleState {
    rule: FaultRule,
    fired: u64,
}

impl RuleState {
    fn exhausted(&self) -> bool {
        matches!(self.rule.max_events, Some(cap) if self.fired >= cap)
    }

    fn remaining(&self) -> u64 {
        match self.rule.max_events {
            Some(cap) => cap.saturating_sub(self.fired),
            None => u64::MAX,
        }
    }
}

/// Draws fault events from a [`FaultPlan`]'s seeded RNG stream and counts
/// what fired.
///
/// Determinism contract: event draws depend only on the plan and the
/// (deterministic, sequential) order of injection opportunities, never on
/// wall-clock time or thread count.
pub struct FaultInjector {
    rng: XorShiftRng,
    rules: Vec<RuleState>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector after validating the plan.
    pub fn new(plan: &FaultPlan) -> Result<FaultInjector, SimError> {
        plan.validate()?;
        Ok(FaultInjector {
            rng: XorShiftRng::new(plan.seed),
            rules: plan
                .rules
                .iter()
                .map(|r| RuleState { rule: r.clone(), fired: 0 })
                .collect(),
            counters: FaultCounters::default(),
        })
    }

    /// Whether any rule targets `site` (lets hot paths skip fault plumbing
    /// entirely when a site is unused).
    pub fn targets(&self, site: FaultSite) -> bool {
        self.rules.iter().any(|r| r.rule.site == site && !r.exhausted())
    }

    /// Event counts so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// One injection opportunity at `site` (optionally inside layer
    /// `layer`): returns the bit index to corrupt if a rule fires.
    ///
    /// Each matching, non-exhausted rule consumes exactly one RNG draw, so
    /// replaying the same plan over the same opportunity sequence
    /// reproduces the same events bit-for-bit.
    pub fn draw_bit(&mut self, site: FaultSite, layer: Option<&str>) -> Option<u32> {
        let mut hit: Option<Option<u32>> = None;
        let mut fired = false;
        for rs in &mut self.rules {
            if rs.rule.site != site || rs.exhausted() {
                continue;
            }
            if let (Some(want), Some(have)) = (&rs.rule.layer, layer) {
                if want != have {
                    continue;
                }
            } else if rs.rule.layer.is_some() && layer.is_none() {
                continue;
            }
            // Always burn the draw — keeps the stream aligned whether or
            // not this opportunity fires.
            let roll = self.rng.next_f64();
            if roll < rs.rule.rate && hit.is_none() {
                rs.fired += 1;
                hit = Some(rs.rule.bit);
                fired = true;
            }
        }
        if fired {
            *self.counters.slot(site) += 1;
        }
        hit.map(|bit| match bit {
            Some(b) => b,
            None => self.rng.next_below(site.bit_width() as usize) as u32,
        })
    }

    /// Bulk sampling for `opportunities` independent chances at `site`
    /// (network-level simulation, where per-MAC draws would be absurd).
    /// Returns the number of events, using the expected count plus one
    /// Bernoulli draw on the fractional part; caps respect `max_events`.
    pub fn draw_count(
        &mut self,
        site: FaultSite,
        layer: Option<&str>,
        opportunities: u64,
    ) -> u64 {
        let mut events = 0u64;
        for rs in &mut self.rules {
            if rs.rule.site != site || rs.exhausted() || opportunities == 0 {
                continue;
            }
            if let (Some(want), Some(have)) = (&rs.rule.layer, layer) {
                if want != have {
                    continue;
                }
            } else if rs.rule.layer.is_some() && layer.is_none() {
                continue;
            }
            let expected = rs.rule.rate * opportunities as f64;
            let whole = expected.floor();
            let frac = expected - whole;
            // One draw per (rule, bulk opportunity set), always consumed.
            let extra = u64::from(self.rng.next_f64() < frac);
            let n = (whole as u64 + extra)
                .min(opportunities)
                .min(rs.remaining());
            rs.fired += n;
            events += n;
        }
        *self.counters.slot(site) += events;
        events
    }
}

/// Flips `bit` (0..8) of an 8-bit signed value held in an `i32`, staying in
/// the signed 8-bit domain.
pub(crate) fn flip_bit8(v: i32, bit: u32) -> i32 {
    debug_assert!(bit < 8, "bit {bit} outside the 8-bit word");
    ((v as i8) ^ (1i8 << bit)) as i32
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
                    .with_layer("conv1")
                    .with_max_events(3),
                FaultRule::new(FaultSite::StallCycle, 0.001),
            ],
        };
        let text = plan.to_json().to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn plan_validation_rejects_bad_rates_and_bits() {
        for bad in [
            r#"{"rules": [{"site": "stall_cycle", "rate": 1.5}]}"#,
            r#"{"rules": [{"site": "stall_cycle", "rate": -0.1}]}"#,
            r#"{"rules": [{"site": "pe_weight_register", "rate": 0.1, "bit": 8}]}"#,
            r#"{"rules": [{"site": "warp_core_breach", "rate": 0.1}]}"#,
            r#"{"rules": [{"site": "stall_cycle"}]}"#,
            r#"{"rules": [{"site": "stall_cycle", "rate": 0.1, "typo": 1}]}"#,
            r#"{"bogus_key": 1}"#,
            r#"not json"#,
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(matches!(err, SimError::FaultPlan { .. }), "{bad}");
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan {
            seed: 7,
            rules: vec![FaultRule::new(FaultSite::PeWeightRegister, 0.3)],
        };
        let run = || {
            let mut inj = FaultInjector::new(&plan).unwrap();
            (0..200)
                .map(|_| inj.draw_bit(FaultSite::PeWeightRegister, None))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_events_caps_firing() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new(FaultSite::PeAccumulator, 1.0).with_max_events(2)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let fired = (0..10)
            .filter(|_| inj.draw_bit(FaultSite::PeAccumulator, None).is_some())
            .count();
        assert_eq!(fired, 2);
        assert_eq!(inj.counters().pe_accumulator, 2);
        assert!(!inj.targets(FaultSite::PeAccumulator));
    }

    #[test]
    fn layer_filters_apply() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new(FaultSite::StallCycle, 1.0).with_layer("conv2")],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.draw_count(FaultSite::StallCycle, Some("conv1"), 100), 0);
        assert_eq!(inj.draw_count(FaultSite::StallCycle, None, 100), 0);
        assert_eq!(inj.draw_count(FaultSite::StallCycle, Some("conv2"), 100), 100);
    }

    #[test]
    fn bulk_count_tracks_expectation() {
        let plan = FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new(FaultSite::DramBurstDrop, 0.01)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let n = inj.draw_count(FaultSite::DramBurstDrop, None, 1_000_000);
        assert!((9_000..=11_000).contains(&n), "{n}");
        assert_eq!(inj.counters().dram_burst_drop, n);
        assert_eq!(inj.counters().total(), n);
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
    fn flip_bit8_stays_in_domain() {
        for v in -128..=127 {
            for bit in 0..8 {
                let flipped = flip_bit8(v, bit);
                assert!((-128..=127).contains(&flipped), "v={v} bit={bit}");
                assert_eq!(flip_bit8(flipped, bit), v);
            }
        }
    }

    #[test]
    fn smoke_plan_is_valid_and_nonempty() {
        let plan = FaultPlan::smoke();
        assert!(plan.validate().is_ok());
        assert!(!plan.is_empty());
    }

    #[test]
    fn counters_serialize_every_site() {
        let c = FaultCounters { stall_cycle: 4, ..Default::default() };
        let j = c.to_json();
        for site in FaultSite::ALL {
            assert!(j.get(site.name()).is_some(), "{}", site.name());
        }
        assert_eq!(j.get("total").and_then(Json::as_u64), Some(4));
    }
}
