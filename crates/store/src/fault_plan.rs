//! The seeded fault-plan engine shared by the simulator and the artifact
//! store.
//!
//! A [`FaultPlan`] is `(seed, rules)`: each [`FaultRule`] names a site, a
//! per-opportunity rate, an optional pinned bit, an optional target filter
//! and an optional event cap. A [`FaultInjector`] draws fault events from
//! the plan's own `XorShiftRng` stream — the same generator the testkit
//! uses — and counts what fired in [`FaultCounters`].
//!
//! The engine is generic over a [`FaultSiteKind`], which supplies the site
//! names, their word widths and the target filter: `drq_sim::FaultSite`
//! (hardware sites, filtered by `"layer"` equality) and
//! [`crate::IoFaultSite`] (storage primitives, filtered by
//! `"path_substr"` containment). Both site sets share one JSON schema,
//! one validation and one draw rule; [`FaultInjector`] states the
//! determinism contract.

use drq_telemetry::Json;
use drq_tensor::XorShiftRng;
use std::fmt;
use std::marker::PhantomData;

/// A set of fault sites the engine can plan over.
pub trait FaultSiteKind: Copy + Eq + fmt::Debug + 'static {
    /// The error the plan's constructors return, built from the engine's
    /// [`FaultPlanError`].
    type Error: From<FaultPlanError>;

    /// Every site, in schema order.
    const ALL: &'static [Self];

    /// The JSON key of a rule's target filter.
    const TARGET_KEY: &'static str;

    /// The snake-case schema name used in plan JSON and reports.
    fn name(self) -> &'static str;

    /// Width in bits of the word the site corrupts; pinned bits must stay
    /// below it, and a width of 0 means the site takes no `bit`.
    fn bit_width(self) -> u32;

    /// Whether a rule's target `filter` matches an opportunity's `target`.
    fn target_matches(filter: &str, target: &str) -> bool;
}

/// Why a fault plan was rejected. Each site set converts it into its own
/// crate error (`SimError::FaultPlan`, `StoreError::FaultPlan`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// What was wrong with the plan.
    pub detail: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for FaultPlanError {}

fn bad(detail: String) -> FaultPlanError {
    FaultPlanError { detail }
}

/// One rule of a fault plan: a site, a per-opportunity rate, and optional
/// targeting (pinned bit, target filter, event cap).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule<S> {
    /// The site this rule attacks.
    pub site: S,
    /// Probability that one opportunity faults, in `[0, 1]`.
    pub rate: f64,
    /// Pinned bit index to corrupt; `None` draws one uniformly from the
    /// site's word width per event.
    pub bit: Option<u32>,
    /// Restricts the rule to opportunities whose target the filter matches
    /// (serialized under the site set's [`FaultSiteKind::TARGET_KEY`]).
    /// An opportunity without a target matches only unfiltered rules.
    pub target: Option<String>,
    /// Stop firing after this many events (`None` = unbounded).
    pub max_events: Option<u64>,
}

impl<S: FaultSiteKind> FaultRule<S> {
    /// A rule attacking `site` at `rate` with no further targeting.
    pub fn new(site: S, rate: f64) -> Self {
        Self { site, rate, bit: None, target: None, max_events: None }
    }

    /// Pins the corrupted bit index.
    pub fn with_bit(mut self, bit: u32) -> Self {
        self.bit = Some(bit);
        self
    }

    /// Restricts the rule to one target (a layer name, a path substring).
    pub fn with_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
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
        if let Some(target) = &self.target {
            entries.push((S::TARGET_KEY.to_string(), Json::str(target)));
        }
        if let Some(n) = self.max_events {
            entries.push(("max_events".to_string(), Json::U64(n)));
        }
        Json::Object(entries)
    }

    fn from_json(v: &Json) -> Result<Self, FaultPlanError> {
        let Json::Object(entries) = v else {
            return Err(bad("each rule must be an object".into()));
        };
        for (key, _) in entries {
            if !matches!(key.as_str(), "site" | "rate" | "bit" | "max_events")
                && key != S::TARGET_KEY
            {
                return Err(bad(format!("unknown rule key '{key}'")));
            }
        }
        let site_name = v
            .get("site")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("rule is missing a 'site' string".into()))?;
        let site = S::ALL
            .iter()
            .copied()
            .find(|s| s.name() == site_name)
            .ok_or_else(|| bad(format!("unknown fault site '{site_name}'")))?;
        let rate = v
            .get("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("rule is missing a numeric 'rate'".into()))?;
        if site.bit_width() == 0 && v.get("bit").is_some() {
            return Err(bad(format!("site '{site_name}' takes no 'bit'")));
        }
        let bit = match v.get("bit") {
            None | Some(Json::Null) => None,
            Some(b) => Some(
                b.as_u64()
                    .and_then(|b| u32::try_from(b).ok())
                    .ok_or_else(|| bad("'bit' must be a small non-negative integer".into()))?,
            ),
        };
        let target = match v.get(S::TARGET_KEY) {
            None | Some(Json::Null) => None,
            Some(t) => Some(t.as_str().map(str::to_string).ok_or_else(|| {
                bad(format!("'{}' must be a string", S::TARGET_KEY))
            })?),
        };
        let max_events = match v.get("max_events") {
            None | Some(Json::Null) => None,
            Some(n) => Some(n.as_u64().ok_or_else(|| {
                bad("'max_events' must be a non-negative integer".into())
            })?),
        };
        Ok(FaultRule { site, rate, bit, target, max_events })
    }
}

/// A complete fault-injection configuration: an RNG seed plus rules.
///
/// Serialized as `{"seed": <u64>, "rules": [<rule>, ...]}` where each rule
/// is `{"site": <name>, "rate": <0..1>, "bit"?: <u32>, <target key>?:
/// <string>, "max_events"?: <u64>}`. Unknown keys are errors, not
/// warnings — a typo'd rule must not silently never fire.
///
/// # Examples
///
/// ```
/// use drq_store::{IoFaultPlan, IoFaultRule, IoFaultSite};
///
/// let plan = IoFaultPlan::parse(
///     r#"{"seed": 7, "rules": [{"site": "torn_write", "rate": 1.0,
///         "path_substr": "front.json", "max_events": 1}]}"#,
/// )
/// .unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.rules[0].site, IoFaultSite::TornWrite);
/// assert_eq!(plan.rules[0].target.as_deref(), Some("front.json"));
/// assert!(IoFaultPlan::empty().is_empty());
/// # let _ = IoFaultRule::new(IoFaultSite::FsyncFail, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan<S> {
    /// Seed of the fault-event RNG stream.
    pub seed: u64,
    /// The rules, consulted in order at each injection opportunity.
    pub rules: Vec<FaultRule<S>>,
}

impl<S: FaultSiteKind> FaultPlan<S> {
    /// The no-fault plan.
    pub fn empty() -> Self {
        Self { seed: 0, rules: Vec::new() }
    }

    /// Whether the plan has no rules (and so injects nothing).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Checks every rule: rates must be finite and in `[0, 1]`, pinned bits
    /// must fit the site's word width.
    ///
    /// # Errors
    ///
    /// The site set's plan error naming the offending rule.
    pub fn validate(&self) -> Result<(), S::Error> {
        Ok(self.check()?)
    }

    fn check(&self) -> Result<(), FaultPlanError> {
        for (i, r) in self.rules.iter().enumerate() {
            let name = r.site.name();
            if !r.rate.is_finite() || !(0.0..=1.0).contains(&r.rate) {
                return Err(bad(format!("rule {i} ({name}): rate {} outside [0, 1]", r.rate)));
            }
            let width = r.site.bit_width();
            if let Some(bit) = r.bit.filter(|&bit| bit >= width) {
                return Err(bad(format!(
                    "rule {i} ({name}): bit {bit} exceeds the site's {width}-bit word"
                )));
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
    ///
    /// # Errors
    ///
    /// The site set's plan error on unknown keys, bad types, unknown
    /// sites, or values out of domain.
    pub fn from_json(v: &Json) -> Result<Self, S::Error> {
        Ok(Self::decode(v)?)
    }

    fn decode(v: &Json) -> Result<Self, FaultPlanError> {
        let Json::Object(entries) = v else {
            return Err(bad("fault plan must be a JSON object".into()));
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
            Some(Json::Array(items)) => {
                items.iter().map(FaultRule::from_json).collect::<Result<Vec<_>, _>>()?
            }
            Some(_) => return Err(bad("'rules' must be an array".into())),
        };
        let plan = FaultPlan { seed, rules };
        plan.check()?;
        Ok(plan)
    }

    /// Parses and validates a plan from JSON text.
    ///
    /// # Errors
    ///
    /// As [`Self::from_json`], plus the plan error on JSON syntax errors.
    pub fn parse(text: &str) -> Result<Self, S::Error> {
        let v = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        Ok(Self::decode(&v)?)
    }
}

/// Per-site event counts accumulated by a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCounters<S> {
    counts: Vec<u64>,
    sites: PhantomData<S>,
}

impl<S: FaultSiteKind> Default for FaultCounters<S> {
    fn default() -> Self {
        Self { counts: vec![0; S::ALL.len()], sites: PhantomData }
    }
}

impl<S: FaultSiteKind> FaultCounters<S> {
    fn slot(site: S) -> usize {
        S::ALL.iter().position(|&s| s == site).expect("site listed in ALL")
    }

    /// This site's event count.
    pub fn count(&self, site: S) -> u64 {
        self.counts[Self::slot(site)]
    }

    /// Total events across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Serializes the counters as a schema object (site name → count, then
    /// `total`).
    pub fn to_json(&self) -> Json {
        let mut entries: Vec<(String, Json)> = S::ALL
            .iter()
            .map(|&s| (s.name().to_string(), Json::U64(self.count(s))))
            .collect();
        entries.push(("total".to_string(), Json::U64(self.total())));
        Json::Object(entries)
    }
}

struct RuleState<S> {
    rule: FaultRule<S>,
    fired: u64,
}

impl<S: FaultSiteKind> RuleState<S> {
    fn remaining(&self) -> u64 {
        self.rule.max_events.map_or(u64::MAX, |cap| cap.saturating_sub(self.fired))
    }

    /// Whether this rule takes part in an opportunity at `site` on
    /// `target`: a filtered rule needs a target its filter matches.
    fn armed_for(&self, site: S, target: Option<&str>) -> bool {
        let matches = match (&self.rule.target, target) {
            (None, _) => true,
            (Some(filter), Some(target)) => S::target_matches(filter, target),
            (Some(_), None) => false,
        };
        self.rule.site == site && self.remaining() > 0 && matches
    }
}

/// Draws fault events from a [`FaultPlan`]'s seeded RNG stream and counts
/// what fired.
///
/// # Determinism
///
/// Replay is a pure function of `(plan, opportunity sequence)`: the same
/// plan consulted over the same sequence of opportunities fires the same
/// events bit-for-bit, independent of wall-clock time and thread count.
/// At each opportunity every matching, non-exhausted rule burns exactly
/// one draw, in plan order, whether or not it fires; a fired event may then
/// draw more (an unpinned bit index, a tear offset). All rules share the
/// one stream, so changing the plan — adding a rule, or pinning a bit that
/// was drawn — shifts the draws of every later opportunity.
pub struct FaultInjector<S> {
    rng: XorShiftRng,
    rules: Vec<RuleState<S>>,
    counters: FaultCounters<S>,
}

impl<S: FaultSiteKind> FaultInjector<S> {
    /// Creates an injector after validating the plan.
    ///
    /// # Errors
    ///
    /// The site set's plan error when the plan fails validation.
    pub fn new(plan: &FaultPlan<S>) -> Result<Self, S::Error> {
        plan.check()?;
        Ok(Self {
            rng: XorShiftRng::new(plan.seed),
            rules: plan.rules.iter().map(|r| RuleState { rule: r.clone(), fired: 0 }).collect(),
            counters: FaultCounters::default(),
        })
    }

    /// Whether any non-exhausted rule targets `site` (lets hot paths skip
    /// fault plumbing entirely when a site is unused).
    pub fn targets(&self, site: S) -> bool {
        self.rules.iter().any(|r| r.rule.site == site && r.remaining() > 0)
    }

    /// Event counts so far.
    pub fn counters(&self) -> FaultCounters<S> {
        self.counters.clone()
    }

    /// One injection opportunity at `site` (on `target`, if the
    /// opportunity has one): whether a rule fires. Every armed rule burns
    /// one draw; the first whose roll clears its rate fires, and the
    /// event counts once. Returns the firing rule's pinned bit.
    fn fire(&mut self, site: S, target: Option<&str>) -> Option<Option<u32>> {
        let mut hit = None;
        for rs in &mut self.rules {
            if !rs.armed_for(site, target) {
                continue;
            }
            // Always burn the draw — the stream position depends only on
            // which rules are armed, not on which of them fire.
            let roll = self.rng.next_f64();
            if roll < rs.rule.rate && hit.is_none() {
                rs.fired += 1;
                hit = Some(rs.rule.bit);
            }
        }
        if hit.is_some() {
            self.counters.counts[FaultCounters::slot(site)] += 1;
        }
        hit
    }

    /// One injection opportunity for an event without a bit index.
    pub fn fires(&mut self, site: S, target: Option<&str>) -> bool {
        self.fire(site, target).is_some()
    }

    /// One injection opportunity for a bit corruption: the bit index to
    /// corrupt if a rule fires — its pinned bit, or one drawn uniformly
    /// from the site's word width.
    pub fn draw_bit(&mut self, site: S, target: Option<&str>) -> Option<u32> {
        let pinned = self.fire(site, target)?;
        Some(pinned.unwrap_or_else(|| self.rng.next_below(site.bit_width() as usize) as u32))
    }

    /// Bulk sampling for `opportunities` independent chances at `site`
    /// (network-level simulation, where per-MAC draws would be absurd).
    /// Each armed rule contributes its expected count plus one Bernoulli
    /// draw on the fractional part, capped by `max_events`. No draw is
    /// made when there are no opportunities.
    pub fn draw_count(&mut self, site: S, target: Option<&str>, opportunities: u64) -> u64 {
        if opportunities == 0 {
            return 0;
        }
        let mut events = 0u64;
        for rs in &mut self.rules {
            if !rs.armed_for(site, target) {
                continue;
            }
            let expected = rs.rule.rate * opportunities as f64;
            let whole = expected.floor();
            let extra = u64::from(self.rng.next_f64() < expected - whole);
            let n = (whole as u64 + extra).min(opportunities).min(rs.remaining());
            rs.fired += n;
            events += n;
        }
        self.counters.counts[FaultCounters::slot(site)] += events;
        events
    }

    /// A uniform draw in `0..n` from the plan stream, for the payload of an
    /// event that just fired (a tear offset, a rotted byte). `n` must be
    /// positive.
    pub fn next_below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoFaultSite;

    type Plan = FaultPlan<IoFaultSite>;
    type Rule = FaultRule<IoFaultSite>;

    #[test]
    fn plan_json_round_trips() {
        let plan = Plan {
            seed: 99,
            rules: vec![
                Rule::new(IoFaultSite::TornWrite, 0.25)
                    .with_target("front.json")
                    .with_max_events(3),
                Rule::new(IoFaultSite::FsyncFail, 0.001),
            ],
        };
        let text = plan.to_json().to_string();
        assert_eq!(Plan::parse(&text).unwrap(), plan);
        assert_eq!(Plan::parse(&text).unwrap().to_json().to_string(), text);
    }

    #[test]
    fn plan_validation_rejects_bad_input() {
        for bad in [
            r#"{"rules": [{"site": "torn_write", "rate": 1.5}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": -0.1}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "bit": 0}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "bit": null}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "layer": "conv1"}]}"#,
            r#"{"rules": [{"site": "warp_core_breach", "rate": 0.1}]}"#,
            r#"{"rules": [{"site": "torn_write"}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "typo": 1}]}"#,
            r#"{"bogus_key": 1}"#,
            r#"not json"#,
        ] {
            let err = Plan::parse(bad).expect_err(bad);
            assert!(matches!(err, crate::StoreError::FaultPlan { .. }), "{bad}");
        }
    }

    #[test]
    fn max_events_caps_firing_and_disarms_the_rule() {
        let plan = Plan {
            seed: 1,
            rules: vec![Rule::new(IoFaultSite::Enospc, 1.0).with_max_events(2)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let fired = (0..10).filter(|_| inj.fires(IoFaultSite::Enospc, Some("a"))).count();
        assert_eq!(fired, 2);
        assert_eq!(inj.counters().count(IoFaultSite::Enospc), 2);
        assert!(!inj.targets(IoFaultSite::Enospc));
    }

    #[test]
    fn target_filters_apply_per_site_set() {
        let plan = Plan {
            seed: 1,
            rules: vec![Rule::new(IoFaultSite::Enospc, 1.0).with_target("front")],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.draw_count(IoFaultSite::Enospc, Some("weights.bin"), 100), 0);
        assert_eq!(inj.draw_count(IoFaultSite::Enospc, None, 100), 0);
        assert_eq!(inj.draw_count(IoFaultSite::Enospc, Some("runs/front.json.tmp"), 100), 100);
    }

    #[test]
    fn bulk_count_tracks_expectation() {
        let plan = Plan { seed: 3, rules: vec![Rule::new(IoFaultSite::BitRot, 0.01)] };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let n = inj.draw_count(IoFaultSite::BitRot, None, 1_000_000);
        assert!((9_000..=11_000).contains(&n), "{n}");
        assert_eq!(inj.counters().count(IoFaultSite::BitRot), n);
        assert_eq!(inj.counters().total(), n);
    }

    #[test]
    fn counters_serialize_every_site() {
        let plan = Plan { seed: 3, rules: vec![Rule::new(IoFaultSite::RenameFail, 1.0)] };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert!(inj.fires(IoFaultSite::RenameFail, Some("a")));
        let j = inj.counters().to_json();
        for site in IoFaultSite::ALL {
            assert!(j.get(site.name()).is_some(), "{}", site.name());
        }
        assert_eq!(j.get("total").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn rules_share_one_stream_so_plan_edits_shift_other_rules() {
        // The determinism contract is replay of one plan, not per-rule
        // stream isolation: an added rule's draws move every later draw.
        let schedule = |rules: Vec<Rule>| {
            let mut inj = FaultInjector::new(&Plan { seed: 7, rules }).unwrap();
            (0..64)
                .map(|_| {
                    inj.fires(IoFaultSite::Enospc, Some("a"));
                    inj.fires(IoFaultSite::FsyncFail, Some("a"))
                })
                .collect::<Vec<_>>()
        };
        let fsync = Rule::new(IoFaultSite::FsyncFail, 0.5);
        let alone = schedule(vec![fsync.clone()]);
        assert_eq!(alone, schedule(vec![fsync.clone()]), "one plan replays");
        let crowded = schedule(vec![Rule::new(IoFaultSite::Enospc, 0.5), fsync]);
        assert_ne!(alone, crowded, "an added rule shifts the fsync rule's draws");
    }
}
