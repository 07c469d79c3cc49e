//! Hostile-input properties of the text parsers a user reaches directly:
//! the fault-plan parser (`drq sim --fault-plan`, `drq faults --plan`) for
//! both site sets, and the serve request parser (`drq serve`).
//!
//! Two claims, over truncations, wrong value types per key, integers past
//! the `u32`/`u64` edges, `1e999`, negative zero and nesting deep enough
//! to overflow an unbounded recursive parser:
//!
//! 1. every input yields `Ok` or a typed error — never a panic or abort;
//! 2. every accepted plan round-trips: `to_json` → `parse` → `to_json`
//!    reproduces the same bytes and the same plan.
//!
//! Case count is `DRQ_TESTKIT_CASES` (default 64; CI runs 256).

use drq::serve::{parse_request, ServeError};
use drq::sim::{FaultPlan, FaultSite, SimError};
use drq::store::{FaultSiteKind, IoFaultPlan, IoFaultSite, StoreError};
use drq_testkit::cases::{HostileEdit, HostileTextCase, HOSTILE_TEMPLATES, HOSTILE_VALUES};
use drq_testkit::TestKit;

fn kit() -> TestKit {
    TestKit::from_env("hostile_input")
}

/// Parses `text` as a plan over site set `S`; an accepted plan must
/// re-serialize to bytes that parse back to the same plan and bytes.
fn plan_round_trips<S: FaultSiteKind>(
    text: &str,
    typed: impl Fn(&S::Error) -> bool,
) -> Result<(), String>
where
    S::Error: std::fmt::Debug,
{
    match drq::store::FaultPlan::<S>::parse(text) {
        Err(e) if typed(&e) => Ok(()),
        Err(e) => Err(format!("untyped rejection {e:?}")),
        Ok(plan) => {
            let once = plan.to_json().to_string();
            let again = drq::store::FaultPlan::<S>::parse(&once)
                .map_err(|e| format!("re-parse of {once} failed: {e:?}"))?;
            let twice = again.to_json().to_string();
            if again != plan || twice != once {
                return Err(format!("round trip drifted: {once} -> {twice}"));
            }
            Ok(())
        }
    }
}

/// Both claims for one case's text, against all three parsers.
fn holds_both_claims(c: &HostileTextCase) -> Result<(), String> {
    let text = c.text();
    plan_round_trips::<FaultSite>(&text, |e| matches!(e, SimError::FaultPlan { .. }))?;
    plan_round_trips::<IoFaultSite>(&text, |e| matches!(e, StoreError::FaultPlan { .. }))?;
    match parse_request(&text) {
        Ok(_) | Err(ServeError::BadRequest { .. }) => Ok(()),
        Err(e) => Err(format!("request rejected with an untyped error {e:?}")),
    }
}

#[test]
fn hostile_text_never_panics_and_accepted_plans_round_trip() {
    kit().check(
        "hostile plan and request text",
        HostileTextCase::arbitrary,
        HostileTextCase::shrink,
        holds_both_claims,
    );
}

/// Every single-entry edit of every template, exhaustively: random cases
/// alone reach a given (entry, value) pair only rarely.
#[test]
fn every_single_entry_edit_of_every_template_holds_both_claims() {
    let check = |c: HostileTextCase| holds_both_claims(&c).unwrap_or_else(|e| panic!("{c:?}: {e}"));
    for (template, text) in HOSTILE_TEMPLATES.iter().enumerate() {
        for edit in 0..HostileEdit::ALL.len() {
            for entry in 0..8 {
                for choice in 0..HOSTILE_VALUES.len() {
                    check(HostileTextCase { template, edit, entry, choice, cut: 0 });
                }
            }
        }
        for cut in 0..text.len() {
            check(HostileTextCase { template, edit: 1, entry: 0, choice: 0, cut });
        }
    }
}

#[test]
fn unmutated_templates_are_accepted_by_their_parser() {
    let keep = |template| HostileTextCase { template, edit: 0, entry: 0, choice: 0, cut: 0 };
    assert!(FaultPlan::parse(&keep(0).text()).is_ok());
    assert!(IoFaultPlan::parse(&keep(1).text()).is_ok());
    assert!(parse_request(&keep(2).text()).is_ok());
    assert!(parse_request(&keep(3).text()).is_ok());
}
