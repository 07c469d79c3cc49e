//! Fault-injection suite: the deterministic fault layer diffed against the
//! clean simulator and the closed-form cycle oracle.
//!
//! Four standing claims:
//!
//! 1. an **empty fault plan is free**: the reliability path produces a
//!    network report byte-identical to the golden metrics file;
//! 2. a **single accumulator bit flip has a blast radius of exactly one
//!    output cell**, differing by exactly the flipped bit, with timing
//!    untouched;
//! 3. **stall faults only stretch time**: faulted cycle counts equal the
//!    closed-form model plus the injected count — the analytic model is a
//!    strict lower bound — and numerics are bit-identical;
//! 4. **seeded runs replay** across invocations and thread counts, and any
//!    property failure prints a `DRQ_TESTKIT_SEED=…` replay hint.
//!
//! Case count is `DRQ_TESTKIT_CASES` (default 64; CI runs 256).

use drq::models::zoo;
use drq::sim::{smoke_fault_plan, ArchConfig, FaultInjector, FaultPlan, FaultRule, FaultSite};
use drq::tensor::parallel;
use drq_testkit::cases::FaultPlanCase;
use drq_testkit::exact::SystolicArray;
use drq_testkit::reference::systolic_analytic;
use drq_testkit::{thread_count_lock, TestKit};

fn kit() -> TestKit {
    TestKit::from_env("fault_injection")
}

// ---------------------------------------------------------------------------
// Claim 1: an empty plan is free
// ---------------------------------------------------------------------------

#[test]
fn empty_plan_network_report_matches_metrics_golden_bytes() {
    let net = zoo::lenet5();
    let accel = ArchConfig::builder().build();
    let rel = accel
        .session(&net)
        .seed(42)
        .faults(FaultPlan::empty())
        .run()
        .unwrap()
        .into_reliability()
        .unwrap();
    assert_eq!(rel.counters.total(), 0);
    assert_eq!(rel.degraded_cycles, rel.baseline_cycles);
    assert_eq!(rel.extra_dram_pj, 0.0);

    let mut got = rel.report.to_report().to_json_string();
    got.push('\n');
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/metrics_lenet5_seed42.json");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); see tests/metrics_golden.rs", path.display())
    });
    assert_eq!(
        got, want,
        "empty fault plan perturbed the network_sim report; the fault layer \
         must be zero-cost when no rules are armed"
    );
}

// ---------------------------------------------------------------------------
// Claim 2: single accumulator flip blast radius
// ---------------------------------------------------------------------------

#[test]
fn single_accumulator_flip_blast_radius_is_one_cell() {
    kit().check(
        "accumulator flip blast radius",
        FaultPlanCase::arbitrary,
        FaultPlanCase::shrink,
        |c| {
            if c.stream.steps == 0 {
                return Ok(()); // shrink candidates may empty the workload
            }
            let (weights, streams) = c.stream.build();
            let array = SystolicArray::new(weights);
            let clean = array.simulate(&streams);
            let bit = c.bit as u32 % FaultSite::PeAccumulator.bit_width();
            let plan = FaultPlan {
                seed: c.plan_seed,
                rules: vec![
                    FaultRule::new(FaultSite::PeAccumulator, 1.0)
                        .with_bit(bit)
                        .with_max_events(1),
                ],
            };
            let mut inj = FaultInjector::new(&plan).map_err(|e| e.to_string())?;
            let faulted = array.simulate_faulted(&streams, &mut inj).map_err(|e| e.to_string())?;
            if inj.counters().count(FaultSite::PeAccumulator) != 1 {
                return Err(format!(
                    "rate-1.0 max-1 rule fired {} times",
                    inj.counters().count(FaultSite::PeAccumulator)
                ));
            }
            if faulted.cycles != clean.cycles {
                return Err("a value fault changed the cycle count".into());
            }
            let diffs: Vec<_> = (0..c.stream.cols)
                .flat_map(|j| (0..c.stream.steps).map(move |t| (j, t)))
                .filter(|&(j, t)| clean.outputs[j][t] != faulted.outputs[j][t])
                .collect();
            if diffs.len() != 1 {
                return Err(format!("blast radius {} cells, expected 1: {diffs:?}", diffs.len()));
            }
            let (j, t) = diffs[0];
            let delta = clean.outputs[j][t] ^ faulted.outputs[j][t];
            if delta != 1i64 << bit {
                return Err(format!(
                    "cell ({j},{t}) differs by 0x{delta:x}, expected bit {bit} alone"
                ));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Claim 3: stall faults vs the closed-form cycle model
// ---------------------------------------------------------------------------

#[test]
fn stall_faulted_cycles_meet_analytic_lower_bound_exactly() {
    kit().check(
        "stall faults vs closed-form cycles",
        FaultPlanCase::arbitrary,
        FaultPlanCase::shrink,
        |c| {
            if c.stream.steps == 0 {
                return Ok(());
            }
            let (weights, streams) = c.stream.build();
            let oracle = systolic_analytic(&weights, &streams);
            let array = SystolicArray::new(weights);
            let plan = FaultPlan {
                seed: c.plan_seed,
                rules: vec![FaultRule::new(
                    FaultSite::StallCycle,
                    c.rate_permille as f64 / 1000.0,
                )],
            };
            let mut inj = FaultInjector::new(&plan).map_err(|e| e.to_string())?;
            let faulted = array.simulate_faulted(&streams, &mut inj).map_err(|e| e.to_string())?;
            let injected = inj.counters().count(FaultSite::StallCycle);
            if faulted.cycles < oracle.cycles {
                return Err(format!(
                    "faulted run finished in {} cycles, below the analytic floor {}",
                    faulted.cycles, oracle.cycles
                ));
            }
            if faulted.cycles != oracle.cycles + injected {
                return Err(format!(
                    "cycles {} != analytic {} + injected {injected}",
                    faulted.cycles, oracle.cycles
                ));
            }
            let clean = array.simulate(&streams);
            if faulted.outputs != clean.outputs {
                return Err("stall faults perturbed the numerics".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Claim 4: determinism and replay reporting
// ---------------------------------------------------------------------------

#[test]
fn network_reliability_reports_are_thread_count_invariant() {
    let _serial = thread_count_lock();
    let net = zoo::lenet5();
    let plan = smoke_fault_plan();
    let run = || {
        ArchConfig::builder()
            .build()
            .session(&net)
            .seed(42)
            .faults(plan.clone())
            .run()
            .unwrap()
            .into_reliability()
            .unwrap()
    };
    parallel::set_max_threads(1);
    let serial = run();
    parallel::set_max_threads(4);
    let threaded = run();
    parallel::set_max_threads(0);
    let free = run();
    assert_eq!(serial, threaded, "fault draws depend on thread count");
    assert_eq!(serial, free);
    assert_eq!(
        serial.to_report().to_json_string(),
        threaded.to_report().to_json_string()
    );
}

#[test]
fn failing_fault_property_prints_seed_replay_hint() {
    // Mutation smoke for the harness itself: a deliberately false claim
    // must come back with the exact env-var prefix that replays it.
    let kit = TestKit::with_config("fault_injection-replay", 8, 0xFA17);
    let err = kit
        .try_check(
            "deliberately false fault claim",
            FaultPlanCase::arbitrary,
            FaultPlanCase::shrink,
            |c| {
                if c.rate_permille == 0 {
                    Ok(())
                } else {
                    Err("armed plans are rejected by this fake property".into())
                }
            },
        )
        .expect_err("property is false for any armed plan");
    assert!(
        err.replay_command().contains("DRQ_TESTKIT_SEED="),
        "replay hint missing from: {}",
        err.report()
    );
    assert!(err.case_debug.contains("FaultPlanCase"), "got: {}", err.case_debug);
    // The shrinker should have driven the plan toward the smallest armed
    // rate the generator emits.
    assert!(err.case_debug.contains("rate_permille: 1"), "got: {}", err.case_debug);
}
