//! Table-driven error-path tests: every user-reachable construction and
//! configuration path in the simulator reports a typed [`SimError`] instead
//! of panicking, with a display message that names the rejecting component.
//!
//! Each table row is one malformed input; the assertions pin (1) the error
//! *variant*, so `match`-based handling stays possible, and (2) a substring
//! of the display text, so CLI error output stays informative.

use drq::core::DrqError;
use drq::dse::{Candidate, CandidateEval, CandidateSpace, Objectives, ParetoSearch};
use drq::sim::{smoke_fault_plan, ArchConfig, DramModel, FaultPlan, LayerCycleModel, SimError};

/// Which [`SimError`] variant a malformed input must map to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Geometry,
    Parameter,
    FaultPlan,
}

fn kind_of(e: &SimError) -> Kind {
    match e {
        SimError::InvalidGeometry { .. } => Kind::Geometry,
        SimError::InvalidParameter { .. } => Kind::Parameter,
        SimError::FaultPlan { .. } => Kind::FaultPlan,
    }
}

#[test]
fn malformed_configs_yield_typed_errors_not_panics() {
    type Row = (&'static str, Box<dyn Fn() -> Result<(), SimError>>, Kind, &'static str);
    let table: Vec<Row> = vec![
        (
            "zero-page arch geometry",
            Box::new(|| ArchConfig::builder().try_geometry(0, 11, 16).map(|_| ())),
            Kind::Geometry,
            "geometry must be positive",
        ),
        (
            "zero-row arch geometry",
            Box::new(|| ArchConfig::builder().try_geometry(4, 0, 16).map(|_| ())),
            Kind::Geometry,
            "geometry must be positive",
        ),
        (
            "non-finite clock frequency",
            Box::new(|| ArchConfig::builder().frequency_mhz(f64::NAN).try_build().map(|_| ())),
            Kind::Parameter,
            "frequency must be positive",
        ),
        (
            "zero-capacity global buffer",
            Box::new(|| ArchConfig::builder().global_buffer_bytes(0).try_build().map(|_| ())),
            Kind::Geometry,
            "global buffer must have capacity",
        ),
        (
            "non-positive dram bandwidth",
            Box::new(|| DramModel::try_new(0.0, 0.7).map(|_| ())),
            Kind::Parameter,
            "bandwidth must be positive",
        ),
        (
            "dram efficiency above one",
            Box::new(|| DramModel::try_new(1e9, 1.5).map(|_| ())),
            Kind::Parameter,
            "efficiency in (0, 1]",
        ),
        (
            "zero-dimension cycle model",
            Box::new(|| LayerCycleModel::try_new(11, 0, 4).map(|_| ())),
            Kind::Geometry,
            "array dimensions must be positive",
        ),
        (
            "fault plan with unknown site",
            Box::new(|| {
                FaultPlan::parse(r#"{"seed":1,"rules":[{"site":"warp_core","rate":0.5}]}"#)
                    .map(|_| ())
            }),
            Kind::FaultPlan,
            "warp_core",
        ),
        (
            "fault plan with out-of-range rate",
            Box::new(|| {
                FaultPlan::parse(r#"{"seed":1,"rules":[{"site":"stall_cycle","rate":2.0}]}"#)
                    .map(|_| ())
            }),
            Kind::FaultPlan,
            "rate",
        ),
        (
            "fault plan that is not json",
            Box::new(|| FaultPlan::parse("not json at all").map(|_| ())),
            Kind::FaultPlan,
            "invalid fault plan",
        ),
    ];

    for (name, build, want_kind, want_substr) in table {
        let err = build().expect_err(name);
        assert_eq!(kind_of(&err), want_kind, "{name}: wrong variant: {err:?}");
        assert!(
            err.to_string().contains(want_substr),
            "{name}: display {:?} missing {:?}",
            err.to_string(),
            want_substr
        );
    }
}

#[test]
fn valid_configs_pass_the_same_gates() {
    // The happy path through every `try_*` used above must stay open.
    assert!(ArchConfig::builder().try_geometry(4, 11, 16).is_ok());
    assert!(ArchConfig::builder().try_build().is_ok());
    assert!(DramModel::try_new(1e9, 0.7).is_ok());
    assert!(LayerCycleModel::try_new(11, 16, 4).is_ok());
    assert!(FaultPlan::parse(&smoke_fault_plan().to_json().to_string()).is_ok());
}

#[test]
fn algorithm_layer_reports_typed_evaluation_failure() {
    // A failing candidate evaluator stops the Pareto search with a
    // DrqError that names the candidate, rather than panicking or
    // swallowing the failure.
    struct Broken;
    impl CandidateEval for Broken {
        fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
            Err(format!("probe #{}", c.index))
        }
    }
    let mut search = ParetoSearch::new(CandidateSpace::paper_grid(), 1, 4);
    let err = search.run(&Broken, None).expect_err("never succeeds");
    match &err {
        DrqError::EvaluationFailed { candidate, detail } => {
            assert_eq!(detail, &format!("probe #{candidate}"));
        }
        other => panic!("wrong variant: {other:?}"),
    }
    assert!(err.to_string().contains("evaluation failed"));
}

// ---------------------------------------------------------------------------
// Durable checkpoint recovery through the CLI
// ---------------------------------------------------------------------------

/// Runs a `drq` invocation in-process and returns its exit status.
fn cli(parts: &[&str]) -> u8 {
    drq_cli::run_cli(parts.iter().map(|s| s.to_string()))
}

#[test]
fn pareto_resume_recovers_a_truncated_checkpoint_from_prev() {
    let dir = std::env::temp_dir().join("drq_error_paths_truncated_resume");
    let _ = std::fs::create_dir_all(&dir);
    let ck = dir.join("front.json").to_string_lossy().to_string();
    let prev = format!("{ck}.prev");

    // Two budgeted runs: generation 1, then generation 2 with the last
    // good generation rotated to `.prev`.
    assert_eq!(cli(&["pareto", "--network", "lenet5", "--seed", "3", "--budget", "20", "--out", &ck]), 0);
    assert_eq!(cli(&["pareto", "--resume", &ck, "--budget", "20", "--out", &ck]), 0);
    assert!(std::path::Path::new(&prev).exists(), "rotation must leave {prev}");

    // Hand-truncate the primary mid-frame: resume must fall back to the
    // previous generation and still run to convergence (exit 0).
    let full = std::fs::read(&ck).unwrap();
    std::fs::write(&ck, &full[..full.len() / 2]).unwrap();
    assert_eq!(cli(&["pareto", "--resume", &ck, "--out", &ck]), 0, "fallback resume must succeed");
    let out = drq::store::ArtifactStore::fs().load(&ck).unwrap();
    assert!(
        String::from_utf8_lossy(&out.payload).contains("\"status\":\"complete\""),
        "recovered search must converge"
    );

    // Damage both generations: the CLI reports a typed error that names
    // the pareto checkpoint, and exits nonzero.
    let full = std::fs::read(&ck).unwrap();
    std::fs::write(&ck, &full[..full.len() / 2]).unwrap();
    let kept = std::fs::read(&prev).unwrap();
    std::fs::write(&prev, &kept[..kept.len() / 3]).unwrap();
    let parsed = drq_cli::ParsedArgs::parse(
        ["pareto", "--resume", &ck].iter().map(|s| s.to_string()),
    )
    .unwrap();
    let err = drq_cli::run(&parsed).expect_err("both generations damaged");
    assert!(err.to_string().contains("pareto checkpoint"), "untyped error: {err}");
    assert_eq!(cli(&["pareto", "--resume", &ck]), 1, "double damage must exit nonzero");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Out-of-domain flag values: exit 1 with a typed error, never a panic
// ---------------------------------------------------------------------------

/// Asserts that `parts` exits 1 and that the error names `--flag`.
fn rejects_flag(parts: &[&str], flag: &str) {
    assert_eq!(cli(parts), 1, "{parts:?} must exit 1");
    let parsed = drq_cli::ParsedArgs::parse(parts.iter().map(|s| s.to_string())).unwrap();
    let err = drq_cli::run(&parsed).expect_err("out-of-domain value");
    assert!(err.to_string().contains(&format!("--{flag}")), "{parts:?}: {err}");
}

#[test]
fn bad_threshold_exits_one() {
    rejects_flag(&["simulate", "--threshold", "nan"], "threshold");
    rejects_flag(&["serve", "--stdin", "true", "--threshold", "-1"], "threshold");
}

#[test]
fn bad_target_exits_one() {
    rejects_flag(&["calibrate", "--target", "0"], "target");
    rejects_flag(&["eval", "--scheme", "drq-calibrated", "--target", "2"], "target");
}

#[test]
fn zero_samples_exits_one() {
    rejects_flag(&["train", "--samples", "0"], "samples");
    rejects_flag(&["eval", "--samples", "0"], "samples");
}
