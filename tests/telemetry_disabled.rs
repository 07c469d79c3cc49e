//! The telemetry-off path is a correctness contract: with collection
//! disabled the recording macros must be free of side effects, and tracing
//! a simulation must never perturb the simulated numbers.
//!
//! The tests here own the global telemetry switch for this binary — they
//! run under a shared lock so enable/disable flips cannot race each other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use drq::models::zoo;
use drq::sim::ArchConfig;
use drq::telemetry::{counter_add, gauge_set, observe, Tracer};

/// Serializes tests that flip the process-global telemetry switch.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn disabled_macros_record_nothing() {
    let _own = telemetry_lock();
    drq::telemetry::disable();
    drq::telemetry::reset();

    counter_add!("testkit/disabled/counter", 41);
    gauge_set!("testkit/disabled/gauge", 2.5);
    observe!("testkit/disabled/histogram", 0.125);

    let snap = drq::telemetry::snapshot();
    assert!(snap.is_empty(), "disabled macros recorded metrics");
    assert_eq!(snap.counter("testkit/disabled/counter"), 0);
    assert_eq!(snap.gauge("testkit/disabled/gauge"), None);
    assert!(snap.histogram("testkit/disabled/histogram").is_none());
}

#[test]
fn disabled_macros_do_not_evaluate_arguments() {
    let _own = telemetry_lock();
    drq::telemetry::disable();

    // The macros guard on `enabled()` before touching their arguments, so
    // a recording expression that would panic must be skipped entirely.
    fn exploding() -> u64 {
        panic!("macro argument evaluated while telemetry is disabled");
    }
    counter_add!("testkit/disabled/exploding", exploding());
    observe!("testkit/disabled/exploding", f64::from_bits(exploding()));
}

#[test]
fn enable_disable_round_trip_restores_recording() {
    let _own = telemetry_lock();
    drq::telemetry::reset();

    drq::telemetry::enable();
    counter_add!("testkit/roundtrip/counter", 2);
    drq::telemetry::disable();
    counter_add!("testkit/roundtrip/counter", 40);

    assert_eq!(
        drq::telemetry::snapshot().counter("testkit/roundtrip/counter"),
        2,
        "recording did not stop at disable()"
    );
    drq::telemetry::reset();
}

#[test]
fn mixed_conv_gemm_counters_record_one_call_per_image_and_group() {
    use drq::core::{uniform_masks, CoalesceInput, MixedPrecisionConv};
    use drq::nn::Conv2d;
    use drq::tensor::{Tensor, XorShiftRng};

    let _own = telemetry_lock();
    // Two channel groups; a group of two requests holding 3 images.
    let conv = Conv2d::with_groups(4, 6, 3, 1, 1, 2, 5);
    let mut rng = XorShiftRng::new(17);
    let a = Tensor::from_fn(&[2, 4, 8, 8], |_| rng.next_normal());
    let b = Tensor::from_fn(&[1, 4, 8, 8], |_| rng.next_normal());
    let masks_a = uniform_masks(a.shape4().unwrap(), true);
    let masks_b = uniform_masks(b.shape4().unwrap(), true);
    let inputs = [
        CoalesceInput { x: &a, masks: &masks_a },
        CoalesceInput { x: &b, masks: &masks_b },
    ];

    // One INT8 and one INT4 GEMM per (request, image) item per channel
    // group, with MAC counts covering the whole im2col product.
    drq::telemetry::enable();
    drq::telemetry::reset();
    let outputs = MixedPrecisionConv::forward(&conv, None, &inputs);
    let snap = drq::telemetry::snapshot();
    assert_eq!(snap.counter("kernel/int8_gemm_calls"), 3 * 2);
    assert_eq!(snap.counter("kernel/int4_gemm_calls"), 3 * 2);
    // Both GEMMs run over the full im2col matrix (the mask only zeroes
    // operands), so each records total() MACs.
    let total: u64 = outputs.iter().map(|(_, c)| c.total()).sum();
    assert_eq!(snap.counter("kernel/int8_gemm_macs"), total);
    assert_eq!(snap.counter("kernel/int4_gemm_macs"), total);
    // Realistic depths are proven i32-safe: no wide fallbacks.
    assert_eq!(snap.counter("kernel/int8_gemm_wide_fallbacks"), 0);

    // A third request, all-insensitive over 2 images: its P8 planes are
    // all zero, so its INT8 GEMMs are skipped and left out of the INT8
    // counters, while every item still runs its INT4 GEMMs.
    let c = Tensor::from_fn(&[2, 4, 8, 8], |_| rng.next_normal());
    let masks_c = uniform_masks(c.shape4().unwrap(), false);
    let inputs = [inputs[0], inputs[1], CoalesceInput { x: &c, masks: &masks_c }];
    drq::telemetry::reset();
    let outputs = MixedPrecisionConv::forward(&conv, None, &inputs);
    let snap = drq::telemetry::snapshot();
    assert_eq!(snap.counter("kernel/int4_gemm_calls"), (3 + 2) * 2);
    assert_eq!(snap.counter("kernel/int8_gemm_calls"), 3 * 2);
    let ran: u64 = outputs[..2].iter().map(|(_, c)| c.total()).sum();
    assert_eq!(snap.counter("kernel/int8_gemm_macs"), ran);
    assert_eq!(outputs[2].1.int8_macs, 0);
    drq::telemetry::reset();
    drq::telemetry::disable();
}

#[test]
fn traced_simulation_is_byte_identical_to_untraced() {
    // `--trace` in the CLI attaches a tracer to the SimSession; the
    // tracer is a pure observer, so the structured report must match the
    // untraced run byte for byte.
    let net = zoo::lenet5();
    let config = ArchConfig::builder().build();

    let plain = config.session(&net).seed(42).run().unwrap().into_report();
    let mut tracer = Tracer::new();
    let traced = config
        .session(&net)
        .seed(42)
        .trace(&mut tracer)
        .run()
        .unwrap()
        .into_report();

    assert!(
        !tracer.events().is_empty(),
        "traced run produced no events — the tracer was not exercised"
    );
    assert_eq!(plain, traced, "tracing changed the simulation result");
    assert_eq!(
        plain.to_report().to_json_string(),
        traced.to_report().to_json_string(),
        "tracing changed the serialized report"
    );
}

#[test]
fn traced_simulation_matches_the_golden_report() {
    // Same fixture as tests/metrics_golden.rs: the traced run must agree
    // with the committed golden, proving `--trace` cannot drift the numbers.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/metrics_lenet5_seed42.json");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));

    let mut tracer = Tracer::new();
    let net = zoo::lenet5();
    let traced = ArchConfig::builder()
        .build()
        .session(&net)
        .seed(42)
        .trace(&mut tracer)
        .run()
        .unwrap()
        .into_report();
    let mut got = traced.to_report().to_json_string();
    got.push('\n');
    assert_eq!(got, want, "traced simulation drifted from the golden report");
}
