//! Pins the DSE→simulator session-reuse contract: a single
//! [`SharedSession`](drq::sim::SharedSession) evaluating many candidates
//! must produce byte-identical reports to a dedicated per-candidate
//! [`SimSession`](drq::sim::SimSession) — whatever the evaluation order,
//! thread count, or mix of accelerators its memo has already seen — and the
//! removed per-scenario simulate-the-network shims must stay gone from the
//! workspace.

use drq::core::{DrqConfig, RegionSize};
use drq::models::{ConvLayerSpec, FeatureMapSynthesizer, NetworkTopology};
use drq::sim::{ArchConfig, DrqAccelerator, Partitions, SharedSession, SimSession};
use drq::tensor::{parallel, XorShiftRng};
use drq_dse::{CandidateSpace, Geometry, SimSpaceEval};
use std::path::{Path, PathBuf};

fn accel_for(c: &drq_dse::Candidate) -> DrqAccelerator {
    ArchConfig::builder()
        .geometry(c.geometry.pages, c.geometry.rows, c.geometry.cols)
        .global_buffer_bytes(c.buffer_bytes)
        .drq(DrqConfig::new(c.region, c.threshold))
        .build()
}

#[test]
fn shared_session_matches_per_candidate_sessions_byte_for_byte() {
    let net = drq::models::zoo::lenet5();
    let space = CandidateSpace::sweep_grid(RegionSize::new(4, 4), &[0.5, 21.0, 127.0])
        .expect("sweep grid is valid");
    for seed in [42, 7] {
        let eval = SimSpaceEval::new(&net, Partitions::Auto, seed);
        for i in 0..space.len() {
            let candidate = space.candidate(i);
            let shared = eval.simulate(&candidate).to_report().to_json_string();
            let accel = accel_for(&candidate);
            let dedicated = SimSession::new(&accel, &net)
                .seed(seed)
                .partitions(Partitions::Auto)
                .run()
                .expect("dedicated session runs")
                .into_report()
                .to_report()
                .to_json_string();
            assert_eq!(
                shared, dedicated,
                "candidate {i} (seed {seed}) drifted between shared and dedicated sessions"
            );
        }
    }
}

/// A small network whose last four layers hit the deep-layer rule (maps
/// of at most 8x8 pixels, the last two also at depth >= 0.8), so every
/// base region folds to the same 2x2 region there.
fn deep_net() -> NetworkTopology {
    NetworkTopology {
        name: "deep-fold".into(),
        input: (3, 32, 32),
        classes: 10,
        layers: vec![
            ConvLayerSpec::conv("c1", "B1", 3, 32, 32, 8, 3, 3, 2, 1),
            ConvLayerSpec::conv("c2", "B1", 8, 16, 16, 16, 3, 3, 2, 1),
            ConvLayerSpec::conv("c3", "B2", 16, 8, 8, 16, 3, 3, 1, 1),
            ConvLayerSpec::conv("c4", "B2", 16, 8, 8, 32, 3, 3, 2, 1),
            ConvLayerSpec::conv("c5", "B3", 32, 4, 4, 32, 3, 3, 1, 1),
            ConvLayerSpec::fc("fc", "FC", 32 * 4 * 4, 10),
        ],
    }
}

fn dedicated_json(accel: &DrqAccelerator, net: &NetworkTopology, seed: u64) -> String {
    SimSession::new(accel, net)
        .seed(seed)
        .run()
        .expect("dedicated session runs")
        .to_report()
        .to_json_string()
}

/// Restores automatic thread resolution even if an assertion fails.
struct AutoThreads;

impl Drop for AutoThreads {
    fn drop(&mut self) {
        parallel::set_max_threads(0);
    }
}

#[test]
fn memoized_session_matches_fresh_sessions_in_any_order_and_thread_count() {
    let net = deep_net();
    let seed = 11;
    let space = CandidateSpace::try_new(
        // Each of pages, rows and cols is the only difference between two
        // of these, so a cycle key missing any one of them is caught.
        vec![
            Geometry::new(8, 18, 11),
            Geometry::new(16, 18, 11),
            Geometry::new(16, 9, 11),
            Geometry::new(16, 18, 22),
        ],
        vec![RegionSize::new(4, 4), RegionSize::new(8, 16)],
        vec![2.0, 21.0],
        vec![64 * 1024, 5 * 1024 * 1024],
    )
    .expect("test space is valid");
    let cfg = DrqConfig::new(RegionSize::new(8, 16), 21.0);
    assert_eq!(
        cfg.for_layer(4, 4, 0.9),
        cfg.with_region(RegionSize::new(4, 4)).for_layer(4, 4, 0.9),
        "both regions must fold to one deep-layer configuration"
    );
    let accels: Vec<DrqAccelerator> =
        (0..space.len()).map(|i| accel_for(&space.candidate(i))).collect();
    let expected: Vec<String> = accels.iter().map(|a| dedicated_json(a, &net, seed)).collect();

    let _auto = AutoThreads;
    for (threads, shuffle_seed) in [(1, 3u64), (2, 5), (0, 7)] {
        parallel::set_max_threads(threads);
        let mut order: Vec<usize> = (0..space.len()).collect();
        let mut rng = XorShiftRng::new(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i + 1));
        }
        let session = SharedSession::new(&net, Partitions::Auto).seed(seed);
        let got: Vec<String> = parallel::par_map(order.len(), |k| {
            session.simulate(&accels[order[k]]).to_report().to_json_string()
        });
        for (k, json) in got.iter().enumerate() {
            assert_eq!(
                *json, expected[order[k]],
                "candidate {} drifted from its fresh session (threads {threads}, position {k})",
                order[k]
            );
        }
    }
}

#[test]
fn memo_keys_on_synthesizer_and_deep_layer_rule() {
    let net = deep_net();
    let seed = 5;
    let drq = DrqConfig::new(RegionSize::new(4, 4), 21.0);
    let base = ArchConfig::builder().drq(drq).build();
    let variants = [
        ArchConfig::builder()
            .drq(drq)
            .synthesizer(FeatureMapSynthesizer {
                base_level: 0.2,
                ..FeatureMapSynthesizer::default()
            })
            .build(),
        ArchConfig::builder()
            .drq(drq)
            .synthesizer(FeatureMapSynthesizer {
                blob_radius_frac: 0.3,
                ..FeatureMapSynthesizer::default()
            })
            .build(),
        ArchConfig::builder().drq(drq.deep_layer_extent(2)).build(),
        ArchConfig::builder().drq(drq.deep_layer_extent(16)).build(),
    ];
    let base_json = dedicated_json(&base, &net, seed);
    let session = SharedSession::new(&net, Partitions::Auto).seed(seed);
    // The base fills the memo first, so a key missing a field would hand
    // its masks to the variant that differs only in that field.
    assert_eq!(session.simulate(&base).to_report().to_json_string(), base_json);
    for (v, accel) in variants.iter().enumerate() {
        let dedicated = dedicated_json(accel, &net, seed);
        assert_ne!(dedicated, base_json, "variant {v} does not change the report");
        assert_eq!(
            session.simulate(accel).to_report().to_json_string(),
            dedicated,
            "variant {v} was served another accelerator's memo entries"
        );
    }
    assert_eq!(session.simulate(&base).to_report().to_json_string(), base_json);
}

/// Recursively collects every `.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn removed_network_sim_shims_stay_gone() {
    // Deleted duplicates stay deleted. No allowlist: none of these names
    // may appear anywhere in the workspace, definitions included:
    // - the per-scenario simulation shims (every caller goes through
    //   `SimSession`; a batch is one run per seed);
    // - the second DSE module in the core crate and its retry layer
    //   (`drq-dse` is the only explorer);
    // - the activation-statistics synthesizer fit, which nothing called;
    // - the second serve engine and its dead knobs (`ShardRouter` is the
    //   only engine; its shards are crate-private);
    // - the PE-level exact tier's deleted parts: the line-buffer capacity
    //   model, the `try_*` forms no user input reached and their error
    //   variants, and the duplicate tapped inference walk;
    // - the per-draw half-normal sampler (synthesis fills whole planes with
    //   `fill_half_normal`) and the outlier-ratio getters nothing read;
    // - serve's own layer walk, its residual sum and its conv-plan order
    //   (drq-nn's group walk runs every DRQ inference);
    // - serve's layer-0 input-mask cache and its config fingerprint, the
    //   boxed mask source, and the fallible conv-override walk (the DRQ
    //   executor quantizes each conv input once and predicts from those
    //   codes; uniform INT8 is its one alternative);
    // - drq-quant's quantizer trait layer and its second per-channel and
    //   max-abs paths, and the percentile/min-MSE calibration nothing used
    //   (each scheme is one call to a fake-quantization function);
    // - the uncalled learning-rate schedules, top-k accuracy, confusion
    //   matrix, wall-clock scope, segment quantizer and the per-layer
    //   diagnostic bench binary (a needle also matches a file name).
    // The exact tier itself lives in `drq_testkit::exact`; drq-sim keeps
    // one cycle model, so none of the tier's names may appear under
    // `crates/sim/src`. Outside `crates/nn/src/network.rs` convolution
    // inputs are observed through `forward_conv_override`, the one walk,
    // and nothing outside `crates/nn/src` matches residual blocks: only
    // drq-nn walks layers.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(sources.len() > 20, "source walk looks broken: {} files", sources.len());

    // Built in pieces so this test file does not match itself.
    let needles = [
        format!("{}{}", "simulate_", "network"),
        format!("{}{}", "run_", "batch"),
        format!("{}{}", "BatchSim", "Summary"),
        format!("{}{}", "core::", "dse"),
        format!("{}{}", "Retry", "Policy"),
        format!("{}{}", "retry_with_", "backoff"),
        format!("{}{}", "fit_", "synthesizer"),
        format!("{}{}", "quiet_worker_", "panics"),
        format!("{}{}", "tracer_", "snapshot"),
        format!("{}{}", "serve::", "ServeEngine"),
        format!("{}{}", "struct Line", "Buffer"),
        format!("{}{}", "capacity_", "values"),
        format!("{}{}", "Operand", "Range"),
        format!("{}{}", "Width", "Mismatch"),
        format!("{}{}", "try_for_", "kernel"),
        format!("{}{}", "try_accu", "mulate"),
        format!("{}{}", "try_simu", "late"),
        format!("{}{}", "try_forward_", "tapped"),
        format!("{}{}", "next_half_", "normal"),
        format!("{}{}", "fn outlier_", "ratio("),
        format!("{}{}", "fn run_", "group"),
        format!("{}{}", "fn collect_", "plans"),
        format!("{}{}", "fn finish_", "residual"),
        format!("{}{}", "fn input_", "masks"),
        format!("{}{}", "config_", "fingerprint"),
        format!("{}{}", "Mask", "Source"),
        format!("{}{}", "fn try_forward_", "conv_override"),
        format!("{}{}", "trait Quan", "tizer"),
        format!("{}{}", "impl Quan", "tizer"),
        format!("{}{}", "dyn Quan", "tizer"),
        format!("{}{}", "MaxAbs", "Quantizer"),
        format!("{}{}", "PerChannel", "Quantizer"),
        format!("{}{}", "enum Calib", "ration"),
        format!("{}{}", "Calib", "ration::"),
        format!("{}{}", "LrSched", "ule"),
        format!("{}{}", "WallClock", "Scope"),
        format!("{}{}", "top_k_", "accuracy"),
        format!("{}{}", "confusion_", "matrix"),
        format!("{}{}", "quantize_", "segments"),
        format!("{}{}", "diag_", "layers"),
    ];
    let exact_tier = [
        format!("{}{}", "Systolic", "Array"),
        format!("{}{}", "Stream", "Element"),
        format!("{}{}", "Sim", "Trace"),
        format!("{}{}", "simulate_", "faulted"),
        format!("{}{}", "Page", "Simulator"),
        format!("{}{}", "Page", "Trace"),
        format!("{}{}", "Im2Col", "Engine"),
        format!("{}{}", "Output", "Buffer"),
        format!("{}{}", "SubKernel", "Plan"),
        format!("{}{}", "Packed", "Stream"),
        format!("{}{}", "MultiPrecision", "Pe"),
        format!("{}{}", "predict_via_", "pooling"),
        format!("{}{}", "flip_", "bit8"),
        format!("{}{}", "compare_", "dataflows"),
    ];
    let sim_src = root.join("crates/sim/src");
    let tap_walk = root.join("crates/nn/src/network.rs");
    let tapped = format!("{}{}", "forward_", "tapped");
    let nn_src = root.join("crates/nn/src");
    let residual = format!("{}{}", "Layer::", "Residual");
    let mut offenders = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("readable source file");
        let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        for needle in &needles {
            if text.contains(needle.as_str()) || name.contains(needle.as_str()) {
                offenders.push((needle.clone(), path.clone()));
            }
        }
        if path.starts_with(&sim_src) {
            for needle in &exact_tier {
                if text.contains(needle.as_str()) {
                    offenders.push((needle.clone(), path.clone()));
                }
            }
        }
        if path != tap_walk && text.contains(tapped.as_str()) {
            offenders.push((tapped.clone(), path.clone()));
        }
        if !path.starts_with(&nn_src) && text.contains(residual.as_str()) {
            offenders.push((residual.clone(), path.clone()));
        }
    }
    assert!(offenders.is_empty(), "removed names have resurfaced: {offenders:?}");
}

#[test]
fn sweep_command_routes_through_the_shared_evaluator() {
    // The CLI crate is not a dependency of this package, so pin the
    // reroute at the source level: cmd_sweep must evaluate candidates via
    // SimSpaceEval (one shared session) rather than spawning sessions.
    let commands = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/cli/src/commands.rs");
    let text = std::fs::read_to_string(commands).expect("cli commands source exists");
    assert!(
        text.contains("SimSpaceEval::new"),
        "drq sweep no longer evaluates through the shared SimSpaceEval session"
    );
    assert!(
        text.contains("CandidateSpace::sweep_grid"),
        "drq sweep no longer builds its grid as a CandidateSpace"
    );
}
