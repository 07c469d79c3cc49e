//! Cross-tier hardware-model consistency, exercised through the public API:
//! the algorithm-level mixed-precision convolution, the exact systolic
//! array, the detailed page simulator and the fast layer model must all
//! tell one coherent story.

use drq::core::{
    CoalesceInput, DrqConfig, Int8Codes, MixedPrecisionConv, RegionSize, SensitivityPredictor,
};
use drq::models::{ConvLayerSpec, FeatureMapSynthesizer};
use drq::nn::Conv2d;
use drq::quant::{Precision, QuantParams};
use drq::sim::LayerCycleModel;
use drq::tensor::{Tensor, XorShiftRng};
use drq_testkit::exact::{PageSimulator, SubKernelPlan};

fn synthetic_input(c: usize, hw: usize, seed: u64) -> Tensor<f32> {
    let synth = FeatureMapSynthesizer::default();
    let mut rng = XorShiftRng::new(seed);
    synth.synthesize(c, hw, hw, &mut rng)
}

#[test]
fn page_simulator_agrees_with_algorithm_level_convolution() {
    // The detailed hardware composition and the algorithm's reference
    // datapath must be bit-identical in the integer product domain.
    let conv = Conv2d::new(3, 4, 3, 1, 1, 5);
    let x = synthetic_input(3, 10, 6);
    let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 15.0);
    let masks = predictor.predict(&x);

    let page = PageSimulator::new(9, 4);
    let trace = page.run_conv(&x, &masks, conv.weight(), 3, 3, 1, 1);

    let codes = Int8Codes::quantize(&x);
    let input = CoalesceInput { codes: &codes, masks: &[masks] };
    let (y, counts) = MixedPrecisionConv::forward(&conv, None, &[input]).remove(0);
    let aq = QuantParams::fit(x.as_slice(), Precision::Int8);
    let wq = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
    let dequant = aq.scale() * wq.scale();
    for oc in 0..4 {
        for p in 0..100 {
            let expected =
                ((y[[0, oc, p / 10, p % 10]] - conv.bias().as_slice()[oc]) / dequant).round()
                    as i64;
            assert_eq!(trace.outputs[oc][p], expected, "oc {oc} p {p}");
        }
    }
    assert!(counts.int8_macs > 0 && counts.int4_macs > 0, "degenerate masks");
}

#[test]
fn fast_model_and_page_simulator_count_the_same_steps() {
    let conv = Conv2d::new(2, 6, 3, 1, 1, 7);
    let x = synthetic_input(2, 12, 8);
    let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 12.0);
    let masks = predictor.predict(&x);

    let rows = 18;
    let cols = 6;
    let page = PageSimulator::new(rows, cols);
    let trace = page.run_conv(&x, &masks, conv.weight(), 3, 3, 1, 1);

    let model = LayerCycleModel::new(rows, cols, 1);
    let spec = ConvLayerSpec::conv("t", "b", 2, 12, 12, 6, 3, 3, 1, 1);
    let fast = model.simulate_layer(&spec, &masks);
    assert_eq!(trace.int8_steps, fast.int8_steps);
    assert_eq!(trace.int4_steps, fast.int4_steps);
    assert_eq!(
        trace.cycles - trace.tiles * (rows + cols - 1) as u64,
        fast.compute_cycles
    );
}

#[test]
fn sub_kernel_split_preserves_macs_for_every_paper_kernel() {
    // Every kernel extent used by the six topologies (1, 3, 5, 7, 11 and
    // the 1x7/7x1 factorizations) splits loss-free.
    for (kh, kw) in [(1, 1), (3, 3), (5, 5), (7, 7), (11, 11), (1, 7), (7, 1), (1, 3), (3, 1)] {
        let plan = SubKernelPlan::for_kernel(kh, kw);
        assert_eq!(plan.total_taps(), kh * kw, "{kh}x{kw}");
    }
}

#[test]
fn drq_network_and_fast_model_report_similar_bit_mix() {
    // The algorithm wrapper (DrqNetwork on a real nn::Network) and the
    // topology-level fast model measure the same quantity — the INT4 MAC
    // fraction — through entirely different code paths. On the same input
    // and config they must land in the same regime.
    let mut layers = vec![
        drq::nn::Layer::from(Conv2d::new(1, 4, 3, 1, 1, 9)),
        drq::nn::Layer::from(drq::nn::ReLU::new()),
        drq::nn::Layer::from(Conv2d::new(4, 4, 3, 1, 1, 10)),
    ];
    let net = drq::nn::Network::new(std::mem::take(&mut layers));
    let cfg = DrqConfig::new(RegionSize::new(4, 4), 20.0);
    let x = synthetic_input(1, 16, 11);
    let mut drqn = drq::core::DrqNetwork::new(net, cfg);
    let (_, stats) = drqn.forward(&x);
    let algo_frac = stats.int4_fraction();

    // Fast model on layer 1 with the same mask source.
    let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 20.0);
    let masks = predictor.predict(&x);
    let model = LayerCycleModel::new(18, 11, 16);
    let spec = ConvLayerSpec::conv("c1", "b", 1, 16, 16, 4, 3, 3, 1, 1);
    let sim_frac = model.simulate_layer(&spec, &masks).int4_fraction();
    assert!(
        (algo_frac - sim_frac).abs() < 0.35,
        "algorithm {algo_frac:.2} vs simulator {sim_frac:.2}"
    );
}
