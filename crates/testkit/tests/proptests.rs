//! Property-style tests for the accelerator models: the exact systolic
//! array, the simulator's fast layer model, and the PE datapath. Driven by the
//! in-tree seeded generator so the suite builds offline; sweeps are
//! deterministic, so failures reproduce exactly.

use drq_core::{MaskMap, RegionGrid, RegionSize, SensitivityPredictor};
use drq_models::ConvLayerSpec;
use drq_quant::Precision;
use drq_sim::LayerCycleModel;
use drq_testkit::exact::{MultiPrecisionPe, StreamElement, SystolicArray};
use drq_tensor::{Tensor, XorShiftRng};

/// Draws a value in `[lo, hi)`.
fn range(rng: &mut XorShiftRng, lo: usize, hi: usize) -> usize {
    lo + rng.next_below(hi - lo)
}

fn random_streams(rows: usize, steps: usize, p: f64, seed: u64) -> Vec<Vec<StreamElement>> {
    let mut rng = XorShiftRng::new(seed);
    (0..rows)
        .map(|_| {
            (0..steps)
                .map(|_| StreamElement::new(rng.next_below(255) as i32 - 127, rng.next_f64() < p))
                .collect()
        })
        .collect()
}

fn random_weights(rows: usize, cols: usize, seed: u64) -> Vec<Vec<i32>> {
    let mut rng = XorShiftRng::new(seed);
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.next_below(255) as i32 - 127).collect())
        .collect()
}

#[test]
fn pe_int8_decomposition_is_exact() {
    let mut rng = XorShiftRng::new(6001);
    for _ in 0..128 {
        let w = rng.next_below(256) as i32 - 128;
        let f = rng.next_below(256) as i32 - 128;
        let mut pe = MultiPrecisionPe::new();
        pe.load_weight(w);
        pe.start_mac(f, Precision::Int8);
        let mut cycles = 0;
        while !pe.is_done() {
            pe.tick();
            cycles += 1;
        }
        assert_eq!(cycles, 4);
        assert_eq!(pe.product(), w * f, "w={w} f={f}");
    }
}

#[test]
fn pe_int4_is_high_nibble_product() {
    let mut rng = XorShiftRng::new(6002);
    for _ in 0..128 {
        let w = rng.next_below(256) as i32 - 128;
        let f = rng.next_below(256) as i32 - 128;
        let mut pe = MultiPrecisionPe::new();
        pe.load_weight(w);
        pe.start_mac(f, Precision::Int4);
        pe.tick();
        assert!(pe.is_done());
        assert_eq!(pe.product(), ((w >> 4) * (f >> 4)) << 8, "w={w} f={f}");
    }
}

#[test]
fn exact_array_cycles_match_closed_form() {
    let mut rng = XorShiftRng::new(6003);
    for _ in 0..48 {
        let rows = range(&mut rng, 1, 8);
        let cols = range(&mut rng, 1, 8);
        let steps = range(&mut rng, 1, 40);
        let p = rng.next_f64();
        let seed = rng.next_below(500) as u64;
        let array = SystolicArray::new(random_weights(rows, cols, seed));
        let streams = random_streams(rows, steps, p, seed + 1);
        let trace = array.simulate(&streams);
        let costs: Vec<u64> = (0..steps)
            .map(|t| if streams.iter().any(|s| s[t].sensitive) { 4 } else { 1 })
            .collect();
        assert_eq!(trace.cycles, array.analytic_cycles(&costs));
        assert_eq!(trace.int4_steps + trace.int8_steps, steps as u64);
    }
}

#[test]
fn exact_array_outputs_match_mixed_dot_products() {
    let mut rng = XorShiftRng::new(6004);
    for _ in 0..32 {
        let rows = range(&mut rng, 1, 6);
        let cols = range(&mut rng, 1, 5);
        let steps = range(&mut rng, 1, 20);
        let p = rng.next_f64();
        let seed = rng.next_below(300) as u64;
        let weights = random_weights(rows, cols, seed + 2);
        let array = SystolicArray::new(weights.clone());
        let streams = random_streams(rows, steps, p, seed + 3);
        let trace = array.simulate(&streams);
        for (j, col) in trace.outputs.iter().enumerate() {
            for (t, &got) in col.iter().enumerate() {
                let expect: i64 = streams
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let e = s[t];
                        if e.sensitive {
                            (weights[i][j] * e.value) as i64
                        } else {
                            (((weights[i][j] >> 4) * (e.value >> 4)) as i64) << 8
                        }
                    })
                    .sum();
                assert_eq!(got, expect, "col {j} step {t}");
            }
        }
    }
}

#[test]
fn layer_model_mac_conservation() {
    let mut rng = XorShiftRng::new(6005);
    let mut cases = 0;
    while cases < 48 {
        let in_c = range(&mut rng, 1, 6);
        let out_c = range(&mut rng, 1, 8);
        let hw = range(&mut rng, 3, 16);
        let k = range(&mut rng, 1, 4);
        let stride = range(&mut rng, 1, 3);
        let seed = rng.next_below(200) as u64;
        if hw < k {
            continue;
        }
        cases += 1;
        let spec = ConvLayerSpec::conv("p", "B", in_c, hw, hw, out_c, k, k, stride, 0);
        let mut xrng = XorShiftRng::new(seed + 4);
        let x = Tensor::from_fn(&[1, in_c, hw, hw], |_| xrng.next_f32());
        let predictor = SensitivityPredictor::new(RegionSize::new(2, 2), 50.0);
        let masks = predictor.predict(&x);
        let model = LayerCycleModel::new(18, 11, 16);
        let r = model.simulate_layer(&spec, &masks);
        assert_eq!(r.int4_macs + r.int8_macs, spec.macs());
        assert!(r.total_cycles() > 0);
    }
}

#[test]
fn layer_model_monotone_in_sensitivity() {
    // More sensitive regions can never make the layer faster.
    let mut rng = XorShiftRng::new(6006);
    for _ in 0..24 {
        let in_c = range(&mut rng, 1, 4);
        let hw = range(&mut rng, 8, 20);
        let seed = rng.next_below(100) as u64;
        let spec = ConvLayerSpec::conv("m", "B", in_c, hw, hw, 8, 3, 3, 1, 1);
        let grid = RegionGrid::new(hw, hw, RegionSize::new(2, 2));
        let model = LayerCycleModel::new(18, 11, 16);
        let mut frng = XorShiftRng::new(seed + 5);
        let mut masks: Vec<MaskMap> = (0..in_c).map(|_| MaskMap::all_insensitive(grid)).collect();
        let mut last = model.simulate_layer(&spec, &masks).compute_cycles;
        for _ in 0..4 {
            // Flip a few random regions to sensitive (never back).
            for m in masks.iter_mut() {
                for _ in 0..3 {
                    let r = frng.next_below(grid.rows());
                    let c = frng.next_below(grid.cols());
                    m.set(r, c, true);
                }
            }
            let now = model.simulate_layer(&spec, &masks).compute_cycles;
            assert!(now >= last, "compute decreased: {last} -> {now}");
            last = now;
        }
    }
}

#[test]
fn all_sensitive_layer_costs_4x_all_insensitive() {
    let mut rng = XorShiftRng::new(6007);
    for _ in 0..24 {
        let in_c = range(&mut rng, 1, 4);
        let hw = range(&mut rng, 6, 16);
        let out_c = range(&mut rng, 2, 8);
        let spec = ConvLayerSpec::conv("x", "B", in_c, hw, hw, out_c, 3, 3, 1, 1);
        let grid = RegionGrid::new(hw, hw, RegionSize::new(2, 2));
        let model = LayerCycleModel::new(18, 11, 16);
        let slow = model.simulate_layer(&spec, &vec![MaskMap::all_sensitive(grid); in_c]);
        let fast = model.simulate_layer(&spec, &vec![MaskMap::all_insensitive(grid); in_c]);
        assert_eq!(slow.compute_cycles, 4 * fast.compute_cycles);
    }
}
