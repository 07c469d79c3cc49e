//! Property-style tests for the DRQ algorithm invariants, driven by the
//! in-tree seeded generator so the suite builds offline. Sweeps are
//! deterministic, so failures reproduce exactly.

use drq_core::{
    uniform_masks, CoalesceInput, ConvOpCounts, DrqConfig, Int8Codes, MaskMap,
    MixedPrecisionConv, RegionGrid, RegionSize, SensitivityPredictor,
};
use drq_nn::Conv2d;
use drq_tensor::{Shape4, Tensor, XorShiftRng};

/// The mixed-precision conv on a single input (a group of one).
fn mixed(conv: &Conv2d, x: &Tensor<f32>, masks: &[Vec<MaskMap>]) -> (Tensor<f32>, ConvOpCounts) {
    let codes = Int8Codes::quantize(x);
    MixedPrecisionConv::forward(conv, None, &[CoalesceInput { codes: &codes, masks }]).remove(0)
}

/// Draws a value in `[lo, hi)`.
fn range(rng: &mut XorShiftRng, lo: usize, hi: usize) -> usize {
    lo + rng.next_below(hi - lo)
}

#[test]
fn every_pixel_belongs_to_exactly_one_region() {
    let mut rng = XorShiftRng::new(3001);
    for _ in 0..64 {
        let h = range(&mut rng, 1, 40);
        let w = range(&mut rng, 1, 40);
        let rx = range(&mut rng, 1, 10);
        let ry = range(&mut rng, 1, 10);
        let grid = RegionGrid::new(h, w, RegionSize::new(rx, ry));
        let mut counts = vec![0usize; grid.region_count()];
        for y in 0..h {
            for x in 0..w {
                counts[grid.region_index_of(y, x)] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), h * w);
        assert!(counts.iter().all(|&c| c > 0), "({h},{w},{rx},{ry})");
    }
}

#[test]
fn predictor_sensitivity_is_monotone_in_threshold() {
    let mut rng = XorShiftRng::new(3002);
    for _ in 0..32 {
        let seed = rng.next_below(300) as u64;
        let c = range(&mut rng, 1, 4);
        let h = range(&mut rng, 4, 20);
        let w = range(&mut rng, 4, 20);
        let mut xrng = XorShiftRng::new(seed + 1);
        let x = Tensor::from_fn(&[1, c, h, w], |_| xrng.next_f32());
        let mut last = f64::INFINITY;
        for t in [0.0f32, 5.0, 20.0, 60.0, 127.0] {
            let p = SensitivityPredictor::new(RegionSize::new(2, 2), t);
            let frac = p.sensitive_fraction(&x, 0);
            assert!(frac <= last + 1e-12, "not monotone at {t}");
            last = frac;
        }
    }
}

#[test]
fn predictor_is_scale_invariant() {
    // Max-abs INT8 calibration makes the predictor invariant to global
    // input scaling — the property that lets one threshold serve
    // differently scaled images.
    let mut rng = XorShiftRng::new(3003);
    for _ in 0..32 {
        let seed = rng.next_below(300) as u64;
        let scale = 0.01 + rng.next_f32() * 99.99;
        let mut xrng = XorShiftRng::new(seed + 2);
        let x = Tensor::from_fn(&[1, 2, 12, 12], |_| xrng.next_f32());
        let xs = x.map(|v| v * scale);
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 20.0);
        let a: Vec<_> = p.predict(&x).iter().map(|m| m.bits().to_vec()).collect();
        let b: Vec<_> = p.predict(&xs).iter().map(|m| m.bits().to_vec()).collect();
        assert_eq!(a, b, "scale {scale}");
    }
}

#[test]
fn mixed_conv_mac_count_matches_geometry() {
    let mut rng = XorShiftRng::new(3004);
    let mut cases = 0;
    while cases < 24 {
        let seed = rng.next_below(200) as u64;
        let in_c = range(&mut rng, 1, 4);
        let out_c = range(&mut rng, 1, 5);
        let hw = range(&mut rng, 4, 10);
        let k = range(&mut rng, 1, 4);
        if k > hw {
            continue;
        }
        cases += 1;
        let conv = Conv2d::new(in_c, out_c, k, 1, 0, seed);
        let mut xrng = XorShiftRng::new(seed + 3);
        let x = Tensor::from_fn(&[1, in_c, hw, hw], |_| xrng.next_f32());
        let p = SensitivityPredictor::new(RegionSize::new(2, 2), 40.0);
        let masks = vec![p.predict(&x)];
        let (_, counts) = mixed(&conv, &x, &masks);
        assert_eq!(counts.total(), conv.mac_count(Shape4::new(1, in_c, hw, hw)));
    }
}

#[test]
fn mixed_conv_error_ordering() {
    // For any random conv/input, quantization error is ordered:
    // all-INT8 <= dynamic-mixed <= all-INT4 (measured against FP32).
    let mut rng = XorShiftRng::new(3005);
    for _ in 0..16 {
        let seed = rng.next_below(100) as u64;
        let conv = Conv2d::new(2, 3, 3, 1, 1, seed + 11);
        let mut fp = conv.clone();
        let mut xrng = XorShiftRng::new(seed + 4);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |_| {
            let v = xrng.next_normal();
            if v > 1.2 {
                v
            } else {
                (v * 0.05).max(0.0)
            }
        });
        let y_ref = fp.forward(&x, false);
        let err = |y: &Tensor<f32>| -> f32 {
            y.as_slice().iter().zip(y_ref.as_slice()).map(|(a, b)| (a - b).powi(2)).sum()
        };
        let shape = x.shape4().unwrap();
        let (y8, _) = mixed(&conv, &x, &uniform_masks(shape, true));
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 10.0);
        let (ym, _) = mixed(&conv, &x, &[p.predict(&x)]);
        let (y4, _) = mixed(&conv, &x, &uniform_masks(shape, false));
        assert!(err(&y8) <= err(&ym) + 1e-3);
        assert!(err(&ym) <= err(&y4) + 1e-3);
    }
}

#[test]
fn mask_fractions_are_consistent() {
    let mut rng = XorShiftRng::new(3006);
    for _ in 0..64 {
        let h = range(&mut rng, 2, 30);
        let w = range(&mut rng, 2, 30);
        let rx = range(&mut rng, 1, 6);
        let ry = range(&mut rng, 1, 6);
        let seed = rng.next_below(200) as u64;
        let grid = RegionGrid::new(h, w, RegionSize::new(rx, ry));
        let mut brng = XorShiftRng::new(seed + 5);
        let bits: Vec<bool> = (0..grid.region_count()).map(|_| brng.next_f64() < 0.3).collect();
        let m = MaskMap::from_bits(grid, bits);
        assert!(m.sensitive_fraction() >= 0.0 && m.sensitive_fraction() <= 1.0);
        assert!(m.sensitive_pixel_fraction() >= 0.0 && m.sensitive_pixel_fraction() <= 1.0);
        // Pixel census agrees with pixel_sensitive lookups.
        let mut sens_px = 0usize;
        for y in 0..h {
            for x in 0..w {
                if m.pixel_sensitive(y, x) {
                    sens_px += 1;
                }
            }
        }
        assert!((m.sensitive_pixel_fraction() - sens_px as f64 / (h * w) as f64).abs() < 1e-12);
    }
}

#[test]
fn config_layer_resolution_is_always_valid() {
    let mut rng = XorShiftRng::new(3007);
    for _ in 0..64 {
        let h = range(&mut rng, 1, 64);
        let w = range(&mut rng, 1, 64);
        let t = rng.next_f32() * 127.0;
        let depth = rng.next_f64();
        let cfg = DrqConfig::new(RegionSize::new(4, 16), t);
        let layer = cfg.for_layer(h, w, depth);
        assert!(layer.region.x <= h.max(1));
        assert!(layer.region.y <= w.max(1));
        assert!(layer.threshold >= 0.0);
        assert!(layer.threshold <= t + 1e-6);
    }
}
