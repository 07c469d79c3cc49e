//! Detailed PE-page simulation: a whole (small) convolution layer executed
//! tile by tile through the real component models.
//!
//! This is the middle tier between the register-exact [`super::SystolicArray`]
//! (one tile) and the analytic [`drq_sim::LayerCycleModel`] (whole networks).
//! It drives a layer end to end the way one PE page does:
//!
//! 1. the kernel is split into array-sized sub-kernels
//!    ([`super::SubKernelPlan`], Section IV-D);
//! 2. for each (sub-kernel, tap tile, filter tile), the
//!    [`super::Im2ColEngine`] builds the staggered row streams with packed
//!    sensitivity bits (Section IV-B);
//! 3. the exact variable-speed array executes the tile (Section IV-C);
//! 4. partial sums accumulate in the dual-buffered [`super::OutputBuffer`]
//!    (Section IV-D).
//!
//! The result carries both exact cycles and numerically exact outputs, so
//! tests can differentially validate the fast model *and* the
//! mixed-precision convolution against this composition.

use super::{Im2ColEngine, OutputBuffer, SubKernelPlan, SystolicArray};
use drq_core::MaskMap;
use drq_quant::{Precision, QuantParams};
use drq_tensor::Tensor;

/// Result of a detailed page-level layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTrace {
    /// Total array cycles summed over all tiles (fills included).
    pub cycles: u64,
    /// Tiles launched (sub-kernel × tap tile × filter tile).
    pub tiles: u64,
    /// INT8 column steps across all tiles.
    pub int8_steps: u64,
    /// INT4 column steps across all tiles.
    pub int4_steps: u64,
    /// Accumulator operations in the output buffer.
    pub accumulate_ops: u64,
    /// The layer's outputs `[out_c][out_h*out_w]` in the INT8×INT8 product
    /// domain (dequantize with the weight × activation scales).
    pub outputs: Vec<Vec<i64>>,
}

/// A single PE page executing layers tile by tile.
///
/// # Examples
///
/// ```
/// use drq_testkit::exact::PageSimulator;
///
/// let page = PageSimulator::new(6, 4);
/// assert_eq!(page.rows(), 6);
/// assert_eq!(page.cols(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSimulator {
    rows: usize,
    cols: usize,
}

impl PageSimulator {
    /// Creates a page with a `rows × cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "page dimensions must be positive");
        Self { rows, cols }
    }

    /// PE rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// PE columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Executes an ungrouped convolution (weights `[out_c, in_c, kh, kw]`)
    /// over image 0 of `x` under per-channel sensitivity masks.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistencies.
    #[allow(clippy::too_many_arguments)]
    pub fn run_conv(
        &self,
        x: &Tensor<f32>,
        masks: &[MaskMap],
        weights: &Tensor<f32>,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> PageTrace {
        let s = x.shape4().expect("input must be rank 4");
        let ws = weights.shape();
        assert_eq!(ws.len(), 4, "weights must be rank 4");
        let (out_c, in_c) = (ws[0], ws[1]);
        assert_eq!(in_c, s.c, "channel mismatch");
        assert_eq!((ws[2], ws[3]), (kh, kw), "kernel extent mismatch");
        let out_h = (s.h + 2 * pad - kh) / stride + 1;
        let out_w = (s.w + 2 * pad - kw) / stride + 1;
        let positions = out_h * out_w;

        let wq = QuantParams::fit(weights.as_slice(), Precision::Int8);
        let wv = weights.as_slice();
        let w_code = |oc: usize, c: usize, ky: usize, kx: usize| -> i32 {
            wq.quantize_value(wv[((oc * in_c + c) * kh + ky) * kw + kx])
        };

        let plan = SubKernelPlan::for_kernel(kh, kw);
        let mut trace = PageTrace {
            cycles: 0,
            tiles: 0,
            int8_steps: 0,
            int4_steps: 0,
            accumulate_ops: 0,
            outputs: vec![vec![0i64; positions]; out_c],
        };
        let mut out_buf = OutputBuffer::new(positions);

        // Walk sub-kernel rectangles over the kernel grid.
        let mut row0 = 0usize;
        for &sk_h in plan.row_splits().to_vec().iter() {
            let mut col0 = 0usize;
            let row_base = row0;
            for &sk_w in plan.col_splits().to_vec().iter() {
                // Taps of this sub-kernel, channel-major.
                let mut taps: Vec<(usize, usize, usize)> = Vec::new();
                for c in 0..in_c {
                    for ky in row_base..row_base + sk_h {
                        for kx in col0..col0 + sk_w {
                            taps.push((c, ky, kx));
                        }
                    }
                }
                // Tap tiles of `rows`, filter tiles of `cols`.
                for tap_tile in taps.chunks(self.rows) {
                    let (streams, _packed) = Im2ColEngine.build_streams(
                        x, 0, masks, tap_tile, out_h, out_w, stride, pad,
                    );
                    for filter_tile in (0..out_c).collect::<Vec<_>>().chunks(self.cols) {
                        let weight_matrix: Vec<Vec<i32>> = tap_tile
                            .iter()
                            .map(|&(c, ky, kx)| {
                                filter_tile
                                    .iter()
                                    .map(|&oc| w_code(oc, c, ky, kx))
                                    .collect()
                            })
                            .collect();
                        let array = SystolicArray::new(weight_matrix);
                        let tile = array.simulate(&streams);
                        trace.cycles += tile.cycles;
                        trace.tiles += 1;
                        trace.int8_steps += tile.int8_steps;
                        trace.int4_steps += tile.int4_steps;
                        for (j, &oc) in filter_tile.iter().enumerate() {
                            // Route this column's per-step sums through the
                            // accumulation unit into the output plane.
                            out_buf.accumulate(&tile.outputs[j]);
                            out_buf.swap();
                            for (p, &v) in out_buf.drain().iter().enumerate() {
                                trace.outputs[oc][p] += v;
                            }
                        }
                    }
                }
                col0 += sk_w;
            }
            row0 += sk_h;
        }
        trace.accumulate_ops = out_buf.accumulate_ops();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::{
        uniform_masks, CoalesceInput, MixedPrecisionConv, RegionSize, SensitivityPredictor,
    };
    use drq_nn::Conv2d;
    use drq_tensor::XorShiftRng;

    fn blobby_input(c: usize, hw: usize, seed: u64) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(seed);
        Tensor::from_fn(&[1, c, hw, hw], |i| {
            let p = i % (hw * hw);
            if p < hw * hw / 4 {
                0.7 + 0.3 * rng.next_f32()
            } else {
                0.03 * rng.next_f32()
            }
        })
    }

    /// The page simulator's integer outputs must match the reference
    /// mixed-precision convolution exactly (same quantizers, same
    /// high-nibble INT4 semantics), bias excluded.
    #[test]
    fn page_outputs_match_mixed_precision_conv() {
        let (in_c, out_c, hw, k) = (3, 5, 8, 3);
        let conv = Conv2d::new(in_c, out_c, k, 1, 1, 77);
        let x = blobby_input(in_c, hw, 78);
        let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 12.0);
        let masks = predictor.predict(&x);

        let page = PageSimulator::new(6, 4);
        let trace = page.run_conv(&x, &masks, conv.weight(), k, k, 1, 1);

        // Reference: integer accumulation inside MixedPrecisionConv equals
        // (output - bias) / (scale_w * scale_x).
        let input = CoalesceInput { x: &x, masks: std::slice::from_ref(&masks) };
        let (y, _) = MixedPrecisionConv::forward(&conv, None, &[input]).remove(0);
        let aq = QuantParams::fit(x.as_slice(), Precision::Int8);
        let wq = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
        let dequant = aq.scale() * wq.scale();
        for oc in 0..out_c {
            for oy in 0..hw {
                for ox in 0..hw {
                    let expected =
                        ((y[[0, oc, oy, ox]] - conv.bias().as_slice()[oc]) / dequant).round()
                            as i64;
                    let got = trace.outputs[oc][oy * hw + ox];
                    assert_eq!(got, expected, "oc={oc} ({oy},{ox})");
                }
            }
        }
    }

    #[test]
    fn large_kernels_split_and_still_match() {
        // 5x5 kernel: 4 sub-kernels accumulated in the output buffer.
        let (in_c, out_c, hw, k) = (2, 3, 9, 5);
        let conv = Conv2d::new(in_c, out_c, k, 1, 2, 31);
        let x = blobby_input(in_c, hw, 32);
        let masks = uniform_masks(x.shape4().unwrap(), false)[0].clone();
        let page = PageSimulator::new(6, 3);
        let trace = page.run_conv(&x, &masks, conv.weight(), k, k, 1, 2);
        assert!(trace.tiles >= 4, "5x5 must launch multiple tiles: {}", trace.tiles);

        let input = CoalesceInput { x: &x, masks: &[masks] };
        let (y, _) = MixedPrecisionConv::forward(&conv, None, &[input]).remove(0);
        let aq = QuantParams::fit(x.as_slice(), Precision::Int8);
        let wq = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
        let dequant = aq.scale() * wq.scale();
        for oc in 0..out_c {
            for p in 0..hw * hw {
                let expected = ((y[[0, oc, p / hw, p % hw]]
                    - conv.bias().as_slice()[oc])
                    / dequant)
                    .round() as i64;
                assert_eq!(trace.outputs[oc][p], expected, "oc={oc} p={p}");
            }
        }
    }

    #[test]
    fn page_cycles_track_fast_model_compute() {
        // For a single-page config, the page trace's cycles must equal the
        // fast model's compute+fill (weight loads excluded: the page model
        // does not charge them).
        use drq_models::ConvLayerSpec;
        let (in_c, out_c, hw, k) = (2, 4, 6, 3);
        let conv = Conv2d::new(in_c, out_c, k, 1, 1, 41);
        let x = blobby_input(in_c, hw, 42);
        let predictor = SensitivityPredictor::new(RegionSize::new(2, 2), 20.0);
        let masks = predictor.predict(&x);

        let rows = 9;
        let cols = 4;
        let page = PageSimulator::new(rows, cols);
        let trace = page.run_conv(&x, &masks, conv.weight(), k, k, 1, 1);

        let model = drq_sim::LayerCycleModel::new(rows, cols, 1);
        let spec = ConvLayerSpec::conv("t", "b", in_c, hw, hw, out_c, k, k, 1, 1);
        let fast = model.simulate_layer(&spec, &masks);
        assert_eq!(trace.int8_steps, fast.int8_steps);
        assert_eq!(trace.int4_steps, fast.int4_steps);
        // The page composition launches tiles back to back (no double
        // buffering), so it pays one full pipeline fill per tile; the fast
        // model overlaps all but the first. Compute cycles must agree
        // exactly once fills are normalized out.
        let fill = (rows + cols - 1) as u64;
        assert_eq!(
            trace.cycles - trace.tiles * fill,
            fast.compute_cycles,
            "page composition diverges from the analytic model"
        );
    }

    #[test]
    fn sensitivity_slows_the_page_down() {
        let (in_c, out_c, hw, k) = (2, 2, 6, 3);
        let conv = Conv2d::new(in_c, out_c, k, 1, 1, 51);
        let x = blobby_input(in_c, hw, 52);
        let page = PageSimulator::new(6, 2);
        let shape = x.shape4().unwrap();
        let fast = page.run_conv(
            &x,
            &uniform_masks(shape, false)[0],
            conv.weight(),
            k,
            k,
            1,
            1,
        );
        let slow = page.run_conv(
            &x,
            &uniform_masks(shape, true)[0],
            conv.weight(),
            k,
            k,
            1,
            1,
        );
        assert!(slow.cycles > 2 * fast.cycles, "{} vs {}", slow.cycles, fast.cycles);
        assert_eq!(fast.int8_steps, 0);
        assert_eq!(slow.int4_steps, 0);
    }
}
