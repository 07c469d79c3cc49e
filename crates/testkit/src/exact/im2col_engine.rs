//! The im2col/pack engine (Section IV-B).
//!
//! Each PE page has an engine that pulls feature maps from the global
//! buffer, transforms them into the staggered im2col arrangement of
//! Fig. 7(a), packs insensitive values into 4-bit slots alongside the
//! region masks, and fills the line buffer. This module produces the actual
//! row streams the exact systolic simulator consumes — tying the
//! algorithm-side masks to the architecture-side streams.

use super::{PackedStream, StreamElement};
use drq_core::MaskMap;
use drq_quant::{Precision, QuantParams};
use drq_tensor::Tensor;

/// One page's im2col/pack engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Im2ColEngine;

impl Im2ColEngine {
    /// Builds the per-row streams for a tap tile of a convolution: rows are
    /// `(channel, ky, kx)` taps in channel-major order, steps are output
    /// positions in raster order. Values are quantized to INT8 codes with
    /// sensitivity bits taken from the channel's mask; padding positions
    /// stream as insensitive zeros.
    ///
    /// Returns `(streams, packed)` — the row streams for the array and the
    /// dense line-buffer packing (for storage accounting).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or `taps` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn build_streams(
        &self,
        x: &Tensor<f32>,
        image: usize,
        masks: &[MaskMap],
        taps: &[(usize, usize, usize)],
        out_h: usize,
        out_w: usize,
        stride: usize,
        pad: usize,
    ) -> (Vec<Vec<StreamElement>>, PackedStream) {
        assert!(!taps.is_empty(), "need at least one tap row");
        let s = x.shape4().expect("engine input must be rank 4");
        assert_eq!(masks.len(), s.c, "need one mask per channel");
        let params = QuantParams::fit(x.as_slice(), Precision::Int8);
        let xs = x.as_slice();
        let mut streams = Vec::with_capacity(taps.len());
        let mut flat = Vec::new();
        for &(c, ky, kx) in taps {
            assert!(c < s.c, "tap channel out of range");
            let mut row = Vec::with_capacity(out_h * out_w);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let ix = (ox * stride + kx) as isize - pad as isize;
                    let e = if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w
                    {
                        let (iy, ix) = (iy as usize, ix as usize);
                        StreamElement::new(
                            params.quantize_value(xs[s.offset(image, c, iy, ix)]),
                            masks[c].pixel_sensitive(iy, ix),
                        )
                    } else {
                        StreamElement::new(0, false)
                    };
                    row.push(e);
                    flat.push(e);
                }
            }
            streams.push(row);
        }
        let packed = PackedStream::pack(&flat);
        (streams, packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::SystolicArray;
    use drq_core::{RegionGrid, RegionSize, SensitivityPredictor};
    use drq_tensor::XorShiftRng;

    fn blobby(seed: u64) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(seed);
        Tensor::from_fn(&[1, 2, 6, 6], |i| {
            let p = i % 36;
            if p < 12 {
                0.8 + 0.2 * rng.next_f32()
            } else {
                0.02 * rng.next_f32()
            }
        })
    }

    #[test]
    fn streams_cover_every_output_position() {
        let x = blobby(1);
        let predictor = SensitivityPredictor::new(RegionSize::new(2, 2), 20.0);
        let masks = predictor.predict(&x);
        let engine = Im2ColEngine;
        let taps = vec![(0, 0, 0), (0, 0, 1), (1, 1, 1)];
        let (streams, packed) =
            engine.build_streams(&x, 0, &masks, &taps, 6, 6, 1, 1);
        assert_eq!(streams.len(), 3);
        assert!(streams.iter().all(|r| r.len() == 36));
        assert_eq!(packed.len(), 3 * 36);
    }

    #[test]
    fn padding_streams_as_insensitive_zero() {
        let x = Tensor::<f32>::full(&[1, 1, 3, 3], 1.0);
        let grid = RegionGrid::new(3, 3, RegionSize::new(3, 3));
        let masks = vec![drq_core::MaskMap::all_sensitive(grid)];
        let engine = Im2ColEngine;
        // Tap (0,0,0) with pad 1: output (0,0) reads input (-1,-1) = padding.
        let (streams, _) = engine.build_streams(&x, 0, &masks, &[(0, 0, 0)], 3, 3, 1, 1);
        assert_eq!(streams[0][0], StreamElement::new(0, false));
        // Center position reads a real (sensitive) value.
        assert!(streams[0][4].sensitive);
        assert_eq!(streams[0][4].value, 127);
    }

    #[test]
    fn engine_streams_drive_the_exact_array() {
        // End-to-end: engine-built streams through the exact simulator
        // reproduce the direct mixed-precision dot products.
        let x = blobby(3);
        let predictor = SensitivityPredictor::new(RegionSize::new(2, 2), 15.0);
        let masks = predictor.predict(&x);
        let engine = Im2ColEngine;
        let taps = vec![(0usize, 0usize, 0usize), (0, 1, 1), (1, 0, 1), (1, 1, 0)];
        let (streams, _) = engine.build_streams(&x, 0, &masks, &taps, 4, 4, 1, 0);
        let weights = vec![vec![64, -32], vec![16, 8], vec![-128, 127], vec![5, -5]];
        let array = SystolicArray::new(weights.clone());
        let trace = array.simulate(&streams);
        // Spot check one output: step 5 of column 0.
        let t = 5;
        let expect: i64 = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let e = s[t];
                if e.sensitive {
                    (weights[i][0] * e.value) as i64
                } else {
                    (((weights[i][0] >> 4) * (e.value >> 4)) as i64) << 8
                }
            })
            .sum();
        assert_eq!(trace.outputs[0][t], expect);
    }

    #[test]
    fn packing_reflects_sensitivity_density() {
        let x = blobby(5);
        let dense = SensitivityPredictor::new(RegionSize::new(2, 2), 0.0); // all sensitive
        let sparse = SensitivityPredictor::new(RegionSize::new(2, 2), 127.0); // none
        let engine = Im2ColEngine;
        let taps = vec![(0, 0, 0)];
        let (_, p_dense) =
            engine.build_streams(&x, 0, &dense.predict(&x), &taps, 6, 6, 1, 0);
        let (_, p_sparse) =
            engine.build_streams(&x, 0, &sparse.predict(&x), &taps, 6, 6, 1, 0);
        assert!(p_dense.payload_bits() > p_sparse.payload_bits());
        assert!((p_sparse.saving_vs_int8() - 0.5).abs() < 1e-9);
    }
}
