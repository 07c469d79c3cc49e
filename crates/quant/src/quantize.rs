//! Tensor-level quantization transforms.

use crate::{Precision, QuantParams};
use drq_tensor::Tensor;

/// Quantizes a float tensor to integer codes under `params`.
///
/// Codes are stored as `i32` regardless of target precision (the precision
/// only bounds their range); the accelerator simulator packs them into 4- or
/// 8-bit lanes itself.
///
/// # Examples
///
/// ```
/// use drq_quant::{quantize, Precision, QuantParams};
/// use drq_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![0.0, 0.5, -1.0], &[3]).unwrap();
/// let q = quantize(&x, &QuantParams::new(0.5, Precision::Int8));
/// assert_eq!(q.as_slice(), &[0, 1, -2]);
/// ```
pub fn quantize(x: &Tensor<f32>, params: &QuantParams) -> Tensor<i32> {
    x.map(|v| params.quantize_value(v))
}

/// Dequantizes integer codes back to floats under `params`.
pub fn dequantize(q: &Tensor<i32>, params: &QuantParams) -> Tensor<f32> {
    q.map(|v| params.dequantize_value(v))
}

/// Round-trips a float tensor through the quantizer, returning floats that
/// carry exactly the quantization error of the integer datapath.
pub fn fake_quantize(x: &Tensor<f32>, params: &QuantParams) -> Tensor<f32> {
    x.map(|v| params.fake_quantize_value(v))
}

/// Per-output-channel fake quantization of a conv weight tensor
/// `[out_c, in_c, k, k]`: each output channel gets its own calibrated scale.
///
/// Per-channel scales are standard practice for weight quantization and are
/// what keeps INT8 weights accuracy-neutral (the TensorRT observation the
/// paper cites in Section V-A).
///
/// # Panics
///
/// Panics if `w` is not rank 4.
pub fn fake_quantize_per_channel(w: &Tensor<f32>, precision: Precision) -> Tensor<f32> {
    assert_eq!(w.rank(), 4, "expected a conv weight tensor");
    let per = w.len() / w.shape()[0].max(1);
    let mut out = Vec::with_capacity(w.len());
    for channel in w.as_slice().chunks(per.max(1)) {
        let params = QuantParams::fit(channel, precision);
        out.extend(channel.iter().map(|&v| params.fake_quantize_value(v)));
    }
    Tensor::from_vec(out, w.shape()).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    #[test]
    fn quantize_dequantize_round_trip_error() {
        let mut rng = XorShiftRng::new(1);
        let x = Tensor::from_fn(&[128], |_| rng.next_normal());
        let p = QuantParams::fit(x.as_slice(), Precision::Int8);
        let back = dequantize(&quantize(&x, &p), &p);
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= p.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn int4_error_is_larger_than_int8() {
        let mut rng = XorShiftRng::new(2);
        let x = Tensor::from_fn(&[512], |_| rng.next_normal());
        let err = |prec| {
            let p = QuantParams::fit(x.as_slice(), prec);
            let xq = fake_quantize(&x, &p);
            x.as_slice()
                .iter()
                .zip(xq.as_slice())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        assert!(err(Precision::Int4) > err(Precision::Int8) * 4.0);
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let mut rng = XorShiftRng::new(3);
        let x = Tensor::from_fn(&[64], |_| rng.next_normal());
        let p = QuantParams::fit(x.as_slice(), Precision::Int4);
        let once = fake_quantize(&x, &p);
        let twice = fake_quantize(&once, &p);
        assert_eq!(once, twice);
    }

    #[test]
    fn per_channel_beats_per_tensor_on_skewed_weights() {
        // Channel 0 has tiny weights, channel 1 huge ones; a shared scale
        // crushes channel 0, per-channel scales do not.
        let mut w = Tensor::<f32>::zeros(&[2, 1, 2, 2]);
        for i in 0..4 {
            w.as_mut_slice()[i] = 0.01 * (i as f32 + 1.0);
            w.as_mut_slice()[4 + i] = 10.0 * (i as f32 + 1.0);
        }
        let per_tensor = {
            let p = QuantParams::fit(w.as_slice(), Precision::Int4);
            fake_quantize(&w, &p)
        };
        let per_channel = fake_quantize_per_channel(&w, Precision::Int4);
        let mse = |a: &Tensor<f32>| {
            w.as_slice()
                .iter()
                .zip(a.as_slice())
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
        };
        assert!(mse(&per_channel) < mse(&per_tensor));
        // Channel 0 must survive per-channel quantization.
        assert!(per_channel.as_slice()[3] > 0.0);
        // ...but is entirely zeroed by the shared scale.
        assert_eq!(per_tensor.as_slice()[3], 0.0);
    }

    #[test]
    fn quantized_codes_stay_in_range() {
        let mut rng = XorShiftRng::new(4);
        let x = Tensor::from_fn(&[256], |_| rng.next_normal() * 100.0);
        for prec in Precision::ALL {
            let p = QuantParams::new(0.1, prec);
            let q = quantize(&x, &p);
            for &code in q.as_slice() {
                assert!(code >= prec.q_min() && code <= prec.q_max());
            }
        }
    }
}
