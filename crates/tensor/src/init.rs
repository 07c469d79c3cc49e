//! Deterministic random initialization utilities.
//!
//! The workspace needs reproducible experiments, so all stochastic code is
//! seeded explicitly. A tiny xorshift generator is provided for the hot paths
//! (data synthesis inside the simulator) where constructing a full `rand`
//! generator per call would be clumsy; weight initialization uses it too so
//! trained stand-in networks are bit-reproducible across runs.

use crate::Tensor;

/// A small, fast, deterministic xorshift64* PRNG.
///
/// Not cryptographic; used for reproducible experiment synthesis only.
///
/// # Examples
///
/// ```
/// use drq_tensor::XorShiftRng;
///
/// let mut a = XorShiftRng::new(7);
/// let mut b = XorShiftRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Creates a generator from a seed. A zero seed is remapped internally
    /// (xorshift has a fixed point at zero).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Standard normal sample via Box-Muller.
    pub fn next_normal(&mut self) -> f32 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        box_muller(u1, u2)
    }

    /// Fills `out` with half-normal samples: bit-identical, element for
    /// element, to `next_normal().max(0.0)` and leaving the generator in
    /// the same state, but with the transcendental work batched into one
    /// branch-free, vectorizable loop per block of 512 draws. Lanes whose
    /// batched product could round differently are recomputed with the
    /// scalar formula.
    ///
    /// # Examples
    ///
    /// ```
    /// use drq_tensor::XorShiftRng;
    ///
    /// let (mut a, mut b) = (XorShiftRng::new(3), XorShiftRng::new(3));
    /// let mut plane = [0.0f32; 1000];
    /// a.fill_half_normal(&mut plane);
    /// assert!(plane.iter().all(|&v| v.to_bits() == b.next_normal().max(0.0).to_bits()));
    /// assert_eq!(a, b);
    /// ```
    pub fn fill_half_normal(&mut self, out: &mut [f32]) {
        for block in out.chunks_mut(HALF_NORMAL_BLOCK) {
            self.half_normal_block(block);
        }
    }

    /// One block of [`Self::fill_half_normal`]; returns how many lanes took
    /// the scalar [`box_muller`] fallback.
    ///
    /// 1. The `(u1, u2)` pairs are drawn serially, as `next_normal` draws
    ///    them. For `u2 ∈ (0.2501, 0.7499)` the cosine is at most `-6e-4`,
    ///    so the sample is a strictly negative `f32` and the result `0.0`;
    ///    only the other lanes are compacted, with their indices.
    /// 2. Box-Muller runs on the compacted lanes with [`ln_fdlibm`] and
    ///    [`cos_fdlibm`], which differ from the platform `ln` and `cos` by
    ///    about one ulp (2^-52 relative), so the `f64` product differs from
    ///    the scalar one by well under 2^-47 relative.
    /// 3. A lane keeps its product only when every value within `2^-44·|z|`
    ///    of it rounds to the same `f32` ([`rounds_alike`]) and its cosine
    ///    exceeds `2^-20` (its sign is then certain and the quadrant
    ///    reduction's absolute error, about 2^-86, is negligible next to
    ///    it). Any other lane is recomputed with [`box_muller`].
    fn half_normal_block(&mut self, out: &mut [f32]) -> usize {
        debug_assert!(out.len() <= HALF_NORMAL_BLOCK);
        let mut u1s = [0.0f64; HALF_NORMAL_BLOCK];
        let mut u2s = [0.0f64; HALF_NORMAL_BLOCK];
        let mut lanes = [0u32; HALF_NORMAL_BLOCK];
        let mut live = 0;
        for (i, v) in out.iter_mut().enumerate() {
            let u1 = self.next_f64().max(1e-12);
            let u2 = self.next_f64();
            *v = 0.0;
            u1s[live] = u1;
            u2s[live] = u2;
            lanes[live] = i as u32;
            live += usize::from(u2 <= 0.2501 || u2 >= 0.7499);
        }
        let mut zs = [0.0f32; HALF_NORMAL_BLOCK];
        let mut exact = [false; HALF_NORMAL_BLOCK];
        for (((z, ok), &u1), &u2) in zs.iter_mut().zip(&mut exact).zip(&u1s).zip(&u2s).take(live) {
            let c = cos_fdlibm(2.0 * std::f64::consts::PI * u2);
            let p = (-2.0 * ln_fdlibm(u1)).sqrt() * c;
            *z = p as f32;
            *ok = c > COS_FLOOR && rounds_alike(p);
        }
        let mut fallbacks = 0;
        for j in 0..live {
            out[lanes[j] as usize] = if exact[j] {
                zs[j]
            } else {
                fallbacks += 1;
                box_muller(u1s[j], u2s[j]).max(0.0)
            };
        }
        fallbacks
    }

    /// Splits off an independent child generator (for per-layer streams).
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64() | 1)
    }
}

/// Draws per block of [`XorShiftRng::fill_half_normal`]: the block's
/// uniforms and results stay on the stack (about 16 KiB).
const HALF_NORMAL_BLOCK: usize = 512;

/// The relative margin of [`rounds_alike`]: about 32 times the largest
/// relative gap between the batched and the scalar Box-Muller product.
const ROUNDING_MARGIN: f64 = 1.0 / (1u64 << 44) as f64;

/// Cosines at or below this take the scalar fallback (`2^-20`).
const COS_FLOOR: f64 = 1.0 / (1u64 << 20) as f64;

/// The Box-Muller transform of one uniform pair, as `next_normal` and the
/// fallback of [`XorShiftRng::fill_half_normal`] both evaluate it.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f32 {
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Whether every value within `ROUNDING_MARGIN·z` of the positive `z`
/// rounds to the same `f32`, i.e. `z` is not near an `f32` rounding
/// midpoint. Rounding is monotone, so the two ends of the interval decide.
#[inline]
fn rounds_alike(z: f64) -> bool {
    (z * (1.0 - ROUNDING_MARGIN)) as f32 == (z * (1.0 + ROUNDING_MARGIN)) as f32
}

/// Natural logarithm of a positive normal `x`, branch-free: fdlibm's
/// `__ieee754_log` (reduction to `f ∈ [√2/2 - 1, √2 - 1]` and the Lg1-Lg7
/// polynomial in `s = f / (2 + f)`), with both of its final formulas
/// evaluated and one selected. Within one ulp of the true logarithm.
#[inline]
fn ln_fdlibm(x: f64) -> f64 {
    // fdlibm's constants, by their bit patterns.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    let bits = x.to_bits() as i64;
    let hx = bits >> 32;
    let m = hx & 0x000f_ffff;
    // Halve the mantissa (and bump the exponent) when it is above √2.
    let i = (m + 0x9_5f64) & 0x10_0000;
    let k = (hx >> 20) - 1023 + (i >> 20);
    let f = f64::from_bits((((m | (i ^ 0x3ff0_0000)) << 32) | (bits & 0xffff_ffff)) as u64) - 1.0;
    let dk = k as f64;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let wide = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let narrow = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);
    if ((m - 0x6_147a) | (0x6_b851 - m)) > 0 {
        wide
    } else {
        narrow
    }
}

/// Cosine of `x ∈ [0, 2π)`, branch-free: fdlibm's medium-range quadrant
/// reduction with the 33-bit `pio2_1` and its tail `pio2_1t`, then both of
/// `__kernel_cos` and `__kernel_sin` on the reduced `y0 + y1`, one selected
/// and signed by the quadrant. Within one ulp of the true cosine wherever
/// `|cos x|` is not tiny (the reduction error is about 2^-86 absolute).
#[inline]
fn cos_fdlibm(x: f64) -> f64 {
    // fdlibm's constants, by their bit patterns: 2/π, the first 33 bits of
    // π/2 and the rest of π/2.
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
    // 1.5·2^52: adding it rounds to an integer held in the low mantissa bits.
    const TOINT: f64 = 6_755_399_441_055_744.0;
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    let t = x * INV_PIO2 + TOINT;
    let quadrant = t.to_bits();
    let n = t - TOINT;
    // Exact: `n·PIO2_1` has at most 36 significant bits and lies within a
    // factor of two of `x` whenever `n > 0`.
    let r = x - n * PIO2_1;
    let tail = n * PIO2_1T;
    let y0 = r - tail;
    let y1 = (r - y0) - tail;
    let z = y0 * y0;
    let w = z * z;
    let cr = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos = one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * cr - y0 * y1));
    let sr = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * y0;
    let sin = y0 - ((z * (0.5 * y1 - v * sr) - y1) - v * S1);
    // Quadrants 0..3 give cos, -sin, -cos, sin.
    let value = if quadrant & 1 == 0 { cos } else { sin };
    if (quadrant + 1) & 2 == 0 {
        value
    } else {
        -value
    }
}

/// He-normal initialization for a weight tensor with the given fan-in.
///
/// # Examples
///
/// ```
/// use drq_tensor::{he_normal, XorShiftRng};
///
/// let mut rng = XorShiftRng::new(1);
/// let w = he_normal(&[16, 8, 3, 3], 8 * 9, &mut rng);
/// assert_eq!(w.len(), 16 * 8 * 9);
/// ```
pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut XorShiftRng) -> Tensor<f32> {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::from_fn(shape, |_| rng.next_normal() * std)
}

/// Uniform initialization in `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut XorShiftRng) -> Tensor<f32> {
    Tensor::from_fn(shape, |_| lo + (hi - lo) * rng.next_f32())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = XorShiftRng::new(123);
        let mut b = XorShiftRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShiftRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = XorShiftRng::new(5);
        for _ in 0..1000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShiftRng::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn normal_has_roughly_unit_variance() {
        let mut r = XorShiftRng::new(77);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| r.next_normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// Fills `len` values from `seed` block by block, as
    /// `fill_half_normal` does, checks each against `next_normal().max(0.0)`
    /// on a twin generator and the final states against each other, and
    /// returns how many lanes took the scalar fallback.
    fn check_half_normal(seed: u64, len: usize) -> usize {
        let (mut fast, mut slow) = (XorShiftRng::new(seed), XorShiftRng::new(seed));
        let mut out = vec![f32::NAN; len];
        let fallbacks = out.chunks_mut(HALF_NORMAL_BLOCK).map(|b| fast.half_normal_block(b)).sum();
        for (i, v) in out.iter().enumerate() {
            let want = slow.next_normal().max(0.0);
            assert_eq!(v.to_bits(), want.to_bits(), "seed {seed}, draw {i}: {v} vs {want}");
        }
        assert_eq!(fast, slow, "seed {seed}, {len} draws: generator states differ");
        fallbacks
    }

    #[test]
    fn fill_half_normal_matches_next_normal_bitwise() {
        for (seed, len) in [(1, 0), (2, 1), (3, 511), (4, 512), (5, 513), (6, 100_003)] {
            let (mut fast, mut slow) = (XorShiftRng::new(seed), XorShiftRng::new(seed));
            let mut out = vec![f32::NAN; len];
            fast.fill_half_normal(&mut out);
            for v in out {
                assert_eq!(v.to_bits(), slow.next_normal().max(0.0).to_bits(), "length {len}");
            }
            assert_eq!(fast, slow, "length {len}");
        }
        // 4M draws over eight seeds, some of which must hit the fallback.
        let fallbacks: usize = (10..18).map(|seed| check_half_normal(seed, 1 << 19)).sum();
        assert!(fallbacks > 0, "no lane reached the scalar fallback");
    }

    /// The release-mode run over 2^26 draws (`scripts/ci.sh` runs it).
    #[test]
    #[ignore = "2^26 draws; run in release mode"]
    fn fill_half_normal_matches_next_normal_over_2_pow_26_draws() {
        let fallbacks: usize = (100..116).map(|seed| check_half_normal(seed, 1 << 22)).sum();
        assert!(fallbacks > 0, "no lane reached the scalar fallback");
    }

    #[test]
    fn rounds_alike_flags_values_near_f32_midpoints() {
        // Halfway between 1 and the next f32 up, and a value mid-gap.
        let midpoint = 1.0 + f64::from(f32::EPSILON) / 2.0;
        let quarter = 1.0 + f64::from(f32::EPSILON) / 4.0;
        for (z, alike) in [
            (1.0, true),
            (quarter, true),
            (midpoint, false),
            (midpoint * (1.0 + 1.0 / (1u64 << 46) as f64), false),
            (midpoint * (1.0 - 1.0 / (1u64 << 46) as f64), false),
            (midpoint * (1.0 + 1.0 / (1u64 << 42) as f64), true),
            (midpoint * (1.0 - 1.0 / (1u64 << 42) as f64), true),
        ] {
            assert_eq!(rounds_alike(z), alike, "{z:e}");
        }
    }

    #[test]
    fn fdlibm_kernels_stay_within_two_ulps_of_libm() {
        // The fallback margin assumes the batched `ln` and `cos` are within a
        // few ulps of the platform's; it allows about 90 times what they
        // differ by here.
        let ulps = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs();
        let mut r = XorShiftRng::new(31);
        for _ in 0..200_000 {
            let u = r.next_f64().max(1e-12);
            assert!(ulps(ln_fdlibm(u), u.ln()) <= 2, "ln {u:e}");
            let x = 2.0 * std::f64::consts::PI * r.next_f64();
            if x.cos().abs() > COS_FLOOR {
                assert!(ulps(cos_fdlibm(x), x.cos()) <= 2, "cos {x:e}");
            }
        }
    }

    #[test]
    fn he_scale_tracks_fan_in() {
        let mut r = XorShiftRng::new(3);
        let w = he_normal(&[64, 64], 64, &mut r);
        let var = w.as_slice().iter().map(|v| v * v).sum::<f32>() / w.len() as f32;
        let expected = 2.0 / 64.0;
        assert!((var - expected).abs() < expected * 0.5, "var {var} vs {expected}");
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut r = XorShiftRng::new(11);
        let mut c1 = r.fork();
        let mut c2 = r.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_respects_range() {
        let mut r = XorShiftRng::new(4);
        let t = uniform(&[100], -2.0, 3.0, &mut r);
        assert!(t.as_slice().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }
}
