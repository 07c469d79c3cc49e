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
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Half-normal sample: bit-identical to `next_normal().max(0.0)` and
    /// drawing the same two `next_f64` values, but cheaper. For
    /// `u2 ∈ (0.2501, 0.7499)` the cosine is at most `-6e-4` and the
    /// normal sample a strictly negative `f32`, so the result is `0.0`
    /// without evaluating `cos`, `ln` or `sqrt`; every other `u2` takes
    /// the [`Self::next_normal`] formula term for term.
    pub fn next_half_normal(&mut self) -> f32 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        if u2 > 0.2501 && u2 < 0.7499 {
            return 0.0;
        }
        (((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32).max(0.0)
    }

    /// Splits off an independent child generator (for per-layer streams).
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64() | 1)
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
