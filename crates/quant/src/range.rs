//! Static accumulator range analysis for the integer GEMM tier
//! (SIRA-style, see PAPERS.md).
//!
//! The integer kernels accumulate in wrapping i32 with no per-MAC
//! saturation checks. That is sound only when the *exact* dot product is
//! representable in i32 — a property that depends on nothing but the
//! operand precisions and the reduction depth, so it can be proved once
//! per layer instead of checked per MAC:
//!
//! > |Σₖ aₖ·bₖ| ≤ K · max|a| · max|b|, with max|v| = 2^(bits−1) for a
//! > symmetric two's-complement code.
//!
//! When the bound clears `i32::MAX` the layer runs the fast i32 path;
//! otherwise it falls back to the scalar wide (i64) path. The same
//! worst-case product bound also certifies the SIMD kernels' internal
//! pair arithmetic: `2 · max|a| · max|b|` must fit i32 for `vpmaddwd` /
//! `vpdpwssd` pair sums to be exact, which holds for every precision
//! pair with 8-bit-or-narrower operands.

use crate::Precision;

/// Accumulator width selected for a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumWidth {
    /// Proven overflow-free at 32 bits: run the SIMD i32 path with no
    /// runtime checks.
    I32,
    /// Bound exceeds i32: accumulate in i64 (scalar wide path).
    I64,
}

/// The proof record for one reduction: worst-case magnitudes and the
/// width decision they imply.
///
/// # Examples
///
/// ```
/// use drq_quant::{analyze_gemm, AccumWidth, Precision};
///
/// // A ResNet-scale conv reduction (128·3·3) is comfortably safe at i32.
/// let proof = analyze_gemm(Precision::Int8, Precision::Int8, 1152);
/// assert_eq!(proof.width, AccumWidth::I32);
/// assert!(proof.headroom_bits() >= 6);
///
/// // Pathological depth forces the wide path.
/// let deep = analyze_gemm(Precision::Int8, Precision::Int8, 200_000);
/// assert_eq!(deep.width, AccumWidth::I64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeAnalysis {
    /// Worst-case |code| of the left operand (2^(bits−1)).
    pub max_abs_a: i64,
    /// Worst-case |code| of the right operand.
    pub max_abs_b: i64,
    /// Reduction depth (MACs per output).
    pub k: usize,
    /// Worst-case |single product| = max|a|·max|b|.
    pub max_abs_product: i64,
    /// Worst-case |Σ product| = K·max|a|·max|b| (saturating at i64::MAX
    /// for absurd K; anything that large is trivially `I64`).
    pub worst_abs_sum: i64,
    /// True when a single product fits an i16 intermediate — the
    /// precondition for 8-bit-operand SIMD forms that widen products
    /// through i16 lanes.
    pub product_fits_i16: bool,
    /// The accumulator the kernels may use without saturation checks.
    pub width: AccumWidth,
}

impl RangeAnalysis {
    /// Bits of slack between the worst-case sum and `i32::MAX` (0 when
    /// the wide path is required). A healthy layer has several bits of
    /// headroom, so mask-dependent operand sparsity can only help.
    pub fn headroom_bits(&self) -> u32 {
        if self.worst_abs_sum > i32::MAX as i64 {
            0
        } else {
            (i32::MAX as i64 / self.worst_abs_sum.max(1)).ilog2()
        }
    }
}

/// Maximum |code| a symmetric two's-complement value of this precision
/// can take (the negative endpoint: 2^(bits−1)).
fn max_code_abs(p: Precision) -> i64 {
    1i64 << (p.bits() - 1)
}

/// Proves the accumulator width for a `K`-deep dot product of codes at
/// precisions `a × b`.
pub fn analyze_gemm(a: Precision, b: Precision, k: usize) -> RangeAnalysis {
    let max_abs_a = max_code_abs(a);
    let max_abs_b = max_code_abs(b);
    let max_abs_product = max_abs_a * max_abs_b;
    let k_i64 = i64::try_from(k).unwrap_or(i64::MAX);
    let worst_abs_sum = k_i64.saturating_mul(max_abs_product);
    let width = if worst_abs_sum <= i32::MAX as i64 {
        AccumWidth::I32
    } else {
        AccumWidth::I64
    };
    RangeAnalysis {
        max_abs_a,
        max_abs_b,
        k,
        max_abs_product,
        worst_abs_sum,
        product_fits_i16: max_abs_product <= i16::MAX as i64,
        width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_by_int8_bound_and_threshold() {
        // 128·128 = 16384 per product; i32 holds K ≤ 131071 of those.
        let safe = analyze_gemm(Precision::Int8, Precision::Int8, 131_071);
        assert_eq!(safe.max_abs_product, 16_384);
        assert_eq!(safe.width, AccumWidth::I32);
        let unsafe_ = analyze_gemm(Precision::Int8, Precision::Int8, 131_072);
        assert_eq!(unsafe_.width, AccumWidth::I64);
    }

    #[test]
    fn int4_products_are_tiny() {
        let r = analyze_gemm(Precision::Int4, Precision::Int4, 1_000_000);
        assert_eq!(r.max_abs_product, 64);
        assert_eq!(r.width, AccumWidth::I32);
        assert!(r.product_fits_i16);
    }

    #[test]
    fn products_fit_i16_up_to_int8_pairs() {
        assert!(analyze_gemm(Precision::Int8, Precision::Int8, 1).product_fits_i16);
        assert!(analyze_gemm(Precision::Int4, Precision::Int8, 1).product_fits_i16);
        assert!(!analyze_gemm(Precision::Int16, Precision::Int8, 1).product_fits_i16);
    }

    #[test]
    fn headroom_shrinks_with_depth() {
        let shallow = analyze_gemm(Precision::Int8, Precision::Int8, 9);
        let deep = analyze_gemm(Precision::Int8, Precision::Int8, 9_216);
        assert!(shallow.headroom_bits() > deep.headroom_bits());
        assert_eq!(analyze_gemm(Precision::Int8, Precision::Int8, 200_000).headroom_bits(), 0);
    }

    #[test]
    fn zero_depth_is_trivially_safe() {
        let r = analyze_gemm(Precision::Int8, Precision::Int8, 0);
        assert_eq!(r.worst_abs_sum, 0);
        assert_eq!(r.width, AccumWidth::I32);
    }

    #[test]
    fn absurd_depth_saturates_instead_of_overflowing() {
        let r = analyze_gemm(Precision::Int16, Precision::Int16, usize::MAX);
        assert_eq!(r.width, AccumWidth::I64);
    }
}
