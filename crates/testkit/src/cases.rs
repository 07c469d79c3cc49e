//! Structured test cases: generation, shrinking, and materialization.
//!
//! Each case type is a small plain-data record of *geometry + seeds*: the
//! heavy artifacts (tensors, layers, masks, streams) are rebuilt
//! deterministically from the record by its `build`-style methods. That
//! keeps `Debug` output readable in failure reports, makes shrinking a
//! matter of shrinking a few integers, and guarantees that replaying a seed
//! reconstructs the exact failing inputs.
//!
//! Every `shrink` method proposes strictly-simpler candidates and filters
//! them through the case's own validity predicate, so shrinking can never
//! escape the generator's invariants (e.g. "kernel fits the padded input"
//! or "GEMM depth within one cache panel").

use crate::exact::StreamElement;
use crate::gen::ValueDist;
use crate::shrink::{shrink_f32, shrink_usize};
use drq_core::{MaskMap, RegionGrid, RegionSize};
use drq_models::{ConvLayerSpec, FeatureMapSynthesizer};
use drq_nn::Conv2d;
use drq_quant::Precision;
use drq_sim::{FaultPlan, FaultRule, FaultSite};
use drq_store::{IoFaultPlan, IoFaultRule, IoFaultSite};
use drq_tensor::{Shape4, Tensor, XorShiftRng};

/// Maximum GEMM depth for which the blocked kernel is bit-identical to the
/// naive i-k-j reference (one KC cache panel of the in-tree kernel).
pub const BIT_EXACT_MAX_K: usize = 256;

fn shrink_field<T, V>(
    out: &mut Vec<T>,
    candidates: Vec<V>,
    rebuild: impl Fn(V) -> T,
    valid: impl Fn(&T) -> bool,
) {
    for v in candidates {
        let cand = rebuild(v);
        if valid(&cand) {
            out.push(cand);
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// A matrix-multiply case: `a (m×k) · b (k×n)` with both operands drawn
/// from `dist` using `data_seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmCase {
    /// Output rows.
    pub m: usize,
    /// Inner (accumulation) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Operand value distribution.
    pub dist: ValueDist,
    /// Seed for operand data.
    pub data_seed: u64,
}

impl GemmCase {
    /// Generates a case with `k ≤ 256` (the bit-exact tier). Sizes mix tiny
    /// shapes with blocked-path shapes (≥ 16 K MACs), and any dimension is
    /// occasionally zero to exercise the degenerate-extent guards.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let (m, k, n) = if rng.next_below(8) == 0 {
            // Degenerate: one random dimension is zero.
            let mut dims = [1 + rng.next_below(8), 1 + rng.next_below(8), 1 + rng.next_below(8)];
            dims[rng.next_below(3)] = 0;
            (dims[0], dims[1], dims[2])
        } else if rng.next_below(2) == 0 {
            (1 + rng.next_below(8), 1 + rng.next_below(8), 1 + rng.next_below(8))
        } else {
            // Large enough to hit the blocked kernel, depth within a panel.
            (32 + rng.next_below(65), 32 + rng.next_below(BIT_EXACT_MAX_K - 31), 16 + rng.next_below(33))
        };
        Self {
            m,
            k: k.min(BIT_EXACT_MAX_K),
            n,
            dist: ValueDist::pick(rng, &ValueDist::ALL),
            data_seed: rng.next_u64(),
        }
    }

    /// Generates a case with `k > 256` (multi-panel; tolerance tier only).
    pub fn arbitrary_deep(rng: &mut XorShiftRng) -> Self {
        Self {
            m: 1 + rng.next_below(24),
            k: BIT_EXACT_MAX_K + 1 + rng.next_below(400),
            n: 1 + rng.next_below(24),
            // Finite values only: tolerance comparisons need finite sums.
            dist: ValueDist::pick(rng, &[ValueDist::Uniform, ValueDist::Normal]),
            data_seed: rng.next_u64(),
        }
    }

    /// Generates a case with `m ≤ 9` at any depth up to 600: shapes that
    /// cross the blocked kernel's small-product cutoff (16 K MACs), its KC
    /// panel depth (256), its 8- and 4-row tiles and its 16-wide strips.
    /// Only for oracles that compare two production paths, since past one
    /// panel no naive reference is bit-exact.
    pub fn arbitrary_short(rng: &mut XorShiftRng) -> Self {
        Self {
            m: 1 + rng.next_below(9),
            k: 1 + rng.next_below(600),
            n: 1 + rng.next_below(40),
            dist: ValueDist::pick(rng, &ValueDist::ALL),
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the operands.
    pub fn operands(&self) -> (Tensor<f32>, Tensor<f32>) {
        let mut rng = XorShiftRng::new(self.data_seed);
        let a = self.dist.tensor(&[self.m, self.k], &mut rng);
        let b = self.dist.tensor(&[self.k, self.n], &mut rng);
        (a, b)
    }

    /// Shrink candidates: each dimension toward zero, distribution toward
    /// simpler variants.
    pub fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let ok = |_: &Self| true;
        shrink_field(&mut out, shrink_usize(self.m, 0), |m| Self { m, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.k, 0), |k| Self { k, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.n, 0), |n| Self { n, ..*self }, ok);
        shrink_field(&mut out, self.dist.shrink(), |dist| Self { dist, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Integer GEMM
// ---------------------------------------------------------------------------

/// Operand populations for the integer-tier GEMM cases, ordered simplest
/// first for shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntDist {
    /// All zeros.
    Zeros,
    /// Uniform over the full INT4 code range `[-8, 7]`.
    Int4Range,
    /// Uniform over the full INT8 code range `[-128, 127]`.
    FullRange,
    /// Saturation boundaries only: `{-128, -127, 0, 127}`, the operand
    /// extremes that maximize per-product magnitude (`(-128)² = 16384`).
    Extremes,
}

impl IntDist {
    const ORDER: [IntDist; 4] =
        [IntDist::Zeros, IntDist::Int4Range, IntDist::FullRange, IntDist::Extremes];

    fn complexity(self) -> usize {
        Self::ORDER.iter().position(|&d| d == self).expect("variant listed")
    }

    fn shrink(self) -> Vec<IntDist> {
        Self::ORDER[..self.complexity()].to_vec()
    }

    /// Draws one code. Every variant stays within `[-128, 127]`; only
    /// [`IntDist::Int4Range`] and [`IntDist::Zeros`] stay within `[-8, 7]`.
    pub fn sample(self, rng: &mut XorShiftRng) -> i8 {
        match self {
            IntDist::Zeros => 0,
            IntDist::Int4Range => (rng.next_below(16) as i64 - 8) as i8,
            IntDist::FullRange => (rng.next_u64() & 0xff) as u8 as i8,
            IntDist::Extremes => [-128i8, -127, 0, 127][rng.next_below(4)],
        }
    }

    /// Whether every drawn code fits the INT4 range `[-8, 7]`.
    pub fn fits_int4(self) -> bool {
        matches!(self, IntDist::Zeros | IntDist::Int4Range)
    }
}

/// An integer matrix-multiply case: `a (m×k) · b (k×n)` over `i8` codes.
///
/// Unlike [`GemmCase`] there is no depth cap: wrapping-`i32` accumulation
/// is order-independent modulo 2³², so the production tier must match the
/// truncated exact sum bit-for-bit at *every* depth — including depths
/// where the `i32` accumulator genuinely wraps (`k > 131071` at the
/// extremes), which the deep generator exercises with skinny shapes to
/// keep the naive oracle affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntGemmCase {
    /// Output rows.
    pub m: usize,
    /// Inner (accumulation) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Left-operand population.
    pub dist_a: IntDist,
    /// Right-operand population.
    pub dist_b: IntDist,
    /// Seed for operand data.
    pub data_seed: u64,
}

impl IntGemmCase {
    /// Generates a routine case: tiny shapes, blocked-path shapes
    /// (≥ 16 K MACs), occasional zero dimensions and odd depths (the
    /// pair-interleaved panels pad odd `k`).
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let (m, k, n) = if rng.next_below(8) == 0 {
            let mut dims = [1 + rng.next_below(8), 1 + rng.next_below(8), 1 + rng.next_below(8)];
            dims[rng.next_below(3)] = 0;
            (dims[0], dims[1], dims[2])
        } else if rng.next_below(2) == 0 {
            (1 + rng.next_below(8), 1 + rng.next_below(9), 1 + rng.next_below(8))
        } else {
            // Blocked path; depth crosses the KC=256 panel boundary and the
            // odd-k tail.
            (24 + rng.next_below(48), 200 + rng.next_below(120), 16 + rng.next_below(36))
        };
        Self {
            m,
            k,
            n,
            dist_a: IntDist::ORDER[rng.next_below(4)],
            dist_b: IntDist::ORDER[rng.next_below(4)],
            data_seed: rng.next_u64(),
        }
    }

    /// Generates a wraparound case: skinny (`m, n ≤ 2`) but deep enough
    /// that extreme operands overflow an `i32` accumulator
    /// (`k·16384 > 2³¹`), pinning the tier's wrapping semantics.
    pub fn arbitrary_wrapping(rng: &mut XorShiftRng) -> Self {
        Self {
            m: 1 + rng.next_below(2),
            k: 131_072 + rng.next_below(40_000),
            n: 1 + rng.next_below(2),
            dist_a: IntDist::Extremes,
            dist_b: IntDist::Extremes,
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the operands.
    pub fn operands(&self) -> (Tensor<i8>, Tensor<i8>) {
        let mut rng = XorShiftRng::new(self.data_seed);
        let a = Tensor::from_fn(&[self.m, self.k], |_| self.dist_a.sample(&mut rng));
        let b = Tensor::from_fn(&[self.k, self.n], |_| self.dist_b.sample(&mut rng));
        (a, b)
    }

    /// Shrink candidates: dimensions toward zero, populations toward
    /// simpler variants.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |_: &Self| true;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.m, 0), |m| Self { m, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.k, 0), |k| Self { k, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.n, 0), |n| Self { n, ..*self }, ok);
        shrink_field(&mut out, self.dist_a.shrink(), |dist_a| Self { dist_a, ..*self }, ok);
        shrink_field(&mut out, self.dist_b.shrink(), |dist_b| Self { dist_b, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

/// A convolution-layer case. Channel counts are stored per group
/// (`in_c = groups·cpg_in`) so shrinking any field preserves divisibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvCase {
    /// Batch size.
    pub batch: usize,
    /// Input channels per group.
    pub cpg_in: usize,
    /// Output channels per group.
    pub cpg_out: usize,
    /// Channel groups.
    pub groups: usize,
    /// Square kernel extent.
    pub k: usize,
    /// Stride (may exceed the kernel).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input value distribution.
    pub dist: ValueDist,
    /// Seed for the layer's weight initialization.
    pub conv_seed: u64,
    /// Seed for input data.
    pub data_seed: u64,
}

impl ConvCase {
    /// Generates a valid geometry whose GEMM depth (`cpg_in·k²`) stays
    /// within the bit-exact panel bound. Includes 1×1 kernels,
    /// stride > kernel, kernel == padded input, and grouped layers.
    pub fn arbitrary_from(rng: &mut XorShiftRng, palette: &[ValueDist]) -> Self {
        let groups = if rng.next_below(4) == 0 { 2 } else { 1 };
        let cpg_in = 1 + rng.next_below(3);
        let cpg_out = 1 + rng.next_below(3);
        let k: usize = [1, 1, 2, 3, 3, 5][rng.next_below(6)];
        let stride = 1 + rng.next_below(3);
        let pad = rng.next_below(3);
        let min_hw = 1.max(k.saturating_sub(2 * pad));
        let case = Self {
            batch: 1 + rng.next_below(3),
            cpg_in,
            cpg_out,
            groups,
            k,
            stride,
            pad,
            h: min_hw + rng.next_below(10),
            w: min_hw + rng.next_below(10),
            dist: ValueDist::pick(rng, palette),
            conv_seed: rng.next_u64(),
            data_seed: rng.next_u64(),
        };
        debug_assert!(case.is_valid());
        case
    }

    /// [`ConvCase::arbitrary_from`] over every distribution (bit-identity
    /// oracles).
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self::arbitrary_from(rng, &ValueDist::ALL)
    }

    /// Generates a geometry for the backward-pass oracle: half the cases
    /// from [`ConvCase::arbitrary`], half with up to 12 input and 20 output
    /// channels per group, so the weight- and column-gradient GEMMs reach
    /// the blocked kernel with full and partial tiles. Every case keeps all
    /// three GEMM depths within the bit-exact bound
    /// ([`ConvCase::is_valid_backward`]).
    pub fn arbitrary_backward(rng: &mut XorShiftRng) -> Self {
        loop {
            let mut case = Self::arbitrary(rng);
            if rng.next_below(2) == 0 {
                case.cpg_in = 1 + rng.next_below(12);
                case.cpg_out = 1 + rng.next_below(20);
                case.k = [1, 3, 3, 5][rng.next_below(4)];
                case.stride = 1 + rng.next_below(2);
                let min_hw = 1.max(case.k.saturating_sub(2 * case.pad));
                case.h = min_hw + rng.next_below(15);
                case.w = min_hw + rng.next_below(15);
            }
            if case.is_valid_backward() {
                return case;
            }
        }
    }

    /// [`ConvCase::is_valid`], plus the backward pass's own GEMM depths
    /// within the bit-exact bound: output positions per image (the
    /// weight-gradient depth) and output channels per group (the
    /// column-gradient depth).
    pub fn is_valid_backward(&self) -> bool {
        let out = |len: usize| (len + 2 * self.pad - self.k) / self.stride + 1;
        self.is_valid()
            && out(self.h) * out(self.w) <= BIT_EXACT_MAX_K
            && self.cpg_out <= BIT_EXACT_MAX_K
    }

    /// Materializes the layer and its input, as [`ConvCase::build`] does,
    /// plus an output gradient drawn from `dist` with the stream that
    /// follows the input's.
    pub fn build_backward(&self) -> (Conv2d, Tensor<f32>, Tensor<f32>) {
        let (conv, _) = self.build();
        let mut rng = XorShiftRng::new(self.data_seed);
        let x = self.dist.tensor(&self.input_shape().as_array(), &mut rng);
        let gy = self.dist.tensor(&conv.output_shape(self.input_shape()).as_array(), &mut rng);
        (conv, x, gy)
    }

    /// [`ConvCase::shrink`] filtered by [`ConvCase::is_valid_backward`]
    /// (a smaller stride can grow the output past the bound).
    pub fn shrink_backward(&self) -> Vec<Self> {
        self.shrink().into_iter().filter(Self::is_valid_backward).collect()
    }

    /// Total input channels.
    pub fn in_c(&self) -> usize {
        self.groups * self.cpg_in
    }

    /// Total output channels.
    pub fn out_c(&self) -> usize {
        self.groups * self.cpg_out
    }

    /// The input shape.
    pub fn input_shape(&self) -> Shape4 {
        Shape4::new(self.batch, self.in_c(), self.h, self.w)
    }

    /// Whether the geometry is accepted by `Conv2d` and stays within the
    /// bit-exact GEMM-depth bound.
    pub fn is_valid(&self) -> bool {
        self.is_valid_geometry() && self.cpg_in * self.k * self.k <= BIT_EXACT_MAX_K
    }

    /// Whether `Conv2d` accepts the geometry, at any GEMM depth (the
    /// integer lowering is exact at every depth).
    pub fn is_valid_geometry(&self) -> bool {
        self.batch >= 1
            && self.cpg_in >= 1
            && self.cpg_out >= 1
            && self.groups >= 1
            && self.k >= 1
            && self.stride >= 1
            && self.h >= 1
            && self.w >= 1
            && self.h + 2 * self.pad >= self.k
            && self.w + 2 * self.pad >= self.k
    }

    /// Materializes the layer and its input.
    pub fn build(&self) -> (Conv2d, Tensor<f32>) {
        let conv = Conv2d::with_groups(
            self.in_c(),
            self.out_c(),
            self.k,
            self.stride,
            self.pad,
            self.groups,
            self.conv_seed,
        );
        let mut rng = XorShiftRng::new(self.data_seed);
        let x = self.dist.tensor(&self.input_shape().as_array(), &mut rng);
        (conv, x)
    }

    /// Shrink candidates, all validity-filtered.
    pub fn shrink(&self) -> Vec<Self> {
        self.shrink_where(Self::is_valid)
    }

    /// Shrink candidates accepted by `ok`.
    fn shrink_where(&self, ok: fn(&Self) -> bool) -> Vec<Self> {
        let min_hw = 1.max(self.k.saturating_sub(2 * self.pad));
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.batch, 1), |batch| Self { batch, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.groups, 1), |groups| Self { groups, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.cpg_in, 1), |cpg_in| Self { cpg_in, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.cpg_out, 1), |cpg_out| Self { cpg_out, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.k, 1), |k| Self { k, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.stride, 1), |stride| Self { stride, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.pad, 0), |pad| Self { pad, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.h, min_hw), |h| Self { h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.w, min_hw), |w| Self { w, ..*self }, ok);
        shrink_field(&mut out, self.dist.shrink(), |dist| Self { dist, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Mixed-precision convolution
// ---------------------------------------------------------------------------

/// How a [`MixedConvCase`] fills its region masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskKind {
    /// Every region insensitive (uniform INT4).
    AllInsensitive,
    /// Every region sensitive (uniform INT8).
    AllSensitive,
    /// Independent random bit per region, per image and channel.
    Random,
}

impl MaskKind {
    const ORDER: [MaskKind; 3] = [MaskKind::AllInsensitive, MaskKind::AllSensitive, MaskKind::Random];

    fn complexity(self) -> usize {
        Self::ORDER.iter().position(|&m| m == self).expect("variant listed")
    }

    fn shrink(self) -> Vec<MaskKind> {
        Self::ORDER[..self.complexity()].to_vec()
    }
}

/// A mixed-precision convolution case: a [`ConvCase`] plus a DRQ region
/// mask configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedConvCase {
    /// The underlying layer geometry and input.
    pub conv: ConvCase,
    /// Region height.
    pub region_x: usize,
    /// Region width.
    pub region_y: usize,
    /// Mask fill strategy.
    pub mask_kind: MaskKind,
    /// Seed for random mask bits.
    pub mask_seed: u64,
}

impl MixedConvCase {
    /// Generates a case over finite-valued inputs (the error-bound oracle
    /// compares against an fp32 reference, which must not overflow).
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let conv = ConvCase::arbitrary_from(rng, &ValueDist::FINITE);
        Self {
            conv,
            region_x: 1 + rng.next_below(6),
            region_y: 1 + rng.next_below(6),
            mask_kind: MaskKind::ORDER[rng.next_below(3)],
            mask_seed: rng.next_u64(),
        }
    }

    /// Generates a case with wide channel groups for the integer lowering:
    /// up to 20 output and 40 input channels per group (odd counts
    /// included), kernels 1–5, strides 1–3, groups 1–3 and widths up to
    /// 40. Reduction depths (`cpg_in·k²`, up to 1000) cross the kernel's
    /// 256-deep panels, full 4-row tiles meet grouped and stride-3 layers,
    /// and output rows cross a 32-lane strip. One image, at most 10 rows,
    /// keeps the tap-loop oracle cheap.
    pub fn arbitrary_wide(rng: &mut XorShiftRng) -> Self {
        let mut case = Self::arbitrary(rng);
        let c = &mut case.conv;
        c.batch = 1;
        c.cpg_in = 1 + rng.next_below(40);
        c.cpg_out = 1 + rng.next_below(20);
        c.groups = 1 + rng.next_below(3);
        c.k = 1 + rng.next_below(5);
        c.stride = 1 + rng.next_below(3);
        let min_hw = 1.max(c.k.saturating_sub(2 * c.pad));
        c.h = min_hw + rng.next_below(11 - min_hw);
        c.w = min_hw + rng.next_below(41 - min_hw);
        debug_assert!(c.is_valid_geometry());
        case
    }

    /// Materializes the per-image, per-channel masks for input shape `s`.
    pub fn build_masks(&self, s: Shape4) -> Vec<Vec<MaskMap>> {
        let grid = RegionGrid::new(s.h, s.w, RegionSize::new(self.region_x, self.region_y));
        let mut rng = XorShiftRng::new(self.mask_seed);
        (0..s.n)
            .map(|_| {
                (0..s.c)
                    .map(|_| match self.mask_kind {
                        MaskKind::AllInsensitive => MaskMap::all_insensitive(grid),
                        MaskKind::AllSensitive => MaskMap::all_sensitive(grid),
                        MaskKind::Random => {
                            let bits =
                                (0..grid.region_count()).map(|_| rng.next_u64() & 1 == 1).collect();
                            MaskMap::from_bits(grid, bits)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Shrink candidates: the inner conv case, the region extents, and the
    /// mask kind.
    pub fn shrink(&self) -> Vec<Self> {
        self.shrink_where(ConvCase::is_valid)
    }

    /// Shrink candidates of an [`MixedConvCase::arbitrary_wide`] case: as
    /// [`MixedConvCase::shrink`], at any reduction depth.
    pub fn shrink_wide(&self) -> Vec<Self> {
        self.shrink_where(ConvCase::is_valid_geometry)
    }

    /// Shrink candidates whose conv case `valid` accepts.
    fn shrink_where(&self, valid: fn(&ConvCase) -> bool) -> Vec<Self> {
        let ok = |c: &Self| valid(&c.conv) && c.region_x >= 1 && c.region_y >= 1;
        let mut out = Vec::new();
        shrink_field(&mut out, self.conv.shrink_where(valid), |conv| Self { conv, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_x, 1), |region_x| Self { region_x, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_y, 1), |region_y| Self { region_y, ..*self }, ok);
        shrink_field(&mut out, self.mask_kind.shrink(), |mask_kind| Self { mask_kind, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Quantizer configs
// ---------------------------------------------------------------------------

/// A quantizer-invariant case: a value population and a target precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantCase {
    /// Number of values.
    pub len: usize,
    /// Value distribution.
    pub dist: ValueDist,
    /// Target precision.
    pub precision: Precision,
    /// Seed for the values.
    pub data_seed: u64,
}

impl QuantCase {
    const PRECISIONS: [Precision; 3] = [Precision::Int4, Precision::Int8, Precision::Int16];

    /// Generates a case (length may be zero; all finite distributions plus
    /// extremes — quantization itself must tolerate any magnitude).
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self {
            len: rng.next_below(257),
            dist: ValueDist::pick(rng, &ValueDist::ALL),
            precision: Self::PRECISIONS[rng.next_below(3)],
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the value population.
    pub fn values(&self) -> Vec<f32> {
        self.dist.fill(self.len, &mut XorShiftRng::new(self.data_seed))
    }

    /// Shrink candidates: fewer values, simpler distribution, narrower
    /// precision (narrower = fewer codes = simpler counterexample).
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |_: &Self| true;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.len, 0), |len| Self { len, ..*self }, ok);
        shrink_field(&mut out, self.dist.shrink(), |dist| Self { dist, ..*self }, ok);
        let pidx = Self::PRECISIONS.iter().position(|&p| p == self.precision).expect("listed");
        shrink_field(&mut out, Self::PRECISIONS[..pidx].to_vec(), |precision| Self { precision, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Systolic-array streams
// ---------------------------------------------------------------------------

/// Sensitivity patterns for systolic input streams, from stall-free to
/// pathological.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPattern {
    /// No sensitive element: every step runs 1 cycle, zero stalls.
    AllInsensitive,
    /// Every element sensitive: every step runs 4 cycles, zero stalls
    /// (nobody waits — everyone computes INT8).
    AllSensitive,
    /// Exactly one row sensitive every step — the worst stall ratio:
    /// `3·(rows−1)` stall PE-cycles per step per column.
    SingleRowAlways,
    /// Whole array flips between INT8 and INT4 steps (mode-switch stress).
    AlternatingSteps,
    /// A dense sensitive burst in the first quarter, silence after.
    Burst,
    /// Independent 30% sensitivity per element.
    Random,
}

impl StreamPattern {
    const ORDER: [StreamPattern; 6] = [
        StreamPattern::AllInsensitive,
        StreamPattern::AllSensitive,
        StreamPattern::SingleRowAlways,
        StreamPattern::AlternatingSteps,
        StreamPattern::Burst,
        StreamPattern::Random,
    ];

    fn complexity(self) -> usize {
        Self::ORDER.iter().position(|&p| p == self).expect("variant listed")
    }

    fn shrink(self) -> Vec<StreamPattern> {
        Self::ORDER[..self.complexity()].to_vec()
    }

    fn sensitive(self, row: usize, rows: usize, step: usize, steps: usize, rng: &mut XorShiftRng) -> bool {
        match self {
            StreamPattern::AllInsensitive => false,
            StreamPattern::AllSensitive => true,
            StreamPattern::SingleRowAlways => row == rows - 1,
            StreamPattern::AlternatingSteps => step % 2 == 0,
            StreamPattern::Burst => step < steps.div_ceil(4) && rng.next_below(2) == 0,
            StreamPattern::Random => rng.next_f64() < 0.3,
        }
    }
}

/// A systolic-array workload: array geometry, stream length and a
/// sensitivity pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCase {
    /// PE rows (stream count).
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Steps per stream (may be zero).
    pub steps: usize,
    /// Sensitivity pattern.
    pub pattern: StreamPattern,
    /// Seed for weights, values and random sensitivity bits.
    pub data_seed: u64,
}

impl StreamCase {
    /// Generates a workload.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self {
            rows: 1 + rng.next_below(8),
            cols: 1 + rng.next_below(8),
            steps: rng.next_below(33),
            pattern: StreamPattern::ORDER[rng.next_below(6)],
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the INT8 weight matrix and per-row input streams.
    pub fn build(&self) -> (Vec<Vec<i32>>, Vec<Vec<StreamElement>>) {
        let mut rng = XorShiftRng::new(self.data_seed);
        let weights = (0..self.rows)
            .map(|_| (0..self.cols).map(|_| rng.next_below(255) as i32 - 127).collect())
            .collect();
        let streams = (0..self.rows)
            .map(|row| {
                (0..self.steps)
                    .map(|step| {
                        let value = rng.next_below(255) as i32 - 127;
                        let sens =
                            self.pattern.sensitive(row, self.rows, step, self.steps, &mut rng);
                        StreamElement::new(value, sens)
                    })
                    .collect()
            })
            .collect();
        (weights, streams)
    }

    /// Shrink candidates: smaller array, fewer steps, simpler pattern.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| c.rows >= 1 && c.cols >= 1;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.rows, 1), |rows| Self { rows, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.cols, 1), |cols| Self { cols, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.steps, 0), |steps| Self { steps, ..*self }, ok);
        shrink_field(&mut out, self.pattern.shrink(), |pattern| Self { pattern, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// A fault-injection case: a systolic workload ([`StreamCase`]) plus one
/// fault rule targeting a single site. Rates and bit indices are stored as
/// small integers so shrinking stays integer shrinking; `build_plan`
/// normalizes them into a valid [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanCase {
    /// The workload the faults strike.
    pub stream: StreamCase,
    /// Index into [`FaultSite::ALL`].
    pub site_index: usize,
    /// Fault rate in tenths of a percent (`rate = rate_permille / 1000`).
    pub rate_permille: usize,
    /// Fixed bit index to corrupt (taken modulo the site's word width).
    pub bit: usize,
    /// Event cap; `0` means unbounded.
    pub max_events: usize,
    /// Seed of the plan's fault RNG stream.
    pub plan_seed: u64,
}

impl FaultPlanCase {
    /// Generates a case: a non-degenerate workload (at least one step, so
    /// every site has opportunities) and one rule at a rate spanning
    /// never (0) to always (1000 permille).
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let mut stream = StreamCase::arbitrary(rng);
        stream.steps = 1 + rng.next_below(32);
        Self {
            stream,
            site_index: rng.next_below(FaultSite::ALL.len()),
            rate_permille: [0, 1, 10, 100, 500, 1000][rng.next_below(6)],
            bit: rng.next_below(64),
            max_events: rng.next_below(4), // 0..=3; 0 = unbounded
            plan_seed: rng.next_u64(),
        }
    }

    /// The targeted fault site.
    pub fn site(&self) -> FaultSite {
        FaultSite::ALL[self.site_index]
    }

    /// Materializes the validated single-rule fault plan.
    pub fn build_plan(&self) -> FaultPlan {
        let site = self.site();
        let mut rule = FaultRule::new(site, self.rate_permille as f64 / 1000.0)
            .with_bit(self.bit as u32 % site.bit_width());
        if self.max_events > 0 {
            rule = rule.with_max_events(self.max_events as u64);
        }
        let plan = FaultPlan { seed: self.plan_seed, rules: vec![rule] };
        debug_assert!(plan.validate().is_ok(), "{self:?}");
        plan
    }

    /// Whether the case builds a valid plan over a valid workload.
    pub fn is_valid(&self) -> bool {
        self.stream.rows >= 1
            && self.stream.cols >= 1
            && self.site_index < FaultSite::ALL.len()
            && self.rate_permille <= 1000
    }

    /// Shrink candidates: simpler workload, earlier site, lower rate and
    /// bit, tighter event cap.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = Self::is_valid;
        let mut out = Vec::new();
        shrink_field(&mut out, self.stream.shrink(), |stream| Self { stream, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.site_index, 0), |site_index| Self { site_index, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.rate_permille, 0), |rate_permille| Self { rate_permille, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.bit, 0), |bit| Self { bit, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.max_events, 0), |max_events| Self { max_events, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Artifact-store I/O fault schedules
// ---------------------------------------------------------------------------

/// A storage-chaos case: a seeded [`IoFaultPlan`] of up to three rules plus
/// a short sequence of commits attempted through the faulty storage. Rates
/// are stored as small integers (like [`FaultPlanCase`]) so shrinking stays
/// integer shrinking. Payloads are at most [`IoFaultCase::MAX_PAYLOAD`]
/// bytes, well inside the length regime where IEEE CRC-32 detects every
/// ≤ 3-bit error — so up to three simultaneous `bit_rot` rules can never
/// forge a frame that still validates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultCase {
    /// Number of active rules (`1..=3`); slots past it are ignored.
    pub n_rules: usize,
    /// Per-slot index into [`IoFaultSite::ALL`].
    pub site_index: [usize; 3],
    /// Per-slot fault rate in tenths of a percent.
    pub rate_permille: [usize; 3],
    /// Per-slot event cap; `0` means unbounded.
    pub max_events: [usize; 3],
    /// Commits attempted through the faulty storage (`1..=4`).
    pub commits: usize,
    /// Length of each committed payload (`0..=MAX_PAYLOAD`).
    pub payload_len: usize,
    /// Seed of the plan's fault RNG stream.
    pub plan_seed: u64,
    /// Seed for the payload bytes.
    pub data_seed: u64,
}

impl IoFaultCase {
    /// Upper bound on generated payload length. Frames stay far below the
    /// ~1400-byte CRC-32 Hamming-distance-4 limit, so any combination of
    /// one-bit flips from the (≤ 3) rules is guaranteed detectable.
    pub const MAX_PAYLOAD: usize = 512;

    /// Generates a case. Rates mix never (0) with always (1000 permille)
    /// so schedules cover both clean and saturated fault streams.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let mut site_index = [0usize; 3];
        let mut rate_permille = [0usize; 3];
        let mut max_events = [0usize; 3];
        for slot in 0..3 {
            site_index[slot] = rng.next_below(IoFaultSite::ALL.len());
            rate_permille[slot] = [0, 10, 100, 500, 1000][rng.next_below(5)];
            max_events[slot] = rng.next_below(4); // 0..=3; 0 = unbounded
        }
        Self {
            n_rules: 1 + rng.next_below(3),
            site_index,
            rate_permille,
            max_events,
            commits: 1 + rng.next_below(4),
            payload_len: rng.next_below(Self::MAX_PAYLOAD + 1),
            plan_seed: rng.next_u64(),
            data_seed: rng.next_u64(),
        }
    }

    /// The active rules' sites.
    pub fn sites(&self) -> Vec<IoFaultSite> {
        (0..self.n_rules).map(|i| IoFaultSite::ALL[self.site_index[i]]).collect()
    }

    /// Whether every active rule attacks a write-path primitive. Such a
    /// schedule can lose the in-flight commit but never corrupt what a
    /// clean reader observes afterwards, so the strict N/N−1 recovery
    /// property holds. Read faults (`short_read`, `bit_rot`) can make the
    /// commit's own probe misjudge the primary, weakening the guarantee to
    /// "a valid committed payload or a typed error".
    pub fn write_path_only(&self) -> bool {
        self.sites()
            .iter()
            .all(|s| !matches!(s, IoFaultSite::ShortRead | IoFaultSite::BitRot))
    }

    /// Materializes the validated fault plan.
    pub fn build_plan(&self) -> IoFaultPlan {
        let rules = (0..self.n_rules)
            .map(|i| {
                let mut rule = IoFaultRule::new(
                    IoFaultSite::ALL[self.site_index[i]],
                    self.rate_permille[i] as f64 / 1000.0,
                );
                if self.max_events[i] > 0 {
                    rule = rule.with_max_events(self.max_events[i] as u64);
                }
                rule
            })
            .collect();
        let plan = IoFaultPlan { seed: self.plan_seed, rules };
        debug_assert!(plan.validate().is_ok(), "{self:?}");
        plan
    }

    /// The distinct payloads to commit, derived from `data_seed`. Entry
    /// `i` is the payload of attempted commit `i`; each begins with its
    /// index so payloads of different generations can never be confused.
    pub fn payloads(&self) -> Vec<Vec<u8>> {
        let mut rng = XorShiftRng::new(self.data_seed);
        (0..self.commits)
            .map(|i| {
                let mut p = vec![i as u8];
                p.extend((0..self.payload_len).map(|_| rng.next_below(256) as u8));
                p
            })
            .collect()
    }

    /// Whether the case describes a buildable plan.
    pub fn is_valid(&self) -> bool {
        (1..=3).contains(&self.n_rules)
            && (1..=4).contains(&self.commits)
            && self.payload_len <= Self::MAX_PAYLOAD
            && self.site_index.iter().all(|&i| i < IoFaultSite::ALL.len())
            && self.rate_permille.iter().all(|&r| r <= 1000)
    }

    /// Shrink candidates: fewer rules and commits, earlier sites, lower
    /// rates, shorter payloads.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = Self::is_valid;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.n_rules, 1), |n_rules| Self { n_rules, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.commits, 1), |commits| Self { commits, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.payload_len, 0), |payload_len| Self { payload_len, ..*self }, ok);
        for slot in 0..self.n_rules {
            shrink_field(&mut out, shrink_usize(self.site_index[slot], 0), |v| {
                let mut c = *self;
                c.site_index[slot] = v;
                c
            }, ok);
            shrink_field(&mut out, shrink_usize(self.rate_permille[slot], 0), |v| {
                let mut c = *self;
                c.rate_permille[slot] = v;
                c
            }, ok);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Hostile fault-plan and request text
// ---------------------------------------------------------------------------

/// Well-formed documents [`HostileTextCase`] starts from: a hardware fault
/// plan, a storage fault plan, an inference request and a shutdown request.
pub const HOSTILE_TEMPLATES: [&str; 4] = [
    r#"{"seed":7,"rules":[{"site":"pe_accumulator","rate":0.5,"bit":3,"layer":"conv1","max_events":2}]}"#,
    r#"{"seed":7,"rules":[{"site":"torn_write","rate":0.5,"path_substr":"front.json","max_events":2}]}"#,
    r#"{"id":"r1","dataset":"digits","sample_seed":3,"batch":2,"deadline_cycles":1000}"#,
    r#"{"kind":"shutdown","drain_ms":10}"#,
];

/// Replacement values: wrong types for every key, integers at and past the
/// `u32`/`u64`/`i64` edges, out-of-range floats (`1e999` parses to
/// infinity), negative zero and bare non-JSON.
pub const HOSTILE_VALUES: [&str; 24] = [
    "0", "1", "0.5", "-0.0", "-1", "1e999", "-1e999", "1e-400", "4294967295", "4294967296",
    "18446744073709551615", "18446744073709551616", "-9223372036854775809", "null", "true",
    "\"\"", "\"conv1\"", "\"stall_cycle\"", "\"torn_write\"", "\"\\ud800\"", "[]", "{}",
    "[0.5]", "NaN",
];

/// Replacement keys: typos and the keys of the other site set.
pub const HOSTILE_KEYS: [&str; 7] =
    ["typo", "layer", "path_substr", "bit", "seed", "site", "kind"];

/// Nesting depths around the JSON parser's 128-level limit, plus far past
/// it (deep enough to overflow an unbounded recursive parser).
pub const HOSTILE_DEPTHS: [usize; 7] = [1, 126, 127, 128, 129, 1_000, 100_000];

/// How [`HostileTextCase`] mangles its template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileEdit {
    /// The template unchanged (so the accept path is exercised too).
    Keep,
    /// Cut the text at a seeded byte.
    Truncate,
    /// Replace one entry's value with a [`HOSTILE_VALUES`] entry.
    ReplaceValue,
    /// Rename one entry's key to a [`HOSTILE_KEYS`] entry.
    RenameKey,
    /// Replace one entry's value with arrays nested [`HOSTILE_DEPTHS`] deep.
    NestValue,
    /// Open [`HOSTILE_DEPTHS`] arrays in front of the template and never
    /// close them.
    OpenPrefix,
}

impl HostileEdit {
    /// All edits, shrink-ordered simplest first.
    pub const ALL: [HostileEdit; 6] = [
        HostileEdit::Keep,
        HostileEdit::Truncate,
        HostileEdit::ReplaceValue,
        HostileEdit::RenameKey,
        HostileEdit::NestValue,
        HostileEdit::OpenPrefix,
    ];
}

/// A hostile-input case for the fault-plan and request parsers: one edit
/// applied to one of the [`HOSTILE_TEMPLATES`]. Entries are the
/// `"key":value` pairs of the template in text order (the `rules` array
/// counts as one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostileTextCase {
    /// Index into [`HOSTILE_TEMPLATES`].
    pub template: usize,
    /// Index into [`HostileEdit::ALL`].
    pub edit: usize,
    /// Which entry the edit touches (taken modulo the entry count).
    pub entry: usize,
    /// Index into the edit's table (values, keys or depths; taken modulo
    /// its length).
    pub choice: usize,
    /// Truncation point (taken modulo the text length).
    pub cut: usize,
}

impl HostileTextCase {
    /// Generates a case.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self {
            template: rng.next_below(HOSTILE_TEMPLATES.len()),
            edit: rng.next_below(HostileEdit::ALL.len()),
            entry: rng.next_below(8),
            choice: rng.next_below(HOSTILE_VALUES.len()),
            cut: rng.next_below(128),
        }
    }

    /// The edit kind.
    pub fn edit(&self) -> HostileEdit {
        HostileEdit::ALL[self.edit]
    }

    /// The byte ranges of the template's keys (quotes included) and
    /// values, in text order.
    fn entries(text: &str) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut at = 0;
        while let Some(found) = text[at..].find("\":") {
            let colon = at + found + 1;
            let key_start = text[..colon - 1].rfind('"').expect("opening quote of a key");
            // A value ends at the first `,` `}` or `]` outside brackets.
            let mut depth = 0usize;
            let mut end = colon + 1;
            while end < bytes.len() {
                match (bytes[end], depth) {
                    (b',' | b']' | b'}', 0) => break,
                    (b'[' | b'{', _) => depth += 1,
                    (b']' | b'}', _) => depth -= 1,
                    _ => {}
                }
                end += 1;
            }
            out.push((key_start..colon, colon + 1..end));
            at = colon + 1;
        }
        out
    }

    /// Materializes the hostile text.
    pub fn text(&self) -> String {
        let template = HOSTILE_TEMPLATES[self.template];
        let entries = Self::entries(template);
        let (key, value) = entries[self.entry % entries.len()].clone();
        let splice = |range: std::ops::Range<usize>, with: &str| {
            format!("{}{with}{}", &template[..range.start], &template[range.end..])
        };
        let depth = HOSTILE_DEPTHS[self.choice % HOSTILE_DEPTHS.len()];
        match self.edit() {
            HostileEdit::Keep => template.to_string(),
            HostileEdit::Truncate => template[..self.cut % template.len()].to_string(),
            HostileEdit::ReplaceValue => {
                splice(value, HOSTILE_VALUES[self.choice % HOSTILE_VALUES.len()])
            }
            HostileEdit::RenameKey => {
                let name = HOSTILE_KEYS[self.choice % HOSTILE_KEYS.len()];
                splice(key, &format!("\"{name}\""))
            }
            HostileEdit::NestValue => splice(value, &("[".repeat(depth) + &"]".repeat(depth))),
            HostileEdit::OpenPrefix => "[".repeat(depth) + template,
        }
    }

    /// Whether the case indexes real tables.
    pub fn is_valid(&self) -> bool {
        self.template < HOSTILE_TEMPLATES.len() && self.edit < HostileEdit::ALL.len()
    }

    /// Shrink candidates: earlier template and edit, lower indices.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = Self::is_valid;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.template, 0), |template| Self { template, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.edit, 0), |edit| Self { edit, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.entry, 0), |entry| Self { entry, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.choice, 0), |choice| Self { choice, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.cut, 0), |cut| Self { cut, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Report-document corruption
// ---------------------------------------------------------------------------

/// How [`ReportCorruptionCase`] mangles a valid report document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportCorruption {
    /// Replace the document with the empty string.
    Empty,
    /// Cut the document strictly inside the top-level object (possibly
    /// mid-token), so at least the closing brace is lost.
    Truncate,
    /// Replace the `"drq-metrics"` schema tag with a foreign one.
    WrongSchema,
    /// Rewrite `schema_version` to an unsupported number.
    WrongVersion,
    /// Replace the document with a valid non-object JSON value.
    NotAnObject,
    /// XOR one bit of one byte. The result may still parse (a flipped
    /// digit inside a value), so this kind only guarantees "no panic".
    FlipBit,
}

impl ReportCorruption {
    /// All kinds, shrink-ordered simplest first.
    pub const ALL: [ReportCorruption; 6] = [
        ReportCorruption::Empty,
        ReportCorruption::Truncate,
        ReportCorruption::WrongSchema,
        ReportCorruption::WrongVersion,
        ReportCorruption::NotAnObject,
        ReportCorruption::FlipBit,
    ];
}

/// An adversarial-parse case: one corruption applied at a seeded position
/// to a valid schema-versioned report document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportCorruptionCase {
    /// Index into [`ReportCorruption::ALL`].
    pub kind_index: usize,
    /// Position knob in permille of the document length (cut point for
    /// `Truncate`, byte index for `FlipBit`).
    pub position_permille: usize,
    /// Which bit `FlipBit` flips.
    pub bit: usize,
    /// The bogus version `WrongVersion` writes.
    pub version: u64,
}

impl ReportCorruptionCase {
    /// Generates a case.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self {
            kind_index: rng.next_below(ReportCorruption::ALL.len()),
            position_permille: rng.next_below(1001),
            bit: rng.next_below(8),
            version: [0, 2, 7, u64::MAX][rng.next_below(4)],
        }
    }

    /// The corruption kind.
    pub fn kind(&self) -> ReportCorruption {
        ReportCorruption::ALL[self.kind_index]
    }

    /// Whether the produced document is guaranteed unparseable as a
    /// current-version report (so the parser must return an error).
    /// `FlipBit` gives no such guarantee.
    pub fn must_fail(&self) -> bool {
        self.kind() != ReportCorruption::FlipBit
    }

    /// Applies the corruption to a valid report document. `valid` must be
    /// a one-line `{"schema":"drq-metrics","schema_version":1,...}` JSON
    /// object (what `Report::to_json_string` emits).
    pub fn apply(&self, valid: &str) -> String {
        let scaled = |len: usize| self.position_permille * len / 1000;
        match self.kind() {
            ReportCorruption::Empty => String::new(),
            ReportCorruption::Truncate => {
                // Keep at most len-1 bytes so the closing brace is always
                // lost; land on a char boundary to stay a valid &str cut.
                let mut cut = scaled(valid.len().saturating_sub(1));
                while !valid.is_char_boundary(cut) {
                    cut -= 1;
                }
                valid[..cut].to_string()
            }
            ReportCorruption::WrongSchema => valid.replace("\"drq-metrics\"", "\"not-drq\""),
            ReportCorruption::WrongVersion => valid.replace(
                "\"schema_version\":1",
                &format!("\"schema_version\":{}", self.version),
            ),
            ReportCorruption::NotAnObject => "[1,2,3]".to_string(),
            ReportCorruption::FlipBit => {
                let mut bytes = valid.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let at = scaled(bytes.len() - 1);
                    bytes[at] ^= 1 << (self.bit % 8);
                }
                // The flip may break UTF-8; that is part of the attack
                // surface, delivered as lossy text.
                String::from_utf8_lossy(&bytes).into_owned()
            }
        }
    }

    /// Whether the case indexes a real kind.
    pub fn is_valid(&self) -> bool {
        self.kind_index < ReportCorruption::ALL.len() && self.position_permille <= 1000
    }

    /// Shrink candidates: simpler kind, earlier position, lower bit.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = Self::is_valid;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.kind_index, 0), |kind_index| Self { kind_index, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.position_permille, 0), |position_permille| Self { position_permille, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.bit, 0), |bit| Self { bit, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Sensitivity-predictor inputs
// ---------------------------------------------------------------------------

/// A predictor-metamorphism case: a single-image feature map plus a region
/// size and threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorCase {
    /// Channels.
    pub c: usize,
    /// Feature-map height.
    pub h: usize,
    /// Feature-map width.
    pub w: usize,
    /// Region height.
    pub region_x: usize,
    /// Region width.
    pub region_y: usize,
    /// Integer-domain sensitivity threshold (≥ 0).
    pub threshold: f32,
    /// Input value distribution (finite).
    pub dist: ValueDist,
    /// Seed for the feature map.
    pub data_seed: u64,
}

impl PredictorCase {
    /// Generates a case. Region extents never exceed the feature map, so
    /// grid geometry survives the shift-embedding transform unchanged.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let h = 1 + rng.next_below(16);
        let w = 1 + rng.next_below(16);
        Self {
            c: 1 + rng.next_below(3),
            h,
            w,
            region_x: 1 + rng.next_below(h.min(6)),
            region_y: 1 + rng.next_below(w.min(6)),
            threshold: rng.next_f32() * 32.0,
            dist: ValueDist::pick(rng, &ValueDist::FINITE),
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the `[1, c, h, w]` feature map.
    pub fn build(&self) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(self.data_seed);
        self.dist.tensor(&[1, self.c, self.h, self.w], &mut rng)
    }

    /// The region size.
    pub fn region(&self) -> RegionSize {
        RegionSize::new(self.region_x, self.region_y)
    }

    /// Shrink candidates.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| {
            c.c >= 1
                && c.h >= 1
                && c.w >= 1
                && (1..=c.h).contains(&c.region_x)
                && (1..=c.w).contains(&c.region_y)
                && c.threshold >= 0.0
        };
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.c, 1), |c| Self { c, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.h, 1), |h| Self { h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.w, 1), |w| Self { w, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_x, 1), |region_x| Self { region_x, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_y, 1), |region_y| Self { region_y, ..*self }, ok);
        shrink_field(&mut out, shrink_f32(self.threshold), |threshold| Self { threshold, ..*self }, ok);
        shrink_field(&mut out, self.dist.shrink(), |dist| Self { dist, ..*self }, ok);
        out
    }
}

// ---------------------------------------------------------------------------
// Simulator host kernels: synthesis, batched prediction, layer cycle model
// ---------------------------------------------------------------------------

/// A feature-map synthesis case: map geometry, depth profile and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthCase {
    /// Channels.
    pub c: usize,
    /// Map height.
    pub h: usize,
    /// Map width.
    pub w: usize,
    /// Depth through the network in `[0, 1]` (`for_depth` argument).
    pub depth: f64,
    /// RNG seed of the synthesis stream.
    pub seed: u64,
}

impl SynthCase {
    /// Generates a case. A third of the extents are 1–3 pixels (every
    /// blob's reach overhangs such maps on all sides), the rest up to 48;
    /// depths are 0, 1 or uniform in between.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let extent = |rng: &mut XorShiftRng| {
            if rng.next_below(3) == 0 {
                1 + rng.next_below(3)
            } else {
                1 + rng.next_below(48)
            }
        };
        let (h, w) = (extent(rng), extent(rng));
        let depth = match rng.next_below(4) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        Self { c: 1 + rng.next_below(4), h, w, depth, seed: rng.next_u64() }
    }

    /// The default synthesizer at this case's depth.
    pub fn synthesizer(&self) -> FeatureMapSynthesizer {
        FeatureMapSynthesizer::default().for_depth(self.depth)
    }

    /// Shrink candidates.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| c.c >= 1 && c.h >= 1 && c.w >= 1;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.c, 1), |c| Self { c, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.h, 1), |h| Self { h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.w, 1), |w| Self { w, ..*self }, ok);
        if self.depth != 0.0 {
            out.push(Self { depth: 0.0, ..*self });
        }
        out
    }
}

/// A batched sensitivity-prediction case. Unlike [`PredictorCase`],
/// regions may exceed the map (the grid clamps them) and need not divide
/// it, and the batch holds several images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictBatchCase {
    /// Images.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Map height.
    pub h: usize,
    /// Map width.
    pub w: usize,
    /// Region height (may exceed `h`).
    pub region_x: usize,
    /// Region width (may exceed `w`).
    pub region_y: usize,
    /// Integer-domain sensitivity threshold (≥ 0).
    pub threshold: f32,
    /// Input value distribution.
    pub dist: ValueDist,
    /// Seed for the batch.
    pub data_seed: u64,
}

impl PredictBatchCase {
    /// Generates a case.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let h = 1 + rng.next_below(20);
        let w = 1 + rng.next_below(20);
        Self {
            n: 1 + rng.next_below(3),
            c: 1 + rng.next_below(3),
            h,
            w,
            region_x: 1 + rng.next_below(h + 3),
            region_y: 1 + rng.next_below(w + 3),
            // Integer thresholds (zero included) meet region means exactly,
            // where the strict comparison matters.
            threshold: match rng.next_below(3) {
                0 => rng.next_below(33) as f32,
                _ => rng.next_f32() * 32.0,
            },
            dist: ValueDist::pick(rng, &ValueDist::ALL),
            data_seed: rng.next_u64(),
        }
    }

    /// Materializes the `[n, c, h, w]` batch.
    pub fn build(&self) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(self.data_seed);
        self.dist.tensor(&[self.n, self.c, self.h, self.w], &mut rng)
    }

    /// The region size.
    pub fn region(&self) -> RegionSize {
        RegionSize::new(self.region_x, self.region_y)
    }

    /// Shrink candidates.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| {
            c.n >= 1 && c.c >= 1 && c.h >= 1 && c.w >= 1 && c.region_x >= 1 && c.region_y >= 1
        };
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.n, 1), |n| Self { n, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.c, 1), |c| Self { c, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.h, 1), |h| Self { h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.w, 1), |w| Self { w, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_x, 1), |region_x| Self { region_x, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_y, 1), |region_y| Self { region_y, ..*self }, ok);
        shrink_field(&mut out, shrink_f32(self.threshold), |threshold| Self { threshold, ..*self }, ok);
        shrink_field(&mut out, self.dist.shrink(), |dist| Self { dist, ..*self }, ok);
        out
    }
}

/// Layer kinds a [`LayerCycleCase`] draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Ungrouped convolution.
    Conv,
    /// Grouped convolution (2–3 groups).
    Grouped,
    /// Depthwise convolution (one channel per group).
    Depthwise,
    /// Fully connected layer (1×1 map per input feature).
    Fc,
}

impl LayerKind {
    const ORDER: [LayerKind; 4] =
        [LayerKind::Conv, LayerKind::Grouped, LayerKind::Depthwise, LayerKind::Fc];
}

/// A layer cycle-model case: layer geometry, per-channel random masks and
/// an array geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCycleCase {
    /// Layer kind (FC cases ignore the spatial fields).
    pub kind: LayerKind,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Channel groups.
    pub groups: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Vertical padding (may reach the kernel height, so some windows
    /// lie entirely in padding).
    pub pad_h: usize,
    /// Horizontal padding.
    pub pad_w: usize,
    /// Region height (may exceed `h`).
    pub region_x: usize,
    /// Region width (may exceed `w`).
    pub region_y: usize,
    /// Odd channels use a region one row taller than even ones.
    pub mixed_grids: bool,
    /// Chance in percent that a region is sensitive.
    pub density_pct: usize,
    /// Seed for the mask bits.
    pub mask_seed: u64,
    /// PE rows per page.
    pub rows: usize,
    /// PE columns per page.
    pub cols: usize,
    /// PE pages.
    pub pages: usize,
}

impl LayerCycleCase {
    /// Generates a valid case: kernels fit the padded input, groups divide
    /// both channel counts, and half the arrays are the paper's 16 pages of
    /// 18×11 PEs.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let kind = LayerKind::ORDER[rng.next_below(4)];
        let (in_c, out_c, groups) = match kind {
            LayerKind::Conv | LayerKind::Fc => (1 + rng.next_below(24), 1 + rng.next_below(24), 1),
            LayerKind::Grouped => {
                let g = 2 + rng.next_below(2);
                (g * (1 + rng.next_below(4)), g * (1 + rng.next_below(4)), g)
            }
            LayerKind::Depthwise => {
                let c = 1 + rng.next_below(40);
                (c, c, c)
            }
        };
        let (h, w) = (1 + rng.next_below(24), 1 + rng.next_below(24));
        let (pad_h, pad_w) = (rng.next_below(4), rng.next_below(4));
        let kh = 1 + rng.next_below(5.min(h + 2 * pad_h));
        let kw = 1 + rng.next_below(5.min(w + 2 * pad_w));
        let density_pct = match rng.next_below(4) {
            0 => 0,
            1 => 100,
            _ => 1 + rng.next_below(99),
        };
        let (rows, cols, pages) = if rng.next_below(2) == 0 {
            (18, 11, 16)
        } else {
            (1 + rng.next_below(8), 1 + rng.next_below(6), 1 + rng.next_below(4))
        };
        Self {
            kind,
            in_c,
            out_c,
            groups,
            h,
            w,
            kh,
            kw,
            stride: 1 + rng.next_below(3),
            pad_h,
            pad_w,
            region_x: 1 + rng.next_below(h + 2),
            region_y: 1 + rng.next_below(w + 2),
            mixed_grids: rng.next_below(4) == 0,
            density_pct,
            mask_seed: rng.next_u64(),
            rows,
            cols,
            pages,
        }
    }

    /// The layer spec.
    pub fn spec(&self) -> ConvLayerSpec {
        match self.kind {
            LayerKind::Fc => ConvLayerSpec::fc("case", "T", self.in_c, self.out_c),
            _ => ConvLayerSpec::conv(
                "case", "T", self.in_c, self.h, self.w, self.out_c, self.kh, self.kw, self.stride, 0,
            )
            .with_pads(self.pad_h, self.pad_w)
            .with_groups(self.groups),
        }
    }

    /// One mask per input channel over the spec's input extent.
    pub fn build_masks(&self) -> Vec<MaskMap> {
        let spec = self.spec();
        let mut rng = XorShiftRng::new(self.mask_seed);
        (0..spec.in_c)
            .map(|c| {
                let extra = usize::from(self.mixed_grids && c % 2 == 1);
                let region = RegionSize::new(self.region_x + extra, self.region_y);
                let grid = RegionGrid::new(spec.in_h, spec.in_w, region);
                let bits = (0..grid.region_count())
                    .map(|_| rng.next_below(100) < self.density_pct)
                    .collect();
                MaskMap::from_bits(grid, bits)
            })
            .collect()
    }

    /// Whether the geometry is simulable.
    pub fn is_valid(&self) -> bool {
        let positive = [
            self.in_c, self.out_c, self.groups, self.h, self.w, self.kh, self.kw, self.stride,
            self.region_x, self.region_y, self.rows, self.cols, self.pages,
        ];
        positive.iter().all(|&v| v >= 1)
            && self.in_c.is_multiple_of(self.groups)
            && self.out_c.is_multiple_of(self.groups)
            && (self.kind != LayerKind::Depthwise
                || (self.groups == self.in_c && self.groups == self.out_c))
            && self.kh <= self.h + 2 * self.pad_h
            && self.kw <= self.w + 2 * self.pad_w
    }

    /// Shrink candidates.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| c.is_valid();
        let mut out = Vec::new();
        if self.kind == LayerKind::Depthwise {
            let channels = |c| Self { in_c: c, out_c: c, groups: c, ..*self };
            shrink_field(&mut out, shrink_usize(self.in_c, 1), channels, ok);
        } else {
            shrink_field(&mut out, shrink_usize(self.in_c, 1), |in_c| Self { in_c, ..*self }, ok);
            shrink_field(&mut out, shrink_usize(self.out_c, 1), |out_c| Self { out_c, ..*self }, ok);
        }
        shrink_field(&mut out, shrink_usize(self.h, 1), |h| Self { h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.w, 1), |w| Self { w, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.kh, 1), |kh| Self { kh, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.kw, 1), |kw| Self { kw, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.stride, 1), |stride| Self { stride, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.pad_h, 0), |pad_h| Self { pad_h, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.pad_w, 0), |pad_w| Self { pad_w, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_x, 1), |region_x| Self { region_x, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.region_y, 1), |region_y| Self { region_y, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.rows, 1), |rows| Self { rows, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.cols, 1), |cols| Self { cols, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.pages, 1), |pages| Self { pages, ..*self }, ok);
        if self.mixed_grids {
            out.push(Self { mixed_grids: false, ..*self });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Pareto-front candidates
// ---------------------------------------------------------------------------

/// One design-point objective vector on a small discrete grid.
///
/// Objectives are quantized to `levels` rungs per axis: a low `levels`
/// deliberately forces exact-duplicate and single-axis-tie ("degenerate")
/// objective vectors, the inputs where a broken dominance comparator is
/// most likely to diverge from the oracle. The continuous axes are exact
/// multiples of small binary fractions, so no float comparison noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateCase {
    /// Accuracy rung (`0..levels`, higher is better).
    pub acc_step: usize,
    /// Latency rung (`0..levels`, lower is better).
    pub lat_step: usize,
    /// Energy rung (`0..levels`, lower is better).
    pub energy_step: usize,
}

impl CandidateCase {
    /// Draws a candidate on a `levels`-rung grid (`levels ≥ 1`).
    pub fn arbitrary(rng: &mut XorShiftRng, levels: usize) -> Self {
        let levels = levels.max(1);
        Self {
            acc_step: rng.next_below(levels),
            lat_step: rng.next_below(levels),
            energy_step: rng.next_below(levels),
        }
    }

    /// Materializes the objective vector.
    pub fn objectives(&self) -> drq_dse::Objectives {
        drq_dse::Objectives {
            accuracy: self.acc_step as f64 * 0.125,
            latency_cycles: 100 + 10 * self.lat_step as u64,
            energy_pj: self.energy_step as f64 * 0.5,
        }
    }

    /// Shrink candidates: each rung steps toward zero (toward the
    /// all-ties corner of the grid).
    pub fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let ok = |_: &Self| true;
        shrink_field(&mut out, shrink_usize(self.acc_step, 0), |acc_step| Self { acc_step, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.lat_step, 0), |lat_step| Self { lat_step, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.energy_step, 0), |energy_step| Self { energy_step, ..*self }, ok);
        out
    }
}

/// A random candidate *set* for front-invariant properties: `count` points
/// drawn from a `levels`-rung [`CandidateCase`] grid.
///
/// The set is rebuilt deterministically from `data_seed`, so the record
/// stays a tiny printable triple. Shrinking lowers `count` (fewer points),
/// `levels` (more duplicates — `levels == 1` makes every point identical),
/// and `data_seed` toward zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoCase {
    /// Number of candidate points.
    pub count: usize,
    /// Grid rungs per objective axis (1 = fully degenerate).
    pub levels: usize,
    /// Seed the point set is rebuilt from.
    pub data_seed: u64,
}

impl ParetoCase {
    /// Draws a case: up to 24 points on a 1–6 rung grid. Small grids are
    /// common by construction, so duplicate and tied objectives appear in
    /// a large fraction of cases.
    pub fn arbitrary(rng: &mut XorShiftRng) -> Self {
        Self {
            count: rng.next_below(25),
            levels: 1 + rng.next_below(6),
            data_seed: rng.next_u64() >> 32,
        }
    }

    /// Rebuilds the candidate set from the record.
    pub fn candidates(&self) -> Vec<CandidateCase> {
        let mut rng = XorShiftRng::new(self.data_seed);
        (0..self.count).map(|_| CandidateCase::arbitrary(&mut rng, self.levels)).collect()
    }

    /// The materialized objective vectors, in generation order.
    pub fn objectives(&self) -> Vec<drq_dse::Objectives> {
        self.candidates().iter().map(CandidateCase::objectives).collect()
    }

    /// Shrink candidates.
    pub fn shrink(&self) -> Vec<Self> {
        let ok = |c: &Self| c.levels >= 1;
        let mut out = Vec::new();
        shrink_field(&mut out, shrink_usize(self.count, 0), |count| Self { count, ..*self }, ok);
        shrink_field(&mut out, shrink_usize(self.levels, 1), |levels| Self { levels, ..*self }, ok);
        shrink_field(
            &mut out,
            shrink_usize(self.data_seed as usize, 0),
            |s| Self { data_seed: s as u64, ..*self },
            ok,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_case_rebuilds_deterministically_and_shrinks_simpler() {
        let mut r = XorShiftRng::new(7);
        let case = ParetoCase::arbitrary(&mut r);
        assert_eq!(case.objectives(), case.objectives(), "set must be a pure function");
        for s in case.shrink() {
            assert!(s.levels >= 1);
            assert!(
                s.count < case.count || s.levels < case.levels || s.data_seed < case.data_seed,
                "shrink must simplify: {s:?} from {case:?}"
            );
        }
        let degenerate = ParetoCase { count: 5, levels: 1, data_seed: 9 };
        let objs = degenerate.objectives();
        assert!(objs.windows(2).all(|w| w[0] == w[1]), "levels=1 means all duplicates");
    }

    #[test]
    fn candidate_case_grid_is_exact() {
        let c = CandidateCase { acc_step: 3, lat_step: 2, energy_step: 1 };
        let o = c.objectives();
        assert_eq!(o.accuracy, 0.375);
        assert_eq!(o.latency_cycles, 120);
        assert_eq!(o.energy_pj, 0.5);
        assert!(c.shrink().iter().all(|s| s.acc_step + s.lat_step + s.energy_step
            < c.acc_step + c.lat_step + c.energy_step + 3));
    }

    fn rng() -> XorShiftRng {
        XorShiftRng::new(2024)
    }

    #[test]
    fn gemm_cases_respect_panel_bound_and_cover_regimes() {
        let mut r = rng();
        let mut saw_zero_dim = false;
        let mut saw_blocked = false;
        for _ in 0..300 {
            let c = GemmCase::arbitrary(&mut r);
            assert!(c.k <= BIT_EXACT_MAX_K);
            saw_zero_dim |= c.m == 0 || c.k == 0 || c.n == 0;
            saw_blocked |= c.m * c.k * c.n >= 16 * 1024;
            let (a, b) = c.operands();
            assert_eq!(a.shape(), &[c.m, c.k]);
            assert_eq!(b.shape(), &[c.k, c.n]);
        }
        assert!(saw_zero_dim, "degenerate dims never generated");
        assert!(saw_blocked, "blocked-path sizes never generated");
        let deep = GemmCase::arbitrary_deep(&mut r);
        assert!(deep.k > BIT_EXACT_MAX_K);
    }

    #[test]
    fn int_gemm_cases_cover_regimes_and_wrap_depths() {
        let mut r = rng();
        let (mut saw_zero_dim, mut saw_blocked, mut saw_odd_k, mut saw_extremes) =
            (false, false, false, false);
        for _ in 0..300 {
            let c = IntGemmCase::arbitrary(&mut r);
            saw_zero_dim |= c.m == 0 || c.k == 0 || c.n == 0;
            saw_blocked |= c.m * c.k * c.n >= 16 * 1024;
            saw_odd_k |= c.k % 2 == 1;
            saw_extremes |= c.dist_a == IntDist::Extremes;
            let (a, b) = c.operands();
            assert_eq!(a.shape(), &[c.m, c.k]);
            assert_eq!(b.shape(), &[c.k, c.n]);
            if c.dist_a.fits_int4() {
                assert!(a.as_slice().iter().all(|&v| (-8..=7).contains(&v)), "{c:?}");
            }
        }
        assert!(saw_zero_dim && saw_blocked && saw_odd_k && saw_extremes, "regimes missing");
        let deep = IntGemmCase::arbitrary_wrapping(&mut r);
        // Deep enough that all-extreme operands genuinely wrap i32.
        assert!(deep.k as i64 * 128 * 128 > i32::MAX as i64, "{deep:?}");
    }

    #[test]
    fn conv_cases_are_always_valid_and_adversarial() {
        let mut r = rng();
        let (mut one_by_one, mut stride_gt_k, mut grouped) = (false, false, false);
        for _ in 0..400 {
            let c = ConvCase::arbitrary(&mut r);
            assert!(c.is_valid(), "{c:?}");
            one_by_one |= c.k == 1;
            stride_gt_k |= c.stride > c.k;
            grouped |= c.groups > 1;
            let (conv, x) = c.build();
            let out = conv.output_shape(x.shape4().unwrap());
            assert!(out.h >= 1 && out.w >= 1, "{c:?} -> {out:?}");
        }
        assert!(one_by_one && stride_gt_k && grouped, "adversarial regimes missing");
    }

    #[test]
    fn conv_shrink_candidates_stay_valid() {
        let mut r = rng();
        for _ in 0..100 {
            let c = ConvCase::arbitrary(&mut r);
            for cand in c.shrink() {
                assert!(cand.is_valid(), "{c:?} shrank to invalid {cand:?}");
            }
        }
    }

    #[test]
    fn mixed_conv_masks_cover_the_input_grid() {
        let mut r = rng();
        for _ in 0..50 {
            let c = MixedConvCase::arbitrary(&mut r);
            let s = c.conv.input_shape();
            let masks = c.build_masks(s);
            assert_eq!(masks.len(), s.n);
            for per_channel in &masks {
                assert_eq!(per_channel.len(), s.c);
                for m in per_channel {
                    assert_eq!((m.grid().height(), m.grid().width()), (s.h, s.w));
                }
            }
            for cand in c.shrink() {
                assert!(cand.conv.is_valid());
            }
        }
    }

    #[test]
    fn wide_mixed_conv_cases_reach_deep_grouped_and_strided_layers() {
        let mut r = rng();
        let (mut deep, mut grouped_s3_full_tile, mut wide_rows) = (0, 0, 0);
        for _ in 0..200 {
            let c = MixedConvCase::arbitrary_wide(&mut r);
            let conv = c.conv;
            assert!(conv.is_valid_geometry(), "{c:?}");
            assert!(conv.cpg_in <= 40 && conv.cpg_out <= 20 && conv.w <= 40, "{c:?}");
            deep += usize::from(conv.cpg_in * conv.k * conv.k > BIT_EXACT_MAX_K);
            grouped_s3_full_tile += usize::from(conv.groups > 1 && conv.stride == 3 && conv.cpg_out >= 4);
            wide_rows += usize::from(conv.w > 32);
            for cand in c.shrink_wide() {
                assert!(cand.conv.is_valid_geometry(), "{c:?} shrank to invalid {cand:?}");
            }
        }
        assert!(deep > 0 && grouped_s3_full_tile > 0 && wide_rows > 0);
    }

    #[test]
    fn stream_patterns_have_expected_census() {
        let mut base = StreamCase {
            rows: 4,
            cols: 2,
            steps: 12,
            pattern: StreamPattern::AllInsensitive,
            data_seed: 9,
        };
        let census = |c: &StreamCase| {
            let (_, streams) = c.build();
            streams.iter().flatten().filter(|e| e.sensitive).count()
        };
        assert_eq!(census(&base), 0);
        base.pattern = StreamPattern::AllSensitive;
        assert_eq!(census(&base), 4 * 12);
        base.pattern = StreamPattern::SingleRowAlways;
        assert_eq!(census(&base), 12);
        base.pattern = StreamPattern::AlternatingSteps;
        assert_eq!(census(&base), 4 * 6);
    }

    #[test]
    fn predictor_cases_keep_regions_within_map() {
        let mut r = rng();
        for _ in 0..200 {
            let c = PredictorCase::arbitrary(&mut r);
            assert!(c.region_x <= c.h && c.region_y <= c.w, "{c:?}");
            assert!(c.threshold >= 0.0);
            for cand in c.shrink() {
                assert!(cand.region_x <= cand.h && cand.region_y <= cand.w, "{cand:?}");
            }
        }
    }

    #[test]
    fn builds_are_seed_deterministic() {
        let mut r = rng();
        let c = MixedConvCase::arbitrary(&mut r);
        let (conv1, x1) = c.conv.build();
        let (conv2, x2) = c.conv.build();
        assert_eq!(conv1, conv2);
        assert_eq!(x1, x2);
        assert_eq!(c.build_masks(c.conv.input_shape()), c.build_masks(c.conv.input_shape()));
    }

    #[test]
    fn fault_plan_cases_build_valid_plans_and_shrink_valid() {
        let mut r = rng();
        let mut saw_never = false;
        let mut saw_always = false;
        let mut saw_capped = false;
        for _ in 0..300 {
            let c = FaultPlanCase::arbitrary(&mut r);
            assert!(c.is_valid(), "{c:?}");
            assert!(c.stream.steps >= 1, "{c:?}");
            saw_never |= c.rate_permille == 0;
            saw_always |= c.rate_permille == 1000;
            saw_capped |= c.max_events > 0;
            let plan = c.build_plan();
            assert!(plan.validate().is_ok(), "{c:?}");
            assert_eq!(plan.rules.len(), 1);
            assert_eq!(plan.rules[0].site, c.site());
            for cand in c.shrink() {
                assert!(cand.is_valid(), "{c:?} shrank to invalid {cand:?}");
                assert!(cand.build_plan().validate().is_ok(), "{cand:?}");
            }
        }
        assert!(saw_never && saw_always && saw_capped, "rate/cap regimes missing");
    }

    #[test]
    fn hostile_text_cases_cover_every_edit_and_entry() {
        for template in HOSTILE_TEMPLATES {
            let entries = HostileTextCase::entries(template);
            assert!(entries.len() >= 2, "{template}");
            for (key, value) in entries {
                assert!(template[key].starts_with('"'), "{template}");
                assert!(!template[value].is_empty(), "{template}");
            }
        }
        let kept = HostileTextCase { template: 0, edit: 0, entry: 0, choice: 0, cut: 0 };
        assert_eq!(kept.text(), HOSTILE_TEMPLATES[0]);
        let rules = HostileTextCase { edit: 2, entry: 1, choice: 13, ..kept };
        assert_eq!(rules.text(), r#"{"seed":7,"rules":null}"#);
        let typo = HostileTextCase { template: 3, edit: 3, entry: 1, ..kept };
        assert_eq!(typo.text(), r#"{"kind":"shutdown","typo":10}"#);
        let mut r = rng();
        let mut seen = [false; HostileEdit::ALL.len()];
        for _ in 0..200 {
            let c = HostileTextCase::arbitrary(&mut r);
            assert!(c.is_valid(), "{c:?}");
            seen[c.edit] = true;
            let _ = c.text();
            assert!(c.shrink().iter().all(HostileTextCase::is_valid), "{c:?}");
        }
        assert!(seen.iter().all(|&s| s), "every edit kind is generated");
    }
}
