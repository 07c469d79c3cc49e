//! Integer GEMM tier: i8 / nibble-packed i4 matrix multiply with i32
//! accumulation, built on one indirect kernel.
//!
//! The mixed-precision convolution quantizes operands to INT8/INT4 codes
//! and multiplies the integer codes directly, on the worker pool
//! from [`crate::parallel`].
//!
//! Semantics (the contract every kernel and the testkit oracle share):
//!
//! * operands are **i8-range codes** (|v| ≤ 128; INT4 codes are the
//!   subrange [-8, 7]) held as i16;
//! * accumulation is **wrapping i32** (`i64` on the wide path). Wrapping
//!   addition is associative and commutative mod 2³², so every kernel,
//!   blocking choice and thread count produces the *same bits* — and when
//!   the exact sum fits in `i32` (provable a priori from the operand
//!   precisions and the reduction depth, see `drq-quant`'s range
//!   analysis), those bits are the exact sum. There are **no saturation
//!   or per-MAC overflow checks** on this path; callers that cannot prove
//!   the bound use [`int8_matmul_wide`] or [`int_gemm_indirect_wide`].
//!
//! The one kernel is [`int_gemm_indirect`] (the indirect-convolution
//! scheme of Dukhan, arXiv:1907.02129): the left operand is packed once
//! into register tiles ([`PackedLhs`]), and the right operand is never
//! copied into a GEMM layout. Instead each k-pair `t` names where its
//! row pair starts in a caller-owned buffer of pair-interleaved i16 lanes,
//! and output lane `j` reads `b[pair_offsets[t] + 2j]` and the element
//! after it. A convolution points the offsets at shifted windows of its
//! input planes; [`int8_matmul`] and [`int4_matmul`] point them at the
//! rows of a plainly interleaved matrix.
//!
//! Three interchangeable micro-kernels implement the R×32 tile update
//! `acc[r][x] += a[r][2t]·b[2t][x] + a[r][2t+1]·b[2t+1][x]`: a portable
//! scalar loop (always available, autovectorizes under
//! `target-cpu=native`), an AVX2 `vpmaddwd` path and an AVX-512 VNNI
//! `vpdpwssd` path. The SIMD paths are selected once per process by
//! runtime feature detection (`DRQ_INT_KERNEL=scalar|avx2|vnni`
//! overrides, falling back to detection when the requested features are
//! missing) and are the crate's only `unsafe` code besides the worker
//! pool's `Pool::run`: the driver asserts the bounds of every read once
//! per call, and the kernels load only the lanes below the output width
//! (masked loads on the last strip).

use crate::{parallel, Tensor};
use std::sync::OnceLock;

/// Row blocks: the unit of parallel work (one worker owns MC output rows).
const MC: usize = 64;
/// Depth (in k elements) of a packed panel; must stay even so panels
/// split into whole i16 pairs.
const KC: usize = 256;
/// k-pairs per packed panel.
const KCP: usize = KC / 2;
/// Output lanes per register tile: 32 i32 accumulators per row (two ZMM
/// or four YMM registers).
const INR: usize = 32;
/// Rows of a full packed tile; the last tile of a matrix may be shorter.
const IMR: usize = 4;

/// Which micro-kernel implementation executes the tile update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntKernel {
    /// Portable safe Rust (autovectorized under `target-cpu=native`).
    Scalar,
    /// AVX2 `vpmaddwd` + `vpaddd`.
    Avx2,
    /// AVX-512 VNNI `vpdpwssd`.
    Avx512Vnni,
}

impl IntKernel {
    /// Rows of one register block: two packed tiles for VNNI (16 of its 32
    /// registers hold accumulators, and each lane load then feeds 16
    /// `vpdpwssd`), one for the 16-register AVX2 file and the scalar loop.
    fn block_rows(self) -> usize {
        match self {
            IntKernel::Avx512Vnni => 2 * IMR,
            IntKernel::Scalar | IntKernel::Avx2 => IMR,
        }
    }

    fn name(self) -> &'static str {
        match self {
            IntKernel::Scalar => "scalar",
            IntKernel::Avx2 => "avx2",
            IntKernel::Avx512Vnni => "avx512vnni",
        }
    }

    /// True when the host CPU can execute this kernel.
    #[allow(unreachable_patterns)]
    fn available(self) -> bool {
        match self {
            IntKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            IntKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            IntKernel::Avx512Vnni => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
            }
            _ => false,
        }
    }
}

/// Fastest kernel the host supports, honoring a `DRQ_INT_KERNEL`
/// override (`scalar`, `avx2` or `vnni`); resolved once per process.
fn active_kernel() -> IntKernel {
    static KERNEL: OnceLock<IntKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        if let Ok(want) = std::env::var("DRQ_INT_KERNEL") {
            let choice = match want.trim() {
                "scalar" => Some(IntKernel::Scalar),
                "avx2" => Some(IntKernel::Avx2),
                "vnni" => Some(IntKernel::Avx512Vnni),
                other => {
                    eprintln!(
                        "warning: ignoring unknown DRQ_INT_KERNEL={other:?} \
                         (want scalar|avx2|vnni)"
                    );
                    None
                }
            };
            match choice {
                Some(k) if k.available() => return k,
                Some(k) => eprintln!(
                    "warning: DRQ_INT_KERNEL={} not supported by this CPU; auto-detecting",
                    k.name()
                ),
                None => {}
            }
        }
        if IntKernel::Avx512Vnni.available() {
            IntKernel::Avx512Vnni
        } else if IntKernel::Avx2.available() {
            IntKernel::Avx2
        } else {
            IntKernel::Scalar
        }
    })
}

/// Name of the micro-kernel the integer tier dispatches to on this host
/// (`"scalar"`, `"avx2"` or `"avx512vnni"`), for telemetry and bench
/// reports.
pub fn int_kernel_name() -> &'static str {
    active_kernel().name()
}

/// Nibble-packed INT4 matrix storage: two 4-bit two's-complement codes
/// per byte (even column in the low nibble), rows padded to a whole
/// byte. This is the at-rest form of INT4 weight planes — half the bytes
/// of an i8 tensor; codes are sign-extended back to i8 on unpack.
///
/// # Examples
///
/// ```
/// use drq_tensor::{Int4Packed, Tensor};
///
/// let codes = Tensor::from_vec(vec![-8i8, 7, 3, -1, 0, 5], &[2, 3]).unwrap();
/// let packed = Int4Packed::pack(&codes);
/// assert_eq!(packed.rows(), 2);
/// assert_eq!(packed.cols(), 3);
/// // 3 columns pack into 2 bytes per row.
/// assert_eq!(packed.packed_bytes(), 4);
/// assert_eq!(packed.unpack().as_slice(), codes.as_slice());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Int4Packed {
    data: Vec<u8>,
    rows: usize,
    cols: usize,
}

impl Int4Packed {
    /// Packs a rank-2 tensor of INT4 codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not rank 2 or any value is outside [-8, 7].
    pub fn pack(codes: &Tensor<i8>) -> Self {
        assert_eq!(codes.rank(), 2, "Int4Packed input must be rank 2");
        let (rows, cols) = (codes.shape()[0], codes.shape()[1]);
        let row_bytes = cols.div_ceil(2);
        let cv = codes.as_slice();
        let mut data = vec![0u8; rows * row_bytes];
        for r in 0..rows {
            for c in 0..cols {
                let v = cv[r * cols + c];
                assert!((-8..=7).contains(&v), "INT4 code out of range: {v}");
                let nibble = (v as u8) & 0x0f;
                let byte = &mut data[r * row_bytes + c / 2];
                if c % 2 == 0 {
                    *byte |= nibble;
                } else {
                    *byte |= nibble << 4;
                }
            }
        }
        Self { data, rows, cols }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of packed storage (rows × ceil(cols / 2)).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Sign-extends the nibbles back into a rank-2 i8 tensor, row by row,
    /// two codes per byte.
    pub fn unpack(&self) -> Tensor<i8> {
        let mut codes = vec![0i8; self.rows * self.cols];
        if self.cols > 0 {
            let row_bytes = self.cols.div_ceil(2);
            for (row, bytes) in codes.chunks_exact_mut(self.cols).zip(self.data.chunks_exact(row_bytes)) {
                for (pair, &byte) in row.chunks_mut(2).zip(bytes) {
                    // Move a nibble to the top of the byte and shift it back
                    // down arithmetically: two's-complement sign extension.
                    pair[0] = ((byte << 4) as i8) >> 4;
                    if let Some(hi) = pair.get_mut(1) {
                        *hi = (byte as i8) >> 4;
                    }
                }
            }
        }
        Tensor::from_vec(codes, &[self.rows, self.cols]).expect("rows × cols codes")
    }
}

/// The left operand of [`int_gemm_indirect`], packed once into the
/// kernel's register tiles: an `m × k` matrix of i8-range codes held as
/// i16.
///
/// The depth is cut into panels of 128 k-pairs. Within a panel, rows go
/// in tiles of four (the last tile of a matrix holds the `m mod 4` rest),
/// and a tile of `R` rows stores k-pair `q` of row `r` at `2(qR + r)`:
/// one 32-bit load reads a row's pair for a broadcast. An odd `k` leaves
/// the second half of the last pair zero.
///
/// # Examples
///
/// ```
/// use drq_tensor::PackedLhs;
///
/// let lhs = PackedLhs::pack(&[1, 2, 3, 4, 5, 6], 2, 3);
/// assert_eq!((lhs.rows(), lhs.pairs()), (2, 2));
/// // Two rows of two pairs of i16.
/// assert_eq!(lhs.packed_bytes(), 2 * 2 * 2 * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLhs {
    data: Vec<i16>,
    m: usize,
    k: usize,
}

impl PackedLhs {
    /// Packs the row-major `m × k` codes `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m · k`.
    pub fn pack(a: &[i8], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs holds {} codes, not {m}x{k}", a.len());
        let kp = k.div_ceil(2);
        let mut data = vec![0i16; m * kp * 2];
        for q0 in (0..kp).step_by(KCP) {
            let kpp = KCP.min(kp - q0);
            let panel = &mut data[q0 * 2 * m..][..kpp * 2 * m];
            for t0 in (0..m).step_by(IMR) {
                let r = IMR.min(m - t0);
                let tile = &mut panel[t0 * 2 * kpp..][..r * 2 * kpp];
                for rr in 0..r {
                    let row = &a[(t0 + rr) * k..(t0 + rr + 1) * k][2 * q0..];
                    for (step, pair) in tile.chunks_exact_mut(2 * r).zip(row.chunks(2)) {
                        step[2 * rr] = pair[0].into();
                        if let [_, v] = pair {
                            step[2 * rr + 1] = (*v).into();
                        }
                    }
                }
            }
        }
        Self { data, m, k }
    }

    /// The same matrix with every code shifted right arithmetically by
    /// `bits` (`W >> 4` is the INT4 operand of an INT8 matrix `W`).
    /// Packing only moves codes and pads with zeros, so this equals packing
    /// the shifted matrix.
    pub fn shr(&self, bits: u32) -> Self {
        let data = self.data.iter().map(|&v| v >> bits).collect();
        Self { data, m: self.m, k: self.k }
    }

    /// Row count `m`.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// k-pairs, `ceil(k / 2)`: the length [`int_gemm_indirect`] wants of
    /// its offset list.
    pub fn pairs(&self) -> usize {
        self.k.div_ceil(2)
    }

    /// Bytes of packed storage.
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i16>()
    }

    /// The packed panel starting at k-pair `q0`, `kpp` pairs deep.
    fn panel(&self, q0: usize, kpp: usize) -> &[i16] {
        &self.data[q0 * 2 * self.m..][..kpp * 2 * self.m]
    }

    /// Row `i`'s codes of k-pair `q`.
    fn pair(&self, i: usize, q: usize) -> (i16, i16) {
        let q0 = q - q % KCP;
        let kpp = KCP.min(self.pairs() - q0);
        let t0 = i - i % IMR;
        let r = IMR.min(self.m - t0);
        let at = t0 * 2 * kpp + (q - q0) * 2 * r + 2 * (i - t0);
        let panel = self.panel(q0, kpp);
        (panel[at], panel[at + 1])
    }
}

/// The indirect integer GEMM: `out[i][j] = Σ_t a[i][2t]·b[o_t + 2j] +
/// a[i][2t+1]·b[o_t + 2j + 1]` with `o_t = pair_offsets[t]`, for the
/// `m × k` left operand `lhs` and `n` output lanes, accumulated in
/// wrapping i32 and written over `out` (`m × n`, row-major).
///
/// `b` holds pair-interleaved i16 lanes of i8-range codes. Offsets may
/// overlap or repeat (a convolution's taps read shifted windows of the
/// same plane); only the lanes below `n` are read. Rows are split across
/// threads in blocks of 64; the bits do not depend on the thread count
/// or the kernel.
///
/// # Panics
///
/// Panics if `pair_offsets.len() != lhs.pairs()`, if `out.len() != m · n`,
/// or if some offset reads past `b` (`o_t + 2n > b.len()`).
///
/// # Examples
///
/// ```
/// use drq_tensor::{int_gemm_indirect, PackedLhs};
///
/// // One row, depth 2: out[j] = 2·b[o + 2j] + 3·b[o + 2j + 1].
/// let lhs = PackedLhs::pack(&[2, 3], 1, 2);
/// let b = [1i16, 1, 5, -1, 0, 4];
/// let mut out = [0i32; 2];
/// int_gemm_indirect(&lhs, &b, &[2], 2, &mut out);
/// assert_eq!(out, [2 * 5 - 3, 3 * 4]);
/// ```
pub fn int_gemm_indirect(
    lhs: &PackedLhs,
    b: &[i16],
    pair_offsets: &[usize],
    n: usize,
    out: &mut [i32],
) {
    gemm_indirect(active_kernel(), lhs, b, pair_offsets, n, out);
}

/// [`int_gemm_indirect`] with exact i64 accumulation, for reductions the
/// range analysis cannot prove safe at i32. Scalar and single-threaded —
/// correctness over speed.
///
/// # Panics
///
/// As [`int_gemm_indirect`].
pub fn int_gemm_indirect_wide(
    lhs: &PackedLhs,
    b: &[i16],
    pair_offsets: &[usize],
    n: usize,
    out: &mut [i64],
) {
    check_indirect(lhs, b, pair_offsets, n, out.len());
    out.fill(0);
    if n == 0 {
        return;
    }
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (q, &off) in pair_offsets.iter().enumerate() {
            let (a0, a1) = lhs.pair(i, q);
            let (a0, a1) = (i64::from(a0), i64::from(a1));
            for (o, bb) in orow.iter_mut().zip(b[off..][..2 * n].chunks_exact(2)) {
                *o += a0 * i64::from(bb[0]) + a1 * i64::from(bb[1]);
            }
        }
    }
}

/// The shape and bounds checks of the indirect GEMM: after these, every
/// lane `j < n` of every offset lies inside `b`.
fn check_indirect(lhs: &PackedLhs, b: &[i16], pair_offsets: &[usize], n: usize, out_len: usize) {
    assert_eq!(
        pair_offsets.len(),
        lhs.pairs(),
        "need one offset per k-pair of the left operand"
    );
    assert_eq!(Some(out_len), lhs.rows().checked_mul(n), "output is not {}x{n}", lhs.rows());
    let last = pair_offsets.iter().max().filter(|_| n > 0);
    if let Some(&last) = last {
        let end = n.checked_mul(2).and_then(|lanes| last.checked_add(lanes));
        assert!(
            end.is_some_and(|end| end <= b.len()),
            "indirect GEMM reads {n} lanes from offset {last}, past its {}-element operand",
            b.len()
        );
    }
}

fn gemm_indirect(
    kernel: IntKernel,
    lhs: &PackedLhs,
    b: &[i16],
    pair_offsets: &[usize],
    n: usize,
    out: &mut [i32],
) {
    check_indirect(lhs, b, pair_offsets, n, out.len());
    assert!(kernel.available(), "{} kernel not supported by this CPU", kernel.name());
    if n == 0 || lhs.rows() == 0 {
        return;
    }
    if pair_offsets.is_empty() {
        out.fill(0);
        return;
    }
    parallel::for_each_chunk_mut(out, MC * n, |bi, chunk| {
        let i0 = bi * MC;
        let rows = chunk.len() / n;
        for (q0, offs) in (0..).step_by(KCP).zip(pair_offsets.chunks(KCP)) {
            let kpp = offs.len();
            let panel = lhs.panel(q0, kpp);
            let block = kernel.block_rows();
            for jb in (0..n).step_by(INR) {
                let w = INR.min(n - jb);
                for t0 in (0..rows).step_by(block) {
                    let r = block.min(rows - t0);
                    let a = &panel[(i0 + t0) * 2 * kpp..][..r * 2 * kpp];
                    let tile = Tile { a, b, offs, jb, w };
                    let dst = &mut chunk[t0 * n + jb..];
                    let first = q0 == 0;
                    match r {
                        8 => tile.run::<8>(kernel, dst, n, first),
                        7 => tile.run::<7>(kernel, dst, n, first),
                        6 => tile.run::<6>(kernel, dst, n, first),
                        5 => tile.run::<5>(kernel, dst, n, first),
                        4 => tile.run::<4>(kernel, dst, n, first),
                        3 => tile.run::<3>(kernel, dst, n, first),
                        2 => tile.run::<2>(kernel, dst, n, first),
                        _ => tile.run::<1>(kernel, dst, n, first),
                    }
                }
            }
        }
    });
}

/// One block update: `R ≤ 8` rows of one packed panel against output
/// lanes `jb..jb + w` (`w ≤ 32`), lane `x` of pair `q` reading
/// `b[offs[q] + 2(jb + x)]` and the next element. `a` holds the block's
/// packed tiles (see [`a_at`]).
struct Tile<'a> {
    a: &'a [i16],
    b: &'a [i16],
    offs: &'a [usize],
    jb: usize,
    w: usize,
}

/// Index in a block of `R` rows over `kpp` pairs of row `r`'s pair `q`:
/// the block is one packed tile of `min(R, 4)` rows (pair-interleaved with
/// stride `2·min(R, 4)`), then, past four rows, a tile of the other `R − 4`.
#[inline(always)]
fn a_at<const R: usize>(q: usize, r: usize, kpp: usize) -> usize {
    if r < IMR {
        q * 2 * R.min(IMR) + 2 * r
    } else {
        IMR * 2 * kpp + q * 2 * (R - IMR) + 2 * (r - IMR)
    }
}

impl Tile<'_> {
    /// Runs the block on `kernel` and stores (first panel) or adds its
    /// accumulators into `out`, whose rows are `n` apart.
    #[allow(unsafe_code)]
    fn run<const R: usize>(&self, kernel: IntKernel, out: &mut [i32], n: usize, first: bool) {
        assert_eq!(self.a.len(), self.offs.len() * 2 * R, "block holds R rows of every pair");
        let mut acc = [[0i32; INR]; R];
        match kernel {
            IntKernel::Scalar => self.scalar(&mut acc),
            // SAFETY: `gemm_indirect` asserted that this kernel is
            // available and that every offset plus `2n` lies inside `b`;
            // `jb + w ≤ n` and the kernels read only lanes below `w`. The
            // kernels read `a` at `a_at::<R>(q, r, kpp)` for `q < kpp`,
            // `r < R`, all below `2R·kpp`, its length asserted above.
            #[cfg(target_arch = "x86_64")]
            IntKernel::Avx2 => unsafe { simd::tile_avx2(self, &mut acc) },
            #[cfg(target_arch = "x86_64")]
            IntKernel::Avx512Vnni => unsafe { simd::tile_vnni(self, &mut acc) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.scalar(&mut acc),
        }
        for (r, row) in acc.iter().enumerate() {
            let dst = &mut out[r * n..][..self.w];
            if first {
                dst.copy_from_slice(&row[..self.w]);
            } else {
                for (d, &x) in dst.iter_mut().zip(row) {
                    *d = d.wrapping_add(x);
                }
            }
        }
    }

    /// Portable tile update. Pair products fit i32 exactly for i8-range
    /// operands (≤ 2·128·128); only the accumulator add may wrap.
    fn scalar<const R: usize>(&self, acc: &mut [[i32; INR]; R]) {
        let kpp = self.offs.len();
        for (q, &off) in self.offs.iter().enumerate() {
            let bp = &self.b[off + 2 * self.jb..][..2 * self.w];
            for (r, row) in acc.iter_mut().enumerate() {
                let at = a_at::<R>(q, r, kpp);
                let (a0, a1) = (i32::from(self.a[at]), i32::from(self.a[at + 1]));
                for (o, bb) in row.iter_mut().zip(bp.chunks_exact(2)) {
                    *o = o.wrapping_add(a0 * i32::from(bb[0]) + a1 * i32::from(bb[1]));
                }
            }
        }
    }
}

/// The `core::arch` micro-kernels. This module and the dispatch in
/// [`Tile::run`] are, with the worker pool's `Pool::run`, the crate's only
/// exemptions from `deny(unsafe_code)`: each `#[target_feature]` function is reached
/// solely after `is_x86_feature_detected!` has confirmed the features
/// (see [`IntKernel::available`]), and every load reads a lane below the
/// tile width, inside the bounds [`gemm_indirect`] asserted.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{a_at, Tile, INR};
    use std::arch::x86_64::*;

    /// AVX2 tile update: per k-pair, `vpmaddwd` multiplies the broadcast
    /// a pair against eight b pairs and `vpaddd` folds into the i32
    /// accumulators. Processes the 32 lanes as two 16-lane halves so the
    /// live registers fit the 16-register AVX2 file.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, `t.a` holds `2R` codes per offset of the
    /// tile, and for every offset `o`, `o + 2(jb + w) ≤ b.len()`.
    pub(super) unsafe fn tile_avx2<const R: usize>(t: &Tile<'_>, acc: &mut [[i32; INR]; R]) {
        let bp = t.b.as_ptr().add(2 * t.jb);
        if t.w == INR {
            tile_avx2_inner::<R, false>(t.a.as_ptr(), bp, t.offs, t.w, acc)
        } else {
            tile_avx2_inner::<R, true>(t.a.as_ptr(), bp, t.offs, t.w, acc)
        }
    }

    /// `MASKED` loads only the lanes below `w` (`vpmaskmovd`, one pair per
    /// 32-bit element); the full-strip instance uses plain loads.
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2_inner<const R: usize, const MASKED: bool>(
        ap: *const i16,
        bp: *const i16,
        offs: &[usize],
        w: usize,
        acc: &mut [[i32; INR]; R],
    ) {
        let lanes = |first: i32| {
            let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32 - first), idx)
        };
        for half in 0..2 {
            let lane0 = half * 16;
            if MASKED && w <= lane0 {
                break;
            }
            let (m0, m1) = (lanes(lane0 as i32), lanes(lane0 as i32 + 8));
            let mut vacc0 = [_mm256_setzero_si256(); R];
            let mut vacc1 = [_mm256_setzero_si256(); R];
            for (q, &off) in offs.iter().enumerate() {
                let brow = bp.wrapping_add(off + 2 * lane0);
                let (b0, b1) = if MASKED {
                    (
                        _mm256_maskload_epi32(brow as *const i32, m0),
                        _mm256_maskload_epi32(brow.wrapping_add(16) as *const i32, m1),
                    )
                } else {
                    (
                        _mm256_loadu_si256(brow as *const __m256i),
                        _mm256_loadu_si256(brow.add(16) as *const __m256i),
                    )
                };
                for r in 0..R {
                    let pair = (ap.add(a_at::<R>(q, r, offs.len())) as *const i32).read_unaligned();
                    let av = _mm256_set1_epi32(pair);
                    vacc0[r] = _mm256_add_epi32(vacc0[r], _mm256_madd_epi16(av, b0));
                    vacc1[r] = _mm256_add_epi32(vacc1[r], _mm256_madd_epi16(av, b1));
                }
            }
            for r in 0..R {
                let dst = acc[r].as_mut_ptr().add(lane0);
                _mm256_storeu_si256(dst as *mut __m256i, vacc0[r]);
                _mm256_storeu_si256(dst.add(8) as *mut __m256i, vacc1[r]);
            }
        }
    }

    /// AVX-512 VNNI tile update: `vpdpwssd` fuses the pair multiply and
    /// accumulator add (wrapping — the saturating form is `vpdpwssds`,
    /// deliberately not used). Zero-masked loads stop at lane `w`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, BW and VNNI, `t.a` holds `2R` codes per
    /// offset of the tile, and for every offset `o`,
    /// `o + 2(jb + w) ≤ b.len()`.
    pub(super) unsafe fn tile_vnni<const R: usize>(t: &Tile<'_>, acc: &mut [[i32; INR]; R]) {
        let bp = t.b.as_ptr().add(2 * t.jb);
        tile_vnni_inner::<R>(t.a.as_ptr(), bp, t.offs, t.w, acc)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn tile_vnni_inner<const R: usize>(
        ap: *const i16,
        bp: *const i16,
        offs: &[usize],
        w: usize,
        acc: &mut [[i32; INR]; R],
    ) {
        let lanes = |n: usize| if n >= 16 { u16::MAX } else { (1u16 << n) - 1 };
        let (m0, m1) = (lanes(w), lanes(w.saturating_sub(16)));
        let mut vacc0 = [_mm512_setzero_si512(); R];
        let mut vacc1 = [_mm512_setzero_si512(); R];
        for (q, &off) in offs.iter().enumerate() {
            let brow = bp.wrapping_add(off);
            let b0 = _mm512_maskz_loadu_epi32(m0, brow as *const i32);
            let b1 = _mm512_maskz_loadu_epi32(m1, brow.wrapping_add(32) as *const i32);
            for r in 0..R {
                let pair = (ap.add(a_at::<R>(q, r, offs.len())) as *const i32).read_unaligned();
                let av = _mm512_set1_epi32(pair);
                vacc0[r] = _mm512_dpwssd_epi32(vacc0[r], av, b0);
                vacc1[r] = _mm512_dpwssd_epi32(vacc1[r], av, b1);
            }
        }
        for r in 0..R {
            let dst = acc[r].as_mut_ptr();
            _mm512_storeu_si512(dst as *mut __m512i, vacc0[r]);
            _mm512_storeu_si512(dst.add(16) as *mut __m512i, vacc1[r]);
        }
    }
}

/// Row-major integer matrix multiply with wrapping i32 accumulation:
/// `a (m x k) * b (k x n) -> (m x n)`.
///
/// Operands must be i8-range codes. The result is the exact product
/// whenever `k · max|a| · max|b| ≤ i32::MAX` — provable up front via
/// `drq-quant`'s range analysis — and the exact product mod 2³²
/// otherwise (never saturated). Bits are identical for every thread
/// count and kernel choice.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use drq_tensor::{int8_matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1i8, 2, 3, 4], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![5i8, 6, 7, 8], &[2, 2]).unwrap();
/// assert_eq!(int8_matmul(&a, &b).as_slice(), &[19, 22, 43, 50]);
/// ```
pub fn int8_matmul(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    let (m, k, n) = check_gemm_shapes(a, b);
    row_pair_gemm(&PackedLhs::pack(a.as_slice(), m, k), b.as_slice(), n)
}

/// The wide-accumulator fallback: same operand contract as
/// [`int8_matmul`] but exact i64 accumulation, for reductions the range
/// analysis cannot prove safe at i32. Runs [`int_gemm_indirect_wide`] on
/// `b`'s row pairs.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn int8_matmul_wide(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i64> {
    let (m, k, n) = check_gemm_shapes(a, b);
    let mut out = Tensor::<i64>::zeros(&[m, n]);
    if m > 0 && n > 0 {
        let lhs = PackedLhs::pack(a.as_slice(), m, k);
        let (pairs, offsets) = pack_row_pairs(b.as_slice(), n);
        int_gemm_indirect_wide(&lhs, &pairs, &offsets, n, out.as_mut_slice());
    }
    out
}

/// The unblocked, single-threaded integer reference kernel: `i-k-j`
/// triple loop, wrapping i32 accumulation. Public as the equivalence
/// oracle for tests and benches; [`int8_matmul`] must match it
/// bit-for-bit on every shape.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn int8_matmul_reference(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    let (m, k, n) = check_gemm_shapes(a, b);
    let mut out = Tensor::<i32>::zeros(&[m, n]);
    if m == 0 || k == 0 || n == 0 {
        return out;
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    for (arow, orow) in av.chunks_exact(k).zip(out.as_mut_slice().chunks_exact_mut(n)) {
        for (&aik, brow) in arow.iter().zip(bv.chunks_exact(n)) {
            let aik = aik as i32;
            for (o, &bb) in orow.iter_mut().zip(brow.iter()) {
                *o = o.wrapping_add(aik.wrapping_mul(bb as i32));
            }
        }
    }
    out
}

/// `i4 × i8 → i32` matrix multiply: the left operand is nibble-packed
/// INT4 (weights at rest), the right operand i8-range codes. Unpacks the
/// nibbles and runs the same kernel as [`int8_matmul`], so results follow
/// the identical wrapping-i32 contract.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `b` is not rank 2.
pub fn int4_matmul(a: &Int4Packed, b: &Tensor<i8>) -> Tensor<i32> {
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    row_pair_gemm(&PackedLhs::pack(a.unpack().as_slice(), m, k), b.as_slice(), n)
}

fn check_gemm_shapes(a: &Tensor<i8>, b: &Tensor<i8>) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    (m, k, n)
}

/// `lhs · b` for a row-major `k × n` matrix `b`, through the indirect
/// kernel on `b`'s row pairs.
fn row_pair_gemm(lhs: &PackedLhs, b: &[i8], n: usize) -> Tensor<i32> {
    let mut out = Tensor::<i32>::zeros(&[lhs.rows(), n]);
    if lhs.rows() > 0 && n > 0 {
        let (pairs, offsets) = pack_row_pairs(b, n);
        int_gemm_indirect(lhs, &pairs, &offsets, n, out.as_mut_slice());
    }
    out
}

/// Interleaves rows `2t` and `2t + 1` of the row-major `b` (`n` wide)
/// into i16 lane pairs, one `2n` block per pair (an odd last row pairs
/// with zeros), and returns the blocks with their offsets.
fn pack_row_pairs(b: &[i8], n: usize) -> (Vec<i16>, Vec<usize>) {
    let kp = (b.len() / n).div_ceil(2);
    let mut pairs = vec![0i16; kp * 2 * n];
    for (dst, rows) in pairs.chunks_exact_mut(2 * n).zip(b.chunks(2 * n)) {
        let (r0, r1) = rows.split_at(n);
        if r1.is_empty() {
            for (d, &x0) in dst.chunks_exact_mut(2).zip(r0) {
                d[0] = x0.into();
            }
        } else {
            for (d, (&x0, &x1)) in dst.chunks_exact_mut(2).zip(r0.iter().zip(r1)) {
                d[0] = x0.into();
                d[1] = x1.into();
            }
        }
    }
    (pairs, (0..kp).map(|t| 2 * t * n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShiftRng;

    fn random_i8(rng: &mut XorShiftRng, shape: &[usize]) -> Tensor<i8> {
        Tensor::from_fn(shape, |_| (rng.next_u64() & 0xff) as u8 as i8)
    }

    fn available_kernels() -> Vec<IntKernel> {
        [IntKernel::Scalar, IntKernel::Avx2, IntKernel::Avx512Vnni]
            .into_iter()
            .filter(|k| k.available())
            .collect()
    }

    #[test]
    fn all_kernels_match_reference_on_odd_shapes() {
        // Rows not a multiple of IMR/MC, columns not a multiple of INR, odd
        // depth (zero tail pair), depth beyond one KC panel.
        let mut rng = XorShiftRng::new(7);
        for &(m, k, n) in &[(67, 33, 29), (130, 257, 17), (65, 300, 15), (3, 1000, 40)] {
            let a = random_i8(&mut rng, &[m, k]);
            let b = random_i8(&mut rng, &[k, n]);
            let want = int8_matmul_reference(&a, &b);
            let lhs = PackedLhs::pack(a.as_slice(), m, k);
            let (pairs, offsets) = pack_row_pairs(b.as_slice(), n);
            for kernel in available_kernels() {
                let mut got = Tensor::<i32>::zeros(&[m, n]);
                gemm_indirect(kernel, &lhs, &pairs, &offsets, n, got.as_mut_slice());
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "kernel {} diverged on {m}x{k}x{n}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn tiny_shapes_match_reference() {
        let mut rng = XorShiftRng::new(11);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8)] {
            let a = random_i8(&mut rng, &[m, k]);
            let b = random_i8(&mut rng, &[k, n]);
            assert_eq!(int8_matmul(&a, &b), int8_matmul_reference(&a, &b));
        }
    }

    /// The `k × n` matrix the indirect GEMM reads through `offsets`.
    fn materialize(b: &[i16], offsets: &[usize], k: usize, n: usize) -> Tensor<i8> {
        Tensor::from_fn(&[k, n], |i| {
            let (kk, j) = (i / n, i % n);
            b[offsets[kk / 2] + 2 * j + kk % 2] as i8
        })
    }

    #[test]
    fn indirect_kernel_matches_reference_on_arbitrary_offsets() {
        // Random offsets into one shared buffer (overlapping windows, odd
        // starts, repeats), on every kernel the host has: row counts 1-9
        // (every tail tile) and 70 (two row blocks), depths inside and
        // across a KC panel (odd ones leave a zero half pair whose `b`
        // lanes must not count), lane counts around the 32-lane strip.
        let mut rng = XorShiftRng::new(19);
        let depths = [1usize, 2, 9, 256, 257, 301, 600];
        let lanes = [1usize, 5, 31, 32, 33, 64, 70, 97];
        let mut cases: Vec<(usize, usize, usize)> = (1..=9)
            .map(|m| (m, depths[m % depths.len()], lanes[m % lanes.len()]))
            .collect();
        cases.extend([(70, 300, 45), (70, 600, 64), (9, 600, 97), (4, 257, 1)]);
        for (m, k, n) in cases {
            let a = random_i8(&mut rng, &[m, k]);
            let b: Vec<i16> = (0..4 * n + 600).map(|_| i16::from((rng.next_u64() & 0xff) as u8 as i8)).collect();
            let span = b.len() - 2 * n;
            let mut offsets: Vec<usize> =
                (0..k.div_ceil(2)).map(|_| rng.next_u64() as usize % (span + 1)).collect();
            if offsets.len() > 2 {
                offsets[1] = offsets[0];
                offsets[2] = offsets[0] + 1;
            }
            *offsets.last_mut().expect("k > 0") = span;
            let want = int8_matmul_reference(&a, &materialize(&b, &offsets, k, n));
            let lhs = PackedLhs::pack(a.as_slice(), m, k);
            for kernel in available_kernels() {
                let mut got = vec![i32::MIN; m * n];
                gemm_indirect(kernel, &lhs, &b, &offsets, n, &mut got);
                assert_eq!(got, want.as_slice(), "kernel {} diverged on {m}x{k}x{n}", kernel.name());
            }
            let mut wide = vec![i64::MIN; m * n];
            int_gemm_indirect_wide(&lhs, &b, &offsets, n, &mut wide);
            let want: Vec<i64> = want.as_slice().iter().map(|&v| v.into()).collect();
            assert_eq!(wide, want, "wide path diverged on {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "past its")]
    fn indirect_kernel_rejects_an_offset_past_the_operand() {
        let lhs = PackedLhs::pack(&[1, 1], 1, 2);
        let mut out = [0i32; 3];
        int_gemm_indirect(&lhs, &[0i16; 8], &[3], 3, &mut out);
    }

    #[test]
    fn extreme_operands_wrap_like_the_reference() {
        // All-(-128) operands at k=200k: the exact sum (200000·16384 ≈
        // 3.3e9) exceeds i32::MAX, so both sides must wrap identically —
        // the explicit non-saturating contract.
        let k = 200_000;
        let a = Tensor::<i8>::full(&[1, k], -128);
        let b = Tensor::<i8>::full(&[k, 1], -128);
        let got = int8_matmul(&a, &b);
        assert_eq!(got, int8_matmul_reference(&a, &b));
        let exact = 200_000i64 * 128 * 128;
        assert_eq!(got.as_slice()[0] as i64, exact - (1i64 << 32), "expected one wrap");
        // The wide path is exact where i32 wrapped.
        assert_eq!(int8_matmul_wide(&a, &b).as_slice()[0], exact);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let mut rng = XorShiftRng::new(13);
        let a = random_i8(&mut rng, &[70, 90]);
        let b = random_i8(&mut rng, &[90, 35]);
        parallel::set_max_threads(1);
        let base = int8_matmul(&a, &b);
        let base_wide = int8_matmul_wide(&a, &b);
        for t in [2, 3, 8] {
            parallel::set_max_threads(t);
            assert_eq!(int8_matmul(&a, &b).as_slice(), base.as_slice(), "threads={t}");
            assert_eq!(int8_matmul_wide(&a, &b).as_slice(), base_wide.as_slice(), "threads={t}");
        }
        parallel::set_max_threads(0);
    }

    #[test]
    fn wide_path_matches_i64_naive() {
        let mut rng = XorShiftRng::new(17);
        let a = random_i8(&mut rng, &[9, 31]);
        let b = random_i8(&mut rng, &[31, 7]);
        let wide = int8_matmul_wide(&a, &b);
        for i in 0..9 {
            for j in 0..7 {
                let mut acc = 0i64;
                for kk in 0..31 {
                    acc += a.as_slice()[i * 31 + kk] as i64 * b.as_slice()[kk * 7 + j] as i64;
                }
                assert_eq!(wide.as_slice()[i * 7 + j], acc);
            }
        }
    }

    #[test]
    fn int4_pack_roundtrip_all_codes() {
        // Every INT4 code through every nibble position, odd and even
        // column counts, and an empty row.
        for cols in [9, 8, 1, 0] {
            let codes = Tensor::from_fn(&[4, cols], |i| (i as i64 % 16 - 8) as i8);
            let packed = Int4Packed::pack(&codes);
            assert_eq!(packed.packed_bytes(), 4 * cols.div_ceil(2));
            assert_eq!(packed.unpack().as_slice(), codes.as_slice());
        }
    }

    #[test]
    fn int4_matmul_matches_unpacked_int8_path() {
        let mut rng = XorShiftRng::new(23);
        let a4 = Tensor::from_fn(&[40, 130], |_| ((rng.next_u64() % 16) as i64 - 8) as i8);
        let b = random_i8(&mut rng, &[130, 21]);
        let packed = Int4Packed::pack(&a4);
        let got = int4_matmul(&packed, &b);
        assert_eq!(got, int8_matmul(&a4, &b));
        assert_eq!(got, int8_matmul_reference(&a4, &b));
    }

    #[test]
    #[should_panic(expected = "INT4 code out of range")]
    fn int4_pack_rejects_wide_codes() {
        let codes = Tensor::from_vec(vec![8i8], &[1, 1]).unwrap();
        let _ = Int4Packed::pack(&codes);
    }

    #[test]
    fn zero_sized_dims_yield_zero_products() {
        let a = Tensor::<i8>::zeros(&[0, 3]);
        let b = Tensor::<i8>::zeros(&[3, 4]);
        assert_eq!(int8_matmul(&a, &b).shape(), &[0, 4]);
        let a = Tensor::<i8>::full(&[2, 0], 1);
        let b = Tensor::<i8>::full(&[0, 4], 1);
        let out = int8_matmul(&a, &b);
        assert_eq!(out.shape(), &[2, 4]);
        assert!(out.as_slice().iter().all(|&v| v == 0));
        assert!(int8_matmul_wide(&a, &b).as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn rejects_mismatched_inner_dims() {
        let a = Tensor::<i8>::zeros(&[2, 3]);
        let b = Tensor::<i8>::zeros(&[4, 2]);
        let _ = int8_matmul(&a, &b);
    }

    #[test]
    fn kernel_name_is_a_known_value() {
        assert!(["scalar", "avx2", "avx512vnni"].contains(&int_kernel_name()));
    }
}
