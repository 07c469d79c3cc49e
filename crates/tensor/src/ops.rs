//! Dense linear-algebra kernels: matrix multiply.
//!
//! [`gemm`] is the compute kernel behind the software convolution (via
//! im2col) and the fully connected layers used for training and reference
//! inference; [`gemm_at`] is the same product with the left operand stored
//! transposed, and [`matmul`] the tensor-level wrapper. Large products run
//! a cache-blocked kernel — MC row blocks sharded across threads, KC-deep
//! panels of `a` and `b` packed into register-tile order (straight from
//! either layout of each operand), and an MR×NR register tile — while small
//! products use a plain loop whose overhead is lower. Both paths are bit-deterministic in the
//! thread count (see the `parallel` module): every output element is
//! produced by exactly one worker and its accumulation order depends only
//! on the shapes.

use crate::{parallel, Tensor};

/// Row blocks: the unit of parallel work (one worker owns MC output rows).
const MC: usize = 64;
/// Depth of a packed `b` panel; MC×KC of `a` and KC×NR strips stay cached.
/// Together with [`SMALL_MACS`] this is the only constant that shapes an
/// output element's f32 accumulation order.
const KC: usize = 256;
/// Width of a packed `b` strip and of the register tile.
const NR: usize = 16;
/// Rows of the full register tile (each reuses a loaded `b` strip row).
/// MR×NR accumulators take 16 of the 32 vector registers AVX-512VL gives
/// 256-bit code; leftover rows run a half-height tile, then single rows.
const MR: usize = 8;
/// Rows of the tile that takes 4..MR leftover rows.
const HR: usize = MR / 2;

/// Products smaller than this many MACs skip blocking and packing.
const SMALL_MACS: usize = 16 * 1024;

/// How [`gemm`]'s right operand `b` is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rhs {
    /// `b` is `[k, n]`, row-major: the product is `a · b`.
    Plain,
    /// `b` is `[n, k]`, row-major (a weight matrix, or the rows of an
    /// im2col column matrix): the product is `a · bᵀ`, packed straight from
    /// this layout without materializing the transpose.
    Transposed,
}

/// Slice-level f32 matrix multiply into a caller's buffer:
/// `c (m×n) = a (m×k) · op(b)`, with `op(b)` as [`Rhs`] says.
///
/// `c` is overwritten: it is zeroed first and every element's sum is added
/// onto that zero, so the result does not depend on what `c` held. Each
/// element accumulates over `k` in ascending order — in KC-deep panels
/// added in order once the product reaches `SMALL_MACS` — whatever the
/// layout of `b`, the tile that computes it or the thread count, so
/// `Rhs::Transposed` gives the same bits as `Rhs::Plain` on the
/// materialized transpose, and [`matmul`] the same bits as this.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k` and `n`.
///
/// # Examples
///
/// ```
/// use drq_tensor::{gemm, Rhs};
///
/// let a = [1.0, 2.0, 3.0, 4.0]; // [2, 2]
/// let bt = [1.0, 1.0, 0.0, 1.0]; // [n = 2, k = 2]: b = [[1, 0], [1, 1]]
/// let mut c = [f32::NAN; 4];
/// gemm(2, 2, 2, &a, &bt, Rhs::Transposed, &mut c);
/// assert_eq!(c, [3.0, 2.0, 7.0, 4.0]);
/// ```
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], rhs: Rhs, c: &mut [f32]) {
    gemm_op(Lhs { a, transposed: false, m, k }, b, rhs, n, c);
}

/// [`gemm`] with the left operand stored transposed:
/// `c (m×n) = atᵀ · op(b)`, where `at` is `[k, m]`, row-major (a weight
/// matrix read as `Wᵀ`, or an output gradient read as `gyᵀ`). It is packed
/// straight from that layout, so the result has the same bits as [`gemm`]
/// on the materialized transpose, at every thread count.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k` and `n`.
///
/// # Examples
///
/// ```
/// use drq_tensor::{gemm_at, Rhs};
///
/// let at = [1.0, 3.0, 2.0, 4.0]; // [k = 2, m = 2]: a = [[1, 2], [3, 4]]
/// let b = [1.0, 0.0, 1.0, 1.0]; // [k = 2, n = 2]
/// let mut c = [f32::NAN; 4];
/// gemm_at(2, 2, 2, &at, &b, Rhs::Plain, &mut c);
/// assert_eq!(c, [3.0, 2.0, 7.0, 4.0]);
/// ```
pub fn gemm_at(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], rhs: Rhs, c: &mut [f32]) {
    gemm_op(Lhs { a: at, transposed: true, m, k }, b, rhs, n, c);
}

/// The left operand of a product as stored: `[m, k]`, or `[k, m]` when
/// `transposed`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    a: &'a [f32],
    transposed: bool,
    m: usize,
    k: usize,
}

impl<'a> Lhs<'a> {
    /// Row `i` of the `[m, k]` operand, in ascending `k` order.
    fn row(self, i: usize) -> std::iter::StepBy<std::slice::Iter<'a, f32>> {
        if self.transposed {
            self.a[i..].iter().step_by(self.m)
        } else {
            self.a[i * self.k..][..self.k].iter().step_by(1)
        }
    }
}

/// The body of [`gemm`] and [`gemm_at`].
fn gemm_op(lhs: Lhs<'_>, b: &[f32], rhs: Rhs, n: usize, c: &mut [f32]) {
    let (a, m, k) = (lhs.a, lhs.m, lhs.k);
    assert_eq!(a.len(), m * k, "gemm lhs must hold m*k = {m}*{k} values");
    assert_eq!(b.len(), k * n, "gemm rhs must hold k*n = {k}*{n} values");
    assert_eq!(c.len(), m * n, "gemm output must hold m*n = {m}*{n} values");
    c.fill(0.0);
    // Degenerate extents (any dimension zero) have an all-zero product; the
    // kernels below would choke on zero-length chunk iteration.
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match (m * k * n < SMALL_MACS, rhs) {
        (true, Rhs::Plain) => matmul_simple(lhs, b, c, n),
        (true, Rhs::Transposed) => matmul_simple_t(lhs, b, c, n),
        (false, _) => matmul_blocked(lhs, b, rhs, c, n),
    }
}

/// Row-major matrix multiply: `a (m x k) * b (k x n) -> (m x n)`.
///
/// A thin wrapper over [`gemm`]: runs the cache-blocked, multi-threaded
/// kernel for large shapes (thread count from `DRQ_THREADS` /
/// [`parallel::set_max_threads`]); results are bit-identical for every
/// thread count.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use drq_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
/// assert_eq!(matmul(&a, &b).as_slice(), a.as_slice());
/// ```
pub fn matmul(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::<f32>::zeros(&[m, n]);
    gemm(m, k, n, a.as_slice(), b.as_slice(), Rhs::Plain, out.as_mut_slice());
    out
}

/// The unblocked, single-threaded reference kernel (the seed repository's
/// dense path). Kept public as the equivalence oracle for tests and the
/// baseline for `kernel_microbench` speedup reporting.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul_reference(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::<f32>::zeros(&[m, n]);
    if m == 0 || k == 0 || n == 0 {
        return out;
    }
    let lhs = Lhs { a: a.as_slice(), transposed: false, m, k };
    matmul_simple(lhs, b.as_slice(), out.as_mut_slice(), n);
    out
}

/// `i-k-j` triple loop; cache-friendly on `b`, no blocking.
fn matmul_simple(lhs: Lhs<'_>, bv: &[f32], ov: &mut [f32], n: usize) {
    for (i, orow) in ov.chunks_exact_mut(n).enumerate() {
        for (&aik, brow) in lhs.row(i).zip(bv.chunks_exact(n)) {
            for (o, &bb) in orow.iter_mut().zip(brow.iter()) {
                *o += aik * bb;
            }
        }
    }
}

/// [`matmul_simple`] with `b` stored `[n, k]`: NR output columns at a
/// time, each an independent sum over `k` in ascending order.
fn matmul_simple_t(lhs: Lhs<'_>, bt: &[f32], ov: &mut [f32], n: usize) {
    let k = lhs.k;
    for (i, orow) in ov.chunks_exact_mut(n).enumerate() {
        for (ocols, brows) in orow.chunks_mut(NR).zip(bt.chunks(NR * k)) {
            let mut acc = [0.0f32; NR];
            for (kk, &aik) in lhs.row(i).enumerate() {
                for (x, brow) in acc.iter_mut().zip(brows.chunks_exact(k)) {
                    *x += aik * brow[kk];
                }
            }
            for (o, &x) in ocols.iter_mut().zip(&acc) {
                *o += x;
            }
        }
    }
}

/// Cache-blocked parallel kernel. Each worker owns MC full output rows, so
/// writes are disjoint and no reduction crosses threads.
fn matmul_blocked(lhs: Lhs<'_>, bv: &[f32], rhs: Rhs, ov: &mut [f32], n: usize) {
    parallel::for_each_chunk_mut(ov, MC * n, |bi, cchunk| {
        blocked_rows(lhs, bv, rhs, cchunk, bi * MC, n);
    });
}

/// One worker's share of [`matmul_blocked`]: output rows `i0..` (as many
/// as `cchunk` holds). Kept out of line so that the calling thread and the
/// pool's helper threads run one compiled copy: inlined into the parallel
/// machinery, the copy in the workers' entry point ran about half as fast
/// as the calling thread's.
#[inline(never)]
fn blocked_rows(lhs: Lhs<'_>, bv: &[f32], rhs: Rhs, cchunk: &mut [f32], i0: usize, n: usize) {
    let k = lhs.k;
    let n_strips = n.div_ceil(NR);
    // Packed buffers hold one panel, so a shallow product packs only `k`.
    let kc_max = KC.min(k);
    let rows = cchunk.len() / n;
    let tiles = rows / MR;
    let half = rows % MR >= HR;
    let tail0 = tiles * MR + if half { HR } else { 0 };
    // Packed b panel: strip-major, fixed kc_max×NR row stride, zero
    // padding in the tail lanes (written once here, never by packing).
    let mut pb = vec![0.0f32; n_strips * kc_max * NR];
    // Packed a block: tile-major, each tile's rows interleaved per k step,
    // so a tile's `a` values for one step are one contiguous load; the row
    // tail (< HR rows) follows as one-row panels.
    let mut pa = vec![0.0f32; rows * kc_max];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        match rhs {
            Rhs::Plain => pack_b(bv, &mut pb, k0, kc, kc_max, n),
            Rhs::Transposed => pack_bt(bv, &mut pb, k0, kc, kc_max, k),
        }
        let (pa_full, rest) = pa[..rows * kc].split_at_mut(tiles * MR * kc);
        let (pa_half, pa_tail) = rest.split_at_mut((tail0 - tiles * MR) * kc);
        pack_a::<MR>(lhs, pa_full, i0, k0, kc);
        pack_a::<HR>(lhs, pa_half, i0 + tiles * MR, k0, kc);
        pack_a::<1>(lhs, pa_tail, i0 + tail0, k0, kc);
        for sb in 0..n_strips {
            let jb = sb * NR;
            let w = NR.min(n - jb);
            let strip = &pb[sb * kc_max * NR..][..kc * NR];
            for (t, apanel) in pa_full.chunks_exact(MR * kc).enumerate() {
                tile::<MR>(apanel, strip, &mut cchunk[t * MR * n + jb..], n, w);
            }
            if half {
                tile::<HR>(pa_half, strip, &mut cchunk[tiles * MR * n + jb..], n, w);
            }
            // Row tail (< HR rows): one row is its own packed panel.
            for (r, a_row) in pa_tail.chunks_exact(kc).enumerate() {
                tile::<1>(a_row, strip, &mut cchunk[(tail0 + r) * n + jb..], n, w);
            }
        }
    }
}

/// One R×NR register tile over one packed k panel, added onto the first
/// `w` columns of `R` rows of `c` (row stride `n`). Fixed trip counts and
/// `[f32; NR]` rows let the compiler keep the accumulators in vector
/// registers; the per-row [`axpy`] keeps every tile height vectorized
/// along NR (a loop nest over both axes spilled the 4-row tile).
#[inline(always)]
fn tile<const R: usize>(apanel: &[f32], strip: &[f32], c: &mut [f32], n: usize, w: usize) {
    let mut acc = [[0.0f32; NR]; R];
    for (aq, prow) in apanel.chunks_exact(R).zip(strip.chunks_exact(NR)) {
        let aq: &[f32; R] = aq.try_into().unwrap();
        let prow: &[f32; NR] = prow.try_into().unwrap();
        for (crow, &ar) in acc.iter_mut().zip(aq) {
            axpy(crow, ar, prow);
        }
    }
    for (r, arow) in acc.iter().enumerate() {
        for (cv, &x) in c[r * n..][..w].iter_mut().zip(arow) {
            *cv += x;
        }
    }
}

/// `c += a·p` over one NR-wide accumulator row.
#[inline(always)]
fn axpy(c: &mut [f32; NR], a: f32, p: &[f32; NR]) {
    for x in 0..NR {
        c[x] += a * p[x];
    }
}

/// Packs R-row tiles of `a` (rows from `row0`, as many whole tiles as `pa`
/// holds at depth `kc`, columns `k0..k0+kc`) with the R rows interleaved
/// per k step. A transposed operand already stores each k step's rows
/// side by side, so its tile rows are one copy per step.
fn pack_a<const R: usize>(lhs: Lhs<'_>, pa: &mut [f32], row0: usize, k0: usize, kc: usize) {
    let (a, m, k) = (lhs.a, lhs.m, lhs.k);
    for (t, dst) in pa.chunks_exact_mut(R * kc).enumerate() {
        let i = row0 + t * R;
        if lhs.transposed {
            for (kl, d) in dst.chunks_exact_mut(R).enumerate() {
                d.copy_from_slice(&a[(k0 + kl) * m + i..][..R]);
            }
        } else {
            for r in 0..R {
                let src = &a[(i + r) * k + k0..][..kc];
                for (kl, &v) in src.iter().enumerate() {
                    dst[kl * R + r] = v;
                }
            }
        }
    }
}

/// Packs rows `k0..k0+kc` of a `[k, n]` operand into NR-wide strips.
fn pack_b(bv: &[f32], pb: &mut [f32], k0: usize, kc: usize, kc_max: usize, n: usize) {
    for (sb, strip) in pb.chunks_exact_mut(kc_max * NR).enumerate() {
        let jb = sb * NR;
        let w = NR.min(n - jb);
        for (kl, dst) in strip.chunks_exact_mut(NR).take(kc).enumerate() {
            dst[..w].copy_from_slice(&bv[(k0 + kl) * n + jb..][..w]);
        }
    }
}

/// Packs columns `k0..k0+kc` of an `[n, k]` operand into the same strips
/// [`pack_b`] builds from its transpose: row `j` lands in lane `j % NR` of
/// strip `j / NR`.
fn pack_bt(bt: &[f32], pb: &mut [f32], k0: usize, kc: usize, kc_max: usize, k: usize) {
    for (j, brow) in bt.chunks_exact(k).enumerate() {
        let strip = &mut pb[(j / NR) * kc_max * NR..][..kc * NR];
        for (dst, &v) in strip[j % NR..].iter_mut().step_by(NR).zip(&brow[k0..k0 + kc]) {
            *dst = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShiftRng;

    fn naive(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::<f32>::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[[i, kk]] * b[[kk, j]];
                }
                out[[i, j]] = acc;
            }
        }
        out
    }

    fn assert_close(fast: &Tensor<f32>, slow: &Tensor<f32>, tol: f32) {
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_on_random_sizes() {
        let mut rng = XorShiftRng::new(42);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8)] {
            let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
            let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
        }
    }

    #[test]
    fn blocked_path_matches_naive_on_odd_shapes() {
        // Shapes chosen to exceed SMALL_MACS and exercise every edge: rows
        // not a multiple of MR/MC, columns not a multiple of NR, depth not a
        // multiple of KC.
        let mut rng = XorShiftRng::new(7);
        for &(m, k, n) in &[(67, 33, 29), (130, 257, 17), (65, 300, 15), (3, 1000, 40)] {
            let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
            let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
            let tol = 1e-4 * (k as f32).sqrt();
            assert_close(&matmul(&a, &b), &naive(&a, &b), tol);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let mut rng = XorShiftRng::new(13);
        let a = Tensor::from_fn(&[70, 90], |_| rng.next_f32() - 0.5);
        let b = Tensor::from_fn(&[90, 35], |_| rng.next_f32() - 0.5);
        parallel::set_max_threads(1);
        let base = matmul(&a, &b);
        for t in [2, 3, 8] {
            parallel::set_max_threads(t);
            assert_eq!(matmul(&a, &b).as_slice(), base.as_slice(), "threads={t}");
        }
        parallel::set_max_threads(0);
    }

    #[test]
    fn identity_is_neutral() {
        let mut eye = Tensor::<f32>::zeros(&[3, 3]);
        for i in 0..3 {
            eye[[i, i]] = 1.0;
        }
        let a = Tensor::from_fn(&[3, 3], |i| i as f32);
        assert_eq!(matmul(&a, &eye).as_slice(), a.as_slice());
        assert_eq!(matmul(&eye, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn zero_sized_dims_yield_empty_or_zero_products() {
        // m, k or n of zero must not panic; k == 0 gives an all-zero [m, n].
        let a = Tensor::<f32>::zeros(&[0, 3]);
        let b = Tensor::<f32>::zeros(&[3, 4]);
        assert_eq!(matmul(&a, &b).shape(), &[0, 4]);
        let a = Tensor::<f32>::full(&[2, 0], 1.0);
        let b = Tensor::<f32>::full(&[0, 4], 1.0);
        let out = matmul(&a, &b);
        assert_eq!(out.shape(), &[2, 4]);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let a = Tensor::<f32>::full(&[2, 3], 1.0);
        let b = Tensor::<f32>::zeros(&[3, 0]);
        assert_eq!(matmul_reference(&a, &b).shape(), &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn rejects_mismatched_inner_dims() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn dense_kernel_handles_zeros_exactly() {
        // The old kernel special-cased `aik == 0.0`; the dense kernel must
        // produce the same values without the branch.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let out = matmul(&a, &b);
        assert_eq!(out.as_slice(), &[5.0, 6.0, 6.0, 8.0]);
    }

    fn transpose(b: &Tensor<f32>) -> Tensor<f32> {
        let (k, n) = (b.shape()[0], b.shape()[1]);
        Tensor::from_fn(&[n, k], |i| b.as_slice()[(i % k) * n + i / k])
    }

    #[test]
    fn transposed_rhs_is_bit_identical_to_plain_at_every_tile_height() {
        // m = 1..=17 walks the 8-row tile, the 4-row tile and the single-row
        // tail; k crosses KC, n crosses NR, and the small shapes stay under
        // SMALL_MACS. The destination starts dirty: gemm must overwrite it.
        let mut rng = XorShiftRng::new(5);
        for m in 1..=17 {
            for &(k, n) in &[(3, 5), (40, 17), (300, 33), (513, 16)] {
                let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
                let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
                let want = matmul(&a, &b);
                for (rhs, bop) in [(Rhs::Plain, b.clone()), (Rhs::Transposed, transpose(&b))] {
                    let mut c = vec![f32::NAN; m * n];
                    gemm(m, k, n, a.as_slice(), bop.as_slice(), rhs, &mut c);
                    for (x, y) in c.iter().zip(want.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{rhs:?} m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_lhs_is_bit_identical_to_plain_at_every_tile_height() {
        // m walks the 8-row tile, the 4-row tile, the single-row tail and
        // (past MC = 64) a second worker's row block, whose packing reads
        // the transposed operand from a column offset.
        let mut rng = XorShiftRng::new(8);
        for m in (1..=17).chain([70]) {
            for &(k, n) in &[(3, 5), (40, 17), (300, 33)] {
                let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
                let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);
                let want = matmul(&a, &b);
                let at = transpose(&a);
                for (rhs, bop) in [(Rhs::Plain, b.clone()), (Rhs::Transposed, transpose(&b))] {
                    let mut c = vec![f32::NAN; m * n];
                    gemm_at(m, k, n, at.as_slice(), bop.as_slice(), rhs, &mut c);
                    for (x, y) in c.iter().zip(want.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{rhs:?} m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn zeroed_destination_keeps_the_sign_of_zero() {
        // (-1)·0 = -0 in every term: a sum started on +0.0 is +0.0, in both
        // kernels, whatever the destination held.
        for (m, k, n) in [(1, 2, 3), (8, 300, 20)] {
            let a = vec![-1.0f32; m * k];
            let b = vec![0.0f32; k * n];
            let mut c = vec![-0.0f32; m * n];
            gemm(m, k, n, &a, &b, Rhs::Transposed, &mut c);
            assert!(c.iter().all(|v| v.to_bits() == 0), "m={m} k={k} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "gemm output must hold")]
    fn gemm_rejects_a_short_destination() {
        gemm(2, 2, 2, &[0.0; 4], &[0.0; 4], Rhs::Plain, &mut [0.0; 3]);
    }

    #[test]
    fn reference_matches_blocked_within_tolerance() {
        let mut rng = XorShiftRng::new(99);
        let a = Tensor::from_fn(&[40, 120], |_| rng.next_f32() - 0.5);
        let b = Tensor::from_fn(&[120, 31], |_| rng.next_f32() - 0.5);
        assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-3);
    }
}
