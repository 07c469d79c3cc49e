//! Output buffer and accumulation unit (Section IV-D).
//!
//! The output buffer sits between the convolution array and the predictor.
//! It (1) accumulates partial sums in place across tap tiles and sub-kernels,
//! (2) double-buffers so the "activation–pooling–prediction" pipeline runs
//! in parallel with the next tile's convolution, and (3) realizes large
//! kernels (5×5, 7×7) by splitting them into sub-kernels sized for the
//! array and accumulating their partial results — "a common practice widely
//! used in systolic array based NN accelerators".

/// How a `k×k` kernel splits into array-sized sub-kernels.
///
/// The DRQ array prioritizes 3×3 kernels; a larger kernel of extent `k`
/// splits into `ceil(k/3)²` sub-kernels of extent ≤ 3, each launched
/// separately and accumulated.
///
/// # Examples
///
/// ```
/// use drq_testkit::exact::SubKernelPlan;
///
/// let plan = SubKernelPlan::for_kernel(7, 7);
/// assert_eq!(plan.row_splits(), &[3, 3, 1]); // 3x3 grid of (3,3,1)-wide tiles
/// assert_eq!(plan.total_taps(), 49);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubKernelPlan {
    kh: usize,
    kw: usize,
    /// Extents of the row splits (e.g. 7 → [3, 3, 1]).
    row_splits: Vec<usize>,
    /// Extents of the column splits.
    col_splits: Vec<usize>,
}

fn split_extent(k: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut rest = k;
    while rest > 0 {
        let step = rest.min(max);
        out.push(step);
        rest -= step;
    }
    out
}

impl SubKernelPlan {
    /// The native sub-kernel extent the array prioritizes.
    pub const NATIVE_EXTENT: usize = 3;

    /// Plans the split of a `kh×kw` kernel.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn for_kernel(kh: usize, kw: usize) -> Self {
        assert!(
            kh > 0 && kw > 0,
            "sub-kernel plan: kernel extents must be positive (got {kh}x{kw})"
        );
        Self {
            kh,
            kw,
            row_splits: split_extent(kh, Self::NATIVE_EXTENT),
            col_splits: split_extent(kw, Self::NATIVE_EXTENT),
        }
    }

    /// Row-axis split extents (e.g. 7 → `[3, 3, 1]`).
    pub fn row_splits(&self) -> &[usize] {
        &self.row_splits
    }

    /// Column-axis split extents.
    pub fn col_splits(&self) -> &[usize] {
        &self.col_splits
    }

    /// Total taps across the split (must equal `kh*kw`).
    pub fn total_taps(&self) -> usize {
        self.row_splits.iter().sum::<usize>() * self.col_splits.iter().sum::<usize>()
    }
}

/// The dual-buffered output/accumulation unit.
///
/// One bank accumulates the tile currently being convolved while the other
/// drains through activation → pooling → prediction; [`OutputBuffer::swap`]
/// flips the roles at tile boundaries.
///
/// # Examples
///
/// ```
/// use drq_testkit::exact::OutputBuffer;
///
/// let mut ob = OutputBuffer::new(4);
/// ob.accumulate(&[1, 2, 3, 4]);
/// ob.accumulate(&[10, 20, 30, 40]);
/// ob.swap();
/// assert_eq!(ob.drain(), &[11, 22, 33, 44]);
/// // The fresh accumulation bank starts clean.
/// ob.accumulate(&[5, 5, 5, 5]);
/// ob.swap();
/// assert_eq!(ob.drain(), &[5, 5, 5, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBuffer {
    banks: [Vec<i64>; 2],
    active: usize,
    accumulate_ops: u64,
}

impl OutputBuffer {
    /// Creates a buffer with two banks of `size` partial sums each.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "output buffer must have capacity");
        Self { banks: [vec![0; size], vec![0; size]], active: 0, accumulate_ops: 0 }
    }

    /// Bank capacity in partial sums.
    pub fn size(&self) -> usize {
        self.banks[0].len()
    }

    /// In-place accumulation of one partial-sum vector into the active bank.
    ///
    /// # Panics
    ///
    /// Panics if `partial.len()` differs from the bank size.
    pub fn accumulate(&mut self, partial: &[i64]) {
        assert_eq!(partial.len(), self.size(), "output buffer partial-sum width mismatch");
        for (acc, &p) in self.banks[self.active].iter_mut().zip(partial) {
            *acc += p;
        }
        self.accumulate_ops += partial.len() as u64;
    }

    /// Swaps the accumulation and drain banks, clearing the new
    /// accumulation bank.
    pub fn swap(&mut self) {
        self.active ^= 1;
        for v in &mut self.banks[self.active] {
            *v = 0;
        }
    }

    /// The drain bank's contents (the tile finished before the last swap).
    pub fn drain(&self) -> &[i64] {
        &self.banks[self.active ^ 1]
    }

    /// Total accumulate operations performed (for energy accounting).
    pub fn accumulate_ops(&self) -> u64 {
        self.accumulate_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_splits_match_paper_sizes() {
        let launches = |p: &SubKernelPlan| p.row_splits().len() * p.col_splits().len();
        // 3x3 native: single launch.
        assert_eq!(launches(&SubKernelPlan::for_kernel(3, 3)), 1);
        // 5x5: (3+2)x(3+2) = 4 launches.
        let p5 = SubKernelPlan::for_kernel(5, 5);
        assert_eq!(launches(&p5), 4);
        assert_eq!(p5.total_taps(), 25);
        // 7x7: 9 launches.
        let p7 = SubKernelPlan::for_kernel(7, 7);
        assert_eq!(launches(&p7), 9);
        assert_eq!(p7.total_taps(), 49);
        // 11x11 (AlexNet conv1): 4x4 = 16 launches.
        assert_eq!(launches(&SubKernelPlan::for_kernel(11, 11)), 16);
    }

    #[test]
    fn rectangular_kernels_split_each_axis() {
        // Inception's 1x7: one row split, three column splits.
        let p = SubKernelPlan::for_kernel(1, 7);
        assert_eq!(p.row_splits(), &[1]);
        assert_eq!(p.col_splits(), &[3, 3, 1]);
        assert_eq!(p.total_taps(), 7);
    }

    #[test]
    fn split_preserves_taps_for_all_small_kernels() {
        for kh in 1..=11 {
            for kw in 1..=11 {
                let p = SubKernelPlan::for_kernel(kh, kw);
                assert_eq!(p.total_taps(), kh * kw, "{kh}x{kw}");
                assert!(p
                    .row_splits()
                    .iter()
                    .chain(p.col_splits())
                    .all(|&e| e <= 3 && e > 0));
            }
        }
    }

    #[test]
    fn dual_buffer_isolates_tiles() {
        let mut ob = OutputBuffer::new(2);
        ob.accumulate(&[1, 1]);
        ob.swap();
        // New accumulation must not touch the drained tile.
        ob.accumulate(&[7, 7]);
        assert_eq!(ob.drain(), &[1, 1]);
        ob.swap();
        assert_eq!(ob.drain(), &[7, 7]);
        assert_eq!(ob.accumulate_ops(), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_mismatched_partials() {
        let mut ob = OutputBuffer::new(2);
        ob.accumulate(&[1, 2, 3]);
    }

    #[test]
    fn split_accumulation_equals_direct_convolution_taps() {
        // Accumulating per-sub-kernel partials reproduces the full kernel's
        // dot product: simulate on a flat weight/input pair.
        let kh = 5;
        let kw = 5;
        let weights: Vec<i64> = (0..(kh * kw) as i64).collect();
        let inputs: Vec<i64> = (0..(kh * kw) as i64).map(|v| v * 3 + 1).collect();
        let direct: i64 = weights.iter().zip(&inputs).map(|(w, x)| w * x).sum();

        let plan = SubKernelPlan::for_kernel(kh, kw);
        let mut ob = OutputBuffer::new(1);
        // Walk the split rectangles over the kernel grid.
        let mut row0 = 0;
        for &rh in &plan.row_splits {
            let mut col0 = 0;
            for &cw in &plan.col_splits {
                let mut partial = 0i64;
                for r in row0..row0 + rh {
                    for c in col0..col0 + cw {
                        let idx = r * kw + c;
                        partial += weights[idx] * inputs[idx];
                    }
                }
                ob.accumulate(&[partial]);
                col0 += cw;
            }
            row0 += rh;
        }
        ob.swap();
        assert_eq!(ob.drain(), &[direct]);
    }
}
