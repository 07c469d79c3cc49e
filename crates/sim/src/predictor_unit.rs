//! The hardware sensitivity predictor fused with the pooling unit
//! (Section IV-E, Figs. 9 and 10).
//!
//! Because an x×y prediction window contains several n×n pooling windows,
//! the predictor reuses average-pooling outputs instead of re-summing
//! activations. Pooling scans the feature map pooling-window by
//! pooling-window while the prediction window spans several of them, so
//! pooling results must be staged in a temporal buffer:
//! `w/y` partial prediction results plus `(w/n) · (x/n − 1)` pooling
//! temporaries, where `w` is the feature-map width.

use drq_core::RegionSize;

/// Hardware model of the pooling-fused predictor.
///
/// # Examples
///
/// ```
/// use drq_sim::PredictorUnit;
/// use drq_core::RegionSize;
///
/// // The paper's example: 4x4 prediction window, 2x2 pooling.
/// let p = PredictorUnit::new(RegionSize::new(4, 4), 2);
/// assert_eq!(p.pool_windows_per_region(), 4);
/// // ResNet-18-style 4x16 region on a 56-wide map.
/// let p = PredictorUnit::new(RegionSize::new(4, 16), 2);
/// assert!(p.storage_bytes(56) > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorUnit {
    region: RegionSize,
    pool_n: usize,
    /// Bytes per staged partial result (INT8 activations accumulate into
    /// 16-bit partials).
    entry_bytes: usize,
}

impl PredictorUnit {
    /// Creates a predictor for a region size and pooling window `n`.
    ///
    /// # Panics
    ///
    /// Panics if `pool_n == 0`.
    pub fn new(region: RegionSize, pool_n: usize) -> Self {
        assert!(pool_n > 0, "pooling window must be positive");
        Self { region, pool_n, entry_bytes: 2 }
    }

    /// The prediction window (region) size.
    pub fn region(&self) -> RegionSize {
        self.region
    }

    /// The pooling window edge length.
    pub fn pool_n(&self) -> usize {
        self.pool_n
    }

    /// Pooling windows contained in one prediction window (when aligned).
    pub fn pool_windows_per_region(&self) -> usize {
        (self.region.x / self.pool_n).max(1) * (self.region.y / self.pool_n).max(1)
    }

    /// Number of staged partial-prediction entries for a feature map of
    /// width `w`: the paper's `w / y` term.
    pub fn partial_prediction_entries(&self, w: usize) -> usize {
        w.div_ceil(self.region.y).max(1)
    }

    /// Number of staged pooling temporaries: the paper's
    /// `(w/n) · (x/n − 1)` term.
    pub fn pooling_temp_entries(&self, w: usize) -> usize {
        let per_row = w.div_ceil(self.pool_n);
        let rows_to_hold = (self.region.x / self.pool_n).saturating_sub(1);
        per_row * rows_to_hold
    }

    /// Total staged entries.
    pub fn storage_entries(&self, w: usize) -> usize {
        self.partial_prediction_entries(w) + self.pooling_temp_entries(w)
    }

    /// Total staging storage in bytes.
    pub fn storage_bytes(&self, w: usize) -> usize {
        self.storage_entries(w) * self.entry_bytes
    }

    /// Adder operations the predictor adds per feature-map channel beyond
    /// pooling itself: one accumulate per pooling window plus one compare
    /// per region. With pooling reuse this is all that remains of the mean
    /// filter.
    pub fn extra_ops_per_channel(&self, h: usize, w: usize) -> u64 {
        let pools = (h.div_ceil(self.pool_n) * w.div_ceil(self.pool_n)) as u64;
        let regions = (h.div_ceil(self.region.x) * w.div_ceil(self.region.y)) as u64;
        pools + regions
    }

    /// Ops the mean filter would need *without* pooling reuse (one add per
    /// pixel plus one compare per region) — for quantifying the reuse win.
    pub fn naive_ops_per_channel(&self, h: usize, w: usize) -> u64 {
        (h * w) as u64 + (h.div_ceil(self.region.x) * w.div_ceil(self.region.y)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_counts() {
        // x = y = 4, n = 2 (Fig. 9a): 4 pooling windows per prediction
        // window.
        let p = PredictorUnit::new(RegionSize::new(4, 4), 2);
        assert_eq!(p.pool_windows_per_region(), 4);
    }

    #[test]
    fn storage_formula_matches_paper() {
        // w/y partials + (w/n)(x/n - 1) pooling temporaries.
        let p = PredictorUnit::new(RegionSize::new(4, 16), 2);
        let w = 64;
        assert_eq!(p.partial_prediction_entries(w), 4);
        assert_eq!(p.pooling_temp_entries(w), 32);
        assert_eq!(p.storage_entries(w), 36);
    }

    #[test]
    fn stripe_regions_minimize_storage() {
        // Section VI-B2: stripe-shaped regions (large y, small x) are the
        // storage-friendly choice.
        let w = 56;
        let stripe = PredictorUnit::new(RegionSize::stripe(4, w), 2);
        let square = PredictorUnit::new(RegionSize::new(16, 16), 2);
        let tall = PredictorUnit::new(RegionSize::new(32, 32), 2);
        assert!(stripe.storage_bytes(w) < square.storage_bytes(w));
        assert!(square.storage_bytes(w) < tall.storage_bytes(w));
    }

    #[test]
    fn resnet18_region_storage_is_small() {
        // The paper: "the storage overhead of 4x16 region size is only 2KB
        // in ResNet-18". Our per-feature-map staging (56-wide maps, 64
        // channels worst case) lands in the same low-KB range.
        let p = PredictorUnit::new(RegionSize::new(4, 16), 2);
        let per_channel = p.storage_bytes(56);
        let total = per_channel * 64;
        assert!(total < 8 * 1024, "storage {total} B not in the low-KB range");
        assert!(total > 256, "storage {total} B suspiciously small");
    }

    #[test]
    fn pooling_reuse_saves_most_ops() {
        let p = PredictorUnit::new(RegionSize::new(4, 16), 2);
        let reuse = p.extra_ops_per_channel(56, 56);
        let naive = p.naive_ops_per_channel(56, 56);
        assert!(reuse * 3 < naive, "reuse {reuse} vs naive {naive}");
    }

    #[test]
    fn region_smaller_than_pool_window_degrades_gracefully() {
        let p = PredictorUnit::new(RegionSize::new(1, 1), 2);
        assert_eq!(p.pool_windows_per_region(), 1);
        assert_eq!(p.pooling_temp_entries(32), 0);
    }
}
