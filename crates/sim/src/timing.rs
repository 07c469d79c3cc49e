//! The simulator's one cycle model: a fast analytic per-layer model.
//!
//! The exact PE-level simulator (the `drq_testkit::exact` test oracle)
//! shows that the variable-speed array's runtime reduces to a closed form:
//! pipeline fill plus the sum of per-step costs, where a step (one output
//! position) costs 4 cycles if any streamed value in it is sensitive and 1
//! cycle otherwise. This module applies that closed form per layer with
//! the weight-stationary tiling of the DRQ architecture (Section IV-A: 16
//! pages of 18×11 PEs, filters split across pages, kernel taps down the
//! rows).

use crate::SimError;
use drq_core::{MaskMap, RegionGrid};
use drq_models::ConvLayerSpec;

/// Cycle/MAC breakdown of one layer on the DRQ array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCycles {
    /// Steps (output positions × tiles) executed at 1 cycle (all-INT4).
    pub int4_steps: u64,
    /// Steps executed at 4 cycles (column in INT8 mode).
    pub int8_steps: u64,
    /// Cycles spent computing (Σ step costs over all serialized passes).
    pub compute_cycles: u64,
    /// Pipeline fill/drain cycles.
    pub fill_cycles: u64,
    /// Cycles loading weight tiles into the array (after double-buffering
    /// overlap; only the exposed residual).
    pub weight_load_cycles: u64,
    /// Weight-load cycles before overlap hiding (the paper's Fig. 16
    /// accounts loads unoverlapped; this field reports that view).
    pub weight_load_raw_cycles: u64,
    /// PE-cycles lost to stalls (INT4 PEs waiting out INT8 column steps).
    pub stall_pe_cycles: u64,
    /// MACs executed in INT4 mode.
    pub int4_macs: u64,
    /// MACs executed in INT8 mode.
    pub int8_macs: u64,
    /// PE rows × total cycles (for stall-ratio normalization).
    pub pe_cycles: u64,
}

impl LayerCycles {
    /// Total layer latency in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.fill_cycles + self.weight_load_cycles
    }

    /// Fraction of MACs executed at 4 bits.
    pub fn int4_fraction(&self) -> f64 {
        let t = self.int4_macs + self.int8_macs;
        if t == 0 {
            0.0
        } else {
            self.int4_macs as f64 / t as f64
        }
    }

    /// Fraction of PE-cycles lost to stalls (Fig. 14's stall ratio).
    pub fn stall_ratio(&self) -> f64 {
        if self.pe_cycles == 0 {
            0.0
        } else {
            self.stall_pe_cycles as f64 / self.pe_cycles as f64
        }
    }

    /// Accumulates another layer's counts (for network totals).
    pub fn merge(&mut self, o: &LayerCycles) {
        self.int4_steps += o.int4_steps;
        self.int8_steps += o.int8_steps;
        self.compute_cycles += o.compute_cycles;
        self.fill_cycles += o.fill_cycles;
        self.weight_load_cycles += o.weight_load_cycles;
        self.weight_load_raw_cycles += o.weight_load_raw_cycles;
        self.stall_pe_cycles += o.stall_pe_cycles;
        self.int4_macs += o.int4_macs;
        self.int8_macs += o.int8_macs;
        self.pe_cycles += o.pe_cycles;
    }
}

/// The fast per-layer model, parameterized by the array geometry.
///
/// # Examples
///
/// ```
/// use drq_sim::LayerCycleModel;
/// use drq_core::{MaskMap, RegionGrid, RegionSize};
/// use drq_models::ConvLayerSpec;
///
/// let model = LayerCycleModel::new(18, 11, 16);
/// let spec = ConvLayerSpec::conv("c", "B1", 4, 8, 8, 8, 3, 3, 1, 1);
/// let grid = RegionGrid::new(8, 8, RegionSize::new(4, 4));
/// let masks = vec![MaskMap::all_insensitive(grid); 4];
/// let cycles = model.simulate_layer(&spec, &masks);
/// assert_eq!(cycles.int8_macs, 0);
/// assert!(cycles.total_cycles() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCycleModel {
    rows: usize,
    cols: usize,
    pages: usize,
}

impl LayerCycleModel {
    /// Creates a model for a `rows × cols` array replicated over `pages`
    /// PE pages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(rows: usize, cols: usize, pages: usize) -> Self {
        Self::try_new(rows, cols, pages).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`LayerCycleModel::new`].
    pub fn try_new(rows: usize, cols: usize, pages: usize) -> Result<Self, SimError> {
        if rows == 0 || cols == 0 || pages == 0 {
            return Err(SimError::InvalidGeometry {
                context: "layer cycle model",
                detail: format!(
                    "array dimensions must be positive (got {pages} pages of {rows}x{cols})"
                ),
            });
        }
        Ok(Self { rows, cols, pages })
    }

    /// PE rows per page.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// PE columns per page.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PE pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Total PE (INT4 MAC) count.
    pub fn total_pes(&self) -> usize {
        self.rows * self.cols * self.pages
    }

    /// Fully connected layers use a weight-streaming mapping: with a single
    /// output position per "image", the weight-stationary schedule would
    /// reload the array per tile for one step of work. Real deployments
    /// stream the weight matrix through the array instead, so an FC layer
    /// is bounded by whichever is slower — the MAC work (at the layer's
    /// INT4/INT8 mix) or streaming its weights from the global buffer at
    /// the shared memory bandwidth (Table II gives every accelerator the
    /// same buffer and bandwidth; we use `rows × pages` bytes/cycle).
    fn simulate_fc(&self, spec: &ConvLayerSpec, masks: &[MaskMap]) -> LayerCycles {
        let macs = spec.macs();
        // Per-input sensitivity: 1x1 feature map per channel.
        let sensitive_inputs = masks.iter().filter(|m| m.pixel_sensitive(0, 0)).count() as u64;
        let int8_macs = sensitive_inputs * spec.out_c as u64;
        let int4_macs = macs - int8_macs.min(macs);
        let int4_equivalent = int4_macs + 4 * int8_macs;
        let compute = int4_equivalent.div_ceil(self.total_pes() as u64);
        let stream_bytes_per_cycle = (self.rows * self.pages) as u64;
        let weight_stream = spec.weight_count().div_ceil(stream_bytes_per_cycle);
        let compute_cycles = compute.max(weight_stream);
        let fill_cycles = (self.rows + self.cols - 1) as u64;
        let total = compute_cycles + fill_cycles;
        LayerCycles {
            int4_steps: int4_macs.div_ceil(self.total_pes() as u64),
            int8_steps: int8_macs.div_ceil(self.total_pes() as u64),
            compute_cycles,
            fill_cycles,
            weight_load_cycles: 0, // folded into the streaming bound
            weight_load_raw_cycles: weight_stream,
            stall_pe_cycles: 0,
            int4_macs,
            int8_macs,
            pe_cycles: total * (self.rows * self.cols) as u64,
        }
    }

    /// Simulates one layer given the per-input-channel sensitivity masks.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != spec.in_c` or a mask grid does not cover
    /// the layer's input extent.
    pub fn simulate_layer(&self, spec: &ConvLayerSpec, masks: &[MaskMap]) -> LayerCycles {
        assert_eq!(masks.len(), spec.in_c, "need one mask per input channel");
        for m in masks {
            assert_eq!(
                (m.grid().height(), m.grid().width()),
                (spec.in_h, spec.in_w),
                "mask grid does not cover the feature map"
            );
        }
        if spec.op == drq_models::LayerOp::Fc {
            return self.simulate_fc(spec, masks);
        }
        let (out_h, out_w) = (spec.out_h(), spec.out_w());
        let steps_per_pass = out_h * out_w;
        let cpg = spec.in_c / spec.groups;
        let filters_per_group = spec.out_c / spec.groups;
        let taps = cpg * spec.kh * spec.kw;

        // Tiling. The layer decomposes into page-sized jobs: a job pins one
        // `rows`-tap tile of one group's kernel and one `cols`-filter tile
        // into a page and streams every output position through it. Jobs
        // are independent (partial sums combine in the accumulation unit,
        // Section IV-D), so the 16 pages execute them in parallel —
        // Section IV-A's "split the filters into different pages"
        // generalizes to splitting (tap tile, filter tile, group) jobs.
        // Depthwise layers (groups ≫ pages, tiny taps) additionally stack
        // several groups inside one page with block-diagonal weights.
        let filter_tiles = filters_per_group.div_ceil(self.cols);
        let row_tiles = taps.div_ceil(self.rows);
        let stack = if spec.groups > self.pages {
            (self.rows / taps.max(1))
                .max(1)
                .min((self.cols / filters_per_group.max(1)).max(1))
        } else {
            1
        };
        let group_jobs = spec.groups.div_ceil(stack);
        let jobs = group_jobs * row_tiles * filter_tiles;
        let rounds = jobs.div_ceil(self.pages) as u64;

        // Region geometry of each distinct mask grid (all masks of a layer
        // normally share one): per-output-row and per-output-column region
        // spans, and per-region-row / per-region-column usage sums.
        let mut geometry: Vec<GridGeometry> = Vec::with_capacity(1);
        let geometry_of: Vec<usize> = masks
            .iter()
            .map(|m| match geometry.iter().position(|g| g.grid == m.grid()) {
                Some(at) => at,
                None => {
                    geometry.push(GridGeometry::new(spec, m.grid()));
                    geometry.len() - 1
                }
            })
            .collect();

        // Per-channel "window touches a sensitive region" bitsets (one bit
        // per output position) for the representative group (group
        // geometries are identical; statistics are shared).
        let words = steps_per_pass.div_ceil(64);
        let mut window_sensitive = vec![0u64; cpg * words];
        let mut row_any: Vec<bool> = Vec::new();
        for (c, bits) in window_sensitive.chunks_exact_mut(words.max(1)).enumerate() {
            let m = &masks[c];
            if m.sensitive_count() == 0 {
                continue;
            }
            let g = &geometry[geometry_of[c]];
            let region_cols = g.grid.cols();
            for (oy, span) in g.out_rows.iter().enumerate() {
                let Some((r0, r1)) = *span else { continue };
                // Which region columns hold a sensitive region within the
                // window's region rows.
                row_any.clear();
                row_any.extend(
                    (0..region_cols).map(|cc| (r0..=r1).any(|rr| m.is_sensitive(rr, cc))),
                );
                for (ox, span) in g.out_cols.iter().enumerate() {
                    let Some((c0, c1)) = *span else { continue };
                    if row_any[c0..=c1].iter().any(|&b| b) {
                        let step = oy * out_w + ox;
                        bits[step / 64] |= 1 << (step % 64);
                    }
                }
            }
        }

        // Sensitive taps per channel: Σ_{sensitive pixels} usage, where a
        // pixel's usage is how many (oy,ky)·(ox,kx) pairs read it. Usage
        // factors over rows and columns, so a region contributes the
        // product of its row and column usage sums.
        let sensitive_taps_per_channel: Vec<u64> = masks
            .iter()
            .zip(&geometry_of)
            .map(|(m, &at)| {
                let g = &geometry[at];
                let cols = g.grid.cols();
                m.bits()
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(r, _)| g.row_usage[r / cols] * g.col_usage[r % cols])
                    .sum()
            })
            .collect();

        // MAC totals: every sensitive tap is one INT8 MAC per filter of its
        // group; the remainder (padding included) runs INT4.
        let total_macs = spec.macs();
        let int8_macs: u64 = sensitive_taps_per_channel
            .iter()
            .map(|&t| t * filters_per_group as u64)
            .sum();
        let int4_macs = total_macs - int8_macs.min(total_macs);

        // Per row-tile step costs and stalls. A row tile covers a channel
        // range [c_lo, c_hi]; its step is INT8 if any covered channel's
        // window is sensitive at that output position.
        let kk = spec.kh * spec.kw;
        let mut int4_steps = 0u64;
        let mut int8_steps = 0u64;
        let mut compute_per_coltile = 0u64;
        let mut max_job_cycles = 0u64;
        let mut stall = 0u64;
        for rt in 0..row_tiles {
            let tap_lo = rt * self.rows;
            let tap_hi = (tap_lo + self.rows).min(taps);
            let rows_used = (tap_hi - tap_lo) as u64;
            let c_lo = tap_lo / kk;
            let c_hi = (tap_hi - 1) / kk;
            // A step is INT8 when any covered channel's window bit is set.
            let tile_int8_steps: u64 = (0..words)
                .map(|wi| {
                    (c_lo..=c_hi)
                        .fold(0u64, |acc, c| acc | window_sensitive[c * words + wi])
                        .count_ones() as u64
                })
                .sum();
            int8_steps += tile_int8_steps;
            int4_steps += steps_per_pass as u64 - tile_int8_steps;
            let tile_cycles =
                tile_int8_steps * 4 + (steps_per_pass as u64 - tile_int8_steps);
            compute_per_coltile += tile_cycles;
            max_job_cycles = max_job_cycles.max(tile_cycles);
            // Exact stall: 3 cycles for every INT4 row-slot during INT8
            // steps. Sensitive rows during those steps equal the tile's
            // sensitive-tap count (each sensitive tap appears in exactly one
            // step of its row).
            let tile_sensitive_taps: u64 = (c_lo..=c_hi)
                .map(|c| {
                    // Portion of channel c's taps inside this tile.
                    let ch_tap_lo = c * kk;
                    let ch_tap_hi = ch_tap_lo + kk;
                    let overlap =
                        tap_hi.min(ch_tap_hi).saturating_sub(tap_lo.max(ch_tap_lo));
                    sensitive_taps_per_channel[c] * overlap as u64 / kk as u64
                })
                .sum();
            stall += 3 * (rows_used * tile_int8_steps).saturating_sub(tile_sensitive_taps);
        }

        // `compute_per_coltile` holds Σ over row tiles of per-step costs for
        // one (group, filter tile); total job-cycles replicate it over the
        // group jobs and filter tiles, and the pages execute jobs in
        // parallel.
        let per_tile_scale = (group_jobs * filter_tiles) as u64;
        let total_job_cycles = compute_per_coltile * per_tile_scale;
        // Makespan of scheduling the jobs over the pages: bounded below by
        // both the work/pages ratio and the single longest job.
        let compute_cycles = total_job_cycles
            .div_ceil(self.pages as u64)
            .max(max_job_cycles);
        // Double buffering hides the next round's weight load and stream
        // fill behind the current round's compute: only the first round's
        // overhead plus any residual beyond compute is exposed.
        let raw_load = self.rows as u64;
        let raw_fill = (self.rows + self.cols - 1) as u64;
        let avg_compute = compute_cycles / rounds.max(1);
        let residual = |raw: u64| -> u64 {
            let hidden = avg_compute.min(raw);
            raw + (rounds.saturating_sub(1)) * (raw - hidden)
        };
        let fill_cycles = residual(raw_fill);
        let weight_load_cycles = residual(raw_load);
        let weight_load_raw_cycles = rounds * raw_load;
        // Step census, expressed in machine cycles (divided across pages)
        // so `int4_steps + 4*int8_steps ≈ compute_cycles`.
        let pages = self.pages as u64;
        let total = compute_cycles + fill_cycles + weight_load_cycles;
        LayerCycles {
            int4_steps: (int4_steps * per_tile_scale).div_ceil(pages),
            int8_steps: (int8_steps * per_tile_scale).div_ceil(pages),
            compute_cycles,
            fill_cycles,
            weight_load_cycles,
            weight_load_raw_cycles,
            stall_pe_cycles: (stall * per_tile_scale * self.cols as u64).div_ceil(pages),
            int4_macs,
            int8_macs,
            pe_cycles: total * (self.rows * self.cols) as u64,
        }
    }
}

/// What the cycle model needs of one region grid under one layer's
/// window geometry, computed once per layer and grid.
struct GridGeometry {
    grid: RegionGrid,
    /// Per output row: the region rows its window covers (`None` when the
    /// window lies past the bottom edge).
    out_rows: Vec<Option<(usize, usize)>>,
    /// Per output column: the region columns its window covers.
    out_cols: Vec<Option<(usize, usize)>>,
    /// Per region row: Σ over its pixel rows of the row usage count.
    row_usage: Vec<u64>,
    /// Per region column: Σ over its pixel columns of the column usage
    /// count.
    col_usage: Vec<u64>,
}

impl GridGeometry {
    fn new(spec: &ConvLayerSpec, grid: RegionGrid) -> Self {
        let region = grid.region();
        Self {
            grid,
            out_rows: window_spans(spec.out_h(), spec.kh, spec.pad_h, spec.stride, spec.in_h, region.x),
            out_cols: window_spans(spec.out_w(), spec.kw, spec.pad_w, spec.stride, spec.in_w, region.y),
            row_usage: region_usage(spec.in_h, spec.out_h(), spec.kh, spec.pad_h, spec.stride, region.x),
            col_usage: region_usage(spec.in_w, spec.out_w(), spec.kw, spec.pad_w, spec.stride, region.y),
        }
    }
}

/// Along one axis: for each output index, the first and last region
/// (of `extent` pixels) its `k`-wide window touches. A window entirely in
/// the leading padding is clamped onto pixel 0, and one past the trailing
/// edge touches nothing.
fn window_spans(
    out_len: usize,
    k: usize,
    pad: usize,
    stride: usize,
    len: usize,
    extent: usize,
) -> Vec<Option<(usize, usize)>> {
    (0..out_len)
        .map(|o| {
            let lo = (o * stride).saturating_sub(pad);
            let hi = (o * stride + k).saturating_sub(pad + 1).min(len - 1);
            (lo <= hi).then(|| (lo / extent, hi / extent))
        })
        .collect()
}

/// Along one axis: how many (output, kernel tap) pairs read each input
/// pixel, summed per region of `extent` pixels.
fn region_usage(
    len: usize,
    out_len: usize,
    k: usize,
    pad: usize,
    stride: usize,
    extent: usize,
) -> Vec<u64> {
    let mut usage = vec![0u64; len.div_ceil(extent)];
    for o in 0..out_len {
        for kk in 0..k {
            let i = o * stride + kk;
            if i >= pad && i - pad < len {
                usage[(i - pad) / extent] += 1;
            }
        }
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::{RegionGrid, RegionSize};

    fn uniform_masks(spec: &ConvLayerSpec, sensitive: bool) -> Vec<MaskMap> {
        let grid = RegionGrid::new(spec.in_h, spec.in_w, RegionSize::new(4, 4));
        let m = if sensitive {
            MaskMap::all_sensitive(grid)
        } else {
            MaskMap::all_insensitive(grid)
        };
        vec![m; spec.in_c]
    }

    #[test]
    fn all_int4_layer_is_4x_faster_than_all_int8() {
        let model = LayerCycleModel::new(18, 11, 16);
        let spec = ConvLayerSpec::conv("c", "B1", 16, 32, 32, 32, 3, 3, 1, 1);
        let fast = model.simulate_layer(&spec, &uniform_masks(&spec, false));
        let slow = model.simulate_layer(&spec, &uniform_masks(&spec, true));
        assert_eq!(fast.int8_macs, 0);
        let ratio = slow.compute_cycles as f64 / fast.compute_cycles as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn mac_totals_match_spec() {
        let model = LayerCycleModel::new(18, 11, 16);
        let spec = ConvLayerSpec::conv("c", "B1", 8, 16, 16, 24, 3, 3, 2, 1);
        for sens in [false, true] {
            let r = model.simulate_layer(&spec, &uniform_masks(&spec, sens));
            assert_eq!(r.int4_macs + r.int8_macs, spec.macs());
        }
    }

    #[test]
    fn grouped_depthwise_layer_simulates() {
        let model = LayerCycleModel::new(18, 11, 16);
        let spec = ConvLayerSpec::conv("dw", "IR1", 32, 16, 16, 32, 3, 3, 1, 1)
            .with_groups(32);
        let r = model.simulate_layer(&spec, &uniform_masks(&spec, false));
        assert_eq!(r.int4_macs + r.int8_macs, spec.macs());
        assert!(r.total_cycles() > 0);
    }

    #[test]
    fn fc_layers_are_supported() {
        let model = LayerCycleModel::new(18, 11, 16);
        let spec = ConvLayerSpec::fc("fc", "FC", 512, 1000);
        let grid = RegionGrid::new(1, 1, RegionSize::new(1, 1));
        let masks = vec![MaskMap::all_insensitive(grid); 512];
        let r = model.simulate_layer(&spec, &masks);
        assert_eq!(r.int4_macs, 512 * 1000);
        // FC layers are weight-streaming bound: 512k weights at 288 B/cycle
        // exceeds the MAC bound of 512k/3168 cycles.
        assert!(r.compute_cycles >= 512 * 1000 / 288);
        assert_eq!(r.weight_load_cycles, 0);
    }

    #[test]
    fn sensitive_fraction_slows_compute_monotonically() {
        let model = LayerCycleModel::new(18, 11, 16);
        let spec = ConvLayerSpec::conv("c", "B1", 8, 32, 32, 16, 3, 3, 1, 1);
        let grid = RegionGrid::new(32, 32, RegionSize::new(4, 4));
        let cycles_with_k_sensitive = |k: usize| {
            let mut masks = Vec::new();
            for c in 0..8 {
                let mut m = MaskMap::all_insensitive(grid);
                // Mark k regions sensitive in channel 0 only.
                if c == 0 {
                    for i in 0..k {
                        m.set(i / 8, i % 8, true);
                    }
                }
                masks.push(m);
            }
            model.simulate_layer(&spec, &masks).compute_cycles
        };
        let mut last = 0;
        for k in [0usize, 4, 16, 40, 64] {
            let c = cycles_with_k_sensitive(k);
            assert!(c >= last, "not monotone at {k}: {c} < {last}");
            last = c;
        }
    }

    #[test]
    #[should_panic(expected = "one mask per input channel")]
    fn rejects_wrong_mask_count() {
        let model = LayerCycleModel::new(4, 4, 1);
        let spec = ConvLayerSpec::conv("c", "B1", 3, 8, 8, 4, 3, 3, 1, 1);
        let _ = model.simulate_layer(&spec, &uniform_masks(&spec, false)[..2]);
    }
}
