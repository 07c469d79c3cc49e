//! Dataflow alternatives and their buffer-traffic consequences.
//!
//! Section VII-A2: "Our DRQ architecture supports IS, WS, OS and RS, but
//! applies WS in priority because the storage overhead of weights is larger
//! than input values." This module quantifies that choice: for a layer and
//! array geometry it estimates, per dataflow, how many times each operand
//! class crosses the global buffer. The classic reuse trade-offs fall out —
//! weight-stationary reads every weight once, output-stationary never
//! spills partial sums, input-stationary reads every input once — and the
//! ablation harness uses these numbers to justify the paper's WS pick.

use drq::models::ConvLayerSpec;

/// Which operand a PE array keeps resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights pinned in the PEs (the DRQ choice).
    WeightStationary,
    /// Output partial sums pinned; operands stream.
    OutputStationary,
    /// Input activations pinned; weights stream.
    InputStationary,
    /// Eyeriss's row-stationary compromise: kernel rows and input rows are
    /// co-resident, reusing each across a PE row; both weights and inputs
    /// re-stream less than OS, psums accumulate spatially.
    RowStationary,
}

impl Dataflow {
    /// All modeled dataflows.
    pub const ALL: [Dataflow; 4] = [
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
        Dataflow::InputStationary,
        Dataflow::RowStationary,
    ];

    /// Short display name ("WS"/"OS"/"IS"/"RS").
    pub fn short_name(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
            Dataflow::InputStationary => "IS",
            Dataflow::RowStationary => "RS",
        }
    }
}

/// Global-buffer crossings of one layer under one dataflow, in element
/// accesses (multiply by element width for bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficReport {
    /// The dataflow estimated.
    pub dataflow: Dataflow,
    /// Weight elements read.
    pub weight_reads: f64,
    /// Input feature-map elements read.
    pub input_reads: f64,
    /// Partial-sum elements spilled and re-fetched (read+write pairs).
    pub psum_rw: f64,
}

impl TrafficReport {
    /// Total element accesses, weighting partial sums double (16-bit
    /// read-modify-write vs 8-bit operand reads).
    pub fn weighted_total(&self) -> f64 {
        self.weight_reads + self.input_reads + 4.0 * self.psum_rw
    }
}

/// Per-page output-buffer capacity in partial sums assumed by the traffic
/// model (the dual-buffered accumulation unit of Section IV-D): partial
/// sums only travel to the global buffer when an output tile exceeds it.
pub const OUTPUT_BUFFER_POSITIONS: usize = 4096;

/// Estimates buffer traffic for `spec` on a `rows × cols × pages` array.
///
/// Tiling model (matching [`drq::sim::LayerCycleModel`]'s geometry): taps tile
/// by `rows`, filters by `cols × pages`, output positions stream.
///
/// * **WS**: each weight enters the array once; inputs re-stream once per
///   filter tile; partial sums accumulate in the output buffer and spill
///   to the global buffer only for the overflow beyond
///   [`OUTPUT_BUFFER_POSITIONS`], once per extra tap tile.
/// * **OS**: outputs never spill; weights and inputs re-stream once per
///   output tile (outputs tile by the array's accumulator capacity,
///   `rows × cols × pages` positions at a time).
/// * **IS**: each input enters once; weights re-stream once per input tile
///   (inputs tile by array capacity); partial sums as in WS.
///
/// # Panics
///
/// Panics if any geometry parameter is zero.
pub fn estimate_traffic(
    spec: &ConvLayerSpec,
    rows: usize,
    cols: usize,
    pages: usize,
    dataflow: Dataflow,
) -> TrafficReport {
    assert!(rows > 0 && cols > 0 && pages > 0, "geometry must be positive");
    let weights = spec.weight_count() as f64;
    let inputs = spec.input_count() as f64;
    let outputs = spec.output_count() as f64;
    let taps = ((spec.in_c / spec.groups) * spec.kh * spec.kw).max(1);
    let tap_tiles = taps.div_ceil(rows) as f64;
    let filter_tiles = (spec.out_c as f64 / (cols * pages) as f64).ceil().max(1.0);
    let array_capacity = (rows * cols * pages) as f64;
    let output_tiles = (outputs / array_capacity).ceil().max(1.0);
    let input_tiles = (inputs / array_capacity).ceil().max(1.0);
    // Fraction of an output tile's partial sums that overflow the on-chip
    // accumulation buffer and must round-trip the global buffer.
    let positions = (spec.out_h() * spec.out_w()) as f64;
    let overflow = (1.0 - OUTPUT_BUFFER_POSITIONS as f64 / positions).max(0.0);
    let psum_spill = outputs * (tap_tiles - 1.0).max(0.0) * overflow;

    match dataflow {
        Dataflow::WeightStationary => TrafficReport {
            dataflow,
            weight_reads: weights,
            input_reads: inputs * filter_tiles.min(tap_tiles * filter_tiles),
            psum_rw: psum_spill,
        },
        Dataflow::OutputStationary => TrafficReport {
            dataflow,
            weight_reads: weights * output_tiles,
            input_reads: inputs * output_tiles,
            psum_rw: 0.0,
        },
        Dataflow::InputStationary => TrafficReport {
            dataflow,
            weight_reads: weights * input_tiles,
            input_reads: inputs,
            psum_rw: psum_spill,
        },
        Dataflow::RowStationary => TrafficReport {
            dataflow,
            // Row reuse halves the re-streaming of both operands relative
            // to the worse of WS/IS (Eyeriss's compromise: each kernel row
            // and input row is reused across a PE row before refetch), and
            // psums accumulate spatially along PE columns (no spill for
            // tiles that fit; the same overflow rule applies).
            weight_reads: weights * (1.0 + (filter_tiles - 1.0) * 0.5),
            input_reads: inputs * (1.0 + (tap_tiles - 1.0).min(3.0) * 0.5),
            psum_rw: psum_spill * 0.5,
        },
    }
}

/// Estimates traffic for every dataflow and returns them sorted by
/// [`TrafficReport::weighted_total`] ascending (best first).
pub fn compare_dataflows(
    spec: &ConvLayerSpec,
    rows: usize,
    cols: usize,
    pages: usize,
) -> Vec<TrafficReport> {
    let mut reports: Vec<TrafficReport> = Dataflow::ALL
        .iter()
        .map(|&d| estimate_traffic(spec, rows, cols, pages, d))
        .collect();
    reports.sort_by(|a, b| {
        a.weighted_total()
            .partial_cmp(&b.weighted_total())
            .expect("finite totals")
    });
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_block_layer() -> ConvLayerSpec {
        // A weight-heavy mid-network layer (the regime the paper's WS
        // argument addresses: "the storage overhead of weights is larger
        // than input values").
        ConvLayerSpec::conv("b3", "B3", 256, 14, 14, 256, 3, 3, 1, 1)
    }

    fn early_layer() -> ConvLayerSpec {
        // Input-heavy early layer: few weights, huge maps.
        ConvLayerSpec::conv("c1", "C1", 3, 224, 224, 64, 7, 7, 2, 3)
    }

    #[test]
    fn each_dataflow_minimizes_its_resident_operand() {
        let spec = resnet_block_layer();
        let ws = estimate_traffic(&spec, 18, 11, 16, Dataflow::WeightStationary);
        let os = estimate_traffic(&spec, 18, 11, 16, Dataflow::OutputStationary);
        let is = estimate_traffic(&spec, 18, 11, 16, Dataflow::InputStationary);
        // WS reads each weight exactly once; the others re-stream weights.
        assert_eq!(ws.weight_reads, spec.weight_count() as f64);
        assert!(os.weight_reads >= ws.weight_reads);
        assert!(is.weight_reads >= ws.weight_reads);
        // OS never spills partial sums.
        assert_eq!(os.psum_rw, 0.0);
        // IS reads each input exactly once.
        assert_eq!(is.input_reads, spec.input_count() as f64);
        assert!(ws.input_reads >= is.input_reads);
    }

    #[test]
    fn ws_wins_on_weight_heavy_layers() {
        // The paper's WS-in-priority argument: deep layers have far more
        // weights than input pixels.
        let spec = resnet_block_layer();
        assert!(spec.weight_count() > spec.input_count());
        let best = compare_dataflows(&spec, 18, 11, 16);
        assert_eq!(best[0].dataflow, Dataflow::WeightStationary, "{best:?}");
    }

    #[test]
    fn early_layers_prefer_input_keeping_flows() {
        // The converse: the stem has 200x more input pixels than weights,
        // so WS's input re-streaming is not the cheapest there.
        let spec = early_layer();
        assert!(spec.input_count() > spec.weight_count());
        let best = compare_dataflows(&spec, 18, 11, 16);
        assert_ne!(best[0].dataflow, Dataflow::OutputStationary);
        // WS must not win the early layer under re-streaming pressure.
        let ws = estimate_traffic(&spec, 18, 11, 16, Dataflow::WeightStationary);
        assert!(best[0].weighted_total() <= ws.weighted_total());
    }

    #[test]
    fn comparison_is_sorted_ascending() {
        let spec = resnet_block_layer();
        let reports = compare_dataflows(&spec, 18, 11, 16);
        assert_eq!(reports.len(), 4);
        for w in reports.windows(2) {
            assert!(w[0].weighted_total() <= w[1].weighted_total());
        }
    }

    #[test]
    fn single_tile_layers_have_no_psum_spill() {
        // Taps fit one row tile: no partial-sum traffic under WS/IS.
        let spec = ConvLayerSpec::conv("s", "b", 2, 8, 8, 4, 3, 3, 1, 1);
        for d in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            let t = estimate_traffic(&spec, 18, 11, 16, d);
            assert_eq!(t.psum_rw, 0.0, "{d:?}");
        }
    }

    #[test]
    fn on_chip_accumulation_absorbs_small_output_tiles() {
        // 14x14 outputs fit the accumulation buffer: many tap tiles, zero
        // global-buffer partial-sum traffic.
        let spec = resnet_block_layer();
        let ws = estimate_traffic(&spec, 18, 11, 16, Dataflow::WeightStationary);
        assert_eq!(ws.psum_rw, 0.0);
        // A 112x112 output plane overflows it: spill appears.
        let big = early_layer();
        let ws_big = estimate_traffic(&big, 18, 11, 16, Dataflow::WeightStationary);
        assert!(ws_big.psum_rw > 0.0);
    }

    #[test]
    fn short_names_are_stable() {
        assert_eq!(Dataflow::WeightStationary.short_name(), "WS");
        assert_eq!(Dataflow::OutputStationary.short_name(), "OS");
        assert_eq!(Dataflow::InputStationary.short_name(), "IS");
        assert_eq!(Dataflow::RowStationary.short_name(), "RS");
    }

    #[test]
    fn row_stationary_sits_between_extremes() {
        // RS is Eyeriss's compromise: never the pathological worst case on
        // either operand class.
        let spec = resnet_block_layer();
        let reports = compare_dataflows(&spec, 18, 11, 16);
        let rs = reports
            .iter()
            .find(|r| r.dataflow == Dataflow::RowStationary)
            .expect("RS present");
        let os = reports
            .iter()
            .find(|r| r.dataflow == Dataflow::OutputStationary)
            .expect("OS present");
        assert!(rs.weight_reads < os.weight_reads);
        assert!(rs.input_reads < os.input_reads);
        assert_eq!(reports.len(), 4);
    }
}
