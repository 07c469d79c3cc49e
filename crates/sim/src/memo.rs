//! The session-lifetime memo behind [`crate::SharedSession`] (see its docs
//! for what the memo keys on and why buffer size is not part of any key).
//!
//! Every entry sits in a [`OnceLock`] cell, so when several `par_map`
//! workers ask for the same key at once exactly one builds it and the rest
//! wait for that result. A mask entry keeps the layer's masks as packed
//! bits under one [`RegionGrid`] — no feature maps and no per-channel
//! [`MaskMap`]s — plus one [`LayerCycles`] per array geometry seen.

use crate::accelerator::layer_depth;
use crate::{DrqAccelerator, LayerCycles, LayerReport};
use drq_core::{LayerDrqConfig, MaskMap, RegionGrid, RegionSize};
use drq_models::{FeatureMapSynthesizer, NetworkTopology};
use drq_telemetry::counter_add;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Cells created on first request and filled at most once.
struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K: Eq + Hash, V> OnceMap<K, V> {
    fn new() -> Self {
        Self { cells: Mutex::new(HashMap::new()) }
    }

    /// The cell for `key`, created empty on first request. The map lock is
    /// held only for the lookup, never while a value is being built.
    fn cell(&self, key: K) -> Arc<OnceLock<V>> {
        let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cells.entry(key).or_default())
    }
}

/// Fills `cell` with `build` unless it is already set (waiting if another
/// thread is building it); returns the value and whether this call built it.
fn get_or_build<V>(cell: &OnceLock<V>, build: impl FnOnce() -> V) -> (&V, bool) {
    let mut built = false;
    let value = cell.get_or_init(|| {
        built = true;
        build()
    });
    (value, built)
}

/// Build and hit counts of the memo, summed per shard and recorded on the
/// merging thread. Over a whole session the build counts equal the number
/// of distinct keys, so the totals do not depend on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    mask_builds: u64,
    mask_hits: u64,
    cycle_builds: u64,
    cycle_hits: u64,
}

impl MemoCounts {
    fn mask_lookup(&mut self, built: bool) {
        *if built { &mut self.mask_builds } else { &mut self.mask_hits } += 1;
    }

    fn cycle_lookup(&mut self, built: bool) {
        *if built { &mut self.cycle_builds } else { &mut self.cycle_hits } += 1;
    }

    pub(crate) fn add(&mut self, o: &MemoCounts) {
        self.mask_builds += o.mask_builds;
        self.mask_hits += o.mask_hits;
        self.cycle_builds += o.cycle_builds;
        self.cycle_hits += o.cycle_hits;
    }

    /// Records the `sim/memo/*` counters (a no-op with telemetry off).
    pub(crate) fn record(&self) {
        counter_add!("sim/memo/mask_builds", self.mask_builds);
        counter_add!("sim/memo/mask_hits", self.mask_hits);
        counter_add!("sim/memo/cycle_builds", self.cycle_builds);
        counter_add!("sim/memo/cycle_hits", self.cycle_hits);
    }
}

/// What a layer's masks depend on besides the session seed: the layer, the
/// synthesizer's parameters and the effective layer configuration. Floats
/// are keyed by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskKey {
    layer: usize,
    synth: [u64; 5],
    region: RegionSize,
    threshold: u32,
}

impl MaskKey {
    fn new(layer: usize, synth: &FeatureMapSynthesizer, cfg: LayerDrqConfig) -> Self {
        // Destructured so that a new synthesizer field fails to compile
        // here instead of silently missing from the key.
        let FeatureMapSynthesizer {
            base_level,
            blob_amplitude,
            blobs_per_kilopixel,
            blob_radius_frac,
            channel_inclusion,
        } = *synth;
        Self {
            layer,
            synth: [
                u64::from(base_level.to_bits()),
                u64::from(blob_amplitude.to_bits()),
                blobs_per_kilopixel.to_bits(),
                blob_radius_frac.to_bits(),
                channel_inclusion.to_bits(),
            ],
            region: cfg.region,
            threshold: cfg.threshold.to_bits(),
        }
    }
}

/// Array geometry `(rows, cols, pages)`: all the cycle model reads of an
/// accelerator.
type GeometryKey = (usize, usize, usize);

/// One layer's masks, packed, with the cycle counts computed from them.
struct MaskEntry {
    grid: RegionGrid,
    channels: usize,
    /// Channel `c`'s region `r` is bit `c * grid.region_count() + r`.
    bits: Box<[u64]>,
    sensitive_fraction: f64,
    cycles: OnceMap<GeometryKey, LayerCycles>,
}

impl MaskEntry {
    fn pack(grid: RegionGrid, masks: &[MaskMap], sensitive_fraction: f64) -> Self {
        let regions = grid.region_count();
        let mut bits = vec![0u64; (masks.len() * regions).div_ceil(64)];
        for (c, mask) in masks.iter().enumerate() {
            debug_assert_eq!(mask.grid(), grid, "masks of one layer share a grid");
            for (r, _) in mask.bits().iter().enumerate().filter(|(_, &b)| b) {
                let at = c * regions + r;
                bits[at / 64] |= 1 << (at % 64);
            }
        }
        Self {
            grid,
            channels: masks.len(),
            bits: bits.into_boxed_slice(),
            sensitive_fraction,
            cycles: OnceMap::new(),
        }
    }

    /// The per-channel masks again, for one cycle-model run.
    fn unpack(&self) -> Vec<MaskMap> {
        let regions = self.grid.region_count();
        (0..self.channels)
            .map(|c| {
                let bits = (c * regions..(c + 1) * regions)
                    .map(|at| self.bits[at / 64] >> (at % 64) & 1 == 1)
                    .collect();
                MaskMap::from_bits(self.grid, bits)
            })
            .collect()
    }
}

/// The memo of one [`crate::SharedSession`]: mask entries by [`MaskKey`],
/// each carrying its cycle counts by geometry. Lives and dies with the
/// session, whose network and seed are fixed.
pub(crate) struct SessionMemo {
    masks: OnceMap<MaskKey, MaskEntry>,
}

impl SessionMemo {
    pub(crate) fn new() -> Self {
        Self { masks: OnceMap::new() }
    }

    /// Layer `i`'s report for `accel`, building its masks and cycle count
    /// only if no earlier candidate of the session already did.
    pub(crate) fn layer_report(
        &self,
        accel: &DrqAccelerator,
        net: &NetworkTopology,
        seed: u64,
        i: usize,
        counts: &mut MemoCounts,
    ) -> LayerReport {
        let spec = &net.layers[i];
        let config = accel.config();
        let cfg = config.drq.for_layer(spec.in_h, spec.in_w, layer_depth(net, i));
        let cell = self.masks.cell(MaskKey::new(i, accel.synthesizer(), cfg));
        let (entry, built) = get_or_build(&cell, || {
            let (masks, frac) = accel.layer_masks(net, seed, i);
            MaskEntry::pack(RegionGrid::new(spec.in_h, spec.in_w, cfg.region), &masks, frac)
        });
        counts.mask_lookup(built);
        let cell = entry.cycles.cell((config.rows, config.cols, config.pages));
        let (&cycles, built) =
            get_or_build(&cell, || accel.cycle_model().simulate_layer(spec, &entry.unpack()));
        counts.cycle_lookup(built);
        accel.layer_report(spec, cycles, entry.sensitive_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_odd_sized_masks() {
        // 3 channels x 9 regions = 27 bits: not a multiple of 64, and
        // channel boundaries fall mid-word.
        let grid = RegionGrid::new(5, 7, RegionSize::new(2, 3));
        assert_eq!(grid.region_count(), 9);
        let masks: Vec<MaskMap> = (0..3)
            .map(|c| {
                let bits = (0..grid.region_count()).map(|r| (r * 7 + c) % 3 == 0).collect();
                MaskMap::from_bits(grid, bits)
            })
            .collect();
        let entry = MaskEntry::pack(grid, &masks, 0.25);
        assert_eq!(entry.unpack(), masks);
    }

    #[test]
    fn each_cell_is_built_once_under_contention() {
        let map: OnceMap<u32, u64> = OnceMap::new();
        let builds = std::sync::atomic::AtomicU64::new(0);
        let built: Vec<bool> = drq_tensor::parallel::par_map(8, |i| {
            let cell = map.cell(i as u32 % 2);
            let (v, built) = get_or_build(&cell, || {
                builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                u64::from(i as u32 % 2) + 10
            });
            assert_eq!(*v, u64::from(i as u32 % 2) + 10);
            built
        });
        assert_eq!(builds.into_inner(), 2);
        assert_eq!(built.iter().filter(|&&b| b).count(), 2);
    }
}
