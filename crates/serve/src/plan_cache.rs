//! Per-model execution-plan cache shared by all worker engines.
//!
//! Serving traffic is repetitive: the same stand-in models arrive over and
//! over. This module caches the expensive, *input-independent* preparation
//! product so repeat traffic skips it: a **plan bundle**, a pristine built
//! [`Network`] plus one prepared [`ConvPlan`] per convolution (INT8 weight
//! calibration, packed i8 panels, nibble-packed INT4 planes,
//! accumulator-width proofs), keyed by `(dataset, model_seed)` and
//! fingerprinted by a digest over the built weights. Workers clone the
//! pristine network for their local mutable copy; a panicking worker just
//! drops its clone and re-clones — the bundle itself is immutable and
//! cannot be poisoned.
//!
//! Input-dependent work is not cached: each conv input is quantized once
//! and its masks are summed from those codes
//! ([`drq_core::DrqExecutor`]), which costs less than a keyed lookup.
//!
//! Everything in the cache is deterministic given its key, so cache hits
//! can never change response bytes — the scale-out differential tests
//! exercise exactly that.

use drq_core::{prepare_plans, ConvPlan};
use drq_models::{default_standin, DatasetKind};
use drq_nn::Network;
use drq_telemetry::counter_add;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a over bytes — stable, dependency-free digesting (also the
/// router's rendezvous-hash primitive).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An immutable, shareable execution plan for one model: the pristine
/// network, its prepared per-conv integer plans (from
/// [`drq_core::prepare_plans`], in the order the walk runs the convs),
/// and a digest over the built weights.
pub struct PlanBundle {
    /// FNV digest over the dataset, seed and every built weight bit.
    pub digest: u64,
    /// Pristine built network — clone per worker, never mutate in place.
    pub network: Network,
    /// One prepared plan per convolution, in walk order.
    pub plans: Vec<ConvPlan>,
}

impl PlanBundle {
    fn build(dataset: DatasetKind, model_seed: u64) -> Self {
        let mut network = default_standin(dataset, model_seed);
        let plans = prepare_plans(&network);
        // Digest the actually-built weights, not just the recipe: a
        // model-construction change shows up as a digest change.
        let mut bits: Vec<u8> = Vec::new();
        network.visit_params(&mut |p, _| {
            for v in p.as_slice() {
                bits.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        });
        let digest = fnv1a(
            bits.into_iter().chain(format!("{dataset:?}").into_bytes()),
            model_seed,
        );
        Self { digest, network, plans }
    }

    /// Total bytes held by the packed weight panels of all plans.
    pub fn packed_bytes(&self) -> usize {
        self.plans.iter().map(ConvPlan::packed_bytes).sum()
    }
}

/// Counter snapshot of cache effectiveness (`serve/plan/*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Model-bundle lookups that found a prepared bundle.
    pub model_hits: u64,
    /// Model-bundle lookups that had to build one.
    pub model_misses: u64,
    /// Always 0: the cache holds no input masks. The field stays while
    /// the benchmark's serve workload reads it.
    pub mask_hits: u64,
    /// Always 0, like `mask_hits`.
    pub mask_misses: u64,
    /// Distinct model bundles resident.
    pub models: u64,
}

impl PlanCacheStats {
    /// Hit fraction over model lookups; 0 when none ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.model_hits + self.model_misses;
        if total == 0 {
            0.0
        } else {
            self.model_hits as f64 / total as f64
        }
    }
}

/// The process-wide plan cache. One instance is shared by every worker
/// engine behind a router, so a model prepared by any worker is a hit for
/// all of them (and survives worker deaths — the cache is not worker
/// state).
pub struct PlanCache {
    models: Mutex<HashMap<(DatasetKind, u64), Arc<PlanBundle>>>,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            models: Mutex::new(HashMap::new()),
            model_hits: AtomicU64::new(0),
            model_misses: AtomicU64::new(0),
        }
    }

    /// The prepared bundle for `(dataset, model_seed)`, building it on
    /// first use. The build runs under the map lock: concurrent workers
    /// asking for the same cold model wait for one build instead of
    /// racing N redundant ones.
    pub fn model(&self, dataset: DatasetKind, model_seed: u64) -> Arc<PlanBundle> {
        let mut models = self.models.lock().unwrap();
        if let Some(bundle) = models.get(&(dataset, model_seed)) {
            self.model_hits.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/plan/model_hits", 1);
            return Arc::clone(bundle);
        }
        self.model_misses.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/plan/model_misses", 1);
        let bundle = Arc::new(PlanBundle::build(dataset, model_seed));
        models.insert((dataset, model_seed), Arc::clone(&bundle));
        bundle
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            model_hits: self.model_hits.load(Ordering::SeqCst),
            model_misses: self.model_misses.load(Ordering::SeqCst),
            mask_hits: 0,
            mask_misses: 0,
            models: self.models.lock().unwrap().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bundle_is_built_once_and_shared() {
        let cache = PlanCache::new();
        let a = cache.model(DatasetKind::Digits, 42);
        let b = cache.model(DatasetKind::Digits, 42);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.plans.len(), a.network.conv_count());
        assert!(a.packed_bytes() > 0);
        let s = cache.stats();
        assert_eq!((s.model_hits, s.model_misses, s.models), (1, 1, 1));
    }

    #[test]
    fn different_seeds_get_different_digests() {
        let cache = PlanCache::new();
        let a = cache.model(DatasetKind::Digits, 1);
        let b = cache.model(DatasetKind::Digits, 2);
        assert_ne!(a.digest, b.digest);
        assert_eq!(cache.stats().models, 2);
    }
}
