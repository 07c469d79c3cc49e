//! `dse-resnet18`: converged Pareto searches over the paper grid on
//! ResNet-18 (CIFAR), evaluated on the simulator.
//!
//! One operation is one search from scratch at a seed no other operation
//! uses: half the space, a checkpoint through the artifact store and a
//! resume from it, the rest of the space, and a final checkpoint and
//! resume. It exercises the `sim` layer differently from `sim-resnet50`:
//! 189 candidates share 21 distinct (region, threshold) mask sets, so a
//! mask-reuse or pruning change shows here and must not move
//! `sim-resnet50`. It is also the benchmark's only `store` traffic.

use crate::spans::{timed, SpanId, Spans};
use crate::stats::{fnv1a, median, ratio, FNV_OFFSET};
use crate::workload::{repeated_setup, scratch_dir, timed_loop, Ctx, Outcome, Scale};
use drq::dse::{
    Candidate, CandidateBox, CandidateEval, CandidateSpace, Objectives, ParetoSearch, SimSpaceEval,
};
use drq::models::zoo::{self, InputRes};
use drq::models::NetworkTopology;
use drq::sim::Partitions;
use drq::store::ArtifactStore;
use std::sync::Mutex;

/// Percentile reported as the tail latency: a run converges only a handful
/// of searches, so the median is the highest supported percentile.
pub const TAIL_PCT: f64 = 50.0;

/// Largest box evaluated as one parallel leaf.
const BATCH: usize = 16;

const WARMUP_SEED_BIT: u64 = 1 << 63;

fn network(scale: Scale) -> NetworkTopology {
    match scale {
        Scale::Full => zoo::resnet18(InputRes::Cifar),
        Scale::Smoke => zoo::lenet5(),
    }
}

/// Times every `SimSpaceEval::evaluate` call in a span and delegates the
/// optimistic bound unchanged, so the search prunes exactly as it would
/// without the wrapper.
struct TimedEval<'a, 'n> {
    inner: &'a SimSpaceEval<'n>,
    spans: &'a Spans,
    parent: SpanId,
    rid: u64,
    eval_ms: &'a Mutex<Vec<f64>>,
}

impl CandidateEval for TimedEval<'_, '_> {
    fn evaluate(&self, candidate: &Candidate) -> Result<Objectives, String> {
        let (result, ms) = self
            .spans
            .scope("dse.evaluate", Some(self.parent), self.rid, |_| {
                self.inner.evaluate(candidate)
            });
        self.eval_ms.lock().expect("timing lock poisoned").push(ms);
        result
    }

    fn optimistic_bound(&self, space: &CandidateSpace, bx: &CandidateBox) -> Option<Objectives> {
        self.inner.optimistic_bound(space, bx)
    }
}

/// Runs searches against one network, space and checkpoint path, recording
/// per-call timings when traced.
struct Searcher<'a> {
    net: &'a NetworkTopology,
    space: &'a CandidateSpace,
    store: ArtifactStore,
    path: String,
    spans: Option<&'a Spans>,
    eval_ms: Mutex<Vec<f64>>,
    run_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    resume_ms: Vec<f64>,
}

impl Searcher<'_> {
    /// One converged search at `seed`, checkpointed and resumed half way
    /// and at the end. Errors name the failed check.
    fn converge(&mut self, seed: u64, parent: Option<SpanId>) -> Result<ParetoSearch, String> {
        let eval = SimSpaceEval::new(self.net, Partitions::Auto, seed);
        let mut search = ParetoSearch::new(self.space.clone(), seed, BATCH);
        self.run_part(
            &mut search,
            &eval,
            Some(self.space.len() as u64 / 2),
            parent,
            seed,
        )?;
        let mut search = self.round_trip(&search, parent, seed)?;
        self.run_part(&mut search, &eval, None, parent, seed)?;
        if !search.is_complete() {
            return Err(format!("seed {seed}: search did not converge"));
        }
        self.round_trip(&search, parent, seed)
    }

    fn run_part(
        &mut self,
        search: &mut ParetoSearch,
        eval: &SimSpaceEval<'_>,
        budget: Option<u64>,
        parent: Option<SpanId>,
        seed: u64,
    ) -> Result<(), String> {
        let (spans, eval_ms) = (self.spans, &self.eval_ms);
        let (result, ms) = timed(spans, "dse.search_run", parent, seed, |id| {
            match (spans, id) {
                (Some(spans), Some(parent)) => search.run(
                    &TimedEval {
                        inner: eval,
                        spans,
                        parent,
                        rid: seed,
                        eval_ms,
                    },
                    budget,
                ),
                _ => search.run(eval, budget),
            }
        });
        self.run_ms.push(ms);
        result
            .map(drop)
            .map_err(|e| format!("seed {seed}: search failed: {e}"))
    }

    /// Checkpoints `search` and resumes it; the resumed state must
    /// re-serialize to the same bytes.
    fn round_trip(
        &mut self,
        search: &ParetoSearch,
        parent: Option<SpanId>,
        seed: u64,
    ) -> Result<ParetoSearch, String> {
        let (committed, ms) = timed(self.spans, "store.checkpoint_to", parent, seed, |_| {
            search.checkpoint_to(&self.store, &self.path)
        });
        self.checkpoint_ms.push(ms);
        committed.map_err(|e| format!("seed {seed}: checkpoint failed: {e}"))?;
        let (resumed, ms) = timed(self.spans, "store.resume_from", parent, seed, |_| {
            ParetoSearch::resume_from(&self.store, &self.path)
        });
        self.resume_ms.push(ms);
        let resumed = resumed
            .map_err(|e| format!("seed {seed}: resume failed: {e}"))?
            .search;
        if resumed.to_report().to_json_string() != search.to_report().to_json_string() {
            return Err(format!(
                "seed {seed}: resumed search re-serializes differently"
            ));
        }
        Ok(resumed)
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((net, space), setup_s) = repeated_setup(
        ctx,
        |seed| {
            let net = network(ctx.scale);
            let space = CandidateSpace::paper_grid();
            let warm = SimSpaceEval::new(&net, Partitions::Auto, seed | WARMUP_SEED_BIT);
            let _ = warm.evaluate(&space.candidate(0));
            (net, space)
        },
        drop,
    );
    out.setup_s = setup_s;

    let dir = scratch_dir("dse");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.check(false, || format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    let path = dir.join("pareto.json").to_string_lossy().into_owned();
    let mut searcher = Searcher {
        net: &net,
        space: &space,
        store: ArtifactStore::fs(),
        path,
        spans: None,
        eval_ms: Mutex::new(Vec::new()),
        run_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
        resume_ms: Vec::new(),
    };

    let mut first: Option<ParetoSearch> = None;
    let (latencies, measured_s) = timed_loop(ctx.untraced_seconds(), |i| {
        let seed = ctx.seed + i as u64;
        match searcher.converge(seed, None) {
            Ok(search) => {
                out.check(search.front().len() > 1, || {
                    format!("seed {seed}: front has one point")
                });
                if i == 0 {
                    first = Some(search);
                }
            }
            Err(e) => out.check(false, || e),
        }
    });
    out.latencies_ms = latencies;
    out.measured_s = measured_s;

    // Gate: an uninterrupted search at the same seed reaches the same bytes.
    if let Some(first) = &first {
        let bytes = first.to_report().to_json_string();
        let mut reference = ParetoSearch::new(space.clone(), ctx.seed, BATCH);
        let agreed = reference
            .run(&SimSpaceEval::new(&net, Partitions::Auto, ctx.seed), None)
            .is_ok_and(|_| reference.to_report().to_json_string() == bytes);
        out.check(agreed, || {
            format!(
                "seed {}: checkpointed and uninterrupted searches differ",
                ctx.seed
            )
        });
        out.digest = fnv1a(FNV_OFFSET, bytes.as_bytes());
        let evaluated = first.evaluated() as f64;
        out.layer("dse.evaluated", evaluated);
        out.layer("dse.dominated_pruned", first.dominated_pruned() as f64);
        out.layer("dse.region_pruned", first.region_pruned() as f64);
        out.layer("dse.front_size", first.front().len() as f64);
        out.layer(
            "dse.useful_frac",
            ratio(first.front().len() as f64, evaluated),
        );
    }

    if let Some(spans) = &ctx.spans {
        let first_seed = ctx.seed + out.latencies_ms.len() as u64;
        searcher.spans = Some(spans);
        searcher.run_ms.clear();
        searcher.checkpoint_ms.clear();
        searcher.resume_ms.clear();
        let (traced, _) = timed_loop(ctx.traced_seconds(), |i| {
            let seed = first_seed + i as u64;
            let (result, _) = spans.scope("bench.op", None, seed, |op| {
                searcher.converge(seed, Some(op))
            });
            if let Err(e) = result {
                out.check(false, || e);
            }
        });
        let eval_ms = searcher
            .eval_ms
            .lock()
            .expect("timing lock poisoned")
            .clone();
        let threads = drq::tensor::parallel::max_threads() as f64;
        out.layer("dse.eval_ms_p50", median(&eval_ms));
        out.layer(
            "dse.eval_busy_frac",
            ratio(
                eval_ms.iter().sum(),
                searcher.run_ms.iter().sum::<f64>() * threads,
            ),
        );
        out.layer("store.checkpoint_ms", median(&searcher.checkpoint_ms));
        out.layer("store.resume_ms", median(&searcher.resume_ms));
        out.traced_latencies_ms = traced;
    }
    out.attempted += (out.latencies_ms.len() + out.traced_latencies_ms.len()) as u64;
    let _ = std::fs::remove_dir_all(&dir);
    out
}
