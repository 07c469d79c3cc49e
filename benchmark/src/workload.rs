//! What every workload receives and returns, plus the shared timing loops.

use crate::spans::Spans;
use drq::telemetry::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How much work each operation does. The command line always runs `Full`;
/// `Smoke` is the self-test size (about a twentieth of the work, small
/// enough for `cargo test`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_S`] have been spent on it, and its median reported. Cheap
/// set-ups (a few ms) get more repetitions: their first ones run cold and
/// slow, and five left the median of a 35 ms set-up spreading 34% over ten
/// seeds.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;
pub const SETUP_MAX_REPS: usize = 50;

/// Share of a traced run spent on the untraced reference phase; the rest
/// runs the same operations with spans (and the layer replays).
pub const UNTRACED_SHARE: f64 = 0.4;

/// The inputs of one workload run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Present in a traced run.
    pub spans: Option<Spans>,
}

impl Ctx {
    /// Wall budget of the untraced measurement: the whole run, or its
    /// untraced share when traced.
    pub fn untraced_seconds(&self) -> f64 {
        if self.spans.is_some() {
            self.seconds * UNTRACED_SHARE
        } else {
            self.seconds
        }
    }

    /// Wall budget of the traced phase (zero when untraced).
    pub fn traced_seconds(&self) -> f64 {
        if self.spans.is_some() {
            self.seconds * (1.0 - UNTRACED_SHARE)
        } else {
            0.0
        }
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-operation latency (ms) of the untraced measurement.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of the untraced measurement loop.
    pub measured_s: f64,
    /// Throughput of the untraced measurement, when the workload computes
    /// it itself; otherwise operations completed per `measured_s`.
    pub throughput_ops_s: Option<f64>,
    /// Per-operation latency (ms) of the same operation in the traced
    /// phase; compared with `latencies_ms` for the tracing overhead.
    pub traced_latencies_ms: Vec<f64>,
    /// Operations attempted and failed, checks included.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// FNV digest over the run's deterministic result bytes.
    pub digest: u64,
    /// Per-layer metrics (traced runs): name, value.
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer table artifact (traced runs).
    pub table: Vec<Json>,
}

impl Outcome {
    /// Records a correctness check; a failing one is counted and explained.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Runs `op` back to back until `seconds` have passed (at least once).
/// Returns each operation's latency in ms and the loop's wall seconds.
pub fn timed_loop(seconds: f64, mut op: impl FnMut(usize)) -> (Vec<f64>, f64) {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let started = Instant::now();
    let mut latencies = Vec::new();
    while latencies.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        op(latencies.len());
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (latencies, started.elapsed().as_secs_f64())
}

/// The directory of the benchmark executable: inside the build directory,
/// so files written there stay inside the checkout and out of version
/// control.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A per-process scratch directory under [`exe_dir`]; the caller removes it.
pub fn scratch_dir(tag: &str) -> PathBuf {
    exe_dir().join(format!("drq_benchmark-{tag}-{}", std::process::id()))
}

/// Times set-up repetitions (see [`SETUP_REPS`]) and returns the last
/// repetition's state (the run continues with it) and every repetition's
/// wall seconds. The last repetition uses the run seed; earlier ones use
/// other inputs, so no repetition is served from a cache an earlier one
/// filled. Each earlier state goes to `teardown`, untimed, before the next
/// set-up starts, so at most one is alive and `peak_rss_mb` sees one.
pub fn repeated_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(u64) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let rep = times.len();
        let spent: f64 = times.iter().sum();
        let is_last = rep + 1 >= SETUP_REPS && (spent >= SETUP_MIN_S || rep + 1 >= SETUP_MAX_REPS);
        let seed = if is_last {
            ctx.seed
        } else {
            ctx.seed.wrapping_add(((rep + 1) as u64) << 32)
        };
        let t = Instant::now();
        let state = setup(seed);
        times.push(t.elapsed().as_secs_f64());
        if is_last {
            return (state, times);
        }
        teardown(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_setup_repeats_to_the_cap_and_keeps_the_run_seed_state() {
        let ctx = Ctx {
            seed: 7,
            seconds: 1.0,
            scale: Scale::Smoke,
            spans: None,
        };
        let (mut seeds, mut torn) = (Vec::new(), 0);
        let (kept, times) = repeated_setup(
            &ctx,
            |seed| {
                seeds.push(seed);
                seed
            },
            |_| torn += 1,
        );
        assert_eq!(kept, 7);
        assert_eq!(times.len(), SETUP_MAX_REPS);
        assert_eq!(torn, SETUP_MAX_REPS - 1);
        assert_eq!(seeds.last(), Some(&7));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            SETUP_MAX_REPS,
            "every repetition has its own inputs"
        );
    }
}
