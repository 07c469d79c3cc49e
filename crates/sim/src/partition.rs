//! Worker caps and RNG substreams for the network simulator.
//!
//! The network-level simulator is an embarrassingly sequential loop in its
//! original form: one RNG stream threaded layer to layer, one cumulative
//! cycle cursor. [`crate::SimSession`] restructures that loop into a
//! **per-layer work queue**: every layer is one item of a dynamic
//! `drq_tensor::parallel` queue, workers pull the next unclaimed layer as
//! soon as they finish one, and a **sequential prefix-sum merge** then
//! stamps each layer with the cycle at which it retires. [`Partitions`]
//! only caps how many workers drain the queue.
//!
//! Two properties make the merged result bit-identical to the sequential
//! run at *any* worker count:
//!
//! 1. **Stream-aligned draws** — every layer draws from its own RNG
//!    substream, derived from the session seed and the layer index by
//!    [`stream_seed`] (the same discipline [`crate::faults`] uses for its
//!    fault stream: draws depend only on seeds and deterministic indices,
//!    never on scheduling). A layer synthesizes the same feature map no
//!    matter which worker runs it.
//! 2. **Additive virtual clocks** — a layer's retire stamp is the sum of
//!    all preceding layers' total cycles plus its own. Each term depends
//!    only on its layer, so the merge's running sum over the per-layer
//!    results, taken in layer order, reproduces the sequential cursor
//!    exactly.

use drq_tensor::parallel;

/// How many workers a [`crate::SimSession`] or [`crate::SharedSession`]
/// may use to drain its per-layer work queue. Every value produces
/// byte-identical results; this only trades wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitions {
    /// One worker: the layers run in order on the calling thread (the
    /// reference sequential execution).
    Single,
    /// At most this many workers (never more than the layer count or
    /// `drq_tensor::parallel::max_threads`).
    Fixed(usize),
    /// As many workers as `drq_tensor::parallel::max_threads` allows
    /// (clamped to the layer count). This is the default: the queue is
    /// bit-invariant, so there is no correctness reason to ever simulate
    /// on one core.
    #[default]
    Auto,
}

impl Partitions {
    /// Resolves the policy to a worker cap for `n_layers` layers. Always at
    /// least 1, never more than `n_layers` (empty networks resolve to 1).
    pub fn resolve(self, n_layers: usize) -> usize {
        let want = match self {
            Partitions::Single => 1,
            Partitions::Fixed(n) => n.max(1),
            Partitions::Auto => parallel::max_threads(),
        };
        want.clamp(1, n_layers.max(1))
    }

    /// Parses a CLI-style spec: `"auto"`, `"single"`, or a worker cap
    /// (`"1"` means [`Partitions::Single`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "auto" => Ok(Partitions::Auto),
            "single" | "1" => Ok(Partitions::Single),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Partitions::Fixed)
                .ok_or_else(|| {
                    format!("invalid partition spec {s:?} (want 'auto', 'single', or a positive integer)")
                }),
        }
    }
}

impl From<usize> for Partitions {
    /// `0` maps to [`Partitions::Auto`], `1` to [`Partitions::Single`],
    /// anything else to [`Partitions::Fixed`].
    fn from(n: usize) -> Self {
        match n {
            0 => Partitions::Auto,
            1 => Partitions::Single,
            n => Partitions::Fixed(n),
        }
    }
}

impl std::fmt::Display for Partitions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partitions::Single => write!(f, "single"),
            Partitions::Fixed(n) => write!(f, "{n}"),
            Partitions::Auto => write!(f, "auto"),
        }
    }
}

/// Derives the seed of an independent RNG substream from a root seed and a
/// stream index (splitmix64 finalization over the mixed pair).
///
/// This is the workhorse of the simulator's determinism story: layer `i`
/// always draws from `stream_seed(session_seed, i)` regardless of which
/// worker simulates it, and the fault stream draws from its own
/// reserved index — one session seed, many aligned streams.
///
/// # Examples
///
/// ```
/// use drq_sim::partition::stream_seed;
///
/// assert_eq!(stream_seed(42, 0), stream_seed(42, 0));
/// assert_ne!(stream_seed(42, 0), stream_seed(42, 1));
/// assert_ne!(stream_seed(42, 0), stream_seed(43, 0));
/// ```
pub fn stream_seed(root: u64, stream: u64) -> u64 {
    // splitmix64 over the golden-ratio-spread combination of root and
    // stream index; statistically independent outputs for adjacent inputs.
    let mut z = root
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reserved stream index for the fault-injection RNG (kept far above
/// any realistic layer count so layer streams can never collide with it).
pub(crate) const FAULT_STREAM: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_clamps_to_layers_and_floor_of_one() {
        assert_eq!(Partitions::Single.resolve(10), 1);
        assert_eq!(Partitions::Fixed(4).resolve(10), 4);
        assert_eq!(Partitions::Fixed(100).resolve(10), 10);
        assert_eq!(Partitions::Fixed(0).resolve(10), 1);
        assert_eq!(Partitions::Fixed(4).resolve(0), 1);
        let auto = Partitions::Auto.resolve(1000);
        assert!(auto >= 1 && auto <= 1000);
    }

    #[test]
    fn parse_round_trips_cli_specs() {
        assert_eq!(Partitions::parse("auto").unwrap(), Partitions::Auto);
        assert_eq!(Partitions::parse("single").unwrap(), Partitions::Single);
        assert_eq!(Partitions::parse("1").unwrap(), Partitions::Single);
        assert_eq!(Partitions::parse(" 7 ").unwrap(), Partitions::Fixed(7));
        assert!(Partitions::parse("0").is_err());
        assert!(Partitions::parse("-2").is_err());
        assert!(Partitions::parse("many").is_err());
        assert_eq!(Partitions::from(0usize), Partitions::Auto);
        assert_eq!(Partitions::from(1usize), Partitions::Single);
        assert_eq!(Partitions::from(3usize), Partitions::Fixed(3));
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for root in [0u64, 1, 42, u64::MAX] {
            for stream in [0u64, 1, 2, 53, FAULT_STREAM] {
                assert!(seen.insert(stream_seed(root, stream)), "collision at {root}/{stream}");
            }
        }
        // Never the xorshift fixed point.
        for i in 0..1000 {
            assert_ne!(stream_seed(42, i), 0, "zero seed at stream {i}");
        }
    }
}
