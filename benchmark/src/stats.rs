//! Order statistics, the tail-percentile rule, digests and process memory.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Linear-interpolated percentile `p` in `[0, 100]` (the NumPy default);
/// `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let (ld, n) = (v.len() as i64, 4i64);
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (v[j as usize - 1] * (n as f64 - delta) + v[j as usize] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Operations per second as the median over consecutive blocks of `block`
/// operations, from each operation's completion time (seconds since the
/// measurement started, ascending). A short stall then moves one block's
/// rate, not the result. With less than one full block it is the overall
/// rate.
pub fn median_block_rate(done_s: &[f64], block: usize) -> f64 {
    let block = block.max(1);
    if done_s.len() < block {
        return ratio(done_s.len() as f64, done_s.last().copied().unwrap_or(0.0));
    }
    let ends: Vec<f64> = done_s
        .iter()
        .skip(block - 1)
        .step_by(block)
        .copied()
        .collect();
    let rates: Vec<f64> = ends
        .iter()
        .enumerate()
        .map(|(i, &end)| {
            let start = if i == 0 { 0.0 } else { ends[i - 1] };
            ratio(block as f64, end - start)
        })
        .collect();
    median(&rates)
}

/// The standard percentiles a tail latency is reported at, highest first.
const TAIL_LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// The highest standard percentile that leaves at least ten samples beyond
/// it in a sample of `n` (the median when `n` is too small for any tail).
///
/// Each workload fixes its tail percentile with this rule from the sample
/// count its default run length yields, so a run that happens to complete a
/// few more or fewer operations never switches percentile; runs report the
/// rule's answer for their own count beside it.
pub fn tail_percentile(n: usize) -> f64 {
    let p = TAIL_LADDER
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .unwrap_or(50);
    p as f64
}

/// Whether `change` is worse than `parent` by more than `bound` (a share of
/// the parent's value).
pub fn outside_bound(parent: f64, change: f64, bound: f64, higher_is_better: bool) -> bool {
    let worse_by = if higher_is_better {
        parent - change
    } else {
        change - parent
    };
    worse_by > bound * parent.abs()
}

/// Relative change from `parent` to `change` (`0.0` when both are zero).
pub fn relative_change(parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        if change == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (change - parent) / parent.abs()
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `hash` (start with
/// [`FNV_OFFSET`]). Stable across platforms and runs.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `a / b`, or `0.0` when `b` is zero (keeps ratios finite in reports).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn block_rate_is_the_median_over_full_blocks() {
        // Blocks of 2 end at 1, 2 and 6 s: rates 2, 2 and 0.5 ops/s; the
        // trailing operation is not a full block.
        let done = [0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 7.0];
        assert_eq!(median_block_rate(&done, 2), 2.0);
        assert_eq!(median_block_rate(&[1.0, 2.0], 4), 1.0);
        assert_eq!(median_block_rate(&[], 4), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        for n in [20usize, 57, 400, 5000] {
            let p = tail_percentile(n);
            assert!((1.0 - p / 100.0) * n as f64 >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn bound_checks_respect_direction() {
        // Lower is better: 11% slower breaks a 10% bound, 9% does not.
        assert!(outside_bound(100.0, 111.0, 0.10, false));
        assert!(!outside_bound(100.0, 109.0, 0.10, false));
        assert!(!outside_bound(100.0, 50.0, 0.10, false));
        // Higher is better: a 20% throughput drop breaks a 15% bound.
        assert!(outside_bound(100.0, 80.0, 0.15, true));
        assert!(!outside_bound(100.0, 130.0, 0.15, true));
        assert_eq!(relative_change(0.0, 0.0), 0.0);
        assert!((relative_change(2.0, 3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable() {
        // Reference FNV-1a 64 values.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"fo"), b"o"),
            fnv1a(FNV_OFFSET, b"foo")
        );
    }

    #[test]
    fn ratio_never_divides_by_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
