//! Deterministic data-parallel execution over `std::thread::scope`.
//!
//! Every hot path in the workspace (the blocked GEMM, `im2col`, the batch
//! loops of the convolutions, DSE candidate sweeps, and the network
//! simulator's per-layer work queue) runs its work through this
//! module. The design rule is **scheduling-independence**: a work item
//! always produces the same bits no matter which worker runs it, so results
//! are identical for any thread count — `DRQ_THREADS=1` is the reference
//! execution and every other setting must match it exactly. That is achieved
//! by partitioning outputs into disjoint slices (no shared accumulators, no
//! atomics on data) and keeping every reduction in a fixed order on the
//! calling thread.
//!
//! Thread count resolution order:
//!
//! 1. a process-wide override installed with [`set_max_threads`] (the CLI's
//!    `--threads` flag lands here);
//! 2. the `DRQ_THREADS` environment variable (read once);
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallel sections do not oversubscribe: a worker thread that calls
//! back into this module runs its chunks inline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// `0` means "no override installed".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `DRQ_THREADS` / `available_parallelism`, resolved once.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

std::thread_local! {
    /// Set while the current thread is executing inside a parallel section;
    /// nested sections then run inline instead of spawning another scope.
    static IN_PARALLEL_SECTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("DRQ_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
            eprintln!("warning: ignoring invalid DRQ_THREADS={v:?} (want a positive integer)");
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// The maximum number of worker threads a parallel section may use.
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel;
///
/// parallel::set_max_threads(3);
/// assert_eq!(parallel::max_threads(), 3);
/// parallel::set_max_threads(0); // back to DRQ_THREADS / auto
/// assert!(parallel::max_threads() >= 1);
/// ```
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        o
    } else {
        env_threads()
    }
}

/// Installs a process-wide thread-count override; `0` removes it, falling
/// back to `DRQ_THREADS` / available parallelism.
///
/// Because every parallel kernel is bit-deterministic in its thread count,
/// changing this at any point never changes numerical results — only
/// wall-clock time.
pub fn set_max_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// True while called from inside a worker of an enclosing parallel section.
pub fn in_parallel_section() -> bool {
    IN_PARALLEL_SECTION.with(|c| c.get())
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` for each, sharding
/// chunks across up to [`max_threads`] scoped workers.
///
/// Chunks are claimed dynamically, so callers must not rely on any
/// particular chunk-to-thread assignment — `f` must depend only on
/// `chunk_index` and the chunk contents. Runs inline (sequentially, in
/// chunk order) when only one worker is warranted or when already inside a
/// parallel section.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty, or if `f` panics
/// (worker panics propagate to the caller).
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel;
///
/// let mut v = vec![0usize; 10];
/// parallel::for_each_chunk_mut(&mut v, 3, |ci, chunk| {
///     for x in chunk.iter_mut() {
///         *x = ci;
///     }
/// });
/// assert_eq!(v, &[0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
/// ```
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_capped(data, chunk_len, usize::MAX, f);
}

/// [`for_each_chunk_mut`] on at most `max_workers` workers.
fn for_each_chunk_capped<T, F>(data: &mut [T], chunk_len: usize, max_workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = max_threads().min(max_workers).min(n_chunks);
    if threads <= 1 || in_parallel_section() {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }

    // Dynamic scheduling: workers pull (index, chunk) pairs from a shared
    // queue. The mutex only guards the iterator hand-off, never the data.
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let worker = || {
        IN_PARALLEL_SECTION.with(|c| c.set(true));
        loop {
            let item = queue.lock().expect("chunk queue poisoned").next();
            match item {
                Some((ci, chunk)) => f(ci, chunk),
                None => break,
            }
        }
        IN_PARALLEL_SECTION.with(|c| c.set(false));
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        // The calling thread is worker 0.
        worker();
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Evaluates `f(0..n)` across workers and returns the results in index
/// order. The per-index results are moved out, so `f` may return owned
/// buffers (per-image gradients, sweep measurements, …) that the caller
/// then reduces sequentially — the pattern that keeps reductions
/// bit-deterministic.
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel;
///
/// let squares = parallel::par_map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_capped(n, usize::MAX, f)
}

/// [`par_map`] on at most `max_workers` workers (and never more than
/// [`max_threads`]): a dynamic queue with one item per index. A cap of 1
/// runs `f(0), f(1), …` inline on the calling thread.
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel;
///
/// assert_eq!(parallel::par_map_capped(4, 2, |i| i + 1), vec![1, 2, 3, 4]);
/// ```
pub fn par_map_capped<R, F>(n: usize, max_workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for_each_chunk_capped(&mut slots, 1, max_workers, |i, slot| {
        slot[0] = Some(f(i));
    });
    slots.into_iter().map(|s| s.expect("par_map slot unfilled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_elements_exactly_once() {
        let mut v = vec![0u32; 1023];
        for_each_chunk_mut(&mut v, 64, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut v = vec![0usize; 100];
        for_each_chunk_mut(&mut v, 7, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 7);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut v: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut v, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn nested_sections_run_inline() {
        let mut outer = vec![0usize; 8];
        for_each_chunk_mut(&mut outer, 1, |_, chunk| {
            // If this spawned a nested scope the flag would still make the
            // inner call inline; either way it must complete and see the
            // flag only when actually inside a spawned section.
            let mut inner = vec![0usize; 4];
            for_each_chunk_mut(&mut inner, 1, |_, c| c[0] = 1);
            chunk[0] = inner.iter().sum();
        });
        assert!(outer.iter().all(|&x| x == 4));
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(257, |i| i * 3);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            set_max_threads(threads);
            let mut v = vec![0f32; 1000];
            for_each_chunk_mut(&mut v, 13, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (ci * 13 + j) as f32 * 0.25;
                }
            });
            set_max_threads(0);
            v
        };
        let base = run(1);
        for t in [2, 3, 8] {
            assert_eq!(run(t), base);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_len_rejected() {
        let mut v = vec![0u8; 3];
        for_each_chunk_mut(&mut v, 0, |_, _| {});
    }
}
