//! Deterministic data-parallel execution on a pool of parked helper threads.
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
//! A parallel section's workers are its calling thread (worker 0) and
//! helper threads of one process-wide pool. Helpers are spawned the first
//! time a section wants them, only ever as many as the largest
//! [`max_threads`] seen so far minus one, and park on a condition variable
//! between sections, so a section costs a wake-up rather than a thread
//! spawn. Helpers live as long as the process.
//!
//! A section runs inline (sequentially, in chunk order, on its caller)
//! when only one worker is warranted, when it is nested inside another
//! section, or when another thread's section holds the pool at that
//! moment: there is no queue of sections waiting for the pool, so two
//! threads running sections at once cannot deadlock. A panic in any worker
//! is re-raised on the caller once every helper that took the section has
//! finished, and the pool serves the next section as before.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// `0` means "no override installed".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `DRQ_THREADS` / `available_parallelism`, resolved once.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// The fewest multiply-accumulates worth giving each worker of a section:
/// see [`workers_for_macs`]. On a 2-vCPU Xeon host a woken helper starts
/// about 10 µs later, about the time the integer kernels take for this
/// many MACs (DESIGN.md §5 has the measurements).
pub const PAR_MIN_MACS: usize = 1 << 18;

/// The process-wide helper pool every section uses.
static POOL: Pool = Pool::new();

std::thread_local! {
    /// Set while the current thread is executing inside a parallel section
    /// (and always on a helper thread); nested sections then run inline.
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
/// wall-clock time. Lowering it leaves already spawned helpers parked.
pub fn set_max_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The most workers a section of `macs` multiply-accumulates should use:
/// one per [`PAR_MIN_MACS`]. A section of less than twice that is not
/// worth a helper's wake-up and runs on its caller.
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel::{workers_for_macs, PAR_MIN_MACS};
///
/// assert_eq!(workers_for_macs(0), 1);
/// assert_eq!(workers_for_macs(2 * PAR_MIN_MACS - 1), 1);
/// assert_eq!(workers_for_macs(2 * PAR_MIN_MACS), 2);
/// ```
pub fn workers_for_macs(macs: usize) -> usize {
    (macs / PAR_MIN_MACS).max(1)
}

/// True while called from inside a worker of an enclosing parallel section.
pub fn in_parallel_section() -> bool {
    IN_PARALLEL_SECTION.with(|c| c.get())
}

/// Marks the calling thread as inside a section until dropped, also when
/// the section unwinds.
struct SectionFlag;

impl SectionFlag {
    fn enter() -> Self {
        IN_PARALLEL_SECTION.with(|c| c.set(true));
        SectionFlag
    }
}

impl Drop for SectionFlag {
    fn drop(&mut self) {
        IN_PARALLEL_SECTION.with(|c| c.set(false));
    }
}

/// A section's work as the helpers see it: every worker calls it once and
/// it returns when the section's queue is empty.
type Work<'a> = &'a (dyn Fn() + Sync + 'a);

/// A pool of helper threads that park between sections.
struct Pool {
    /// Held by the one section using the helpers; a section that finds it
    /// held runs inline.
    busy: AtomicBool,
    state: Mutex<PoolState>,
    /// Helpers park here until a section opens slots for them.
    wake: Condvar,
    /// The section's caller parks here until its helpers have finished.
    done: Condvar,
}

struct PoolState {
    /// Helper threads spawned so far; none ever exits.
    helpers: usize,
    /// The current section's work, while its caller waits for it.
    work: Option<Work<'static>>,
    /// Counts sections, so a helper joins each at most once.
    section: u64,
    /// Helpers the current section still admits.
    open: usize,
    /// Helpers running the current section's work.
    running: usize,
    /// The first panic of a helper in the current section.
    panic: Option<Box<dyn Any + Send>>,
}

/// Releases the pool's `busy` flag when dropped.
struct Held<'a>(&'a AtomicBool);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Pool {
    const fn new() -> Self {
        Self {
            busy: AtomicBool::new(false),
            state: Mutex::new(PoolState {
                helpers: 0,
                work: None,
                section: 0,
                open: 0,
                running: 0,
                panic: None,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Worker panics are caught outside the lock, so the state is never
    /// left half-updated; a poisoned lock is still sound to use.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Helper threads this pool has spawned.
    #[cfg(test)]
    fn spawned(&self) -> usize {
        self.lock().helpers
    }

    /// Spawns helpers until there are `want` (fewer if the system refuses
    /// a thread); returns how many there are.
    fn grow(&'static self, want: usize) -> usize {
        let mut st = self.lock();
        while st.helpers < want {
            let name = format!("drq-worker-{}", st.helpers + 1);
            if std::thread::Builder::new().name(name).spawn(move || self.helper()).is_err() {
                break;
            }
            st.helpers += 1;
        }
        st.helpers
    }

    /// A helper's life: park until a section admits it, run the section's
    /// work, report, park again.
    fn helper(&self) {
        IN_PARALLEL_SECTION.with(|c| c.set(true));
        let mut joined = 0u64;
        let mut st = self.lock();
        loop {
            let work = match st.work {
                Some(work) if st.open > 0 && st.section != joined => work,
                _ => {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            joined = st.section;
            st.open -= 1;
            st.running += 1;
            drop(st);
            let result = panic::catch_unwind(AssertUnwindSafe(work));
            st = self.lock();
            if let Err(p) = result {
                st.panic.get_or_insert(p);
            }
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_one();
            }
        }
    }

    /// Runs `work` on the calling thread and on up to `threads - 1`
    /// helpers, and returns once every worker has returned; re-raises the
    /// first panic of the caller, else of a helper. Returns `false`, having
    /// run nothing, when another section holds the pool.
    #[allow(unsafe_code)]
    fn run(&'static self, threads: usize, work: Work<'_>) -> bool {
        if self.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return false;
        }
        let _held = Held(&self.busy);
        let helpers = self.grow(threads - 1).min(threads - 1);
        // SAFETY: the helpers call `work` through this `'static` reference
        // only while `running > 0` for this section, and this function
        // neither returns nor unwinds before it has closed the section
        // (`open = 0`) and seen `running == 0` under the lock: the caller's
        // own run is wrapped in `catch_unwind`, and nothing between
        // publishing and waiting can panic. Clearing `work` under that same
        // lock means no helper can reach the reference afterwards, so it
        // never outlives the borrow it was made from.
        let erased: Work<'static> = unsafe { std::mem::transmute::<Work<'_>, Work<'static>>(work) };
        {
            let mut st = self.lock();
            st.work = Some(erased);
            st.section += 1;
            st.open = helpers;
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            let _flag = SectionFlag::enter();
            work();
        }));
        let theirs = {
            let mut st = self.lock();
            // Helpers that have not woken yet no longer join: the queue is
            // drained, and waiting for their wake-up would only add latency.
            st.open = 0;
            while st.running > 0 {
                st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.work = None;
            st.panic.take()
        };
        if let Err(p) = mine {
            panic::resume_unwind(p);
        }
        if let Some(p) = theirs {
            panic::resume_unwind(p);
        }
        true
    }
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` for each, sharding
/// chunks across up to [`max_threads`] workers.
///
/// Chunks are claimed dynamically, so callers must not rely on any
/// particular chunk-to-thread assignment — `f` must depend only on
/// `chunk_index` and the chunk contents. Runs inline (sequentially, in
/// chunk order) when only one worker is warranted, when already inside a
/// parallel section, or when another thread's section holds the pool.
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

/// [`for_each_chunk_mut`] on at most `max_workers` workers (and never more
/// than [`max_threads`]); a cap of 1 runs every chunk inline, in order.
///
/// # Examples
///
/// ```
/// use drq_tensor::parallel;
///
/// let mut v = vec![0usize; 4];
/// parallel::for_each_chunk_capped(&mut v, 1, 2, |ci, chunk| chunk[0] = ci * ci);
/// assert_eq!(v, [0, 1, 4, 9]);
/// ```
pub fn for_each_chunk_capped<T, F>(data: &mut [T], chunk_len: usize, max_workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_on(&POOL, max_threads().min(max_workers), data, chunk_len, f);
}

/// [`for_each_chunk_mut`] on at most `workers` workers of `pool`.
fn for_each_chunk_on<T, F>(
    pool: &'static Pool,
    workers: usize,
    data: &mut [T],
    chunk_len: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = workers.min(data.len().div_ceil(chunk_len));
    if threads > 1 && !in_parallel_section() {
        // Dynamic scheduling: workers pull (index, chunk) pairs from a
        // shared queue. The mutex only guards the iterator hand-off, never
        // the data, and `f` runs outside it.
        let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        let worker = || loop {
            let item = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            match item {
                Some((ci, chunk)) => f(ci, chunk),
                None => break,
            }
        };
        if pool.run(threads, &worker) {
            return;
        }
    }
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        f(ci, chunk);
    }
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
    use std::sync::Barrier;

    /// A pool of its own, so spawn counts do not see other tests' sections.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

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
            // Inside a section (on the caller or a helper) the inner call
            // runs inline; either way it must complete.
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

    #[test]
    fn sections_reuse_parked_helpers() {
        let pool = private_pool();
        let mut v = vec![0u64; 64];
        for round in 0..1000u64 {
            for_each_chunk_on(pool, 2, &mut v, 8, |ci, chunk| {
                chunk.iter_mut().for_each(|x| *x = round + ci as u64);
            });
        }
        assert!(v.chunks(8).enumerate().all(|(ci, c)| c.iter().all(|&x| x == 999 + ci as u64)));
        assert_eq!(pool.spawned(), 1, "1,000 two-worker sections share one helper");
        for _ in 0..100 {
            for_each_chunk_on(pool, 3, &mut v, 8, |_, chunk| chunk.fill(7));
        }
        assert_eq!(pool.spawned(), 2, "a third worker spawns exactly one more helper");
        for_each_chunk_on(pool, 2, &mut v, 8, |_, chunk| chunk.fill(1));
        assert_eq!(pool.spawned(), 2, "fewer workers spawn nothing");
        assert!(v.iter().all(|&x| x == 1));
    }

    /// Runs a two-worker section on `pool` whose helper (or caller) panics
    /// once both workers hold a chunk, and returns the panic message.
    fn panicking_section(pool: &'static Pool, helper_fails: bool) -> String {
        let both_in = Barrier::new(2);
        let mut v = vec![0u8; 2];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_chunk_on(pool, 2, &mut v, 1, |_, _| {
                both_in.wait();
                let name = std::thread::current().name().map(str::to_owned);
                let on_helper = name.is_some_and(|n| n.starts_with("drq-worker-"));
                if on_helper == helper_fails {
                    panic!("the {} fails", if on_helper { "helper" } else { "caller" });
                }
            });
        }));
        let payload = caught.expect_err("the worker's panic reaches the caller");
        assert!(!in_parallel_section(), "the caller leaves the section when it unwinds");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| String::from("<non-string payload>"))
    }

    /// A two-worker section on `pool`, from this thread and from a fresh
    /// one, completes with every chunk written.
    fn pool_still_works(pool: &'static Pool) {
        let fill = move || {
            let mut v = vec![0u32; 40];
            for_each_chunk_on(pool, 2, &mut v, 4, |ci, chunk| chunk.fill(ci as u32 + 1));
            v.chunks(4).enumerate().all(|(ci, c)| c.iter().all(|&x| x == ci as u32 + 1))
        };
        assert!(fill(), "a section after the panic on the same thread");
        assert!(std::thread::spawn(fill).join().unwrap(), "a section on another thread");
    }

    #[test]
    fn panics_reach_the_caller_and_the_pool_survives() {
        let pool = private_pool();
        for (helper_fails, who) in [(true, "helper"), (false, "caller")] {
            let msg = panicking_section(pool, helper_fails);
            assert_eq!(msg, format!("the {who} fails"));
            pool_still_works(pool);
        }
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn concurrent_sections_both_complete() {
        let pool = private_pool();
        let start = Barrier::new(2);
        let run = |salt: u64| {
            start.wait();
            for round in 0..200u64 {
                let mut v = vec![0u64; 96];
                for_each_chunk_on(pool, 2, &mut v, 5, |ci, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = salt * 1_000_000 + round * 1000 + (ci * 5 + j) as u64;
                    }
                });
                let want = (0..96u64).map(|i| salt * 1_000_000 + round * 1000 + i);
                assert!(v.iter().copied().eq(want), "thread {salt}, round {round}");
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| run(1));
            s.spawn(|| run(2));
        });
        assert_eq!(pool.spawned(), 1);
    }
}
