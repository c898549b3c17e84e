//! Scoped-thread parallelism utilities shared across the workspace.
//!
//! The container this workspace targets has no `rayon`; everything here is
//! built on `std::thread::scope`, which borrows closures instead of
//! requiring `'static` and joins all workers before returning. There is
//! deliberately **no thread pool**: workers are spawned per call and live
//! exactly as long as the call. Callers amortize spawn cost by
//! parallelizing coarse units of work (a whole circuit, a batch of trials)
//! rather than individual loop iterations.
//!
//! Provided here:
//!
//! - [`config`]: the process-wide execution configuration, read **once**
//!   from the environment ([`num_threads`] is the convenience accessor,
//!   overridable with the `VARSAW_NUM_THREADS` environment variable);
//! - [`chunk_ranges`] / [`worker_range`]: balanced contiguous index ranges
//!   for partitioning an array across workers;
//! - [`scope_workers`]: scoped fan-out of indexed workers (the calling
//!   thread doubles as worker 0);
//! - [`for_each_chunk_mut`]: scoped fan-out over disjoint mutable chunks;
//! - [`parallel_map`]: order-preserving parallel map over a work list.
//!
//! # Example
//!
//! ```
//! // Sum the squares of 0..1000 with one partial sum per worker.
//! let data: Vec<u64> = (0..1000).collect();
//! let workers = parallel::num_threads().min(4);
//! let mut partials = vec![0u64; workers];
//! parallel::for_each_chunk_mut(&mut partials, workers, |w, slot| {
//!     let range = parallel::worker_range(data.len(), workers, w);
//!     slot[0] = data[range].iter().map(|x| x * x).sum();
//! });
//! assert_eq!(partials.iter().sum::<u64>(), (0..1000u64).map(|x| x * x).sum());
//! ```

pub mod config;

pub use config::{warn_once, MAX_THREADS, NUM_THREADS_ENV};

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a parallel kernel spreads its work across threads.
///
/// The statevector executor re-exports this type (`qsim::Parallelism`):
/// `qsim::shard::shards_and_workers` turns `Threads(w)` into `2^⌊log₂ w⌋`
/// amplitude shards walked by `w` workers, and `vqe::SimExecutor` applies
/// that rule when it prepares states. `qsim::Statevector::probabilities_with`
/// takes it too, so one knob pins serial execution through a whole stack
/// (e.g. when many executors already run under [`parallel_map`]).
///
/// `Auto` goes threaded only above the engine's amortization threshold,
/// and `Threads(n)` requests are clamped to at most [`MAX_THREADS`]
/// workers. The choice never changes results: serial and threaded paths
/// are bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Always run the serial kernels on the calling thread.
    Serial,
    /// Pick automatically: threaded with [`num_threads`] workers when the
    /// work is large enough to amortize thread spawns, serial otherwise.
    Auto,
    /// Request an explicit worker count, clamped to [`MAX_THREADS`]; a
    /// count of one runs serial.
    Threads(usize),
}

/// The number of worker threads parallel code should use.
///
/// Resolved from the `VARSAW_NUM_THREADS` environment variable — **read
/// once per process** and cached (see [`config`]); unset or empty values
/// fall back to [`std::thread::available_parallelism`], and invalid
/// values are reported on stderr instead of silently defaulting. The
/// result is clamped to `1..=`[`MAX_THREADS`].
///
/// # Examples
///
/// ```
/// std::env::set_var(parallel::NUM_THREADS_ENV, "3");
/// assert_eq!(parallel::num_threads(), 3);
/// // The configuration is cached: later environment changes are ignored.
/// std::env::remove_var(parallel::NUM_THREADS_ENV);
/// assert_eq!(parallel::num_threads(), 3);
/// ```
pub fn num_threads() -> usize {
    config::get().threads
}

/// The runtime default of the stage-telemetry switch: `true` unless
/// `VARSAW_TELEMETRY` says otherwise.
///
/// Resolved once per process and cached (see [`config`]). The consumer
/// is the `telemetry` crate, which seeds its runtime recording switch
/// from this — and only in instrumented builds (its `enabled` feature);
/// uninstrumented binaries never record regardless of this value.
///
/// # Examples
///
/// ```
/// // Unset in this process: instrumented builds record by default.
/// assert!(parallel::telemetry_default());
/// ```
pub fn telemetry_default() -> bool {
    config::get().telemetry.unwrap_or(true)
}

/// The contiguous index range worker `w` of `workers` owns in `0..len`.
///
/// Ranges are balanced (sizes differ by at most one element), disjoint,
/// and cover `0..len` exactly; workers beyond `len` receive empty ranges.
///
/// # Panics
///
/// Panics if `workers == 0` or `w >= workers`.
///
/// # Examples
///
/// ```
/// assert_eq!(parallel::worker_range(10, 4, 0), 0..3);
/// assert_eq!(parallel::worker_range(10, 4, 1), 3..6);
/// assert_eq!(parallel::worker_range(10, 4, 2), 6..8);
/// assert_eq!(parallel::worker_range(10, 4, 3), 8..10);
/// ```
pub fn worker_range(len: usize, workers: usize, w: usize) -> Range<usize> {
    assert!(workers > 0, "need at least one worker");
    assert!(w < workers, "worker index {w} out of {workers}");
    let base = len / workers;
    let rem = len % workers;
    let start = w * base + w.min(rem);
    let end = start + base + usize::from(w < rem);
    start..end
}

/// All [`worker_range`] partitions of `0..len` across `chunks` workers.
///
/// # Panics
///
/// Panics if `chunks == 0`.
///
/// # Examples
///
/// ```
/// let ranges = parallel::chunk_ranges(7, 3);
/// assert_eq!(ranges, vec![0..3, 3..5, 5..7]);
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    (0..chunks).map(|w| worker_range(len, chunks, w)).collect()
}

/// Runs `f(worker_index)` on `workers` scoped threads and joins them all.
///
/// Worker 0 runs on the calling thread, so `workers == 1` spawns nothing
/// and is exactly a plain call of `f(0)`.
///
/// # Panics
///
/// Panics if `workers == 0`, or propagates a panic from any worker.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits = AtomicUsize::new(0);
/// parallel::scope_workers(4, |w| {
///     hits.fetch_add(w + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.into_inner(), 1 + 2 + 3 + 4);
/// ```
pub fn scope_workers(workers: usize, f: impl Fn(usize) + Sync) {
    assert!(workers > 0, "need at least one worker");
    if workers == 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        for w in 1..workers {
            let f = &f;
            scope.spawn(move || f(w));
        }
        f(0);
    });
}

/// Splits `data` into `workers` balanced contiguous chunks and runs
/// `f(worker_index, chunk)` on scoped threads, one chunk per worker.
///
/// The chunk handed to worker `w` is `data[worker_range(len, workers, w)]`,
/// so `f` can recover global indices from the worker index. Workers whose
/// range is empty still run with an empty slice.
///
/// # Panics
///
/// Panics if `workers == 0`, or propagates a panic from any worker.
///
/// # Examples
///
/// ```
/// let mut v = vec![0usize; 10];
/// parallel::for_each_chunk_mut(&mut v, 3, |w, chunk| {
///     let start = parallel::worker_range(10, 3, w).start;
///     for (k, x) in chunk.iter_mut().enumerate() {
///         *x = start + k; // the global index
///     }
/// });
/// assert_eq!(v, (0..10).collect::<Vec<_>>());
/// ```
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    workers: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(workers > 0, "need at least one worker");
    let len = data.len();
    if workers == 1 {
        f(0, data);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut consumed = 0;
        for w in 0..workers {
            let take = worker_range(len, workers, w).len();
            debug_assert_eq!(worker_range(len, workers, w).start, consumed);
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            consumed += take;
            let f = &f;
            if w + 1 == workers {
                f(w, chunk); // last chunk on the calling thread
            } else {
                scope.spawn(move || f(w, chunk));
            }
        }
    });
}

/// Order-preserving parallel map: applies `f` to every item on up to
/// [`num_threads`] scoped worker threads and collects the results in input
/// order.
///
/// Items are claimed dynamically (an atomic cursor), so heterogeneous
/// per-item costs balance automatically. With one worker or one item this
/// degenerates to a sequential map with no thread spawns.
///
/// # Examples
///
/// ```
/// let doubled = parallel::parallel_map((0..100).collect::<Vec<_>>(), |&x| x * 2);
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T: Sync, R: Send>(items: Vec<T>, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = num_threads().min(n);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    scope_workers(workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(&items[i]);
        **slots[i].lock().expect("slot lock") = Some(r);
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn worker_ranges_partition_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8, 13] {
                let ranges = chunk_ranges(len, workers);
                assert_eq!(ranges.len(), workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced ranges {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn worker_range_checks_index() {
        worker_range(10, 2, 2);
    }

    #[test]
    fn scope_workers_runs_every_index_once() {
        let seen = AtomicU64::new(0);
        scope_workers(5, |w| {
            seen.fetch_add(1 << (8 * w), Ordering::Relaxed);
        });
        assert_eq!(seen.into_inner(), 0x01_01_01_01_01);
    }

    #[test]
    fn for_each_chunk_mut_covers_all_elements() {
        let mut v = vec![0u32; 17];
        for_each_chunk_mut(&mut v, 4, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn for_each_chunk_mut_handles_more_workers_than_elements() {
        let mut v = vec![0u32; 2];
        for_each_chunk_mut(&mut v, 8, |_, chunk| {
            for x in chunk.iter_mut() {
                *x = 9;
            }
        });
        assert_eq!(v, vec![9, 9]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..200).collect(), |&x: &i32| x * x);
        assert_eq!(out, (0..200).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
        assert!(num_threads() <= MAX_THREADS);
    }
}
