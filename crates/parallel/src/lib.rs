//! Scoped-thread fan-out and the process-wide configuration.
//!
//! The container this workspace targets has no `rayon`; everything here is
//! built on `std::thread::scope`, which borrows closures instead of
//! requiring `'static` and joins all workers before returning. There is
//! deliberately **no thread pool**: workers are spawned per call and live
//! exactly as long as the call. Callers amortize spawn cost by
//! parallelizing coarse units of work (whole VQE trials) rather than
//! individual loop iterations.
//!
//! Provided here:
//!
//! - [`config`]: the process-wide execution configuration, read **once**
//!   from the environment ([`num_threads`] is the convenience accessor,
//!   overridable with the `VARSAW_NUM_THREADS` environment variable);
//! - [`parallel_map`]: order-preserving parallel map over a work list —
//!   the `experiments` trial fan-out, the one place the workspace runs
//!   threads.
//!
//! # Example
//!
//! ```
//! // Square every input on up to `num_threads()` workers, in input order.
//! let squares = parallel::parallel_map((0..1000u64).collect(), |&x| x * x);
//! assert_eq!(squares.iter().sum::<u64>(), (0..1000u64).map(|x| x * x).sum());
//! ```

pub mod config;

pub use config::{warn_once, MAX_THREADS, NUM_THREADS_ENV};

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Runs `f(worker_index)` on `workers` scoped threads and joins them all.
///
/// Worker 0 runs on the calling thread, so `workers == 1` spawns nothing
/// and is exactly a plain call of `f(0)`.
///
/// # Panics
///
/// Panics if `workers == 0`, or propagates a panic from any worker.
fn scope_workers(workers: usize, f: impl Fn(usize) + Sync) {
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
    fn scope_workers_runs_every_index_once() {
        let seen = AtomicU64::new(0);
        scope_workers(5, |w| {
            seen.fetch_add(1 << (8 * w), Ordering::Relaxed);
        });
        assert_eq!(seen.into_inner(), 0x01_01_01_01_01);
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
