//! The trial fan-out's worker count, read from the environment once.
//!
//! [`NUM_THREADS_ENV`] (`VARSAW_NUM_THREADS`) sets how many scoped
//! threads [`crate::harness::parallel_map`] spreads an experiment's
//! trials over; statevector simulation itself is serial. [`num_threads`]
//! reads the variable **once per process**, caches the result, and
//! reports a rejected or capped value on stderr instead of silently
//! falling back — later changes to the environment have no effect.
//!
//! # Examples
//!
//! ```
//! use experiments::config::{num_threads, NUM_THREADS_ENV};
//!
//! std::env::set_var(NUM_THREADS_ENV, "3");
//! assert_eq!(num_threads(), 3);
//! // Read once: later environment changes are not observed.
//! std::env::remove_var(NUM_THREADS_ENV);
//! assert_eq!(num_threads(), 3);
//! ```

use std::sync::OnceLock;

/// Environment variable overriding the default worker count.
pub const NUM_THREADS_ENV: &str = "VARSAW_NUM_THREADS";

/// Hard upper bound on the worker count (sanity cap for typos in the
/// environment variable).
pub const MAX_THREADS: usize = 64;

/// The number of worker threads the trial fan-out uses.
///
/// Resolved from [`NUM_THREADS_ENV`] once per process (see the
/// [module docs](self)); unset or empty values fall back to
/// [`std::thread::available_parallelism`]. The result is clamped to
/// `1..=`[`MAX_THREADS`].
///
/// # Examples
///
/// ```
/// use experiments::config::{num_threads, MAX_THREADS, NUM_THREADS_ENV};
///
/// // A value above the cap is clamped (with a warning on stderr)...
/// std::env::set_var(NUM_THREADS_ENV, "100000");
/// assert_eq!(num_threads(), MAX_THREADS);
/// // ...and cached: the environment is not read again.
/// std::env::set_var(NUM_THREADS_ENV, "2");
/// assert_eq!(num_threads(), MAX_THREADS);
/// ```
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let raw = std::env::var(NUM_THREADS_ENV).ok();
        let default_threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let (threads, warning) = resolve(raw.as_deref(), default_threads);
        if let Some(w) = warning {
            eprintln!("experiments: {w}");
        }
        threads
    })
}

/// Resolves a raw [`NUM_THREADS_ENV`] value against the host's
/// parallelism, returning the worker count together with the warning a
/// rejected or capped value produced. Pure (no environment access), so
/// rejection behavior is unit-testable.
fn resolve(raw: Option<&str>, default_threads: usize) -> (usize, Option<String>) {
    let default = default_threads.clamp(1, MAX_THREADS);
    let Some(raw) = raw.map(str::trim).filter(|r| !r.is_empty()) else {
        return (default, None);
    };
    let warn = |why: String| Some(format!("{NUM_THREADS_ENV}={why}"));
    match raw.parse::<usize>() {
        Ok(0) => (
            default,
            warn("0 is not a valid count; using the default".into()),
        ),
        Ok(n) if n > MAX_THREADS => (
            MAX_THREADS,
            warn(format!(
                "{n} exceeds the cap of {MAX_THREADS}; using {MAX_THREADS}"
            )),
        ),
        Ok(n) => (n, None),
        Err(_) => (
            default,
            warn(format!("{raw:?} is not a number; using the default")),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves against a 4-thread host.
    fn resolve4(raw: Option<&str>) -> (usize, Option<String>) {
        resolve(raw, 4)
    }

    #[test]
    fn unset_values_use_defaults_without_warnings() {
        assert_eq!(resolve4(None), (4, None));
    }

    #[test]
    fn empty_values_count_as_unset() {
        assert_eq!(resolve4(Some("")), (4, None));
        assert_eq!(resolve4(Some("  ")), (4, None));
    }

    #[test]
    fn valid_values_are_used_verbatim() {
        assert_eq!(resolve4(Some("3")), (3, None));
    }

    #[test]
    fn invalid_values_are_reported_not_silently_defaulted() {
        let (threads, w) = resolve4(Some("fast"));
        assert_eq!(threads, 4);
        assert!(w.unwrap().contains(NUM_THREADS_ENV));
    }

    #[test]
    fn zero_is_rejected_with_a_warning() {
        let (threads, w) = resolve4(Some("0"));
        assert_eq!(threads, 4);
        assert!(w.unwrap().contains(NUM_THREADS_ENV));
    }

    #[test]
    fn excessive_values_are_capped_with_a_warning() {
        let (threads, w) = resolve4(Some("9999"));
        assert_eq!(threads, MAX_THREADS);
        assert!(w.unwrap().contains("exceeds the cap"));
    }

    #[test]
    fn default_threads_are_clamped_to_the_cap() {
        assert_eq!(resolve(None, 1000).0, MAX_THREADS);
        assert_eq!(resolve(None, 0).0, 1);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
        assert!(num_threads() <= MAX_THREADS);
    }
}
