//! The bench-history environment knob, read once per process.
//!
//! [`BENCH_HISTORY_WINDOW_ENV`] (`VARSAW_BENCH_HISTORY_WINDOW`) bounds the
//! rolling window of runs `bench_diff --trend` keeps in
//! `BENCH_HISTORY.jsonl` and judges new runs against (see
//! [`bench_history_window`]). Invalid values are reported once on stderr
//! through [`warn_once`] and treated as unset.

use std::sync::OnceLock;

/// Environment variable bounding the rolling window of runs kept in
/// `BENCH_HISTORY.jsonl` and judged by `bench_diff --trend`. Zero and
/// non-numbers are rejected with a warning; values above
/// [`MAX_BENCH_HISTORY_WINDOW`] are capped. Unset means
/// [`DEFAULT_BENCH_HISTORY_WINDOW`].
pub const BENCH_HISTORY_WINDOW_ENV: &str = "VARSAW_BENCH_HISTORY_WINDOW";

/// Default [`BENCH_HISTORY_WINDOW_ENV`]: enough depth for a stable
/// median ± MAD band without letting months-old hardware drift vote.
pub const DEFAULT_BENCH_HISTORY_WINDOW: usize = 20;

/// Hard upper bound on [`BENCH_HISTORY_WINDOW_ENV`] (sanity cap: the
/// trend gate reads every kept line on each run).
pub const MAX_BENCH_HISTORY_WINDOW: usize = 500;

/// The rolling window of runs `bench_diff --trend` keeps in
/// `BENCH_HISTORY.jsonl` and judges new runs against.
///
/// Resolved from the `VARSAW_BENCH_HISTORY_WINDOW` environment variable —
/// read once per process and cached, capped at
/// [`MAX_BENCH_HISTORY_WINDOW`], defaulting to
/// [`DEFAULT_BENCH_HISTORY_WINDOW`].
///
/// # Examples
///
/// ```
/// // Unset in this process: the default window applies.
/// assert_eq!(bench::bench_history_window(), bench::DEFAULT_BENCH_HISTORY_WINDOW);
/// ```
pub fn bench_history_window() -> usize {
    static WINDOW: OnceLock<usize> = OnceLock::new();
    *WINDOW.get_or_init(|| {
        let raw = std::env::var(BENCH_HISTORY_WINDOW_ENV).ok();
        let (window, warnings) = resolve(raw.as_deref());
        for w in &warnings {
            warn_once(&format!("bench: {w}"));
        }
        window.unwrap_or(DEFAULT_BENCH_HISTORY_WINDOW)
    })
}

/// Resolves a raw [`BENCH_HISTORY_WINDOW_ENV`] value, returning it
/// together with the warnings a rejected or capped value produced. Pure
/// (no environment access), so rejection behavior is unit-testable.
fn resolve(raw: Option<&str>) -> (Option<usize>, Vec<String>) {
    let mut warnings = Vec::new();
    let window = match parse_count(BENCH_HISTORY_WINDOW_ENV, raw, &mut warnings) {
        Some(n) if n > MAX_BENCH_HISTORY_WINDOW => {
            warnings.push(format!(
                "{BENCH_HISTORY_WINDOW_ENV}={n} exceeds the cap of \
                 {MAX_BENCH_HISTORY_WINDOW}; using {MAX_BENCH_HISTORY_WINDOW}"
            ));
            Some(MAX_BENCH_HISTORY_WINDOW)
        }
        other => other,
    };
    (window, warnings)
}

/// Parses one count variable. `None`/empty means "not set" (no warning);
/// unparsable or zero values produce a warning and count as unset.
fn parse_count(name: &str, raw: Option<&str>, warnings: &mut Vec<String>) -> Option<usize> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<usize>() {
        Ok(0) => {
            warnings.push(format!("{name}=0 is not a valid count; using the default"));
            None
        }
        Ok(n) => Some(n),
        Err(_) => {
            warnings.push(format!("{name}={raw:?} is not a number; using the default"));
            None
        }
    }
}

/// Prints `message` to stderr at most once per process per distinct
/// message, so a warning path that fires repeatedly cannot spam stderr.
///
/// Returns `true` when the message was printed (first sighting), `false`
/// when it was suppressed as a duplicate.
fn warn_once(message: &str) -> bool {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let fresh = SEEN
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(message.to_string());
    if fresh {
        eprintln!("{message}");
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_history_window_parses_rejects_zero_and_caps() {
        let (window, w) = resolve(Some("7"));
        assert_eq!(window, Some(7));
        assert!(w.is_empty());
        let (window, w) = resolve(Some("0"));
        assert_eq!(window, None);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(BENCH_HISTORY_WINDOW_ENV), "{w:?}");
        let (window, w) = resolve(Some("99999"));
        assert_eq!(window, Some(MAX_BENCH_HISTORY_WINDOW));
        assert_eq!(w.len(), 1);
        let (window, w) = resolve(Some("soon"));
        assert_eq!(window, None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn warn_once_deduplicates_per_message() {
        assert!(warn_once("config-test: first unique warning"));
        assert!(!warn_once("config-test: first unique warning"));
        assert!(warn_once("config-test: second unique warning"));
        assert!(!warn_once("config-test: second unique warning"));
    }
}
