//! Process-wide execution configuration, read from the environment once.
//!
//! Two knobs control how the workspace's engines spread work and
//! report on themselves:
//!
//! - [`NUM_THREADS_ENV`] (`VARSAW_NUM_THREADS`): the worker-thread count
//!   behind [`crate::num_threads`], shared by the sharded statevector
//!   executor (whose shard count follows it), batched preparation and
//!   [`crate::parallel_map`];
//! - [`TELEMETRY_ENV`] (`VARSAW_TELEMETRY`): the runtime default of the
//!   stage-telemetry switch behind [`crate::telemetry_default`] — only
//!   observable in builds with the `telemetry` feature, where `0`/`off`
//!   keeps an instrumented binary from recording.
//!
//! Knobs that belong to one domain crate live there and reuse
//! [`parse_count`] and [`warn_once`]: `bench` owns the bench-history
//! window.
//!
//! Earlier revisions re-parsed `VARSAW_NUM_THREADS` at every call site,
//! which both repeated the work on hot paths and silently swallowed
//! typos (`VARSAW_NUM_THREADS=fast` fell back to the hardware default
//! with no indication anything was wrong). [`get`] now reads the
//! environment **once per process**, caches the resolved [`Config`], and
//! reports every rejected or adjusted value on stderr — later changes to
//! the environment variables have no effect.
//!
//! # Examples
//!
//! ```
//! std::env::set_var(parallel::NUM_THREADS_ENV, "3");
//! let config = parallel::config::get();
//! assert_eq!(config.threads, 3);
//! // Read once: later environment changes are not observed.
//! std::env::remove_var(parallel::NUM_THREADS_ENV);
//! assert_eq!(parallel::num_threads(), 3);
//! ```

use std::sync::OnceLock;

/// Environment variable overriding the default worker count.
pub const NUM_THREADS_ENV: &str = "VARSAW_NUM_THREADS";

/// Environment variable setting the runtime default of the stage
/// telemetry switch (see the `telemetry` crate). Accepted values are the
/// usual boolean spellings (`1`/`0`, `true`/`false`, `on`/`off`,
/// `yes`/`no`, case-insensitive); anything else is reported on stderr and
/// treated as unset. Only instrumented builds (the `telemetry` feature)
/// observe it — uninstrumented binaries have nothing to switch.
pub const TELEMETRY_ENV: &str = "VARSAW_TELEMETRY";

/// Hard upper bound on the worker count (sanity cap for typos in the
/// environment variable).
pub const MAX_THREADS: usize = 64;

/// The resolved execution configuration of this process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Worker threads parallel code should use (≥ 1); from
    /// [`NUM_THREADS_ENV`], defaulting to the hardware parallelism.
    pub threads: usize,
    /// Runtime default of the stage-telemetry switch, or `None` to let
    /// instrumented builds default to recording; from [`TELEMETRY_ENV`].
    pub telemetry: Option<bool>,
}

impl Config {
    /// Resolves a configuration from raw environment values, returning it
    /// together with the warnings any invalid or adjusted value produced.
    /// Pure (no environment access), so rejection behavior is unit-testable.
    fn resolve(
        threads_raw: Option<&str>,
        telemetry_raw: Option<&str>,
        default_threads: usize,
    ) -> (Config, Vec<String>) {
        let mut warnings = Vec::new();

        let threads = match parse_count(NUM_THREADS_ENV, threads_raw, &mut warnings) {
            Some(n) if n > MAX_THREADS => {
                warnings.push(format!(
                    "{NUM_THREADS_ENV}={n} exceeds the cap of {MAX_THREADS}; using {MAX_THREADS}"
                ));
                MAX_THREADS
            }
            Some(n) => n,
            None => default_threads.clamp(1, MAX_THREADS),
        };

        let telemetry = parse_bool(TELEMETRY_ENV, telemetry_raw, &mut warnings);

        (Config { threads, telemetry }, warnings)
    }
}

/// Prints `message` to stderr at most once per process per distinct
/// message — the single funnel for the workspace's warning paths
/// (invalid environment knobs), so repeated triggers (every re-resolve
/// in a test) cannot spam stderr.
///
/// Returns `true` when the message was printed (first sighting), `false`
/// when it was suppressed as a duplicate — callers normally ignore the
/// result; tests use it to observe the dedup.
pub fn warn_once(message: &str) -> bool {
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

/// Parses one boolean variable. `None`/empty means "not set" (no
/// warning); the usual boolean spellings parse case-insensitively, and
/// anything else produces a warning and counts as unset.
fn parse_bool(name: &str, raw: Option<&str>, warnings: &mut Vec<String>) -> Option<bool> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => {
            warnings.push(format!(
                "{name}={raw:?} is not a boolean (use 1/0, true/false, on/off); \
                 using the default"
            ));
            None
        }
    }
}

/// Parses one count variable. `None`/empty means "not set" (no warning);
/// unparsable or zero values produce a warning and count as unset.
pub fn parse_count(name: &str, raw: Option<&str>, warnings: &mut Vec<String>) -> Option<usize> {
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

/// The process-wide configuration, reading the environment on first call
/// and caching the result (see the [module docs](self)).
pub fn get() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let threads_raw = std::env::var(NUM_THREADS_ENV).ok();
        let telemetry_raw = std::env::var(TELEMETRY_ENV).ok();
        let default_threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let (config, warnings) = Config::resolve(
            threads_raw.as_deref(),
            telemetry_raw.as_deref(),
            default_threads,
        );
        for w in &warnings {
            warn_once(&format!("parallel: {w}"));
        }
        config
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves the thread and telemetry knobs against a 4-thread host.
    fn resolve(threads: Option<&str>, telemetry: Option<&str>) -> (Config, Vec<String>) {
        Config::resolve(threads, telemetry, 4)
    }

    fn defaults() -> Config {
        Config {
            threads: 4,
            telemetry: None,
        }
    }

    #[test]
    fn unset_values_use_defaults_without_warnings() {
        let (c, w) = resolve(None, None);
        assert_eq!(c, defaults());
        assert!(w.is_empty());
    }

    #[test]
    fn empty_values_count_as_unset() {
        let (c, w) = resolve(Some(""), Some("  "));
        assert_eq!(c, defaults());
        assert!(w.is_empty());
    }

    #[test]
    fn valid_values_are_used_verbatim() {
        let (c, w) = resolve(Some("3"), Some("off"));
        assert_eq!(
            c,
            Config {
                threads: 3,
                telemetry: Some(false),
            }
        );
        assert!(w.is_empty());
    }

    #[test]
    fn invalid_values_are_reported_not_silently_defaulted() {
        let (c, w) = resolve(Some("fast"), Some("many"));
        assert_eq!(c, defaults());
        assert_eq!(w.len(), 2, "one warning per rejected variable: {w:?}");
        assert!(w[0].contains(NUM_THREADS_ENV), "{w:?}");
        assert!(w[1].contains(TELEMETRY_ENV), "{w:?}");
    }

    #[test]
    fn zero_is_rejected_with_a_warning() {
        let (c, w) = resolve(Some("0"), None);
        assert_eq!(c, defaults());
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(NUM_THREADS_ENV), "{w:?}");
    }

    #[test]
    fn excessive_values_are_capped_with_a_warning() {
        let (c, w) = resolve(Some("9999"), None);
        assert_eq!(c.threads, MAX_THREADS);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("exceeds the cap"), "{w:?}");
    }

    #[test]
    fn default_threads_are_clamped_to_the_cap() {
        let (c, _) = Config::resolve(None, None, 1000);
        assert_eq!(c.threads, MAX_THREADS);
        let (c, _) = Config::resolve(None, None, 0);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn telemetry_booleans_parse_and_reject_garbage() {
        for (raw, want) in [
            ("1", Some(true)),
            ("true", Some(true)),
            ("ON", Some(true)),
            ("yes", Some(true)),
            ("0", Some(false)),
            ("False", Some(false)),
            ("off", Some(false)),
            (" no ", Some(false)),
        ] {
            let (c, w) = resolve(None, Some(raw));
            assert_eq!(c.telemetry, want, "raw {raw:?}");
            assert!(w.is_empty(), "raw {raw:?}: {w:?}");
        }
        let (c, w) = resolve(None, Some("maybe"));
        assert_eq!(c.telemetry, None);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains(TELEMETRY_ENV), "{w:?}");
        let (c, w) = resolve(None, Some("  "));
        assert_eq!(c.telemetry, None);
        assert!(w.is_empty());
    }

    #[test]
    fn warn_once_deduplicates_per_message() {
        assert!(warn_once("config-test: first unique warning"));
        assert!(!warn_once("config-test: first unique warning"));
        assert!(warn_once("config-test: second unique warning"));
        assert!(!warn_once("config-test: second unique warning"));
    }
}
