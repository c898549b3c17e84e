//! The scheduler's environment knob, read once per process.
//!
//! [`JOB_DEADLINE_MS_ENV`] (`VARSAW_JOB_DEADLINE_MS`) sets the default
//! per-job deadline behind [`job_deadline_ms`], which
//! [`JobQueue::new`](crate::JobQueue::new) installs when no explicit
//! deadline is set. Invalid values are reported once on stderr through
//! [`parallel::warn_once`] and treated as unset.

use std::sync::OnceLock;

/// Environment variable setting the default per-job deadline, in
/// milliseconds, the job scheduler enforces at dispatch and between
/// measurements. Unset means no deadline.
pub const JOB_DEADLINE_MS_ENV: &str = "VARSAW_JOB_DEADLINE_MS";

/// The default per-job deadline in milliseconds, or `None` when unset
/// (jobs then have no deadline).
///
/// Resolved from the `VARSAW_JOB_DEADLINE_MS` environment variable — read
/// once per process and cached. Zero and non-numbers are rejected with a
/// warning.
///
/// # Examples
///
/// ```
/// // Unset in this process: no deadline is enforced.
/// assert_eq!(sched::job_deadline_ms(), None);
/// ```
pub fn job_deadline_ms() -> Option<u64> {
    static DEADLINE: OnceLock<Option<u64>> = OnceLock::new();
    *DEADLINE.get_or_init(|| {
        let raw = std::env::var(JOB_DEADLINE_MS_ENV).ok();
        let (deadline, warnings) = resolve(raw.as_deref());
        for w in &warnings {
            parallel::warn_once(&format!("sched: {w}"));
        }
        deadline
    })
}

/// Resolves a raw [`JOB_DEADLINE_MS_ENV`] value, returning it together
/// with the warnings a rejected value produced. Pure (no environment
/// access), so rejection behavior is unit-testable.
fn resolve(raw: Option<&str>) -> (Option<u64>, Vec<String>) {
    let mut warnings = Vec::new();
    let deadline =
        parallel::config::parse_count(JOB_DEADLINE_MS_ENV, raw, &mut warnings).map(|n| n as u64);
    (deadline, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_deadlines_parse_and_reject_zero() {
        let (deadline, w) = resolve(Some("2500"));
        assert_eq!(deadline, Some(2500));
        assert!(w.is_empty());
        // A zero deadline would expire every job before dispatch; treat
        // it as the typo it almost certainly is.
        let (deadline, w) = resolve(Some("0"));
        assert_eq!(deadline, None);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(JOB_DEADLINE_MS_ENV), "{w:?}");
        let (deadline, w) = resolve(Some("soon"));
        assert_eq!(deadline, None);
        assert_eq!(w.len(), 1);
    }
}
