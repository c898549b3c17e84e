//! The runtime default of the recording switch, read from the
//! environment once.
//!
//! [`TELEMETRY_ENV`] (`VARSAW_TELEMETRY`) accepts the usual boolean
//! spellings (`1`/`0`, `true`/`false`, `on`/`off`, `yes`/`no`,
//! case-insensitive). Unset or empty means "record"; anything else is
//! reported on stderr and treated as unset. Only instrumented builds (the
//! `enabled` feature) read it — uninstrumented binaries have nothing to
//! switch.

/// Environment variable setting the runtime default of the recording
/// switch.
const TELEMETRY_ENV: &str = "VARSAW_TELEMETRY";

/// The recording switch's default for this process: `true` unless
/// [`TELEMETRY_ENV`] says otherwise. Called once, when the switch is
/// first read.
#[cfg(feature = "enabled")]
pub(crate) fn recording_default() -> bool {
    let raw = std::env::var(TELEMETRY_ENV).ok();
    let (value, warning) = resolve(raw.as_deref());
    if let Some(w) = warning {
        eprintln!("telemetry: {w}");
    }
    value.unwrap_or(true)
}

/// Parses a raw [`TELEMETRY_ENV`] value. `None`/empty means "not set" (no
/// warning); anything that is not a boolean spelling produces a warning
/// and counts as unset. Pure (no environment access), so rejection
/// behavior is unit-testable.
fn resolve(raw: Option<&str>) -> (Option<bool>, Option<String>) {
    let Some(raw) = raw.map(str::trim).filter(|r| !r.is_empty()) else {
        return (None, None);
    };
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => (Some(true), None),
        "0" | "false" | "off" | "no" => (Some(false), None),
        _ => (
            None,
            Some(format!(
                "{TELEMETRY_ENV}={raw:?} is not a boolean (use 1/0, true/false, on/off); \
                 using the default"
            )),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(resolve(Some(raw)), (want, None), "raw {raw:?}");
        }
        let (value, warning) = resolve(Some("maybe"));
        assert_eq!(value, None);
        assert!(warning.unwrap().contains(TELEMETRY_ENV));
        assert_eq!(resolve(Some("  ")), (None, None));
        assert_eq!(resolve(None), (None, None));
    }
}
