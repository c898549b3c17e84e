//! Benchmark crate for the VarSaw reproduction. See `benches/kernels.rs`
//! (computational kernels), `benches/figures.rs` (one unit per paper
//! table/figure) and `benches/reconstruction.rs` (the Bayesian
//! reconstruction engine). Run them with `cargo bench -p bench`.
//!
//! Besides the bench targets, this library hosts the cross-run
//! regression check CI uses on the archived `BENCH_*.json` artifacts:
//! [`parse_bench_json`] reads the criterion shim's record format and
//! [`compare_runs`] flags kernels whose mean regressed past a ratio
//! threshold (see the `bench_diff` binary). On top of the pairwise
//! check sits the rolling-history trend gate: `BENCH_HISTORY.jsonl`
//! accumulates one line per archived run ([`append_history`], by
//! default the last [`DEFAULT_BENCH_HISTORY_WINDOW`] runs), and
//! [`trend_regressions`] judges the current run against the rolling
//! median ± scaled MAD of that history — robust to a single noisy
//! baseline run in a way the pairwise check cannot be.
//!
//! The criterion harness itself is exercised here:
//!
//! ```
//! use criterion::Criterion;
//! use std::time::Duration;
//!
//! let mut c = Criterion::default()
//!     .sample_size(2)
//!     .warm_up_time(Duration::from_millis(1))
//!     .measurement_time(Duration::from_millis(5));
//! c.bench_function("doc/noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
//! ```

/// The rolling window of runs `bench_diff --trend` keeps in
/// `BENCH_HISTORY.jsonl` and judges new runs against, unless `--window`
/// says otherwise: enough depth for a stable median ± MAD band without
/// letting months-old hardware drift vote.
pub const DEFAULT_BENCH_HISTORY_WINDOW: usize = 20;

/// One benchmark record from a `BENCH_*.json` artifact, as written by the
/// criterion shim (`{"id", "mean_ns", "best_ns", "samples"}`).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id, e.g. `reconstruction/bayesian_8q_7windows`.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: u128,
    /// Best (minimum) sample in nanoseconds.
    pub best_ns: u128,
    /// Number of samples taken.
    pub samples: u64,
}

/// A kernel whose mean regressed past the comparison threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark id present in both runs.
    pub id: String,
    /// Mean of the previous run, nanoseconds.
    pub old_mean_ns: u128,
    /// Mean of the current run, nanoseconds.
    pub new_mean_ns: u128,
    /// `new / old` slowdown ratio.
    pub ratio: f64,
}

/// A kernel whose mean regressed against its rolling history — flagged by
/// [`trend_regressions`] when the current mean clears both the noise band
/// (median + [`TREND_MAD_SIGMAS`] · scaled MAD) and the ratio guard
/// (median · `max_ratio`).
#[derive(Clone, Debug, PartialEq)]
pub struct TrendRegression {
    /// Benchmark id.
    pub id: String,
    /// Rolling median of the historical means, nanoseconds.
    pub median_ns: u128,
    /// Scaled median absolute deviation of the historical means
    /// (MAD · 1.4826, the consistency constant for a normal spread),
    /// nanoseconds.
    pub mad_ns: u128,
    /// Mean of the current run, nanoseconds.
    pub new_mean_ns: u128,
    /// `new / median` slowdown ratio.
    pub ratio: f64,
    /// How many historical runs carried this id.
    pub runs: usize,
}

/// Parses a `BENCH_*.json` artifact.
///
/// This is a minimal hand-rolled reader for the flat record array the
/// criterion shim writes (the workspace is offline — no serde). It
/// tolerates whitespace and field order but not nested objects, which the
/// shim never produces. Unknown fields are ignored; a record missing `id`
/// or `mean_ns` is an error.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| "not a JSON array".to_string())?;
    let mut records = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('{') {
        let end = object_end(&rest[start..])? + start;
        let object = &rest[start + 1..end];
        records.push(parse_record(object)?);
        rest = &rest[end + 1..];
    }
    Ok(records)
}

/// The byte offset of the `}` closing the object `text` starts with,
/// skipping braces inside quoted strings (bench ids may contain them).
fn object_end(text: &str) -> Result<usize, String> {
    debug_assert!(text.starts_with('{'));
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '}' if !in_string => return Ok(i),
            _ => {}
        }
    }
    Err("unterminated object".to_string())
}

/// Parses one `key: value` record body (the text between `{` and `}`).
fn parse_record(object: &str) -> Result<BenchRecord, String> {
    let mut id = None;
    let mut mean_ns = None;
    let mut best_ns = 0u128;
    let mut samples = 0u64;
    let mut rest = object;
    while let Some(key_start) = rest.find('"') {
        let key_end = rest[key_start + 1..]
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?
            + key_start
            + 1;
        let key = &rest[key_start + 1..key_end];
        let after = rest[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("missing ':' after key {key}"))?
            .trim_start();
        let (value, remaining) = take_value(after)?;
        match key {
            "id" => id = Some(value),
            "mean_ns" => mean_ns = Some(parse_u128(&value, "mean_ns")?),
            "best_ns" => best_ns = parse_u128(&value, "best_ns")?,
            "samples" => samples = parse_u128(&value, "samples")? as u64,
            _ => {}
        }
        rest = remaining;
    }
    Ok(BenchRecord {
        id: id.ok_or_else(|| "record without id".to_string())?,
        mean_ns: mean_ns.ok_or_else(|| "record without mean_ns".to_string())?,
        best_ns,
        samples,
    })
}

/// Splits one JSON scalar (string or number) off the front of `rest`,
/// unescaping strings the way the shim escapes them.
fn take_value(rest: &str) -> Result<(String, &str), String> {
    if let Some(body) = rest.strip_prefix('"') {
        let mut value = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    // The shim escapes control characters as \uXXXX.
                    Some((u_at, 'u')) => {
                        let hex = body
                            .get(u_at + 1..u_at + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        value.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u codepoint {code:#x}"))?,
                        );
                        // Consume the four hex digits.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err("dangling escape".to_string()),
                },
                '"' => return Ok((value, &body[i + 1..])),
                c => value.push(c),
            }
        }
        Err("unterminated string".to_string())
    } else {
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(format!("expected a value at: {rest:.20}"));
        }
        Ok((rest[..end].to_string(), &rest[end..]))
    }
}

fn parse_u128(value: &str, field: &str) -> Result<u128, String> {
    value
        .parse()
        .map_err(|e| format!("bad {field} value {value:?}: {e}"))
}

/// Splits the ids of two runs into `(added, removed)`: ids only in the
/// new run and ids only in the old one. Neither is a failure — new bench
/// targets land without a baseline and retired ones disappear — but the
/// diff report names them so a silently vanished kernel is noticed.
pub fn diff_ids(old: &[BenchRecord], new: &[BenchRecord]) -> (Vec<String>, Vec<String>) {
    let added = new
        .iter()
        .filter(|n| !old.iter().any(|o| o.id == n.id))
        .map(|n| n.id.clone())
        .collect();
    let removed = old
        .iter()
        .filter(|o| !new.iter().any(|n| n.id == o.id))
        .map(|o| o.id.clone())
        .collect();
    (added, removed)
}

/// Compares two bench runs: every id present in both whose mean slowed
/// down by more than `max_ratio` is a [`Regression`]. Ids present in only
/// one run (added or removed benches) are never failures — CI runners are
/// shared and noisy, so the threshold should be generous (the CI job uses
/// 2.0).
///
/// Sub-microsecond kernels are skipped: at that scale scheduler jitter on
/// a shared runner swamps any real signal.
pub fn compare_runs(old: &[BenchRecord], new: &[BenchRecord], max_ratio: f64) -> Vec<Regression> {
    const MIN_MEAN_NS: u128 = 1_000;
    let mut regressions: Vec<Regression> = new
        .iter()
        .filter(|n| n.mean_ns >= MIN_MEAN_NS)
        .filter_map(|n| {
            let o = old.iter().find(|o| o.id == n.id)?;
            let ratio = n.mean_ns as f64 / o.mean_ns.max(1) as f64;
            (ratio > max_ratio).then(|| Regression {
                id: n.id.clone(),
                old_mean_ns: o.mean_ns,
                new_mean_ns: n.mean_ns,
                ratio,
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    regressions
}

/// Minimum historical runs before the trend gate judges an id — below
/// this, a median/MAD is too fragile to gate on and the id is skipped.
pub const TREND_MIN_RUNS: usize = 3;

/// How many scaled MADs above the rolling median the noise band extends.
pub const TREND_MAD_SIGMAS: f64 = 4.0;

/// The normal-consistency constant turning a raw MAD into a σ-comparable
/// spread estimate.
const MAD_SCALE: f64 = 1.4826;

/// Parses a `BENCH_HISTORY.jsonl` rolling history: one line per archived
/// run, each line the same flat record array a `BENCH_*.json` artifact
/// holds (so a history line round-trips through [`parse_bench_json`]).
/// Blank lines are skipped; a malformed line is an error naming its line
/// number — a corrupted history should be noticed, not silently shrunk.
pub fn parse_history(text: &str) -> Result<Vec<Vec<BenchRecord>>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_bench_json(line).map_err(|e| format!("history line {}: {e}", i + 1)))
        .collect()
}

/// Serializes records in the criterion shim's artifact format, so a
/// history line is exactly what [`parse_bench_json`] reads back.
pub fn render_bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":\"");
        for c in r.id.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"mean_ns\":{},\"best_ns\":{},\"samples\":{}}}",
            r.mean_ns, r.best_ns, r.samples
        ));
    }
    out.push(']');
    out
}

/// Appends `run` to a serialized rolling history, keeping only the newest
/// `window` runs (the new one included). Existing lines are kept verbatim
/// — the window bounds the file without re-serializing history.
pub fn append_history(history_text: &str, run: &[BenchRecord], window: usize) -> String {
    let window = window.max(1);
    let mut lines: Vec<&str> = history_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    if lines.len() >= window {
        lines.drain(..lines.len() - (window - 1));
    }
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&render_bench_json(run));
    out.push('\n');
    out
}

/// The median of a non-empty sorted slice (lower-middle for even counts —
/// bias toward the faster half keeps the gate slightly stricter).
fn median_sorted(sorted: &[u128]) -> u128 {
    sorted[(sorted.len() - 1) / 2]
}

/// Judges the current run against its rolling history: for every id with
/// at least [`TREND_MIN_RUNS`] historical means, the current mean is
/// compared to the history's median ± scaled MAD. A kernel regresses only
/// when it clears **both** guards — `median + `[`TREND_MAD_SIGMAS`]` · mad`
/// (so a historically noisy kernel gets a proportionally wide band) and
/// `median · max_ratio` (so a rock-stable history still needs a real
/// slowdown, not a microscopic one, to trip). Sub-microsecond kernels and
/// ids without enough history are skipped, like [`compare_runs`].
pub fn trend_regressions(
    history: &[Vec<BenchRecord>],
    current: &[BenchRecord],
    max_ratio: f64,
) -> Vec<TrendRegression> {
    const MIN_MEAN_NS: u128 = 1_000;
    let mut regressions: Vec<TrendRegression> = current
        .iter()
        .filter(|n| n.mean_ns >= MIN_MEAN_NS)
        .filter_map(|n| {
            let mut means: Vec<u128> = history
                .iter()
                .flat_map(|run| run.iter().filter(|r| r.id == n.id))
                .map(|r| r.mean_ns)
                .collect();
            if means.len() < TREND_MIN_RUNS {
                return None;
            }
            means.sort_unstable();
            let median = median_sorted(&means);
            let mut deviations: Vec<u128> = means.iter().map(|&m| m.abs_diff(median)).collect();
            deviations.sort_unstable();
            let mad = (median_sorted(&deviations) as f64 * MAD_SCALE) as u128;
            let noise_band = median as f64 + TREND_MAD_SIGMAS * mad as f64;
            let ratio_guard = median.max(1) as f64 * max_ratio;
            let new = n.mean_ns as f64;
            (new > noise_band && new > ratio_guard).then(|| TrendRegression {
                id: n.id.clone(),
                median_ns: median,
                mad_ns: mad,
                new_mean_ns: n.mean_ns,
                ratio: new / median.max(1) as f64,
                runs: means.len(),
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, mean_ns: u128) -> BenchRecord {
        BenchRecord {
            id: id.to_string(),
            mean_ns,
            best_ns: mean_ns,
            samples: 10,
        }
    }

    #[test]
    fn parses_shim_output_roundtrip() {
        let text = r#"[
  {"id":"statevector/efficient_su2_12q","mean_ns":788000,"best_ns":750000,"samples":10},
  {"id":"reconstruction/bayesian_8q_7windows","mean_ns":8850,"best_ns":8800,"samples":10}
]
"#;
        let records = parse_bench_json(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "statevector/efficient_su2_12q");
        assert_eq!(records[0].mean_ns, 788_000);
        assert_eq!(records[1].best_ns, 8_800);
        assert_eq!(records[1].samples, 10);
    }

    #[test]
    fn parses_escaped_ids_and_empty_arrays() {
        let records = parse_bench_json(r#"[{"id":"a\"b","mean_ns":5}]"#).unwrap();
        assert_eq!(records[0].id, "a\"b");
        assert_eq!(records[0].best_ns, 0, "missing fields default");
        assert!(parse_bench_json("[\n]\n").unwrap().is_empty());
    }

    #[test]
    fn parses_ids_with_braces_and_unicode_escapes() {
        // Braces inside a quoted id must not end the object early, and
        // \uXXXX control escapes (as the shim writes them) must decode.
        let text = "[{\"id\":\"su2{12q}\",\"mean_ns\":7},\
                    {\"id\":\"x\\u000ay\",\"mean_ns\":9,\"best_ns\":8,\"samples\":3}]";
        let records = parse_bench_json(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "su2{12q}");
        assert_eq!(records[1].id, "x\ny");
        assert_eq!(records[1].best_ns, 8);
        assert!(parse_bench_json(r#"[{"id":"x\u00zz","mean_ns":1}]"#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json(r#"[{"mean_ns":5}]"#).is_err(), "no id");
        assert!(parse_bench_json(r#"[{"id":"x"}]"#).is_err(), "no mean");
        assert!(parse_bench_json(r#"[{"id":"x","mean_ns":"q"}]"#).is_err());
    }

    #[test]
    fn flags_only_large_regressions_on_shared_ids() {
        let old = vec![record("a", 10_000), record("b", 10_000), record("gone", 99)];
        let new = vec![
            record("a", 25_000),        // 2.5x: regression
            record("b", 19_000),        // 1.9x: within threshold
            record("added", 1_000_000), // no baseline: ignored
        ];
        let regressions = compare_runs(&old, &new, 2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "a");
        assert!((regressions[0].ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn diff_ids_reports_added_and_removed() {
        let old = vec![record("a", 1), record("gone", 2)];
        let new = vec![record("a", 1), record("fresh", 3)];
        let (added, removed) = diff_ids(&old, &new);
        assert_eq!(added, vec!["fresh".to_string()]);
        assert_eq!(removed, vec!["gone".to_string()]);
        let (added, removed) = diff_ids(&old, &old);
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn sub_microsecond_kernels_are_ignored() {
        let old = vec![record("tiny", 50)];
        let new = vec![record("tiny", 900)]; // 18x but still < 1µs
        assert!(compare_runs(&old, &new, 2.0).is_empty());
    }

    #[test]
    fn regressions_sorted_worst_first() {
        let old = vec![record("a", 1_000), record("b", 1_000)];
        let new = vec![record("a", 3_000), record("b", 9_000)];
        let r = compare_runs(&old, &new, 2.0);
        assert_eq!(r[0].id, "b");
        assert_eq!(r[1].id, "a");
    }

    #[test]
    fn render_parse_roundtrip_with_escapes() {
        let run = vec![record("a\"b\\c\nq", 5_000), record("plain/id", 7)];
        let parsed = parse_bench_json(&render_bench_json(&run)).unwrap();
        assert_eq!(parsed, run);
        assert_eq!(render_bench_json(&[]), "[]");
    }

    #[test]
    fn history_parses_lines_and_names_bad_ones() {
        let text = format!(
            "{}\n\n{}\n",
            render_bench_json(&[record("a", 1_500)]),
            render_bench_json(&[record("a", 1_600), record("b", 9)]),
        );
        let history = parse_history(&text).unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[1][1].id, "b");
        assert!(parse_history("[]\nnot json\n")
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn append_history_bounds_the_window() {
        let mut text = String::new();
        for i in 0..5u128 {
            text = append_history(&text, &[record("a", 1_000 + i)], 3);
        }
        let history = parse_history(&text).unwrap();
        assert_eq!(history.len(), 3, "window keeps only the newest runs");
        let means: Vec<u128> = history.iter().map(|run| run[0].mean_ns).collect();
        assert_eq!(means, vec![1_002, 1_003, 1_004]);
    }

    #[test]
    fn trend_flags_doubling_and_passes_unchanged_run() {
        // A tight ≥3-run history around 10µs.
        let history: Vec<Vec<BenchRecord>> = [10_000u128, 10_100, 9_950, 10_050]
            .iter()
            .map(|&m| vec![record("kernel", m)])
            .collect();
        // Unchanged run: clean.
        assert!(trend_regressions(&history, &[record("kernel", 10_020)], 2.0).is_empty());
        // Synthetic 2× regression: flagged.
        let flagged = trend_regressions(&history, &[record("kernel", 20_400)], 2.0);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].runs, 4);
        assert!(flagged[0].ratio > 2.0);
    }

    #[test]
    fn trend_needs_enough_history_and_skips_tiny_kernels() {
        let short: Vec<Vec<BenchRecord>> = (0..2).map(|_| vec![record("kernel", 10_000)]).collect();
        assert!(
            trend_regressions(&short, &[record("kernel", 90_000)], 2.0).is_empty(),
            "two runs are not a trend"
        );
        let tiny: Vec<Vec<BenchRecord>> = (0..4).map(|_| vec![record("tiny", 50)]).collect();
        assert!(
            trend_regressions(&tiny, &[record("tiny", 900)], 2.0).is_empty(),
            "sub-microsecond kernels are jitter, not signal"
        );
    }

    #[test]
    fn trend_noise_band_protects_noisy_kernels() {
        // Median 20µs, scaled MAD ≈ 14.8µs: the ratio guard alone (40µs)
        // would flag 45µs, but the noise band (≈ 79µs) knows better.
        let noisy: Vec<Vec<BenchRecord>> = [10_000u128, 20_000, 30_000]
            .iter()
            .map(|&m| vec![record("kernel", m)])
            .collect();
        assert!(trend_regressions(&noisy, &[record("kernel", 45_000)], 2.0).is_empty());
        // Far past both guards: still flagged.
        assert_eq!(
            trend_regressions(&noisy, &[record("kernel", 90_000)], 2.0).len(),
            1
        );
    }
}
