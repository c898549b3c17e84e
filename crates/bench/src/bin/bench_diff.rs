//! Cross-run benchmark regression check over `BENCH_*.json` artifacts.
//!
//! ```text
//! bench_diff <previous.json> <current.json> [--max-ratio 2.0]
//! bench_diff --trend <history.jsonl> <current.json>... [--max-ratio 2.0]
//!            [--window N] [--append]
//! ```
//!
//! **Pairwise mode** compares the current artifact to one archived
//! baseline (see [`bench::compare_runs`]). **Trend mode** judges the
//! concatenation of the current artifacts against a rolling
//! `BENCH_HISTORY.jsonl` — one line per past run — using the rolling
//! median ± scaled MAD of the last `--window` runs (default from
//! `VARSAW_BENCH_HISTORY_WINDOW`, see [`bench::trend_regressions`]);
//! `--append` folds the current run into the history afterwards, so CI
//! can re-archive the file.
//!
//! Benchmarks present in only one side are reported as *added* /
//! *removed* and never fail the check — a new bench target's first run
//! has no baseline, and a retired one should disappear loudly, not
//! silently.
//!
//! Exit codes, so CI can tell outcomes apart:
//! - `0` — clean (including "baseline present but too short to judge").
//! - `1` — at least one kernel regressed past the gate.
//! - `2` — usage error, or the *current* artifact is missing/unparsable
//!   (the bench step itself broke).
//! - `3` — the *baseline* (previous artifact or history file) is missing
//!   or unparsable: nothing to compare against. The first run on a branch
//!   lands here; CI treats it as "no baseline yet", not a failure.

use bench::{
    append_history, compare_runs, diff_ids, parse_bench_json, parse_history, trend_regressions,
    BenchRecord, TREND_MIN_RUNS,
};
use std::process::ExitCode;

/// Clean / regressed / bench-step-broken / no-baseline.
const EXIT_OK: u8 = 0;
const EXIT_REGRESSED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_NO_BASELINE: u8 = 3;

struct Options {
    trend: bool,
    append: bool,
    window: usize,
    max_ratio: f64,
    paths: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        trend: false,
        append: false,
        window: bench::bench_history_window(),
        max_ratio: 2.0,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trend" => opts.trend = true,
            "--append" => opts.append = true,
            "--max-ratio" => {
                let v = it.next().ok_or("--max-ratio needs a value")?;
                opts.max_ratio = v
                    .parse()
                    .map_err(|e| format!("bad --max-ratio {v:?}: {e}"))?;
            }
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                opts.window = v.parse().map_err(|e| format!("bad --window {v:?}: {e}"))?;
                if opts.window == 0 {
                    return Err("--window must be at least 1".into());
                }
            }
            _ => opts.paths.push(arg.clone()),
        }
    }
    Ok(opts)
}

/// Loads one current artifact; errors here mean the bench step broke.
fn load(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_bench_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run(args: &[String]) -> Result<u8, String> {
    let opts = parse_args(args)?;
    if opts.trend {
        run_trend(&opts)
    } else {
        run_pair(&opts)
    }
}

fn run_pair(opts: &Options) -> Result<u8, String> {
    let [old_path, new_path] = opts.paths.as_slice() else {
        return Err("usage: bench_diff <previous.json> <current.json> [--max-ratio 2.0]".into());
    };
    let max_ratio = opts.max_ratio;

    if !std::path::Path::new(old_path).exists() {
        println!("bench_diff: no previous artifact at {old_path}; nothing to compare (first run?)");
        return Ok(EXIT_NO_BASELINE);
    }
    let new = load(new_path)?;
    let old = match load(old_path) {
        Ok(old) => old,
        Err(e) => {
            // The baseline is someone else's archived artifact: being
            // unable to read it is a missing baseline, not our failure.
            println!("bench_diff: unusable baseline ({e}); nothing to compare");
            return Ok(EXIT_NO_BASELINE);
        }
    };

    let shared = new
        .iter()
        .filter(|n| old.iter().any(|o| o.id == n.id))
        .count();
    println!(
        "bench_diff: {} current kernels, {shared} with a baseline, threshold {max_ratio:.2}x",
        new.len()
    );
    for n in &new {
        if let Some(o) = old.iter().find(|o| o.id == n.id) {
            let ratio = n.mean_ns as f64 / o.mean_ns.max(1) as f64;
            println!(
                "  {:<50} {:>12} -> {:>12} ns  ({ratio:>5.2}x)",
                n.id, o.mean_ns, n.mean_ns
            );
        }
    }
    let (added, removed) = diff_ids(&old, &new);
    for id in &added {
        println!("  {id:<50} added (no baseline to compare)");
    }
    for id in &removed {
        println!("  {id:<50} removed (present only in the baseline)");
    }

    let regressions = compare_runs(&old, &new, max_ratio);
    if regressions.is_empty() {
        println!("bench_diff: no kernel regressed past {max_ratio:.2}x");
        return Ok(EXIT_OK);
    }
    eprintln!(
        "bench_diff: {} kernel(s) regressed past {max_ratio:.2}x:",
        regressions.len()
    );
    for r in &regressions {
        eprintln!(
            "  {:<50} {:>12} -> {:>12} ns  ({:.2}x)",
            r.id, r.old_mean_ns, r.new_mean_ns, r.ratio
        );
    }
    Ok(EXIT_REGRESSED)
}

fn run_trend(opts: &Options) -> Result<u8, String> {
    let [history_path, current_paths @ ..] = opts.paths.as_slice() else {
        return Err(
            "usage: bench_diff --trend <history.jsonl> <current.json>... \
             [--max-ratio 2.0] [--window N] [--append]"
                .into(),
        );
    };
    if current_paths.is_empty() {
        return Err("bench_diff --trend needs at least one current artifact".into());
    }

    let mut current = Vec::new();
    for path in current_paths {
        current.extend(load(path)?);
    }

    let history_text = match std::fs::read_to_string(history_path) {
        Ok(text) => text,
        Err(_) => String::new(),
    };
    let no_history_yet = history_text.trim().is_empty();
    let history = match parse_history(&history_text) {
        Ok(runs) => runs,
        Err(e) => {
            println!("bench_diff: unusable history ({e}); starting fresh");
            maybe_append(opts, history_path, "", &current)?;
            return Ok(EXIT_NO_BASELINE);
        }
    };
    // Judge against at most the newest `window` runs — the file may have
    // been archived under a larger window than today's knob.
    let windowed = &history[history.len().saturating_sub(opts.window)..];

    let verdict = if no_history_yet {
        println!("bench_diff: no history at {history_path}; nothing to judge (first run?)");
        EXIT_NO_BASELINE
    } else {
        println!(
            "bench_diff: {} current kernels vs {} archived run(s) (window {}), \
             ratio guard {:.2}x",
            current.len(),
            windowed.len(),
            opts.window,
            opts.max_ratio
        );
        if windowed.len() < TREND_MIN_RUNS {
            println!(
                "bench_diff: fewer than {TREND_MIN_RUNS} archived runs — trend gate is \
                 advisory only this run"
            );
        }
        let regressions = trend_regressions(windowed, &current, opts.max_ratio);
        if regressions.is_empty() {
            println!("bench_diff: no kernel regressed against its trend");
            EXIT_OK
        } else {
            eprintln!(
                "bench_diff: {} kernel(s) regressed against their trend:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!(
                    "  {:<50} median {:>12} ns (±{} ns MAD over {} runs) -> {:>12} ns  ({:.2}x)",
                    r.id, r.median_ns, r.mad_ns, r.runs, r.new_mean_ns, r.ratio
                );
            }
            EXIT_REGRESSED
        }
    };

    maybe_append(opts, history_path, &history_text, &current)?;
    Ok(verdict)
}

/// Folds the current run into the history file when `--append` is on.
fn maybe_append(
    opts: &Options,
    history_path: &str,
    history_text: &str,
    current: &[BenchRecord],
) -> Result<(), String> {
    if !opts.append {
        return Ok(());
    }
    let updated = append_history(history_text, current, opts.window);
    std::fs::write(history_path, updated)
        .map_err(|e| format!("cannot write {history_path}: {e}"))?;
    println!(
        "bench_diff: appended current run to {history_path} (window {})",
        opts.window
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}
