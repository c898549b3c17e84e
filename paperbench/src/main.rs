//! One benchmark process: one workload and one seed, measured as a closed
//! loop of whole VQE runs (each run starts when the previous one ends)
//! for a given number of seconds, in rounds that repeat the same seeds.
//! Prints one JSON object on stdout.
//!
//! The plain build measures the end-to-end metrics. The build with the
//! `trace` feature switches the crates' stage telemetry on and measures
//! the per-layer split. `run.py` drives both builds and prints the
//! benchmark's result.
//!
//! ```text
//! paperbench --workload <name> --seed <n> --seconds <s>
//! ```

use paperbench::{
    digest, median, peak_rss_kib, quantile, Method, Repeats, Run, RunOutcome, Workload, SHOTS,
    WINDOW,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::{Stage, TelemetrySnapshot};
use varsaw::SpatialPlan;
use vqe::GroupedHamiltonian;

/// Set-ups timed before each run; the last one is the run's own.
const SETUPS_PER_RUN: usize = 10;
/// Repetitions of each set-up layer timed in the traced build.
const LAYER_REPS: usize = 31;
/// Fewest seeds per process, however long their runs take.
const MIN_SEEDS: usize = 3;
/// How often each seed runs. The first round picks as many seeds as fit
/// in its share of the time; each later round runs them all again, so
/// the repeats of one seed lie a round apart.
const ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

/// Median wall milliseconds of `reps` calls of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The master seed of seed slot `k` of a process: `k = 0` runs `seed`
/// itself, later slots salt it with the golden ratio as
/// `varsaw::run_method` salts its restarts.
fn run_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a process measured: the runs of each seed slot, and the peak
/// resident memory through the end of the first run.
struct Measured {
    seeds: Vec<Repeats>,
    peak_rss_kib: u64,
}

impl Measured {
    fn runs(&self) -> impl Iterator<Item = &RunOutcome> {
        self.seeds.iter().flat_map(|s| &s.runs)
    }
}

/// Times [`SETUPS_PER_RUN`] set-ups of seed slot `k`, runs the last one,
/// and files both under the slot. A set-up, from nothing to iteration 1,
/// builds the Hamiltonian, the executor, the evaluator (grouping and
/// spatial plan inside), the initial parameters and the tuner.
fn run_once(w: &Workload, seed: u64, k: usize, slot: &mut Repeats) {
    let seed = run_seed(seed, k);
    let mut run = None;
    for _ in 0..SETUPS_PER_RUN {
        let begun = Instant::now();
        let built = Run::new(&w.hamiltonian(), w.method, seed);
        slot.setups.push(begun.elapsed().as_secs_f64());
        run = Some(black_box(built));
    }
    let run = run.expect("SETUPS_PER_RUN is positive");
    slot.runs.push(run.execute(w.iterations));
}

/// Runs whole VQE runs back to back in [`ROUNDS`] rounds. The first round
/// runs a new seed each time until its share of `budget` is used, and at
/// least [`MIN_SEEDS`]; later rounds repeat those seeds in order while the
/// next run still fits in `budget`.
///
/// Peak memory is read after the first run: later runs only add the
/// harness's own records, whose number depends on how fast the host is.
fn measure_runs(w: &Workload, seed: u64, budget: Duration) -> Measured {
    let start = Instant::now();
    let mut seeds: Vec<Repeats> = Vec::new();
    let mut rss_kib = 0;
    let first_round = budget / ROUNDS as u32;
    loop {
        let mut slot = Repeats::default();
        run_once(w, seed, seeds.len(), &mut slot);
        seeds.push(slot);
        if seeds.len() == 1 {
            rss_kib = peak_rss_kib().expect("peak RSS is readable from /proc/self/status");
        }
        let elapsed = start.elapsed();
        let per_run = elapsed / seeds.len() as u32;
        if seeds.len() >= MIN_SEEDS && elapsed + per_run > first_round {
            break;
        }
    }
    let mut done = seeds.len() as u32;
    'rounds: for _ in 1..ROUNDS {
        for (k, slot) in seeds.iter_mut().enumerate() {
            let elapsed = start.elapsed();
            if elapsed + elapsed / done > budget {
                break 'rounds;
            }
            run_once(w, seed, k, slot);
            done += 1;
        }
    }
    Measured {
        seeds,
        peak_rss_kib: rss_kib,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over runs of one per-run value.
fn per_run(runs: &[&RunOutcome], f: impl Fn(&RunOutcome) -> f64) -> f64 {
    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The lower quartile over seeds: what the end-to-end timing metrics
/// report. How long a run takes depends on its seed (its Global count, or
/// how flat its states' distributions are), and the fast runs of most
/// seeds sit close together, so the lower quartile moves less with a
/// process's draw of seeds than the median does.
fn lower_quartile(per_seed: &[f64]) -> f64 {
    quantile(per_seed, 0.25)
}

/// A flat JSON object writer for numbers and strings.
#[derive(Default)]
struct Json(String);

impl Json {
    fn field(&mut self, key: &str, raw: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {raw}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.field(key, &format!("{value}"))
    }

    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, &format!("\"{value}\""))
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// A seed's run time: the sum of its iterations' fastest times over the
/// repeats. Other tenants of a shared host slow a process down, by up to
/// half, in episodes that switch within seconds, and never speed it up.
/// An iteration of every repeat is the same work, so its fastest time
/// is that work's, as long as one repeat ran it in a quiet moment; a
/// repeat a round later usually did. The tuning loop outside the tuner's
/// iterations (`vqe.optimizer_self_ms` covers the tuner's own share) is
/// below a thousandth of a run.
fn fastest_run(seed: &Repeats) -> Duration {
    seed.fastest_steps().iter().sum()
}

/// The end-to-end metrics, from the plain build.
fn end_to_end(measured: &Measured, out: &mut Json) {
    let iters: Vec<f64> = measured
        .runs()
        .flat_map(|r| r.steps.iter().map(|&d| ms(d)))
        .collect();
    let seeds = &measured.seeds;
    let walls: Vec<f64> = seeds.iter().map(|s| fastest_run(s).as_secs_f64()).collect();
    // Each seed's median iteration, over the iterations of the common
    // kind, each at its fastest.
    let iter_p50: Vec<f64> = seeds
        .iter()
        .map(|s| {
            s.fastest_steps()
                .into_iter()
                .zip(s.runs[0].common_iterations())
                .filter_map(|(step, common)| common.then_some(ms(step)))
                .collect::<Vec<_>>()
        })
        .filter(|common| !common.is_empty())
        .map(|common| median(&common))
        .collect();
    // Each seed's fastest set-up: set-up is milliseconds of work, timed
    // 10 times before each of the seed's runs.
    let setups: Vec<f64> = seeds
        .iter()
        .map(|s| s.setups.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let mut metrics = Json::default();
    metrics
        .num("run_s", lower_quartile(&walls))
        .num("iter_ms_p50", lower_quartile(&iter_p50))
        .num("iter_ms_p90", quantile(&iters, 0.9))
        .num("setup_s", lower_quartile(&setups))
        .num("peak_rss_mib", measured.peak_rss_kib as f64 / 1024.0);
    out.num("iter_samples", iters.len() as f64)
        .num(
            "setup_samples",
            seeds.iter().map(|s| s.setups.len()).sum::<usize>() as f64,
        )
        .field("metrics", &metrics.finish());
}

/// The per-layer metrics, from the traced build.
fn per_layer(w: &Workload, runs: &[&RunOutcome], out: &mut Json) {
    let hamiltonian = w.hamiltonian();
    let plan = SpatialPlan::new(&hamiltonian, WINDOW);
    let jigsaw_subsets = plan.stats().jigsaw_subsets as f64;
    let spatial_plan_ms = match w.method {
        // Baseline set-up builds no spatial plan.
        Method::Baseline => 0.0,
        Method::VarSaw => median_ms(LAYER_REPS, || SpatialPlan::new(&hamiltonian, WINDOW)),
    };
    let stage_ns = |r: &RunOutcome, stages: &[Stage]| -> f64 {
        stages
            .iter()
            .map(|&s| r.stages.stat(s).total_ns as f64)
            .sum()
    };
    let count = |r: &RunOutcome, s: Stage| r.stages.stat(s).count as f64;
    let sampling = |r: &RunOutcome| stage_ns(r, &[Stage::NoiseSampling]);
    let recon = |r: &RunOutcome| stage_ns(r, &[Stage::Reconstruction]);
    let evaluations = |r: &RunOutcome| r.meter.evaluations as f64;

    let mut m = Json::default();
    m.num("sampling.ms", per_run(runs, |r| sampling(r) / 1e6))
        .num(
            "sampling.ns_per_shot",
            per_run(runs, |r| sampling(r) / (r.meter.circuits * SHOTS) as f64),
        )
        .num(
            "mitigation.reconstruction_ms",
            per_run(runs, |r| recon(r) / 1e6),
        )
        .num(
            "mitigation.reconstruction_count",
            per_run(runs, |r| count(r, Stage::Reconstruction)),
        )
        .num(
            "mitigation.reconstruction_us_per_call",
            per_run(runs, |r| {
                recon(r) / 1e3 / count(r, Stage::Reconstruction).max(1.0)
            }),
        )
        .num(
            "qsim.plan_compile_count",
            per_run(runs, |r| count(r, Stage::PlanCompile)),
        )
        .num(
            "qsim.plan_rebind_count",
            per_run(runs, |r| count(r, Stage::PlanRebind)),
        )
        .num(
            "qsim.plan_ms",
            per_run(runs, |r| {
                stage_ns(r, &[Stage::PlanCompile, Stage::PlanRebind]) / 1e6
            }),
        )
        .num(
            "qsim.sweep_ms",
            per_run(runs, |r| {
                let sweeps = [
                    Stage::SweepSerial,
                    Stage::SweepThreaded,
                    Stage::SweepSharded,
                ];
                stage_ns(r, &sweeps) / 1e6
            }),
        )
        .num(
            "qsim.sweep_threaded_count",
            per_run(runs, |r| count(r, Stage::SweepThreaded)),
        )
        .num("varsaw.subset_circuits_per_eval", runs[0].subsets as f64)
        .num(
            "varsaw.globals_run",
            per_run(runs, |r| r.meter.globals as f64),
        )
        .num(
            "varsaw.global_fraction",
            per_run(runs, |r| r.meter.globals as f64 / evaluations(r)),
        )
        .num(
            "varsaw.jigsaw_circuit_ratio",
            per_run(runs, |r| {
                evaluations(r) * (r.groups as f64 + jigsaw_subsets) / r.meter.circuits as f64
            }),
        )
        .num("vqe.evaluate_ms", per_run(runs, |r| ms(r.evaluate)))
        .num(
            "vqe.optimizer_self_ms",
            per_run(runs, |r| {
                ms(r.steps.iter().sum::<Duration>()) - ms(r.evaluate)
            }),
        )
        .num("vqe.circuits", per_run(runs, |r| r.meter.circuits as f64))
        .num(
            "vqe.circuits_per_s",
            per_run(runs, |r| r.meter.circuits as f64 / r.wall.as_secs_f64()),
        )
        .num(
            "chem.hamiltonian_ms",
            median_ms(LAYER_REPS, || w.hamiltonian()),
        )
        .num(
            "pauli.grouping_ms",
            median_ms(LAYER_REPS, || GroupedHamiltonian::new(&hamiltonian)),
        )
        .num("varsaw.spatial_plan_ms", spatial_plan_ms)
        .num(
            "trace.attributed_frac",
            per_run(runs, |r| {
                r.stages.total_ns() as f64 / r.wall.as_nanos() as f64
            }),
        );

    // Every stage, zero-count ones included, as a mean per run.
    let mut total = TelemetrySnapshot::empty();
    for r in runs {
        total.merge(&r.stages);
    }
    let mean = total.scaled_down(runs.len() as u32);
    let mut stages = Json::default();
    for (stage, stat) in mean.rows() {
        let mut row = Json::default();
        row.num("count", stat.count as f64)
            .num("ms", stat.total_ns as f64 / 1e6);
        stages.field(stage.name(), &row.finish());
    }
    out.field("metrics", &m.finish())
        .field("stages", &stages.finish());
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("paperbench: {e}\nusage: paperbench --workload <name> --seed <n> --seconds <s>");
        std::process::exit(2);
    });
    let traced = telemetry::compiled();
    telemetry::set_active(traced);
    let measured = measure_runs(
        &args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds),
    );
    telemetry::set_active(false);
    let runs: Vec<&RunOutcome> = measured.runs().collect();

    // Every iteration of a failed check fails, and so does every
    // iteration of a repeat that did not reproduce its seed's first run.
    let iterations = args.workload.iterations as u64;
    let failed_per_seed: Vec<u64> = measured
        .seeds
        .iter()
        .map(|s| s.runs.iter().map(|r| r.failed).sum::<u64>() + s.diverged() as u64 * iterations)
        .collect();
    // One energy-trace digest and one run time per seed: `run.py` checks
    // that the traced build reproduces the plain build's runs bit for bit,
    // and compares their run times seed by seed.
    let digests: Vec<String> = measured
        .seeds
        .iter()
        .map(|s| format!("\"{:016x}\"", digest(&s.runs[0].energies)))
        .collect();
    let walls: Vec<f64> = measured
        .seeds
        .iter()
        .map(|s| fastest_run(s).as_secs_f64())
        .collect();
    let mut out = Json::default();
    out.str("workload", args.workload.name)
        .field("seed", &args.seed.to_string())
        .str("build", if traced { "trace" } else { "plain" })
        .num("iterations", args.workload.iterations as f64)
        .num("seeds", measured.seeds.len() as f64)
        .num("runs", runs.len() as f64)
        .num(
            "attempted",
            runs.iter().map(|r| r.attempted).sum::<u64>() as f64,
        )
        .num("failed", failed_per_seed.iter().sum::<u64>() as f64)
        .field("digests", &format!("[{}]", digests.join(", ")))
        .field("failed_per_seed", &format!("{failed_per_seed:?}"))
        .field("walls", &format!("{walls:?}"));
    if traced {
        per_layer(&args.workload, &runs, &mut out);
    } else {
        end_to_end(&measured, &mut out);
    }
    println!("{}", out.finish());
}
