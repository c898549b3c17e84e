//! Paper-run benchmark harness.
//!
//! One measured unit is a whole VQE run, built the way
//! `varsaw::run_method` builds it (same constructors, same seed
//! derivation) and driven through the public API by [`vqe::run_vqe`].
//! Two benchmark-side wrappers sit between the loop and the crates: one
//! around the evaluator and one around the SPSA tuner. They time every
//! evaluation batch and every tuner iteration, and after each batch they
//! read the circuit meter. That reading is what the run is checked
//! against: the exact metering identity
//! `circuits = evaluations·subsets + globals·groups`.

use chem::{molecular_hamiltonian, MoleculeSpec};
use pauli::Hamiltonian;
use qnoise::DeviceModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use telemetry::TelemetrySnapshot;
use varsaw::{TemporalPolicy, VarSawEvaluator};
use vqe::{
    run_vqe, BaselineEvaluator, BatchObjective, EfficientSu2, EnergyEvaluator, Entanglement,
    Optimizer, SimExecutor, Spsa, StepResult, VqeConfig, VqeTrace,
};

/// Shots per circuit, the paper's default.
pub const SHOTS: u64 = 1024;
/// JigSaw/VarSaw subset window size.
pub const WINDOW: usize = 2;
/// EfficientSU2 entangling repetitions.
pub const ANSATZ_REPS: usize = 2;
/// VarSaw's temporal policy: the experiments' default.
pub const POLICY: TemporalPolicy = TemporalPolicy::Adaptive {
    initial_interval: 2,
};
/// SPSA evaluates the objective twice per iteration (its ± probe pair).
const EVALS_PER_ITERATION: u64 = 2;

/// The comparison methods the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Pauli-commutation grouping, no mitigation.
    Baseline,
    /// VarSaw with [`POLICY`].
    VarSaw,
}

/// One benchmark workload: a Table 2 molecule, a method and a fixed
/// iteration count.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// Table 2 molecule name.
    pub molecule: &'static str,
    /// Table 2 qubit count.
    pub qubits: usize,
    /// The method.
    pub method: Method,
    /// Tuner iterations per measured run.
    pub iterations: usize,
}

/// The workloads. Why each is here is written in `PREDICTIONS.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "baseline-h2o_8",
        molecule: "H2O",
        qubits: 8,
        method: Method::Baseline,
        iterations: 60,
    },
    Workload {
        name: "varsaw-h2o_8",
        molecule: "H2O",
        qubits: 8,
        method: Method::VarSaw,
        iterations: 120,
    },
    Workload {
        name: "varsaw-h6_10",
        molecule: "H6",
        qubits: 10,
        method: Method::VarSaw,
        iterations: 20,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's molecular Hamiltonian.
    pub fn hamiltonian(&self) -> Hamiltonian {
        let spec = MoleculeSpec::find(self.molecule, self.qubits)
            .expect("every workload molecule is a Table 2 entry");
        molecular_hamiltonian(&spec)
    }
}

/// The evaluators of the methods the workloads run. A run holds exactly
/// one, so the size difference between the variants costs nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Evaluator {
    Baseline(BaselineEvaluator),
    VarSaw(VarSawEvaluator),
}

/// A cumulative meter reading, taken after one evaluation batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Meter {
    /// Objective evaluations so far.
    pub evaluations: u64,
    /// Circuits executed so far.
    pub circuits: u64,
    /// Evaluations so far that executed the full-register Global circuits.
    pub globals: u64,
}

/// The evaluator wrapper: times each batch and logs a [`Meter`] after it.
#[derive(Debug)]
struct Metered {
    eval: Evaluator,
    evaluations: u64,
    busy: Duration,
    log: Vec<Meter>,
}

impl Metered {
    fn globals_run(&self) -> u64 {
        match &self.eval {
            // Every Baseline evaluation measures full-register circuits.
            Evaluator::Baseline(_) => self.evaluations,
            Evaluator::VarSaw(e) => e.scheduler().globals_run() as u64,
        }
    }
}

impl EnergyEvaluator for Metered {
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        self.evaluate_batch(&[params])[0]
    }

    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        let start = Instant::now();
        let energies = match &mut self.eval {
            Evaluator::Baseline(e) => e.evaluate_batch(param_sets),
            Evaluator::VarSaw(e) => e.evaluate_batch(param_sets),
        };
        self.busy += start.elapsed();
        self.evaluations += param_sets.len() as u64;
        self.log.push(Meter {
            evaluations: self.evaluations,
            circuits: self.circuits_executed(),
            globals: self.globals_run(),
        });
        energies
    }

    fn circuits_executed(&self) -> u64 {
        match &self.eval {
            Evaluator::Baseline(e) => e.circuits_executed(),
            Evaluator::VarSaw(e) => e.circuits_executed(),
        }
    }
}

/// The tuner wrapper: times each iteration.
#[derive(Debug)]
struct Timed<O> {
    inner: O,
    steps: Vec<Duration>,
}

impl<O: Optimizer> Optimizer for Timed<O> {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        let start = Instant::now();
        let result = self.inner.step(params, objective);
        self.steps.push(start.elapsed());
        result
    }

    fn step_batch(&mut self, params: &mut [f64], objective: &mut dyn BatchObjective) -> StepResult {
        let start = Instant::now();
        let result = self.inner.step_batch(params, objective);
        self.steps.push(start.elapsed());
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Everything one VQE run needs, built as restart 0 of
/// `varsaw::run_method` builds it.
#[derive(Debug)]
pub struct Run {
    evaluator: Metered,
    tuner: Timed<Spsa>,
    init: Vec<f64>,
    /// Measurement groups: the circuits of one Global evaluation.
    groups: u64,
    /// Subset circuits every evaluation runs (0 for Baseline).
    subsets: u64,
}

impl Run {
    /// Builds the executor, evaluator, initial parameters and tuner for
    /// one run on `hamiltonian` with master seed `seed`.
    pub fn new(hamiltonian: &Hamiltonian, method: Method, seed: u64) -> Run {
        let ansatz = EfficientSu2::new(hamiltonian.num_qubits(), ANSATZ_REPS, Entanglement::Full);
        let executor = SimExecutor::new(DeviceModel::mumbai_like(), SHOTS, seed ^ 0x5A5A);
        let init = ansatz.initial_parameters(seed ^ 0x1234);
        let tuner = Spsa::new(seed ^ 0x0B57);
        let (eval, groups, subsets) = match method {
            Method::Baseline => {
                let e = BaselineEvaluator::new(hamiltonian, ansatz, executor);
                let groups = e.grouped().num_groups();
                (Evaluator::Baseline(e), groups, 0)
            }
            Method::VarSaw => {
                let e = VarSawEvaluator::new(hamiltonian, ansatz, WINDOW, POLICY, executor);
                let groups = e.grouped().num_groups();
                let subsets = e.plan().subset_groups().len();
                (Evaluator::VarSaw(e), groups, subsets)
            }
        };
        Run {
            evaluator: Metered {
                eval,
                evaluations: 0,
                busy: Duration::ZERO,
                log: Vec::new(),
            },
            tuner: Timed {
                inner: tuner,
                steps: Vec::new(),
            },
            init,
            groups: groups as u64,
            subsets: subsets as u64,
        }
    }

    /// Runs `iterations` tuner iterations and checks the outputs.
    pub fn execute(self, iterations: usize) -> RunOutcome {
        let Run {
            mut evaluator,
            mut tuner,
            init,
            groups,
            subsets,
        } = self;
        let config = VqeConfig {
            max_iterations: iterations,
            max_circuits: None,
        };
        let before = telemetry::global_snapshot();
        let start = Instant::now();
        let trace = catch_unwind(AssertUnwindSafe(|| {
            run_vqe(&mut evaluator, &mut tuner, init, &config)
        }))
        .ok();
        let wall = start.elapsed();
        let stages = telemetry::global_snapshot().since(&before);
        let failed = failed_iterations(trace.as_ref(), &evaluator.log, iterations, subsets, groups);
        RunOutcome {
            wall,
            energies: trace.map(|t| t.energies).unwrap_or_default(),
            steps: tuner.steps,
            evaluate: evaluator.busy,
            meter: evaluator.log.last().copied().unwrap_or_default(),
            log: evaluator.log,
            groups,
            subsets,
            attempted: iterations as u64,
            failed,
            stages,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Wall time of the tuning loop.
    pub wall: Duration,
    /// The energy trace (empty if the run panicked).
    pub energies: Vec<f64>,
    /// Wall time of each tuner iteration.
    pub steps: Vec<Duration>,
    /// Time spent inside the evaluator.
    pub evaluate: Duration,
    /// The meter after the last evaluation.
    pub meter: Meter,
    /// The meter after each iteration's evaluation batch.
    pub log: Vec<Meter>,
    /// Measurement groups.
    pub groups: u64,
    /// Subset circuits per evaluation.
    pub subsets: u64,
    /// Iterations configured.
    pub attempted: u64,
    /// Iterations that failed an output check.
    pub failed: u64,
    /// Telemetry stage totals recorded during the run (empty unless the
    /// telemetry is compiled in and active).
    pub stages: TelemetrySnapshot,
}

impl RunOutcome {
    /// Which iterations are of the common kind: for VarSaw those that ran
    /// subset circuits only, for Baseline (which runs no subsets) every
    /// one. The rare Global iterations of a VarSaw run take several times
    /// as long, and how many a run has depends on its seed; leaving them
    /// out keeps that out of a median.
    pub fn common_iterations(&self) -> Vec<bool> {
        let mut globals = 0;
        self.log
            .iter()
            .map(|meter| {
                let ran_global = meter.globals > globals;
                globals = meter.globals;
                self.subsets == 0 || !ran_global
            })
            .collect()
    }
}

/// The runs of one seed: the same run repeated, in separate rounds of a
/// process, with the set-up times measured before each.
#[derive(Clone, Debug, Default)]
pub struct Repeats {
    /// The runs, in the order they ran.
    pub runs: Vec<RunOutcome>,
    /// Every timed set-up of this seed, in seconds.
    pub setups: Vec<f64>,
}

impl Repeats {
    /// Each iteration's fastest wall time over the repeats. A run is
    /// deterministic in its seed, so every repeat does the same work; the
    /// fastest time is the work's, and the rest is what the host added.
    pub fn fastest_steps(&self) -> Vec<Duration> {
        let len = self.runs.iter().map(|r| r.steps.len()).max().unwrap_or(0);
        (0..len)
            .map(|i| {
                self.runs
                    .iter()
                    .filter_map(|r| r.steps.get(i).copied())
                    .min()
                    .expect("some repeat ran iteration i")
            })
            .collect()
    }

    /// Repeats whose energy trace differs from the first run's in any bit.
    pub fn diverged(&self) -> usize {
        let first = self.runs.first().map(|r| digest(&r.energies));
        self.runs
            .iter()
            .filter(|r| Some(digest(&r.energies)) != first)
            .count()
    }
}

/// Counts the iterations that fail an output check. Iteration `i` passes
/// when it ran, its energy is finite, exactly `2·(i+1)` evaluations have
/// happened, and the circuit meter obeys the metering identity
/// `circuits = evaluations·subsets + globals·groups`. A run that panicked
/// has no trace, and every iteration of it fails.
pub fn failed_iterations(
    trace: Option<&VqeTrace>,
    log: &[Meter],
    iterations: usize,
    subsets: u64,
    groups: u64,
) -> u64 {
    let Some(trace) = trace else {
        return iterations as u64;
    };
    let passes = |i: usize| -> bool {
        let (Some(energy), Some(&circuits), Some(meter)) =
            (trace.energies.get(i), trace.circuits.get(i), log.get(i))
        else {
            return false;
        };
        energy.is_finite()
            && meter.evaluations == EVALS_PER_ITERATION * (i as u64 + 1)
            && meter.circuits == circuits
            && circuits == meter.evaluations * subsets + meter.globals * groups
    };
    (0..iterations).filter(|&i| !passes(i)).count() as u64
}

/// A 64-bit FNV-1a digest of an energy trace's exact bits: two traces
/// with equal digests are, for benchmark purposes, bit-identical.
pub fn digest(energies: &[f64]) -> u64 {
    energies
        .iter()
        .flat_map(|e| e.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between the closest ranks: `q = 0.5` is the usual median.
///
/// # Panics
///
/// Panics if `values` is empty or `q` lies outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set size in KiB (`VmHWM` in
/// `/proc/self/status`), where the platform reports it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use varsaw::{run_method, RunSetup};

    fn toy_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_pairs(
            3,
            &[
                (-0.8, "ZZZ"),
                (-1.0, "ZZI"),
                (-1.0, "IZZ"),
                (-0.6, "XXI"),
                (-0.6, "IXX"),
                (0.4, "ZIZ"),
            ],
        )
    }

    const TOY_ITERATIONS: usize = 6;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 11.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert!((quantile(&[1.0, 2.0], 0.9) - 1.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile of no values")]
    fn quantile_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn runs_obey_the_metering_identity() {
        let h = toy_hamiltonian();
        for method in [Method::Baseline, Method::VarSaw] {
            let run = Run::new(&h, method, 5);
            let (subsets, groups) = (run.subsets, run.groups);
            let out = run.execute(TOY_ITERATIONS);
            assert_eq!(out.failed, 0, "{method:?}");
            assert_eq!(out.energies.len(), TOY_ITERATIONS);
            assert_eq!(out.steps.len(), TOY_ITERATIONS);
            let m = out.meter;
            assert_eq!(m.evaluations, 2 * TOY_ITERATIONS as u64);
            assert_eq!(m.circuits, m.evaluations * subsets + m.globals * groups);
            let common = out.common_iterations().iter().filter(|&&c| c).count() as u64;
            match method {
                Method::Baseline => {
                    assert_eq!(m.circuits, m.evaluations * groups);
                    assert_eq!(common, TOY_ITERATIONS as u64);
                }
                Method::VarSaw => {
                    assert!(subsets > 0 && m.globals < m.evaluations);
                    // Iteration 0 always runs the Globals; each iteration
                    // that ran any is left out of the common ones.
                    let global_iterations = out
                        .log
                        .iter()
                        .scan(0, |seen, meter| {
                            let ran = meter.globals > *seen;
                            *seen = meter.globals;
                            Some(ran)
                        })
                        .filter(|&ran| ran)
                        .count() as u64;
                    assert!(global_iterations >= 1);
                    assert_eq!(common, TOY_ITERATIONS as u64 - global_iterations);
                }
            }
        }
    }

    #[test]
    fn a_broken_meter_fails_its_iteration() {
        let h = toy_hamiltonian();
        let mut run = Run::new(&h, Method::VarSaw, 5);
        let config = VqeConfig {
            max_iterations: TOY_ITERATIONS,
            max_circuits: None,
        };
        let init = std::mem::take(&mut run.init);
        let trace = run_vqe(&mut run.evaluator, &mut run.tuner, init, &config);
        let (subsets, groups) = (run.subsets, run.groups);
        let log = &run.evaluator.log;
        let failed = |trace: &VqeTrace, log: &[Meter]| {
            failed_iterations(Some(trace), log, TOY_ITERATIONS, subsets, groups)
        };
        assert_eq!(failed(&trace, log), 0);

        let mut off_trace = log.clone();
        off_trace[2].circuits += 1;
        assert_eq!(
            failed(&trace, &off_trace),
            1,
            "meter disagrees with the trace"
        );
        let mut off_identity = log.clone();
        off_identity[3].globals += 1;
        assert_eq!(failed(&trace, &off_identity), 1, "metering identity broken");
        let mut extra_eval = log.clone();
        extra_eval[4].evaluations += 1;
        assert_eq!(failed(&trace, &extra_eval), 1, "wrong evaluation count");
        assert_eq!(failed(&trace, &log[..4]), 2, "missing meter readings");

        let mut nan = trace.clone();
        nan.energies[1] = f64::NAN;
        assert_eq!(failed(&nan, log), 1, "non-finite energy");
        let mut short = trace.clone();
        short.energies.pop();
        assert_eq!(failed(&short, log), 1, "an iteration did not run");
        assert_eq!(
            failed_iterations(None, log, TOY_ITERATIONS, subsets, groups),
            TOY_ITERATIONS as u64,
            "a panicked run fails every iteration"
        );
    }

    #[test]
    fn runs_reproduce_run_method() {
        let h = toy_hamiltonian();
        let setup = RunSetup::new(
            h.clone(),
            EfficientSu2::new(3, ANSATZ_REPS, Entanglement::Full),
            DeviceModel::mumbai_like(),
            11,
        );
        let config = VqeConfig {
            max_iterations: TOY_ITERATIONS,
            max_circuits: None,
        };
        for (method, reference) in [
            (Method::Baseline, varsaw::Method::Baseline),
            (Method::VarSaw, varsaw::Method::VarSaw(POLICY)),
        ] {
            let ours = Run::new(&h, method, 11).execute(TOY_ITERATIONS);
            let theirs = run_method(&setup, reference, &config);
            assert_eq!(ours.energies, theirs.trace.energies, "{method:?}");
            assert_eq!(ours.meter.circuits, theirs.trace.total_circuits());
        }
    }

    /// Tracing must not change results. In a build with the `trace`
    /// feature this compares a run with the crates' telemetry recording
    /// against one without; in a plain build both runs are untraced.
    #[test]
    fn traced_runs_equal_untraced_runs() {
        let h = toy_hamiltonian();
        for method in [Method::Baseline, Method::VarSaw] {
            telemetry::set_active(false);
            let untraced = Run::new(&h, method, 3).execute(TOY_ITERATIONS);
            telemetry::set_active(true);
            let traced = Run::new(&h, method, 3).execute(TOY_ITERATIONS);
            telemetry::set_active(false);
            assert_eq!(digest(&traced.energies), digest(&untraced.energies));
            assert_eq!(traced.energies, untraced.energies, "{method:?}");
            assert_eq!(traced.stages.is_empty(), !telemetry::compiled());
        }
    }

    #[test]
    fn repeats_of_a_seed_agree_and_keep_each_fastest_iteration() {
        let h = toy_hamiltonian();
        for method in [Method::Baseline, Method::VarSaw] {
            let repeats = Repeats {
                runs: (0..3)
                    .map(|_| Run::new(&h, method, 9).execute(TOY_ITERATIONS))
                    .collect(),
                setups: Vec::new(),
            };
            assert_eq!(repeats.diverged(), 0, "{method:?}");
            let fastest = repeats.fastest_steps();
            assert_eq!(fastest.len(), TOY_ITERATIONS);
            for (i, &step) in fastest.iter().enumerate() {
                let times: Vec<Duration> = repeats.runs.iter().map(|r| r.steps[i]).collect();
                assert_eq!(Some(&step), times.iter().min());
            }

            let mut other = repeats.clone();
            other.runs[2] = Run::new(&h, method, 10).execute(TOY_ITERATIONS);
            assert_eq!(other.diverged(), 1, "another seed's run diverges");
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = [1.0, -2.5];
        let b = [1.0, f64::from_bits((-2.5f64).to_bits() ^ 1)];
        assert_eq!(digest(&a), digest(&[1.0, -2.5]));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&[-2.5, 1.0]));
    }
}
