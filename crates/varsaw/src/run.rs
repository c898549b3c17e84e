//! One-call experiment runner covering the paper's comparison methods.

use crate::engine::{JigsawEvaluator, VarSawEvaluator};
use crate::spatial::SpatialStats;
use crate::temporal::TemporalPolicy;
use pauli::Hamiltonian;
use qnoise::DeviceModel;
use std::fmt;
use vqe::{run_vqe, BaselineEvaluator, EfficientSu2, SimExecutor, Spsa, VqeConfig, VqeTrace};

/// The execution method of a VQE run — the paper's comparison axis
/// (Section 5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Traditional VQA with Pauli commutation, no mitigation.
    Baseline,
    /// JigSaw applied per-circuit every iteration.
    Jigsaw,
    /// VarSaw with the given temporal policy.
    VarSaw(TemporalPolicy),
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Baseline => write!(f, "baseline"),
            Method::Jigsaw => write!(f, "jigsaw"),
            Method::VarSaw(p) => write!(f, "varsaw[{p}]"),
        }
    }
}

/// Everything a run needs besides the method: problem, ansatz, device and
/// execution knobs.
#[derive(Clone, Debug)]
pub struct RunSetup {
    /// The problem Hamiltonian.
    pub hamiltonian: Hamiltonian,
    /// The parameterized ansatz.
    pub ansatz: EfficientSu2,
    /// The (noisy) device model.
    pub device: DeviceModel,
    /// Shots per circuit.
    pub shots: u64,
    /// JigSaw/VarSaw subset window size (2 in the paper's evaluation).
    pub window: usize,
    /// Master seed: initial parameters, tuner and sampling derive from it.
    pub seed: u64,
    /// Whether matrix-based mitigation is applied on top (Section 6.8).
    pub mbm: bool,
}

impl RunSetup {
    /// A setup with the paper's defaults: window 2, 1024 shots, no MBM.
    pub fn new(
        hamiltonian: Hamiltonian,
        ansatz: EfficientSu2,
        device: DeviceModel,
        seed: u64,
    ) -> Self {
        RunSetup {
            hamiltonian,
            ansatz,
            device,
            shots: 1024,
            window: 2,
            seed,
            mbm: false,
        }
    }
}

/// The result of one method run.
#[derive(Clone, Debug)]
pub struct MethodOutcome {
    /// The method that ran.
    pub method: Method,
    /// The VQE trace (energies and cumulative circuit cost per iteration).
    pub trace: VqeTrace,
    /// Spatial circuit statistics, for VarSaw runs.
    pub spatial: Option<SpatialStats>,
    /// Fraction of evaluations that executed Globals, for VarSaw runs
    /// (Fig.14's secondary axis).
    pub global_fraction: Option<f64>,
}

/// Runs one VQE experiment with the chosen method and a fresh SPSA tuner.
///
/// All randomness (initial parameters, tuner perturbations, shot sampling)
/// derives from `setup.seed`, so runs are reproducible; vary the seed for
/// independent trials.
///
/// # Examples
///
/// ```
/// use pauli::Hamiltonian;
/// use qnoise::DeviceModel;
/// use varsaw::{run_method, Method, RunSetup, TemporalPolicy};
/// use vqe::{EfficientSu2, Entanglement, VqeConfig};
///
/// let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")]);
/// let setup = RunSetup::new(h, EfficientSu2::new(2, 1, Entanglement::Full),
///                           DeviceModel::mumbai_like(), 7);
/// let config = VqeConfig { max_iterations: 20, max_circuits: None };
/// let outcome = run_method(&setup, Method::VarSaw(TemporalPolicy::default()), &config);
/// assert_eq!(outcome.trace.iterations(), 20);
/// assert!(outcome.global_fraction.unwrap() <= 1.0);
/// ```
pub fn run_method(setup: &RunSetup, method: Method, config: &VqeConfig) -> MethodOutcome {
    let executor = SimExecutor::new(setup.device.clone(), setup.shots, setup.seed ^ 0x5A5A);
    let init = setup.ansatz.initial_parameters(setup.seed ^ 0x1234);
    let tuner = &mut Spsa::new(setup.seed ^ 0x0B57);
    match method {
        Method::Baseline => {
            let mut eval =
                BaselineEvaluator::new(&setup.hamiltonian, setup.ansatz.clone(), executor)
                    .with_mbm(setup.mbm);
            let trace = run_vqe(&mut eval, tuner, init, config);
            MethodOutcome {
                method,
                trace,
                spatial: None,
                global_fraction: None,
            }
        }
        Method::Jigsaw => {
            let mut eval = JigsawEvaluator::new(
                &setup.hamiltonian,
                setup.ansatz.clone(),
                setup.window,
                executor,
            )
            .with_mbm(setup.mbm);
            let trace = run_vqe(&mut eval, tuner, init, config);
            MethodOutcome {
                method,
                trace,
                spatial: None,
                global_fraction: None,
            }
        }
        Method::VarSaw(policy) => {
            let mut eval = VarSawEvaluator::new(
                &setup.hamiltonian,
                setup.ansatz.clone(),
                setup.window,
                policy,
                executor,
            )
            .with_mbm(setup.mbm);
            let trace = run_vqe(&mut eval, tuner, init, config);
            MethodOutcome {
                method,
                trace,
                spatial: Some(eval.plan().stats()),
                global_fraction: Some(eval.scheduler().global_fraction()),
            }
        }
    }
}

/// The percentage of the `reference → worse` gap recovered by `improved`:
/// `100 · (worse − improved) / (worse − reference)`.
///
/// This is the paper's "% inaccuracy mitigated" metric (Figs. 14, 15;
/// Tables 3, 4). Positive when `improved` sits between `worse` and the
/// reference; can exceed 100 when `improved` beats the reference, or go
/// negative when it is worse than `worse`.
///
/// Returns 0 when the gap is degenerate (`worse <= reference`).
pub fn percent_gap_recovered(reference: f64, worse: f64, improved: f64) -> f64 {
    let gap = worse - reference;
    if gap <= 1e-12 {
        return 0.0;
    }
    100.0 * (worse - improved) / gap
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqe::Entanglement;

    fn setup() -> RunSetup {
        let h = Hamiltonian::from_pairs(
            3,
            &[
                (-1.0, "ZZI"),
                (-1.0, "IZZ"),
                (-0.5, "XII"),
                (-0.5, "IXI"),
                (-0.5, "IIX"),
            ],
        );
        RunSetup::new(
            h,
            EfficientSu2::new(3, 1, Entanglement::Full),
            DeviceModel::mumbai_like(),
            9,
        )
    }

    #[test]
    fn all_methods_run_and_report() {
        let s = setup();
        let config = VqeConfig {
            max_iterations: 8,
            max_circuits: None,
        };
        for method in [
            Method::Baseline,
            Method::Jigsaw,
            Method::VarSaw(TemporalPolicy::OneShot),
        ] {
            let out = run_method(&s, method, &config);
            assert_eq!(out.trace.iterations(), 8, "{method}");
            assert!(out.trace.total_circuits() > 0);
        }
    }

    #[test]
    fn varsaw_reports_spatial_and_temporal_stats() {
        let s = setup();
        let config = VqeConfig {
            max_iterations: 6,
            max_circuits: None,
        };
        let out = run_method(&s, Method::VarSaw(TemporalPolicy::default()), &config);
        let stats = out.spatial.unwrap();
        assert!(stats.varsaw_subsets <= stats.jigsaw_subsets);
        assert!(out.global_fraction.unwrap() > 0.0);
    }

    #[test]
    fn fixed_budget_gives_varsaw_more_iterations_than_jigsaw() {
        let s = setup();
        let config = VqeConfig {
            max_iterations: 10_000,
            max_circuits: Some(600),
        };
        let js = run_method(&s, Method::Jigsaw, &config);
        let vs = run_method(&s, Method::VarSaw(TemporalPolicy::OneShot), &config);
        assert!(
            vs.trace.iterations() > js.trace.iterations(),
            "varsaw {} vs jigsaw {}",
            vs.trace.iterations(),
            js.trace.iterations()
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let s = setup();
        let config = VqeConfig {
            max_iterations: 5,
            max_circuits: None,
        };
        let a = run_method(&s, Method::Baseline, &config);
        let b = run_method(&s, Method::Baseline, &config);
        assert_eq!(a.trace.energies, b.trace.energies);
    }

    #[test]
    fn percent_gap_recovered_metric() {
        assert_eq!(percent_gap_recovered(0.0, 10.0, 5.0), 50.0);
        assert_eq!(percent_gap_recovered(0.0, 10.0, 0.0), 100.0);
        assert_eq!(percent_gap_recovered(0.0, 10.0, 10.0), 0.0);
        assert_eq!(percent_gap_recovered(0.0, 10.0, -2.0), 120.0);
        assert_eq!(percent_gap_recovered(5.0, 5.0, 4.0), 0.0, "degenerate gap");
    }
}
