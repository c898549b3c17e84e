//! The VQE tuning loop.

use crate::energy::GroupedHamiltonian;
use crate::executor::SimExecutor;
use crate::optimizer::{BatchObjective, Optimizer};
use mitigation::mbm_correct;
use pauli::Hamiltonian;
use qsim::Statevector;

use crate::ansatz::EfficientSu2;

/// Stop conditions and bookkeeping for a VQE run.
#[derive(Clone, Debug, PartialEq)]
pub struct VqeConfig {
    /// Maximum tuner iterations.
    pub max_iterations: usize,
    /// Maximum circuits submitted to the executor (the paper's fixed
    /// circuit budget), if any. Checked between iterations.
    pub max_circuits: Option<u64>,
}

impl Default for VqeConfig {
    fn default() -> Self {
        VqeConfig {
            max_iterations: 300,
            max_circuits: None,
        }
    }
}

/// The record of a VQE run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VqeTrace {
    /// The measured objective per iteration (mean of the optimizer's
    /// evaluations; no extra circuits are spent on trace recording).
    pub energies: Vec<f64>,
    /// Cumulative circuits executed after each iteration.
    pub circuits: Vec<u64>,
    /// The final parameter vector.
    pub final_params: Vec<f64>,
}

impl VqeTrace {
    /// The number of completed iterations.
    pub fn iterations(&self) -> usize {
        self.energies.len()
    }

    /// The minimum measured energy over the run.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn best_energy(&self) -> f64 {
        assert!(!self.energies.is_empty(), "empty trace");
        self.energies.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// The mean of the last `tail_fraction` of the trace — a noise-robust
    /// "converged energy" estimate (the min would be biased optimistic
    /// under shot noise).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `tail_fraction` is not in `(0, 1]`.
    pub fn converged_energy(&self, tail_fraction: f64) -> f64 {
        assert!(!self.energies.is_empty(), "empty trace");
        assert!(
            tail_fraction > 0.0 && tail_fraction <= 1.0,
            "tail fraction must lie in (0, 1]"
        );
        let n = self.energies.len();
        let k = ((n as f64 * tail_fraction).ceil() as usize).clamp(1, n);
        self.energies[n - k..].iter().sum::<f64>() / k as f64
    }

    /// Total circuits executed.
    pub fn total_circuits(&self) -> u64 {
        self.circuits.last().copied().unwrap_or(0)
    }
}

/// Anything that can evaluate the VQA objective at a parameter vector,
/// executing quantum circuits and metering their cost.
///
/// The baseline evaluator lives here ([`BaselineEvaluator`]); the JigSaw
/// and VarSaw evaluators live in the `varsaw` crate.
pub trait EnergyEvaluator {
    /// Measures the objective at `params`, executing circuits as needed.
    fn evaluate(&mut self, params: &[f64]) -> f64;

    /// Measures the objective at several parameter vectors — an SPSA ±
    /// probe pair, a restart population — in order.
    ///
    /// Implementations **must** be exactly equivalent to sequential
    /// [`EnergyEvaluator::evaluate`] calls (same values, same RNG
    /// advancement, same cost metering). This default loop is the
    /// workspace's only implementation; the paper-run benchmark
    /// (`paperbench`) implements it to time and meter each probe family.
    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        param_sets.iter().map(|p| self.evaluate(p)).collect()
    }

    /// Total circuits executed so far.
    fn circuits_executed(&self) -> u64;
}

/// Adapts an [`EnergyEvaluator`] to the optimizer-facing
/// [`BatchObjective`] seam ([`run_vqe`] drives optimizers through
/// [`Optimizer::step_batch`], so batch-capable evaluators see whole
/// probe families).
struct BatchAdapter<'a, E: ?Sized>(&'a mut E);

impl<E: EnergyEvaluator + ?Sized> BatchObjective for BatchAdapter<'_, E> {
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        self.0.evaluate(params)
    }

    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        self.0.evaluate_batch(param_sets)
    }
}

/// The paper's "Baseline": traditional VQA with Pauli-string commutation
/// and no measurement error mitigation. Optionally applies matrix-based
/// mitigation (MBM) to every group PMF (the Section 6.8 combination).
#[derive(Clone, Debug)]
pub struct BaselineEvaluator {
    ansatz: EfficientSu2,
    grouped: GroupedHamiltonian,
    executor: SimExecutor,
    mbm: bool,
}

impl BaselineEvaluator {
    /// Creates a baseline evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz and Hamiltonian qubit counts differ.
    pub fn new(hamiltonian: &Hamiltonian, ansatz: EfficientSu2, executor: SimExecutor) -> Self {
        assert_eq!(
            ansatz.num_qubits(),
            hamiltonian.num_qubits(),
            "ansatz/Hamiltonian qubit mismatch"
        );
        BaselineEvaluator {
            ansatz,
            grouped: GroupedHamiltonian::new(hamiltonian),
            executor,
            mbm: false,
        }
    }

    /// Enables matrix-based measurement mitigation on every measured PMF.
    pub fn with_mbm(mut self, enabled: bool) -> Self {
        self.mbm = enabled;
        self
    }

    /// The grouped Hamiltonian (for cost analysis).
    pub fn grouped(&self) -> &GroupedHamiltonian {
        &self.grouped
    }

    /// Prepares the ansatz state for `params` through the executor.
    pub fn prepare(&mut self, params: &[f64]) -> Statevector {
        self.executor.prepare(&self.ansatz.circuit(params))
    }
}

impl EnergyEvaluator for BaselineEvaluator {
    /// Prepares the ansatz state, then runs every group circuit on the
    /// full register, as Qiskit-style VQE does, MBM-correcting each PMF
    /// when enabled.
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        let state = self.prepare(params);
        let mut pmfs = Vec::with_capacity(self.grouped.num_groups());
        for g in self.grouped.groups() {
            let pmf = self.executor.run_prepared_all(&state, &g.basis);
            pmfs.push(if self.mbm {
                mbm_correct(&pmf, &self.executor.calibration(pmf.num_qubits()))
            } else {
                pmf
            });
        }
        self.grouped.energy_from_pmfs(&pmfs)
    }

    fn circuits_executed(&self) -> u64 {
        self.executor.circuits_executed()
    }
}

/// Runs the VQE loop: repeatedly steps the optimizer against the
/// evaluator's objective until the iteration cap or circuit budget is hit.
///
/// # Examples
///
/// ```
/// use pauli::Hamiltonian;
/// use qnoise::DeviceModel;
/// use vqe::{run_vqe, BaselineEvaluator, EfficientSu2, Entanglement, SimExecutor, Spsa, VqeConfig};
///
/// let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.4, "XI"), (-0.4, "IX")]);
/// let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
/// let exec = SimExecutor::new(DeviceModel::noiseless(2), 512, 3);
/// let init = ansatz.initial_parameters(1);
/// let mut eval = BaselineEvaluator::new(&h, ansatz, exec);
/// let mut spsa = Spsa::new(5);
/// let trace = run_vqe(&mut eval, &mut spsa, init, &VqeConfig { max_iterations: 50, max_circuits: None });
/// assert_eq!(trace.iterations(), 50);
/// assert!(trace.best_energy() < 0.0);
/// ```
pub fn run_vqe<E: EnergyEvaluator + ?Sized, O: Optimizer + ?Sized>(
    evaluator: &mut E,
    optimizer: &mut O,
    initial_params: Vec<f64>,
    config: &VqeConfig,
) -> VqeTrace {
    let mut params = initial_params;
    let mut trace = VqeTrace::default();
    for _ in 0..config.max_iterations {
        if let Some(budget) = config.max_circuits {
            if evaluator.circuits_executed() >= budget {
                break;
            }
        }
        // step_batch lets probe-family optimizers (SPSA's ± pair) hand
        // the evaluator whole batches; evaluate_batch implementations
        // are exactly equivalent to sequential evaluation, so traces are
        // unchanged seed for seed.
        let step = optimizer.step_batch(&mut params, &mut BatchAdapter(evaluator));
        trace.energies.push(step.mean_objective);
        trace.circuits.push(evaluator.circuits_executed());
    }
    trace.final_params = params;
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::Entanglement;
    use crate::optimizer::Spsa;
    use qnoise::DeviceModel;

    fn tfim2() -> Hamiltonian {
        Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")])
    }

    #[test]
    fn noiseless_vqe_approaches_ground_energy() {
        // SPSA on a non-convex landscape can land in a local minimum for an
        // unlucky (init, perturbation) seed pair, so do what practitioners
        // do: a small multi-start, keeping the best restart.
        let h = tfim2();
        let e0 = h.ground_energy(3);
        let final_e = [(2u64, 11u64), (3, 5)]
            .iter()
            .map(|&(init_seed, spsa_seed)| {
                let ansatz = EfficientSu2::new(2, 2, Entanglement::Full);
                let exec = SimExecutor::new(DeviceModel::noiseless(2), 2048, 7);
                let init = ansatz.initial_parameters(init_seed);
                let mut eval = BaselineEvaluator::new(&h, ansatz, exec);
                let mut spsa = Spsa::new(spsa_seed);
                let trace = run_vqe(
                    &mut eval,
                    &mut spsa,
                    init,
                    &VqeConfig {
                        max_iterations: 600,
                        max_circuits: None,
                    },
                );
                trace.converged_energy(0.1)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(final_e < e0 + 0.25, "converged {final_e} vs ground {e0}");
    }

    #[test]
    fn circuit_budget_stops_the_run() {
        let h = tfim2();
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
        let exec = SimExecutor::new(DeviceModel::noiseless(2), 64, 1);
        let init = ansatz.initial_parameters(0);
        let mut eval = BaselineEvaluator::new(&h, ansatz, exec);
        let groups = eval.grouped().num_groups() as u64;
        let mut spsa = Spsa::new(2);
        let trace = run_vqe(
            &mut eval,
            &mut spsa,
            init,
            &VqeConfig {
                max_iterations: 10_000,
                max_circuits: Some(groups * 20),
            },
        );
        assert!(trace.iterations() < 10_000);
        // Budget can only be overshot by one iteration's worth of circuits.
        assert!(trace.total_circuits() <= groups * 20 + groups * 2);
    }

    #[test]
    fn noisy_vqe_reads_higher_than_ideal_at_same_params() {
        // Measurement error biases the energy estimate upward for a
        // Hamiltonian whose ground state has strong Z correlations.
        let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ")]);
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
        let params = vec![0.0; ansatz.num_parameters()];
        let mut ideal = BaselineEvaluator::new(
            &h,
            ansatz.clone(),
            SimExecutor::exact(DeviceModel::noiseless(2), 1),
        );
        let mut noisy = BaselineEvaluator::new(
            &h,
            ansatz,
            SimExecutor::exact(DeviceModel::uniform(2, 0.08), 1),
        );
        assert!(noisy.evaluate(&params) > ideal.evaluate(&params) + 0.1);
    }

    #[test]
    fn mbm_corrects_known_readout_noise() {
        let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ")]);
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
        let params = vec![0.0; ansatz.num_parameters()];
        let dev = DeviceModel::uniform(2, 0.08);
        let mut plain =
            BaselineEvaluator::new(&h, ansatz.clone(), SimExecutor::exact(dev.clone(), 1));
        let mut with_mbm =
            BaselineEvaluator::new(&h, ansatz, SimExecutor::exact(dev, 1)).with_mbm(true);
        let e_plain = plain.evaluate(&params);
        let e_mbm = with_mbm.evaluate(&params);
        // Without crosstalk the calibration is exact, so MBM fully
        // recovers the ideal value of −1.
        assert!((e_mbm + 1.0).abs() < 1e-9, "MBM energy {e_mbm}");
        assert!(e_plain > -0.9);
    }

    #[test]
    fn converged_energy_uses_the_tail() {
        let trace = VqeTrace {
            energies: vec![10.0, 10.0, 1.0, 1.0],
            circuits: vec![1, 2, 3, 4],
            final_params: vec![],
        };
        assert_eq!(trace.converged_energy(0.5), 1.0);
        assert_eq!(trace.best_energy(), 1.0);
    }
}
