//! Classical optimizers (the paper's "tuners", Section 5.1).

mod spsa;

pub use spsa::Spsa;

/// The outcome of one optimizer iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepResult {
    /// Number of objective evaluations the step consumed.
    pub evals: usize,
    /// The mean of the objective values observed during the step — the
    /// "measured energy" recorded in the VQE traces (no extra evaluation is
    /// spent on trace recording).
    pub mean_objective: f64,
}

/// An objective that can evaluate several probe points in one dispatch.
///
/// Probe points of one optimizer iteration (SPSA's symmetric ± pair, a
/// restart population) arrive together, so a caller can time or meter
/// them as one family. Implementations **must** make `evaluate_batch`
/// exactly equivalent to sequential `evaluate` calls in order — same
/// values, same internal RNG advancement — so optimizers can batch
/// blindly. The default loop is the workspace's only implementation: the
/// [`crate::run_vqe`] adapter forwards to
/// [`crate::EnergyEvaluator::evaluate_batch`], which the paper-run
/// benchmark (`paperbench`) implements to time and meter each probe
/// family.
pub trait BatchObjective {
    /// Measures the objective at one parameter vector.
    fn evaluate(&mut self, params: &[f64]) -> f64;

    /// Measures the objective at several parameter vectors, in order.
    /// The default simply loops.
    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        param_sets.iter().map(|p| self.evaluate(p)).collect()
    }
}

/// A derivative-free stochastic optimizer driving the VQA parameter loop.
///
/// Implementations mutate `params` in place using only calls to
/// `objective`. They must tolerate noisy objectives — every evaluation is a
/// finite-shot, noisy quantum execution.
pub trait Optimizer {
    /// Performs one tuning iteration.
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult;

    /// Performs one tuning iteration against a batch-capable objective:
    /// optimizers that probe several points per iteration dispatch them
    /// as one [`BatchObjective::evaluate_batch`] call (SPSA overrides
    /// this with its ± pair). The default adapts [`Optimizer::step`], so
    /// existing optimizers keep their exact behavior.
    fn step_batch(&mut self, params: &mut [f64], objective: &mut dyn BatchObjective) -> StepResult {
        self.step(params, &mut |p| objective.evaluate(p))
    }

    /// A short human-readable name ("spsa").
    fn name(&self) -> &str;
}
