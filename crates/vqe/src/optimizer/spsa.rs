//! Simultaneous Perturbation Stochastic Approximation.
//!
//! The paper's primary tuner (Spall's SPSA, Section 5.1): each iteration
//! estimates the gradient from exactly two objective evaluations at
//! symmetric random perturbations — the right cost profile when every
//! evaluation is a batch of quantum circuits.

use super::{BatchObjective, Optimizer, StepResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evaluates the objective at the `+` and `-` perturbed points of one
/// SPSA iteration, returning both values.
type PairEval<'a> = dyn FnMut(&[f64], &[f64]) -> (f64, f64) + 'a;

/// SPSA with the standard gain schedules `aₖ = a/(A+k+1)^α` and
/// `cₖ = c/(k+1)^γ`, plus an optional first-step calibration of `a` that
/// targets an initial update magnitude — which makes the tuner robust to
/// the widely varying coefficient norms of molecular Hamiltonians.
///
/// # Examples
///
/// Minimize a noisy quadratic:
///
/// ```
/// use vqe::{Optimizer, Spsa};
///
/// let mut spsa = Spsa::new(42);
/// let mut params = vec![1.5, -2.0];
/// let mut objective = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// for _ in 0..200 {
///     spsa.step(&mut params, &mut objective);
/// }
/// assert!(params.iter().all(|v| v.abs() < 0.3));
/// ```
#[derive(Clone, Debug)]
pub struct Spsa {
    a: f64,
    c: f64,
    alpha: f64,
    gamma: f64,
    stability: f64,
    target_first_step: Option<f64>,
    k: usize,
    rng: StdRng,
}

impl Spsa {
    /// SPSA with standard coefficients (`α = 0.602`, `γ = 0.101`,
    /// `c = 0.2`, `A = 20`) and first-step calibration targeting an initial
    /// parameter update of 0.15 rad.
    pub fn new(seed: u64) -> Self {
        Spsa {
            a: 0.2,
            c: 0.2,
            alpha: 0.602,
            gamma: 0.101,
            stability: 20.0,
            target_first_step: Some(0.15),
            k: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets the base step gain `a` and disables calibration.
    pub fn with_a(mut self, a: f64) -> Self {
        self.a = a;
        self.target_first_step = None;
        self
    }

    /// Sets the perturbation size `c`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the calibration target for the first update magnitude
    /// (radians), or disables calibration with `None`.
    pub fn with_calibration(mut self, target: Option<f64>) -> Self {
        self.target_first_step = target;
        self
    }

    /// The number of completed iterations.
    pub fn iterations(&self) -> usize {
        self.k
    }

    /// One SPSA iteration with the ± pair evaluated by `eval_pair` —
    /// the single body behind both [`Optimizer::step`] (two sequential
    /// objective calls) and [`Optimizer::step_batch`] (one batched
    /// dispatch). The perturbation stream is drawn before either
    /// evaluation, so both entry points consume identical randomness.
    fn gradient_step(&mut self, params: &mut [f64], eval_pair: &mut PairEval<'_>) -> StepResult {
        let k = self.k as f64;
        let ck = self.c / (k + 1.0).powf(self.gamma);
        let delta: Vec<f64> = (0..params.len())
            .map(|_| if self.rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect();

        let mut plus = params.to_vec();
        let mut minus = params.to_vec();
        for i in 0..params.len() {
            plus[i] += ck * delta[i];
            minus[i] -= ck * delta[i];
        }
        let (y_plus, y_minus) = eval_pair(&plus, &minus);
        let diff = y_plus - y_minus;

        // Gradient estimate gᵢ = diff / (2·ck·δᵢ).
        let grad_scale = diff / (2.0 * ck);

        if let Some(target) = self.target_first_step.take() {
            // Calibrate `a` so the first update magnitude is ≈ target.
            let gmag = grad_scale.abs().max(1e-9);
            self.a = target * (self.stability + 1.0).powf(self.alpha) / gmag;
        }
        let ak = self.a / (self.stability + k + 1.0).powf(self.alpha);
        for i in 0..params.len() {
            params[i] -= ak * grad_scale / delta[i];
        }
        self.k += 1;
        StepResult {
            evals: 2,
            mean_objective: 0.5 * (y_plus + y_minus),
        }
    }
}

impl Optimizer for Spsa {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        self.gradient_step(params, &mut |plus, minus| {
            (objective(plus), objective(minus))
        })
    }

    /// SPSA's two probes are symmetric perturbations of one parameter
    /// vector — the canonical batch: one `evaluate_batch` call evaluates
    /// both. Bit-identical
    /// to [`Optimizer::step`] whenever the objective honors the
    /// [`BatchObjective`] equivalence contract.
    fn step_batch(&mut self, params: &mut [f64], objective: &mut dyn BatchObjective) -> StepResult {
        self.gradient_step(params, &mut |plus, minus| {
            let ys = objective.evaluate_batch(&[plus, minus]);
            assert_eq!(
                ys.len(),
                2,
                "batch objective must return one value per probe"
            );
            (ys[0], ys[1])
        })
    }

    fn name(&self) -> &str {
        "spsa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_smooth_quadratic() {
        let mut spsa = Spsa::new(1);
        let mut x = vec![2.0, -1.0, 0.5];
        let mut f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        for _ in 0..300 {
            spsa.step(&mut x, &mut f);
        }
        assert!(f(&x) < 0.05, "residual {}", f(&x));
    }

    #[test]
    fn converges_under_observation_noise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut noise = StdRng::seed_from_u64(7);
        let mut spsa = Spsa::new(2);
        let mut x = vec![1.0, 1.0];
        let mut f =
            |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>() + (noise.random::<f64>() - 0.5) * 0.05;
        for _ in 0..400 {
            spsa.step(&mut x, &mut f);
        }
        assert!(x.iter().map(|v| v * v).sum::<f64>() < 0.1);
    }

    #[test]
    fn step_reports_two_evals() {
        let mut spsa = Spsa::new(3);
        let mut calls = 0usize;
        let mut x = vec![0.3];
        let r = spsa.step(&mut x, &mut |p| {
            calls += 1;
            p[0] * p[0]
        });
        assert_eq!(r.evals, 2);
        assert_eq!(calls, 2);
    }

    #[test]
    fn calibration_scales_to_objective_magnitude() {
        // A steep objective (×1000) should not produce wild first steps.
        let mut spsa = Spsa::new(4);
        let mut x = vec![1.0, -1.0];
        let before = x.clone();
        spsa.step(&mut x, &mut |p| {
            1000.0 * p.iter().map(|v| v * v).sum::<f64>()
        });
        let step_norm: f64 = x
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(step_norm < 1.0, "first step too large: {step_norm}");
    }

    #[test]
    fn step_batch_matches_step_exactly() {
        // A counting objective that honors the BatchObjective contract.
        struct Quadratic {
            batches: usize,
        }
        impl BatchObjective for Quadratic {
            fn evaluate(&mut self, p: &[f64]) -> f64 {
                p.iter().map(|v| v * v).sum::<f64>()
            }
            fn evaluate_batch(&mut self, sets: &[&[f64]]) -> Vec<f64> {
                self.batches += 1;
                sets.iter().map(|p| self.evaluate(p)).collect()
            }
        }
        let mut a = Spsa::new(6);
        let mut b = Spsa::new(6);
        let mut xa = vec![1.0, -0.5, 2.0];
        let mut xb = xa.clone();
        let mut quad = Quadratic { batches: 0 };
        for _ in 0..20 {
            let ra = a.step(&mut xa, &mut |p: &[f64]| {
                p.iter().map(|v| v * v).sum::<f64>()
            });
            let rb = b.step_batch(&mut xb, &mut quad);
            assert_eq!(ra, rb);
        }
        assert_eq!(xa, xb, "parameter trajectories must be bit-identical");
        assert_eq!(quad.batches, 20, "each iteration is one batch dispatch");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut spsa = Spsa::new(seed);
            let mut x = vec![1.0, 2.0];
            for _ in 0..10 {
                spsa.step(&mut x, &mut |p| p.iter().map(|v| v * v).sum::<f64>());
            }
            x
        };
        assert_eq!(run(11), run(11));
    }
}
