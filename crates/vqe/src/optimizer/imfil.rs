//! Implicit-filtering optimizer.
//!
//! The paper's second tuner (ImFil, Section 5.1) is a stencil-based
//! derivative-free method designed for noisy objectives: it estimates a
//! gradient from central differences on a coordinate stencil of scale `h`,
//! takes a projected step, and shrinks the stencil when the step fails to
//! improve — the shrinking filters the observation noise.

use super::{Optimizer, StepResult};

/// A simplified ImFil: central-difference stencil gradient, normalized
/// descent step of length `h`, stencil halving on failure.
///
/// One iteration costs `2·dim + 1` objective evaluations, much more than
/// SPSA's 2 — matching the real tuners' cost profiles.
///
/// # Examples
///
/// ```
/// use vqe::{ImFil, Optimizer};
///
/// let mut opt = ImFil::new(0.5);
/// let mut x = vec![1.0, -1.5];
/// let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
/// for _ in 0..60 {
///     opt.step(&mut x, &mut f);
/// }
/// assert!(f(&x) < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct ImFil {
    h: f64,
    min_h: f64,
    shrink: f64,
}

impl ImFil {
    /// Creates an ImFil tuner with initial stencil scale `h0`.
    ///
    /// # Panics
    ///
    /// Panics if `h0 <= 0`.
    pub fn new(h0: f64) -> Self {
        assert!(h0 > 0.0, "stencil scale must be positive");
        ImFil {
            h: h0,
            min_h: 1e-4,
            shrink: 0.5,
        }
    }

    /// The current stencil scale.
    pub fn stencil(&self) -> f64 {
        self.h
    }
}

impl Optimizer for ImFil {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        let n = params.len();
        let f0 = objective(params);
        let mut evals = 1;
        let mut grad = vec![0.0; n];
        let mut sum = f0;
        for i in 0..n {
            let mut plus = params.to_vec();
            plus[i] += self.h;
            let mut minus = params.to_vec();
            minus[i] -= self.h;
            let fp = objective(&plus);
            let fm = objective(&minus);
            evals += 2;
            sum += fp + fm;
            grad[i] = (fp - fm) / (2.0 * self.h);
        }
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if gnorm > 1e-12 {
            let candidate: Vec<f64> = params
                .iter()
                .zip(&grad)
                .map(|(x, g)| x - self.h * g / gnorm)
                .collect();
            let fc = objective(&candidate);
            evals += 1;
            if fc < f0 {
                params.copy_from_slice(&candidate);
            } else {
                self.h = (self.h * self.shrink).max(self.min_h);
            }
        } else {
            self.h = (self.h * self.shrink).max(self.min_h);
        }
        StepResult {
            evals,
            mean_objective: sum / (2 * n + 1) as f64,
        }
    }

    fn name(&self) -> &str {
        "imfil"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut opt = ImFil::new(0.5);
        let mut x = vec![2.0, -3.0];
        let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
        for _ in 0..100 {
            opt.step(&mut x, &mut f);
        }
        assert!(f(&x) < 0.02, "residual {}", f(&x));
    }

    #[test]
    fn stencil_shrinks_when_stuck() {
        let mut opt = ImFil::new(1.0);
        let mut x = vec![0.0];
        let mut f = |p: &[f64]| p[0] * p[0];
        let h0 = opt.stencil();
        for _ in 0..5 {
            opt.step(&mut x, &mut f);
        }
        assert!(opt.stencil() < h0);
    }

    #[test]
    fn reports_eval_count() {
        let mut opt = ImFil::new(0.3);
        let mut calls = 0usize;
        let mut x = vec![1.0, 1.0, 1.0];
        let r = opt.step(&mut x, &mut |p| {
            calls += 1;
            p.iter().sum::<f64>()
        });
        assert_eq!(r.evals, calls);
        assert!(r.evals > 2 * 3);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_stencil() {
        ImFil::new(0.0);
    }
}
