//! Nelder–Mead simplex optimizer.
//!
//! A gradient-free simplex method, included as the third tuner option:
//! VQA papers (including VarSaw's ImFil reference, Lavrijsen et al.) use
//! it as a standard comparison point. One iteration performs a single
//! simplex transformation (reflect / expand / contract / shrink), costing
//! between 1 and `dim + 2` objective evaluations.

use super::{Optimizer, StepResult};

/// Nelder–Mead with the standard coefficients (reflect 1, expand 2,
/// contract ½, shrink ½). The simplex is built lazily around the first
/// `step` call's parameter vector.
///
/// # Examples
///
/// ```
/// use vqe::{NelderMead, Optimizer};
///
/// let mut nm = NelderMead::new(0.5);
/// let mut x = vec![2.0, -1.0];
/// let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
/// for _ in 0..150 {
///     nm.step(&mut x, &mut f);
/// }
/// assert!(f(&x) < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct NelderMead {
    initial_spread: f64,
    simplex: Vec<(Vec<f64>, f64)>,
}

impl NelderMead {
    /// Creates a tuner whose initial simplex offsets each coordinate by
    /// `initial_spread`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_spread <= 0`.
    pub fn new(initial_spread: f64) -> Self {
        assert!(initial_spread > 0.0, "simplex spread must be positive");
        NelderMead {
            initial_spread,
            simplex: Vec::new(),
        }
    }

    fn ensure_simplex(
        &mut self,
        params: &[f64],
        objective: &mut dyn FnMut(&[f64]) -> f64,
    ) -> usize {
        if !self.simplex.is_empty() {
            return 0;
        }
        let mut evals = 0;
        let push = |s: &mut Vec<(Vec<f64>, f64)>,
                    x: Vec<f64>,
                    f: &mut dyn FnMut(&[f64]) -> f64,
                    e: &mut usize| {
            let y = f(&x);
            *e += 1;
            s.push((x, y));
        };
        push(&mut self.simplex, params.to_vec(), objective, &mut evals);
        for i in 0..params.len() {
            let mut v = params.to_vec();
            v[i] += self.initial_spread;
            push(&mut self.simplex, v, objective, &mut evals);
        }
        evals
    }

    fn sort(&mut self) {
        self.simplex
            .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective is not NaN"));
    }
}

impl Optimizer for NelderMead {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        let dim = params.len();
        let mut evals = self.ensure_simplex(params, objective);
        self.sort();

        // Centroid of all but the worst vertex.
        let worst = self.simplex.len() - 1;
        let mut centroid = vec![0.0; dim];
        for (v, _) in &self.simplex[..worst] {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / worst as f64;
            }
        }
        let at = |alpha: f64, c: &[f64], w: &[f64]| -> Vec<f64> {
            c.iter()
                .zip(w)
                .map(|(ci, wi)| ci + alpha * (ci - wi))
                .collect()
        };
        let (w_point, w_val) = self.simplex[worst].clone();
        let best_val = self.simplex[0].1;
        let second_worst_val = self.simplex[worst - 1].1;

        let reflected = at(1.0, &centroid, &w_point);
        let f_r = objective(&reflected);
        evals += 1;
        let mut sum = f_r;

        if f_r < best_val {
            // Try expanding.
            let expanded = at(2.0, &centroid, &w_point);
            let f_e = objective(&expanded);
            evals += 1;
            sum += f_e;
            self.simplex[worst] = if f_e < f_r {
                (expanded, f_e)
            } else {
                (reflected, f_r)
            };
        } else if f_r < second_worst_val {
            self.simplex[worst] = (reflected, f_r);
        } else {
            // Contract toward the centroid.
            let contracted = at(-0.5, &centroid, &w_point);
            let f_c = objective(&contracted);
            evals += 1;
            sum += f_c;
            if f_c < w_val {
                self.simplex[worst] = (contracted, f_c);
            } else {
                // Shrink everything toward the best vertex.
                let best_point = self.simplex[0].0.clone();
                for entry in self.simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = entry
                        .0
                        .iter()
                        .zip(&best_point)
                        .map(|(x, b)| b + 0.5 * (x - b))
                        .collect();
                    let f_s = objective(&shrunk);
                    evals += 1;
                    sum += f_s;
                    *entry = (shrunk, f_s);
                }
            }
        }

        self.sort();
        params.copy_from_slice(&self.simplex[0].0);
        StepResult {
            evals,
            mean_objective: sum / (evals.max(1)) as f64,
        }
    }

    fn name(&self) -> &str {
        "nelder-mead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut nm = NelderMead::new(0.5);
        let mut x = vec![3.0, -2.0, 1.0];
        let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
        for _ in 0..300 {
            nm.step(&mut x, &mut f);
        }
        assert!(f(&x) < 0.01, "residual {}", f(&x));
    }

    #[test]
    fn converges_on_rosenbrock() {
        let mut nm = NelderMead::new(0.3);
        let mut x = vec![-1.0, 1.0];
        let mut f = |p: &[f64]| {
            let (a, b) = (p[0], p[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        for _ in 0..600 {
            nm.step(&mut x, &mut f);
        }
        assert!(f(&x) < 0.5, "residual {}", f(&x));
    }

    #[test]
    fn first_step_builds_the_simplex() {
        let mut nm = NelderMead::new(0.1);
        let mut calls = 0usize;
        let mut x = vec![0.0, 0.0];
        let r = nm.step(&mut x, &mut |p| {
            calls += 1;
            p.iter().sum::<f64>()
        });
        // dim+1 simplex evaluations plus at least the reflection.
        assert!(r.evals > 3);
        assert_eq!(r.evals, calls);
    }

    #[test]
    fn later_steps_are_cheap() {
        let mut nm = NelderMead::new(0.1);
        let mut x = vec![1.0, 1.0];
        let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
        nm.step(&mut x, &mut f);
        let r = nm.step(&mut x, &mut f);
        assert!(r.evals <= 2 + 2, "step cost {}", r.evals);
    }

    #[test]
    fn params_track_the_best_vertex() {
        let mut nm = NelderMead::new(0.2);
        let mut x = vec![1.0];
        let mut f = |p: &[f64]| (p[0] - 0.5).powi(2);
        let mut last = f(&x);
        for _ in 0..50 {
            nm.step(&mut x, &mut f);
            let now = f(&x);
            assert!(now <= last + 1e-12, "objective increased");
            last = now;
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_spread() {
        NelderMead::new(0.0);
    }
}
