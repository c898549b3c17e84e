//! Matrix-free extremal eigenvalue computation.
//!
//! Reference ground-state energies (the paper's "Ref. Energy" column and the
//! "Ideal" curves) are the lowest eigenvalues of Hamiltonians that act on
//! 2ⁿ-dimensional spaces. A dense eigensolver would cap us at a handful of
//! qubits, so this module implements the Lanczos algorithm over an abstract
//! [`HermitianOp`]: the operator is only ever needed through matrix-vector
//! products, which a Pauli-sum Hamiltonian provides in `O(terms · 2ⁿ)` time.

use crate::complex::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Hermitian linear operator on a complex vector space, exposed through
/// matrix-vector products only.
///
/// Implementors must guarantee Hermiticity; the Lanczos iteration silently
/// produces garbage for non-Hermitian operators.
pub trait HermitianOp {
    /// The dimension of the space the operator acts on.
    fn dim(&self) -> usize;

    /// Computes `y = A·x`.
    ///
    /// `y` is zero-initialized by the caller; implementations should
    /// accumulate into it.
    fn apply(&self, x: &[C64], y: &mut [C64]);
}

/// Result of a Lanczos run.
#[derive(Clone, Debug, PartialEq)]
pub struct LanczosResult {
    /// The converged lowest eigenvalue estimate.
    pub eigenvalue: f64,
    /// Number of Lanczos iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met (as opposed to hitting the iteration
    /// cap or exhausting the space).
    pub converged: bool,
}

/// Computes the lowest eigenvalue of `op` with the Lanczos algorithm.
///
/// Uses full reorthogonalization (the Krylov dimensions involved here are
/// small — a few hundred at most), a seeded random start vector, and stops
/// once the eigenvalue estimate changes by less than `tol` between
/// iterations, the Krylov space is exhausted, or `max_iter` steps elapse.
///
/// # Panics
///
/// Panics if `op.dim() == 0`.
///
/// # Examples
///
/// ```
/// use qsim::{lowest_eigenvalue, C64, HermitianOp};
///
/// /// Diagonal operator diag(3, -1, 4, 1).
/// struct Diag(Vec<f64>);
/// impl HermitianOp for Diag {
///     fn dim(&self) -> usize { self.0.len() }
///     fn apply(&self, x: &[C64], y: &mut [C64]) {
///         for i in 0..x.len() { y[i] = x[i].scale(self.0[i]); }
///     }
/// }
///
/// let r = lowest_eigenvalue(&Diag(vec![3.0, -1.0, 4.0, 1.0]), 50, 1e-10, 7);
/// assert!((r.eigenvalue + 1.0).abs() < 1e-8);
/// ```
pub fn lowest_eigenvalue<O: HermitianOp>(
    op: &O,
    max_iter: usize,
    tol: f64,
    seed: u64,
) -> LanczosResult {
    let dim = op.dim();
    assert!(dim > 0, "operator dimension must be positive");
    let steps = max_iter.min(dim).max(1);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = random_unit(dim, &mut rng);

    let mut basis: Vec<Vec<C64>> = Vec::with_capacity(steps);
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);

    let mut prev_eig = f64::INFINITY;
    let mut w = vec![C64::ZERO; dim];

    for k in 0..steps {
        basis.push(v.clone());
        w.iter_mut().for_each(|x| *x = C64::ZERO);
        op.apply(&v, &mut w);

        // alpha_k = <v, w>  (real for Hermitian op)
        let alpha: f64 = v.iter().zip(&w).map(|(a, b)| (a.conj() * *b).re).sum();
        alphas.push(alpha);

        // w -= alpha*v + beta_{k-1}*v_{k-1}
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi -= vi.scale(alpha);
        }
        if k > 0 {
            let beta_prev = betas[k - 1];
            for (wi, ui) in w.iter_mut().zip(&basis[k - 1]) {
                *wi -= ui.scale(beta_prev);
            }
        }

        // Full reorthogonalization against the accumulated basis (twice is
        // enough in double precision).
        for _ in 0..2 {
            for u in &basis {
                let proj: C64 = u.iter().zip(&w).map(|(a, b)| a.conj() * *b).sum();
                for (wi, ui) in w.iter_mut().zip(u) {
                    *wi -= *ui * proj;
                }
            }
        }

        let eig = smallest_tridiagonal_eigenvalue(&alphas, &betas);
        let beta: f64 = w.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt();

        if (prev_eig - eig).abs() < tol || beta < 1e-12 {
            return LanczosResult {
                eigenvalue: eig,
                iterations: k + 1,
                converged: true,
            };
        }
        prev_eig = eig;
        betas.push(beta);
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi.scale(1.0 / beta);
        }
    }

    LanczosResult {
        eigenvalue: smallest_tridiagonal_eigenvalue(&alphas, &betas),
        iterations: steps,
        converged: false,
    }
}

fn random_unit(dim: usize, rng: &mut StdRng) -> Vec<C64> {
    let mut v: Vec<C64> = (0..dim)
        .map(|_| C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
        .collect();
    let norm: f64 = v.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt();
    v.iter_mut().for_each(|x| *x = x.scale(1.0 / norm));
    v
}

/// Smallest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `alphas` and off-diagonal `betas` (`betas.len() >= alphas.len() - 1`;
/// extra entries are ignored), found by bisection on the Sturm sequence.
pub fn smallest_tridiagonal_eigenvalue(alphas: &[f64], betas: &[f64]) -> f64 {
    let n = alphas.len();
    assert!(n > 0, "empty tridiagonal matrix");
    if n == 1 {
        return alphas[0];
    }
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let mut r = 0.0;
        if i > 0 {
            r += betas[i - 1].abs();
        }
        if i < n - 1 {
            r += betas[i].abs();
        }
        lo = lo.min(alphas[i] - r);
        hi = hi.max(alphas[i] + r);
    }
    // Bisection: count_below(x) = number of eigenvalues < x.
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = alphas[0] - x;
        if d < 0.0 {
            count += 1;
        }
        for i in 1..n {
            let b2 = betas[i - 1] * betas[i - 1];
            let denom = if d.abs() < 1e-300 {
                1e-300_f64.copysign(d + 1e-300)
            } else {
                d
            };
            d = alphas[i] - x - b2 / denom;
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    let (mut lo, mut hi) = (lo - 1e-8, hi + 1e-8);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if count_below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-13 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dense {
        n: usize,
        m: Vec<C64>, // row-major n×n
    }

    impl HermitianOp for Dense {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, x: &[C64], y: &mut [C64]) {
            for (yi, row) in y.iter_mut().zip(self.m.chunks_exact(self.n)) {
                for (&a, &xj) in row.iter().zip(x) {
                    *yi += a * xj;
                }
            }
        }
    }

    fn real_dense(n: usize, entries: &[f64]) -> Dense {
        Dense {
            n,
            m: entries.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    #[test]
    fn tridiagonal_eigenvalue_of_1x1() {
        assert_eq!(smallest_tridiagonal_eigenvalue(&[4.2], &[]), 4.2);
    }

    #[test]
    fn tridiagonal_eigenvalue_of_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let e = smallest_tridiagonal_eigenvalue(&[2.0, 2.0], &[1.0]);
        assert!((e - 1.0).abs() < 1e-10);
    }

    #[test]
    fn lanczos_on_symmetric_2x2() {
        let op = real_dense(2, &[2.0, 1.0, 1.0, 2.0]);
        let r = lowest_eigenvalue(&op, 50, 1e-12, 3);
        assert!((r.eigenvalue - 1.0).abs() < 1e-9, "{}", r.eigenvalue);
    }

    #[test]
    fn lanczos_on_complex_hermitian() {
        // [[1, i], [-i, 1]] has eigenvalues 0 and 2.
        let op = Dense {
            n: 2,
            m: vec![C64::ONE, C64::I, -C64::I, C64::ONE],
        };
        let r = lowest_eigenvalue(&op, 50, 1e-12, 5);
        assert!(r.eigenvalue.abs() < 1e-9, "{}", r.eigenvalue);
    }

    #[test]
    fn lanczos_on_diagonal_operator() {
        struct Diag(Vec<f64>);
        impl HermitianOp for Diag {
            fn dim(&self) -> usize {
                self.0.len()
            }
            fn apply(&self, x: &[C64], y: &mut [C64]) {
                for i in 0..x.len() {
                    y[i] = x[i].scale(self.0[i]);
                }
            }
        }
        let diag: Vec<f64> = (0..64).map(|i| (i as f64) * 0.37 - 7.5).collect();
        let op = Diag(diag.clone());
        let want = diag.iter().cloned().fold(f64::INFINITY, f64::min);
        let r = lowest_eigenvalue(&op, 200, 1e-12, 11);
        assert!(
            (r.eigenvalue - want).abs() < 1e-8,
            "{} vs {}",
            r.eigenvalue,
            want
        );
    }

    #[test]
    fn lanczos_is_seed_stable() {
        let op = real_dense(3, &[1.0, 0.2, 0.0, 0.2, -2.0, 0.5, 0.0, 0.5, 0.7]);
        let a = lowest_eigenvalue(&op, 100, 1e-12, 42);
        let b = lowest_eigenvalue(&op, 100, 1e-12, 42);
        assert_eq!(a, b);
        let c = lowest_eigenvalue(&op, 100, 1e-12, 43);
        assert!((a.eigenvalue - c.eigenvalue).abs() < 1e-8);
    }
}
