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

// --- 4×4 block-matrix helpers -------------------------------------------
//
// The entangler-block fusion pass (`crate::plan`) lowers adjacent
// two-qubit ops on one qubit pair — plus the single-qubit rotation
// sandwiches around them — into a single 4×4 unitary. The basis
// convention everywhere is `s = 2·bit(hi) + bit(lo)` for the (sorted)
// qubit pair `lo < hi`, matching [`kron2`]'s operand order
// `kron2(on_hi, on_lo)`.

/// 4×4 complex matrix product `a · b`, accumulated left to right
/// (`((a·b)₀ + …)`), so every caller produces bit-identical entries.
pub(crate) fn matmul4(a: &[[C64; 4]; 4], b: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell =
                ((a[i][0] * b[0][j] + a[i][1] * b[1][j]) + a[i][2] * b[2][j]) + a[i][3] * b[3][j];
        }
    }
    out
}

/// Kronecker product of two single-qubit matrices: `kron2(a, b)[2i+k][2j+l]
/// = a[i][j] · b[k][l]` — `a` acts on the *high* bit of the pair basis,
/// `b` on the *low* bit.
pub(crate) fn kron2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..2 {
                for l in 0..2 {
                    out[2 * i + k][2 * j + l] = a[i][j] * b[k][l];
                }
            }
        }
    }
    out
}

/// The 2×2 identity, for [`kron2`] embeddings of one-qubit runs.
pub(crate) fn identity2() -> [[C64; 2]; 2] {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]]
}

/// Transposes a 4×4 matrix. Only used by the block-path mutation check
/// (a transposed block must be caught by the plan tests).
pub(crate) fn transpose4(m: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            out[i][j] = m[j][i];
        }
    }
    out
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
            for i in 0..self.n {
                for j in 0..self.n {
                    y[i] += self.m[i * self.n + j] * x[j];
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

    // --- 4×4 block-matrix helpers ---

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    fn cz4() -> [[C64; 4]; 4] {
        let mut m = [[C64::ZERO; 4]; 4];
        for (s, row) in m.iter_mut().enumerate() {
            row[s] = if s == 3 { -C64::ONE } else { C64::ONE };
        }
        m
    }

    /// CX with control on the low bit, target on the high bit:
    /// s = 2·bit(hi) + bit(lo), so basis states 1 (01) and 3 (11) swap.
    fn cx4_control_lo() -> [[C64; 4]; 4] {
        let mut m = [[C64::ZERO; 4]; 4];
        m[0][0] = C64::ONE;
        m[2][2] = C64::ONE;
        m[1][3] = C64::ONE;
        m[3][1] = C64::ONE;
        m
    }

    fn ry2(theta: f64) -> [[C64; 2]; 2] {
        let (s, co) = (theta / 2.0).sin_cos();
        [
            [C64::real(co), C64::real(-s)],
            [C64::real(s), C64::real(co)],
        ]
    }

    fn rz2(theta: f64) -> [[C64; 2]; 2] {
        let (s, co) = (theta / 2.0).sin_cos();
        [[c(co, -s), C64::ZERO], [C64::ZERO, c(co, s)]]
    }

    fn dagger4(m: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
        let mut out = [[C64::ZERO; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                out[i][j] = m[j][i].conj();
            }
        }
        out
    }

    fn assert_close4(a: &[[C64; 4]; 4], b: &[[C64; 4]; 4], tol: f64) {
        for i in 0..4 {
            for j in 0..4 {
                let d = a[i][j] - b[i][j];
                assert!(
                    d.re.abs() <= tol && d.im.abs() <= tol,
                    "entry ({i},{j}): {:?} vs {:?}",
                    a[i][j],
                    b[i][j]
                );
            }
        }
    }

    fn identity4() -> [[C64; 4]; 4] {
        kron2(&identity2(), &identity2())
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let id = identity4();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { C64::ONE } else { C64::ZERO };
                assert_eq!(id[i][j], want);
            }
        }
    }

    #[test]
    fn cz_is_diagonal_and_cx_squares_to_identity() {
        let cz = cz4();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(cz[i][j], C64::ZERO);
                }
            }
        }
        // CZ² = I and CX·CX = I.
        assert_close4(&matmul4(&cz, &cz), &identity4(), 0.0);
        let cx = cx4_control_lo();
        assert_close4(&matmul4(&cx, &cx), &identity4(), 0.0);
    }

    #[test]
    fn matmul_products_of_unitaries_stay_unitary() {
        // A rotation sandwich around an entangler: U = (Rz⊗Ry)·CX·(Ry⊗Rz).
        let pre = kron2(&ry2(0.37), &rz2(-1.2));
        let post = kron2(&rz2(2.1), &ry2(0.55));
        let u = matmul4(&post, &matmul4(&cx4_control_lo(), &pre));
        assert_close4(&matmul4(&dagger4(&u), &u), &identity4(), 1e-12);
    }

    #[test]
    fn sandwich_association_orders_agree() {
        // (post·cx)·pre == post·(cx·pre) to numerical tolerance — the bind
        // pass may accumulate in either grouping without changing physics.
        let pre = kron2(&rz2(0.9), &ry2(-0.4));
        let post = kron2(&ry2(1.7), &rz2(0.2));
        let cz = cz4();
        let a = matmul4(&matmul4(&post, &cz), &pre);
        let b = matmul4(&post, &matmul4(&cz, &pre));
        assert_close4(&a, &b, 1e-14);
    }

    #[test]
    fn kron_against_known_gate_identity() {
        // Rz⊗Rz is diagonal, and matches the product of the two
        // single-qubit diagonals entry by entry.
        let a = rz2(0.8);
        let b = rz2(-0.3);
        let k = kron2(&a, &b);
        for i in 0..2 {
            for kbit in 0..2 {
                let s = 2 * i + kbit;
                assert_eq!(k[s][s], a[i][i] * b[kbit][kbit]);
                for t in 0..4 {
                    if t != s {
                        assert_eq!(k[s][t], C64::ZERO);
                    }
                }
            }
        }
    }

    #[test]
    fn transpose4_flips_cx_direction() {
        // CX is symmetric, so transpose is a no-op on it; a non-symmetric
        // sandwich is not fixed by transposition (the mutation the
        // plan tests rely on being visible).
        let cx = cx4_control_lo();
        assert_close4(&transpose4(&cx), &cx, 0.0);
        let u = matmul4(&kron2(&ry2(0.5), &identity2()), &cx);
        let t = transpose4(&u);
        // Ry's off-diagonal is antisymmetric: (0,2) flips sign under ᵀ.
        assert!(u[0][2] != t[0][2]);
    }
}
