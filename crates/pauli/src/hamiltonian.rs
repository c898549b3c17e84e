//! Hamiltonians as sparse sums of Pauli terms.

use crate::term::PauliTerm;
use qsim::{HermitianOp, Statevector, C64};
use std::fmt;

/// A Hermitian operator expressed as a real-weighted sum of Pauli strings —
/// the problem representation of a VQA (Section 3.1 of the paper).
///
/// # Examples
///
/// Build a 2-qubit transverse-field Ising Hamiltonian and evaluate its
/// exact expectation on |00⟩:
///
/// ```
/// use pauli::{Hamiltonian, PauliTerm};
/// use qsim::Statevector;
///
/// let mut h = Hamiltonian::new(2);
/// h.push(PauliTerm::parse(-1.0, "ZZ").unwrap());
/// h.push(PauliTerm::parse(-0.5, "XI").unwrap());
/// h.push(PauliTerm::parse(-0.5, "IX").unwrap());
/// let zero = Statevector::zero(2);
/// assert_eq!(h.expectation(&zero), -1.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hamiltonian {
    num_qubits: usize,
    terms: Vec<PauliTerm>,
}

impl Hamiltonian {
    /// An empty Hamiltonian on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Hamiltonian {
            num_qubits,
            terms: Vec::new(),
        }
    }

    /// Builds a Hamiltonian from `(coefficient, string)` text pairs.
    ///
    /// # Panics
    ///
    /// Panics if any string fails to parse or has the wrong length. Intended
    /// for literals in tests and examples; use [`Hamiltonian::push`] for
    /// fallible construction.
    pub fn from_pairs(num_qubits: usize, pairs: &[(f64, &str)]) -> Self {
        let mut h = Hamiltonian::new(num_qubits);
        for &(c, s) in pairs {
            h.push(PauliTerm::parse(c, s).expect("valid Pauli literal"));
        }
        h
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of terms (including any identity term).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The terms, in insertion order.
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> std::slice::Iter<'_, PauliTerm> {
        self.terms.iter()
    }

    /// Appends a term.
    ///
    /// # Panics
    ///
    /// Panics if the term's qubit count differs from the Hamiltonian's.
    pub fn push(&mut self, term: PauliTerm) -> &mut Self {
        assert_eq!(
            term.string().num_qubits(),
            self.num_qubits,
            "term {} has wrong qubit count",
            term
        );
        self.terms.push(term);
        self
    }

    /// Sum of coefficients of all-identity terms (the constant energy
    /// offset, which needs no measurement).
    pub fn identity_offset(&self) -> f64 {
        self.terms
            .iter()
            .filter(|t| t.string().is_identity())
            .map(|t| t.coeff())
            .sum()
    }

    /// The non-identity terms (the ones requiring measurement).
    pub fn measurable_terms(&self) -> Vec<&PauliTerm> {
        self.terms
            .iter()
            .filter(|t| !t.string().is_identity())
            .collect()
    }

    /// The 1-norm of the coefficients, an upper bound on the spectral
    /// radius. Useful for sanity checks and optimizer scaling.
    pub fn coeff_norm(&self) -> f64 {
        self.terms.iter().map(|t| t.coeff().abs()).sum()
    }

    /// Exact expectation value `⟨ψ|H|ψ⟩` (no sampling, no noise).
    ///
    /// # Panics
    ///
    /// Panics if the state has a different qubit count.
    pub fn expectation(&self, state: &Statevector) -> f64 {
        assert_eq!(state.num_qubits(), self.num_qubits, "qubit count mismatch");
        self.terms
            .iter()
            .map(|t| t.coeff() * t.string().expectation(state))
            .sum()
    }

    /// Exact lowest eigenvalue via matrix-free Lanczos — the reproduction's
    /// "Ref. Energy".
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 30`.
    pub fn ground_energy(&self, seed: u64) -> f64 {
        qsim::lowest_eigenvalue(self, 300, 1e-10, seed).eigenvalue
    }
}

impl HermitianOp for Hamiltonian {
    fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    fn apply(&self, x: &[C64], y: &mut [C64]) {
        for t in &self.terms {
            t.string().apply_accumulate(t.coeff(), x, y);
        }
    }
}

impl fmt::Display for Hamiltonian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hamiltonian({} qubits, {} terms):",
            self.num_qubits,
            self.terms.len()
        )?;
        for t in &self.terms {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl Extend<PauliTerm> for Hamiltonian {
    fn extend<T: IntoIterator<Item = PauliTerm>>(&mut self, iter: T) {
        for t in iter {
            self.push(t);
        }
    }
}

impl<'a> IntoIterator for &'a Hamiltonian {
    type Item = &'a PauliTerm;
    type IntoIter = std::slice::Iter<'a, PauliTerm>;
    fn into_iter(self) -> Self::IntoIter {
        self.terms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Circuit;

    fn tfim2() -> Hamiltonian {
        Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")])
    }

    #[test]
    fn expectation_on_product_states() {
        let h = tfim2();
        assert_eq!(h.expectation(&Statevector::zero(2)), -1.0);
        let mut plus = Statevector::zero(2);
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        plus.apply_circuit(&c);
        // ⟨++|ZZ|++⟩ = 0, ⟨++|X|++⟩ = 1 each.
        assert!((h.expectation(&plus) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ground_energy_of_single_qubit_z() {
        let h = Hamiltonian::from_pairs(1, &[(1.0, "Z")]);
        assert!((h.ground_energy(3) + 1.0).abs() < 1e-8);
    }

    #[test]
    fn ground_energy_of_tfim_matches_exact_formula() {
        // 2-qubit TFIM: H = -ZZ - 0.5(XI + IX) has ground energy
        // -sqrt(1 + h²) - ... compute by brute force instead: eigenvalues of
        // the 4x4 matrix. Known: E0 = -sqrt(1 + 1) for h=1... use h=0.5:
        // Exact diagonalization gives E0 = -(1 + 2*0.25)^(1/2)... simpler to
        // verify against the variational bound: E0 <= -1 and E0 >= -coeff_norm.
        let h = tfim2();
        let e0 = h.ground_energy(7);
        assert!(e0 <= -1.0 - 1e-9, "ground below |00⟩ energy, got {e0}");
        assert!(e0 >= -h.coeff_norm() - 1e-9);
        // The exact value for H = -ZZ - h(XI+IX) with h=0.5 is
        // -sqrt(1+4h²)... derive numerically in the 2x2 even-parity block:
        // basis {|00⟩, |11⟩, |01⟩, |10⟩}: even block [[-1, 2h*...]] — assert
        // instead a tight numeric value computed independently: -1.41421356.
        assert!((e0 - (-(2.0f64).sqrt())).abs() < 1e-6, "got {e0}");
    }

    #[test]
    fn identity_offset_and_measurable_terms() {
        let h = Hamiltonian::from_pairs(2, &[(3.5, "II"), (1.0, "ZZ"), (-1.5, "II")]);
        assert_eq!(h.identity_offset(), 2.0);
        assert_eq!(h.measurable_terms().len(), 1);
    }

    #[test]
    #[should_panic(expected = "wrong qubit count")]
    fn push_checks_length() {
        Hamiltonian::new(2).push(PauliTerm::parse(1.0, "ZZZ").unwrap());
    }

    #[test]
    fn hermitian_op_matches_expectation() {
        // ⟨ψ|H|ψ⟩ via apply() must equal expectation().
        let h = tfim2();
        let mut st = Statevector::zero(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.7);
        st.apply_circuit(&c);
        let x = st.amplitudes();
        let mut y = vec![C64::ZERO; 4];
        h.apply(x, &mut y);
        let via_apply: f64 = x.iter().zip(&y).map(|(a, b)| (a.conj() * *b).re).sum();
        assert!((via_apply - h.expectation(&st)).abs() < 1e-12);
    }
}
