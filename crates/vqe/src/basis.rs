//! Measurement-basis changes.

use pauli::{Pauli, PauliString};
use qsim::{Circuit, Gate};

/// The basis-rotation circuit that maps a Pauli measurement basis onto
/// computational-basis (Z) measurements: `H` for X positions, `S†·H` for Y
/// positions, nothing for Z or identity (Fig.5 of the paper: "different
/// bases correspond to adding appropriate gates at the end of the ansatz").
///
/// # Examples
///
/// ```
/// use vqe::basis_rotation;
/// use pauli::PauliString;
///
/// let basis: PauliString = "XZY".parse().unwrap();
/// let rot = basis_rotation(&basis);
/// assert_eq!(rot.gate_count(), 3); // H on q0, Sdg+H on q2
/// ```
pub fn basis_rotation(basis: &PauliString) -> Circuit {
    let mut c = Circuit::new(basis.num_qubits());
    for (q, &p) in basis.paulis().iter().enumerate() {
        for gate in basis_change(p, q) {
            c.push(gate);
        }
    }
    c
}

/// The gates, in application order, that turn a measurement of `p` on
/// qubit `q` into a Z measurement: `H` for X, `S†` then `H` for Y, none
/// for Z or identity. [`basis_rotation`] and the executor's density reads
/// both build their basis changes from it.
pub(crate) fn basis_change(p: Pauli, q: usize) -> impl Iterator<Item = Gate> {
    let gates: &[fn(usize) -> Gate] = match p {
        Pauli::I | Pauli::Z => &[],
        Pauli::X => &[Gate::H],
        Pauli::Y => &[Gate::Sdg, Gate::H],
    };
    gates.iter().map(move |gate| gate(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::expectation_from_probs;
    use qsim::Statevector;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    /// Measuring in a rotated basis must reproduce the exact Pauli
    /// expectation computed directly on the statevector.
    fn check_basis_measurement(state_prep: &Circuit, basis: &str) {
        let basis = ps(basis);
        let mut st = Statevector::zero(state_prep.num_qubits());
        st.apply_circuit(state_prep);
        let exact = basis.expectation(&st);

        st.apply_circuit(&basis_rotation(&basis));
        let measured = basis.support();
        let probs = st.marginal_probabilities(&measured);
        let via_counts = expectation_from_probs(&basis, &probs, &measured);
        assert!(
            (exact - via_counts).abs() < 1e-10,
            "basis {basis}: exact {exact} vs measured {via_counts}"
        );
    }

    #[test]
    fn x_basis_measurement_matches_exact() {
        let mut c = Circuit::new(1);
        c.ry(0, 0.7);
        check_basis_measurement(&c, "X");
    }

    #[test]
    fn y_basis_measurement_matches_exact() {
        let mut c = Circuit::new(1);
        c.ry(0, 0.7).rz(0, 0.4);
        check_basis_measurement(&c, "Y");
    }

    #[test]
    fn multi_qubit_mixed_basis() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.9).ry(0, 0.3);
        for basis in ["XZY", "ZZZ", "XXX", "YIZ", "IYX"] {
            check_basis_measurement(&c, basis);
        }
    }

    #[test]
    fn z_and_identity_need_no_gates() {
        assert_eq!(basis_rotation(&ps("ZIZ")).gate_count(), 0);
    }
}
