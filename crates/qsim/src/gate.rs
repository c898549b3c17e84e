//! The simulator's gate set.
//!
//! The gate set is the minimal one needed by the VarSaw reproduction:
//! the Clifford generators used by hardware-efficient ansatz entanglers and
//! measurement-basis changes, plus parameterized single-qubit rotations.

use crate::complex::C64;
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// A quantum gate acting on one or two qubits of a circuit.
///
/// Qubit indices are validated when the gate is added to a
/// [`Circuit`](crate::Circuit), not at construction.
///
/// # Examples
///
/// ```
/// use qsim::Gate;
///
/// let g = Gate::Cx(0, 1);
/// assert_eq!(g.qubits(), vec![0, 1]);
/// assert!(g.is_two_qubit());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard gate.
    H(usize),
    /// Pauli-X (NOT) gate.
    X(usize),
    /// Pauli-Y gate.
    Y(usize),
    /// Pauli-Z gate.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Inverse phase gate S† = diag(1, -i).
    Sdg(usize),
    /// T gate = diag(1, e^{iπ/4}).
    T(usize),
    /// Inverse T gate.
    Tdg(usize),
    /// Rotation about X by the given angle (radians).
    Rx(usize, f64),
    /// Rotation about Y by the given angle (radians).
    Ry(usize, f64),
    /// Rotation about Z by the given angle (radians).
    Rz(usize, f64),
    /// Controlled-X with (control, target).
    Cx(usize, usize),
    /// Controlled-Z (symmetric in its qubits).
    Cz(usize, usize),
    /// Swaps two qubits.
    Swap(usize, usize),
}

impl Gate {
    /// The qubits this gate acts on, control first for [`Gate::Cx`].
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _) => vec![q],
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => vec![a, b],
        }
    }

    /// Whether the gate acts on two qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cx(..) | Gate::Cz(..) | Gate::Swap(..))
    }

    /// Whether the gate's matrix is diagonal in the computational basis.
    ///
    /// Diagonal single-qubit gates commute with CZ (on either qubit) and
    /// with the *control* side of CX, which is what lets the circuit
    /// compiler ([`crate::CircuitPlan`]) fold them through entanglers into
    /// the next rotation run.
    ///
    /// ```
    /// use qsim::Gate;
    /// assert!(Gate::Rz(0, 0.3).is_diagonal());
    /// assert!(Gate::Cz(0, 1).is_diagonal());
    /// assert!(!Gate::Ry(0, 0.3).is_diagonal());
    /// ```
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::T(_)
                | Gate::Tdg(_)
                | Gate::Rz(..)
                | Gate::Cz(..)
        )
    }

    /// The 2×2 unitary matrix of a single-qubit gate in row-major order
    /// `[[m00, m01], [m10, m11]]`, or `None` for two-qubit gates.
    ///
    /// ```
    /// use qsim::Gate;
    /// let m = Gate::X(0).matrix().unwrap();
    /// assert_eq!(m[0][1].re, 1.0);
    /// assert!(Gate::Cx(0, 1).matrix().is_none());
    /// ```
    pub fn matrix(&self) -> Option<[[C64; 2]; 2]> {
        let r = |x: f64| C64::real(x);
        let m = match *self {
            Gate::H(_) => [
                [r(FRAC_1_SQRT_2), r(FRAC_1_SQRT_2)],
                [r(FRAC_1_SQRT_2), r(-FRAC_1_SQRT_2)],
            ],
            Gate::X(_) => [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]],
            Gate::Y(_) => [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]],
            Gate::Z(_) => [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]],
            Gate::S(_) => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]],
            Gate::Sdg(_) => [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]],
            Gate::T(_) => [
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::expi(std::f64::consts::FRAC_PI_4)],
            ],
            Gate::Tdg(_) => [
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::expi(-std::f64::consts::FRAC_PI_4)],
            ],
            Gate::Rx(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[r(c), C64::new(0.0, -s)], [C64::new(0.0, -s), r(c)]]
            }
            Gate::Ry(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[r(c), r(-s)], [r(s), r(c)]]
            }
            Gate::Rz(_, t) => [
                [C64::expi(-t / 2.0), C64::ZERO],
                [C64::ZERO, C64::expi(t / 2.0)],
            ],
            Gate::Cx(..) | Gate::Cz(..) | Gate::Swap(..) => return None,
        };
        Some(m)
    }

    /// The inverse (adjoint) of the gate.
    ///
    /// ```
    /// use qsim::Gate;
    /// assert_eq!(Gate::S(2).inverse(), Gate::Sdg(2));
    /// assert_eq!(Gate::Rx(0, 0.3).inverse(), Gate::Rx(0, -0.3));
    /// ```
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Rx(q, t) => Gate::Rx(q, -t),
            Gate::Ry(q, t) => Gate::Ry(q, -t),
            Gate::Rz(q, t) => Gate::Rz(q, -t),
            g => g, // H, X, Y, Z, CX, CZ, SWAP are involutions
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "h q{q}"),
            Gate::X(q) => write!(f, "x q{q}"),
            Gate::Y(q) => write!(f, "y q{q}"),
            Gate::Z(q) => write!(f, "z q{q}"),
            Gate::S(q) => write!(f, "s q{q}"),
            Gate::Sdg(q) => write!(f, "sdg q{q}"),
            Gate::T(q) => write!(f, "t q{q}"),
            Gate::Tdg(q) => write!(f, "tdg q{q}"),
            Gate::Rx(q, t) => write!(f, "rx({t:.6}) q{q}"),
            Gate::Ry(q, t) => write!(f, "ry({t:.6}) q{q}"),
            Gate::Rz(q, t) => write!(f, "rz({t:.6}) q{q}"),
            Gate::Cx(a, b) => write!(f, "cx q{a}, q{b}"),
            Gate::Cz(a, b) => write!(f, "cz q{a}, q{b}"),
            Gate::Swap(a, b) => write!(f, "swap q{a}, q{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_unitary(m: [[C64; 2]; 2]) -> bool {
        // m† m == I
        let mut prod = [[C64::ZERO; 2]; 2];
        for (i, row) in prod.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                for mk in &m {
                    *cell += mk[i].conj() * mk[j];
                }
            }
        }
        (prod[0][0] - C64::ONE).abs() < 1e-12
            && (prod[1][1] - C64::ONE).abs() < 1e-12
            && prod[0][1].abs() < 1e-12
            && prod[1][0].abs() < 1e-12
    }

    #[test]
    fn all_single_qubit_matrices_are_unitary() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Rx(0, 0.7),
            Gate::Ry(0, -1.3),
            Gate::Rz(0, 2.9),
        ];
        for g in gates {
            assert!(is_unitary(g.matrix().unwrap()), "{g} is not unitary");
        }
    }

    #[test]
    fn two_qubit_gates_have_no_matrix() {
        assert!(Gate::Cx(0, 1).matrix().is_none());
        assert!(Gate::Cz(0, 1).matrix().is_none());
        assert!(Gate::Swap(0, 1).matrix().is_none());
    }

    #[test]
    fn inverse_of_rotation_negates_angle() {
        assert_eq!(Gate::Ry(1, 0.25).inverse(), Gate::Ry(1, -0.25));
        assert_eq!(Gate::H(3).inverse(), Gate::H(3));
    }

    #[test]
    fn inverse_matrix_is_adjoint() {
        for g in [Gate::S(0), Gate::T(0), Gate::Rz(0, 1.1)] {
            let m = g.matrix().unwrap();
            let minv = g.inverse().matrix().unwrap();
            // minv == m† elementwise
            for i in 0..2 {
                for j in 0..2 {
                    assert!((minv[i][j] - m[j][i].conj()).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn qubits_reported_in_order() {
        assert_eq!(Gate::Cx(3, 1).qubits(), vec![3, 1]);
        assert_eq!(Gate::Rz(2, 0.1).qubits(), vec![2]);
    }
}
