//! Quantum circuit representation.

use crate::gate::Gate;
use std::fmt;

/// An ordered sequence of gates on a fixed number of qubits.
///
/// `Circuit` is a plain gate list: parameter binding is the caller's concern
/// (the `vqe` crate builds a fresh concrete circuit per parameter vector,
/// which keeps this type simple and cheap to simulate).
///
/// # Examples
///
/// Build a Bell pair preparation circuit:
///
/// ```
/// use qsim::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.gate_count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// The number of qubits the circuit acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gates of the circuit, in application order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The number of gates in the circuit.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The number of two-qubit gates in the circuit.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit `>= num_qubits`, or if a
    /// two-qubit gate addresses the same qubit twice.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        // A `match`, not `Gate::qubits()`: no `Vec` per appended gate.
        let (first, second) = match gate {
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => (a, Some(b)),
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
            | Gate::Rz(q, _) => (q, None),
        };
        for q in std::iter::once(first).chain(second) {
            assert!(
                q < self.num_qubits,
                "gate {gate} addresses qubit {q} but circuit has {} qubits",
                self.num_qubits
            );
        }
        assert!(
            second != Some(first),
            "two-qubit gate {gate} repeats qubit {first}"
        );
        self.gates.push(gate);
        self
    }

    /// Appends all gates of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` acts on more qubits than this circuit.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    /// The inverse circuit: reversed gate order, each gate inverted.
    ///
    /// ```
    /// use qsim::{Circuit, Statevector};
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1).rz(1, 0.4);
    /// let mut s = Statevector::zero(2);
    /// s.apply_circuit(&c);
    /// s.apply_circuit(&c.inverse());
    /// assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
    /// ```
    pub fn inverse(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    // --- fluent builder helpers -------------------------------------------

    /// Appends a Hadamard gate on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }
    /// Appends a Pauli-X gate on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }
    /// Appends a Pauli-Y gate on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }
    /// Appends a Pauli-Z gate on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }
    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }
    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }
    /// Appends an X rotation on `q` by `theta` radians.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }
    /// Appends a Y rotation on `q` by `theta` radians.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }
    /// Appends a Z rotation on `q` by `theta` radians.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }
    /// Appends a CX with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::Cx(c, t))
    }
    /// Appends a CZ on `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }
    /// Appends a SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates):",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "addresses qubit 5")]
    fn out_of_range_qubit_panics() {
        Circuit::new(2).h(5);
    }

    #[test]
    #[should_panic(expected = "repeats qubit")]
    fn repeated_qubit_in_two_qubit_gate_panics() {
        Circuit::new(3).cx(1, 1);
    }

    #[test]
    fn append_merges_gate_lists() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.gates(), &[Gate::H(0), Gate::Cx(0, 1)]);
    }

    #[test]
    fn inverse_reverses_and_adjoints() {
        let mut c = Circuit::new(2);
        c.s(0).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gates(), &[Gate::Cx(0, 1), Gate::Sdg(0)]);
    }

    #[test]
    fn extend_accepts_gate_iterator() {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::H(1)]);
        assert_eq!(c.gate_count(), 2);
    }
}
