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
/// assert_eq!(c.depth(), 2);
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
        let qs = gate.qubits();
        for &q in &qs {
            assert!(
                q < self.num_qubits,
                "gate {gate} addresses qubit {q} but circuit has {} qubits",
                self.num_qubits
            );
        }
        if qs.len() == 2 {
            assert!(
                qs[0] != qs[1],
                "two-qubit gate {gate} repeats qubit {}",
                qs[0]
            );
        }
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

    /// Circuit depth: the number of layers when gates are greedily packed
    /// into layers of disjoint qubits. Computed by the one-pass
    /// [`Circuit::stats`] scan.
    pub fn depth(&self) -> usize {
        self.stats().depth
    }

    /// Structural statistics in one pass: gate and depth counts plus the
    /// per-qubit single-qubit *run lengths* underlying the gate-fusion
    /// model (a run is a maximal stretch of adjacent single-qubit gates
    /// on one qubit, uninterrupted by a two-qubit gate touching it) —
    /// how to size a circuit's execution cost without compiling it.
    ///
    /// `fusible_gates` counts conservatively: diagonal runs that the plan
    /// compiler additionally folds through CZ / CX controls are not
    /// anticipated here, so [`CircuitStats::fused_ops`] is an upper bound
    /// on the sweeps a compiled [`crate::CircuitPlan`] executes.
    ///
    /// `fusible_pairs` mirrors the entangler-block coalescer greedily:
    /// two-qubit gates that repeat the pair of an *open* block — one not
    /// yet closed by an overlapping two-qubit gate on another pair —
    /// each count once (single-qubit gates never close a block; the
    /// compiler holds them for absorption).
    ///
    /// ```
    /// use qsim::Circuit;
    /// let mut c = Circuit::new(2);
    /// c.ry(0, 0.1).rz(0, 0.2).ry(1, 0.3).rz(1, 0.4).cx(0, 1);
    /// let s = c.stats();
    /// assert_eq!(s.gate_count, 5);
    /// assert_eq!(s.max_run, 2);
    /// assert_eq!(s.fusible_gates, 2);
    /// assert_eq!(s.fused_ops(), 3);
    /// assert_eq!(s.fusible_pairs, 0);
    /// ```
    pub fn stats(&self) -> CircuitStats {
        let mut level = vec![0usize; self.num_qubits];
        let mut run = vec![0usize; self.num_qubits];
        let mut run_lengths = vec![0usize; self.num_qubits];
        // Per-qubit pair of the open entangler block the qubit belongs to.
        let mut open_pair: Vec<Option<(usize, usize)>> = vec![None; self.num_qubits];
        let mut stats = CircuitStats {
            num_qubits: self.num_qubits,
            gate_count: self.gates.len(),
            two_qubit_gates: 0,
            depth: 0,
            max_run: 0,
            fusible_gates: 0,
            fusible_pairs: 0,
            run_lengths: Vec::new(),
        };
        let close_run = |q: usize, run: &mut [usize], stats: &mut CircuitStats| {
            if run[q] > 1 {
                stats.fusible_gates += run[q] - 1;
            }
            run[q] = 0;
        };
        for g in &self.gates {
            let qs = g.qubits();
            let l = qs.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &qs {
                level[q] = l;
            }
            stats.depth = stats.depth.max(l);
            if g.is_two_qubit() {
                stats.two_qubit_gates += 1;
                for &q in &qs {
                    close_run(q, &mut run, &mut stats);
                }
                let pair = (qs[0].min(qs[1]), qs[0].max(qs[1]));
                if open_pair[pair.0] == Some(pair) && open_pair[pair.1] == Some(pair) {
                    stats.fusible_pairs += 1;
                } else {
                    for &q in &qs {
                        if let Some((a, b)) = open_pair[q].take() {
                            open_pair[a] = None;
                            open_pair[b] = None;
                        }
                    }
                    open_pair[pair.0] = Some(pair);
                    open_pair[pair.1] = Some(pair);
                }
            } else {
                let q = qs[0];
                run[q] += 1;
                run_lengths[q] = run_lengths[q].max(run[q]);
                stats.max_run = stats.max_run.max(run[q]);
            }
        }
        for q in 0..self.num_qubits {
            close_run(q, &mut run, &mut stats);
        }
        stats.run_lengths = run_lengths;
        stats
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

/// One-pass structural statistics of a [`Circuit`] — see
/// [`Circuit::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// The number of qubits of the circuit's register.
    pub num_qubits: usize,
    /// Total gates.
    pub gate_count: usize,
    /// Gates acting on two qubits.
    pub two_qubit_gates: usize,
    /// Greedy layer depth (same as [`Circuit::depth`]).
    pub depth: usize,
    /// The longest single-qubit run on any qubit.
    pub max_run: usize,
    /// Single-qubit gates that adjacent-run fusion eliminates (each run of
    /// length `k` collapses to one sweep, removing `k − 1`).
    pub fusible_gates: usize,
    /// Two-qubit gates that entangler-block fusion absorbs into an
    /// already-open block on the same qubit pair (each block of `k`
    /// two-qubit gates contributes `k − 1`). A greedy mirror of the plan
    /// compiler's coalescing pass — see [`CircuitStats::blocked_ops`]
    /// for why it is an estimate.
    pub fusible_pairs: usize,
    /// The longest single-qubit run per qubit (index = qubit).
    pub run_lengths: Vec<usize>,
}

impl CircuitStats {
    /// The number of state sweeps after adjacent-run fusion — a static
    /// upper bound on a compiled plan's op count (diagonal folding
    /// through entanglers can fuse further). The parallel dispatch
    /// heuristics weigh the compiled plan's exact
    /// [`op_count`](crate::CircuitPlan::op_count) — the quantity this
    /// estimates without compiling — rather than the raw gate count.
    pub fn fused_ops(&self) -> usize {
        self.gate_count - self.fusible_gates
    }

    /// The sweeps left after entangler-block fusion additionally collapses
    /// same-pair two-qubit gates — an **estimate**, not a bound, of a
    /// compiled plan's [`op_count`](crate::CircuitPlan::op_count).
    ///
    /// It drifts from the compiled count in both directions: rotation
    /// sandwiches absorbed *into* blocks remove more sweeps than
    /// `fusible_pairs` anticipates, while diagonal folding can reshape
    /// the slot sequence so pairs this mirror counts never become
    /// adjacent (e.g. `rz(0)`, `cz(0,1)`, `cx(1,2)`: the plan folds the
    /// RZ through the CZ diagonal, leaving two lone entanglers).
    ///
    /// ```
    /// use qsim::Circuit;
    /// let mut c = Circuit::new(2);
    /// c.cx(0, 1).cz(0, 1).ry(0, 0.3);
    /// let s = c.stats();
    /// assert_eq!(s.fusible_pairs, 1);
    /// assert_eq!(s.blocked_ops(), 2);
    /// ```
    pub fn blocked_ops(&self) -> usize {
        self.fused_ops().saturating_sub(self.fusible_pairs)
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
    fn depth_packs_disjoint_gates() {
        let mut c = Circuit::new(4);
        // Layer 1: h0, h1, h2, h3. Layer 2: cx(0,1), cx(2,3). Layer 3: cx(1,2).
        c.h(0).h(1).h(2).h(3).cx(0, 1).cx(2, 3).cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn depth_of_empty_circuit_is_zero() {
        assert_eq!(Circuit::new(3).depth(), 0);
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
    fn stats_count_fusible_pairs_greedily() {
        let mut c = Circuit::new(3);
        // cz(0,1) repeats the open (0,1) pair (the ry holds, it does not
        // close); cx(1,2) overlaps qubit 1 and closes it; the second
        // cx(1,2) repeats the new open pair; swap(0,2) closes that.
        c.cx(0, 1).ry(0, 0.1).cz(0, 1).cx(1, 2).cx(1, 2).swap(0, 2);
        let s = c.stats();
        assert_eq!(s.fusible_pairs, 2);
        assert_eq!(s.blocked_ops(), 4);
        // Lone entanglers on alternating pairs never pair up.
        let mut alt = Circuit::new(3);
        alt.cx(0, 1).cx(1, 2).cx(0, 1).cx(1, 2);
        assert_eq!(alt.stats().fusible_pairs, 0);
    }

    #[test]
    fn extend_accepts_gate_iterator() {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::H(1)]);
        assert_eq!(c.gate_count(), 2);
    }
}
