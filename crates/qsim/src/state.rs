//! Dense state-vector simulation.

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::exec;
use crate::gate::Gate;
use crate::plan::{CircuitPlan, PlanOp};
use std::fmt;

/// A dense amplitude plane cannot be allocated: the register is beyond
/// the representation limit, or the allocator refused the reservation.
/// Returned by [`Statevector::try_zero`] so capacity-probing callers can
/// fall back — e.g. to a smaller register — or report the failure
/// instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityError {
    num_qubits: usize,
    bytes: u128,
}

impl CapacityError {
    pub(crate) fn new(num_qubits: usize) -> Self {
        CapacityError {
            num_qubits,
            bytes: exec::state_bytes_for_qubits(num_qubits),
        }
    }

    /// The register size that could not be allocated.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The bytes the dense amplitude plane would have occupied
    /// (saturating for absurd register sizes).
    pub fn bytes(&self) -> u128 {
        self.bytes
    }
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot allocate a dense {}-qubit statevector ({} bytes)",
            self.num_qubits, self.bytes
        )
    }
}

impl std::error::Error for CapacityError {}

/// A pure quantum state over `n` qubits, stored as 2ⁿ complex amplitudes.
///
/// Basis-state index bit `q` is the outcome of qubit `q` (little-endian:
/// qubit 0 is the least-significant bit).
///
/// # Examples
///
/// ```
/// use qsim::{Circuit, Statevector};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut psi = Statevector::zero(2);
/// psi.apply_circuit(&bell);
/// let p = psi.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl Statevector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 30` (the dense representation would not
    /// fit). For a fallible variant that also survives allocator
    /// refusals, see [`Statevector::try_zero`].
    pub fn zero(num_qubits: usize) -> Self {
        Self::try_zero(num_qubits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The all-zeros state `|0…0⟩`, or a [`CapacityError`] when the dense
    /// plane cannot exist: the register exceeds the 30-qubit
    /// representation limit, or the allocator refuses the reservation
    /// (`2ⁿ⁺⁴` bytes — checked with [`Vec::try_reserve_exact`] instead of
    /// aborting the process). Capacity-probing callers such as
    /// `vqe::SimExecutor::try_prepare` branch on the error instead of
    /// crashing.
    ///
    /// ```
    /// use qsim::Statevector;
    /// assert_eq!(Statevector::try_zero(3).unwrap().num_qubits(), 3);
    /// let err = Statevector::try_zero(31).unwrap_err();
    /// assert_eq!(err.num_qubits(), 31);
    /// assert_eq!(err.bytes(), 16 << 31);
    /// ```
    pub fn try_zero(num_qubits: usize) -> Result<Self, CapacityError> {
        if num_qubits > 30 {
            return Err(CapacityError::new(num_qubits));
        }
        let dim = 1usize << num_qubits;
        let mut amps: Vec<C64> = Vec::new();
        if amps.try_reserve_exact(dim).is_err() {
            return Err(CapacityError::new(num_qubits));
        }
        amps.resize(dim, C64::ZERO);
        amps[0] = C64::ONE;
        Ok(Statevector { num_qubits, amps })
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable access to the raw amplitudes.
    ///
    /// The caller is responsible for keeping the state normalized.
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different qubit counts.
    pub fn inner(&self, other: &Statevector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// The squared norm (1 for a valid state; useful in tests).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies one gate in place.
    pub fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            g => {
                let q = g.qubits()[0];
                let m = g.matrix().expect("single-qubit gates always have a matrix");
                self.apply_1q(q, m);
            }
        }
    }

    /// Compiles `circuit` into a fused [`CircuitPlan`] (see
    /// [`crate::plan`]) and executes it on the calling thread.
    ///
    /// For the unfused gate-by-gate reference (different bit patterns, the
    /// same state to `1e-12`), see [`Statevector::apply_circuit_unfused`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.apply_plan(&CircuitPlan::compile(circuit));
    }

    /// Applies every gate of `circuit` one at a time, with no fusion and
    /// no plan compilation — the legacy execution the fused paths are
    /// equivalence-tested against (and the "unfused" side of the
    /// `statevector_fusion` benchmark).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit_unfused(&mut self, circuit: &Circuit) {
        self.check_circuit(circuit);
        for &g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Executes a compiled plan on the calling thread. Callers that run
    /// one circuit structure many times should compile (or cache — see
    /// [`crate::PlanCache`]) the plan once and use this.
    ///
    /// # Panics
    ///
    /// Panics if the plan has more qubits than the state.
    pub fn apply_plan(&mut self, plan: &CircuitPlan) {
        self.check_plan(plan);
        let _span = telemetry::span(telemetry::Stage::SweepSerial);
        for op in plan.ops() {
            self.apply_plan_op(op);
        }
    }

    /// One plan op, serially. All kernels go through the hybrid sweeps
    /// in [`crate::exec`]: contiguous stride-1 lanes (branch-free,
    /// autovectorizable) when the pair's low bit allows long runs,
    /// index-spread enumeration below `exec::LANE_MIN_BIT`. Both forms
    /// perform the same arithmetic, so they produce the same bits.
    fn apply_plan_op(&mut self, op: &PlanOp) {
        match *op {
            PlanOp::OneQ { q, m } => self.apply_1q(q, m),
            PlanOp::Cx { control, target } => {
                exec::apply_cx_local(&mut self.amps, control, target);
            }
            PlanOp::Cz { lo, hi } => exec::apply_cz_local(&mut self.amps, lo, hi),
            PlanOp::Swap { lo, hi } => exec::apply_swap_local(&mut self.amps, lo, hi),
        }
    }

    fn check_circuit(&self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit acts on {} qubits but state has {}",
            circuit.num_qubits(),
            self.num_qubits
        );
    }

    fn check_plan(&self, plan: &CircuitPlan) {
        assert!(
            plan.num_qubits() <= self.num_qubits,
            "plan acts on {} qubits but state has {}",
            plan.num_qubits(),
            self.num_qubits
        );
    }

    fn apply_1q(&mut self, q: usize, m: [[C64; 2]; 2]) {
        debug_assert!(q < self.num_qubits);
        exec::apply_1q_local(&mut self.amps, q, &m);
    }

    fn apply_cx(&mut self, control: usize, target: usize) {
        debug_assert!(control < self.num_qubits && target < self.num_qubits);
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        for i in 0..self.amps.len() {
            if i & cmask != 0 && i & tmask == 0 {
                self.amps.swap(i, i | tmask);
            }
        }
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        let mask = (1usize << a) | (1usize << b);
        for i in 0..self.amps.len() {
            if i & mask == mask {
                self.amps[i] = -self.amps[i];
            }
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let amask = 1usize << a;
        let bmask = 1usize << b;
        for i in 0..self.amps.len() {
            let has_a = i & amask != 0;
            let has_b = i & bmask != 0;
            if has_a && !has_b {
                self.amps.swap(i, (i ^ amask) | bmask);
            }
        }
    }

    /// The full outcome distribution: `p[x] = |⟨x|ψ⟩|²` over all 2ⁿ
    /// bitstrings.
    pub fn probabilities(&self) -> Vec<f64> {
        let _span = telemetry::span(telemetry::Stage::SweepSerial);
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The marginal outcome distribution over `qubits`, indexed compactly:
    /// bit `j` of the result index is the outcome of `qubits[j]`.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range or repeated.
    ///
    /// ```
    /// use qsim::{Circuit, Statevector};
    /// let mut c = Circuit::new(2);
    /// c.x(1);
    /// let mut s = Statevector::zero(2);
    /// s.apply_circuit(&c);
    /// assert_eq!(s.marginal_probabilities(&[1]), vec![0.0, 1.0]);
    /// ```
    pub fn marginal_probabilities(&self, qubits: &[usize]) -> Vec<f64> {
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "qubit {q} repeated in marginal");
        }
        let _span = telemetry::span(telemetry::Stage::SweepSerial);
        let mut out = vec![0.0; 1usize << qubits.len()];
        for (x, a) in self.amps.iter().enumerate() {
            let mut key = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                key |= ((x >> q) & 1) << j;
            }
            out[key] += a.norm_sqr();
        }
        out
    }
}

impl fmt::Display for Statevector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "statevector({} qubits):", self.num_qubits)?;
        for (x, a) in self.amps.iter().enumerate() {
            if a.norm_sqr() > 1e-12 {
                writeln!(f, "  |{x:0width$b}⟩: {a}", width = self.num_qubits)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Statevector {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        let mut s = Statevector::zero(n);
        s.apply_circuit(&c);
        s
    }

    #[test]
    fn zero_state_is_deterministic() {
        let s = Statevector::zero(3);
        let p = s.probabilities();
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1..].iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn ghz_state_has_two_outcomes() {
        let s = ghz(4);
        let p = s.probabilities();
        assert!((p[0b0000] - 0.5).abs() < 1e-12);
        assert!((p[0b1111] - 0.5).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cx_truth_table() {
        // |10⟩ (qubit 0 = control = 0? careful: X on qubit 0 sets control)
        for (input, expected) in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            let mut s = Statevector::zero(2);
            if input & 1 != 0 {
                s.apply_gate(Gate::X(0));
            }
            if input & 2 != 0 {
                s.apply_gate(Gate::X(1));
            }
            s.apply_gate(Gate::Cx(0, 1));
            let p = s.probabilities();
            assert!(
                (p[expected] - 1.0).abs() < 1e-12,
                "CX|{input:02b}⟩ ≠ |{expected:02b}⟩"
            );
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = Statevector::zero(2);
        s.apply_gate(Gate::X(0));
        s.apply_gate(Gate::Swap(0, 1));
        assert_eq!(s.probabilities()[0b10], 1.0);
    }

    #[test]
    fn cz_phases_only_11() {
        let mut s = ghz(2);
        s.apply_gate(Gate::Cz(0, 1));
        // amplitudes: (|00⟩ - |11⟩)/√2
        assert!((s.amplitudes()[0b00].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((s.amplitudes()[0b11].re + std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn hadamard_is_self_inverse() {
        let mut s = Statevector::zero(1);
        s.apply_gate(Gate::H(0));
        s.apply_gate(Gate::H(0));
        assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_of_ghz() {
        let s = ghz(3);
        let m = s.marginal_probabilities(&[2]);
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[1] - 0.5).abs() < 1e-12);
        // Two-qubit marginal is perfectly correlated.
        let m2 = s.marginal_probabilities(&[0, 2]);
        assert!((m2[0b00] - 0.5).abs() < 1e-12);
        assert!((m2[0b11] - 0.5).abs() < 1e-12);
        assert!(m2[0b01].abs() < 1e-12);
    }

    #[test]
    fn marginal_order_matters() {
        let mut s = Statevector::zero(2);
        s.apply_gate(Gate::X(0));
        assert_eq!(s.marginal_probabilities(&[0, 1]), vec![0.0, 1.0, 0.0, 0.0]);
        assert_eq!(s.marginal_probabilities(&[1, 0]), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let a = ghz(3);
        let b = ghz(3);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = Statevector::zero(1);
        let mut b = Statevector::zero(1);
        b.apply_gate(Gate::X(0));
        assert!(a.fidelity(&b).abs() < 1e-12);
    }
}
