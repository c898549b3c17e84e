//! Dense state-vector simulation.

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::exec;
use crate::gate::Gate;
use crate::plan::{CircuitPlan, PlanOp};
use std::fmt;

/// The widest support [`Statevector::reduced_density_matrices`] reduces
/// onto, `2³ × 2³` matrices: the width crossover past which reading a
/// subset circuit from its density matrix stops paying. Reading `diag(U ρ
/// U†)` costs `8^w` complex products per circuit. On a 2-core x86-64 host,
/// a 4-qubit read alone (6–10 µs) lost to rotating a copy of an 8-qubit
/// state (3.5 µs), and with its 16×16 `ρ` built for it alone it also lost
/// at 10 and 12 qubits; 1- to 3-qubit reads won at 8, 10 and 12 qubits
/// even without another read sharing their `ρ`.
pub const MAX_REDUCED_QUBITS: usize = 3;

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
    /// one circuit many times can compile the plan once and use this.
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

    /// The reduced density matrix of every support in `supports`, written
    /// into `out` (cleared first) one after another. A support of `w`
    /// qubits adds its `2^w × 2^w` matrix row-major, `4^w` entries. Bit `j`
    /// of a row or column index is the outcome of `support[j]`, as in
    /// [`Statevector::marginal_probabilities`]:
    /// `ρ[a][b] = Σ_r ψ(a, r) · ψ(b, r)*`, summed over the outcomes `r` of
    /// the other qubits.
    ///
    /// Each support costs one pass over the amplitudes. The diagonal is
    /// summed in the marginal's order, so it equals
    /// [`Statevector::marginal_probabilities`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a support has more than [`MAX_REDUCED_QUBITS`] qubits, or
    /// a qubit index is out of range or repeated in a support.
    ///
    /// ```
    /// use qsim::{Circuit, Statevector, C64};
    /// let mut c = Circuit::new(3);
    /// c.h(0).cx(0, 2);
    /// let mut s = Statevector::zero(3);
    /// s.apply_circuit(&c);
    /// let mut rho = Vec::new();
    /// s.reduced_density_matrices(&[vec![0, 2], vec![1]], &mut rho);
    /// // The Bell pair on qubits 0 and 2: |00⟩⟨00|, |00⟩⟨11| and their mirrors.
    /// assert!((rho[0b00 * 4 + 0b11].re - 0.5).abs() < 1e-12);
    /// // Qubit 1 stays |0⟩.
    /// assert!((rho[16].re - 1.0).abs() < 1e-12 && rho[19] == C64::ZERO);
    /// ```
    pub fn reduced_density_matrices<S: AsRef<[usize]>>(&self, supports: &[S], out: &mut Vec<C64>) {
        let _span = telemetry::span(telemetry::Stage::SweepSerial);
        out.clear();
        for support in supports {
            let support = support.as_ref();
            assert!(
                support.len() <= MAX_REDUCED_QUBITS,
                "reduced density matrix of {} qubits; at most {MAX_REDUCED_QUBITS} supported",
                support.len()
            );
            for (i, &q) in support.iter().enumerate() {
                assert!(q < self.num_qubits, "qubit {q} out of range");
                assert!(!support[..i].contains(&q), "qubit {q} repeated in support");
            }
            let start = out.len();
            out.resize(start + (1 << (2 * support.len())), C64::ZERO);
            let rho = &mut out[start..];
            match support.len() {
                0 => self.reduce::<1>(support, rho),
                1 => self.reduce::<2>(support, rho),
                2 => self.reduce::<4>(support, rho),
                _ => self.reduce::<8>(support, rho),
            }
        }
    }

    /// [`Statevector::reduced_density_matrices`] of one support with `D =
    /// 2^w` outcomes, into `rho`. Fixed sizes keep the upper triangle's
    /// accumulators and the gathered amplitudes in registers.
    fn reduce<const D: usize>(&self, support: &[usize], rho: &mut [C64]) {
        // The amplitude-index bits of each support outcome.
        let offsets: [usize; D] = std::array::from_fn(|a| {
            support
                .iter()
                .enumerate()
                .fold(0, |x, (j, &q)| x | ((a >> j) & 1) << q)
        });
        let mut ascending = [0; MAX_REDUCED_QUBITS];
        let ascending = &mut ascending[..support.len()];
        ascending.copy_from_slice(support);
        ascending.sort_unstable();
        let mut acc = [[C64::ZERO; D]; D];
        for r in 0..self.amps.len() / D {
            // `r` with a zero bit inserted at every support qubit.
            let base = ascending
                .iter()
                .fold(r, |x, &q| (x >> q << (q + 1)) | (x & ((1 << q) - 1)));
            let v: [C64; D] = std::array::from_fn(|a| self.amps[base | offsets[a]]);
            for a in 0..D {
                acc[a][a].re += v[a].norm_sqr();
                for b in a + 1..D {
                    acc[a][b] += v[a] * v[b].conj();
                }
            }
        }
        for (a, row) in rho.chunks_exact_mut(D).enumerate() {
            for (b, entry) in row.iter_mut().enumerate() {
                *entry = if a <= b { acc[a][b] } else { acc[b][a].conj() };
            }
        }
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

    /// A 4-qubit state with no symmetry for the reductions to hide behind:
    /// every reduced density matrix has complex off-diagonal entries.
    fn lopsided() -> Statevector {
        let mut s = Statevector::zero(4);
        for (x, a) in s.amplitudes_mut().iter_mut().enumerate() {
            let x = x as f64;
            *a = C64::new((x + 1.0).sin(), (3.0 * x + 2.0).cos());
        }
        let norm = s.norm_sqr().sqrt();
        for a in s.amplitudes_mut() {
            *a = a.scale(1.0 / norm);
        }
        s
    }

    #[test]
    fn reduced_density_matrices_match_the_definition() {
        let s = lopsided();
        let supports = [vec![2, 0], vec![3], vec![1, 3, 0]];
        let mut rho = Vec::new();
        s.reduced_density_matrices(&supports, &mut rho);
        let mut start = 0;
        for support in &supports {
            let dim = 1usize << support.len();
            let outcome = |x: usize| {
                support
                    .iter()
                    .enumerate()
                    .fold(0, |k, (j, &q)| k | ((x >> q) & 1) << j)
            };
            let mask: usize = support.iter().map(|&q| 1 << q).sum();
            for (x, &ax) in s.amplitudes().iter().enumerate() {
                for (y, &ay) in s.amplitudes().iter().enumerate() {
                    if x & !mask != y & !mask {
                        continue;
                    }
                    let entry = rho[start + outcome(x) * dim + outcome(y)];
                    // Accumulate the brute-force sum by subtraction: every
                    // entry must come back to zero.
                    rho[start + outcome(x) * dim + outcome(y)] = entry - ax * ay.conj();
                }
            }
            for e in &rho[start..start + dim * dim] {
                assert!(e.abs() < 1e-14, "{support:?}: residual {e}");
            }
            start += dim * dim;
        }
        assert_eq!(start, rho.len());
    }

    #[test]
    fn reduced_density_diagonals_equal_the_marginals_bit_for_bit() {
        let s = lopsided();
        let supports = [vec![0, 1], vec![3, 1, 2], vec![2]];
        let mut rho = vec![C64::ONE; 3]; // stale contents are cleared
        s.reduced_density_matrices(&supports, &mut rho);
        let mut start = 0;
        for support in &supports {
            let dim = 1usize << support.len();
            let diagonal: Vec<f64> = (0..dim).map(|a| rho[start + a * dim + a].re).collect();
            assert_eq!(diagonal, s.marginal_probabilities(support), "{support:?}");
            for a in 0..dim {
                for b in 0..dim {
                    assert_eq!(rho[start + a * dim + b], rho[start + b * dim + a].conj());
                }
            }
            start += dim * dim;
        }
    }

    #[test]
    #[should_panic(expected = "reduced density matrix of 4 qubits; at most 3 supported")]
    fn reduced_density_support_wider_than_three_panics() {
        Statevector::zero(5).reduced_density_matrices(&[[0, 1, 2, 3]], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "qubit 1 repeated in support")]
    fn reduced_density_support_with_a_repeat_panics() {
        Statevector::zero(3).reduced_density_matrices(&[[1, 0, 1]], &mut Vec::new());
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
