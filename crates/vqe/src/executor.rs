//! Noisy circuit execution with cost accounting.

use crate::basis::{basis_change, basis_rotation};
use mitigation::Pmf;
use pauli::{Pauli, PauliString};
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};
use qsim::{CapacityError, Circuit, CircuitPlan, Statevector, C64, MAX_REDUCED_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The measurement geometry of a fixed list of subset circuits: their
/// distinct supports, and per circuit the support it reads and the
/// rotation it reads it in. Built once per evaluator; every evaluation
/// then [loads](SubsetReads::load) a prepared state, which builds each
/// support's reduced density matrix in one pass over the state, and
/// [`SimExecutor::run_subset`] serves every circuit from those matrices.
///
/// A circuit wider than [`MAX_REDUCED_QUBITS`], the width crossover of
/// density reads, is read by rotating a copy of the state instead, like a
/// Global.
///
/// # Examples
///
/// ```
/// use qnoise::DeviceModel;
/// use qsim::Statevector;
/// use vqe::{SimExecutor, SubsetReads};
///
/// let bases: Vec<pauli::PauliString> =
///     ["ZZI", "XYI", "IIX"].iter().map(|s| s.parse().unwrap()).collect();
/// let mut reads = SubsetReads::new(&bases);
/// assert_eq!((reads.len(), reads.num_supports()), (3, 2));
///
/// let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 1024, 7);
/// let state = Statevector::zero(3);
/// let loaded = reads.load(&state);
/// let pmf = exec.run_subset(&loaded, 1);
/// assert_eq!(pmf.qubits(), &[0, 1]);
/// assert_eq!(exec.circuits_executed(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SubsetReads {
    /// The distinct supports read from density matrices, in first-use
    /// order.
    supports: Vec<Vec<usize>>,
    /// One per circuit, in construction order.
    reads: Vec<SubsetRead>,
    /// The widest basis: a loaded state needs at least this many qubits.
    num_qubits: usize,
    /// The supports' density matrices one after another, filled by
    /// [`SubsetReads::load`] and kept across loads.
    densities: Vec<C64>,
    /// Where each support's matrix starts in `densities`.
    offsets: Vec<usize>,
}

#[derive(Clone, Debug)]
enum SubsetRead {
    /// Outcome probabilities `diag(U ρ U†)` of support `support`; `rotation`
    /// is `U`, row-major.
    Density { support: usize, rotation: Vec<C64> },
    /// Wider than [`MAX_REDUCED_QUBITS`]: rotate a copy of the state.
    Rotate(PauliString),
}

impl SubsetReads {
    /// The geometry of one subset circuit per basis, in order.
    ///
    /// # Panics
    ///
    /// Panics if a basis is all-identity.
    pub fn new<'a>(bases: impl IntoIterator<Item = &'a PauliString>) -> Self {
        let mut supports = Vec::new();
        let mut index: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut num_qubits = 0;
        let reads = bases
            .into_iter()
            .map(|basis| {
                assert!(
                    !basis.is_identity(),
                    "cannot execute a measurement of the identity basis"
                );
                num_qubits = num_qubits.max(basis.num_qubits());
                let support = basis.support();
                if support.len() > MAX_REDUCED_QUBITS {
                    return SubsetRead::Rotate(basis.clone());
                }
                let rotation = rotation(support.iter().map(|&q| basis.paulis()[q]));
                let support = *index.entry(support).or_insert_with_key(|s| {
                    supports.push(s.clone());
                    supports.len() - 1
                });
                SubsetRead::Density { support, rotation }
            })
            .collect();
        let offsets = supports
            .iter()
            .scan(0, |end, s| {
                let start = *end;
                *end += 1 << (2 * s.len());
                Some(start)
            })
            .collect();
        SubsetReads {
            supports,
            reads,
            num_qubits,
            densities: Vec::new(),
            offsets,
        }
    }

    /// The number of subset circuits.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether there are no subset circuits.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The number of distinct supports read from density matrices: the
    /// passes over the state one [`SubsetReads::load`] makes.
    pub fn num_supports(&self) -> usize {
        self.supports.len()
    }

    /// Builds the reduced density matrix of every support from `state`,
    /// one pass over the state per support, and binds them to it for
    /// [`SimExecutor::run_subset`].
    ///
    /// # Panics
    ///
    /// Panics if a basis acts on more qubits than the state.
    pub fn load<'a>(&'a mut self, state: &'a Statevector) -> LoadedReads<'a> {
        assert!(
            self.num_qubits <= state.num_qubits(),
            "basis acts on {} qubits but state has {}",
            self.num_qubits,
            state.num_qubits()
        );
        state.reduced_density_matrices(&self.supports, &mut self.densities);
        LoadedReads { state, reads: self }
    }
}

/// [`SubsetReads`] whose density matrices hold one prepared state: what
/// [`SimExecutor::run_subset`] reads from.
#[derive(Clone, Copy, Debug)]
pub struct LoadedReads<'a> {
    state: &'a Statevector,
    reads: &'a SubsetReads,
}

/// `U = ⊗ⱼ uⱼ`, row-major, where `uⱼ` is the product of the
/// [`basis_change`] gates of `paulis[j]` (bit `j` of a row or column index
/// is qubit `j`): `H` for X, `H·S†` for Y, `1` for Z.
fn rotation(paulis: impl Iterator<Item = Pauli>) -> Vec<C64> {
    let (mut u, mut d) = (vec![C64::ONE], 1);
    for p in paulis {
        let one = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        let m = basis_change(p, 0).fold(one, |m, gate| {
            let g = gate.matrix().expect("basis changes are single-qubit gates");
            std::array::from_fn(|i| std::array::from_fn(|j| g[i][0] * m[0][j] + g[i][1] * m[1][j]))
        });
        // `m ⊗ u`: the new qubit is the highest index bit.
        let mut next = vec![C64::ZERO; 4 * d * d];
        for (k, row) in next.chunks_exact_mut(2 * d).enumerate() {
            for (a, entry) in row.iter_mut().enumerate() {
                *entry = m[k / d][a / d] * u[(k % d) * d + a % d];
            }
        }
        (u, d) = (next, 2 * d);
    }
    u
}

/// `diag(U ρ U†)` for `dim × dim` row-major `U` and `ρ`, each negative
/// entry raised to zero: a true zero can come out slightly negative. A NaN
/// stays NaN, so a NaN state still panics in the sampler or `Pmf::new`.
fn rotated_diagonal(rotation: &[C64], rho: &[C64], dim: usize) -> Vec<f64> {
    rotation
        .chunks_exact(dim)
        .map(|u| {
            let p: f64 = rho
                .chunks_exact(dim)
                .zip(u)
                .map(|(rho_a, &u_a)| {
                    let t: C64 = rho_a.iter().zip(u).map(|(&r, &ub)| r * ub.conj()).sum();
                    (u_a * t).re
                })
                .sum();
            if p < 0.0 {
                0.0
            } else {
                p
            }
        })
        .collect()
}

/// Executes measurement circuits on a simulated noisy device, metering the
/// number of circuits submitted — the paper's quantum-computational Cost
/// metric (Section 5.3).
///
/// Noise model per execution:
///
/// 1. the ideal outcome distribution over the measured qubits is computed
///    exactly from the statevector;
/// 2. an optional circuit-level depolarizing channel stands in for gate and
///    decoherence noise;
/// 3. the measured logical qubits are mapped onto the device's best
///    physical qubits (subset circuits therefore land on the good readout
///    sites, as JigSaw prescribes), and each physical qubit's readout
///    confusion — amplified by measurement crosstalk according to how many
///    qubits are read out simultaneously — is applied exactly;
/// 4. with finite `shots`, the distribution is sampled and the empirical
///    PMF returned; in exact mode the noisy distribution itself is
///    returned.
///
/// # Examples
///
/// ```
/// use qnoise::DeviceModel;
/// use qsim::Statevector;
/// use vqe::SimExecutor;
///
/// let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 1024, 7);
/// let state = Statevector::zero(3);
/// let basis: pauli::PauliString = "ZZI".parse().unwrap();
/// let pmf = exec.run_prepared(&state, &basis);
/// assert_eq!(pmf.qubits(), &[0, 1]);
/// assert_eq!(exec.circuits_executed(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SimExecutor {
    device: DeviceModel,
    shots: u64,
    rng: StdRng,
    circuits_executed: u64,
    exact: bool,
    /// Effective readout errors per measured width `m`, filled on first
    /// use: entry `m` holds the errors of the device's `m` best qubits
    /// under `m`-way crosstalk, and stays empty until then. The device
    /// never changes after construction, so each width is computed once.
    readout_by_width: Vec<Vec<ReadoutError>>,
    /// The plane a rotated measurement copies its prepared state into,
    /// kept across measurements and reallocated only when the register
    /// width changes.
    scratch: Option<Statevector>,
}

impl SimExecutor {
    /// A sampling executor with `shots` shots per circuit.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn new(device: DeviceModel, shots: u64, seed: u64) -> Self {
        assert!(shots > 0, "need at least one shot");
        SimExecutor {
            device,
            shots,
            rng: StdRng::seed_from_u64(seed),
            circuits_executed: 0,
            exact: false,
            readout_by_width: Vec::new(),
            scratch: None,
        }
    }

    /// An exact-distribution executor: noise channels are applied but no
    /// shot sampling is performed. Useful for isolating measurement-error
    /// effects from shot noise.
    pub fn exact(device: DeviceModel, seed: u64) -> Self {
        SimExecutor {
            device,
            shots: 1,
            rng: StdRng::seed_from_u64(seed),
            circuits_executed: 0,
            exact: true,
            readout_by_width: Vec::new(),
            scratch: None,
        }
    }

    /// Simulates `circuit` from `|0…0⟩` on the dense plane, without
    /// measuring or metering cost — the state-preparation step evaluators
    /// run before their measurement circuits. Bit-identical to
    /// [`Statevector::apply_circuit`] on [`Statevector::zero`].
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let state = exec.prepare(&c);
    /// assert!((state.probabilities()[0b11] - 0.5).abs() < 1e-12);
    /// assert_eq!(exec.circuits_executed(), 0); // preparation is not metered
    /// ```
    pub fn prepare(&mut self, circuit: &Circuit) -> Statevector {
        self.try_prepare(circuit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimExecutor::prepare`], surfacing state-allocation failures as a
    /// typed [`CapacityError`] instead of panicking, so a caller can react
    /// to an allocator refusal: the dense plane is allocated through
    /// [`Statevector::try_zero`].
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// assert!(exec.try_prepare(&Circuit::new(3)).is_ok());
    /// let err = exec.try_prepare(&Circuit::new(33)).unwrap_err();
    /// assert_eq!(err.num_qubits(), 33);
    /// ```
    pub fn try_prepare(&mut self, circuit: &Circuit) -> Result<Statevector, CapacityError> {
        let mut st = Statevector::try_zero(circuit.num_qubits())?;
        st.apply_circuit(circuit);
        Ok(st)
    }

    /// The device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Shots per circuit (meaningless in exact mode).
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The number of circuits submitted so far.
    pub fn circuits_executed(&self) -> u64 {
        self.circuits_executed
    }

    /// The calibrated (isolated, crosstalk-free) readout errors of the
    /// physical qubits that `k` measured logical qubits map onto.
    ///
    /// This is what a matrix-based mitigation calibration would know:
    /// it does *not* include the crosstalk amplification present when many
    /// qubits are measured simultaneously, so MBM built from it remains
    /// realistically imperfect.
    pub fn calibration(&self, k: usize) -> Vec<ReadoutError> {
        self.device
            .best_qubits(k)
            .into_iter()
            .map(|q| self.device.readout(q))
            .collect()
    }

    /// Runs a measurement of `basis` on an already-prepared state: appends
    /// the basis rotation, measures the basis support, applies the noise
    /// model, and returns the (logical-qubit-labelled) outcome PMF. This is
    /// [`SimExecutor::run_subset`] on a one-circuit [`SubsetReads`].
    ///
    /// Identity bases measure nothing and are rejected.
    ///
    /// # Panics
    ///
    /// Panics if the basis is all-identity, acts on more qubits than the
    /// state, or the device has fewer qubits than the measurement needs.
    pub fn run_prepared(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        self.run_subset(&SubsetReads::new([basis]).load(state), 0)
    }

    /// Runs subset circuit `i` of `loaded`: reads the circuit's support in
    /// its basis, applies the noise model and returns the outcome PMF, as
    /// [`SimExecutor::run_prepared`] does for the circuit's basis. A read
    /// of at most [`MAX_REDUCED_QUBITS`] qubits is `diag(U ρ U†)` of its
    /// support's reduced density matrix `ρ`, where `U` is the basis
    /// change, each negative entry raised to zero; it agrees with rotating the
    /// state to about `1e-16`. A wider read rotates a copy of the state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the device has fewer qubits than
    /// the circuit measures.
    pub fn run_subset(&mut self, loaded: &LoadedReads<'_>, i: usize) -> Pmf {
        let reads = loaded.reads;
        match &reads.reads[i] {
            SubsetRead::Rotate(basis) => self.measure(loaded.state, basis, basis.support()),
            SubsetRead::Density { support, rotation } => {
                let qubits = &reads.supports[*support];
                let dim = 1 << qubits.len();
                let rho = &reads.densities[reads.offsets[*support]..][..dim * dim];
                let probs = {
                    let _span = telemetry::span(telemetry::Stage::SweepSerial);
                    rotated_diagonal(rotation, rho, dim)
                };
                self.finish(probs, qubits.clone())
            }
        }
    }

    /// Runs a measurement of `basis` on an already-prepared state,
    /// measuring **every** qubit of the state (identity positions in the
    /// computational basis) — how Qiskit-style VQE executes its circuits,
    /// and how JigSaw's Global runs produce their full-width Global-PMF
    /// (Fig.3). All qubits being read out simultaneously exposes the run to
    /// maximum measurement crosstalk; this is the cost the subset circuits
    /// avoid.
    ///
    /// # Panics
    ///
    /// Panics if the basis acts on more qubits than the state or the device
    /// is too small.
    pub fn run_prepared_all(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        self.measure(state, basis, (0..state.num_qubits()).collect())
    }

    /// The rotate-and-read path behind [`SimExecutor::run_prepared_all`]
    /// (Globals) and the subset reads too wide for a density matrix:
    /// rotates `state` into `basis`, reads the `measured` qubits
    /// (ascending) and runs noise and sampling. Bit-identical to clone +
    /// rotate + marginal + noise; three fast paths only skip work:
    ///
    /// - a basis with no rotation is read from `state` in place;
    /// - any other basis copies `state` into the reused scratch plane;
    /// - a full-register read is the direct probability pass, without the
    ///   marginal bit-gather.
    ///
    /// Subset reads of at most [`MAX_REDUCED_QUBITS`] qubits, the width
    /// crossover, never come here: [`SimExecutor::run_subset`] serves
    /// them as `diag(U ρ U†)` of their support's reduced density matrix,
    /// each negative entry raised to 0, without the compile, the copy or a
    /// pass over the state per circuit.
    fn measure(&mut self, state: &Statevector, basis: &PauliString, measured: Vec<usize>) -> Pmf {
        // The in-place read applies no plan, so nothing else would catch
        // a rotation-free basis wider than the state.
        assert!(
            basis.num_qubits() <= state.num_qubits(),
            "basis acts on {} qubits but state has {}",
            basis.num_qubits(),
            state.num_qubits()
        );
        let plan = CircuitPlan::compile(&basis_rotation(basis));
        let rotated: &Statevector = if plan.op_count() == 0 {
            state
        } else {
            let st = {
                let _span = telemetry::span(telemetry::Stage::SweepSerial);
                match &mut self.scratch {
                    Some(st) if st.num_qubits() == state.num_qubits() => {
                        st.amplitudes_mut().copy_from_slice(state.amplitudes());
                        st
                    }
                    scratch => scratch.insert(state.clone()),
                }
            };
            st.apply_plan(&plan);
            st
        };
        // `measured` is ascending and duplicate-free, so its length alone
        // says whether it is the whole register in index order.
        let probs = if measured.len() == state.num_qubits() {
            rotated.probabilities()
        } else {
            rotated.marginal_probabilities(&measured)
        };
        self.finish(probs, measured)
    }

    /// The readout errors an `m`-qubit measurement sees: measured logical
    /// qubits map onto the device's best physical qubits, and crosstalk
    /// scales with the number of simultaneous measurements.
    fn readout_errors(&mut self, m: usize) -> &[ReadoutError] {
        if self.readout_by_width.len() <= m {
            self.readout_by_width.resize(m + 1, Vec::new());
        }
        if self.readout_by_width[m].len() != m {
            self.readout_by_width[m] = self
                .device
                .best_qubits(m)
                .into_iter()
                .map(|q| self.device.effective_readout(q, m))
                .collect();
        }
        &self.readout_by_width[m]
    }

    fn finish(&mut self, mut probs: Vec<f64>, measured: Vec<usize>) -> Pmf {
        let m = measured.len();
        assert!(
            m <= self.device.num_qubits(),
            "measurement of {m} qubits exceeds the {}-qubit device",
            self.device.num_qubits()
        );
        self.circuits_executed += 1;

        if self.device.depolarizing() > 0.0 {
            apply_depolarizing(&mut probs, self.device.depolarizing());
        }
        apply_readout_errors(&mut probs, self.readout_errors(m));

        if self.exact {
            Pmf::new(measured, probs)
        } else {
            // The channel pushes above time themselves (NoiseSampling
            // spans inside qnoise); only the shot draw is timed here so
            // the stage is never double-counted.
            let _span = telemetry::span(telemetry::Stage::NoiseSampling);
            let counts = qsim::sample_counts(&probs, self.shots, &mut self.rng);
            Pmf::new(measured, counts.iter().map(|&c| c as f64).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn noiseless_exact_execution_reproduces_ideal_marginals() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(3), 1);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let pmf = exec.run_prepared(&st, &ps("ZZZ"));
        assert!((pmf.prob(0b000) - 0.5).abs() < 1e-12);
        assert!((pmf.prob(0b111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn readout_noise_shows_up_in_the_distribution() {
        let mut exec = SimExecutor::exact(DeviceModel::uniform(2, 0.1), 1);
        let st = Statevector::zero(2);
        let pmf = exec.run_prepared(&st, &ps("ZZ"));
        assert!((pmf.prob(0b00) - 0.81).abs() < 1e-12);
        assert!((pmf.prob(0b11) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn fewer_measured_qubits_means_less_crosstalk_error() {
        // With crosstalk, a 1-qubit measurement is cleaner than the same
        // qubit measured as part of a 4-qubit readout.
        let dev = DeviceModel::new(
            "ct",
            vec![ReadoutError::symmetric(0.04); 4],
            qnoise::CrosstalkModel::new(0.3),
            0.0,
        );
        let st = Statevector::zero(4);
        let mut exec = SimExecutor::exact(dev, 1);
        let single = exec.run_prepared(&st, &ps("ZIII"));
        let full = exec.run_prepared(&st, &ps("ZZZZ"));
        let p_err_single = single.prob(1);
        let p_err_full = full.marginal(&[0]).prob(1);
        assert!(
            p_err_full > p_err_single * 1.5,
            "full {p_err_full} vs single {p_err_single}"
        );
    }

    #[test]
    fn cached_readout_errors_match_the_device_at_every_width() {
        let device = DeviceModel::mumbai_like();
        let mut exec = SimExecutor::new(device.clone(), 16, 1);
        // Widest first, then narrower and repeated widths hit the cache.
        let widths: Vec<usize> = (0..=device.num_qubits()).rev().chain([2, 2, 8]).collect();
        for m in widths {
            let expected: Vec<ReadoutError> = device
                .best_qubits(m)
                .into_iter()
                .map(|q| device.effective_readout(q, m))
                .collect();
            assert_eq!(exec.readout_errors(m), expected.as_slice(), "width {m}");
        }
    }

    #[test]
    fn cost_counter_increments() {
        let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 3);
        let st = Statevector::zero(2);
        exec.run_prepared(&st, &ps("ZI"));
        exec.run_prepared(&st, &ps("IZ"));
        assert_eq!(exec.circuits_executed(), 2);
    }

    #[test]
    fn sampled_pmf_totals_one() {
        let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 256, 5);
        let mut st = Statevector::zero(2);
        let mut c = Circuit::new(2);
        c.h(0);
        st.apply_circuit(&c);
        let pmf = exec.run_prepared(&st, &ps("XZ"));
        assert!((pmf.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(pmf.qubits(), &[0, 1]);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let run = |seed| {
            let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 128, seed);
            let mut st = Statevector::zero(2);
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            st.apply_circuit(&c);
            exec.run_prepared(&st, &ps("ZZ")).probs().to_vec()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "basis acts on 3 qubits but state has 2")]
    fn wider_basis_rejected() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(3), 1);
        exec.run_prepared_all(&Statevector::zero(2), &ps("ZZZ"));
    }

    #[test]
    #[should_panic(expected = "identity basis")]
    fn identity_basis_rejected() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        exec.run_prepared(&Statevector::zero(2), &ps("II"));
    }

    /// What every measurement path must reproduce: a fresh clone of the
    /// state, rotated into the basis, the generic marginal read, then
    /// noise and sampling.
    fn reference(
        exec: &mut SimExecutor,
        state: &Statevector,
        basis: &PauliString,
        all: bool,
    ) -> Pmf {
        let rotation = basis_rotation(basis);
        let measured: Vec<usize> = if all {
            (0..state.num_qubits()).collect()
        } else {
            basis.support()
        };
        let mut st = state.clone();
        st.apply_circuit(&rotation);
        exec.finish(st.marginal_probabilities(&measured), measured)
    }

    /// Runs `jobs` (state index, basis, full register?) through the
    /// public paths on one clone of `exec` and through [`reference`] on
    /// another. Circuit counts, the RNG stream and Global PMFs must agree
    /// exactly; subset PMFs within `subset_tol`, and bit for bit when it
    /// is zero.
    fn assert_paths_match_reference(
        exec: SimExecutor,
        states: &[Statevector],
        jobs: &[(usize, &str, bool)],
        subset_tol: f64,
    ) {
        let mut fast = exec.clone();
        let mut slow = exec;
        for &(i, basis, all) in jobs {
            let basis = ps(basis);
            let got = if all {
                fast.run_prepared_all(&states[i], &basis)
            } else {
                fast.run_prepared(&states[i], &basis)
            };
            let want = reference(&mut slow, &states[i], &basis, all);
            assert_eq!(got.qubits(), want.qubits(), "{basis} all={all}");
            if all || subset_tol == 0.0 {
                let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{basis} all={all}");
            } else {
                for (g, w) in got.probs().iter().zip(want.probs()) {
                    assert!((g - w).abs() <= subset_tol, "{basis}: {g} vs {w}");
                }
            }
        }
        assert_eq!(fast.circuits_executed(), slow.circuits_executed());
        let (i, basis, _) = jobs[0];
        assert_eq!(
            fast.run_prepared_all(&states[i], &ps(basis)).probs(),
            reference(&mut slow, &states[i], &ps(basis), true).probs(),
            "RNG streams diverged"
        );
    }

    fn entangled(n: usize) -> Statevector {
        let mut c = Circuit::new(n);
        c.h(0).ry(1, 0.6);
        for q in 0..n - 1 {
            c.cx(q, q + 1).rz(q + 1, 0.3 * q as f64);
        }
        let mut st = Statevector::zero(n);
        st.apply_circuit(&c);
        st
    }

    /// Rotated and rotation-free bases at subset and full width, with the
    /// scratch plane reused across two register widths (3 → 4 → 3).
    /// The 4-qubit subsets are wider than a density read and rotate.
    const JOBS: &[(usize, &str, bool)] = &[
        (0, "ZZI", true),
        (0, "XZY", false),
        (0, "ZIZ", false),
        (1, "IXYZ", false),
        (1, "ZZZZ", false),
        (1, "YXZX", false),
        (1, "XIIZ", true),
        (0, "IXX", false),
        (0, "YYX", true),
        (0, "ZZZ", true),
    ];

    #[test]
    fn measurement_paths_match_the_reference_seed_for_seed() {
        let states = [entangled(3), entangled(4)];
        assert_paths_match_reference(
            SimExecutor::new(DeviceModel::mumbai_like(), 512, 21),
            &states,
            JOBS,
            0.0,
        );
    }

    #[test]
    fn measurement_paths_match_the_reference_in_exact_mode() {
        let states = [entangled(3), entangled(4)];
        let dev = DeviceModel::new(
            "exact",
            vec![ReadoutError::symmetric(0.05); 4],
            qnoise::CrosstalkModel::new(0.2),
            0.01,
        );
        assert_paths_match_reference(SimExecutor::exact(dev, 1), &states, JOBS, 1e-14);
    }

    /// Circuits sharing supports, read from one load, give bit for bit
    /// the PMFs, circuit count and RNG stream of reading each circuit on
    /// its own; the 4-qubit circuit rotates.
    #[test]
    fn shared_subset_reads_match_one_circuit_reads() {
        let bases: Vec<PauliString> = ["XZII", "IYXI", "ZYII", "IIZX", "XZII", "XXYZ", "IZZI"]
            .iter()
            .map(|b| ps(b))
            .collect();
        let mut reads = SubsetReads::new(&bases);
        assert_eq!((reads.len(), reads.num_supports()), (7, 3));
        let state = entangled(4);
        let mut shared = SimExecutor::new(DeviceModel::mumbai_like(), 256, 3);
        let mut single = shared.clone();
        let loaded = reads.load(&state);
        for (i, basis) in bases.iter().enumerate() {
            let got = shared.run_subset(&loaded, i);
            let want = single.run_prepared(&state, basis);
            assert_eq!(got, want, "{basis}");
        }
        assert_eq!(shared.circuits_executed(), 7);
        assert_eq!(
            shared.run_prepared(&state, &bases[1]),
            single.run_prepared(&state, &bases[1]),
            "RNG streams diverged"
        );
    }

    /// `Ry(π/2)|0⟩ ⊗ Ry(π/2)|0⟩` is `|++⟩`, so read in XX only outcome
    /// `00` has mass; `U ρ U†` puts outcome `10` at about `-3e-33`, which
    /// `Pmf::new` would reject unclamped.
    #[test]
    fn density_reads_clamp_a_zero_mass_outcome_at_zero() {
        let mut c = Circuit::new(2);
        c.ry(0, std::f64::consts::FRAC_PI_2)
            .ry(1, std::f64::consts::FRAC_PI_2);
        let mut st = Statevector::zero(2);
        st.apply_circuit(&c);
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        let pmf = exec.run_prepared(&st, &ps("XX"));
        assert_eq!(pmf.probs()[0b10], 0.0);
        assert!((pmf.probs()[0b00] - 1.0).abs() < 1e-15);
    }

    /// A NaN angle makes every amplitude, and so every entry of `ρ`, NaN.
    /// The clamp keeps it NaN, so the read panics instead of depolarizing
    /// an all-zero vector into a uniform PMF.
    fn nan_state() -> Statevector {
        let mut c = Circuit::new(3);
        c.h(0).ry(1, f64::NAN).cx(1, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        st
    }

    #[test]
    #[should_panic(expected = "probability NaN is not finite and non-negative")]
    fn density_reads_of_a_nan_state_panic_in_the_sampler() {
        let bases = [ps("XYI"), ps("IZZ")];
        let mut reads = SubsetReads::new(&bases);
        let st = nan_state();
        let loaded = reads.load(&st);
        SimExecutor::new(DeviceModel::mumbai_like(), 64, 1).run_subset(&loaded, 0);
    }

    #[test]
    #[should_panic(expected = "probability NaN is not finite and non-negative")]
    fn density_reads_of_a_nan_state_panic_in_exact_mode() {
        SimExecutor::exact(DeviceModel::mumbai_like(), 1).run_prepared(&nan_state(), &ps("ZZI"));
    }

    #[test]
    fn prepare_matches_apply_circuit_bitwise() {
        let mut exec = SimExecutor::new(DeviceModel::noiseless(3), 16, 1);
        for t in [0.3f64, -1.1, 2.4] {
            let mut c = Circuit::new(3);
            c.ry(0, t)
                .rz(1, 2.0 * t)
                .cx(0, 1)
                .rz(0, -t)
                .ry(1, t)
                .cx(1, 2);
            let mut want = Statevector::zero(3);
            want.apply_circuit(&c);
            assert_eq!(exec.prepare(&c).amplitudes(), want.amplitudes());
        }
    }

    #[test]
    fn calibration_is_isolated_readout() {
        let dev = DeviceModel::new(
            "cal",
            vec![ReadoutError::symmetric(0.05); 3],
            qnoise::CrosstalkModel::new(0.5),
            0.0,
        );
        let exec = SimExecutor::exact(dev, 1);
        let cal = exec.calibration(3);
        // Calibration reports base rates, not crosstalk-amplified ones.
        assert!(cal.iter().all(|e| (e.average() - 0.05).abs() < 1e-12));
    }
}
