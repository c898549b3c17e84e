//! Noisy circuit execution with cost accounting.

use crate::basis::basis_rotation;
use mitigation::Pmf;
use pauli::PauliString;
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};
use qsim::shard::shards_and_workers;
use qsim::{
    CapacityError, Circuit, CircuitPlan, Parallelism, PlanCache, ShardPlan, ShardedState,
    Statevector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    parallelism: Parallelism,
    /// Compiled-plan cache keyed by circuit structure: SPSA evaluations,
    /// subset/Global measurement rotations and MBM circuits all share the
    /// handful of shapes a VQE run executes, so after the first iteration
    /// every simulation rebinds a cached plan instead of re-analyzing.
    /// Also memoizes sharded-execution analyses per structure.
    plans: PlanCache,
    /// Effective readout errors per measured width `m`, filled on first
    /// use: entry `m` holds the errors of the device's `m` best qubits
    /// under `m`-way crosstalk, and stays empty until then. The device
    /// never changes after construction, so each width is computed once.
    readout_by_width: Vec<Vec<ReadoutError>>,
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
            parallelism: Parallelism::Auto,
            plans: PlanCache::new(),
            readout_by_width: Vec::new(),
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
            parallelism: Parallelism::Auto,
            plans: PlanCache::new(),
            readout_by_width: Vec::new(),
        }
    }

    /// Sets how statevector simulation spreads across threads (default
    /// [`Parallelism::Auto`]).
    ///
    /// Preparation from `|0…0⟩` ([`SimExecutor::prepare`] and friends,
    /// [`SimExecutor::run_circuit`]) follows
    /// [`qsim::shard::shards_and_workers`]: `Threads(w)` prepares on
    /// `2^⌊log₂ w⌋` amplitude shards walked by `w` workers, and `Auto`
    /// does the same with [`parallel::num_threads`] workers from 12
    /// qubits up. Basis rotations of already-prepared states run serial
    /// on the dense plane. Every path produces bit-identical amplitudes,
    /// so this knob never changes results — use it to pin executors to
    /// the serial path when many run concurrently (e.g. inside
    /// `parallel_map`-style trial fan-outs) and thread oversubscription
    /// would hurt.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Parallelism;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_parallelism(Parallelism::Serial);
    /// assert_eq!(exec.parallelism(), Parallelism::Serial);
    /// ```
    pub fn with_parallelism(mut self, mode: Parallelism) -> Self {
        self.parallelism = mode;
        self
    }

    /// The statevector parallelism mode circuits are simulated with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Compiles `circuit` for preparation from `|0…0⟩` under `mode`:
    /// [`shards_and_workers`] picks the dense plane or a shard count and
    /// worker count. Shard analyses are memoized in the executor's
    /// [`PlanCache`] next to the plans, so a rebind of a known ansatz
    /// shape skips the layout re-analysis.
    fn preparation(&mut self, circuit: &Circuit, mode: Parallelism) -> Preparation {
        let plan = self.plans.plan(circuit);
        let (shards, workers) = shards_and_workers(mode, plan.num_qubits(), plan.op_count());
        let sharded = (shards > 1).then(|| (self.plans.shard_plan(&plan, shards), workers));
        Preparation { plan, sharded }
    }

    /// Simulates `circuit` from `|0…0⟩` under this executor's
    /// [`Parallelism`] mode, without measuring or metering cost — the
    /// state-preparation step evaluators run before their measurement
    /// circuits. Preparation is where the parallelism knob applies (see
    /// [`SimExecutor::with_parallelism`]), and it hits the executor's
    /// [`PlanCache`]: a VQE iteration rebinding new angles into a known
    /// ansatz shape skips fusion and layout re-analysis entirely.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::{Circuit, Parallelism};
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1)
    ///     .with_parallelism(Parallelism::Serial);
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
    /// to an allocator refusal. Covers every execution tier: the
    /// serial dense plane probes [`Statevector::try_zero`], threaded
    /// preparation on shards probes
    /// [`ShardedState::try_zero`](qsim::ShardedState::try_zero).
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
        self.preparation(circuit, self.parallelism).simulate()
    }

    /// Prepares one state per circuit against the shared [`PlanCache`] —
    /// the batched twin of [`SimExecutor::prepare`], and the front half
    /// of a [`SimExecutor::run_batch`] dispatch. Circuits sharing one
    /// structure (an SPSA ± probe pair, multi-start restarts, a subset
    /// family) compile once and rebind per entry; on multi-core hosts the
    /// simulations fan out across [`parallel::num_threads`] workers (each
    /// pinned serial inside, so the batch is never oversubscribed).
    ///
    /// Results are **identical** to calling `prepare` once per circuit,
    /// in order — preparation consumes no randomness and every execution
    /// path is bit-identical.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// let mut a = Circuit::new(2);
    /// a.ry(0, 0.3).cx(0, 1);
    /// let mut b = Circuit::new(2);
    /// b.ry(0, -1.1).cx(0, 1); // same structure: plan-cache hit
    /// let states = exec.prepare_batch(&[a, b]);
    /// assert_eq!(states.len(), 2);
    /// assert_eq!(exec.plan_cache_stats().2, 1); // one compile, one rebind
    /// ```
    pub fn prepare_batch(&mut self, circuits: &[Circuit]) -> Vec<Statevector> {
        self.try_prepare_batch(circuits)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimExecutor::prepare_batch`], surfacing state-allocation failures
    /// as a typed [`CapacityError`] (the first one encountered, in circuit
    /// order) instead of panicking.
    pub fn try_prepare_batch(
        &mut self,
        circuits: &[Circuit],
    ) -> Result<Vec<Statevector>, CapacityError> {
        // Fanning out across circuits pins each one serial inside.
        let fan_out = self.parallelism != Parallelism::Serial
            && circuits.len() > 1
            && parallel::num_threads() > 1;
        let mode = if fan_out {
            Parallelism::Serial
        } else {
            self.parallelism
        };
        let preps: Vec<Preparation> = circuits.iter().map(|c| self.preparation(c, mode)).collect();
        let states: Vec<Result<Statevector, CapacityError>> = if fan_out {
            parallel::parallel_map(preps, Preparation::simulate)
        } else {
            preps.iter().map(Preparation::simulate).collect()
        };
        states.into_iter().collect()
    }

    /// Plan-cache statistics `(structures, hits, misses)` — how often
    /// simulations rebound a cached circuit structure instead of
    /// re-analyzing it.
    pub fn plan_cache_stats(&self) -> (usize, u64, u64) {
        (self.plans.len(), self.plans.hits(), self.plans.misses())
    }

    /// Shard-analysis cache counters `(hits, misses)` — how often sharded
    /// preparation rebound a memoized layout analysis instead of
    /// re-analyzing (see [`qsim::PlanCache::shard_plan`]).
    pub fn shard_cache_stats(&self) -> (u64, u64) {
        self.plans.shard_stats()
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

    /// Resets the circuit counter (e.g. between budgeted runs).
    pub fn reset_circuits_executed(&mut self) {
        self.circuits_executed = 0;
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
    /// model, and returns the (logical-qubit-labelled) outcome PMF.
    ///
    /// Identity bases measure nothing and are rejected.
    ///
    /// # Panics
    ///
    /// Panics if the basis is all-identity, acts on more qubits than the
    /// state, or the device has fewer qubits than the measurement needs.
    pub fn run_prepared(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        let measured = basis.support();
        assert!(
            !measured.is_empty(),
            "cannot execute a measurement of the identity basis"
        );
        let mut st = {
            let _span = telemetry::span(telemetry::Stage::SweepSerial);
            state.clone()
        };
        let plan = self.plans.plan(&basis_rotation(basis));
        st.apply_plan(&plan);
        self.finish(st.marginal_probabilities(&measured), measured)
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
        let mut st = {
            let _span = telemetry::span(telemetry::Stage::SweepSerial);
            state.clone()
        };
        let plan = self.plans.plan(&basis_rotation(basis));
        st.apply_plan(&plan);
        let measured: Vec<usize> = (0..state.num_qubits()).collect();
        self.finish(st.marginal_probabilities(&measured), measured)
    }

    /// Runs an explicit circuit from `|0…0⟩` (prepared like
    /// [`SimExecutor::prepare`]) and measures `measured` in the
    /// computational basis.
    ///
    /// # Panics
    ///
    /// Panics if `measured` is empty or out of range.
    pub fn run_circuit(&mut self, circuit: &Circuit, measured: &[usize]) -> Pmf {
        assert!(!measured.is_empty(), "no qubits to measure");
        let st = self.prepare(circuit);
        self.finish(st.marginal_probabilities(measured), measured.to_vec())
    }

    /// Runs a whole family of measurements — SPSA ± probes, a subset
    /// family, the Globals of an iteration — as **one batched dispatch**,
    /// returning one PMF per job in order.
    ///
    /// Results (and the executor's RNG stream, cost counter, and plan
    /// cache) are **exactly** those of the equivalent sequence of
    /// [`SimExecutor::run_prepared`] / [`SimExecutor::run_prepared_all`]
    /// calls, seed for seed — regression-tested, so batching is always
    /// safe. What changes is the cost: the batch is *planned* up front
    /// (rotation plans bound through the cache, measured-qubit sets
    /// resolved once), the deterministic statevector work runs with a
    /// reused scratch plane (and fans out across threads on multi-core
    /// hosts — each job pinned serial inside), full-register reads skip
    /// the generic marginal bit-gather for the direct probability pass,
    /// and only the noise + sampling stage — which must consume the RNG
    /// in job order — stays sequential.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the equivalent sequential
    /// calls (identity bases, register/device size mismatches).
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Statevector;
    /// use vqe::{BatchJob, SimExecutor};
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 256, 9);
    /// let state = Statevector::zero(3);
    /// let zz: pauli::PauliString = "ZZI".parse().unwrap();
    /// let xx: pauli::PauliString = "IXX".parse().unwrap();
    /// let pmfs = exec.run_batch(&[
    ///     BatchJob::global(&state, &zz),
    ///     BatchJob::subset(&state, &xx),
    /// ]);
    /// assert_eq!(pmfs.len(), 2);
    /// assert_eq!(pmfs[1].qubits(), &[1, 2]);
    /// assert_eq!(exec.circuits_executed(), 2);
    /// ```
    pub fn run_batch(&mut self, jobs: &[BatchJob<'_>]) -> Vec<Pmf> {
        struct Planned {
            plan: CircuitPlan,
            measured: Vec<usize>,
            /// Whether `measured` is the full register in index order —
            /// `support()` is ascending, so length alone decides — which
            /// unlocks the direct probability read.
            full_register: bool,
        }
        let planned: Vec<Planned> = jobs
            .iter()
            .map(|job| {
                let measured: Vec<usize> = if job.measure_all {
                    (0..job.state.num_qubits()).collect()
                } else {
                    job.basis.support()
                };
                assert!(
                    !measured.is_empty(),
                    "cannot execute a measurement of the identity basis"
                );
                let full_register = measured.len() == job.state.num_qubits();
                Planned {
                    plan: self.plans.plan(&basis_rotation(job.basis)),
                    measured,
                    full_register,
                }
            })
            .collect();

        // Rotate and read one job: bit-identical to `run_prepared`'s
        // clone + rotate + marginal (the full-register read and the
        // in-place no-rotation read produce the same bits as the generic
        // path; `scratch` only recycles the allocation).
        let read = |job: &BatchJob<'_>,
                    pl: &Planned,
                    scratch: &mut Option<Statevector>,
                    mode: Parallelism|
         -> Vec<f64> {
            let rotated: &Statevector = if pl.plan.op_count() == 0 {
                job.state
            } else {
                let st = {
                    let _span = telemetry::span(telemetry::Stage::SweepSerial);
                    match scratch {
                        Some(st) if st.num_qubits() == job.state.num_qubits() => {
                            st.amplitudes_mut().copy_from_slice(job.state.amplitudes());
                            st
                        }
                        _ => scratch.insert(job.state.clone()),
                    }
                };
                st.apply_plan(&pl.plan);
                st
            };
            if pl.full_register {
                // `mode` rides along so jobs pinned serial inside the
                // batch fan-out never nest a second worker scope.
                rotated.probabilities_with(mode)
            } else {
                rotated.marginal_probabilities(&pl.measured)
            }
        };

        let probs: Vec<Vec<f64>> = if self.parallelism != Parallelism::Serial
            && jobs.len() > 1
            && parallel::num_threads() > 1
        {
            let indices: Vec<usize> = (0..jobs.len()).collect();
            parallel::parallel_map(indices, |&i| {
                let mut scratch = None;
                read(&jobs[i], &planned[i], &mut scratch, Parallelism::Serial)
            })
        } else {
            let mut scratch: Option<Statevector> = None;
            jobs.iter()
                .zip(&planned)
                .map(|(job, pl)| read(job, pl, &mut scratch, self.parallelism))
                .collect()
        };

        // Noise + sampling consume the RNG in job order: sequential by
        // construction, exactly as N single runs would.
        probs
            .into_iter()
            .zip(planned)
            .map(|(p, pl)| self.finish(p, pl.measured))
            .collect()
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

/// A circuit compiled for preparation from `|0…0⟩`: its plan, plus the
/// shard analysis and worker count when threads run it.
struct Preparation {
    plan: CircuitPlan,
    sharded: Option<(ShardPlan, usize)>,
}

impl Preparation {
    /// Simulates the plan from `|0…0⟩`, surfacing allocation refusals as a
    /// typed [`CapacityError`]. Dense and sharded paths are bit-identical.
    fn simulate(&self) -> Result<Statevector, CapacityError> {
        match &self.sharded {
            Some((sp, workers)) => {
                let mut st = ShardedState::try_zero(self.plan.num_qubits(), sp.num_shards())?
                    .with_parallelism(Parallelism::Threads(*workers));
                st.apply_shard_plan(sp);
                Ok(st.to_statevector())
            }
            None => {
                let mut st = Statevector::try_zero(self.plan.num_qubits())?;
                st.apply_plan(&self.plan);
                Ok(st)
            }
        }
    }
}

/// One measurement of a batched dispatch: a prepared state and the Pauli
/// basis to measure it in — see [`SimExecutor::run_batch`].
#[derive(Clone, Copy, Debug)]
pub struct BatchJob<'a> {
    state: &'a Statevector,
    basis: &'a PauliString,
    measure_all: bool,
}

impl<'a> BatchJob<'a> {
    /// Measure only the basis' support, on the best physical qubits —
    /// the subset-circuit shape, equivalent to
    /// [`SimExecutor::run_prepared`].
    pub fn subset(state: &'a Statevector, basis: &'a PauliString) -> Self {
        BatchJob {
            state,
            basis,
            measure_all: false,
        }
    }

    /// Measure every qubit of the state (identity basis positions read
    /// in the computational basis) — the Global-circuit shape,
    /// equivalent to [`SimExecutor::run_prepared_all`].
    pub fn global(state: &'a Statevector, basis: &'a PauliString) -> Self {
        BatchJob {
            state,
            basis,
            measure_all: true,
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
        exec.reset_circuits_executed();
        assert_eq!(exec.circuits_executed(), 0);
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
    fn parallelism_mode_never_changes_results() {
        // Statevector execution is bit-identical across modes, and the
        // sampling RNG stream is untouched by the choice, so whole PMFs
        // must match exactly.
        let run = |mode: Parallelism| {
            let mut exec =
                SimExecutor::new(DeviceModel::mumbai_like(), 256, 11).with_parallelism(mode);
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).cx(1, 2).ry(2, 0.7);
            let st = exec.prepare(&c);
            exec.run_prepared(&st, &ps("ZXZ")).probs().to_vec()
        };
        let serial = run(Parallelism::Serial);
        assert_eq!(serial, run(Parallelism::Auto));
        assert_eq!(serial, run(Parallelism::Threads(4)));
    }

    #[test]
    fn run_circuit_measures_computational_basis() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        let mut c = Circuit::new(2);
        c.x(1);
        let pmf = exec.run_circuit(&c, &[1]);
        assert_eq!(pmf.prob(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "identity basis")]
    fn identity_basis_rejected() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        exec.run_prepared(&Statevector::zero(2), &ps("II"));
    }

    /// The seed-for-seed regression the batched dispatch is specified
    /// by: `run_batch` must reproduce N sequential `run_prepared` /
    /// `run_prepared_all` calls exactly — PMFs, RNG stream, and cost
    /// counter.
    #[test]
    fn run_batch_matches_sequential_runs_seed_for_seed() {
        let make_exec = || SimExecutor::new(DeviceModel::mumbai_like(), 512, 21);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.6).cx(1, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let st2 = Statevector::zero(3);
        let bases = [ps("ZZI"), ps("XZY"), ps("ZZZ"), ps("IXX")];

        let mut seq = make_exec();
        let mut expected: Vec<Pmf> = Vec::new();
        expected.push(seq.run_prepared_all(&st, &bases[0]));
        expected.push(seq.run_prepared(&st, &bases[1]));
        expected.push(seq.run_prepared_all(&st2, &bases[2]));
        expected.push(seq.run_prepared(&st2, &bases[3]));
        expected.push(seq.run_prepared(&st, &bases[0]));

        let mut batched = make_exec();
        let got = batched.run_batch(&[
            BatchJob::global(&st, &bases[0]),
            BatchJob::subset(&st, &bases[1]),
            BatchJob::global(&st2, &bases[2]),
            BatchJob::subset(&st2, &bases[3]),
            BatchJob::subset(&st, &bases[0]),
        ]);

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.qubits(), e.qubits());
            assert_eq!(g.probs(), e.probs(), "batched PMF must match exactly");
        }
        assert_eq!(batched.circuits_executed(), seq.circuits_executed());
        // The RNG streams stayed in lockstep: one more run still agrees.
        assert_eq!(
            batched.run_prepared(&st, &bases[1]).probs(),
            seq.run_prepared(&st, &bases[1]).probs()
        );
    }

    #[test]
    fn run_batch_matches_sequential_in_exact_mode() {
        let mut c = Circuit::new(3);
        c.ry(0, 0.4).cx(0, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let mut seq = SimExecutor::exact(DeviceModel::uniform(3, 0.05), 1);
        let mut batched = seq.clone();
        let bases = [ps("ZIZ"), ps("XYZ")];
        let expected = [
            seq.run_prepared_all(&st, &bases[0]),
            seq.run_prepared(&st, &bases[1]),
        ];
        let got = batched.run_batch(&[
            BatchJob::global(&st, &bases[0]),
            BatchJob::subset(&st, &bases[1]),
        ]);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.probs(), e.probs());
        }
    }

    #[test]
    fn prepare_batch_matches_sequential_prepares() {
        let circuits: Vec<Circuit> = [0.3f64, -1.1, 2.4]
            .iter()
            .map(|&t| {
                let mut c = Circuit::new(3);
                c.ry(0, t).rz(1, 2.0 * t).cx(0, 1).cx(1, 2);
                c
            })
            .collect();
        let mut exec = SimExecutor::new(DeviceModel::noiseless(3), 16, 1);
        let batch = exec.prepare_batch(&circuits);
        let mut seq_exec = SimExecutor::new(DeviceModel::noiseless(3), 16, 1);
        for (c, b) in circuits.iter().zip(&batch) {
            assert_eq!(seq_exec.prepare(c).amplitudes(), b.amplitudes());
        }
        // One structure: one compile, two rebinds.
        assert_eq!(exec.plan_cache_stats(), (1, 2, 1));
    }

    #[test]
    fn sharded_preparation_is_bit_identical() {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.ry(q, 0.1 + q as f64);
        }
        c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cz(0, 4);
        // A noisy device with finite shots: PMFs match only if the
        // probabilities and the sampling RNG stream both do.
        let exec =
            |mode| SimExecutor::new(DeviceModel::mumbai_like(), 64, 2).with_parallelism(mode);
        for threads in [2, 4, 8] {
            let mut dense = exec(Parallelism::Serial);
            let mut sharded = exec(Parallelism::Threads(threads));
            let st_d = dense.prepare(&c);
            let st_s = sharded.prepare(&c);
            assert_eq!(st_d.amplitudes(), st_s.amplitudes(), "{threads} threads");
            assert_eq!(sharded.shard_cache_stats().1, 1, "prepared on shards");
            // And through the measured paths — subset, Global and explicit
            // circuit — PMFs and metered cost stay equal too.
            assert_eq!(
                dense.run_prepared(&st_d, &ps("ZZIII")).probs(),
                sharded.run_prepared(&st_s, &ps("ZZIII")).probs()
            );
            assert_eq!(
                dense.run_prepared_all(&st_d, &ps("ZZIXY")),
                sharded.run_prepared_all(&st_s, &ps("ZZIXY"))
            );
            assert_eq!(
                dense.run_circuit(&c, &[0, 3]).probs(),
                sharded.run_circuit(&c, &[0, 3]).probs()
            );
            assert_eq!(dense.circuits_executed(), 3);
            assert_eq!(sharded.circuits_executed(), dense.circuits_executed());
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
