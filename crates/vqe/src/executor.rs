//! Noisy circuit execution with cost accounting.

use crate::basis::basis_rotation;
use mitigation::Pmf;
use pauli::PauliString;
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};
use qsim::shard::auto_shard_count;
use qsim::{
    CapacityError, Circuit, CircuitPlan, FaultInjection, FaultSchedule, Parallelism, PlanCache,
    ShardPlan, ShardedState, Sharding, SharedPlanCache, Statevector, TransportError, TransportMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Why state preparation could not produce a statevector: either the state
/// would not fit (admission control refused the allocation up front), or —
/// under the sharded executor with a message-passing transport — a rank
/// failed mid-plan and the error surfaced through the transport seam.
///
/// Schedulers branch on the two arms differently: a [`CapacityError`] is a
/// property of the *request* (re-submitting won't help on this host), while
/// a [`TransportError`] is a property of the *execution* (the job may be
/// retried on a fresh state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrepareError {
    /// The state allocation was refused before any simulation ran.
    Capacity(CapacityError),
    /// A shard-transport failure interrupted sharded execution.
    Transport(TransportError),
}

impl PrepareError {
    /// The capacity refusal, if that is what this error is.
    pub fn capacity(&self) -> Option<&CapacityError> {
        match self {
            PrepareError::Capacity(e) => Some(e),
            PrepareError::Transport(_) => None,
        }
    }

    /// The transport failure, if that is what this error is.
    pub fn transport(&self) -> Option<&TransportError> {
        match self {
            PrepareError::Capacity(_) => None,
            PrepareError::Transport(e) => Some(e),
        }
    }
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Capacity(e) => e.fmt(f),
            PrepareError::Transport(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrepareError::Capacity(e) => Some(e),
            PrepareError::Transport(e) => Some(e),
        }
    }
}

impl From<CapacityError> for PrepareError {
    fn from(e: CapacityError) -> Self {
        PrepareError::Capacity(e)
    }
}

impl From<TransportError> for PrepareError {
    fn from(e: TransportError) -> Self {
        PrepareError::Transport(e)
    }
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
    parallelism: Parallelism,
    sharding: Sharding,
    transport: TransportMode,
    /// Per-session chaos draws: each sharded preparation session draws
    /// its [`FaultInjection`] from this schedule (none by default).
    fault_schedule: FaultSchedule,
    /// The schedule stream this executor draws from — supervisors give
    /// each retry attempt a distinct stream.
    fault_stream: u64,
    /// Preparation sessions opened so far: the schedule's session index,
    /// advanced deterministically (batches advance by batch length, so
    /// parallel fan-out draws the same faults as sequential execution).
    fault_sessions: u64,
    /// Compiled-plan cache keyed by circuit structure: SPSA evaluations,
    /// subset/Global measurement rotations and MBM circuits all share the
    /// handful of shapes a VQE run executes, so after the first iteration
    /// every simulation rebinds a cached plan instead of re-analyzing.
    /// Also memoizes sharded-execution analyses per structure.
    plans: PlanCache,
    /// When set, planning goes through this process-shared cache instead
    /// of the private one — see [`SimExecutor::with_shared_plans`].
    shared_plans: Option<SharedPlanCache>,
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
            sharding: Sharding::Off,
            transport: TransportMode::from_env(),
            fault_schedule: FaultSchedule::none(),
            fault_stream: 0,
            fault_sessions: 0,
            plans: PlanCache::new(),
            shared_plans: None,
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
            sharding: Sharding::Off,
            transport: TransportMode::from_env(),
            fault_schedule: FaultSchedule::none(),
            fault_stream: 0,
            fault_sessions: 0,
            plans: PlanCache::new(),
            shared_plans: None,
            readout_by_width: Vec::new(),
        }
    }

    /// Routes this executor's circuit planning through a process-shared
    /// [`SharedPlanCache`] instead of its private cache. Executors for
    /// different jobs — or different tenants — running the same ansatz
    /// family then hit each other's compiled structures: the scheduler
    /// tier (`sched::JobQueue`) hands every job executor one shared
    /// cache. Plans are deterministic artifacts, so sharing never
    /// changes results.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::{Circuit, SharedPlanCache};
    /// use vqe::SimExecutor;
    ///
    /// let shared = SharedPlanCache::new();
    /// let mut a = SimExecutor::new(DeviceModel::noiseless(2), 16, 1)
    ///     .with_shared_plans(shared.clone());
    /// let mut b = SimExecutor::new(DeviceModel::noiseless(2), 16, 2)
    ///     .with_shared_plans(shared.clone());
    /// let mut c = Circuit::new(2);
    /// c.ry(0, 0.3).cx(0, 1);
    /// a.prepare(&c);
    /// let mut c2 = Circuit::new(2);
    /// c2.ry(0, -0.8).cx(0, 1);
    /// b.prepare(&c2); // same structure: a hit through the other executor
    /// assert_eq!(shared.stats(), (1, 1, 1));
    /// assert_eq!(b.plan_cache_stats(), (1, 1, 1)); // reports the shared cache
    /// ```
    pub fn with_shared_plans(mut self, shared: SharedPlanCache) -> Self {
        self.shared_plans = Some(shared);
        self
    }

    /// Sets how statevector simulation spreads gate kernels across
    /// threads (default [`Parallelism::Auto`]).
    ///
    /// Serial and threaded simulation produce bit-identical amplitudes,
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

    /// Sets how state preparation decomposes the amplitude plane across
    /// shards (default [`Sharding::Off`]). Sharded execution is
    /// bit-identical to the dense plane — local ops run shard-parallel,
    /// global-qubit ops go through explicit exchanges (see
    /// [`qsim::shard`]) — so this knob never changes results either; it
    /// exists for registers past the cache (and, eventually, node)
    /// capacity of one plane. [`Sharding::Auto`] consults the circuit's
    /// [`qsim::CircuitStats::state_bytes`] estimate and the
    /// `VARSAW_NUM_SHARDS` override.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Sharding;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_sharding(Sharding::Auto);
    /// assert_eq!(exec.sharding(), Sharding::Auto);
    /// ```
    pub fn with_sharding(mut self, sharding: Sharding) -> Self {
        if let Sharding::Shards(s) = sharding {
            assert!(s.is_power_of_two(), "shard count {s} is not a power of two");
        }
        self.sharding = sharding;
        self
    }

    /// The sharding mode state preparation uses.
    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// Sets which [`TransportMode`] sharded preparation moves amplitudes
    /// through (default: the `VARSAW_SHARD_TRANSPORT` environment knob,
    /// falling back to zero-copy in-process swaps). Both backends are
    /// bit-identical, so this knob never changes results; the
    /// message-passing backend exists to rehearse multi-node execution
    /// and exercise the failure paths schedulers must handle.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::TransportMode;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_transport(TransportMode::Channel);
    /// assert_eq!(exec.transport(), TransportMode::Channel);
    /// ```
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// The shard-transport backend sharded preparation uses.
    pub fn transport(&self) -> TransportMode {
        self.transport
    }

    /// Installs a seed-deterministic [`FaultSchedule`] for sharded
    /// preparation: each preparation session draws one
    /// [`FaultInjection`] at schedule coordinate `(stream, session
    /// index)`, where the session index counts this executor's prepares.
    /// Unsharded preparation opens no transport session and never
    /// faults. Supervisors give every retry attempt a distinct `stream`
    /// so attempts draw independently while each run stays exactly
    /// reproducible.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule, stream: u64) -> Self {
        self.fault_schedule = schedule;
        self.fault_stream = stream;
        self
    }

    /// The shard count preparation of `circuit` resolves to.
    fn resolve_shards(&self, circuit: &Circuit) -> usize {
        match self.sharding {
            Sharding::Off => 1,
            Sharding::Auto => auto_shard_count(&circuit.stats()),
            Sharding::Shards(s) => s.min(1 << circuit.num_qubits().min(30)),
        }
    }

    /// The compiled plan for `circuit`, through the shared cache when one
    /// is attached and the private cache otherwise.
    fn plan(&mut self, circuit: &Circuit) -> CircuitPlan {
        match &self.shared_plans {
            Some(shared) => shared.plan(circuit),
            None => self.plans.plan(circuit),
        }
    }

    /// The memoized sharded-execution plan for `plan` on `shards` shards
    /// (`None` for unsharded execution). Routes through the same cache as
    /// [`SimExecutor::plan`], so a rebind of a known ansatz shape skips
    /// the layout re-analysis (ROADMAP carry-over).
    fn shard_plan(&mut self, plan: &CircuitPlan, shards: usize) -> Option<ShardPlan> {
        if shards <= 1 {
            return None;
        }
        Some(match &self.shared_plans {
            Some(shared) => shared.shard_plan(plan, shards),
            None => self.plans.shard_plan(plan, shards),
        })
    }

    /// Simulates a compiled plan from `|0…0⟩` on the dense plane or the
    /// sharded executor, surfacing allocation refusals and transport
    /// failures as a typed [`PrepareError`]. All paths are bit-identical.
    /// `fault` is the chaos injection drawn for this session (only
    /// sharded execution opens a transport session, so only it can
    /// fault); a failed session's poisoned state is dropped here — the
    /// caller never sees it.
    fn try_simulate(
        plan: &CircuitPlan,
        shard_plan: Option<&ShardPlan>,
        mode: Parallelism,
        transport: TransportMode,
        fault: FaultInjection,
    ) -> Result<Statevector, PrepareError> {
        if let Some(sp) = shard_plan {
            let mut st = ShardedState::try_zero(plan.num_qubits(), sp.num_shards())?
                .with_parallelism(mode)
                .with_transport(transport)
                .with_fault(fault);
            st.try_apply_shard_plan(sp)?;
            Ok(st.try_to_statevector()?)
        } else {
            let mut st = Statevector::try_zero(plan.num_qubits())?;
            st.apply_plan_with(plan, mode);
            Ok(st)
        }
    }

    /// The chaos injection the schedule draws for preparation session
    /// `session` of a sharded plan (none when unsharded: no transport).
    fn draw_fault(&self, session: u64, shard_plan: Option<&ShardPlan>) -> FaultInjection {
        match shard_plan {
            Some(sp) => self
                .fault_schedule
                .injection(self.fault_stream, session, sp.num_shards()),
            None => FaultInjection::none(),
        }
    }

    /// Simulates `circuit` from `|0…0⟩` under this executor's
    /// [`Parallelism`] mode, without measuring or metering cost — the
    /// state-preparation step evaluators run before their measurement
    /// circuits. Routing preparation through the executor keeps the
    /// parallelism knob in charge of *every* statevector pass of an
    /// evaluation, not just the basis rotations, and lets preparation hit
    /// the executor's [`PlanCache`]: a VQE iteration rebinding new angles
    /// into a known ansatz shape skips fusion re-analysis entirely.
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

    /// [`SimExecutor::prepare`], surfacing state-allocation failures and
    /// shard-transport failures as a typed [`PrepareError`] instead of
    /// panicking — the admission-control and fault seam job schedulers
    /// branch on. Covers every execution tier: the dense plane (serial or
    /// threaded) probes [`Statevector::try_zero`], the sharded executor
    /// probes [`ShardedState::try_zero`](qsim::ShardedState::try_zero) and
    /// surfaces rank failures from
    /// [`try_apply_shard_plan`](qsim::ShardedState::try_apply_shard_plan).
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// assert!(exec.try_prepare(&Circuit::new(3)).is_ok());
    /// let err = exec.try_prepare(&Circuit::new(33)).unwrap_err();
    /// assert_eq!(err.capacity().unwrap().num_qubits(), 33);
    /// ```
    pub fn try_prepare(&mut self, circuit: &Circuit) -> Result<Statevector, PrepareError> {
        let plan = self.plan(circuit);
        let sp = self.shard_plan(&plan, self.resolve_shards(circuit));
        let fault = self.draw_fault(self.fault_sessions, sp.as_ref());
        self.fault_sessions += 1;
        Self::try_simulate(&plan, sp.as_ref(), self.parallelism, self.transport, fault)
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

    /// [`SimExecutor::prepare_batch`], surfacing state-allocation and
    /// shard-transport failures as a typed [`PrepareError`] (the first one
    /// encountered, in circuit order) instead of panicking.
    pub fn try_prepare_batch(
        &mut self,
        circuits: &[Circuit],
    ) -> Result<Vec<Statevector>, PrepareError> {
        // Per-entry session indices are assigned up front (base + i), so
        // the batch draws the exact faults sequential prepares would —
        // regardless of whether the fan-out below runs threaded.
        let base_session = self.fault_sessions;
        self.fault_sessions += circuits.len() as u64;
        let plans: Vec<(CircuitPlan, Option<ShardPlan>, FaultInjection)> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let plan = self.plan(c);
                let sp = self.shard_plan(&plan, self.resolve_shards(c));
                let fault = self.draw_fault(base_session + i as u64, sp.as_ref());
                (plan, sp, fault)
            })
            .collect();
        let transport = self.transport;
        let states: Vec<Result<Statevector, PrepareError>> = if self.parallelism
            != Parallelism::Serial
            && plans.len() > 1
            && parallel::num_threads() > 1
        {
            parallel::parallel_map(plans, move |(plan, sp, fault)| {
                Self::try_simulate(plan, sp.as_ref(), Parallelism::Serial, transport, *fault)
            })
        } else {
            plans
                .iter()
                .map(|(plan, sp, fault)| {
                    Self::try_simulate(plan, sp.as_ref(), self.parallelism, transport, *fault)
                })
                .collect()
        };
        states.into_iter().collect()
    }

    /// Plan-cache statistics `(structures, hits, misses)` — how often
    /// simulations rebound a cached circuit structure instead of
    /// re-analyzing it. Reports the shared cache when one is attached
    /// ([`SimExecutor::with_shared_plans`]), so schedulers can observe
    /// cross-tenant sharing through any participating executor.
    pub fn plan_cache_stats(&self) -> (usize, u64, u64) {
        match &self.shared_plans {
            Some(shared) => shared.stats(),
            None => (self.plans.len(), self.plans.hits(), self.plans.misses()),
        }
    }

    /// Shard-analysis cache counters `(hits, misses)` — how often sharded
    /// preparation rebound a memoized layout analysis instead of
    /// re-analyzing (see [`qsim::PlanCache::shard_plan`]). Reports the
    /// shared cache when one is attached.
    pub fn shard_cache_stats(&self) -> (u64, u64) {
        match &self.shared_plans {
            Some(shared) => shared.shard_stats(),
            None => self.plans.shard_stats(),
        }
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
        let plan = self.plan(&basis_rotation(basis));
        st.apply_plan_with(&plan, self.parallelism);
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
        let plan = self.plan(&basis_rotation(basis));
        st.apply_plan_with(&plan, self.parallelism);
        let measured: Vec<usize> = (0..state.num_qubits()).collect();
        self.finish(st.marginal_probabilities(&measured), measured)
    }

    /// Runs an explicit circuit from `|0…0⟩` and measures `measured` in the
    /// computational basis.
    ///
    /// # Panics
    ///
    /// Panics if `measured` is empty or out of range.
    pub fn run_circuit(&mut self, circuit: &Circuit, measured: &[usize]) -> Pmf {
        assert!(!measured.is_empty(), "no qubits to measure");
        let mut st = Statevector::zero(circuit.num_qubits());
        let plan = self.plan(circuit);
        st.apply_plan_with(&plan, self.parallelism);
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
                    plan: self.plan(&basis_rotation(job.basis)),
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
                st.apply_plan_with(&pl.plan, mode);
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
            let mut st = Statevector::zero(3);
            st.apply_circuit(&c);
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
        let mut dense = SimExecutor::new(DeviceModel::noiseless(5), 16, 2);
        let mut sharded =
            SimExecutor::new(DeviceModel::noiseless(5), 16, 2).with_sharding(Sharding::Shards(4));
        assert_eq!(
            dense.prepare(&c).amplitudes(),
            sharded.prepare(&c).amplitudes()
        );
        // And through the measured path, PMFs stay equal too.
        let st_d = dense.prepare(&c);
        let st_s = sharded.prepare(&c);
        assert_eq!(
            dense.run_prepared(&st_d, &ps("ZZIII")).probs(),
            sharded.run_prepared(&st_s, &ps("ZZIII")).probs()
        );
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
