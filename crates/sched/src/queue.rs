//! The multi-tenant job queue above [`vqe::SimExecutor`].

use crate::fair::{FairScheduler, Pick};
use mitigation::Pmf;
use pauli::PauliString;
use qnoise::DeviceModel;
use qsim::{CapacityError, Circuit, Parallelism, SharedPlanCache};
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vqe::SimExecutor;

/// The dense-plane representation limit (qubits) of the statevector
/// engine; see [`qsim::Statevector::try_zero`]. Jobs past it can never
/// run, so admission rejects them outright.
const SIM_MAX_QUBITS: usize = 30;

/// Mixes a queue's root seed with a job's stable id into that job's
/// executor seed — a SplitMix64-style finalizer, so nearby job ids land
/// on unrelated streams.
///
/// The seed is a pure function of `(root_seed, job_id)`: **not** of
/// submission order, worker count, or scheduling interleaving. This is
/// what makes every scheduled result bit-identical to a sequential
/// reference run of the same job, and it is exported so such references
/// can be built without going through the queue:
///
/// ```
/// let a = sched::job_seed(42, 7);
/// assert_eq!(a, sched::job_seed(42, 7));   // stable
/// assert_ne!(a, sched::job_seed(42, 8));   // decorrelated neighbours
/// assert_ne!(a, sched::job_seed(43, 7));
/// ```
pub fn job_seed(root_seed: u64, job_id: u64) -> u64 {
    let mut z = root_seed ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which qubits one measurement of a job reads out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureScope {
    /// Measure only the basis' support — JigSaw/VarSaw-style subset
    /// execution ([`SimExecutor::run_prepared`]).
    Subset,
    /// Measure the full register — Qiskit-style Global execution
    /// ([`SimExecutor::run_prepared_all`]).
    Global,
}

/// One measurement a job performs on its prepared state.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The Pauli basis to rotate into.
    pub basis: PauliString,
    /// Whether the readout covers the basis support or the full register.
    pub scope: MeasureScope,
}

impl Measurement {
    /// A subset measurement of `basis` (readout on its support only).
    pub fn subset(basis: PauliString) -> Self {
        Measurement {
            basis,
            scope: MeasureScope::Subset,
        }
    }

    /// A full-register (Global) measurement of `basis`.
    pub fn global(basis: PauliString) -> Self {
        Measurement {
            basis,
            scope: MeasureScope::Global,
        }
    }
}

/// One unit of schedulable work: prepare `circuit` from `|0…0⟩`, then
/// perform each measurement in order on the prepared state.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Caller-assigned stable identity. Seeds derive from it (see
    /// [`job_seed`]), so resubmitting the same id under the same root
    /// seed reproduces the same result bit for bit; the queue rejects
    /// duplicates ([`AdmitError::DuplicateJobId`]) to keep ids honest.
    pub job_id: u64,
    /// The tenant this job bills to (fair-queueing key).
    pub tenant: u64,
    /// The state-preparation circuit.
    pub circuit: Circuit,
    /// Measurements to run on the prepared state, in order. May be empty
    /// (a prepare-only job, costing zero metered circuits).
    pub measurements: Vec<Measurement>,
}

/// Wall-clock milestones of a completed job: admission, dispatch, and
/// completion. Recorded unconditionally — the instants are cheap, and
/// the queue-wait / run-time split is the first thing an operator asks
/// a scheduler for. Not part of the determinism contract: [`JobOutput`]
/// equality ignores timing.
#[derive(Clone, Copy, Debug)]
pub struct JobTiming {
    /// When [`JobQueue::submit`] admitted the job.
    pub enqueued_at: Instant,
    /// When a worker picked the job off the fair scheduler.
    pub dispatched_at: Instant,
    /// When the job's result was assembled (success or typed error —
    /// the slot is filled immediately after).
    pub completed_at: Instant,
}

impl JobTiming {
    /// Time spent admitted but not yet dispatched.
    pub fn queue_wait(&self) -> Duration {
        self.dispatched_at.duration_since(self.enqueued_at)
    }

    /// Time from dispatch to completion.
    pub fn run_time(&self) -> Duration {
        self.completed_at.duration_since(self.dispatched_at)
    }

    /// End-to-end latency from admission to completion.
    pub fn total(&self) -> Duration {
        self.completed_at.duration_since(self.enqueued_at)
    }
}

/// A completed job's results.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The id from the [`JobSpec`].
    pub job_id: u64,
    /// The tenant from the [`JobSpec`].
    pub tenant: u64,
    /// One outcome PMF per measurement, in spec order.
    pub pmfs: Vec<Pmf>,
    /// Metered circuit executions (the paper's Cost metric) — exactly
    /// what a sequential [`SimExecutor`] run of this job would report.
    pub cost: u64,
    /// Wall-clock milestones (enqueue → dispatch → complete).
    pub timing: JobTiming,
    /// Per-stage time breakdown of this job's execution — `Some` only
    /// when the `telemetry` feature is compiled in and recording is
    /// active ([`telemetry::set_active`] / `VARSAW_TELEMETRY`).
    pub stages: Option<telemetry::TelemetrySnapshot>,
}

impl PartialEq for JobOutput {
    /// Equality covers only the deterministic payload. Timing and stage
    /// breakdowns are wall-clock observations — two bit-identical runs
    /// of the same job never clock the same nanoseconds, and the
    /// determinism oracles compare whole outputs.
    fn eq(&self, other: &Self) -> bool {
        self.job_id == other.job_id
            && self.tenant == other.tenant
            && self.pmfs == other.pmfs
            && self.cost == other.cost
    }
}

/// Why a submitted job was refused at admission. Admission rejects only
/// jobs that can **never** run; jobs that merely don't fit right now are
/// queued and dispatched once running jobs release capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The job's dense state exceeds the queue's memory budget, so no
    /// schedule could ever hold it.
    ExceedsBudget {
        /// Bytes the job's statevector needs ([`qsim::CircuitStats::state_bytes`]).
        needed: u128,
        /// The queue's configured budget.
        budget: u128,
    },
    /// The register exceeds the simulator's dense representation limit.
    ExceedsSimulator {
        /// The job's register width.
        num_qubits: usize,
        /// Bytes its dense state would need.
        bytes: u128,
    },
    /// A job with this id was already submitted; ids must be unique
    /// because seeds derive from them.
    DuplicateJobId(u64),
    /// A subset measurement of the identity basis reads nothing out.
    IdentityBasis {
        /// Index into [`JobSpec::measurements`].
        measurement: usize,
    },
    /// A measurement basis is wider than the job's register.
    BasisTooWide {
        /// Index into [`JobSpec::measurements`].
        measurement: usize,
        /// The basis width.
        basis_qubits: usize,
        /// The register width.
        circuit_qubits: usize,
    },
    /// A measurement reads out more qubits than the device has.
    DeviceTooSmall {
        /// Index into [`JobSpec::measurements`].
        measurement: usize,
        /// Qubits the readout needs.
        needed: usize,
        /// Qubits the device has.
        device: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::ExceedsBudget { needed, budget } => write!(
                f,
                "job needs {needed} bytes of state but the queue budget is {budget}"
            ),
            AdmitError::ExceedsSimulator { num_qubits, bytes } => write!(
                f,
                "a {num_qubits}-qubit register ({bytes} bytes) exceeds the \
                 simulator's {SIM_MAX_QUBITS}-qubit dense limit"
            ),
            AdmitError::DuplicateJobId(id) => {
                write!(f, "job id {id} was already submitted")
            }
            AdmitError::IdentityBasis { measurement } => write!(
                f,
                "measurement {measurement} is a subset readout of the identity basis"
            ),
            AdmitError::BasisTooWide {
                measurement,
                basis_qubits,
                circuit_qubits,
            } => write!(
                f,
                "measurement {measurement} acts on {basis_qubits} qubits but the \
                 register has {circuit_qubits}"
            ),
            AdmitError::DeviceTooSmall {
                measurement,
                needed,
                device,
            } => write!(
                f,
                "measurement {measurement} reads out {needed} qubits but the \
                 device has {device}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why an admitted job failed during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The state allocation was refused at run time (e.g. the allocator
    /// rejected the reservation even though the job was within budget).
    Capacity(CapacityError),
    /// The job was cancelled through [`JobHandle::cancel`] before it
    /// completed (checked at dispatch and between measurements).
    Cancelled,
    /// The job's deadline passed before it completed (see
    /// [`JobQueue::with_deadline`] / [`JobQueue::submit_with_deadline`];
    /// checked at the same cooperative boundaries as cancellation).
    DeadlineExceeded,
    /// The job's execution panicked. The completion guard converts the unwind
    /// into this typed error so the worker survives, the job's memory
    /// budget is released, and parked co-workers are woken — a panicking
    /// job can neither deadlock the drain nor leak budget.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Capacity(e) => write!(f, "job failed to allocate its state: {e}"),
            JobError::Cancelled => write!(f, "job was cancelled"),
            JobError::DeadlineExceeded => write!(f, "job missed its deadline"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CapacityError> for JobError {
    fn from(e: CapacityError) -> Self {
        JobError::Capacity(e)
    }
}

/// The write-once completion cell a [`JobHandle`] watches.
#[derive(Debug, Default)]
struct Slot {
    cell: Mutex<Option<Result<JobOutput, JobError>>>,
    ready: Condvar,
    /// Set by [`JobHandle::cancel`]; workers observe it cooperatively at
    /// dispatch and between measurements.
    cancelled: AtomicBool,
}

impl Slot {
    fn fill(&self, result: Result<JobOutput, JobError>) {
        let mut cell = lock(&self.cell);
        debug_assert!(cell.is_none(), "a job completes exactly once");
        *cell = Some(result);
        self.ready.notify_all();
    }
}

/// A caller's view of one submitted job: poll with
/// [`JobHandle::try_result`] or block with [`JobHandle::wait`]. Handles
/// are cheap to clone and results stay readable after completion.
#[derive(Clone, Debug)]
pub struct JobHandle {
    job_id: u64,
    tenant: u64,
    slot: Arc<Slot>,
}

impl JobHandle {
    /// The id of the job this handle watches.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The tenant the job bills to.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        lock(&self.slot.cell).is_some()
    }

    /// Polls for the result without blocking: `None` while the job is
    /// still queued or running.
    pub fn try_result(&self) -> Option<Result<JobOutput, JobError>> {
        lock(&self.slot.cell).clone()
    }

    /// Blocks until the job completes and returns its result. Only
    /// returns while a [`JobQueue::drain`] is running (or has run) —
    /// waiting on a job nobody drains blocks forever, like any unfired
    /// future.
    pub fn wait(&self) -> Result<JobOutput, JobError> {
        let mut cell = lock(&self.slot.cell);
        loop {
            if let Some(result) = cell.as_ref() {
                return result.clone();
            }
            cell = self
                .slot
                .ready
                .wait(cell)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until the job completes or `timeout` elapses: `None` on
    /// timeout, `Some(result)` otherwise. The bounded twin of
    /// [`JobHandle::wait`] — callers supervising a drain from outside
    /// poll with this instead of blocking forever.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let deadline = Instant::now() + timeout;
        let mut cell = lock(&self.slot.cell);
        loop {
            if let Some(result) = cell.as_ref() {
                return Some(result.clone());
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            cell = self
                .slot
                .ready
                .wait_timeout(cell, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Requests cooperative cancellation: the job completes with
    /// [`JobError::Cancelled`] at its next check (dispatch or between
    /// measurements). A job that already
    /// completed keeps its result — cancellation never rewrites history.
    /// Idempotent and safe from any thread.
    pub fn cancel(&self) {
        self.slot.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (not whether it has been
    /// observed — poll [`JobHandle::try_result`] for the outcome).
    pub fn is_cancelled(&self) -> bool {
        self.slot.cancelled.load(Ordering::Relaxed)
    }
}

/// A job queued for dispatch.
#[derive(Debug)]
struct PendingJob {
    spec: JobSpec,
    /// Dense state footprint, the unit of admission accounting.
    bytes: u128,
    /// Estimated metered cost (measurement count), the unit of fairness
    /// accounting.
    cost: u64,
    slot: Arc<Slot>,
    /// Absolute completion deadline (clock starts at submission).
    deadline: Option<Instant>,
    /// When the job was admitted — the anchor for queue-wait accounting.
    enqueued_at: Instant,
}

/// Mutable scheduler state behind the queue's mutex.
#[derive(Debug)]
struct SchedState {
    sched: FairScheduler<PendingJob>,
    seen_ids: HashSet<u64>,
    in_flight_bytes: u128,
    in_flight_jobs: usize,
    peak_in_flight_bytes: u128,
    completion_log: Vec<u64>,
}

/// Locks a mutex, recovering the guard from a poisoned lock — scheduler
/// state stays readable even if a worker panicked mid-drain.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A multi-tenant job queue above [`vqe::SimExecutor`].
///
/// - **Admission control**: [`JobQueue::submit`] sizes each job by its
///   dense state footprint and rejects — with a typed [`AdmitError`],
///   never a panic — anything that could never run (over the memory
///   budget, past the simulator's representation limit, malformed
///   measurements, duplicate ids). Admitted jobs that merely don't fit
///   *right now* queue until running jobs release capacity.
/// - **Weighted fairness**: dispatch follows per-tenant virtual runtime
///   (the `fair` module); [`JobQueue::set_tenant_weight`] skews
///   capacity proportionally, and a flooding tenant cannot starve others.
/// - **Determinism**: each job runs on a fresh executor seeded by
///   [`job_seed`]`(root_seed, job_id)` and pinned serial, so results and
///   per-job cost are bit-identical to a sequential reference run —
///   independent of submission order, worker count, and interleaving.
/// - **Plan sharing**: all job executors plan through one
///   [`SharedPlanCache`], so tenants running the same ansatz family
///   share compiled circuit structures ([`JobQueue::plan_cache_stats`]).
///
/// # Example
///
/// ```
/// use qnoise::DeviceModel;
/// use qsim::Circuit;
/// use sched::{JobQueue, JobSpec, Measurement};
///
/// let queue = JobQueue::new(DeviceModel::mumbai_like(), 256, 9).with_workers(2);
/// let mut handles = Vec::new();
/// for (job_id, tenant) in [(1u64, 0u64), (2, 1)] {
///     let mut c = Circuit::new(2);
///     c.h(0).cx(0, 1);
///     handles.push(
///         queue
///             .submit(JobSpec {
///                 job_id,
///                 tenant,
///                 circuit: c,
///                 measurements: vec![Measurement::subset("ZZ".parse().unwrap())],
///             })
///             .unwrap(),
///     );
/// }
/// queue.drain();
/// for h in &handles {
///     let out = h.wait().unwrap();
///     assert_eq!(out.cost, 1);
///     assert_eq!(out.pmfs[0].qubits(), &[0, 1]);
/// }
/// assert_eq!(queue.completed(), 2);
/// ```
#[derive(Debug)]
pub struct JobQueue {
    device: DeviceModel,
    shots: u64,
    root_seed: u64,
    workers: usize,
    budget: u128,
    /// Default per-job deadline applied at submission (jobs can override
    /// via [`JobQueue::submit_with_deadline`]).
    default_deadline: Option<Duration>,
    shared: SharedPlanCache,
    /// Aggregate stage telemetry folded in from every completed job —
    /// see [`JobQueue::telemetry_snapshot`].
    telemetry: telemetry::Recorder,
    state: Mutex<SchedState>,
    /// Workers park here when nothing runnable fits; completions and
    /// submissions wake them.
    wake: Condvar,
}

impl JobQueue {
    /// A queue executing on `device` with `shots` shots per measurement.
    /// Worker count defaults to [`parallel::sched_workers`], the memory
    /// budget to unlimited (the simulator's per-job representation limit
    /// still applies).
    pub fn new(device: DeviceModel, shots: u64, root_seed: u64) -> Self {
        JobQueue {
            device,
            shots,
            root_seed,
            workers: parallel::sched_workers(),
            budget: u128::MAX,
            default_deadline: crate::config::job_deadline_ms().map(Duration::from_millis),
            shared: SharedPlanCache::new(),
            telemetry: telemetry::Recorder::new(),
            state: Mutex::new(SchedState {
                sched: FairScheduler::new(),
                seen_ids: HashSet::new(),
                in_flight_bytes: 0,
                in_flight_jobs: 0,
                peak_in_flight_bytes: 0,
                completion_log: Vec::new(),
            }),
            wake: Condvar::new(),
        }
    }

    /// Sets the number of worker threads a [`JobQueue::drain`] runs
    /// (≥ 1). Results never depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Caps the total dense-state bytes of concurrently running jobs.
    /// Jobs needing more than the whole budget are rejected at admission;
    /// admitted jobs queue until they fit.
    pub fn with_memory_budget(mut self, bytes: u128) -> Self {
        self.budget = bytes;
        self
    }

    /// Sets the default per-job deadline (measured from submission;
    /// default: the `VARSAW_JOB_DEADLINE_MS` environment knob, falling
    /// back to none). Jobs still queued or running when their deadline
    /// passes complete with [`JobError::DeadlineExceeded`] at the next
    /// cooperative check, releasing their budget — a stuck queue cannot
    /// hold a tenant's budget forever.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets `tenant`'s fair-share weight (default 1): a weight-3 tenant
    /// drains roughly three times as fast as a weight-1 tenant under
    /// contention.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn set_tenant_weight(&self, tenant: u64, weight: u32) {
        lock(&self.state).sched.set_weight(tenant, weight);
    }

    /// Submits a job, returning its completion handle, or a typed
    /// [`AdmitError`] if the job could never run. Admission never panics
    /// and never aborts the process; a rejected job leaves no trace (its
    /// id stays available). The queue's default deadline (if any)
    /// applies, measured from now.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmitError> {
        self.submit_inner(spec, self.default_deadline)
    }

    /// [`JobQueue::submit`] with an explicit per-job deadline overriding
    /// the queue default. The clock starts now — queueing time counts,
    /// so an admitted job that never fits before its deadline completes
    /// with [`JobError::DeadlineExceeded`] instead of waiting forever.
    pub fn submit_with_deadline(
        &self,
        spec: JobSpec,
        deadline: Duration,
    ) -> Result<JobHandle, AdmitError> {
        self.submit_inner(spec, Some(deadline))
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, AdmitError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        let bytes = spec.circuit.stats().state_bytes();
        if spec.circuit.num_qubits() > SIM_MAX_QUBITS {
            return Err(AdmitError::ExceedsSimulator {
                num_qubits: spec.circuit.num_qubits(),
                bytes,
            });
        }
        if bytes > self.budget {
            return Err(AdmitError::ExceedsBudget {
                needed: bytes,
                budget: self.budget,
            });
        }
        let device_qubits = self.device.num_qubits();
        for (i, m) in spec.measurements.iter().enumerate() {
            if m.basis.num_qubits() > spec.circuit.num_qubits() {
                return Err(AdmitError::BasisTooWide {
                    measurement: i,
                    basis_qubits: m.basis.num_qubits(),
                    circuit_qubits: spec.circuit.num_qubits(),
                });
            }
            let needed = match m.scope {
                MeasureScope::Subset => {
                    let support = m.basis.support();
                    if support.is_empty() {
                        return Err(AdmitError::IdentityBasis { measurement: i });
                    }
                    support.len()
                }
                MeasureScope::Global => spec.circuit.num_qubits(),
            };
            if needed > device_qubits {
                return Err(AdmitError::DeviceTooSmall {
                    measurement: i,
                    needed,
                    device: device_qubits,
                });
            }
        }

        let mut st = lock(&self.state);
        if !st.seen_ids.insert(spec.job_id) {
            return Err(AdmitError::DuplicateJobId(spec.job_id));
        }
        let slot = Arc::new(Slot::default());
        let handle = JobHandle {
            job_id: spec.job_id,
            tenant: spec.tenant,
            slot: Arc::clone(&slot),
        };
        let cost = spec.measurements.len() as u64;
        let tenant = spec.tenant;
        st.sched.push(
            tenant,
            PendingJob {
                spec,
                bytes,
                cost,
                slot,
                deadline,
                enqueued_at: Instant::now(),
            },
        );
        drop(st);
        // A parked worker (mid-drain submission from another thread) may
        // now have work.
        self.wake.notify_all();
        Ok(handle)
    }

    /// Runs worker threads until every pending job has completed, then
    /// returns. Callable repeatedly; an empty queue drains immediately.
    /// Worker count comes from [`JobQueue::with_workers`], and — like
    /// every scheduling knob — affects throughput only, never results.
    pub fn drain(&self) {
        parallel::scope_workers(self.workers, |_| self.worker_loop());
    }

    /// Number of jobs admitted but not yet dispatched.
    pub fn pending(&self) -> usize {
        lock(&self.state).sched.pending()
    }

    /// Number of jobs that have completed (successfully or not).
    pub fn completed(&self) -> u64 {
        lock(&self.state).completion_log.len() as u64
    }

    /// Job ids in completion order — the observable the fairness and
    /// starvation tests assert on.
    pub fn completion_order(&self) -> Vec<u64> {
        lock(&self.state).completion_log.clone()
    }

    /// High-water mark of concurrently in-flight state bytes; never
    /// exceeds the configured budget.
    pub fn peak_in_flight_bytes(&self) -> u128 {
        lock(&self.state).peak_in_flight_bytes
    }

    /// State bytes of currently running jobs. Exactly zero after a
    /// completed [`JobQueue::drain`] — every completion path (success,
    /// typed error, cancellation, deadline, even a panic) releases its
    /// reservation, so tests can assert the accounting is airtight.
    pub fn in_flight_bytes(&self) -> u128 {
        lock(&self.state).in_flight_bytes
    }

    /// Statistics `(structures, hits, misses)` of the plan cache all job
    /// executors share — hits are jobs that reused another job's (or
    /// tenant's) compiled circuit structure.
    pub fn plan_cache_stats(&self) -> (usize, u64, u64) {
        self.shared.stats()
    }

    /// The shared plan cache itself, for wiring external executors into
    /// the same structure pool.
    pub fn shared_plans(&self) -> SharedPlanCache {
        self.shared.clone()
    }

    /// Aggregate per-stage telemetry across every job this queue has
    /// completed — the sum of the jobs' [`JobOutput::stages`] breakdowns.
    /// Empty unless the `telemetry` feature is compiled in and recording
    /// is active.
    pub fn telemetry_snapshot(&self) -> telemetry::TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// One worker: repeatedly dispatch the fair scheduler's next fitting
    /// job, run it on a fresh per-job executor, publish the result. Parks
    /// on the queue's condvar while jobs are pending but over the free
    /// budget (or other workers' completions might unblock them); exits
    /// when nothing is pending or running.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if st.sched.pending() == 0 && st.in_flight_jobs == 0 {
                        return;
                    }
                    let free = self.budget - st.in_flight_bytes;
                    let pick = {
                        let _span = telemetry::span(telemetry::Stage::SchedDispatch);
                        st.sched.pick(|j| j.bytes <= free, |j| j.cost)
                    };
                    match pick {
                        Pick::Job(job) => {
                            st.in_flight_bytes += job.bytes;
                            st.in_flight_jobs += 1;
                            st.peak_in_flight_bytes =
                                st.peak_in_flight_bytes.max(st.in_flight_bytes);
                            break job;
                        }
                        Pick::Blocked | Pick::Empty => {
                            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                }
            };
            let dispatched_at = Instant::now();
            // The per-job recorder: installed on this thread for the
            // whole execution (jobs run pinned serial, so every span
            // lands here), harvested into the output's stage breakdown
            // and folded into the queue-wide aggregate.
            let recorder = telemetry::Recorder::new();
            // The completion guard: a panic inside job execution must
            // not unwind past the budget release below — parked
            // co-workers would wait forever on bytes that never free
            // (the pressure-park missed-wakeup bug). The unwind becomes
            // a typed completion instead.
            let result = {
                let _guard = recorder.install();
                telemetry::record_duration(
                    telemetry::Stage::SchedQueueWait,
                    dispatched_at.duration_since(job.enqueued_at),
                );
                catch_unwind(AssertUnwindSafe(|| self.run_job(&job, dispatched_at)))
                    .unwrap_or_else(|payload| Err(JobError::Panicked(panic_message(&*payload))))
            };
            let stages = recorder.finish();
            if let Some(snapshot) = &stages {
                self.telemetry.absorb(snapshot);
            }
            let result = result.map(|mut out| {
                out.stages = stages;
                out
            });
            {
                let mut st = lock(&self.state);
                st.in_flight_bytes -= job.bytes;
                st.in_flight_jobs -= 1;
                st.completion_log.push(job.spec.job_id);
            }
            job.slot.fill(result);
            self.wake.notify_all();
        }
    }

    /// Returns [`JobError::Cancelled`] / [`JobError::DeadlineExceeded`]
    /// when the job should stop — the cooperative check run at dispatch
    /// and between measurements.
    fn check_alive(job: &PendingJob) -> Result<(), JobError> {
        if job.slot.cancelled.load(Ordering::Relaxed) {
            return Err(JobError::Cancelled);
        }
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                return Err(JobError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Executes one job exactly as a standalone sequential run would:
    /// fresh executor, seed from [`job_seed`], serial statevector path
    /// (workers provide the parallelism; pinning jobs serial avoids
    /// oversubscription and keeps per-job RNG streams self-contained).
    fn run_job(&self, job: &PendingJob, dispatched_at: Instant) -> Result<JobOutput, JobError> {
        Self::check_alive(job)?;
        let spec = &job.spec;
        let seed = job_seed(self.root_seed, spec.job_id);
        let mut exec = SimExecutor::new(self.device.clone(), self.shots, seed)
            .with_shared_plans(self.shared.clone())
            .with_parallelism(Parallelism::Serial);
        let state = exec.try_prepare(&spec.circuit)?;
        let mut pmfs = Vec::with_capacity(spec.measurements.len());
        for m in &spec.measurements {
            Self::check_alive(job)?;
            pmfs.push(match m.scope {
                MeasureScope::Subset => exec.run_prepared(&state, &m.basis),
                MeasureScope::Global => exec.run_prepared_all(&state, &m.basis),
            });
        }
        Ok(JobOutput {
            job_id: spec.job_id,
            tenant: spec.tenant,
            pmfs,
            cost: exec.circuits_executed(),
            timing: JobTiming {
                enqueued_at: job.enqueued_at,
                dispatched_at,
                completed_at: Instant::now(),
            },
            stages: None,
        })
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
