//! Multi-tenant VQE job scheduling above the simulation stack.
//!
//! A VarSaw-style mitigation service does not run one VQA at a time: many
//! tenants submit ansatz evaluations against one simulator pool. This
//! crate provides the queueing tier for that setting — [`JobQueue`] —
//! with four properties the rest of the workspace's guarantees demand:
//!
//! - **Typed admission control.** Jobs are sized up front by their dense
//!   state footprint ([`qsim::CircuitStats::state_bytes`]); anything that
//!   could never run is rejected at [`JobQueue::submit`] with an
//!   [`AdmitError`] — never a panic, never an abort (the execution path
//!   underneath is the fallible `try_zero` /
//!   [`vqe::SimExecutor::try_prepare`] seam). Jobs that fit the budget
//!   but not the *currently free* capacity simply queue.
//! - **Weighted fair scheduling.** Dispatch order follows per-tenant
//!   virtual runtime (CFS-style, the `fair` module): heavier tenants drain
//!   proportionally faster, flooding tenants cannot starve meek ones,
//!   and single-worker drains are fully deterministic.
//! - **Interleaving-independent results.** Every job runs on a fresh
//!   executor seeded by [`job_seed`]`(root_seed, job_id)` — a function of
//!   the job's *stable id*, not its submission position — so PMFs, RNG
//!   streams and metered cost are bit-identical to a sequential
//!   reference run, whatever the submission order or worker count. The
//!   `sched_equiv` integration suite property-tests exactly this oracle.
//! - **Cross-tenant plan sharing.** All job executors compile through
//!   one [`qsim::SharedPlanCache`], so tenants running the same ansatz
//!   family rebind each other's cached circuit structures
//!   ([`JobQueue::plan_cache_stats`]).
//!
//! Completion is surfaced per job through a [`JobHandle`] — poll with
//! [`JobHandle::try_result`], block with [`JobHandle::wait`], or block
//! boundedly with [`JobHandle::wait_timeout`] — and the queue itself is
//! driven by [`JobQueue::drain`], which runs
//! [`parallel::sched_workers`] scoped workers (override per queue with
//! [`JobQueue::with_workers`], or process-wide with the
//! `VARSAW_SCHED_WORKERS` environment variable).
//!
//! Jobs carry deadlines (env knob `VARSAW_JOB_DEADLINE_MS`, see
//! [`job_deadline_ms`], or [`JobQueue::submit_with_deadline`]) and
//! support cooperative cancellation ([`JobHandle::cancel`]); both are
//! honored at dispatch and between measurements. A **completion guard**
//! turns a panicking job into [`JobError::Panicked`] carrying the panic
//! message, so every completion path — success, typed error, even a
//! panic — releases the job's memory budget and wakes parked workers.
//!
//! # Example
//!
//! Two tenants submit the same ansatz family in opposite orders; results
//! depend on neither order nor worker count:
//!
//! ```
//! use qnoise::DeviceModel;
//! use qsim::Circuit;
//! use sched::{JobQueue, JobSpec, Measurement};
//!
//! let spec = |job_id: u64, tenant: u64, angle: f64| {
//!     let mut c = Circuit::new(2);
//!     c.ry(0, angle).cx(0, 1);
//!     JobSpec {
//!         job_id,
//!         tenant,
//!         circuit: c,
//!         measurements: vec![Measurement::subset("ZZ".parse().unwrap())],
//!     }
//! };
//!
//! let run = |order: &[(u64, u64, f64)], workers: usize| {
//!     let queue = JobQueue::new(DeviceModel::mumbai_like(), 128, 7).with_workers(workers);
//!     let handles: Vec<_> = order
//!         .iter()
//!         .map(|&(id, tenant, angle)| queue.submit(spec(id, tenant, angle)).unwrap())
//!         .collect();
//!     queue.drain();
//!     let mut outs: Vec<_> = handles.iter().map(|h| h.wait().unwrap()).collect();
//!     outs.sort_by_key(|o| o.job_id);
//!     outs
//! };
//!
//! let jobs = [(1, 0, 0.3), (2, 1, -1.1), (3, 0, 2.2)];
//! let reversed: Vec<_> = jobs.iter().rev().copied().collect();
//! assert_eq!(run(&jobs, 1), run(&reversed, 4)); // bit-identical
//! ```

mod config;
mod fair;
mod queue;

pub use config::{job_deadline_ms, JOB_DEADLINE_MS_ENV};
pub use queue::{
    job_seed, AdmitError, JobError, JobHandle, JobOutput, JobQueue, JobSpec, JobTiming,
    MeasureScope, Measurement,
};
