//! Dense state-vector quantum circuit simulator.
//!
//! This crate is the execution substrate of the VarSaw reproduction: it
//! stands in for the Qiskit Aer simulator the paper runs its noisy VQE
//! experiments on. It provides:
//!
//! - [`C64`]: minimal complex arithmetic,
//! - [`Gate`] / [`Circuit`]: the gate set and circuit IR used by the
//!   hardware-efficient ansatz and measurement-basis changes,
//! - [`Statevector`]: dense simulation with exact outcome probabilities and
//!   marginals,
//! - [`CircuitPlan`] / [`PlanCache`]: the circuit compiler — adjacent
//!   single-qubit gates fuse into one matrix sweep (diagonal runs fold
//!   through entanglers), same-pair entangler groups and their rotation
//!   sandwiches collapse into single 4×4 block sweeps, and the
//!   parameter-free analysis is cached by circuit structure so repeated
//!   ansatz executions only rebind angles (see [`plan`]),
//! - [`ShardedState`]: sharded amplitude-plane execution, and the only
//!   threaded one — the plane splits into contiguous shards keyed by the
//!   top qubit bits,
//!   local ops run shard-parallel with no communication, global-qubit ops
//!   go through explicit pairwise shard exchanges or O(1) plane swaps,
//!   and a plan-analysis pass ([`plan::ShardPlan`]) remaps hot qubits
//!   local first (bit-identical to the dense plane; see [`shard`]);
//!   movement tallies accumulate in [`ShardCounters`],
//! - [`Parallelism`]: serial vs threaded execution —
//!   [`shard::shards_and_workers`] turns `Threads(w)` into `2^⌊log₂ w⌋`
//!   shards × `w` workers (worker count for `Auto` from the
//!   `VARSAW_NUM_THREADS` environment variable via
//!   [`parallel::num_threads`]),
//! - [`sample_counts`]: seeded shot sampling, one uniform per shot,
//! - [`lowest_eigenvalue`]: matrix-free Lanczos for exact reference
//!   energies.
//!
//! # Example
//!
//! Simulate a Bell pair and sample measurement shots:
//!
//! ```
//! use qsim::{Circuit, Statevector};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let mut psi = Statevector::zero(2);
//! psi.apply_circuit(&c);
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let counts = qsim::sample_counts(&psi.probabilities(), 1000, &mut rng);
//! assert_eq!(counts[0b01] + counts[0b10], 0); // only 00 and 11 occur
//! ```

mod circuit;
mod complex;
mod exec;
mod gate;
mod linalg;
pub mod plan;
mod qasm;
mod sampler;
pub mod shard;
mod state;

pub use circuit::{Circuit, CircuitStats};
pub use complex::C64;
pub use exec::Parallelism;
pub use gate::Gate;
pub use linalg::{lowest_eigenvalue, smallest_tridiagonal_eigenvalue, HermitianOp, LanczosResult};
pub use plan::{CircuitPlan, PlanCache, ShardPlan};
pub use qasm::to_qasm;
pub use sampler::sample_counts;
pub use shard::{ShardCounters, ShardedState};
pub use state::{CapacityError, Statevector};
