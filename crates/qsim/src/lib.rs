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
//!   marginals — the crate's one execution engine, serial on the calling
//!   thread (the paper's circuits have at most 10 qubits; threads pay off
//!   in the trial fan-out above this crate, not inside one state),
//! - [`CircuitPlan`]: the circuit compiler — one scan in which adjacent
//!   single-qubit gates fuse into one matrix sweep and diagonal runs fold
//!   through entanglers; every circuit is compiled where it is run (see
//!   [`plan`]),
//! - [`sample_counts`]: seeded shot sampling, as conditional binomials up
//!   to 32 outcomes and one uniform per shot above,
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
mod sampler;
mod state;

pub use circuit::Circuit;
pub use complex::C64;
pub use gate::Gate;
pub use linalg::{lowest_eigenvalue, smallest_tridiagonal_eigenvalue, HermitianOp, LanczosResult};
pub use plan::CircuitPlan;
pub use sampler::sample_counts;
pub use state::{CapacityError, Statevector, MAX_REDUCED_QUBITS};
