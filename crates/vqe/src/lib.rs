//! The VQA substrate of the VarSaw reproduction.
//!
//! Stands in for the Qiskit VQE framework plus the SPSA/ImFil tuners the
//! paper drives it with (Sections 2.4, 5.1–5.2). Provides:
//!
//! - [`EfficientSu2`] / [`Entanglement`]: the hardware-efficient ansatz
//!   (full/linear/circular/asymmetric entanglement, depth `p`),
//! - [`basis_rotation`]: measurement-basis changes (Fig.5),
//! - [`SimExecutor`]: noisy execution with best-qubit mapping, measurement
//!   crosstalk, circuit-cost metering, the statevector [`Parallelism`]
//!   knob (threads prepare states on amplitude shards), and batched
//!   dispatch
//!   ([`SimExecutor::prepare_batch`] / [`SimExecutor::run_batch`]) that
//!   evaluates whole parameter-set and measurement families against one
//!   cached circuit plan,
//! - [`GroupedHamiltonian`]: the baseline's commutation-grouped
//!   measurement circuits and energy estimation,
//! - [`Spsa`] / [`ImFil`]: the classical optimizers,
//! - [`run_vqe`] / [`BaselineEvaluator`]: the tuning loop and the
//!   unmitigated baseline of the paper's comparisons.
//!
//! # Example
//!
//! A noiseless 2-qubit VQE run:
//!
//! ```
//! use pauli::Hamiltonian;
//! use qnoise::DeviceModel;
//! use vqe::*;
//!
//! let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")]);
//! let ansatz = EfficientSu2::new(2, 2, Entanglement::Full);
//! let exec = SimExecutor::new(DeviceModel::noiseless(2), 1024, 7);
//! let init = ansatz.initial_parameters(1);
//! let mut eval = BaselineEvaluator::new(&h, ansatz, exec);
//! let mut tuner = Spsa::new(3);
//! let trace = run_vqe(&mut eval, &mut tuner, init, &VqeConfig::default());
//! assert!(trace.best_energy() < -1.0);
//! ```

mod ansatz;
mod basis;
mod energy;
mod executor;
mod optimizer;
mod runner;

pub use ansatz::{EfficientSu2, Entanglement};
pub use basis::basis_rotation;
pub use energy::GroupedHamiltonian;
pub use executor::{BatchJob, SimExecutor};
pub use optimizer::{BatchObjective, ImFil, NelderMead, Optimizer, Spsa, StepResult};
pub use qsim::Parallelism;
pub use runner::{run_vqe, BaselineEvaluator, EnergyEvaluator, VqeConfig, VqeTrace};
