//! The VQA substrate of the VarSaw reproduction.
//!
//! Stands in for the Qiskit VQE framework plus the SPSA tuner the paper
//! drives it with (Sections 2.4, 5.1–5.2). Provides:
//!
//! - [`EfficientSu2`] / [`Entanglement`]: the hardware-efficient ansatz
//!   (full/linear/circular/asymmetric entanglement, depth `p`),
//! - [`basis_rotation`]: measurement-basis changes (Fig.5),
//! - [`SimExecutor`]: noisy execution with best-qubit mapping, measurement
//!   crosstalk and circuit-cost metering; states are simulated serially
//!   on the dense plane, each circuit compiled where it runs, and
//!   Global circuits rotate the state and read it
//!   ([`SimExecutor::run_prepared_all`]), while subset circuits are read
//!   from the reduced density matrices of their supports
//!   ([`SubsetReads`], [`SimExecutor::run_subset`]),
//! - [`GroupedHamiltonian`]: the baseline's commutation-grouped
//!   measurement circuits and energy estimation,
//! - [`Spsa`]: the classical optimizer, behind the [`Optimizer`] trait,
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
pub use executor::{LoadedReads, SimExecutor, SubsetReads};
pub use optimizer::{BatchObjective, Optimizer, Spsa, StepResult};
pub use runner::{run_vqe, BaselineEvaluator, EnergyEvaluator, VqeConfig, VqeTrace};
