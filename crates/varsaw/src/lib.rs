//! # VarSaw — application-tailored measurement error mitigation for VQAs
//!
//! A from-scratch Rust implementation of *VarSaw* (Dangwal et al.,
//! ASPLOS 2023): JigSaw-style measurement error mitigation restructured for
//! variational quantum algorithms by removing two forms of redundancy:
//!
//! - **Spatial** ([`SpatialPlan`]): measurement subsets are generated for
//!   every Hamiltonian Pauli string *before* commutativity reduction, so
//!   repeated and covered subsets collapse into a near-constant set of
//!   small circuits (Fig.6: 21 JigSaw subsets → 9; 25× fewer on average,
//!   up to >1000× at scale).
//! - **Temporal** ([`GlobalScheduler`], [`TemporalPolicy`]): the expensive
//!   Global executions run only on a sparse, feedback-tuned schedule; in
//!   between, the previous iteration's mitigated Output-PMFs serve as the
//!   reconstruction priors (Fig.11).
//!
//! [`VarSawEvaluator`] combines both on top of the `vqe` substrate;
//! [`JigsawEvaluator`] provides the application-agnostic prior work for
//! comparison; [`run_method`] runs any of the paper's comparison methods
//! end to end; [`cost`] holds the Fig.8 scaling model.
//!
//! # Quickstart
//!
//! ```
//! use pauli::Hamiltonian;
//! use qnoise::DeviceModel;
//! use varsaw::{run_method, Method, RunSetup, TemporalPolicy};
//! use vqe::{EfficientSu2, Entanglement, VqeConfig};
//!
//! // A small Ising Hamiltonian on a noisy simulated device.
//! let h = Hamiltonian::from_pairs(2, &[(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")]);
//! let setup = RunSetup::new(h, EfficientSu2::new(2, 1, Entanglement::Full),
//!                           DeviceModel::mumbai_like(), 42);
//! let config = VqeConfig { max_iterations: 30, max_circuits: None };
//! let outcome = run_method(&setup, Method::VarSaw(TemporalPolicy::default()), &config);
//! println!("energy: {:.4}", outcome.trace.converged_energy(0.2));
//! ```

pub mod cost;
mod engine;
mod run;
mod spatial;
mod temporal;

pub use engine::{JigsawEvaluator, VarSawEvaluator};
pub use run::{percent_gap_recovered, run_method, Method, MethodOutcome, RunSetup};
pub use spatial::{SpatialPlan, SpatialStats, WindowCoverage};
pub use temporal::{GlobalScheduler, TemporalPolicy};
