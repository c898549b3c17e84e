//! Molecular workloads for the VarSaw reproduction.
//!
//! Stands in for the PySCF + Qiskit Nature pipeline the paper uses to build
//! its VQE Hamiltonians (Section 5.2). Provides:
//!
//! - [`MoleculeSpec`] / [`table2`] / [`temporal_workloads`]: the paper's
//!   Table 2 workload inventory, with exact qubit and Pauli-term counts,
//! - [`molecular_hamiltonian`]: a deterministic synthetic
//!   electronic-structure-like Hamiltonian generator (see ARCHITECTURE.md for the
//!   substitution rationale),
//! - [`tfim_chain`] / [`tfim_paper`]: transverse-field Ising Hamiltonians
//!   for the real-device experiment (Fig.16),
//! - [`heisenberg_chain`] / [`xy_chain`]: the spin-chain workloads the
//!   paper proposes as VarSaw extensions (Section 7.3).
//!
//! Reference energies ("Ref. Energy" in Table 1) are exact lowest
//! eigenvalues of these Hamiltonians, via
//! [`pauli::Hamiltonian::ground_energy`].
//!
//! # Example
//!
//! ```
//! use chem::{molecular_hamiltonian, MoleculeSpec};
//!
//! let spec = MoleculeSpec::find("H2", 4).unwrap();
//! let h = molecular_hamiltonian(&spec);
//! let reference = h.ground_energy(7);
//! assert!(reference < h.identity_offset());
//! ```

mod generator;
mod molecule;
mod spin;
mod tfim;

pub use generator::molecular_hamiltonian;
pub use molecule::{table2, temporal_workloads, MoleculeSpec};
pub use spin::{heisenberg_chain, xy_chain};
pub use tfim::{tfim_chain, tfim_paper};
