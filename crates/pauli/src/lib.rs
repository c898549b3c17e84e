//! Pauli algebra for the VarSaw reproduction.
//!
//! Stands in for Qiskit's `SparsePauliOp` and the commutation machinery of
//! OpenFermion/PyQuil that the paper relies on (Section 4.1). Provides:
//!
//! - [`Pauli`] / [`PauliString`] / [`PauliTerm`]: operators and terms,
//! - [`Hamiltonian`]: sparse Pauli sums with exact expectations, matrix-free
//!   [`qsim::HermitianOp`] application and Lanczos ground energies,
//! - [`group_by_cover`]: the paper's "trivial qubit commutation" reduction
//!   (Fig.6 Eq.1→Eq.2 and Eq.3→Eq.4),
//! - [`expectation_from_probs`]: Pauli expectations from measured outcome
//!   distributions.
//!
//! # Example
//!
//! ```
//! use pauli::{group_by_cover, Hamiltonian};
//!
//! let h = Hamiltonian::from_pairs(2, &[(0.5, "ZZ"), (0.25, "ZI"), (-1.0, "XI")]);
//! let strings: Vec<_> = h.iter().map(|t| t.string().clone()).collect();
//! let groups = group_by_cover(&strings);
//! assert_eq!(groups.len(), 2); // {ZZ, ZI} measured together, {XI} alone
//! ```

mod algebra;
mod expectation;
mod grouping;
mod hamiltonian;
mod pauli;
mod string;
mod term;

pub use algebra::{fully_commute, pauli_product, Phase};
pub use expectation::{expectation_from_probs, expectations_from_probs};
pub use grouping::{group_by_cover, group_by_union, MeasurementGroup};
pub use hamiltonian::Hamiltonian;
pub use pauli::Pauli;
pub use string::{ParsePauliStringError, PauliString};
pub use term::PauliTerm;
