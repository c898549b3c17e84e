//! Workspace umbrella crate for the VarSaw reproduction.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See the individual crates for the real APIs:
//! [`qsim`], [`pauli`], [`qnoise`], [`chem`], [`mitigation`], [`vqe`],
//! [`varsaw`].
pub use chem;
pub use mitigation;
pub use pauli;
pub use qnoise;
pub use qsim;
pub use varsaw;
pub use vqe;
