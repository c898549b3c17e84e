//! Measurement-error mitigation substrate for the VarSaw reproduction.
//!
//! Implements the prior work the paper builds on:
//!
//! - [`Pmf`]: outcome distributions over measured-qubit subsets (the
//!   Global-/Local-/Output-PMFs of Fig.3),
//! - [`sliding_windows`]: JigSaw's Circuits with Partial Measurement (Das
//!   et al., MICRO'21),
//! - [`reconstruct`]: JigSaw's Bayesian reconstruction, one update per
//!   Local-PMF, with [`Reconstructor::sweep`] as the reusable engine
//!   underneath (cached projection-key tables, allocation-free sweeps),
//! - [`mbm_correct`]: IBM-style matrix-based complete measurement
//!   mitigation (combined with VarSaw in the paper's Section 6.8).
//!
//! # Example
//!
//! ```
//! use mitigation::{reconstruct, Pmf};
//!
//! // A noisy global and one clean local over qubit 0.
//! let global = Pmf::new(vec![0, 1], vec![0.35, 0.15, 0.15, 0.35]);
//! let local = Pmf::new(vec![0], vec![0.95, 0.05]);
//! let output = reconstruct(&global, &[local]);
//! assert!(output.marginal(&[0]).prob(0) > 0.9);
//! ```

mod mbm;
mod pmf;
mod recon;
mod window;

pub use mbm::mbm_correct;
pub use pmf::Pmf;
pub use recon::{reconstruct, Reconstructor};
pub use window::sliding_windows;
