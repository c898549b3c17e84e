//! Measurement-error mitigation substrate for the VarSaw reproduction.
//!
//! Implements the prior work the paper builds on:
//!
//! - [`Pmf`] / [`Counts`]: outcome distributions and shot counts over
//!   measured-qubit subsets (the Global-/Local-/Output-PMFs of Fig.3),
//! - [`sliding_windows`] / [`JigsawPlan`]: JigSaw's Circuits with Partial
//!   Measurement (Das et al., MICRO'21),
//! - [`reconstruct`] / [`bayesian_update`]: JigSaw's Bayesian
//!   reconstruction, with [`Reconstructor`] as the reusable engine
//!   underneath (cached projection-key tables, allocation-free fused
//!   sweeps),
//! - [`mbm_correct`]: IBM-style matrix-based complete measurement
//!   mitigation (combined with VarSaw in the paper's Section 6.8).
//!
//! # Example
//!
//! ```
//! use mitigation::{Pmf, reconstruct, ReconstructionConfig};
//!
//! // A noisy global and one clean local over qubit 0.
//! let global = Pmf::new(vec![0, 1], vec![0.35, 0.15, 0.15, 0.35]);
//! let local = Pmf::new(vec![0], vec![0.95, 0.05]);
//! let output = reconstruct(&global, &[local], ReconstructionConfig::default());
//! assert!(output.marginal(&[0]).prob(0) > 0.9);
//! ```

mod bayes;
mod counts;
mod jigsaw;
mod mbm;
mod pmf;
mod recon;
mod window;

pub use bayes::{bayesian_update, reconstruct, ReconstructionConfig};
pub use counts::Counts;
pub use jigsaw::JigsawPlan;
pub use mbm::mbm_correct;
pub use pmf::Pmf;
pub use recon::Reconstructor;
pub use window::{jigsaw_subset_count, sliding_windows};
