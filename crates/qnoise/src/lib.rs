//! Measurement-noise substrate for the VarSaw reproduction.
//!
//! Stands in for the IBM device noise models (IBMQ Mumbai, Lagos, Jakarta)
//! the paper evaluates on. The focus is measurement error — the error class
//! VarSaw targets — modelled as per-qubit asymmetric readout bit flips
//! ([`ReadoutError`]) amplified by measurement crosstalk
//! ([`CrosstalkModel`]), with an optional circuit-level depolarizing channel
//! standing in for the remaining noise. [`DeviceModel`] bundles these with
//! best-qubit selection (subset circuits map onto the best-readout qubits,
//! as in JigSaw), and [`apply_readout_errors`] pushes distributions through
//! the exact confusion channel.
//!
//! # Example
//!
//! ```
//! use qnoise::{apply_readout_errors, DeviceModel};
//!
//! let dev = DeviceModel::mumbai_like();
//! // Measure 2 qubits on the best hardware sites, crosstalk included.
//! let phys = dev.best_qubits(2);
//! let errs: Vec<_> = phys.iter().map(|&q| dev.effective_readout(q, 2)).collect();
//! let mut probs = vec![1.0, 0.0, 0.0, 0.0];
//! apply_readout_errors(&mut probs, &errs);
//! assert!(probs[0] > 0.9); // small error on the best qubits
//! ```

mod channel;
mod crosstalk;
mod device;
mod readout;

pub use channel::{apply_depolarizing, apply_readout_errors};
pub use crosstalk::CrosstalkModel;
pub use device::DeviceModel;
pub use readout::ReadoutError;
