//! JigSaw's Bayesian reconstruction.
//!
//! The third step of JigSaw (Fig.3): the low-fidelity, high-correlation
//! Global-PMF is reweighted by each high-fidelity Local-PMF. For a window
//! `w` the update is
//!
//! `P'(x) ∝ P(x) · L(x|w) / margw(P)(x|w)`
//!
//! — the probability of every full outcome `x` is rescaled so that the
//! marginal over `w` matches the local observation while the conditional
//! structure of the prior (the qubit-qubit correlations captured by the
//! global run) is preserved. This is Bayesian updating with the local
//! distributions as evidence.
//!
//! Where the prior runs out of support, the update is Bayes *conditioned
//! on the support*: window outcomes whose prior marginal mass is at or
//! below [`ReconstructionConfig::epsilon`] keep their mass exactly, and
//! the local evidence is renormalized over the supported outcomes. A
//! naive `local/(marginal+ε)` ratio would amplify near-zero prior mass by
//! up to `local/ε` and fully resurrect it within a round or two; freezing
//! the unsupported mass keeps it invariant across arbitrarily many
//! rounds. An update whose evidence lands *entirely* on unsupported
//! window outcomes is skipped as a whole (reweighting would annihilate
//! all mass).
//!
//! [`reconstruct`] is a one-shot convenience; the engine underneath, with
//! its cached projection-key tables and preallocated scratch, is
//! [`Reconstructor`].

use crate::pmf::Pmf;
use crate::recon::Reconstructor;

/// Configuration for [`reconstruct`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReconstructionConfig {
    /// Support threshold guarding the local/marginal ratio. Window
    /// outcomes whose prior marginal mass is at or below `epsilon` keep
    /// their mass exactly — the local evidence is renormalized over the
    /// supported outcomes instead of dividing by a vanishing marginal,
    /// which would amplify near-zero prior mass by up to `local/epsilon`
    /// per round and resurrect it within a few sweeps. JigSaw's
    /// reconstruction is statistical and tolerant of a small threshold;
    /// `1e-9` is a good default.
    pub epsilon: f64,
    /// Number of sweeps over the local PMFs. JigSaw performs one; extra
    /// rounds tighten the fixpoint at extra (classical) cost, and
    /// `rounds: 0` performs no update at all — [`reconstruct`] returns
    /// the prior unchanged.
    pub rounds: usize,
}

impl Default for ReconstructionConfig {
    fn default() -> Self {
        ReconstructionConfig {
            epsilon: 1e-9,
            rounds: 1,
        }
    }
}

/// JigSaw's full reconstruction: starts from the Global-PMF and applies the
/// Bayesian update for every Local-PMF, returning the Output-PMF.
///
/// One-shot wrapper over [`Reconstructor::reconstruct`]; callers
/// reconstructing repeatedly with the same window geometry (every VQE
/// evaluator) should hold a [`Reconstructor`] instead to reuse its cached
/// projection-key tables and scratch.
///
/// # Panics
///
/// Panics if a local PMF measures a qubit the global does not.
///
/// # Examples
///
/// When the locals agree with the global's own marginals, the
/// reconstruction is a no-op:
///
/// ```
/// use mitigation::{reconstruct, Pmf, ReconstructionConfig};
///
/// let global = Pmf::new(vec![0, 1, 2], vec![0.4, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05, 0.2]);
/// let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
/// let out = reconstruct(&global, &locals, ReconstructionConfig::default());
/// assert!(out.tvd(&global) < 1e-6);
/// ```
pub fn reconstruct(global: &Pmf, locals: &[Pmf], config: ReconstructionConfig) -> Pmf {
    Reconstructor::new().reconstruct(global, locals, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single Bayesian update with support threshold `epsilon`.
    fn one_update(epsilon: f64) -> ReconstructionConfig {
        ReconstructionConfig { epsilon, rounds: 1 }
    }

    /// A noisy 2-qubit Bell distribution and a clean local on qubit 0.
    #[test]
    fn update_pulls_marginal_toward_local() {
        // Global says q0 is 0 with prob 0.6; local evidence says 0.9.
        let global = Pmf::new(vec![0, 1], vec![0.3, 0.2, 0.3, 0.2]);
        let local = Pmf::new(vec![0], vec![0.9, 0.1]);
        let global = reconstruct(&global, &[local], one_update(1e-12));
        let m = global.marginal(&[0]);
        assert!((m.prob(0) - 0.9).abs() < 1e-6, "{}", m.prob(0));
        // Conditional structure preserved: P(q1 | q0=0) unchanged (was 0.5/0.5).
        assert!((global.prob(0b00) - 0.45).abs() < 1e-6);
        assert!((global.prob(0b10) - 0.45).abs() < 1e-6);
    }

    #[test]
    fn fixpoint_when_local_matches_marginal() {
        let global = Pmf::new(
            vec![0, 1, 2],
            vec![0.2, 0.05, 0.1, 0.15, 0.05, 0.1, 0.15, 0.2],
        );
        let local = global.marginal(&[1, 2]);
        let out = reconstruct(&global, &[local], ReconstructionConfig::default());
        assert!(out.tvd(&global) < 1e-7);
    }

    #[test]
    fn reconstruction_recovers_readout_corrupted_ghz() {
        // Ideal GHZ over 3 qubits; global corrupted by heavy symmetric
        // readout noise; locals are clean pairwise marginals. The output
        // should be much closer to the ideal than the global was.
        let ideal = Pmf::new(vec![0, 1, 2], {
            let mut v = vec![0.0; 8];
            v[0] = 0.5;
            v[7] = 0.5;
            v
        });
        let mut noisy_probs: Vec<f64> = ideal.probs().to_vec();
        qnoise::apply_readout_errors(
            &mut noisy_probs,
            &[qnoise::ReadoutError::symmetric(0.15); 3],
        );
        let global = Pmf::new(vec![0, 1, 2], noisy_probs);
        let locals = vec![ideal.marginal(&[0, 1]), ideal.marginal(&[1, 2])];
        let out = reconstruct(&global, &locals, ReconstructionConfig::default());
        assert!(
            out.tvd(&ideal) < global.tvd(&ideal) * 0.5,
            "reconstruction tvd {} vs noisy {}",
            out.tvd(&ideal),
            global.tvd(&ideal)
        );
        assert!(out.fidelity(&ideal) > global.fidelity(&ideal));
    }

    #[test]
    fn zero_rounds_returns_prior_unchanged() {
        // Regression: `rounds: 0` used to be silently promoted to one
        // sweep. Zero rounds must perform zero updates.
        let global = Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.1, 0.4]);
        let locals = vec![Pmf::new(vec![0], vec![0.9, 0.1])];
        let out = reconstruct(
            &global,
            &locals,
            ReconstructionConfig {
                epsilon: 1e-9,
                rounds: 0,
            },
        );
        assert_eq!(out.probs(), global.probs());
        assert_eq!(out.qubits(), global.qubits());
    }

    #[test]
    fn zero_prior_mass_is_not_resurrected() {
        // The global assigns zero to outcome 0b11 region; a local insisting
        // on q0=1 cannot move mass there beyond epsilon effects.
        let global = Pmf::new(vec![0, 1], vec![0.5, 0.0, 0.5, 0.0]);
        let local = Pmf::new(vec![0], vec![0.2, 0.8]);
        let global = reconstruct(&global, &[local], one_update(1e-9));
        assert!(global.prob(0b01) < 1e-6);
        assert!(global.prob(0b11) < 1e-6);
    }

    #[test]
    fn near_zero_prior_mass_is_not_resurrected_across_rounds() {
        // Regression for the epsilon-ratio blowup: with the old
        // `(local+ε)/(marg+ε)` update, a prior marginal of ~2e-12 was
        // amplified by ~local/ε ≈ 8e8 in round one and fully resurrected
        // to the local's 0.8 by round two. The support guard keeps it
        // within normalization drift of zero across many rounds.
        let global = Pmf::new(vec![0, 1], vec![0.5, 1e-12, 0.5, 1e-12]);
        let local = Pmf::new(vec![0], vec![0.2, 0.8]);
        let out = reconstruct(
            &global,
            &[local],
            ReconstructionConfig {
                epsilon: 1e-9,
                rounds: 8,
            },
        );
        let resurrected = out.marginal(&[0]).prob(1);
        assert!(resurrected < 1e-6, "resurrected mass {resurrected}");
    }

    #[test]
    fn multiple_rounds_tighten_consistency() {
        let global = Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.1, 0.4]);
        let locals = vec![
            Pmf::new(vec![0], vec![0.8, 0.2]),
            Pmf::new(vec![1], vec![0.3, 0.7]),
        ];
        let once = reconstruct(
            &global,
            &locals,
            ReconstructionConfig {
                epsilon: 1e-9,
                rounds: 1,
            },
        );
        let many = reconstruct(
            &global,
            &locals,
            ReconstructionConfig {
                epsilon: 1e-9,
                rounds: 8,
            },
        );
        // After many rounds both marginals should be (nearly) satisfied.
        let m0 = many.marginal(&[0]);
        let m1 = many.marginal(&[1]);
        assert!((m0.prob(0) - 0.8).abs() < 0.02);
        assert!((m1.prob(1) - 0.7).abs() < 0.02);
        // One round gets the *last applied* marginal right.
        let m1_once = once.marginal(&[1]);
        assert!((m1_once.prob(1) - 0.7).abs() < 1e-6);
    }
}
