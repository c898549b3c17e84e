//! Property-based tests for the mitigation substrate.

use mitigation::{mbm_correct, reconstruct, sliding_windows, Pmf};
use pauli::{Pauli, PauliString};
use proptest::prelude::*;
use qnoise::{apply_readout_errors, ReadoutError};

fn arb_pmf(qubits: Vec<usize>) -> impl Strategy<Value = Pmf> {
    let n = 1usize << qubits.len();
    prop::collection::vec(0.01..1.0f64, n).prop_map(move |w| Pmf::new(qubits.clone(), w))
}

fn arb_string(n: usize) -> impl Strategy<Value = PauliString> {
    prop::collection::vec(
        prop::sample::select(vec![Pauli::I, Pauli::X, Pauli::Y, Pauli::Z]),
        n,
    )
    .prop_map(PauliString::new)
}

proptest! {
    /// A PMF built from sampled counts has exactly the bits of one built
    /// by `Pmf::new` from the same counts as `f64`, one shot included.
    #[test]
    fn pmf_from_counts_matches_new_bit_for_bit(
        qubits in 0usize..=10,
        shots in prop::sample::select(vec![1u64, 2, 7, 1024, 8192, 1 << 40]),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 1usize << qubits;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; n];
        let mut left = shots;
        while left > 0 {
            let take = rng.random_range(1..=left);
            counts[rng.random_range(0..n)] += take;
            left -= take;
        }
        let listed: Vec<usize> = (0..qubits).map(|j| 3 * j + 1).collect();
        let new = Pmf::new(listed.clone(), counts.iter().map(|&c| c as f64).collect());
        let from = Pmf::from_counts(listed, &counts, shots);
        let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&from), bits(&new));
        prop_assert_eq!(from.qubits(), new.qubits());
    }

    /// Bayesian updates keep PMFs valid and exactly impose the local
    /// marginal when the prior has full support.
    #[test]
    fn bayes_imposes_local_marginal(global in arb_pmf(vec![0, 1, 2]), local in arb_pmf(vec![1])) {
        let out = reconstruct(&global, std::slice::from_ref(&local));
        prop_assert!((out.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let m = out.marginal(&[1]);
        prop_assert!((m.prob(0) - local.prob(0)).abs() < 1e-6);
    }

    /// Reconstruction with locals equal to the global's own marginals is a
    /// fixpoint.
    #[test]
    fn reconstruction_fixpoint(global in arb_pmf(vec![0, 1, 2])) {
        let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
        let out = reconstruct(&global, &locals);
        prop_assert!(out.tvd(&global) < 1e-6);
    }

    /// Reconstruction output is always a valid PMF over the same qubits.
    #[test]
    fn reconstruction_output_is_valid(
        global in arb_pmf(vec![0, 1, 2]),
        l0 in arb_pmf(vec![0, 1]),
        l1 in arb_pmf(vec![1, 2]),
    ) {
        let out = reconstruct(&global, &[l0, l1]);
        prop_assert_eq!(out.qubits(), global.qubits());
        prop_assert!((out.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(out.probs().iter().all(|&p| p >= -1e-12));
    }

    /// MBM inverts the modelled channel exactly (up to numerical noise)
    /// when the distribution really went through it.
    #[test]
    fn mbm_inverts_modelled_channel(
        ideal in arb_pmf(vec![0, 1]),
        p10a in 0.0..0.3f64, p01a in 0.0..0.3f64,
        p10b in 0.0..0.3f64, p01b in 0.0..0.3f64,
    ) {
        let errors = [ReadoutError::new(p10a, p01a), ReadoutError::new(p10b, p01b)];
        let mut noisy = ideal.probs().to_vec();
        apply_readout_errors(&mut noisy, &errors);
        let corrected = mbm_correct(&Pmf::new(vec![0, 1], noisy), &errors);
        prop_assert!(corrected.tvd(&ideal) < 1e-7);
    }

    /// MBM output is always a valid PMF, even on inconsistent inputs.
    #[test]
    fn mbm_output_is_valid(pmf in arb_pmf(vec![0, 1]), p10 in 0.0..0.4f64, p01 in 0.0..0.4f64) {
        let out = mbm_correct(&pmf, &[ReadoutError::new(p10, p01), ReadoutError::new(p01, p10)]);
        prop_assert!((out.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(out.probs().iter().all(|&p| p >= 0.0));
    }

    /// Every sliding-window subset is covered by its basis, has support
    /// within one window, and the subset count is at most n − m + 1.
    #[test]
    fn windows_are_covered_restrictions(basis in arb_string(6), m in 1usize..5) {
        let subsets = sliding_windows(&basis, m);
        prop_assert!(subsets.len() <= 6 - m + 1);
        for s in &subsets {
            prop_assert!(basis.covers(s));
            prop_assert!(!s.is_identity());
            let sup = s.support();
            if let (Some(&lo), Some(&hi)) = (sup.first(), sup.last()) {
                prop_assert!(hi - lo < m);
            }
        }
    }

    /// Marginalization commutes with the readout channel when the channel
    /// acts independently per qubit (sanity link between qnoise and Pmf).
    #[test]
    fn marginal_commutes_with_channel(ideal in arb_pmf(vec![0, 1]), p in 0.0..0.3f64) {
        let e = ReadoutError::symmetric(p);
        // Channel then marginal.
        let mut noisy = ideal.probs().to_vec();
        apply_readout_errors(&mut noisy, &[e, e]);
        let m1 = Pmf::new(vec![0, 1], noisy).marginal(&[0]);
        // Marginal then channel.
        let marg = ideal.marginal(&[0]);
        let mut probs = marg.probs().to_vec();
        apply_readout_errors(&mut probs, &[e]);
        let m2 = Pmf::new(vec![0], probs);
        prop_assert!(m1.tvd(&m2) < 1e-9);
    }
}
