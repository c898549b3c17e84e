//! Applying noise channels to outcome distributions.
//!
//! The executor simulates noise *exactly* at the distribution level: the
//! ideal outcome distribution is pushed through the per-qubit readout
//! confusion matrices (a tensor-product stochastic map, applied axis by
//! axis in `O(k·2ᵏ)`, each axis one branch-free pass over paired block
//! halves) and an optional depolarizing mixture, and only then sampled.
//! This is statistically identical to flipping bits shot by shot but much
//! cheaper at VQE shot counts.

use crate::readout::ReadoutError;

/// Applies per-qubit readout confusion matrices to a distribution in place.
///
/// `probs` is a distribution over `2^errors.len()` outcomes; bit `j` of the
/// outcome index corresponds to `errors[j]`.
///
/// # Panics
///
/// Panics if `probs.len() != 2^errors.len()`.
///
/// # Examples
///
/// ```
/// use qnoise::{apply_readout_errors, ReadoutError};
///
/// // True outcome is always 0; a 10% 0→1 flip moves 10% of the mass.
/// let mut p = vec![1.0, 0.0];
/// apply_readout_errors(&mut p, &[ReadoutError::new(0.1, 0.0)]);
/// assert!((p[0] - 0.9).abs() < 1e-12 && (p[1] - 0.1).abs() < 1e-12);
/// ```
pub fn apply_readout_errors(probs: &mut [f64], errors: &[ReadoutError]) {
    assert_eq!(
        probs.len(),
        1usize << errors.len(),
        "distribution over {} outcomes does not match {} qubits",
        probs.len(),
        errors.len()
    );
    let _span = telemetry::span(telemetry::Stage::NoiseSampling);
    for (j, e) in errors.iter().enumerate() {
        if *e == ReadoutError::NONE {
            continue;
        }
        let m = e.confusion();
        // Outcomes pair up as x and x | 2^j: in each block of 2^(j+1)
        // they are the low and high halves, element by element.
        let half = 1usize << j;
        for block in probs.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (p0, p1) in lo.iter_mut().zip(hi) {
                let (a, b) = (*p0, *p1);
                *p0 = m[0][0] * a + m[0][1] * b;
                *p1 = m[1][0] * a + m[1][1] * b;
            }
        }
    }
}

/// Mixes a distribution with the uniform distribution in place:
/// `p ← (1−λ)·p + λ/N`.
///
/// This is the aggregate stand-in for gate/decoherence noise: a circuit-level
/// depolarizing channel commutes with measurement and leaves the relative
/// structure of the distribution intact, which is all the VarSaw pipeline is
/// sensitive to.
///
/// # Panics
///
/// Panics if `lambda` is outside `[0, 1]` or `probs` is empty.
pub fn apply_depolarizing(probs: &mut [f64], lambda: f64) {
    assert!(
        (0.0..=1.0).contains(&lambda),
        "depolarizing rate must lie in [0, 1]"
    );
    assert!(!probs.is_empty(), "empty distribution");
    if lambda == 0.0 {
        return;
    }
    let _span = telemetry::span(telemetry::Stage::NoiseSampling);
    let uniform = lambda / probs.len() as f64;
    for p in probs.iter_mut() {
        *p = (1.0 - lambda) * *p + uniform;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readout_preserves_total_mass() {
        let mut p = vec![0.4, 0.1, 0.3, 0.2];
        apply_readout_errors(
            &mut p,
            &[ReadoutError::new(0.05, 0.1), ReadoutError::new(0.02, 0.04)],
        );
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn noiseless_errors_are_identity() {
        let mut p = vec![0.25, 0.75];
        let orig = p.clone();
        apply_readout_errors(&mut p, &[ReadoutError::NONE]);
        assert_eq!(p, orig);
    }

    #[test]
    fn symmetric_half_noise_erases_information() {
        let mut p = vec![1.0, 0.0];
        apply_readout_errors(&mut p, &[ReadoutError::symmetric(0.5)]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_confusion_factorizes() {
        // Independent errors on two qubits: P(read 11 | true 00) = p10_a · p10_b.
        let mut p = vec![1.0, 0.0, 0.0, 0.0];
        apply_readout_errors(
            &mut p,
            &[ReadoutError::new(0.1, 0.0), ReadoutError::new(0.2, 0.0)],
        );
        assert!((p[0b00] - 0.9 * 0.8).abs() < 1e-12);
        assert!((p[0b01] - 0.1 * 0.8).abs() < 1e-12);
        assert!((p[0b10] - 0.9 * 0.2).abs() < 1e-12);
        assert!((p[0b11] - 0.1 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_mixes_toward_uniform() {
        let mut p = vec![1.0, 0.0, 0.0, 0.0];
        apply_depolarizing(&mut p, 0.4);
        assert!((p[0] - 0.7).abs() < 1e-12);
        assert!((p[1] - 0.1).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_depolarizing_is_uniform() {
        let mut p = vec![0.9, 0.1, 0.0, 0.0];
        apply_depolarizing(&mut p, 1.0);
        assert!(p.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn size_mismatch_panics() {
        apply_readout_errors(&mut [0.5, 0.5], &[ReadoutError::NONE, ReadoutError::NONE]);
    }
}
