//! Pauli expectation values from measured outcome distributions.

use crate::string::PauliString;

/// Computes the expectation value of a Pauli string from an outcome
/// distribution over a measured-qubit subset.
///
/// `probs` is a distribution over `2^measured.len()` outcomes where bit `j`
/// of the index is the outcome of qubit `measured[j]` (the compact layout
/// produced by [`qsim::Statevector::marginal_probabilities`] and by the
/// mitigation PMF types). The string must be *covered* by the measurement:
/// every qubit in its support must appear in `measured`. Identity positions
/// contribute nothing; the value is
/// `Σ_x p(x) · (-1)^(parity of x over the support)`.
///
/// # Panics
///
/// Panics if `probs.len() != 2^measured.len()` or if some support qubit of
/// `string` was not measured.
///
/// # Examples
///
/// ```
/// use pauli::{expectation_from_probs, PauliString};
///
/// // Distribution over qubits [0, 2]: outcome 0b01 (qubit0=1, qubit2=0)
/// // with probability 1.
/// let probs = [0.0, 1.0, 0.0, 0.0];
/// let z0: PauliString = "ZII".parse().unwrap();
/// let z2: PauliString = "IIZ".parse().unwrap();
/// assert_eq!(expectation_from_probs(&z0, &probs, &[0, 2]), -1.0);
/// assert_eq!(expectation_from_probs(&z2, &probs, &[0, 2]), 1.0);
/// ```
pub fn expectation_from_probs(string: &PauliString, probs: &[f64], measured: &[usize]) -> f64 {
    let mut value = 0.0;
    expectations_from_probs([string], probs, measured, |_, e| value = e);
    value
}

/// Computes the expectation value of every string in `strings` from one
/// outcome distribution, calling `emit(i, ⟨Pᵢ⟩)` in string order.
///
/// Each value is bit-identical to [`expectation_from_probs`] on the same
/// string: the sum `Σ_x ±p(x)` runs in outcome order from `0.0`. The
/// strings are evaluated together in register blocks of 4, 2 and 1, so
/// one pass over `probs` serves up to four of them, and each sign comes
/// from a 64-bit parity word per 64-outcome block instead of a
/// per-outcome popcount and branch. Flipping the sign bit of `p` and
/// adding is the same IEEE operation as subtracting `p`.
///
/// # Panics
///
/// Same conditions as [`expectation_from_probs`], for any string.
///
/// # Examples
///
/// ```
/// use pauli::{expectation_from_probs, expectations_from_probs, PauliString};
///
/// let probs = [0.1, 0.2, 0.3, 0.4];
/// let strings: Vec<PauliString> = ["ZI", "IZ", "ZZ"].iter().map(|s| s.parse().unwrap()).collect();
/// let mut values = Vec::new();
/// expectations_from_probs(&strings, &probs, &[0, 1], |_, e| values.push(e));
/// for (s, &e) in strings.iter().zip(&values) {
///     assert_eq!(e, expectation_from_probs(s, &probs, &[0, 1]));
/// }
/// ```
pub fn expectations_from_probs<'a>(
    strings: impl IntoIterator<Item = &'a PauliString>,
    probs: &[f64],
    measured: &[usize],
    mut emit: impl FnMut(usize, f64),
) {
    assert_eq!(
        probs.len(),
        1usize << measured.len(),
        "distribution size {} does not match {} measured qubits",
        probs.len(),
        measured.len()
    );
    let mut base = 0;
    let mut emit_block = |values: &[f64]| {
        for &e in values {
            emit(base, e);
            base += 1;
        }
    };
    let mut masks = [0usize; 4];
    let mut filled = 0;
    for string in strings {
        masks[filled] = parity_mask(string, measured);
        filled += 1;
        if filled == 4 {
            emit_block(&signed_sums(probs, masks));
            filled = 0;
        }
    }
    let mut rest = &masks[..filled];
    if rest.len() >= 2 {
        emit_block(&signed_sums(probs, [rest[0], rest[1]]));
        rest = &rest[2..];
    }
    if let [mask] = rest {
        emit_block(&signed_sums(probs, [*mask]));
    }
}

/// The bits of the measured layout `measured` that `string`'s support
/// occupies: outcome `x` counts with sign `(-1)^popcount(x & mask)`.
fn parity_mask(string: &PauliString, measured: &[usize]) -> usize {
    let mut mask = 0;
    for (q, p) in string.paulis().iter().enumerate() {
        if p.is_identity() {
            continue;
        }
        let j = measured
            .iter()
            .position(|&m| m == q)
            .unwrap_or_else(|| panic!("support qubit {q} of {string} was not measured"));
        mask |= 1 << j;
    }
    mask
}

/// Bit `l` of `LOW_PARITY[m]` is the parity of `l & m`: the sign bits of
/// a 64-outcome block under the low six bits `m` of a parity mask.
const LOW_PARITY: [u64; 64] = {
    let mut table = [0u64; 64];
    let mut m = 0;
    while m < 64 {
        let mut l = 0;
        while l < 64 {
            table[m] |= (((l & m) as u64).count_ones() as u64 & 1) << l;
            l += 1;
        }
        m += 1;
    }
    table
};

/// `Σ_x (-1)^popcount(x & masks[i]) · probs[x]` for each of the `M`
/// masks, each summed sequentially in `x` order from `0.0`.
fn signed_sums<const M: usize>(probs: &[f64], masks: [usize; M]) -> [f64; M] {
    let mut acc = [0.0; M];
    for (block, chunk) in probs.chunks(64).enumerate() {
        // Outcome `64·block + l` has parity `parity(l & mask) ^
        // parity(block & (mask >> 6))`: the table word, inverted when the
        // block's high bits are odd.
        let words = masks.map(|mask| {
            let high = u64::from((block & (mask >> 6)).count_ones() & 1);
            LOW_PARITY[mask & 63] ^ high.wrapping_neg()
        });
        for (l, &p) in chunk.iter().enumerate() {
            let bits = p.to_bits();
            for (a, w) in acc.iter_mut().zip(words) {
                *a += f64::from_bits(bits ^ ((w >> l) << 63));
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn deterministic_outcomes() {
        // qubits [1, 3] measured; outcome (q1=1, q3=1) certain.
        let probs = [0.0, 0.0, 0.0, 1.0];
        assert_eq!(expectation_from_probs(&ps("IZII"), &probs, &[1, 3]), -1.0);
        assert_eq!(expectation_from_probs(&ps("IZIZ"), &probs, &[1, 3]), 1.0);
    }

    #[test]
    fn uniform_distribution_gives_zero() {
        let probs = [0.25; 4];
        assert_eq!(expectation_from_probs(&ps("ZI"), &probs, &[0, 1]), 0.0);
        assert_eq!(expectation_from_probs(&ps("ZZ"), &probs, &[0, 1]), 0.0);
    }

    #[test]
    fn identity_string_has_expectation_one() {
        let probs = [0.3, 0.7];
        assert_eq!(expectation_from_probs(&ps("II"), &probs, &[1]), 1.0);
    }

    #[test]
    fn basis_positions_are_ignored_beyond_support() {
        // The string's Paulis may be X or Y — only support parity matters,
        // because the measurement circuit already rotated those bases to Z.
        let probs = [0.0, 1.0];
        assert_eq!(expectation_from_probs(&ps("XI"), &probs, &[0]), -1.0);
        assert_eq!(expectation_from_probs(&ps("YI"), &probs, &[0]), -1.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_support_qubit_panics() {
        expectation_from_probs(&ps("ZZ"), &[1.0, 0.0], &[0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn size_mismatch_panics() {
        expectation_from_probs(&ps("ZI"), &[1.0, 0.0, 0.0], &[0]);
    }

    #[test]
    fn mixed_distribution() {
        // qubit 0 measured: p(0) = 0.8, p(1) = 0.2 → <Z> = 0.6.
        let probs = [0.8, 0.2];
        assert!((expectation_from_probs(&ps("Z"), &probs, &[0]) - 0.6).abs() < 1e-12);
    }
}
