//! Sliding-window measurement subsets (JigSaw's CPMs).

use pauli::PauliString;

/// Generates JigSaw's sliding-window measurement subsets for a measurement
/// basis: one subset per `window`-wide qubit window, each the restriction of
/// the basis to that window, with all-identity windows dropped (they would
/// measure nothing — the paper notes these "are already weeded out").
///
/// For an `n`-qubit basis and window size `m` this yields at most
/// `n − m + 1` subsets. If `window >= n` the single full-basis "subset" is
/// returned (if non-trivial).
///
/// # Panics
///
/// Panics if `window == 0`.
///
/// # Examples
///
/// Fig.6's first row: the subsets of `ZZIZ` at window 2 are
/// `ZZ--`, `-ZI-`, `--IZ`:
///
/// ```
/// use mitigation::sliding_windows;
/// use pauli::PauliString;
///
/// let basis: PauliString = "ZZIZ".parse().unwrap();
/// let subsets = sliding_windows(&basis, 2);
/// let as_text: Vec<String> = subsets.iter().map(|s| s.to_string()).collect();
/// assert_eq!(as_text, vec!["ZZII", "IZII", "IIIZ"]);
/// ```
pub fn sliding_windows(basis: &PauliString, window: usize) -> Vec<PauliString> {
    assert!(window > 0, "window size must be positive");
    let n = basis.num_qubits();
    if n == 0 {
        return Vec::new();
    }
    if window >= n {
        return if basis.is_identity() {
            Vec::new()
        } else {
            vec![basis.clone()]
        };
    }
    (0..=n - window)
        .map(|start| basis.window(start, window))
        .filter(|s| !s.is_identity())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn dense_basis_has_n_minus_1_windows() {
        assert_eq!(sliding_windows(&ps("ZZZZ"), 2).len(), 3);
        assert_eq!(sliding_windows(&ps("XYZXY"), 2).len(), 4);
    }

    #[test]
    fn all_identity_windows_are_dropped() {
        // ZIIZ at window 2: windows are ZI, II, IZ → the middle is dropped.
        let subsets = sliding_windows(&ps("ZIIZ"), 2);
        assert_eq!(subsets.len(), 2);
        assert_eq!(subsets[0], ps("ZIII"));
        assert_eq!(subsets[1], ps("IIIZ"));
    }

    #[test]
    fn identity_basis_has_no_windows() {
        assert!(sliding_windows(&ps("IIII"), 2).is_empty());
    }

    #[test]
    fn oversized_window_returns_whole_basis() {
        assert_eq!(sliding_windows(&ps("XZ"), 5), vec![ps("XZ")]);
        assert!(sliding_windows(&ps("II"), 5).is_empty());
    }

    #[test]
    fn window_size_three() {
        let subsets = sliding_windows(&ps("ZXIZY"), 3);
        assert_eq!(subsets.len(), 3);
        assert_eq!(subsets[0], ps("ZXIII"));
        assert_eq!(subsets[1], ps("IXIZI"));
        assert_eq!(subsets[2], ps("IIIZY"));
    }

    #[test]
    fn fig6_jigsaw_count_is_21() {
        // The seven post-commutation bases of Eq.2 produce 21 subsets at
        // window 2 (Eq.3).
        let count: usize = ["ZZIZ", "ZIZX", "ZXXZ", "XZIZ", "IXZZ", "XIZZ", "XXIX"]
            .iter()
            .map(|s| sliding_windows(&ps(s), 2).len())
            .sum();
        assert_eq!(count, 21);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_panics() {
        sliding_windows(&ps("ZZ"), 0);
    }
}
