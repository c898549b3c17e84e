//! Per-qubit readout (measurement) errors.

use std::fmt;

/// An asymmetric classical bit-flip channel modelling one qubit's readout.
///
/// Measurement errors manifest as bit flips (Section 2.2 of the paper):
/// `p10` is the probability of reading 1 when the true outcome is 0, and
/// `p01` of reading 0 when the true outcome is 1. On superconducting
/// hardware `p01 > p10` is typical (relaxation during the long readout
/// pulse).
///
/// # Examples
///
/// ```
/// use qnoise::ReadoutError;
///
/// let e = ReadoutError::new(0.02, 0.05);
/// assert_eq!(e.average(), 0.035);
/// let worse = e.scaled(2.0);
/// assert_eq!(worse.p10(), 0.04);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReadoutError {
    p10: f64,
    p01: f64,
}

impl ReadoutError {
    /// A perfect readout (no error).
    pub const NONE: ReadoutError = ReadoutError { p10: 0.0, p01: 0.0 };

    /// Creates a readout error from its two flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 0.5]` — beyond 0.5 the
    /// "error" would carry more information than the signal.
    pub fn new(p10: f64, p01: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&p10) && (0.0..=0.5).contains(&p01),
            "flip probabilities must lie in [0, 0.5], got p10={p10}, p01={p01}"
        );
        ReadoutError { p10, p01 }
    }

    /// A symmetric readout error with both flips equal to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 0.5]`.
    pub fn symmetric(p: f64) -> Self {
        Self::new(p, p)
    }

    /// P(read 1 | prepared 0).
    pub fn p10(&self) -> f64 {
        self.p10
    }

    /// P(read 0 | prepared 1).
    pub fn p01(&self) -> f64 {
        self.p01
    }

    /// The average flip probability.
    pub fn average(&self) -> f64 {
        0.5 * (self.p10 + self.p01)
    }

    /// Scales both flip probabilities by `factor`, saturating at 0.5.
    ///
    /// Used both for measurement-crosstalk amplification and for the
    /// noise-scale sweep of the paper's Appendix B.
    pub fn scaled(&self, factor: f64) -> ReadoutError {
        assert!(factor >= 0.0, "scale factor must be nonnegative");
        ReadoutError {
            p10: (self.p10 * factor).min(0.5),
            p01: (self.p01 * factor).min(0.5),
        }
    }

    /// The column-stochastic 2×2 confusion matrix
    /// `[[P(0|0), P(0|1)], [P(1|0), P(1|1)]]`.
    pub fn confusion(&self) -> [[f64; 2]; 2] {
        [[1.0 - self.p10, self.p01], [self.p10, 1.0 - self.p01]]
    }
}

impl fmt::Display for ReadoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "readout(p10={:.4}, p01={:.4})", self.p10, self.p01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_columns_are_stochastic() {
        let e = ReadoutError::new(0.03, 0.07);
        let m = e.confusion();
        assert!((m[0][0] + m[1][0] - 1.0).abs() < 1e-15);
        assert!((m[0][1] + m[1][1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn scaling_saturates() {
        let e = ReadoutError::new(0.3, 0.4).scaled(5.0);
        assert_eq!(e.p10(), 0.5);
        assert_eq!(e.p01(), 0.5);
    }

    #[test]
    fn scaling_by_zero_removes_error() {
        assert_eq!(ReadoutError::new(0.1, 0.2).scaled(0.0), ReadoutError::NONE);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 0.5]")]
    fn rejects_out_of_range() {
        ReadoutError::new(0.6, 0.1);
    }

    #[test]
    fn symmetric_constructor() {
        let e = ReadoutError::symmetric(0.04);
        assert_eq!(e.p10(), e.p01());
        assert_eq!(e.average(), 0.04);
    }
}
