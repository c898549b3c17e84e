//! Weighted Pauli terms.

use crate::string::PauliString;
use std::fmt;

/// A Pauli string with a real coefficient — one term of a Hamiltonian.
///
/// Coefficients are real because VQE Hamiltonians are Hermitian sums of
/// Hermitian Pauli strings.
///
/// # Examples
///
/// ```
/// use pauli::PauliTerm;
///
/// let t = PauliTerm::parse(-0.5, "ZZIZ").unwrap();
/// assert_eq!(t.coeff(), -0.5);
/// assert_eq!(t.string().weight(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliTerm {
    coeff: f64,
    string: PauliString,
}

impl PauliTerm {
    /// Creates a term from a coefficient and string.
    pub fn new(coeff: f64, string: PauliString) -> Self {
        PauliTerm { coeff, string }
    }

    /// Creates a term by parsing the string representation.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `s` contains characters other than
    /// `I`, `X`, `Y`, `Z` or `-`.
    pub fn parse(coeff: f64, s: &str) -> Result<Self, crate::ParsePauliStringError> {
        Ok(PauliTerm {
            coeff,
            string: s.parse()?,
        })
    }

    /// The coefficient.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The Pauli string.
    pub fn string(&self) -> &PauliString {
        &self.string
    }
}

impl fmt::Display for PauliTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6} {}", self.coeff, self.string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_term() {
        let t = PauliTerm::parse(1.25, "XIZ").unwrap();
        assert_eq!(t.coeff(), 1.25);
        assert_eq!(t.string().to_string(), "XIZ");
    }

    #[test]
    fn parse_propagates_errors() {
        assert!(PauliTerm::parse(1.0, "XQ").is_err());
    }

    #[test]
    fn display_includes_sign() {
        let t = PauliTerm::parse(-0.5, "ZZ").unwrap();
        assert_eq!(t.to_string(), "-0.500000 ZZ");
    }
}
