//! Probability mass functions over measured qubit subsets.

use std::fmt;

/// A probability mass function over the outcomes of a set of measured
/// qubits — the paper's "PMF" (Global-PMF, Local-PMF, Output-PMF of Fig.3).
///
/// The distribution is dense over `2^qubits.len()` outcomes; bit `j` of an
/// outcome index is the measured value of `qubits[j]`.
///
/// # Examples
///
/// ```
/// use mitigation::Pmf;
///
/// // A Bell-pair distribution over qubits 0 and 2.
/// let pmf = Pmf::new(vec![0, 2], vec![0.5, 0.0, 0.0, 0.5]);
/// let marg = pmf.marginal(&[2]);
/// assert_eq!(marg.probs(), &[0.5, 0.5]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Pmf {
    qubits: Vec<usize>,
    probs: Vec<f64>,
}

impl Pmf {
    /// Creates a PMF over `qubits` with the given outcome probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^qubits.len()`, a qubit repeats, a
    /// probability is not finite and non-negative (negative, infinite or
    /// NaN), or the total mass is zero.
    pub fn new(qubits: Vec<usize>, probs: Vec<f64>) -> Self {
        check_qubits(&qubits, probs.len());
        // The fold does not short-circuit, so it vectorizes; the offending
        // entry is looked up only to name it in the panic.
        let valid = |p: f64| (0.0..=f64::MAX).contains(&p);
        if !probs.iter().fold(true, |ok, &p| ok & valid(p)) {
            let p = probs
                .iter()
                .find(|&&p| !valid(p))
                .expect("an invalid entry");
            panic!("PMF probability {p} is not finite and non-negative");
        }
        let total: f64 = probs.iter().sum();
        assert!(total > 0.0, "PMF has zero total mass");
        // Already-unit mass is left untouched.
        let mut probs = probs;
        if (total - 1.0).abs() > 1e-15 {
            probs.iter_mut().for_each(|p| *p /= total);
        }
        Pmf { qubits, probs }
    }

    /// The empirical PMF of `shots` sampled counts over `qubits`: each
    /// count divided by `shots`.
    ///
    /// Bit-identical to `Pmf::new` on the counts as `f64`, without its
    /// floating-point validation and sum: counts are finite and
    /// non-negative, and their sum is exactly `shots` (integer partial sums
    /// below 2^53 are exact), so `Pmf::new` divides by the same value. A
    /// single shot, which `Pmf::new` leaves undivided, divides by 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use mitigation::Pmf;
    ///
    /// let pmf = Pmf::from_counts(vec![0], &[3, 1], 4);
    /// assert_eq!(pmf.probs(), &[0.75, 0.25]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != 2^qubits.len()`, a qubit repeats, the
    /// counts do not sum to `shots`, or `shots` is zero.
    pub fn from_counts(qubits: Vec<usize>, counts: &[u64], shots: u64) -> Self {
        check_qubits(&qubits, counts.len());
        assert_eq!(
            counts.iter().sum::<u64>(),
            shots,
            "counts do not sum to the shots"
        );
        assert!(shots > 0, "PMF has zero total mass");
        let total = shots as f64;
        let probs = counts.iter().map(|&c| c as f64 / total).collect();
        Pmf { qubits, probs }
    }

    /// The measured qubits, in index-bit order.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The outcome probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mutable access to the probabilities. Nothing renormalizes or
    /// validates them afterwards: keeping them a distribution is the
    /// caller's job.
    pub fn probs_mut(&mut self) -> &mut [f64] {
        &mut self.probs
    }

    /// The probability of a specific outcome bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `outcome >= 2^qubits.len()`.
    pub fn prob(&self, outcome: usize) -> f64 {
        self.probs[outcome]
    }

    /// The number of measured qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The bit position of global qubit `q` within this PMF's outcome
    /// indices, if `q` is measured here.
    fn position_of(&self, q: usize) -> Option<usize> {
        self.qubits.iter().position(|&x| x == q)
    }

    /// The bit positions of each qubit of `sub` within this PMF's outcome
    /// indices: bit `j` of the projection of outcome `x` onto `sub` is bit
    /// `positions[j]` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if some qubit of `sub` is not measured by this PMF.
    pub fn projection_positions(&self, sub: &[usize]) -> Vec<usize> {
        sub.iter()
            .map(|&q| {
                self.position_of(q)
                    .unwrap_or_else(|| panic!("qubit {q} not in PMF"))
            })
            .collect()
    }

    /// The marginal distribution over a subset of this PMF's qubits.
    ///
    /// # Panics
    ///
    /// Panics if some qubit of `sub` is not measured by this PMF or `sub`
    /// repeats a qubit.
    pub fn marginal(&self, sub: &[usize]) -> Pmf {
        // Resolve the bit positions once rather than rescanning the qubit
        // list for every one of the 2^n outcomes.
        let positions = self.projection_positions(sub);
        let mut probs = vec![0.0; 1usize << sub.len()];
        for (x, &p) in self.probs.iter().enumerate() {
            let mut key = 0usize;
            for (j, &pos) in positions.iter().enumerate() {
                key |= ((x >> pos) & 1) << j;
            }
            probs[key] += p;
        }
        Pmf::new(sub.to_vec(), probs)
    }

    /// Total variation distance to another PMF over the same qubits (in the
    /// same order).
    ///
    /// # Panics
    ///
    /// Panics if the qubit lists differ.
    pub fn tvd(&self, other: &Pmf) -> f64 {
        assert_eq!(self.qubits, other.qubits, "PMFs over different qubits");
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Hellinger fidelity `(Σ √(pᵢ·qᵢ))²` to another PMF over the same
    /// qubits — the fidelity measure used by JigSaw-style evaluations.
    ///
    /// # Panics
    ///
    /// Panics if the qubit lists differ.
    pub fn fidelity(&self, other: &Pmf) -> f64 {
        assert_eq!(self.qubits, other.qubits, "PMFs over different qubits");
        let bc: f64 = self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(a, b)| (a * b).sqrt())
            .sum();
        bc * bc
    }
}

impl fmt::Display for Pmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pmf over qubits {:?}:", self.qubits)?;
        for (x, p) in self.probs.iter().enumerate() {
            if *p > 1e-9 {
                writeln!(
                    f,
                    "  {x:0width$b}: {p:.6}",
                    width = self.qubits.len().max(1)
                )?;
            }
        }
        Ok(())
    }
}

/// Panics unless `len` outcomes suit the distinct `qubits`.
fn check_qubits(qubits: &[usize], len: usize) {
    assert_eq!(
        len,
        1usize << qubits.len(),
        "{len} probabilities for {} qubits",
        qubits.len()
    );
    for (i, &q) in qubits.iter().enumerate() {
        assert!(!qubits[..i].contains(&q), "qubit {q} repeated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let pmf = Pmf::new(vec![0], vec![2.0, 2.0]);
        assert_eq!(pmf.probs(), &[0.5, 0.5]);
    }

    #[test]
    fn marginal_sums_rows() {
        // Over qubits [1, 3]: P(q1=0,q3=0)=0.1, (1,0)=0.2, (0,1)=0.3, (1,1)=0.4.
        let pmf = Pmf::new(vec![1, 3], vec![0.1, 0.2, 0.3, 0.4]);
        let m1 = pmf.marginal(&[1]);
        assert!((m1.prob(0) - 0.4).abs() < 1e-12);
        assert!((m1.prob(1) - 0.6).abs() < 1e-12);
        let m3 = pmf.marginal(&[3]);
        assert!((m3.prob(0) - 0.3).abs() < 1e-12);
        assert!((m3.prob(1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn marginal_respects_order() {
        let pmf = Pmf::new(vec![1, 3], vec![0.1, 0.2, 0.3, 0.4]);
        let swapped = pmf.marginal(&[3, 1]);
        assert!((swapped.prob(0b01) - 0.3).abs() < 1e-12); // q3=1, q1=0
        assert!((swapped.prob(0b10) - 0.2).abs() < 1e-12); // q3=0, q1=1
    }

    #[test]
    fn marginal_over_all_qubits_is_identity() {
        let pmf = Pmf::new(vec![0, 2], vec![0.25, 0.3, 0.25, 0.2]);
        assert_eq!(pmf.marginal(&[0, 2]), pmf);
    }

    #[test]
    fn tvd_and_fidelity_extremes() {
        let a = Pmf::new(vec![0], vec![1.0, 0.0]);
        let b = Pmf::new(vec![0], vec![0.0, 1.0]);
        assert_eq!(a.tvd(&b), 1.0);
        assert_eq!(a.fidelity(&b), 0.0);
        assert_eq!(a.tvd(&a), 0.0);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_qubit_rejected() {
        Pmf::new(vec![1, 1], vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "probability inf is not finite and non-negative")]
    fn infinite_probability_rejected() {
        Pmf::new(vec![0], vec![f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "probability NaN is not finite and non-negative")]
    fn nan_probability_rejected() {
        Pmf::new(vec![0], vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "probability -0.5 is not finite and non-negative")]
    fn negative_probability_rejected() {
        Pmf::new(vec![0], vec![-0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "zero total mass")]
    fn zero_mass_rejected() {
        Pmf::new(vec![0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not in PMF")]
    fn marginal_of_unmeasured_qubit_panics() {
        Pmf::new(vec![0, 1], vec![0.25; 4]).marginal(&[2]);
    }
}
