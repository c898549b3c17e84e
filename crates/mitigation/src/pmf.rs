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
    /// probability is negative, or the total mass is zero.
    pub fn new(qubits: Vec<usize>, probs: Vec<f64>) -> Self {
        assert_eq!(
            probs.len(),
            1usize << qubits.len(),
            "{} probabilities for {} qubits",
            probs.len(),
            qubits.len()
        );
        for (i, &q) in qubits.iter().enumerate() {
            assert!(!qubits[..i].contains(&q), "qubit {q} repeated");
        }
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "negative probability in PMF"
        );
        let total: f64 = probs.iter().sum();
        assert!(total > 0.0, "PMF has zero total mass");
        let mut pmf = Pmf { qubits, probs };
        pmf.normalize_with(total);
        pmf
    }

    /// The uniform distribution over `qubits`.
    pub fn uniform(qubits: Vec<usize>) -> Self {
        let n = 1usize << qubits.len();
        Pmf::new(qubits, vec![1.0 / n as f64; n])
    }

    /// The measured qubits, in index-bit order.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The outcome probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mutable access to the probabilities. Callers should
    /// [`normalize`](Pmf::normalize) afterwards.
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

    /// Rescales to unit mass.
    ///
    /// # Panics
    ///
    /// Panics if the total mass is zero.
    pub fn normalize(&mut self) {
        let total: f64 = self.probs.iter().sum();
        assert!(total > 0.0, "cannot normalize a zero PMF");
        self.normalize_with(total);
    }

    /// Rescales to unit mass given the already-summed positive `total`,
    /// leaving already-unit mass untouched.
    fn normalize_with(&mut self, total: f64) {
        if (total - 1.0).abs() > 1e-15 {
            self.probs.iter_mut().for_each(|p| *p /= total);
        }
    }

    /// The bit position of global qubit `q` within this PMF's outcome
    /// indices, if `q` is measured here.
    pub fn position_of(&self, q: usize) -> Option<usize> {
        self.qubits.iter().position(|&x| x == q)
    }

    /// Projects an outcome of this PMF onto the outcome of a qubit subset.
    ///
    /// # Panics
    ///
    /// Panics if some qubit of `sub` is not measured by this PMF.
    pub fn project_outcome(&self, outcome: usize, sub: &[usize]) -> usize {
        let mut key = 0usize;
        for (j, &q) in sub.iter().enumerate() {
            let pos = self
                .position_of(q)
                .unwrap_or_else(|| panic!("qubit {q} not in PMF"));
            key |= ((outcome >> pos) & 1) << j;
        }
        key
    }

    /// The bit positions of each qubit of `sub` within this PMF's outcome
    /// indices — the projection [`project_outcome`](Pmf::project_outcome)
    /// performs, resolved once instead of per outcome.
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
        // Resolve the bit positions once; per-outcome `project_outcome`
        // would rescan the qubit list for every one of the 2^n outcomes.
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
    fn uniform_is_uniform() {
        let u = Pmf::uniform(vec![4, 5, 6]);
        assert!(u.probs().iter().all(|&p| (p - 0.125).abs() < 1e-15));
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_qubit_rejected() {
        Pmf::new(vec![1, 1], vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "zero total mass")]
    fn zero_mass_rejected() {
        Pmf::new(vec![0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not in PMF")]
    fn marginal_of_unmeasured_qubit_panics() {
        Pmf::uniform(vec![0, 1]).marginal(&[2]);
    }

    #[test]
    fn project_outcome_extracts_bits() {
        let pmf = Pmf::uniform(vec![5, 2, 9]);
        // outcome 0b011 → q5=1, q2=1, q9=0.
        // Projecting onto [9, 5]: bit 0 ← q9 = 0, bit 1 ← q5 = 1.
        assert_eq!(pmf.project_outcome(0b011, &[9, 5]), 0b10);
        assert_eq!(pmf.project_outcome(0b011, &[2]), 1);
    }
}
