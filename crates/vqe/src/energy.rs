//! Hamiltonian energy estimation from grouped measurements.

use mitigation::Pmf;
use pauli::{expectations_from_probs, group_by_cover, Hamiltonian, MeasurementGroup, PauliTerm};

/// A Hamiltonian partitioned into cover-based measurement groups — the
/// baseline circuit set the paper's "Traditional VQA" executes every
/// iteration (one circuit per group, Section 5.3).
///
/// # Examples
///
/// ```
/// use pauli::Hamiltonian;
/// use vqe::GroupedHamiltonian;
///
/// let h = Hamiltonian::from_pairs(2, &[(1.0, "ZZ"), (0.5, "ZI"), (-0.3, "XX")]);
/// let grouped = GroupedHamiltonian::new(&h);
/// assert_eq!(grouped.num_groups(), 2); // {ZZ, ZI} and {XX}
/// ```
#[derive(Clone, Debug)]
pub struct GroupedHamiltonian {
    num_qubits: usize,
    terms: Vec<PauliTerm>,
    groups: Vec<MeasurementGroup>,
    identity_offset: f64,
}

impl GroupedHamiltonian {
    /// Groups the measurable terms of `hamiltonian` by trivial qubit
    /// commutation.
    pub fn new(hamiltonian: &Hamiltonian) -> Self {
        let terms: Vec<PauliTerm> = hamiltonian
            .measurable_terms()
            .into_iter()
            .cloned()
            .collect();
        let strings: Vec<_> = terms.iter().map(|t| t.string().clone()).collect();
        let groups = group_by_cover(&strings);
        GroupedHamiltonian {
            num_qubits: hamiltonian.num_qubits(),
            terms,
            groups,
            identity_offset: hamiltonian.identity_offset(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of measurement groups (baseline circuits per iteration).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The measurement groups.
    pub fn groups(&self) -> &[MeasurementGroup] {
        &self.groups
    }

    /// The measurable (non-identity) terms the groups index into.
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// The constant identity offset added to every energy estimate.
    pub fn identity_offset(&self) -> f64 {
        self.identity_offset
    }

    /// Computes the energy from one outcome PMF per group.
    ///
    /// `pmfs[i]` must be a distribution over a superset of the measured
    /// qubits of `groups()[i]` (its basis support) — either the full
    /// register (measure-all execution, JigSaw Output-PMFs) or exactly the
    /// support.
    ///
    /// # Panics
    ///
    /// Panics if the PMF list length mismatches or a group's support is not
    /// covered by its PMF.
    pub fn energy_from_pmfs(&self, pmfs: &[Pmf]) -> f64 {
        assert_eq!(
            pmfs.len(),
            self.groups.len(),
            "{} PMFs for {} groups",
            pmfs.len(),
            self.groups.len()
        );
        let _span = telemetry::span(telemetry::Stage::Energy);
        let mut energy = self.identity_offset;
        for (group, pmf) in self.groups.iter().zip(pmfs) {
            let members = &group.members;
            expectations_from_probs(
                members.iter().map(|&m| self.terms[m].string()),
                pmf.probs(),
                pmf.qubits(),
                |i, value| energy += self.terms[members[i]].coeff() * value,
            );
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineEvaluator, EfficientSu2, EnergyEvaluator, Entanglement, SimExecutor};
    use qnoise::DeviceModel;

    fn tfim() -> Hamiltonian {
        Hamiltonian::from_pairs(2, &[(0.5, "II"), (-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")])
    }

    #[test]
    fn grouping_excludes_identity() {
        let g = GroupedHamiltonian::new(&tfim());
        assert_eq!(g.identity_offset(), 0.5);
        assert_eq!(g.terms().len(), 3);
        // ZZ alone; XI and IX merge? XI and IX don't cover each other →
        // cover-grouping keeps them separate unless a seed covers both.
        assert!(g.num_groups() >= 2);
    }

    #[test]
    fn noiseless_measurement_matches_exact_expectation() {
        let h = tfim();
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
        let params = ansatz.initial_parameters(4);
        let exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        let mut baseline = BaselineEvaluator::new(&h, ansatz, exec);
        let measured = baseline.evaluate(&params);
        let st = baseline.prepare(&params);
        assert!((measured - h.expectation(&st)).abs() < 1e-10);
        let groups = baseline.grouped().num_groups() as u64;
        assert_eq!(baseline.circuits_executed(), groups);
    }

    #[test]
    fn noisy_measurement_is_biased() {
        // Zero angles prepare |00⟩, where Z-expectations shrink under
        // symmetric readout noise.
        let h = Hamiltonian::from_pairs(2, &[(1.0, "ZZ")]);
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Full);
        let params = vec![0.0; ansatz.num_parameters()];
        let exec = SimExecutor::exact(DeviceModel::uniform(2, 0.1), 1);
        let e = BaselineEvaluator::new(&h, ansatz, exec).evaluate(&params);
        // <ZZ> = (1-2p)² = 0.64 under 10% symmetric flips on both qubits.
        assert!((e - 0.64).abs() < 1e-10, "{e}");
    }

    #[test]
    fn energy_from_pmfs_validates_shape() {
        let grouped = GroupedHamiltonian::new(&tfim());
        let wrong: Vec<Pmf> = Vec::new();
        let result = std::panic::catch_unwind(|| grouped.energy_from_pmfs(&wrong));
        assert!(result.is_err());
    }

    #[test]
    fn identity_only_hamiltonian_measures_its_offset() {
        let h = Hamiltonian::from_pairs(2, &[(4.2, "II")]);
        let grouped = GroupedHamiltonian::new(&h);
        assert_eq!(grouped.num_groups(), 0);
        assert_eq!(grouped.energy_from_pmfs(&[]), 4.2);
    }
}
