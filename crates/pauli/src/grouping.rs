//! Commutativity-based measurement grouping.
//!
//! The paper restricts itself to "trivial qubit commutation" (Section 3.1):
//! a Pauli string can be read off a measurement circuit whose basis *covers*
//! it — i.e. matches it at every non-identity position. Grouping terms under
//! this relation never increases circuit depth, unlike general commuting
//! partitions.
//!
//! [`group_by_cover`] implements the reduction used both for the VQA
//! baseline (Fig.6, Eq.1 → Eq.2: 10 terms → 7 circuits) and for VarSaw's
//! spatial subset reduction (Eq.3 → Eq.4: 21 subsets → 9 circuits): terms are
//! visited in decreasing weight and either absorbed by an existing group
//! whose basis covers them or made the seed of a new group.

use crate::string::PauliString;

/// A set of Pauli strings measurable by a single circuit.
///
/// `basis` is the measurement basis of the circuit (one basis-rotation per
/// non-identity position followed by measurement of those qubits); every
/// member is covered by it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasurementGroup {
    /// The measurement basis (the seed term of the group).
    pub basis: PauliString,
    /// Indices into the input slice of the strings this group measures.
    pub members: Vec<usize>,
}

/// Groups `strings` into cover-based measurement groups.
///
/// Deterministic: strings are visited in decreasing weight (ties broken by
/// input order), and each is assigned to the first existing group whose
/// basis covers it, else seeds a new group. All-identity strings are
/// assigned to the first group (or a dedicated identity group if they are
/// the only input) since any circuit "measures" them trivially.
///
/// The returned groups partition the input indices.
///
/// # Panics
///
/// Panics if the strings have differing lengths.
///
/// # Examples
///
/// The paper's Fig.6 baseline reduction (10 terms → 7 circuits):
///
/// ```
/// use pauli::{group_by_cover, PauliString};
///
/// let terms: Vec<PauliString> = [
///     "ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ",
///     "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX",
/// ].iter().map(|s| s.parse().unwrap()).collect();
/// let groups = group_by_cover(&terms);
/// assert_eq!(groups.len(), 7);
/// ```
pub fn group_by_cover(strings: &[PauliString]) -> Vec<MeasurementGroup> {
    if strings.is_empty() {
        return Vec::new();
    }
    let n = strings[0].num_qubits();
    for s in strings {
        assert_eq!(s.num_qubits(), n, "mixed qubit counts in grouping input");
    }

    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(strings[i].weight()));

    let mut groups: Vec<MeasurementGroup> = Vec::new();
    let mut identity_members: Vec<usize> = Vec::new();

    for &i in &order {
        let s = &strings[i];
        if s.is_identity() {
            identity_members.push(i);
            continue;
        }
        match groups.iter_mut().find(|g| g.basis.covers(s)) {
            Some(g) => g.members.push(i),
            None => groups.push(MeasurementGroup {
                basis: s.clone(),
                members: vec![i],
            }),
        }
    }

    if !identity_members.is_empty() {
        match groups.first_mut() {
            Some(g) => g.members.extend(identity_members),
            None => groups.push(MeasurementGroup {
                basis: PauliString::identity(n),
                members: identity_members,
            }),
        }
    }
    groups
}

/// Groups strings allowing basis *unions*: a string joins a group when it is
/// qubit-wise compatible with the group basis, and the basis grows to the
/// union. More aggressive than [`group_by_cover`] (never more groups), at
/// the cost of measurement bases that are not themselves Hamiltonian terms.
///
/// Provided for comparison and ablation; the paper's pipeline uses
/// [`group_by_cover`].
///
/// # Panics
///
/// Panics if the strings have differing lengths.
pub fn group_by_union(strings: &[PauliString]) -> Vec<MeasurementGroup> {
    if strings.is_empty() {
        return Vec::new();
    }
    let n = strings[0].num_qubits();
    for s in strings {
        assert_eq!(s.num_qubits(), n, "mixed qubit counts in grouping input");
    }
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(strings[i].weight()));

    let mut groups: Vec<MeasurementGroup> = Vec::new();
    for &i in &order {
        let s = &strings[i];
        let slot = groups
            .iter_mut()
            .find_map(|g| g.basis.try_union(s).map(|u| (g, u)));
        match slot {
            Some((g, union)) => {
                g.basis = union;
                g.members.push(i);
            }
            None => groups.push(MeasurementGroup {
                basis: s.clone(),
                members: vec![i],
            }),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(strs: &[&str]) -> Vec<PauliString> {
        strs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// The Fig.6 Hamiltonian (Eq.1).
    fn fig6_terms() -> Vec<PauliString> {
        parse_all(&[
            "ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ", "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX",
        ])
    }

    #[test]
    fn fig6_baseline_reduction_is_7_circuits() {
        let groups = group_by_cover(&fig6_terms());
        assert_eq!(groups.len(), 7);
        // Exactly the seven black terms of Eq.2.
        let mut bases: Vec<String> = groups.iter().map(|g| g.basis.to_string()).collect();
        bases.sort();
        let mut expected = vec!["ZZIZ", "ZIZX", "ZXXZ", "XZIZ", "IXZZ", "XIZZ", "XXIX"];
        expected.sort();
        assert_eq!(bases, expected);
    }

    #[test]
    fn groups_partition_the_input() {
        let terms = fig6_terms();
        let groups = group_by_cover(&terms);
        let mut seen = vec![false; terms.len()];
        for g in &groups {
            for &m in &g.members {
                assert!(!seen[m], "index {m} assigned twice");
                seen[m] = true;
                assert!(g.basis.covers(&terms[m]));
            }
        }
        assert!(seen.iter().all(|&b| b), "some term unassigned");
    }

    #[test]
    fn identity_terms_ride_along() {
        let terms = parse_all(&["II", "ZZ"]);
        let groups = group_by_cover(&terms);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 2);
    }

    #[test]
    fn identity_only_input_yields_identity_group() {
        let terms = parse_all(&["II"]);
        let groups = group_by_cover(&terms);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].basis.is_identity());
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(group_by_cover(&[]).is_empty());
        assert!(group_by_union(&[]).is_empty());
    }

    #[test]
    fn union_grouping_is_never_coarser() {
        let terms = fig6_terms();
        let cover = group_by_cover(&terms);
        let union = group_by_union(&terms);
        assert!(union.len() <= cover.len());
        // Union grouping can merge XZIZ and XIZZ into XZZZ.
        assert!(union.len() <= 6);
    }

    #[test]
    fn union_groups_cover_their_members() {
        let terms = fig6_terms();
        for g in group_by_union(&terms) {
            for &m in &g.members {
                assert!(g.basis.covers(&terms[m]));
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let terms = fig6_terms();
        assert_eq!(group_by_cover(&terms), group_by_cover(&terms));
    }
}
