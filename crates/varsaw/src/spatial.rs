//! VarSaw's spatial optimization: Commuting of Pauli String Subsets.
//!
//! JigSaw generates measurement subsets per circuit and is blind to the
//! application, so subsets repeat and commute across the Pauli strings of a
//! VQA Hamiltonian (Section 3.2). VarSaw instead generates subsets for
//! *every* Hamiltonian Pauli string first and only then applies
//! commutativity-based reduction (Fig.10, right) — deduplicating repeats
//! and absorbing covered subsets into covering ones, exactly the reduction
//! that takes Fig.6's 21 JigSaw subsets down to 9.
//!
//! The [`SpatialPlan`] also records, for every measurement-basis circuit
//! and every one of its reconstruction windows, *which* reduced subset
//! group serves it — at execution time the group's outcome distribution is
//! marginalized onto the window, so one executed circuit feeds many
//! reconstructions.

use mitigation::sliding_windows;
use pauli::{group_by_cover, Hamiltonian, MeasurementGroup, PauliString};
use std::collections::HashMap;

/// One reconstruction window of a measurement-basis circuit, with the
/// reduced subset group that provides its local distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowCoverage {
    /// The window subset descriptor (basis restricted to the window); its
    /// support is the qubits the local PMF covers.
    pub subset: PauliString,
    /// Index into [`SpatialPlan::subset_groups`] of the circuit that
    /// measures this subset.
    pub group: usize,
}

/// The distinct Local-PMFs a plan's coverage asks for: one entry per
/// distinct (subset group, window support) pair, and for every basis the
/// entry each of its coverage windows reads. Windows of different bases
/// (or different windows of one basis) whose group and support agree
/// share one marginal, so an evaluation computes each entry once.
#[derive(Clone, Debug)]
pub(crate) struct DistinctCoverage {
    /// The distinct (subset group, window support) pairs, in first-use
    /// order over the bases and their windows.
    pub(crate) entries: Vec<(usize, Vec<usize>)>,
    /// Per basis, the index into `entries` of each coverage window, in
    /// [`SpatialPlan::coverage`] order.
    pub(crate) windows: Vec<Vec<usize>>,
}

/// Aggregate circuit-count statistics — the quantities plotted in Fig.12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpatialStats {
    /// Pauli terms in the Hamiltonian (excluding identity).
    pub hamiltonian_terms: usize,
    /// Baseline circuits per iteration (post-commutation bases, Eq.2).
    pub baseline_circuits: usize,
    /// Subsets JigSaw executes per iteration (per-circuit windows, no
    /// cross-circuit reduction, Eq.3).
    pub jigsaw_subsets: usize,
    /// Subsets VarSaw executes per iteration after commuting (Eq.4).
    pub varsaw_subsets: usize,
}

impl SpatialStats {
    /// JigSaw subsets relative to baseline circuits (Fig.12 orange bars).
    pub fn jigsaw_ratio(&self) -> f64 {
        self.jigsaw_subsets as f64 / self.baseline_circuits.max(1) as f64
    }

    /// VarSaw subsets relative to baseline circuits (Fig.12 orange bars).
    pub fn varsaw_ratio(&self) -> f64 {
        self.varsaw_subsets as f64 / self.baseline_circuits.max(1) as f64
    }

    /// The VarSaw:JigSaw subset reduction factor (Fig.12 green line).
    pub fn reduction(&self) -> f64 {
        self.jigsaw_subsets as f64 / self.varsaw_subsets.max(1) as f64
    }
}

/// The spatial execution plan for a Hamiltonian: the reduced subset
/// circuits, the basis circuits they serve, and the per-window coverage
/// map.
///
/// # Examples
///
/// The paper's Fig.6 worked example:
///
/// ```
/// use pauli::Hamiltonian;
/// use varsaw::SpatialPlan;
///
/// let h = Hamiltonian::from_pairs(4, &[
///     (1.0, "ZZIZ"), (1.0, "ZIZX"), (1.0, "ZZII"), (1.0, "IIZX"), (1.0, "ZXXZ"),
///     (1.0, "XZIZ"), (1.0, "ZXIZ"), (1.0, "IXZZ"), (1.0, "XIZZ"), (1.0, "XXIX"),
/// ]);
/// let plan = SpatialPlan::new(&h, 2);
/// let stats = plan.stats();
/// assert_eq!(stats.baseline_circuits, 7);  // Eq.2
/// assert_eq!(stats.jigsaw_subsets, 21);    // Eq.3
/// assert_eq!(stats.varsaw_subsets, 9);     // Eq.4
/// ```
#[derive(Clone, Debug)]
pub struct SpatialPlan {
    window: usize,
    bases: Vec<PauliString>,
    subset_groups: Vec<MeasurementGroup>,
    coverage: Vec<Vec<WindowCoverage>>,
    stats: SpatialStats,
}

impl SpatialPlan {
    /// Builds the plan for a Hamiltonian with the given subset window size.
    ///
    /// Pipeline (Fig.10, right): generate window subsets for every
    /// measurable Pauli string → deduplicate → cover-based commuting
    /// reduction → map every basis circuit window onto its covering group.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or the Hamiltonian has no measurable terms.
    pub fn new(hamiltonian: &Hamiltonian, window: usize) -> Self {
        Self::with_coefficient_floor(hamiltonian, window, 0.0)
    }

    /// Like [`SpatialPlan::new`], but generates subsets only for terms with
    /// `|coefficient| >= floor` — the paper's proposed extension of
    /// employing mitigation "only to specific terms in the Hamiltonian —
    /// i.e., only employ mitigation where it matters most" (Section 7.3).
    ///
    /// Basis-circuit windows whose subset never entered the pool simply get
    /// no local PMF: those reconstructions fall back to the (noisy) global
    /// for that window, trading accuracy for fewer subset circuits. A floor
    /// of 0 reproduces full VarSaw; a floor above every coefficient leaves
    /// pure baseline measurement.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `floor < 0`, or the Hamiltonian has no
    /// measurable terms.
    pub fn with_coefficient_floor(hamiltonian: &Hamiltonian, window: usize, floor: f64) -> Self {
        assert!(window > 0, "window size must be positive");
        assert!(floor >= 0.0, "coefficient floor must be nonnegative");
        let terms = hamiltonian.measurable_terms();
        let strings: Vec<PauliString> = terms.iter().map(|t| t.string().clone()).collect();
        assert!(
            !strings.is_empty(),
            "Hamiltonian has no measurable terms to plan for"
        );

        // Baseline bases: trivial qubit commutation over the terms (Eq.2).
        let bases: Vec<PauliString> = group_by_cover(&strings)
            .into_iter()
            .map(|g| g.basis)
            .collect();

        // VarSaw subset pool: windows of every *important* Pauli string,
        // deduplicated.
        let mut unique: Vec<PauliString> = Vec::new();
        let mut seen: HashMap<PauliString, ()> = HashMap::new();
        for t in &terms {
            if t.coeff().abs() < floor {
                continue;
            }
            for w in sliding_windows(t.string(), window) {
                if seen.insert(w.clone(), ()).is_none() {
                    unique.push(w);
                }
            }
        }

        // Commuting reduction over the pooled subsets (Eq.3 → Eq.4).
        let subset_groups = group_by_cover(&unique);

        // Index: subset string → covering group.
        let mut group_of: HashMap<&PauliString, usize> = HashMap::new();
        for (gi, g) in subset_groups.iter().enumerate() {
            for &m in &g.members {
                group_of.insert(&unique[m], gi);
            }
        }

        // Coverage of each basis circuit's windows. With a zero floor every
        // basis window is in the pool (bases are seed terms); with a
        // positive floor, uncovered windows are skipped and their
        // reconstruction relies on the global alone.
        let mut jigsaw_subsets = 0usize;
        let coverage: Vec<Vec<WindowCoverage>> = bases
            .iter()
            .map(|b| {
                let windows = sliding_windows(b, window);
                jigsaw_subsets += windows.len();
                windows
                    .into_iter()
                    .filter_map(|s| {
                        group_of
                            .get(&s)
                            .map(|&group| WindowCoverage { subset: s, group })
                    })
                    .collect()
            })
            .collect();

        let stats = SpatialStats {
            hamiltonian_terms: strings.len(),
            baseline_circuits: bases.len(),
            jigsaw_subsets,
            varsaw_subsets: subset_groups.len(),
        };

        SpatialPlan {
            window,
            bases,
            subset_groups,
            coverage,
            stats,
        }
    }

    /// The subset window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The measurement bases of the baseline circuits (Eq.2), in group
    /// order.
    pub fn bases(&self) -> &[PauliString] {
        &self.bases
    }

    /// The reduced subset circuits VarSaw executes each iteration (Eq.4).
    /// Each group's basis has support confined to one window.
    pub fn subset_groups(&self) -> &[MeasurementGroup] {
        &self.subset_groups
    }

    /// The reconstruction windows of basis circuit `b` and the subset
    /// groups covering them.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn coverage(&self, b: usize) -> &[WindowCoverage] {
        &self.coverage[b]
    }

    /// The coverage deduplicated into its distinct (subset group, window
    /// support) marginals (see [`DistinctCoverage`]).
    pub(crate) fn distinct_coverage(&self) -> DistinctCoverage {
        let mut entries: Vec<(usize, Vec<usize>)> = Vec::new();
        // Entry indices per subset group. A group's support fits in one
        // window, so its windows have at most 2^window − 1 distinct
        // supports and a linear scan over them is enough.
        let mut of_group: Vec<Vec<usize>> = vec![Vec::new(); self.subset_groups.len()];
        let windows = self
            .coverage
            .iter()
            .map(|cov| {
                cov.iter()
                    .map(|wc| {
                        let support = wc.subset.support();
                        let seen = &mut of_group[wc.group];
                        if let Some(&i) = seen.iter().find(|&&i| entries[i].1 == support) {
                            return i;
                        }
                        seen.push(entries.len());
                        entries.push((wc.group, support));
                        entries.len() - 1
                    })
                    .collect()
            })
            .collect();
        DistinctCoverage { entries, windows }
    }

    /// Circuit-count statistics (Fig.12).
    pub fn stats(&self) -> SpatialStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_pairs(
            4,
            &[
                (1.0, "ZZIZ"),
                (1.0, "ZIZX"),
                (1.0, "ZZII"),
                (1.0, "IIZX"),
                (1.0, "ZXXZ"),
                (1.0, "XZIZ"),
                (1.0, "ZXIZ"),
                (1.0, "IXZZ"),
                (1.0, "XIZZ"),
                (1.0, "XXIX"),
            ],
        )
    }

    #[test]
    fn fig6_counts_are_reproduced_exactly() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let s = plan.stats();
        assert_eq!(s.hamiltonian_terms, 10);
        assert_eq!(s.baseline_circuits, 7);
        assert_eq!(s.jigsaw_subsets, 21);
        assert_eq!(s.varsaw_subsets, 9);
        assert!((s.reduction() - 21.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn fig6_varsaw_groups_match_eq4() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let mut bases: Vec<String> = plan
            .subset_groups()
            .iter()
            .map(|g| g.basis.to_string())
            .collect();
        bases.sort();
        let mut expected: Vec<String> = [
            "ZZII", "IIZX", "ZXII", "IXXI", "IIXZ", "XZII", "IXZI", "IIZZ", "XXII",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        expected.sort();
        assert_eq!(bases, expected);
    }

    #[test]
    fn every_window_is_covered_by_its_group() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        for (b, _) in plan.bases().iter().enumerate() {
            for wc in plan.coverage(b) {
                let group = &plan.subset_groups()[wc.group];
                assert!(
                    group.basis.covers(&wc.subset),
                    "group {} does not cover window {}",
                    group.basis,
                    wc.subset
                );
            }
        }
    }

    #[test]
    fn subset_group_supports_fit_the_window() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        for g in plan.subset_groups() {
            let sup = g.basis.support();
            assert!(!sup.is_empty());
            assert!(sup.last().unwrap() - sup.first().unwrap() < plan.window());
        }
    }

    #[test]
    fn distinct_coverage_maps_every_window_to_its_marginal() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let distinct = plan.distinct_coverage();
        assert_eq!(distinct.windows.len(), plan.bases().len());
        let mut windows = 0;
        for (b, entries) in distinct.windows.iter().enumerate() {
            let coverage = plan.coverage(b);
            assert_eq!(entries.len(), coverage.len(), "basis {b}");
            for (&i, wc) in entries.iter().zip(coverage) {
                assert_eq!(distinct.entries[i], (wc.group, wc.subset.support()));
            }
            windows += coverage.len();
        }
        for (i, entry) in distinct.entries.iter().enumerate() {
            assert!(!distinct.entries[..i].contains(entry), "entry {i} repeats");
        }
        assert!(
            distinct.entries.len() < windows,
            "{} entries for {windows} windows",
            distinct.entries.len()
        );
    }

    #[test]
    fn varsaw_never_exceeds_jigsaw() {
        for window in [2, 3] {
            let plan = SpatialPlan::new(&fig6_hamiltonian(), window);
            let s = plan.stats();
            assert!(s.varsaw_subsets <= s.jigsaw_subsets);
        }
    }

    #[test]
    fn single_term_hamiltonian_plans_trivially() {
        let h = Hamiltonian::from_pairs(3, &[(1.0, "ZZZ")]);
        let plan = SpatialPlan::new(&h, 2);
        assert_eq!(plan.stats().baseline_circuits, 1);
        assert_eq!(plan.stats().jigsaw_subsets, 2);
        assert_eq!(plan.stats().varsaw_subsets, 2);
    }

    #[test]
    #[should_panic(expected = "no measurable terms")]
    fn identity_only_hamiltonian_rejected() {
        let h = Hamiltonian::from_pairs(2, &[(1.0, "II")]);
        SpatialPlan::new(&h, 2);
    }
}
