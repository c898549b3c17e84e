//! Integration tests for the extension surface: diagonal (Z-only)
//! Hamiltonians, spin chains, SPSA tuning and selective mitigation.

use chem::heisenberg_chain;
use pauli::Hamiltonian;
use qnoise::DeviceModel;
use varsaw::{Method, RunSetup, SpatialPlan, TemporalPolicy};
use vqe::{run_vqe, BaselineEvaluator, EfficientSu2, Entanglement, SimExecutor, Spsa, VqeConfig};

#[test]
fn diagonal_hamiltonians_have_trivial_spatial_plans() {
    // All-Z cost Hamiltonians (a MaxCut instance on a fixed 8-vertex,
    // 14-edge graph) collapse into very few measurement bases — the
    // boundary case where VarSaw's spatial optimization is cheap but
    // cannot help much, exactly as Section 7.3 predicts.
    let h = Hamiltonian::from_pairs(
        8,
        &[
            (0.5, "ZIIIIZII"),
            (0.5, "ZIIIIIIZ"),
            (0.5, "IZZIIIII"),
            (0.5, "IZIIZIII"),
            (0.5, "IZIIIIZI"),
            (0.5, "IZIIIIIZ"),
            (0.5, "IIZZIIII"),
            (0.5, "IIZIZIII"),
            (0.5, "IIZIIIZI"),
            (0.5, "IIIZIZII"),
            (0.5, "IIIZIIZI"),
            (0.5, "IIIZIIIZ"),
            (0.5, "IIIIIZIZ"),
            (0.5, "IIIIIIZZ"),
            (-7.0, "IIIIIIII"),
        ],
    );
    let plan = SpatialPlan::new(&h, 2);
    let stats = plan.stats();
    assert!(
        stats.varsaw_subsets <= 7,
        "Z-only subsets: {}",
        stats.varsaw_subsets
    );
    assert!(stats.varsaw_subsets <= stats.jigsaw_subsets);
}

#[test]
fn spsa_reduces_the_objective() {
    let h = heisenberg_chain(4, 1.0, 0.8, 0.6, 0.4);
    let ansatz = EfficientSu2::new(4, 1, Entanglement::Full);
    let mut eval = BaselineEvaluator::new(
        &h,
        ansatz.clone(),
        SimExecutor::new(DeviceModel::noiseless(4), 2048, 7),
    );
    let trace = run_vqe(
        &mut eval,
        &mut Spsa::new(1),
        ansatz.initial_parameters(2),
        &VqeConfig {
            max_iterations: 120,
            max_circuits: None,
        },
    );
    let (start, end) = (trace.energies[0], trace.converged_energy(0.1));
    assert!(end < start - 0.3, "start {start}, end {end}");
}

#[test]
fn selective_mitigation_interpolates_between_varsaw_and_baseline() {
    let h = heisenberg_chain(5, 1.0, 0.8, 0.6, 0.4);
    let full = SpatialPlan::new(&h, 2).stats().varsaw_subsets;
    let some = SpatialPlan::with_coefficient_floor(&h, 2, 0.7)
        .stats()
        .varsaw_subsets;
    let none = SpatialPlan::with_coefficient_floor(&h, 2, 10.0)
        .stats()
        .varsaw_subsets;
    assert!(none == 0);
    assert!(some > none && some < full, "{none} < {some} < {full}");
}

#[test]
fn varsaw_runs_on_spin_chain_workloads() {
    let h = heisenberg_chain(4, 1.0, 1.0, 1.0, 0.5);
    let setup = RunSetup::new(
        h,
        EfficientSu2::new(4, 1, Entanglement::Full),
        DeviceModel::mumbai_like(),
        13,
    );
    let out = varsaw::run_method(
        &setup,
        Method::VarSaw(TemporalPolicy::default()),
        &VqeConfig {
            max_iterations: 15,
            max_circuits: None,
        },
    );
    assert_eq!(out.trace.iterations(), 15);
    assert!(out.spatial.unwrap().varsaw_subsets > 0);
}

#[test]
fn pauli_algebra_links_to_grouping() {
    // Qubit-wise compatible Hamiltonian terms always fully commute — the
    // containment the paper's Section 3.1 relies on.
    use pauli::{fully_commute, group_by_cover, PauliString};
    let h = heisenberg_chain(4, 1.0, 1.0, 1.0, 0.3);
    let strings: Vec<PauliString> = h
        .measurable_terms()
        .iter()
        .map(|t| t.string().clone())
        .collect();
    for g in group_by_cover(&strings) {
        for &a in &g.members {
            for &b in &g.members {
                assert!(fully_commute(&strings[a], &strings[b]));
            }
        }
    }
}
