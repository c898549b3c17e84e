//! End-to-end integration tests spanning all crates: chem → pauli → qsim →
//! qnoise → mitigation → vqe → varsaw.

use chem::{molecular_hamiltonian, MoleculeSpec};
use qnoise::DeviceModel;
use varsaw::{run_method, Method, RunSetup, TemporalPolicy};
use vqe::{EfficientSu2, Entanglement, VqeConfig};

fn h2_setup(seed: u64, device: DeviceModel) -> RunSetup {
    let spec = MoleculeSpec::find("H2", 4).expect("registry");
    let h = molecular_hamiltonian(&spec);
    let ansatz = EfficientSu2::new(4, 2, Entanglement::Full);
    let mut s = RunSetup::new(h, ansatz, device, seed);
    s.shots = 1024;
    s
}

#[test]
fn noiseless_vqe_approaches_the_exact_ground_energy() {
    let spec = MoleculeSpec::find("H2", 4).expect("registry");
    let h = molecular_hamiltonian(&spec);
    let e0 = h.ground_energy(1);
    let setup = h2_setup(3, DeviceModel::noiseless(4));
    let out = run_method(
        &setup,
        Method::Baseline,
        &VqeConfig {
            max_iterations: 300,
            max_circuits: None,
        },
    );
    let final_e = out.trace.converged_energy(0.1);
    // The hardware-efficient ansatz won't be exact, but it must close most
    // of the gap from the mean-field start.
    let start_e = out.trace.energies[0];
    assert!(
        final_e < e0 + 0.5 * (start_e - e0),
        "final {final_e}, start {start_e}, exact {e0}"
    );
}

#[test]
fn all_methods_respect_a_circuit_budget() {
    let budget = 2_000u64;
    for method in [
        Method::Baseline,
        Method::Jigsaw,
        Method::VarSaw(TemporalPolicy::OneShot),
    ] {
        let setup = h2_setup(5, DeviceModel::mumbai_like());
        let out = run_method(
            &setup,
            method,
            &VqeConfig {
                max_iterations: usize::MAX >> 1,
                max_circuits: Some(budget),
            },
        );
        let total = out.trace.total_circuits();
        // The budget may be overshot by at most one iteration's circuits.
        let per_iter = total / out.trace.iterations().max(1) as u64;
        assert!(
            total <= budget + 2 * per_iter,
            "{method}: {total} circuits for budget {budget}"
        );
    }
}

#[test]
fn varsaw_executes_fewer_circuits_per_iteration_than_jigsaw() {
    let iters = 12;
    let config = VqeConfig {
        max_iterations: iters,
        max_circuits: None,
    };
    let jig = run_method(
        &h2_setup(7, DeviceModel::mumbai_like()),
        Method::Jigsaw,
        &config,
    );
    let vs = run_method(
        &h2_setup(7, DeviceModel::mumbai_like()),
        Method::VarSaw(TemporalPolicy::OneShot),
        &config,
    );
    assert_eq!(jig.trace.iterations(), iters);
    assert_eq!(vs.trace.iterations(), iters);
    assert!(
        vs.trace.total_circuits() * 2 < jig.trace.total_circuits(),
        "varsaw {} vs jigsaw {}",
        vs.trace.total_circuits(),
        jig.trace.total_circuits()
    );
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let config = VqeConfig {
        max_iterations: 10,
        max_circuits: None,
    };
    let a = run_method(
        &h2_setup(11, DeviceModel::mumbai_like()),
        Method::VarSaw(TemporalPolicy::default()),
        &config,
    );
    let b = run_method(
        &h2_setup(11, DeviceModel::mumbai_like()),
        Method::VarSaw(TemporalPolicy::default()),
        &config,
    );
    assert_eq!(a.trace.energies, b.trace.energies);
    assert_eq!(a.trace.circuits, b.trace.circuits);
    assert_eq!(a.global_fraction, b.global_fraction);
}

#[test]
fn varsaw_estimate_tracks_ideal_better_than_baseline_at_fixed_params() {
    use vqe::{BaselineEvaluator, EnergyEvaluator, SimExecutor};
    let spec = MoleculeSpec::find("CH4", 6).expect("registry");
    let h = molecular_hamiltonian(&spec);
    let ansatz = EfficientSu2::new(6, 2, Entanglement::Full);
    let mut better = 0;
    let trials = 6;
    for seed in 0..trials {
        let params = ansatz.initial_parameters(seed);
        let mut ideal = BaselineEvaluator::new(
            &h,
            ansatz.clone(),
            SimExecutor::exact(DeviceModel::noiseless(6), 1),
        );
        let mut noisy = BaselineEvaluator::new(
            &h,
            ansatz.clone(),
            SimExecutor::exact(DeviceModel::mumbai_like(), 1),
        );
        let mut vs = varsaw::VarSawEvaluator::new(
            &h,
            ansatz.clone(),
            2,
            TemporalPolicy::EveryIteration,
            SimExecutor::exact(DeviceModel::mumbai_like(), 1),
        );
        let e_ideal = ideal.evaluate(&params);
        let noisy_err = (noisy.evaluate(&params) - e_ideal).abs();
        let vs_err = (vs.evaluate(&params) - e_ideal).abs();
        if vs_err < noisy_err {
            better += 1;
        }
    }
    assert!(
        better * 3 >= trials * 2,
        "varsaw estimate better in only {better}/{trials} cases"
    );
}

#[test]
fn spatial_plan_matches_executed_subset_costs() {
    // The plan's subset count must equal the circuits a subsets-only
    // evaluation actually executes.
    let spec = MoleculeSpec::find("H2O", 6).expect("registry");
    let h = molecular_hamiltonian(&spec);
    let plan = varsaw::SpatialPlan::new(&h, 2);
    let setup = RunSetup::new(
        h,
        EfficientSu2::new(6, 2, Entanglement::Full),
        DeviceModel::mumbai_like(),
        3,
    );
    let out = run_method(
        &setup,
        Method::VarSaw(TemporalPolicy::OneShot),
        &VqeConfig {
            max_iterations: 6,
            max_circuits: None,
        },
    );
    // 6 iterations × 2 SPSA evaluations × subsets, plus one eval's globals.
    let subsets = plan.stats().varsaw_subsets as u64;
    let globals = plan.stats().baseline_circuits as u64;
    assert_eq!(out.trace.total_circuits(), 12 * subsets + globals);
}

/// A 64-bit FNV-1a digest of an energy trace's exact bits, the digest
/// the paper-run benchmark reports per seed.
fn digest(energies: &[f64]) -> u64 {
    energies
        .iter()
        .flat_map(|e| e.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Six SPSA iterations of `method` on `molecule` (EfficientSU2 reps 2,
/// 1024 shots, seed 7) on `device`, as an energy-trace digest.
fn trace_digest(molecule: &str, qubits: usize, device: DeviceModel, method: Method) -> u64 {
    let config = VqeConfig {
        max_iterations: 6,
        max_circuits: None,
    };
    let spec = MoleculeSpec::find(molecule, qubits).expect("registry");
    let ansatz = EfficientSu2::new(qubits, 2, Entanglement::Full);
    let setup = RunSetup::new(molecular_hamiltonian(&spec), ansatz, device, 7);
    let trace = run_method(&setup, method, &config).trace;
    assert_eq!(trace.iterations(), 6);
    digest(&trace.energies)
}

/// Full-register draws (256 outcomes on H2O-8) take the sampler's guided
/// walk, one uniform per shot. A Baseline run on `mumbai_like` and an
/// ideal one (Baseline on a noiseless device) draw only those, so their
/// traces keep these bits whatever happens to the small-distribution path.
#[test]
fn full_register_runs_keep_their_energy_trace_bits() {
    let cases = [
        (
            "mumbai_like",
            DeviceModel::mumbai_like(),
            0xb04b_93ed_ba0c_87e1,
        ),
        (
            "noiseless",
            DeviceModel::noiseless(8),
            0xa6b3_dac5_c701_942a,
        ),
    ];
    for (device_name, device, want) in cases {
        let got = trace_digest("H2O", 8, device, Method::Baseline);
        assert_eq!(got, want, "baseline on H2O-8, {device_name}: {got:#018x}");
    }
}

/// Sampled paper runs stay bit-identical across refactors of the
/// measurement path: six SPSA iterations of VarSaw on H2O-8 and of JigSaw
/// on LiH-6 (EfficientSU2 reps 2, `mumbai_like`, 1024 shots, seed 7) must
/// reproduce these energy-trace digests. They were re-pinned once when
/// subset reads (4 outcomes) began to be drawn as conditional binomials,
/// which consume a different RNG stream than one uniform per shot.
#[test]
fn sampled_runs_keep_their_energy_trace_bits() {
    let cases = [
        (
            "H2O",
            8,
            Method::VarSaw(TemporalPolicy::default()),
            0xdc27_234e_90d6_4397,
        ),
        ("LiH", 6, Method::Jigsaw, 0xf607_6785_6ef8_6b0e),
    ];
    for (molecule, qubits, method, want) in cases {
        let got = trace_digest(molecule, qubits, DeviceModel::mumbai_like(), method);
        assert_eq!(got, want, "{method} on {molecule}-{qubits}: {got:#018x}");
    }
}
