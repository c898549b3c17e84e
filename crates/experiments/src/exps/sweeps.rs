//! Sweep experiments: Fig.16 (devices), Tables 3/4 (ansatz types and
//! depths), Fig.17 (depth-4 trace), Fig.18 (MBM combination), Fig.19
//! (subset sizes), Table 5 (noise scales).

use crate::harness::{
    adaptive, max_sparsity, mean_converged, molecule_setup, no_sparsity, parallel_map, run_trials,
    with_device, Options,
};
use crate::report::{fmt, results_path, Table};
use chem::{molecular_hamiltonian, tfim_paper, MoleculeSpec};
use qnoise::DeviceModel;
use varsaw::{percent_gap_recovered, run_method, Method, RunSetup, SpatialPlan, VarSawEvaluator};
use vqe::{BaselineEvaluator, EfficientSu2, EnergyEvaluator, Entanglement, SimExecutor, VqeConfig};

const TAIL: f64 = 0.1;

fn unlimited(iters: usize) -> VqeConfig {
    VqeConfig {
        max_iterations: iters,
        max_circuits: None,
    }
}

fn budgeted(budget: u64) -> VqeConfig {
    VqeConfig {
        max_iterations: usize::MAX >> 1,
        max_circuits: Some(budget),
    }
}

/// The circuit budget that `method` needs for `iters` iterations of this
/// setup.
fn budget_for(setup: &RunSetup, method: Method, iters: usize) -> u64 {
    let probe = run_method(setup, method, &unlimited(8));
    (probe.trace.total_circuits() / 8) * iters as u64
}

/// Fig.16: the "real device" TFIM study on the Lagos- and Jakarta-like
/// devices — VarSaw with vs without Global sparsity at a fixed budget.
pub fn fig16(opts: &Options) {
    println!("Fig.16: 5-qubit TFIM (3 Pauli terms) on lagos-like and jakarta-like devices");
    let iters = opts.iterations().min(400);
    let h = tfim_paper();
    let reference = h.ground_energy(1);
    let mut t = Table::new([
        "device",
        "policy",
        "iterations",
        "circuits",
        "converged energy",
    ]);
    for device in [DeviceModel::lagos_like(), DeviceModel::jakarta_like()] {
        let mk = |seed: u64| {
            let ansatz = EfficientSu2::new(5, 2, Entanglement::Full);
            let mut s = RunSetup::new(h.clone(), ansatz, device.clone(), seed);
            // Real-device shot counts are modest; the extra shot noise also
            // reflects the hardware setting.
            s.shots = 256;
            s
        };
        // Real-device budgets are tight: give the no-sparsity variant only
        // half the iterations' worth of circuits, as the paper's
        // "minimal circuit overheads" regime implies.
        let budget = budget_for(&mk(1), no_sparsity(), iters / 4);
        let trials = opts.trials().max(3);
        let without = run_trials(mk, no_sparsity(), &budgeted(budget), trials);
        let with_sp = run_trials(mk, adaptive(), &budgeted(budget), trials);
        crate::exps::tuning::write_series_pub(
            opts,
            "fig16",
            &format!("fig16_{}.csv", device.name()),
            &[("no-sparsity", &without[0]), ("with-sparsity", &with_sp[0])],
        );
        let mean_iters = |outs: &[varsaw::MethodOutcome]| {
            outs.iter().map(|o| o.trace.iterations()).sum::<usize>() / outs.len()
        };
        for (name, outs) in [("w/o sparsity", &without), ("w/ sparsity", &with_sp)] {
            t.row([
                device.name().to_string(),
                name.to_string(),
                mean_iters(outs).to_string(),
                outs[0].trace.total_circuits().to_string(),
                fmt(mean_converged(outs, TAIL)),
            ]);
        }
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "fig16", "fig16_summary.csv"));
    println!("reference (exact E0): {}", fmt(reference));
    println!(
        "paper shape: sparse VarSaw completes ~4x the iterations and reaches a better objective"
    );
}

/// Shared engine for Tables 3 and 4: % inaccuracy mitigated by VarSaw with
/// selective Global execution over VarSaw without it, at a fixed budget.
fn selective_vs_nonselective(spec: &MoleculeSpec, ansatz: EfficientSu2, opts: &Options) -> f64 {
    let iters = opts.iterations();
    let trials = opts.trials();
    let mk = |seed: u64| {
        let h = molecular_hamiltonian(spec);
        let mut s = RunSetup::new(h, ansatz.clone(), DeviceModel::mumbai_like(), seed);
        s.shots = 1024;
        s
    };
    let budget = budget_for(&mk(1), no_sparsity(), iters);
    // Reference: the exact ground energy — deterministic, unlike a
    // scaled-down noiseless VQE run whose basin luck would destabilize the
    // percentage at high parameter counts.
    let reference = molecular_hamiltonian(spec).ground_energy(spec.seed);
    let without = run_trials(
        |s| mk(s ^ spec.seed),
        no_sparsity(),
        &budgeted(budget),
        trials,
    );
    let with_sel = run_trials(|s| mk(s ^ spec.seed), adaptive(), &budgeted(budget), trials);
    // Median of seed-paired percentages.
    let mut per_trial: Vec<f64> = without
        .iter()
        .zip(&with_sel)
        .map(|(w, s)| {
            percent_gap_recovered(
                reference,
                w.trace.converged_energy(TAIL),
                s.trace.converged_energy(TAIL),
            )
        })
        .collect();
    per_trial.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = per_trial.len();
    if n % 2 == 1 {
        per_trial[n / 2]
    } else {
        0.5 * (per_trial[n / 2 - 1] + per_trial[n / 2])
    }
}

/// Table 3: selective execution across ansatz entanglement types.
pub fn table3(opts: &Options) {
    println!("Table 3: % inaccuracy mitigated by selective Globals, per ansatz type");
    let molecules = ["CH4", "H2O", "LiH"];
    let types = [
        ("Full", Entanglement::Full),
        ("Linear", Entanglement::Linear),
        ("Circular", Entanglement::Circular),
        ("Asymmetric", Entanglement::Asymmetric),
    ];
    let jobs: Vec<(String, Entanglement, MoleculeSpec)> = molecules
        .iter()
        .flat_map(|m| {
            let spec = MoleculeSpec::find(m, 6).expect("registry");
            types
                .iter()
                .map(move |(tn, te)| (tn.to_string(), *te, spec.clone()))
        })
        .collect();
    let results = parallel_map(jobs, |(_, te, spec)| {
        selective_vs_nonselective(spec, EfficientSu2::new(6, 2, *te), opts)
    });
    let mut t = Table::new(["workload", "Full", "Linear", "Circular", "Asymmetric"]);
    for (i, m) in molecules.iter().enumerate() {
        let row: Vec<String> = std::iter::once(format!("{m}-6"))
            .chain((0..4).map(|j| fmt(results[i * 4 + j])))
            .collect();
        t.row(row);
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "table3", "table3.csv"));
    println!("paper shape: positive in all 12 cells (23–96%)");
}

/// Table 4: selective execution across ansatz depths p ∈ {1, 2, 4, 8}.
pub fn table4(opts: &Options) {
    println!("Table 4: % inaccuracy mitigated by selective Globals, per ansatz depth");
    let molecules = ["CH4", "H2O", "LiH"];
    let depths = [1usize, 2, 4, 8];
    let jobs: Vec<(usize, MoleculeSpec)> = molecules
        .iter()
        .flat_map(|m| {
            let spec = MoleculeSpec::find(m, 6).expect("registry");
            depths.iter().map(move |&p| (p, spec.clone()))
        })
        .collect();
    let results = parallel_map(jobs, |(p, spec)| {
        selective_vs_nonselective(spec, EfficientSu2::new(6, *p, Entanglement::Full), opts)
    });
    let mut t = Table::new(["workload", "p = 1", "p = 2", "p = 4", "p = 8"]);
    for (i, m) in molecules.iter().enumerate() {
        let row: Vec<String> = std::iter::once(format!("{m}-6"))
            .chain((0..4).map(|j| fmt(results[i * 4 + j])))
            .collect();
        t.row(row);
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "table4", "table4.csv"));
    println!("paper shape: positive in 11 of 12 cells, shrinking at p = 8");
}

/// Fig.17: LiH-6 at p = 4, with vs without Global sparsity (trace).
pub fn fig17(opts: &Options) {
    println!("Fig.17: LiH-6, p=4 — VarSaw w/ and w/o global sparsity (fixed budget)");
    let spec = MoleculeSpec::find("LiH", 6).expect("registry");
    let iters = opts.iterations();
    let mk = |seed: u64| {
        let h = molecular_hamiltonian(&spec);
        let ansatz = EfficientSu2::new(6, 4, Entanglement::Full);
        let mut s = RunSetup::new(h, ansatz, DeviceModel::mumbai_like(), seed);
        s.shots = 1024;
        s
    };
    let budget = budget_for(&mk(1), no_sparsity(), iters);
    let outs = parallel_map(vec![no_sparsity(), adaptive()], |&m| {
        run_method(&mk(21), m, &budgeted(budget))
    });
    crate::exps::tuning::write_series_pub(
        opts,
        "fig17",
        "fig17_series.csv",
        &[("no-sparsity", &outs[0]), ("with-sparsity", &outs[1])],
    );
    let mut t = Table::new(["policy", "iterations", "circuits", "converged energy"]);
    for (name, o) in [("w/o sparsity", &outs[0]), ("w/ sparsity", &outs[1])] {
        t.row([
            name.to_string(),
            o.trace.iterations().to_string(),
            o.trace.total_circuits().to_string(),
            fmt(o.trace.converged_energy(TAIL)),
        ]);
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "fig17", "fig17_summary.csv"));
    println!("paper shape: sparsity converges lower by completing many more iterations");
}

/// Fig.18: VarSaw vs VarSaw + matrix-based mitigation on LiH-6 and H2O-6.
pub fn fig18(opts: &Options) {
    println!("Fig.18: VarSaw vs VarSaw+MBM");
    let iters = opts.iterations();
    let mut t = Table::new(["workload", "method", "converged energy"]);
    for name in ["LiH", "H2O"] {
        let spec = MoleculeSpec::find(name, 6).expect("registry");
        let outs = parallel_map(vec![false, true], |&mbm| {
            let mut setup = molecule_setup(&spec, 51);
            setup.mbm = mbm;
            run_method(&setup, adaptive(), &unlimited(iters))
        });
        crate::exps::tuning::write_series_pub(
            opts,
            "fig18",
            &format!("fig18_{}.csv", spec.label()),
            &[("varsaw", &outs[0]), ("varsaw+mbm", &outs[1])],
        );
        for (m, o) in [("varsaw", &outs[0]), ("varsaw+mbm", &outs[1])] {
            t.row([
                spec.label(),
                m.to_string(),
                fmt(o.trace.converged_energy(TAIL)),
            ]);
        }
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "fig18", "fig18_summary.csv"));
    println!("paper shape: MBM on top helps ~10% for H2O, negligibly (but less noisily) for LiH");
}

/// Fig.19 (Appendix A): subset-size sweep — accuracy improvement vs the
/// number of subset circuits, for window sizes 2–5.
pub fn fig19(opts: &Options) {
    println!("Fig.19: subset-size sweep (single mitigated instance at tuned parameters)");
    let iters = opts.iterations();
    let mut t = Table::new([
        "workload",
        "window",
        "subset circuits",
        "% accuracy improvement",
    ]);
    let jobs: Vec<MoleculeSpec> = ["LiH", "CH4", "H2O"]
        .iter()
        .map(|m| MoleculeSpec::find(m, 6).expect("registry"))
        .collect();
    let rows = parallel_map(jobs, |spec| {
        let h = molecular_hamiltonian(spec);
        // Tune noiselessly, then evaluate mitigation quality at those
        // parameters (as the paper does for this appendix).
        let setup = with_device(
            molecule_setup(spec, spec.seed),
            DeviceModel::noiseless(spec.qubits),
        );
        let params = run_method(&setup, Method::Baseline, &unlimited(iters))
            .trace
            .final_params;
        let ansatz = EfficientSu2::new(spec.qubits, 2, Entanglement::Full);
        let dev = DeviceModel::mumbai_like();
        let mut ideal = BaselineEvaluator::new(
            &h,
            ansatz.clone(),
            SimExecutor::exact(DeviceModel::noiseless(spec.qubits), 1),
        );
        let mut noisy =
            BaselineEvaluator::new(&h, ansatz.clone(), SimExecutor::exact(dev.clone(), 1));
        let e_ideal = ideal.evaluate(&params);
        let e_noisy = noisy.evaluate(&params);
        let mut per_window = Vec::new();
        for window in 2..=5usize {
            let mut vs = VarSawEvaluator::new(
                &h,
                ansatz.clone(),
                window,
                varsaw::TemporalPolicy::EveryIteration,
                SimExecutor::exact(dev.clone(), 1),
            );
            let e_vs = vs.evaluate(&params);
            let circuits = SpatialPlan::new(&h, window).stats().varsaw_subsets;
            per_window.push((
                window,
                circuits,
                percent_gap_recovered(e_ideal, e_noisy, e_vs),
            ));
        }
        (spec.label(), per_window)
    });
    for (label, per_window) in rows {
        for (window, circuits, pct) in per_window {
            t.row([
                label.clone(),
                window.to_string(),
                circuits.to_string(),
                fmt(pct),
            ]);
        }
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "fig19", "fig19.csv"));
    println!("paper shape: accuracy varies little with window size, but window 2 needs the");
    println!("             fewest subset circuits — so 2 is the clear choice");
}

/// Table 5 (Appendix B): sparsity benefit across noise scales on H2O-6.
pub fn table5(opts: &Options) {
    println!("Table 5: baseline vs VarSaw no-/max-sparsity across noise scales (H2O-6)");
    let spec = MoleculeSpec::find("H2O", 6).expect("registry");
    let iters = opts.iterations();
    let scales = [5.0, 3.0, 1.0, 0.8, 0.5, 0.1, 0.05];
    let rows = parallel_map(scales.to_vec(), |&scale| {
        let device = DeviceModel::mumbai_like().scaled(scale);
        let base = run_method(
            &with_device(molecule_setup(&spec, 61), device.clone()),
            Method::Baseline,
            &unlimited(iters),
        );
        let nosp = run_method(
            &with_device(molecule_setup(&spec, 61), device.clone()),
            no_sparsity(),
            &unlimited(iters),
        );
        let maxsp = run_method(
            &with_device(molecule_setup(&spec, 61), device),
            max_sparsity(),
            &unlimited(iters),
        );
        (
            scale,
            base.trace.converged_energy(TAIL),
            nosp.trace.converged_energy(TAIL),
            maxsp.trace.converged_energy(TAIL),
        )
    });
    let mut t = Table::new([
        "noise scale",
        "baseline",
        "varsaw (no sparsity)",
        "varsaw (max sparsity)",
    ]);
    let mut wins = 0;
    for (scale, b, n, m) in rows {
        if m <= b {
            wins += 1;
        }
        t.row([format!("{scale}"), fmt(b), fmt(n), fmt(m)]);
    }
    t.print();
    t.write_reports(&results_path(&opts.out_dir, "table5", "table5.csv"));
    println!(
        "paper shape: max-sparsity beats the baseline at every scale; measured: {wins}/{} scales",
        scales.len()
    );
}
