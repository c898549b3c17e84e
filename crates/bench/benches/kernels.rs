//! Criterion benchmarks for the computational kernels every experiment
//! leans on: subset reads, Pauli algebra, noise channels, Bayesian
//! reconstruction, energy assembly, grouping, shot sampling and the
//! Lanczos eigensolver. Only rows whose mean moved by less than 1.5× over
//! three rounds on one build are kept.

use chem::{molecular_hamiltonian, MoleculeSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitigation::{Pmf, Reconstructor};
use pauli::{group_by_cover, PauliString};
use qnoise::DeviceModel;
use qnoise::{apply_readout_errors, ReadoutError};
use qsim::{Circuit, Statevector};
use rand::{rngs::StdRng, SeedableRng};
use varsaw::SpatialPlan;
use vqe::{EfficientSu2, Entanglement, GroupedHamiltonian, SimExecutor, SubsetReads};

fn ansatz_circuit(n: usize) -> Circuit {
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    a.circuit(&a.initial_parameters(7))
}

fn bench_subset_reads(c: &mut Criterion) {
    // One VarSaw evaluation's subset reads at window 4 on LiH-6, Fig.19's
    // shape: the 4-qubit circuits are wider than a density read and
    // rotate, while the narrower ones are read from reduced density
    // matrices, so the row watches both sides of the width crossover.
    // Each iteration loads the reduced density matrices once and reads
    // every circuit. The executor is exact, so the row times the reads and
    // the readout channel, not the shot draw.
    let spec = MoleculeSpec::find("LiH", 6).unwrap();
    let plan = SpatialPlan::new(&molecular_hamiltonian(&spec), 4);
    let mut reads = SubsetReads::new(plan.subset_groups().iter().map(|g| &g.basis));
    let mut st = Statevector::zero(6);
    st.apply_circuit(&ansatz_circuit(6));
    let mut exec = SimExecutor::exact(DeviceModel::mumbai_like(), 7);
    c.bench_function("subset_reads/lih_6_window4", |b| {
        b.iter(|| {
            let loaded = reads.load(&st);
            let mut acc = 0.0;
            for i in 0..plan.subset_groups().len() {
                acc += exec.run_subset(&loaded, i).probs()[0];
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_pauli_expectation(c: &mut Criterion) {
    let n = 10;
    let circuit = ansatz_circuit(n);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&circuit);
    let string: PauliString = "ZXIZYIZXIZ".parse().unwrap();
    c.bench_function("pauli/exact_expectation_10q", |b| {
        b.iter(|| std::hint::black_box(string.expectation(&st)))
    });
}

fn bench_energy(c: &mut Criterion) {
    // One energy assembly of a VarSaw H6-10 evaluation: 918 terms in 463
    // groups, each group's expectations over its own full-register
    // 1024-outcome Output-PMF.
    let spec = MoleculeSpec::find("H6", 10).unwrap();
    let grouped = GroupedHamiltonian::new(&molecular_hamiltonian(&spec));
    let n = grouped.num_qubits();
    let mut st = Statevector::zero(n);
    st.apply_circuit(&ansatz_circuit(n));
    let global = Pmf::new((0..n).collect(), st.probabilities());
    let pmfs = vec![global; grouped.num_groups()];
    c.bench_function("energy/h6_10_energy_from_pmfs", |b| {
        b.iter(|| std::hint::black_box(grouped.energy_from_pmfs(&pmfs)))
    });
}

fn bench_grouping(c: &mut Criterion) {
    let spec = MoleculeSpec::find("H2O", 12).unwrap();
    let strings: Vec<PauliString> = molecular_hamiltonian(&spec)
        .measurable_terms()
        .iter()
        .map(|t| t.string().clone())
        .collect();
    c.bench_function("grouping/group_by_cover_H2O-12", |b| {
        b.iter(|| std::hint::black_box(group_by_cover(&strings).len()))
    });
}

fn bench_reconstruction(c: &mut Criterion) {
    // An 8-qubit global PMF with 7 window locals — one basis circuit's
    // JigSaw reconstruction, as the VQE evaluators pay for it from
    // iteration two on: a persistent `Reconstructor` whose key tables and
    // scratch survive. The key-cached H6-10 rows, over exact and over
    // shot-sampled Globals, and the 16-qubit row live in
    // `benches/reconstruction.rs`.
    let n = 8usize;
    let circuit = ansatz_circuit(n);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&circuit);
    let qubits: Vec<usize> = (0..n).collect();
    let global = Pmf::new(qubits.clone(), st.probabilities());
    let locals: Vec<Pmf> = (0..n - 1).map(|w| global.marginal(&[w, w + 1])).collect();
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/bayesian_8q_7windows_cached", |b| {
        b.iter(|| {
            let mut out = global.clone();
            engine.sweep(&mut out, &locals);
            std::hint::black_box(out)
        })
    });
}

fn bench_noise_channel(c: &mut Criterion) {
    // Full-register Global widths on H2O-8 and H6-10.
    for n in [8usize, 10] {
        let errors = vec![ReadoutError::new(0.02, 0.05); n];
        let dim = 1usize << n;
        let norm = (dim * (dim + 1) / 2) as f64;
        let base: Vec<f64> = (0..dim).map(|i| (i as f64 + 1.0) / norm).collect();
        c.bench_function(format!("noise/readout_channel_{n}q"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut probs| {
                    apply_readout_errors(&mut probs, &errors);
                    std::hint::black_box(probs[0])
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_sampling(c: &mut Criterion) {
    // 1 qubit is a subset-circuit width, 10 a full-register Global on
    // H6-10.
    for n in [1usize, 10] {
        let circuit = ansatz_circuit(n);
        let mut st = Statevector::zero(n);
        st.apply_circuit(&circuit);
        let probs = st.probabilities();
        c.bench_function(format!("sampling/1024_shots_{n}q"), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| std::hint::black_box(qsim::sample_counts(&probs, 1024, &mut rng)))
        });
    }
}

fn bench_lanczos(c: &mut Criterion) {
    let spec = MoleculeSpec::find("CH4", 6).unwrap();
    let h = molecular_hamiltonian(&spec);
    c.bench_function("lanczos/ground_energy_ch4_6", |b| {
        b.iter(|| std::hint::black_box(h.ground_energy(1)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_subset_reads, bench_pauli_expectation, bench_energy,
        bench_grouping,
        bench_reconstruction, bench_noise_channel, bench_sampling, bench_lanczos
}
criterion_main!(kernels);
