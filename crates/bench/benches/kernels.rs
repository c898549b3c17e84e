//! Criterion benchmarks for the computational kernels every experiment
//! leans on: state-vector simulation, Pauli algebra, noise channels,
//! Bayesian reconstruction, energy assembly, grouping and the Lanczos
//! eigensolver.

use chem::{molecular_hamiltonian, MoleculeSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitigation::{reconstruct, Pmf, ReconstructionConfig, Reconstructor};
use pauli::{group_by_cover, PauliString};
use qnoise::{apply_readout_errors, ReadoutError};
use qsim::shard::shards_and_workers;
use qsim::{Circuit, CircuitPlan, Parallelism, ShardedState, Statevector};
use rand::{rngs::StdRng, SeedableRng};
use vqe::{EfficientSu2, Entanglement, GroupedHamiltonian};

fn ansatz_circuit(n: usize) -> Circuit {
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    a.circuit(&a.initial_parameters(7))
}

fn bench_statevector(c: &mut Criterion) {
    // The canonical `efficient_su2_*` entries run the serial dense plane —
    // what every caller of `apply_circuit` gets.
    let mut g = c.benchmark_group("statevector");
    for n in [6usize, 8, 10, 12] {
        let circuit = ansatz_circuit(n);
        g.bench_function(format!("efficient_su2_{n}q"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_circuit(&circuit);
                std::hint::black_box(st.probabilities()[0])
            })
        });
    }
    // Serial-vs-threads pairs around `Parallelism::Auto`'s 2^12-amplitude
    // threshold, so the crossover is measurable from one bench run. The
    // threads row prepares the way `vqe::SimExecutor` does under
    // `Threads(num_threads())`: compile, then run on 2^⌊log₂ w⌋ shards
    // walked by `w` workers. On a single-core container it is the serial
    // plane.
    for n in [10usize, 11, 12] {
        let circuit = ansatz_circuit(n);
        g.bench_function(format!("efficient_su2_{n}q_serial"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_circuit(&circuit);
                std::hint::black_box(st.probabilities()[0])
            })
        });
        // Stable id (no thread count embedded) so archived BENCH_*.json
        // records match across runners; the shape is reported on its own
        // line instead.
        let threads = parallel::num_threads();
        let (shards, workers) = shards_and_workers(Parallelism::Threads(threads), n, 0);
        println!("bench statevector/efficient_su2_{n}q_threads uses {shards} shard(s) x {workers} worker(s)");
        g.bench_function(format!("efficient_su2_{n}q_threads"), |b| {
            b.iter(|| {
                let plan = CircuitPlan::compile(&circuit);
                let mut st =
                    ShardedState::zero(n, shards).with_parallelism(Parallelism::Threads(workers));
                st.apply_plan(&plan);
                std::hint::black_box(st.to_statevector().probabilities()[0])
            })
        });
    }
    g.finish();
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
    let mut g = c.benchmark_group("grouping");
    for label in ["CH4-8", "H2O-12"] {
        let (name, qubits) = label.split_once('-').unwrap();
        let spec = MoleculeSpec::find(name, qubits.parse().unwrap()).unwrap();
        let h = molecular_hamiltonian(&spec);
        let strings: Vec<PauliString> = h
            .measurable_terms()
            .iter()
            .map(|t| t.string().clone())
            .collect();
        g.bench_function(format!("group_by_cover_{label}"), |b| {
            b.iter(|| std::hint::black_box(group_by_cover(&strings).len()))
        });
    }
    g.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    // An 8-qubit global PMF with 7 window locals — one basis circuit's
    // JigSaw reconstruction. The canonical id measures the one-shot
    // `reconstruct()` path (key tables built per call); the `_cached` row
    // is what the VQE evaluators actually pay from iteration two on — a
    // persistent `Reconstructor` whose key tables and scratch survive.
    // The full serial/parallel matrix lives in `benches/reconstruction.rs`.
    let n = 8usize;
    let circuit = ansatz_circuit(n);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&circuit);
    let qubits: Vec<usize> = (0..n).collect();
    let global = Pmf::new(qubits.clone(), st.probabilities());
    let locals: Vec<Pmf> = (0..n - 1).map(|w| global.marginal(&[w, w + 1])).collect();
    c.bench_function("reconstruction/bayesian_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/bayesian_8q_7windows_cached", |b| {
        b.iter(|| {
            std::hint::black_box(engine.reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
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
    // 1 and 2 qubits are subset-circuit widths (VarSaw's windows measure
    // 2), 8 and 10 full-register Globals on H2O-8 and H6-10.
    for n in [1usize, 2, 8, 10] {
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
    targets = bench_statevector, bench_pauli_expectation, bench_energy, bench_grouping,
        bench_reconstruction, bench_noise_channel, bench_sampling, bench_lanczos
}
criterion_main!(kernels);
