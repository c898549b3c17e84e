//! Benchmarks for the Bayesian-reconstruction engine, CI-archived as
//! `BENCH_reconstruction.json` (see the bench-smoke job): the one-shot
//! compatibility path, the key-cached persistent path the VQE evaluators
//! run, multi-round sweeps, one H6-10 basis as VarSaw reconstructs it,
//! every H6-10 basis as one VarSaw evaluation reconstructs them, and a
//! 16-qubit sweep over a multi-chunk grid.

use chem::{molecular_hamiltonian, MoleculeSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use mitigation::{reconstruct, Pmf, ReconstructionConfig, Reconstructor};
use qsim::Statevector;
use varsaw::SpatialPlan;
use vqe::{basis_rotation, EfficientSu2, Entanglement};

/// The 8-qubit EfficientSU2 output distribution with 7 pairwise window
/// locals — one basis circuit's JigSaw reconstruction, as in `kernels.rs`.
fn jigsaw_8q() -> (Pmf, Vec<Pmf>) {
    let n = 8usize;
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&a.circuit(&a.initial_parameters(7)));
    let global = Pmf::new((0..n).collect(), st.probabilities());
    let locals: Vec<Pmf> = (0..n - 1).map(|w| global.marginal(&[w, w + 1])).collect();
    (global, locals)
}

/// One H6-10 basis as VarSaw reconstructs it: a 10-qubit global and the
/// 1- and 2-qubit sliding-window locals the spatial plan covers it with,
/// high-bit windows included. The basis is the one with the most windows;
/// the evidence comes from a second ansatz state, so every update really
/// reweights.
fn h6_basis_10q() -> (Pmf, Vec<Pmf>) {
    let n = 10usize;
    let spec = MoleculeSpec::find("H6", n).expect("H6-10 is a Table 2 entry");
    let plan = SpatialPlan::new(&molecular_hamiltonian(&spec), 2);
    let basis = (0..plan.bases().len())
        .max_by_key(|&b| plan.coverage(b).len())
        .expect("H6 has measurable terms");
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    let probs = |seed| {
        let mut st = Statevector::zero(n);
        st.apply_circuit(&a.circuit(&a.initial_parameters(seed)));
        st.probabilities()
    };
    let global = Pmf::new((0..n).collect(), probs(7));
    let evidence = Pmf::new((0..n).collect(), probs(8));
    let locals: Vec<Pmf> = plan
        .coverage(basis)
        .iter()
        .map(|wc| evidence.marginal(&wc.subset.support()))
        .collect();
    let windows: Vec<&[usize]> = locals.iter().map(Pmf::qubits).collect();
    println!("bench reconstruction/cached_10q_h6_basis windows {windows:?}");
    (global, locals)
}

/// Every H6-10 basis as one VarSaw evaluation reconstructs them: per
/// basis, a full-width 10-qubit Global (the ansatz state rotated into the
/// basis, as a Global circuit measures it) and one local per covering
/// window (1- and 2-qubit, as the spatial plan gives them). The evidence
/// comes from a second ansatz state, so the updates really reweight and
/// many owe a normalize.
fn h6_all_bases_10q() -> Vec<(Pmf, Vec<Pmf>)> {
    let n = 10usize;
    let spec = MoleculeSpec::find("H6", n).expect("H6-10 is a Table 2 entry");
    let plan = SpatialPlan::new(&molecular_hamiltonian(&spec), 2);
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    let state = |seed| {
        let mut st = Statevector::zero(n);
        st.apply_circuit(&a.circuit(&a.initial_parameters(seed)));
        st
    };
    let prior = state(7);
    let all: Vec<usize> = (0..n).collect();
    let evidence = Pmf::new(all.clone(), state(8).probabilities());
    let cases: Vec<(Pmf, Vec<Pmf>)> = plan
        .bases()
        .iter()
        .enumerate()
        .map(|(b, basis)| {
            let mut rotated = prior.clone();
            rotated.apply_circuit(&basis_rotation(basis));
            let locals = plan
                .coverage(b)
                .iter()
                .map(|wc| evidence.marginal(&wc.subset.support()))
                .collect();
            (Pmf::new(all.clone(), rotated.probabilities()), locals)
        })
        .collect();
    let windows: usize = cases.iter().map(|(_, l)| l.len()).sum();
    let single: usize = cases
        .iter()
        .flat_map(|(_, l)| l)
        .filter(|l| l.num_qubits() == 1)
        .count();
    println!(
        "bench reconstruction/h6_10_all_bases_cached bases {} windows {windows} (1-qubit {single})",
        cases.len()
    );
    cases
}

/// A synthetic n-qubit global with pairwise locals that disagree with its
/// marginals (so every update really reweights). Deterministic, no
/// statevector: 2^n amplitudes would dominate setup at large n.
fn synthetic(n: usize) -> (Pmf, Vec<Pmf>) {
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x.wrapping_mul(2654435761)) % 1000 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let locals: Vec<Pmf> = (0..n - 1)
        .map(|w| Pmf::new(vec![w, w + 1], vec![0.4, 0.1, 0.2, 0.3]))
        .collect();
    (global, locals)
}

fn bench_oneshot(c: &mut Criterion) {
    let (global, locals) = jigsaw_8q();
    c.bench_function("reconstruction/oneshot_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
}

fn bench_cached(c: &mut Criterion) {
    let (global, locals) = jigsaw_8q();
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/cached_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(engine.reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
    let rounds4 = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 4,
    };
    c.bench_function("reconstruction/cached_rounds4_8q_7windows", |b| {
        b.iter(|| std::hint::black_box(engine.reconstruct(&global, &locals, rounds4)))
    });
    let (global, locals) = h6_basis_10q();
    c.bench_function("reconstruction/cached_10q_h6_basis", |b| {
        b.iter(|| {
            std::hint::black_box(engine.reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
}

fn bench_all_bases(c: &mut Criterion) {
    let cases = h6_all_bases_10q();
    let cfg = ReconstructionConfig::default();
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/h6_10_all_bases_cached", |b| {
        b.iter(|| {
            for (global, locals) in &cases {
                std::hint::black_box(engine.reconstruct(global, locals, cfg));
            }
        })
    });
}

fn bench_multi_chunk(c: &mut Criterion) {
    // 16 qubits: 65536 outcomes over 16 chunks, reduced in chunk order.
    let (global, locals) = synthetic(16);
    let cfg = ReconstructionConfig::default();
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/serial_16q_15windows", |b| {
        b.iter(|| std::hint::black_box(engine.reconstruct(&global, &locals, cfg)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = reconstruction;
    config = config();
    targets = bench_oneshot, bench_cached, bench_all_bases, bench_multi_chunk
}
criterion_main!(reconstruction);
