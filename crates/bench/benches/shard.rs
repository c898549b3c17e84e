//! The sharded amplitude-plane executor and the batched parameter-set
//! dispatch — the two halves of the scale tier above the dense engine.
//!
//! Pairs to compare (CI archives them as `BENCH_shard.json`):
//!
//! - `single_plane_{n}q` vs `sharded_{n}q_{s}shards`: one compiled
//!   EfficientSU2 plan applied to the dense plane against the sharded
//!   executor at 16–20 qubits. Shards batch runs of local ops per shard
//!   (one cache-resident pass instead of one full-plane sweep per op),
//!   so the sharded side wins on states past the cache sizes even
//!   single-threaded; the printed analysis shows how many exchanges the
//!   hot-qubit remap left over.
//! - `spsa_probes_12q_8x_{sequential,batched}`: eight SPSA-style probe
//!   evaluations of a 12-qubit TFIM objective. The sequential side
//!   submits one circuit dispatch at a time (`prepare` +
//!   `run_prepared_all` per measurement group — the execution model
//!   every evaluator used before batched dispatch existed); the batched
//!   side is `BaselineEvaluator::evaluate_batch`, which plans the whole
//!   family up front (shared compiled plans, scratch reuse, direct
//!   full-register reads) and reproduces the sequential results seed for
//!   seed — the ratio is pure per-dispatch overhead amortization.

use chem::tfim_chain;
use criterion::{criterion_group, criterion_main, Criterion};
use mitigation::Pmf;
use qnoise::DeviceModel;
use qsim::{CircuitPlan, ShardPlan, ShardedState, Statevector};
use vqe::{
    BaselineEvaluator, EfficientSu2, EnergyEvaluator, Entanglement, GroupedHamiltonian, SimExecutor,
};

/// Shard counts sized so one shard sits comfortably inside the cache
/// hierarchy (2¹²–2¹⁴ amplitudes = 64 KiB–256 KiB).
fn shard_count(n: usize) -> usize {
    match n {
        16 => 16,
        18 => 64,
        _ => 64,
    }
}

fn bench_sharded_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard");
    for n in [16usize, 18, 20] {
        let ansatz = EfficientSu2::new(n, 2, Entanglement::Linear);
        let circuit = ansatz.circuit(&ansatz.initial_parameters(7));
        let plan = CircuitPlan::compile(&circuit);
        let shards = shard_count(n);
        let sp = ShardPlan::analyze(&plan, shards);
        println!(
            "bench shard {n}q/{shards} shards: {} ops -> {} local, {} exchanges, {} plane swaps",
            plan.op_count(),
            sp.local_count(),
            sp.exchange_count(),
            sp.plane_swap_count()
        );
        g.bench_function(format!("single_plane_{n}q"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_plan(&plan);
                std::hint::black_box(st.amplitudes()[0])
            })
        });
        g.bench_function(format!("sharded_{n}q_{shards}shards"), |b| {
            b.iter(|| {
                let mut st = ShardedState::zero(n, shards);
                st.apply_shard_plan(&sp);
                std::hint::black_box(st.norm_sqr())
            })
        });
    }
    g.finish();
}

fn bench_batched_probes(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard");
    let n = 12;
    let h = tfim_chain(n, 1.0, 0.7, false);
    let ansatz = EfficientSu2::new(n, 2, Entanglement::Linear);
    let probes: Vec<Vec<f64>> = (0..8).map(|i| ansatz.initial_parameters(i)).collect();
    let probe_refs: Vec<&[f64]> = probes.iter().map(|p| p.as_slice()).collect();
    let grouped = GroupedHamiltonian::new(&h);
    let mut seq_exec = SimExecutor::new(DeviceModel::mumbai_like(), 1024, 7);
    let mut eval = BaselineEvaluator::new(
        &h,
        ansatz.clone(),
        SimExecutor::new(DeviceModel::mumbai_like(), 1024, 7),
    );
    println!(
        "bench shard spsa_probes_12q: {} measurement groups x 8 probes",
        grouped.num_groups()
    );
    // Warm both plan caches so each side pays rebinds only.
    eval.evaluate(&probes[0]);
    let warm = seq_exec.prepare(&ansatz.circuit(&probes[0]));
    grouped.measure(&mut seq_exec, &warm);

    g.bench_function("spsa_probes_12q_8x_sequential", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in &probes {
                let state = seq_exec.prepare(&ansatz.circuit(p));
                let pmfs: Vec<Pmf> = grouped
                    .groups()
                    .iter()
                    .map(|grp| seq_exec.run_prepared_all(&state, &grp.basis))
                    .collect();
                acc += grouped.energy_from_pmfs(&pmfs);
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("spsa_probes_12q_8x_batched", |b| {
        b.iter(|| std::hint::black_box(eval.evaluate_batch(&probe_refs).iter().sum::<f64>()))
    });
    g.finish();
}

fn config() -> Criterion {
    // The sharded-vs-dense ratios gate CI and single iterations at 20
    // qubits run hundreds of milliseconds, so this target uses few
    // samples inside a generous measurement window.
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = shard;
    config = config();
    targets = bench_sharded_apply, bench_batched_probes
}
criterion_main!(shard);
