//! Fused-vs-unfused statevector execution on the EfficientSU2 ansatz —
//! the circuit shape every VQE iteration re-executes.
//!
//! Pairs to compare (CI archives them as `BENCH_fusion.json`):
//!
//! - `*_unfused_serial` vs `*_fused_serial`: gate-by-gate legacy execution
//!   against a precompiled [`qsim::CircuitPlan`] on one thread.
//! - `plan_compile` / `plan_rebind`: what a cache miss and a cache hit
//!   cost on top of execution (rebind is the per-VQE-iteration price).
//! - `entangler_*_blocked` vs `entangler_*_pergate`: entangler-block
//!   fusion (adjacent same-pair two-qubit gates and their rotation
//!   sandwiches collapsed into 4×4 `Block4` sweeps) against the same
//!   plan with per-gate two-qubit sweeps
//!   ([`qsim::CircuitPlan::compile_unblocked`]).

use criterion::{criterion_group, criterion_main, Criterion};
use qsim::{Circuit, CircuitPlan, Statevector};
use vqe::{EfficientSu2, Entanglement};

fn ansatz_circuit(n: usize, entanglement: Entanglement) -> Circuit {
    let a = EfficientSu2::new(n, 2, entanglement);
    a.circuit(&a.initial_parameters(7))
}

fn bench_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("fusion");
    for (label, entanglement) in [
        ("full", Entanglement::Full),
        ("linear", Entanglement::Linear),
    ] {
        for n in [10usize, 12] {
            let circuit = ansatz_circuit(n, entanglement);
            let fused = CircuitPlan::compile(&circuit);
            let unfused = CircuitPlan::compile_unfused(&circuit);
            println!(
                "bench fusion efficient_su2_{label}_{n}q: {} gates -> {} fused ops ({} unfused)",
                circuit.gate_count(),
                fused.op_count(),
                unfused.op_count()
            );
            g.bench_function(format!("efficient_su2_{label}_{n}q_unfused_serial"), |b| {
                b.iter(|| {
                    let mut st = Statevector::zero(n);
                    st.apply_circuit_unfused(&circuit);
                    std::hint::black_box(st.amplitudes()[0])
                })
            });
            g.bench_function(format!("efficient_su2_{label}_{n}q_fused_serial"), |b| {
                b.iter(|| {
                    let mut st = Statevector::zero(n);
                    st.apply_plan(&fused);
                    std::hint::black_box(st.amplitudes()[0])
                })
            });
        }
    }
    // Entangler-block fusion: the blocked plan against the same
    // fused-and-folded plan with per-gate two-qubit sweeps, isolating
    // what the 4x4 block kernels buy on the ansatz shapes.
    for (label, entanglement) in [
        ("full", Entanglement::Full),
        ("linear", Entanglement::Linear),
    ] {
        for n in [10usize, 12] {
            let circuit = ansatz_circuit(n, entanglement);
            let blocked = CircuitPlan::compile(&circuit);
            let pergate = CircuitPlan::compile_unblocked(&circuit);
            println!(
                "bench fusion entangler_{label}_{n}q: {} pergate ops -> {} blocked ({} blocks)",
                pergate.op_count(),
                blocked.op_count(),
                blocked.block_count()
            );
            g.bench_function(format!("entangler_{label}_{n}q_blocked_serial"), |b| {
                b.iter(|| {
                    let mut st = Statevector::zero(n);
                    st.apply_plan(&blocked);
                    std::hint::black_box(st.amplitudes()[0])
                })
            });
            g.bench_function(format!("entangler_{label}_{n}q_pergate_serial"), |b| {
                b.iter(|| {
                    let mut st = Statevector::zero(n);
                    st.apply_plan(&pergate);
                    std::hint::black_box(st.amplitudes()[0])
                })
            });
        }
    }
    // Compilation overhead: a cache miss (full analysis) and a cache hit
    // (rebind: matrix products only) on the main-evaluation shape.
    let circuit = ansatz_circuit(10, Entanglement::Full);
    let plan = CircuitPlan::compile(&circuit);
    g.bench_function("plan_compile_full_10q", |b| {
        b.iter(|| std::hint::black_box(CircuitPlan::compile(&circuit).op_count()))
    });
    g.bench_function("plan_rebind_full_10q", |b| {
        b.iter(|| std::hint::black_box(plan.rebind(&circuit).op_count()))
    });
    g.finish();
}

fn config() -> Criterion {
    // Fused-vs-unfused ratios gate CI, so this target spends a longer
    // measurement window than the kernel benches: scheduler jitter on a
    // shared single-core runner otherwise swings 10-sample means by tens
    // of percent.
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2000))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = fusion;
    config = config();
    targets = bench_fusion
}
criterion_main!(fusion);
