//! Fused-vs-unfused statevector execution on the EfficientSU2 ansatz —
//! the circuit shape every VQE iteration re-executes.
//!
//! Pairs to compare (CI archives them as `BENCH_fusion.json`):
//!
//! - `*_unfused_serial` vs `*_fused_serial`: gate-by-gate legacy execution
//!   against a precompiled [`qsim::CircuitPlan`] on one thread.
//! - `plan_compile_full_10q`: what compiling the main-evaluation ansatz
//!   costs on top of executing it, paid once per evaluation.

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
            println!(
                "bench fusion efficient_su2_{label}_{n}q: {} gates -> {} fused ops",
                circuit.gate_count(),
                fused.op_count()
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
    // Compilation overhead on the main-evaluation shape.
    let circuit = ansatz_circuit(10, Entanglement::Full);
    g.bench_function("plan_compile_full_10q", |b| {
        b.iter(|| std::hint::black_box(CircuitPlan::compile(&circuit).op_count()))
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
