//! Telemetry overhead: what the instrumentation costs a representative
//! VQE iteration.
//!
//! Rows:
//!
//! - `vqe_iteration_10q` — the iteration as the build ships it. In the
//!   default build the spans compile to no-ops, so this row carries no
//!   instrumentation by construction.
//! - `vqe_iteration_10q_recording` / `_switched_off` — only with
//!   `--features telemetry`: the same iteration with recording active
//!   (spans + atomics on the hot path) and with the runtime switch off
//!   (compiled-in spans, branch-only). Their ratio to the first row is
//!   the measured overhead quoted in ARCHITECTURE.md.

use criterion::{criterion_group, criterion_main, Criterion};
use qnoise::DeviceModel;
use vqe::{EfficientSu2, Entanglement, SimExecutor};

const SHOTS: u64 = 1024;
const SEED: u64 = 23;
const NUM_QUBITS: usize = 10;

/// One representative iteration: prepare the ansatz, two Globals, three
/// subset reads — the same shape the `telemetry` experiment attributes.
fn iteration() -> f64 {
    let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), SHOTS, SEED);
    let ansatz = EfficientSu2::new(NUM_QUBITS, 2, Entanglement::Linear);
    let circuit = ansatz.circuit(&ansatz.initial_parameters(5));
    let state = exec.prepare(&circuit);
    let globals: [pauli::PauliString; 2] =
        ["ZZZZZZZZZZ".parse().unwrap(), "XXXXXXXXXX".parse().unwrap()];
    let subsets: [pauli::PauliString; 3] = [
        "ZZIIIIIIII".parse().unwrap(),
        "IIXXXIIIII".parse().unwrap(),
        "IIIIIYYZII".parse().unwrap(),
    ];
    let mut acc = 0.0;
    for basis in &globals {
        acc += exec.run_prepared_all(&state, basis).probs()[0];
    }
    for basis in &subsets {
        acc += exec.run_prepared(&state, basis).probs()[0];
    }
    acc
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    println!(
        "bench telemetry vqe_iteration_{NUM_QUBITS}q: shots={SHOTS}, spans compiled {}",
        if telemetry::compiled() { "in" } else { "out" }
    );

    g.bench_function(format!("vqe_iteration_{NUM_QUBITS}q"), |b| {
        b.iter(|| std::hint::black_box(iteration()))
    });

    // The instrumented variants only exist when the spans are compiled
    // in; results stay bit-identical either way (recording is pure
    // observation), so the reference check below is unconditional.
    if telemetry::compiled() {
        let reference = iteration();
        telemetry::set_active(true);
        assert_eq!(iteration(), reference, "recording must not perturb results");
        g.bench_function(format!("vqe_iteration_{NUM_QUBITS}q_recording"), |b| {
            b.iter(|| std::hint::black_box(iteration()))
        });
        telemetry::set_active(false);
        assert_eq!(
            iteration(),
            reference,
            "the switch must not perturb results"
        );
        g.bench_function(format!("vqe_iteration_{NUM_QUBITS}q_switched_off"), |b| {
            b.iter(|| std::hint::black_box(iteration()))
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = telemetry_group;
    config = config();
    targets = bench_telemetry_overhead
}
criterion_main!(telemetry_group);
