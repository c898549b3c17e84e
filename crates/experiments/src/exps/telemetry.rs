//! Stage-attributed wall-time breakdown of one representative VQE
//! iteration, across executor tiers.
//!
//! One iteration — prepare an EfficientSU2 ansatz state, then run a
//! JigSaw-shaped measurement family (full-register Globals plus subset
//! reads) — executes on each tier: serial, and `threads(4)`, which
//! prepares the state on 4 amplitude shards × 4 workers. The table
//! reports, per tier, every telemetry
//! stage the iteration passed through (call count, total milliseconds,
//! share of the tier's wall time) and an `attributed` summary row — the
//! fraction of wall time the instrumentation accounts for. With the
//! `telemetry` feature compiled out the experiment emits a single note
//! row instead of numbers.

use crate::harness::Options;
use crate::report::{fmt, results_path, Table};
use qnoise::DeviceModel;
use qsim::Parallelism;
use std::time::Instant;
use vqe::{EfficientSu2, Entanglement, SimExecutor};

const NUM_QUBITS: usize = 12;
const SHOTS: u64 = 2048;
const SEED: u64 = 11;

/// One representative iteration on a fresh executor configured for the
/// tier. Returns the metered circuit count (sanity: identical across
/// tiers, since every tier is bit-identical by contract).
fn iteration(parallelism: Parallelism) -> u64 {
    let mut exec =
        SimExecutor::new(DeviceModel::mumbai_like(), SHOTS, SEED).with_parallelism(parallelism);
    let ansatz = EfficientSu2::new(NUM_QUBITS, 2, Entanglement::Linear);
    let circuit = ansatz.circuit(&ansatz.initial_parameters(3));
    let state = exec.prepare(&circuit);
    let globals: [pauli::PauliString; 2] = [
        "ZZZZZZZZZZZZ".parse().unwrap(),
        "XXXXXXXXXXXX".parse().unwrap(),
    ];
    let subsets: [pauli::PauliString; 3] = [
        "ZZIIIIIIIIII".parse().unwrap(),
        "IIXXXIIIIIII".parse().unwrap(),
        "IIIIIIYYZIII".parse().unwrap(),
    ];
    for basis in &globals {
        exec.run_prepared_all(&state, basis);
    }
    for basis in &subsets {
        exec.run_prepared(&state, basis);
    }
    exec.circuits_executed()
}

/// The `telemetry` experiment: per-stage wall-time attribution of one
/// VQE iteration across serial / `threads(4)`.
pub fn telemetry_exp(opts: &Options) {
    let mut t = Table::new(["tier", "stage", "calls", "total ms", "% of wall"]);
    let path = results_path(&opts.out_dir, "telemetry", "telemetry.csv");

    if !telemetry::compiled() {
        t.row([
            "(all)".to_string(),
            "telemetry feature compiled out — rebuild with --features telemetry".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        t.print();
        t.write_reports(&path);
        return;
    }
    telemetry::set_active(true);

    let tiers: [(&str, Parallelism); 2] = [
        ("serial", Parallelism::Serial),
        ("threads(4)", Parallelism::Threads(4)),
    ];

    // A single iteration is ~1-3ms; scheduler jitter on that scale can
    // swing the attributed share by several points. Averaging a few
    // measured passes keeps the share stable without changing it.
    let measured_passes: u32 = if opts.full { 10 } else { 3 };

    let mut reference_cost = None;
    for (name, parallelism) in tiers {
        // Warm up once so OS page faults and lazy thread pools don't
        // masquerade as unattributed time on the measured passes.
        iteration(parallelism);
        let before = telemetry::global_snapshot();
        let start = Instant::now();
        let mut cost = 0;
        for _ in 0..measured_passes {
            cost = iteration(parallelism);
        }
        let wall_ns = (start.elapsed().as_nanos().max(1) as u64) / u64::from(measured_passes);
        let delta = telemetry::global_snapshot()
            .since(&before)
            .scaled_down(measured_passes);

        match reference_cost {
            None => reference_cost = Some(cost),
            Some(r) => assert_eq!(r, cost, "{name}: tiers must meter identically"),
        }
        for (stage, stat) in delta.rows() {
            if stat.count == 0 {
                continue;
            }
            t.row([
                name.to_string(),
                stage.name().to_string(),
                stat.count.to_string(),
                fmt(stat.total_ns as f64 / 1e6),
                fmt(100.0 * stat.total_ns as f64 / wall_ns as f64),
            ]);
        }
        t.row([
            name.to_string(),
            "attributed".to_string(),
            delta.total_count().to_string(),
            fmt(delta.total_ns() as f64 / 1e6),
            fmt(100.0 * delta.total_ns() as f64 / wall_ns as f64),
        ]);
    }

    t.print();
    t.write_reports(&path);
}
