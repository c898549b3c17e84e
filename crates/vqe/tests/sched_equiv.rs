//! Scheduling is invisible in the results.
//!
//! A batch of independent jobs — each a circuit plus its measurements,
//! run on its own executor seeded from the job id — must produce the
//! same PMFs and metered cost however it is scheduled: serially, with
//! each job preparing on amplitude shards, or with several jobs running
//! at once on separate threads.

use qnoise::DeviceModel;
use qsim::Circuit;
use std::collections::BTreeMap;
use vqe::{Parallelism, SimExecutor};

const SHOTS: u64 = 64;

/// A hardware-efficient-style ansatz: RY layer, CX chain, RY layer.
/// Angles repeat when `angles` holds fewer than `2 * n` values.
fn ansatz(n: usize, angles: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, angles[q % angles.len()]);
    }
    for q in 0..n.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(q, angles[(n + q) % angles.len()]);
    }
    c
}

fn ps(s: &str) -> pauli::PauliString {
    s.parse().unwrap()
}

/// One job: a circuit read out once in a Global basis (every qubit
/// measured) and once in a subset basis (identity qubits left out).
struct Job {
    id: u64,
    circuit: Circuit,
    global: pauli::PauliString,
    subset: pauli::PauliString,
}

type Outcome = (Vec<mitigation::Pmf>, u64);

/// Runs `job` alone on a fresh executor seeded from its id and preparing
/// states under `mode`; returns its PMFs and metered cost.
fn run(device: &DeviceModel, root_seed: u64, job: &Job, mode: Parallelism) -> Outcome {
    let mut exec =
        SimExecutor::new(device.clone(), SHOTS, root_seed ^ job.id).with_parallelism(mode);
    let state = exec.prepare(&job.circuit);
    let pmfs = vec![
        exec.run_prepared_all(&state, &job.global),
        exec.run_prepared(&state, &job.subset),
    ];
    (pmfs, exec.circuits_executed())
}

/// Sharded preparation is invisible in the results: jobs whose executors
/// prepare on 4 shards × 4 workers — run one after another, or all at
/// once — match the dense sequential reference, bit for bit.
#[test]
fn sharded_jobs_match_the_reference() {
    let device = DeviceModel::mumbai_like();
    let angles: Vec<f64> = (0..16).map(|i| 0.3 * i as f64 - 1.7).collect();
    let jobs: Vec<Job> = (0..4u64)
        .map(|i| Job {
            id: 100 + i,
            circuit: ansatz(5, &angles[i as usize..]),
            global: ps("ZZIXY"),
            subset: ps("IXIZI"),
        })
        .collect();
    let reference = |mode| -> BTreeMap<u64, Outcome> {
        jobs.iter()
            .map(|job| (job.id, run(&device, 77, job, mode)))
            .collect()
    };
    let expected = reference(Parallelism::Serial);
    assert!(expected.values().all(|(_, cost)| *cost == 2));
    assert_eq!(reference(Parallelism::Threads(4)), expected);

    let concurrent: BTreeMap<u64, Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .iter()
            .map(|job| {
                let device = &device;
                s.spawn(move || (job.id, run(device, 77, job, Parallelism::Threads(4))))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(concurrent, expected);
}
