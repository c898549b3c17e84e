//! The scheduler's determinism oracle.
//!
//! The queue's contract is that scheduling is *invisible* in the results:
//! whatever the submission order, worker count, or interleaving, every
//! job's PMFs and metered cost are bit-identical to running that job
//! alone on a fresh sequential executor seeded by
//! [`sched::job_seed`]`(root_seed, job_id)`. The property test below
//! fuzzes job sets across tenants, shuffles submission orders, and varies
//! worker counts 1–4, comparing everything against that reference — plus
//! targeted tests for admission control, memory-pressure queueing,
//! weight-ordered draining, starvation-freedom, plan-cache sharing, and
//! the failure paths that can really happen: deadlines, cancellation,
//! bounded waits, and panicking jobs.

use proptest::prelude::*;
use qnoise::DeviceModel;
use qsim::{Circuit, Parallelism};
use sched::{job_seed, AdmitError, JobError, JobQueue, JobSpec, MeasureScope, Measurement};
use std::collections::BTreeMap;
use std::time::Duration;
use vqe::SimExecutor;

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

/// Builds an `n`-qubit Pauli basis from letter codes (0=I 1=X 2=Y 3=Z),
/// forcing at least one non-identity letter so subset readouts are legal.
fn basis(n: usize, letters: &[usize]) -> pauli::PauliString {
    let mut chars: Vec<char> = letters
        .iter()
        .take(n)
        .map(|&l| ['I', 'X', 'Y', 'Z'][l % 4])
        .collect();
    chars.resize(n, 'I');
    if chars.iter().all(|&c| c == 'I') {
        chars[0] = 'Z';
    }
    chars.iter().collect::<String>().parse().unwrap()
}

/// The sequential reference: each job alone, on a fresh serial executor
/// seeded by `job_seed(root_seed, job_id)` — no queue, no sharing, no
/// concurrency. Returns per-job `(pmfs, cost)`.
fn reference(
    device: &DeviceModel,
    root_seed: u64,
    specs: &[JobSpec],
) -> BTreeMap<u64, (Vec<mitigation::Pmf>, u64)> {
    reference_with(device, root_seed, specs, Parallelism::Serial)
}

/// [`reference`] with executors preparing states under `mode`.
fn reference_with(
    device: &DeviceModel,
    root_seed: u64,
    specs: &[JobSpec],
    mode: Parallelism,
) -> BTreeMap<u64, (Vec<mitigation::Pmf>, u64)> {
    specs
        .iter()
        .map(|spec| {
            let mut exec =
                SimExecutor::new(device.clone(), SHOTS, job_seed(root_seed, spec.job_id))
                    .with_parallelism(mode);
            let state = exec.prepare(&spec.circuit);
            let pmfs = spec
                .measurements
                .iter()
                .map(|m| match m.scope {
                    MeasureScope::Subset => exec.run_prepared(&state, &m.basis),
                    MeasureScope::Global => exec.run_prepared_all(&state, &m.basis),
                })
                .collect();
            (spec.job_id, (pmfs, exec.circuits_executed()))
        })
        .collect()
}

proptest! {
    /// N jobs × T tenants × shuffled submission orders × worker counts
    /// 1–4: every scheduled result equals the sequential reference, job
    /// for job and bit for bit, and cost accounting is exact.
    #[test]
    fn scheduled_results_match_the_sequential_reference(
        raw in prop::collection::vec(
            (
                2usize..=5,                                // register width
                prop::collection::vec(-3.0..3.0f64, 10),   // ansatz angles
                prop::collection::vec(0usize..4, 5),       // basis 1 letters
                prop::collection::vec(0usize..4, 5),       // basis 2 letters
                0usize..2,                                 // first scope
                1usize..=2,                                // measurements
            ),
            1..9,
        ),
        tenants in 1u64..=3,
        workers in 1usize..=4,
        perm in prop::sample::shuffle((0..16usize).collect::<Vec<_>>()),
        root_seed in 0u64..1_000_000,
    ) {
        let device = DeviceModel::mumbai_like();
        let specs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, (n, angles, letters1, letters2, scope, nmeas))| {
                let first = if *scope == 0 {
                    Measurement::subset(basis(*n, letters1))
                } else {
                    Measurement::global(basis(*n, letters1))
                };
                let mut measurements = vec![first];
                if *nmeas == 2 {
                    // Second measurement flips the scope for coverage.
                    measurements.push(if *scope == 0 {
                        Measurement::global(basis(*n, letters2))
                    } else {
                        Measurement::subset(basis(*n, letters2))
                    });
                }
                JobSpec {
                    // Stable ids, deliberately not 0..len: seeds key off
                    // the id, never off the submission position.
                    job_id: 11 + 3 * i as u64,
                    tenant: i as u64 % tenants,
                    circuit: ansatz(*n, angles),
                    measurements,
                }
            })
            .collect();

        let expected = reference(&device, root_seed, &specs);
        let expected_total: u64 = expected.values().map(|(_, c)| *c).sum();

        // A case-specific permutation of the job indices (the generated
        // 0..16 shuffle filtered down to this case's length), and its
        // reverse — two different interleavings, two worker counts.
        let order: Vec<usize> = perm.iter().copied().filter(|&i| i < specs.len()).collect();
        let reversed: Vec<usize> = order.iter().rev().copied().collect();

        for (w, submit_order) in [(workers, &order), (workers % 4 + 1, &reversed)] {
            let queue = JobQueue::new(device.clone(), SHOTS, root_seed).with_workers(w);
            let handles: Vec<_> = submit_order
                .iter()
                .map(|&i| queue.submit(specs[i].clone()).unwrap())
                .collect();
            prop_assert_eq!(queue.pending(), specs.len());
            queue.drain();
            prop_assert_eq!(queue.completed() as usize, specs.len());
            prop_assert_eq!(queue.pending(), 0);

            let mut total = 0u64;
            for h in &handles {
                prop_assert!(h.is_done());
                let polled = h.try_result().expect("drained jobs are done");
                let out = h.wait().expect("admitted jobs complete");
                prop_assert_eq!(&Ok(out.clone()), &polled, "poll and wait agree");
                let (pmfs, cost) = &expected[&out.job_id];
                prop_assert_eq!(&out.pmfs, pmfs, "job {} PMFs drifted", out.job_id);
                prop_assert_eq!(out.cost, *cost, "job {} cost drifted", out.job_id);
                total += out.cost;
            }
            prop_assert_eq!(total, expected_total, "aggregate cost accounting");
        }
    }
}

#[test]
fn oversized_jobs_are_rejected_and_leave_the_queue_healthy() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 5).with_memory_budget(16 << 8);

    // Over the register limit: can never be simulated.
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: Circuit::new(33),
            measurements: vec![],
        })
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::ExceedsSimulator {
            num_qubits: 33,
            bytes: 16 << 33
        }
    );

    // Over the queue's budget: could simulate, but never under this queue.
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: Circuit::new(12),
            measurements: vec![],
        })
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::ExceedsBudget {
            needed: 16 << 12,
            budget: 16 << 8
        }
    );

    // Rejections leave no trace: the id is still free, fitting jobs run.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2);
    let handle = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: c,
            measurements: vec![Measurement::subset("ZZZ".parse().unwrap())],
        })
        .unwrap();
    queue.drain();
    assert_eq!(handle.wait().unwrap().cost, 1);
    assert_eq!(queue.completed(), 1);
}

#[test]
fn admission_rejects_malformed_measurements_and_duplicate_ids() {
    let device = DeviceModel::noiseless(4);
    let queue = JobQueue::new(device, SHOTS, 5);
    let bell = || {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    };

    // Identity basis as a subset readout measures nothing.
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: bell(),
            measurements: vec![Measurement::subset("II".parse().unwrap())],
        })
        .unwrap_err();
    assert_eq!(err, AdmitError::IdentityBasis { measurement: 0 });

    // A basis wider than the register.
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: bell(),
            measurements: vec![Measurement::subset("ZZZ".parse().unwrap())],
        })
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::BasisTooWide {
            measurement: 0,
            basis_qubits: 3,
            circuit_qubits: 2
        }
    );

    // A global readout of more qubits than the device owns.
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: Circuit::new(6),
            measurements: vec![Measurement::global("ZIIIII".parse().unwrap())],
        })
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::DeviceTooSmall {
            measurement: 0,
            needed: 6,
            device: 4
        }
    );

    // Ids are single-use (seeds derive from them)…
    queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: bell(),
            measurements: vec![Measurement::subset("ZZ".parse().unwrap())],
        })
        .unwrap();
    let err = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 1,
            circuit: bell(),
            measurements: vec![Measurement::subset("XX".parse().unwrap())],
        })
        .unwrap_err();
    assert_eq!(err, AdmitError::DuplicateJobId(1));
    queue.drain();
    assert_eq!(queue.completed(), 1);
}

#[test]
fn memory_pressure_queues_jobs_and_never_breaks_the_budget_or_results() {
    let device = DeviceModel::mumbai_like();
    let root_seed = 17;
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            let mut c = Circuit::new(6);
            for q in 0..6 {
                c.ry(q, 0.3 + i as f64);
            }
            for q in 0..5 {
                c.cx(q, q + 1);
            }
            JobSpec {
                job_id: 100 + i,
                tenant: i % 2,
                circuit: c,
                measurements: vec![Measurement::subset("ZZZZZZ".parse().unwrap())],
            }
        })
        .collect();
    let expected = reference(&device, root_seed, &specs);

    // Budget holds one 6-qubit state (1024 B) with room to spare but not
    // two — so even with 4 workers, jobs run one at a time.
    let budget = (16u128 << 6) * 3 / 2;
    let queue = JobQueue::new(device, SHOTS, root_seed)
        .with_workers(4)
        .with_memory_budget(budget);
    let handles: Vec<_> = specs
        .iter()
        .map(|s| queue.submit(s.clone()).unwrap())
        .collect();
    queue.drain();

    assert_eq!(queue.completed(), 6);
    assert!(
        queue.peak_in_flight_bytes() <= budget,
        "peak {} exceeded budget {budget}",
        queue.peak_in_flight_bytes()
    );
    assert_eq!(queue.peak_in_flight_bytes(), 16 << 6);
    for h in &handles {
        let out = h.wait().unwrap();
        let (pmfs, cost) = &expected[&out.job_id];
        assert_eq!(&out.pmfs, pmfs, "memory pressure must not change results");
        assert_eq!(out.cost, *cost);
    }
}

#[test]
fn queue_drains_in_weight_order_under_one_worker() {
    let device = DeviceModel::noiseless(3);
    let queue = JobQueue::new(device, SHOTS, 3).with_workers(1);
    queue.set_tenant_weight(0, 4);
    queue.set_tenant_weight(1, 2);
    queue.set_tenant_weight(2, 1);
    // Interleave submissions so completion order reflects policy, not
    // submission order. Job id encodes the tenant in its tens digit.
    for k in 0..4u64 {
        for tenant in [2u64, 1, 0] {
            let mut c = Circuit::new(2);
            c.ry(0, 0.1 + k as f64).cx(0, 1);
            queue
                .submit(JobSpec {
                    job_id: tenant * 10 + k,
                    tenant,
                    circuit: c,
                    measurements: vec![Measurement::subset("ZZ".parse().unwrap())],
                })
                .unwrap();
        }
    }
    queue.drain();
    let order = queue.completion_order();
    assert_eq!(order.len(), 12);
    // CFS with weights 4:2:1 puts exactly 4, 2 and 1 completions from the
    // respective tenants in the first seven slots.
    let prefix_count = |t: u64| order.iter().take(7).filter(|&&id| id / 10 == t).count();
    assert_eq!(
        (prefix_count(0), prefix_count(1), prefix_count(2)),
        (4, 2, 1),
        "weighted shares in the first 7 completions: {order:?}"
    );
}

#[test]
fn a_flooding_tenant_cannot_starve_a_meek_one() {
    let device = DeviceModel::noiseless(3);
    let queue = JobQueue::new(device, SHOTS, 3).with_workers(1);
    // Tenant 0 floods 20 jobs first; the meek tenant 1 submits one job
    // last. Equal weights.
    for k in 0..20u64 {
        let mut c = Circuit::new(2);
        c.ry(0, k as f64 * 0.2).cx(0, 1);
        queue
            .submit(JobSpec {
                job_id: k,
                tenant: 0,
                circuit: c,
                measurements: vec![Measurement::subset("ZZ".parse().unwrap())],
            })
            .unwrap();
    }
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    queue
        .submit(JobSpec {
            job_id: 999,
            tenant: 1,
            circuit: c,
            measurements: vec![Measurement::subset("XX".parse().unwrap())],
        })
        .unwrap();
    queue.drain();
    let order = queue.completion_order();
    let meek_pos = order.iter().position(|&id| id == 999).unwrap();
    assert!(
        meek_pos < 2,
        "meek tenant's job must run among the first two dispatches \
         despite 20 queued rivals, completed at {meek_pos}: {order:?}"
    );
}

#[test]
fn tenants_running_one_ansatz_family_share_compiled_plans() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 23).with_workers(4);
    // 4 tenants × 3 jobs, all the same ansatz structure with different
    // angles, all measured in the same X⊗X basis (a non-empty rotation).
    let mut job_id = 0;
    for tenant in 0..4u64 {
        for k in 0..3 {
            let mut c = Circuit::new(3);
            for q in 0..3 {
                c.ry(q, 0.1 + tenant as f64 + k as f64);
            }
            c.cx(0, 1).cx(1, 2);
            queue
                .submit(JobSpec {
                    job_id,
                    tenant,
                    circuit: c,
                    measurements: vec![Measurement::subset("XXX".parse().unwrap())],
                })
                .unwrap();
            job_id += 1;
        }
    }
    queue.drain();
    assert_eq!(queue.completed(), 12);
    let (structures, hits, misses) = queue.plan_cache_stats();
    // Two structures total — the shared ansatz shape and the shared
    // rotation shape — compiled once each; everything else rebinds.
    assert_eq!(structures, 2, "tenants share the family's structures");
    assert_eq!(misses, 2, "one compile per structure across all tenants");
    assert_eq!(hits, 22, "12 preparations + 12 rotations, minus 2 compiles");
}

#[test]
fn results_are_a_function_of_job_id_not_submission_order() {
    let device = DeviceModel::mumbai_like();
    let mk = |angle: f64| {
        let mut c = Circuit::new(3);
        c.ry(0, angle).cx(0, 1).cx(1, 2);
        c
    };
    let specs = vec![
        JobSpec {
            job_id: 7,
            tenant: 0,
            circuit: mk(0.4),
            measurements: vec![Measurement::global("ZZZ".parse().unwrap())],
        },
        JobSpec {
            job_id: 8,
            tenant: 1,
            circuit: mk(-1.9),
            measurements: vec![Measurement::subset("XIZ".parse().unwrap())],
        },
    ];
    let expected = reference(&device, 42, &specs);
    for order in [[0usize, 1], [1, 0]] {
        for workers in [1usize, 3] {
            let queue = JobQueue::new(device.clone(), SHOTS, 42).with_workers(workers);
            let handles: Vec<_> = order
                .iter()
                .map(|&i| queue.submit(specs[i].clone()).unwrap())
                .collect();
            queue.drain();
            for h in &handles {
                let out = h.wait().unwrap();
                let (pmfs, cost) = &expected[&out.job_id];
                assert_eq!(&out.pmfs, pmfs);
                assert_eq!(out.cost, *cost);
            }
        }
    }
}

/// Sharded preparation is invisible in the results: a reference whose
/// executors prepare on 4 shards × 4 workers matches the dense
/// sequential reference and the queue's jobs, bit for bit.
#[test]
fn sharded_jobs_match_the_reference() {
    let device = DeviceModel::mumbai_like();
    let angles: Vec<f64> = (0..16).map(|i| 0.3 * i as f64 - 1.7).collect();
    let specs: Vec<JobSpec> = (0..4u64)
        .map(|i| JobSpec {
            job_id: 100 + i,
            tenant: i % 2,
            circuit: ansatz(5, &angles[i as usize..]),
            measurements: vec![
                Measurement::global(basis(5, &[3, 3, 0, 1, 2])),
                Measurement::subset(basis(5, &[0, 1, 0, 3, 0])),
            ],
        })
        .collect();
    let expected = reference(&device, 77, &specs);
    assert_eq!(
        reference_with(&device, 77, &specs, Parallelism::Threads(4)),
        expected
    );

    let queue = JobQueue::new(device.clone(), SHOTS, 77).with_workers(3);
    let handles: Vec<_> = specs
        .iter()
        .map(|s| queue.submit(s.clone()).unwrap())
        .collect();
    queue.drain();
    for h in &handles {
        let out = h.wait().unwrap_or_else(|e| panic!("{e}"));
        let (pmfs, cost) = &expected[&out.job_id];
        assert_eq!(&out.pmfs, pmfs, "job {} PMFs", out.job_id);
        assert_eq!(out.cost, *cost, "job {} cost", out.job_id);
    }
}

/// A zero deadline expires every job — queued or running — with a typed
/// error, and the budget accounting survives.
#[test]
fn deadlines_expire_jobs_typed_and_release_budget() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 7)
        .with_workers(2)
        .with_deadline(Duration::ZERO);
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            queue
                .submit(JobSpec {
                    job_id: i,
                    tenant: 0,
                    circuit: ansatz(4, &[0.5, -0.2]),
                    measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
                })
                .unwrap()
        })
        .collect();
    queue.drain();
    for h in &handles {
        assert_eq!(h.wait(), Err(JobError::DeadlineExceeded));
    }
    assert_eq!(queue.in_flight_bytes(), 0);
    assert_eq!(queue.completed(), 4);

    // A per-job override beats the queue default: a generous explicit
    // deadline lets a job through the same queue.
    let h = queue
        .submit_with_deadline(
            JobSpec {
                job_id: 100,
                tenant: 0,
                circuit: ansatz(4, &[0.5, -0.2]),
                measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
            },
            Duration::from_secs(60),
        )
        .unwrap();
    queue.drain();
    assert!(h.wait().is_ok());
}

/// Cancellation before dispatch completes the job with a typed error;
/// cancellation after completion never rewrites the result.
#[test]
fn cancellation_is_cooperative_and_never_rewrites_history() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 3).with_workers(1);
    let mk = |id: u64| JobSpec {
        job_id: id,
        tenant: 0,
        circuit: ansatz(4, &[1.1, 0.2]),
        measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
    };
    let doomed = queue.submit(mk(1)).unwrap();
    let survivor = queue.submit(mk(2)).unwrap();
    doomed.cancel();
    assert!(doomed.is_cancelled());
    assert!(!survivor.is_cancelled());
    queue.drain();
    assert_eq!(doomed.wait(), Err(JobError::Cancelled));
    let out = survivor.wait().expect("uncancelled co-tenant completes");

    // Cancel after the fact: the result stands.
    survivor.cancel();
    assert_eq!(survivor.try_result(), Some(Ok(out)));
    assert_eq!(queue.in_flight_bytes(), 0);
}

/// `wait_timeout` bounds the wait: times out (`None`) while nobody
/// drains, returns the result once a drain ran, and keeps returning it.
#[test]
fn wait_timeout_bounds_the_wait() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 13).with_workers(1);
    let h = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: ansatz(4, &[0.7, -0.4]),
            measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
        })
        .unwrap();
    assert_eq!(h.wait_timeout(Duration::from_millis(10)), None);
    queue.drain();
    let got = h
        .wait_timeout(Duration::from_millis(10))
        .expect("drained job is ready");
    assert!(got.is_ok());
    assert_eq!(h.wait_timeout(Duration::ZERO), Some(got));
}

/// Errors under memory pressure: a budget that serializes jobs, workers
/// parked on it, and every job panicking — the drain still terminates,
/// every handle completes typed with the panic's own message, and the
/// budget is fully released. This is the pressure-park path the
/// completion guard protects.
#[test]
fn failing_jobs_under_memory_pressure_never_wedge_the_drain() {
    let device = DeviceModel::mumbai_like();
    let budget = (16u128 << 5) * 3 / 2; // one 5-qubit state at a time
    let queue = JobQueue::new(device, SHOTS, 21)
        .with_workers(4)
        .with_memory_budget(budget);
    // A NaN rotation angle makes every outcome probability NaN, which the
    // shot sampler rejects with a panic: the spec passes admission, so
    // this is a failure only running the job can reveal.
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            queue
                .submit(JobSpec {
                    job_id: 400 + i,
                    tenant: i % 3,
                    circuit: ansatz(5, &[f64::NAN, 1.0]),
                    measurements: vec![Measurement::subset(basis(5, &[3, 0, 0, 0, 0]))],
                })
                .unwrap()
        })
        .collect();
    queue.drain();
    for h in &handles {
        match h.wait() {
            Err(JobError::Panicked(msg)) => assert!(
                msg.contains("negative probability NaN"),
                "the panic message must survive the guard: {msg:?}"
            ),
            other => panic!("expected typed panics, got {other:?}"),
        }
    }
    assert_eq!(queue.in_flight_bytes(), 0);
    assert!(queue.peak_in_flight_bytes() <= budget);
}
