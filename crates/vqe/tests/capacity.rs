//! End-to-end coverage of the fallible allocation path: every execution
//! tier of [`SimExecutor`] — serial, and `threads(4)`, which prepares on
//! 4 amplitude shards × 4 workers — must surface
//! a state that does not fit as a typed [`qsim::CapacityError`]
//! through `try_prepare` / `try_prepare_batch`, never by aborting the
//! process.

use qnoise::DeviceModel;
use qsim::Circuit;
use vqe::{Parallelism, SimExecutor};

/// Qubit count past the dense 30-qubit ceiling (a 16 GiB plane); every
/// tier must refuse it with a typed error.
const TOO_BIG: usize = 33;

fn oversized() -> Circuit {
    let mut c = Circuit::new(TOO_BIG);
    c.h(0).cx(0, 1);
    c
}

fn small() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2);
    c
}

fn tiers() -> Vec<(&'static str, SimExecutor)> {
    let exec = |mode| SimExecutor::new(DeviceModel::noiseless(3), 64, 11).with_parallelism(mode);
    vec![
        ("serial", exec(Parallelism::Serial)),
        ("threads(4)", exec(Parallelism::Threads(4))),
    ]
}

#[test]
fn every_tier_surfaces_capacity_errors_as_typed_values() {
    for (name, mut exec) in tiers() {
        let err = exec
            .try_prepare(&oversized())
            .expect_err("oversized circuit must be refused");
        assert_eq!(err.num_qubits(), TOO_BIG, "tier {name}");
        assert_eq!(err.bytes(), 16u128 << TOO_BIG, "tier {name}");
        // The error is recoverable: the same executor keeps working.
        let state = exec
            .try_prepare(&small())
            .unwrap_or_else(|e| panic!("tier {name}: small circuit refused: {e}"));
        assert_eq!(state.num_qubits(), 3, "tier {name}");
    }
}

#[test]
fn batch_surfaces_the_first_capacity_error_in_circuit_order() {
    for (name, mut exec) in tiers() {
        let err = exec
            .try_prepare_batch(&[small(), oversized(), small()])
            .expect_err("batch with an oversized member must be refused");
        assert_eq!(err.num_qubits(), TOO_BIG, "tier {name}");
        // And an all-fitting batch still succeeds afterwards.
        let states = exec
            .try_prepare_batch(&[small(), small()])
            .unwrap_or_else(|e| panic!("tier {name}: fitting batch refused: {e}"));
        assert_eq!(states.len(), 2, "tier {name}");
    }
}

#[test]
fn capacity_error_reports_the_requested_footprint() {
    let mut exec = SimExecutor::new(DeviceModel::noiseless(3), 64, 11);
    let err = exec.try_prepare(&Circuit::new(40)).unwrap_err();
    assert_eq!(err.num_qubits(), 40);
    assert_eq!(err.bytes(), 16u128 << 40);
    let msg = err.to_string();
    assert!(msg.contains("40"), "error message names the size: {msg}");
}

#[test]
fn infallible_paths_still_panic_with_the_typed_message() {
    let result = std::panic::catch_unwind(|| {
        let mut exec = SimExecutor::new(DeviceModel::noiseless(3), 64, 11);
        exec.prepare(&oversized());
    });
    let panic = result.expect_err("prepare must panic on oversized circuits");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("33"), "panic carries the typed message: {msg}");
}
