//! End-to-end coverage of the fallible allocation path: [`SimExecutor`]
//! must surface a state that does not fit on its dense plane as a typed
//! [`qsim::CapacityError`] through `try_prepare`, never by aborting the
//! process.

use qnoise::DeviceModel;
use qsim::Circuit;
use vqe::SimExecutor;

/// Qubit count past the dense 30-qubit ceiling (a 16 GiB plane); the
/// executor must refuse it with a typed error.
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

fn executor() -> SimExecutor {
    SimExecutor::new(DeviceModel::noiseless(3), 64, 11)
}

#[test]
fn every_tier_surfaces_capacity_errors_as_typed_values() {
    let mut exec = executor();
    let err = exec
        .try_prepare(&oversized())
        .expect_err("oversized circuit must be refused");
    assert_eq!(err.num_qubits(), TOO_BIG);
    assert_eq!(err.bytes(), 16u128 << TOO_BIG);
    // The error is recoverable: the same executor keeps working.
    let state = exec
        .try_prepare(&small())
        .unwrap_or_else(|e| panic!("small circuit refused: {e}"));
    assert_eq!(state.num_qubits(), 3);
}

#[test]
fn capacity_error_reports_the_requested_footprint() {
    let err = executor().try_prepare(&Circuit::new(40)).unwrap_err();
    assert_eq!(err.num_qubits(), 40);
    assert_eq!(err.bytes(), 16u128 << 40);
    let msg = err.to_string();
    assert!(msg.contains("40"), "error message names the size: {msg}");
}

#[test]
fn infallible_paths_still_panic_with_the_typed_message() {
    let result = std::panic::catch_unwind(|| {
        executor().prepare(&oversized());
    });
    let panic = result.expect_err("prepare must panic on oversized circuits");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("33"), "panic carries the typed message: {msg}");
}
