//! Usage errors of the `experiments` binary: each one prints the usage to
//! stderr and exits with status 2 before any experiment runs.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn out_without_a_directory_is_a_usage_error() {
    assert_usage_error(&["fig8", "--out"]);
}

#[test]
fn an_unexpected_extra_argument_is_a_usage_error() {
    assert_usage_error(&["fig8", "fig6"]);
}

#[test]
fn a_missing_or_unknown_id_is_a_usage_error() {
    assert_usage_error(&[]);
    assert_usage_error(&["fig99"]);
}
