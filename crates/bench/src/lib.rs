//! Benchmark crate for the VarSaw reproduction: criterion benches that
//! attribute time to single kernels. See `benches/kernels.rs`
//! (computational kernels), `benches/reconstruction.rs` (the Bayesian
//! reconstruction engine), `benches/fusion.rs` (fused against unfused
//! statevector execution) and `benches/telemetry.rs` (what the stage spans
//! cost one VQE iteration). Run them with `cargo bench -p bench`.
//!
//! These rows are local attribution tools for perf work, not a gate: each
//! kept row's mean moved by less than 1.5× over three rounds on one build.
//! Performance is judged end to end by the paper-run benchmark
//! (`paperbench/`), in alternated parent/change pairs (`ci/bench_pairs.py`).
//!
//! The criterion harness itself is exercised here:
//!
//! ```
//! use criterion::Criterion;
//! use std::time::Duration;
//!
//! let mut c = Criterion::default()
//!     .sample_size(2)
//!     .warm_up_time(Duration::from_millis(1))
//!     .measurement_time(Duration::from_millis(5));
//! c.bench_function("doc/noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
//! ```
