//! Telemetry transparency oracle for the statevector engine.
//!
//! Spans are observations, never participants: with a recorder installed
//! and recording active, the fused serial, fused threaded (`Threads(4)`:
//! 4 shards × 4 workers), and unfused reference paths must produce exactly the bits they produce with
//! telemetry compiled out. These are the same equivalence assertions the
//! fusion oracle makes — re-run here under instrumentation so a timing
//! regression can never hide a numerics regression (and vice versa).

use qsim::{Circuit, CircuitPlan, Parallelism, PlanCache, ShardedState, Statevector};

/// A layered ansatz-shaped circuit: rotation layers interleaved with CX
/// chains, deep enough to exercise run fusion and entangler blocking.
fn layered(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for d in 0..depth {
        for q in 0..n {
            c.ry(q, 0.1 + 0.37 * (d * n + q) as f64);
            c.rz(q, -0.2 + 0.11 * (d + q) as f64);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c
}

#[test]
fn spans_do_not_perturb_fused_execution() {
    telemetry::set_active(true);
    let recorder = telemetry::Recorder::new();
    let _guard = recorder.install();

    let c = layered(8, 4);
    let fused = CircuitPlan::compile(&c);
    let unfused = CircuitPlan::compile_unfused(&c);

    let mut serial = Statevector::zero(8);
    serial.apply_plan(&fused);
    let mut sharded = ShardedState::zero(8, 4).with_parallelism(Parallelism::Threads(4));
    sharded.apply_plan(&fused);
    let threaded = sharded.to_statevector();
    let mut reference = Statevector::zero(8);
    reference.apply_plan(&unfused);

    // Serial vs threaded: bit-identical by contract, spans installed.
    assert_eq!(serial.amplitudes(), threaded.amplitudes());
    // Fused vs unfused: same tolerance the fusion oracle grants.
    for (a, b) in serial.amplitudes().iter().zip(reference.amplitudes()) {
        assert!((*a - *b).abs() < 1e-12);
    }
    // And the read-out paths stay bit-identical under instrumentation.
    assert_eq!(
        serial.probabilities_with(Parallelism::Serial),
        threaded.probabilities_with(Parallelism::Threads(4)),
    );

    // With the feature compiled in, the recorder must actually have seen
    // the stages the paths above pass through.
    #[cfg(feature = "telemetry")]
    {
        let snap = recorder.snapshot();
        assert!(snap.stat(telemetry::Stage::PlanCompile).count >= 2);
        assert!(snap.stat(telemetry::Stage::SweepSerial).count >= 2);
        assert!(snap.stat(telemetry::Stage::SweepSharded).count >= 1);
        assert!(snap.stat(telemetry::Stage::SweepThreaded).count >= 1);
    }
}

#[test]
fn spans_do_not_perturb_plan_cache_rebinds() {
    telemetry::set_active(true);
    let recorder = telemetry::Recorder::new();
    let _guard = recorder.install();

    let mut cache = PlanCache::new();
    let a = cache.plan(&layered(6, 3));
    let b = cache.plan(&layered(6, 3));
    // A rebind of the identical circuit is the identical plan.
    let mut sa = Statevector::zero(6);
    sa.apply_plan(&a);
    let mut sb = Statevector::zero(6);
    sb.apply_plan(&b);
    assert_eq!(sa.amplitudes(), sb.amplitudes());
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    #[cfg(feature = "telemetry")]
    {
        let snap = recorder.snapshot();
        assert_eq!(snap.stat(telemetry::Stage::PlanCompile).count, 1);
        // Every plan() binds: one rebind per call.
        assert_eq!(snap.stat(telemetry::Stage::PlanRebind).count, 2);
    }
}
