//! Telemetry transparency oracle for the statevector engine.
//!
//! Spans are observations, never participants: with recording active,
//! the fused, recompiled-fused and unfused
//! reference paths of the serial engine must produce exactly the bits
//! they produce with telemetry compiled out. These are the same equivalence assertions the
//! fusion oracle makes — re-run here under instrumentation so a timing
//! regression can never hide a numerics regression (and vice versa).
//!
//! Both tests read the process-global stage totals, so they run one at a
//! time under [`recording_lock`] and count only what their own region
//! adds ([`telemetry::TelemetrySnapshot::since`]).

use qsim::{Circuit, CircuitPlan, PlanCache, Statevector};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file, which share the global stage
/// totals, and pins the runtime switch on.
fn recording_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_active(true);
    guard
}

/// A layered ansatz-shaped circuit: rotation layers interleaved with CX
/// chains, deep enough to exercise run fusion.
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
    let _lock = recording_lock();
    #[cfg(feature = "telemetry")]
    let before = telemetry::global_snapshot();

    let c = layered(8, 4);
    let fused = CircuitPlan::compile(&c);
    let unfused = CircuitPlan::compile_unfused(&c);

    let mut serial = Statevector::zero(8);
    serial.apply_plan(&fused);
    let mut recompiled = Statevector::zero(8);
    recompiled.apply_circuit(&c);
    let mut reference = Statevector::zero(8);
    reference.apply_plan(&unfused);

    // One plan, compiled twice: bit-identical by contract, spans live.
    assert_eq!(serial.amplitudes(), recompiled.amplitudes());
    // Fused vs unfused: same tolerance the fusion oracle grants.
    for (a, b) in serial.amplitudes().iter().zip(reference.amplitudes()) {
        assert!((*a - *b).abs() < 1e-12);
    }
    // And the read-out pass stays the exact elementwise |a|².
    let squares: Vec<f64> = serial.amplitudes().iter().map(|a| a.norm_sqr()).collect();
    assert_eq!(serial.probabilities(), squares);

    // With the feature compiled in, the global totals must actually have
    // seen the stages the paths above pass through.
    #[cfg(feature = "telemetry")]
    {
        let snap = telemetry::global_snapshot().since(&before);
        assert!(snap.stat(telemetry::Stage::PlanCompile).count >= 3);
        assert!(snap.stat(telemetry::Stage::SweepSerial).count >= 4);
    }
}

#[test]
fn spans_do_not_perturb_plan_cache_rebinds() {
    let _lock = recording_lock();
    #[cfg(feature = "telemetry")]
    let before = telemetry::global_snapshot();

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
        let snap = telemetry::global_snapshot().since(&before);
        assert_eq!(snap.stat(telemetry::Stage::PlanCompile).count, 1);
        // Every plan() binds: one rebind per call.
        assert_eq!(snap.stat(telemetry::Stage::PlanRebind).count, 2);
    }
}
