//! Integration coverage of the shard-transport seam: sub-split alignment
//! edge cases on the in-process backend, counter semantics of both
//! backends, fault injection through the message-passing backend (the
//! oracle must catch a single corrupted wire word; a dead rank must
//! surface a typed error, not a deadlock), and thread hygiene of the
//! rank-thread backend.

use qsim::plan::ShardPlan;
use qsim::transport::live_rank_threads;
use qsim::{
    Circuit, CircuitPlan, FaultInjection, Parallelism, ShardedState, Statevector, TransportError,
    TransportMode,
};

fn serial_reference(circuit: &Circuit) -> Statevector {
    let mut serial = Statevector::zero(circuit.num_qubits());
    serial.apply_plan(&CircuitPlan::compile(circuit));
    serial
}

/// Runs `circuit` sharded under a pinned identity layout (so the chosen
/// global-qubit ops really exchange) and asserts bit-identity with the
/// serial reference.
fn assert_bit_identical(
    circuit: &Circuit,
    shards: usize,
    threads: usize,
    transport: TransportMode,
    context: &str,
) {
    let n = circuit.num_qubits();
    let plan = CircuitPlan::compile(circuit);
    let layout: Vec<usize> = (0..n).collect();
    let sp = ShardPlan::with_layout(&plan, shards, &layout);
    let serial = serial_reference(circuit);
    let mut sharded = ShardedState::zero(n, shards)
        .with_parallelism(Parallelism::Threads(threads))
        .with_transport(transport);
    sharded
        .try_apply_shard_plan(&sp)
        .unwrap_or_else(|e| panic!("{context}: transport failed: {e}"));
    assert_eq!(
        serial.amplitudes(),
        sharded.to_statevector().amplitudes(),
        "{context}: {shards} shards, {threads} threads, {transport:?}"
    );
}

/// Exchange sub-splitting must respect every kernel's alignment floor:
/// a one-qubit exchange may slice down to single amplitudes, but a CX
/// with a local control must keep `1 << (control+1)`-sized blocks
/// together, a SWAP with a local low bit `1 << (lo+1)`, and a fused
/// entangler block with a local low pair bit likewise. Non-power-of-two
/// worker counts round the split up to a power of two, and worker
/// counts past the alignment-limited maximum must clamp, not slice
/// through a condition block. Every combination stays bit-identical.
#[test]
fn sub_split_respects_alignment_at_every_worker_count() {
    let n = 7;
    // One circuit per exchange kind, each working the top (global under
    // 4+ shards) qubit so the pinned layout forces real exchanges.
    let mut one_q = Circuit::new(n);
    one_q.h(0).ry(n - 1, 0.83).h(n - 1);

    // Local control low, global target high: CxLocalControl alignment.
    // Control n-3 gives the largest local condition mask (1 << (n-2))
    // relative to a shard, squeezing max_splits down to 1 at 4 shards.
    let mut cx_edge = Circuit::new(n);
    cx_edge.h(0).h(n - 3).cx(n - 3, n - 1).cx(0, n - 1);

    let mut swap_edge = Circuit::new(n);
    swap_edge.h(0).ry(1, 0.4).swap(1, n - 1).swap(n - 3, n - 1);

    // A same-pair entangler run with a rotation sandwich fuses into a
    // 4x4 block on (lo local, hi global): Block4Lo alignment.
    let mut block_edge = Circuit::new(n);
    block_edge
        .ry(1, 0.3)
        .ry(n - 1, 0.7)
        .cx(1, n - 1)
        .cz(1, n - 1)
        .rz(1, 0.9)
        .cx(1, n - 1);

    for (name, circuit) in [
        ("one_q", &one_q),
        ("cx_edge", &cx_edge),
        ("swap_edge", &swap_edge),
        ("block_edge", &block_edge),
    ] {
        for shards in [2usize, 4, 8] {
            // Odd, prime, and oversubscribed worker counts: the split
            // factor rounds up to a power of two and clamps at the
            // kernel's alignment-limited maximum.
            for threads in [1usize, 3, 5, 6, 7, 16, 64] {
                assert_bit_identical(circuit, shards, threads, TransportMode::Local, name);
            }
        }
    }
}

/// Worker counts exceeding the pair count do split exchanges: the
/// in-process backend reports the extra slices it created, and the
/// split work remains bit-identical (covered above).
#[test]
fn oversubscribed_exchanges_report_sub_splits() {
    let n = 8;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.6);
    let plan = CircuitPlan::compile(&c);
    let layout: Vec<usize> = (0..n).collect();
    let sp = ShardPlan::with_layout(&plan, 2, &layout);
    // 2 shards = 1 exchange pair; 8 workers want 8 slices of it.
    // Sub-splitting is the in-process backend's parallelization detail,
    // so pin the transport against the environment default.
    let mut st = ShardedState::zero(n, 2)
        .with_parallelism(Parallelism::Threads(8))
        .with_transport(TransportMode::Local);
    st.try_apply_shard_plan(&sp).unwrap();
    let stats = st.shard_stats();
    assert!(stats.exchanges >= 1, "expected an exchange, got {stats:?}");
    assert!(
        stats.sub_splits >= 1,
        "8 workers over 1 pair must sub-split, got {stats:?}"
    );
    assert_eq!(stats.messages, 0, "in-process transport moves no messages");
    assert_eq!(stats.bytes_moved, 0);
}

/// The message-passing backend meters its wire honestly: every exchange
/// moves amplitude payloads, every command and reply counts as a
/// message, and counters accumulate across chained plans on one state.
#[test]
fn channel_counters_accumulate_across_chained_plans() {
    let n = 6;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.5);
    let mut st = ShardedState::zero(n, 4).with_transport(TransportMode::Channel);
    st.try_apply_plan(&CircuitPlan::compile(&c)).unwrap();
    let after_one = st.shard_stats();
    assert!(after_one.messages > 0, "channel transport must message");
    st.try_apply_plan(&CircuitPlan::compile(&c)).unwrap();
    let after_two = st.shard_stats();
    assert!(after_two.messages > after_one.messages);
    assert!(after_two.bytes_moved >= after_one.bytes_moved);
    // The wire volume is an exact multiple of the 16-byte amplitude.
    assert_eq!(after_two.bytes_moved % 16, 0);
}

/// Mutation check: corrupting one transported `u64` word must be caught
/// by the bit-identity oracle. The injected flip XORs the exponent
/// field, so no transported value survives it unchanged — if this test
/// ever fails, the cross-backend equivalence suite has lost its teeth.
#[test]
fn corrupting_one_wire_word_is_caught_by_the_oracle() {
    let n = 6;
    // A spread state (H wall) so every transported word is nonzero,
    // then a global-qubit rotation to force an exchange.
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.ry(n - 1, 0.77);
    let mut clean = ShardedState::zero(n, 4).with_transport(TransportMode::Channel);
    clean.try_apply_plan(&CircuitPlan::compile(&c)).unwrap();
    assert!((clean.norm_sqr() - 1.0).abs() < 1e-12, "control run clean");
    let mut corrupted = ShardedState::zero(n, 4)
        .with_transport(TransportMode::Channel)
        .with_fault(FaultInjection::corrupt_word(0));
    corrupted.try_apply_plan(&CircuitPlan::compile(&c)).unwrap();
    // The exponent flip changes the first transported amplitude's
    // magnitude by at least 2x, so even the coarsest invariant — the
    // state norm — visibly breaks. (`to_statevector` would assert on
    // the denormalized state, so the check reads the shards directly.)
    let drift = (corrupted.norm_sqr() - 1.0).abs();
    assert!(
        drift > 1e-6,
        "a corrupted wire word must be detectable, norm drift {drift:e}"
    );
}

/// A rank that dies before processing commands surfaces as a typed
/// error value — never a panic, never a deadlock — and poisons the
/// state so later applies fail fast instead of touching stale shards.
#[test]
fn dead_rank_fails_typed_and_poisons_the_state() {
    let n = 5;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.9);
    let mut st = ShardedState::zero(n, 4)
        .with_transport(TransportMode::Channel)
        .with_fault(FaultInjection::kill_rank(2));
    let err = st
        .try_apply_plan(&CircuitPlan::compile(&c))
        .expect_err("a dead rank must fail the apply");
    assert!(
        matches!(
            err,
            TransportError::Disconnected { rank: 2, .. } | TransportError::Timeout { .. }
        ),
        "unexpected error: {err:?}"
    );
    // The error is a value with a readable rendering.
    assert!(!err.to_string().is_empty());
    // Subsequent applies fail fast on the poisoned state.
    let again = st
        .try_apply_plan(&CircuitPlan::compile(&c))
        .expect_err("poisoned state must refuse further plans");
    assert_eq!(again, TransportError::Poisoned);
}

/// The rank-thread backend leaks no threads: after states are dropped —
/// whether their plans succeeded or a rank was killed mid-plan — the
/// process-wide live rank-thread gauge returns to its baseline. Threads
/// that other tests spawn for other work never move the gauge.
#[test]
fn rank_threads_are_joined_not_leaked() {
    let n = 5;
    let mut ok_plan = Circuit::new(n);
    ok_plan.h(0).ry(n - 1, 0.4);
    let plan = CircuitPlan::compile(&ok_plan);
    let before = live_rank_threads();
    for round in 0..8 {
        let fault = if round % 2 == 0 {
            FaultInjection::none()
        } else {
            FaultInjection::kill_rank(1)
        };
        let mut st = ShardedState::zero(n, 4)
            .with_transport(TransportMode::Channel)
            .with_fault(fault);
        let _ = st.try_apply_plan(&plan);
    }
    // Every session above is dropped, so its ranks are joined and off the
    // gauge. Other tests in this binary may hold rank threads at either
    // reading; their sessions end too, while a leaked rank never would.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut after = live_rank_threads();
    while after > before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
        after = live_rank_threads();
    }
    assert!(
        after <= before,
        "rank threads leaked: {before} live before, {after} after"
    );
}
