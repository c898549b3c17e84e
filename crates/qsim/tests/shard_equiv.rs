//! Property test: sharded amplitude-plane execution is bit-identical to
//! the single-plane serial path.
//!
//! The sharded executor partitions amplitudes across shards, batches
//! local ops per shard, exchanges across shard pairs for global-qubit
//! ops, and may remap qubits through a layout — but every logical
//! amplitude goes through the exact same floating-point operations as
//! the serial kernels, so the gathered state must match **exactly**
//! (`==` on `f64`, no tolerance) for every circuit, qubit count 2–14,
//! shard count 1–8, and thread count 1–4. Threads are shards, so the
//! executor-level rule (`Threads(w)` prepares on `2^⌊log₂ w⌋` shards ×
//! `w` workers) is held to the serial bits too. Targeted tests pin
//! exchange sub-split alignment at every worker count, the worker clamp,
//! and the movement counters.

use proptest::prelude::*;
use qsim::plan::ShardPlan;
use qsim::{Circuit, CircuitPlan, Parallelism, ShardedState, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random circuit over `n` qubits drawn from a seeded stream:
/// rotations, Cliffords, and (for n >= 2) CX/CZ/SWAP on distinct qubit
/// pairs. Qubit choice is uniform, so high (global under sharding)
/// qubits appear in every role.
fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.random_range(0..n);
        let kind = rng.random_range(0..10u8);
        match kind {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.s(q),
            3 => c.sdg(q),
            4 => c.rx(q, rng.random_range(-3.2..3.2)),
            5 => c.ry(q, rng.random_range(-3.2..3.2)),
            6 => c.rz(q, rng.random_range(-3.2..3.2)),
            _ if n < 2 => c.h(q),
            _ => {
                let mut p = rng.random_range(0..n);
                while p == q {
                    p = rng.random_range(0..n);
                }
                match kind {
                    7 => c.cx(q, p),
                    8 => c.cz(q, p),
                    _ => c.swap(q, p),
                }
            }
        };
    }
    c
}

fn serial_reference(circuit: &Circuit) -> Statevector {
    let mut serial = Statevector::zero(circuit.num_qubits());
    serial.apply_plan(&CircuitPlan::compile(circuit));
    serial
}

proptest! {
    /// Executor preparation under `Threads(1..=8)` and `Auto` — dense
    /// or sharded, whatever the rule picks — reproduces `Serial`
    /// preparation bit for bit on 1–12 qubits, including registers with
    /// fewer amplitudes than the requested shards.
    #[test]
    fn prepare_under_threads_and_auto_matches_serial(
        n in 1usize..=12,
        threads in 1usize..=8,
        gates in 1usize..=40,
        seed in 0u64..100_000,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let prepare = |mode| {
            vqe::SimExecutor::new(qnoise::DeviceModel::noiseless(n), 16, 1)
                .with_parallelism(mode)
                .prepare(&circuit)
        };
        let serial = prepare(Parallelism::Serial);
        for mode in [Parallelism::Threads(threads), Parallelism::Auto] {
            prop_assert_eq!(
                serial.amplitudes(),
                prepare(mode).amplitudes(),
                "{:?}: {} qubits, {} gates, seed {}",
                mode, n, gates, seed
            );
        }
    }

    /// Sharded execution (with the exchange-minimizing layout remap)
    /// reproduces the serial amplitudes bit for bit across qubit counts
    /// 2–14, shard counts 1–8, and thread counts 1–4.
    #[test]
    fn sharded_execution_is_bit_identical(
        n in 2usize..=14,
        shard_log in 0u32..=3,
        threads in 1usize..=4,
        gates in 1usize..=30,
        seed in 0u64..100_000,
    ) {
        let shards = (1usize << shard_log).min(1 << n);
        let circuit = random_circuit(n, gates, seed);
        let serial = serial_reference(&circuit);
        let mut sharded = ShardedState::zero(n, shards)
            .with_parallelism(Parallelism::Threads(threads));
        sharded.apply_plan(&CircuitPlan::compile(&circuit));
        prop_assert_eq!(
            serial.amplitudes(),
            sharded.to_statevector().amplitudes(),
            "divergence: {} qubits, {} shards, {} threads, {} gates, seed {}",
            n, shards, threads, gates, seed
        );
    }

    /// The identity layout (no remap) exercises the exchange and
    /// plane-swap kernels hard: every circuit here works the top two
    /// qubits, which stay global when the layout is pinned.
    #[test]
    fn global_qubit_exchanges_are_bit_identical(
        shards_log in 1u32..=3,
        threads in 1usize..=4,
        seed in 0u64..100_000,
    ) {
        let n = 8;
        let shards = 1usize << shards_log;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..14 {
            match rng.random_range(0..7u8) {
                0 => c.ry(n - 1, rng.random_range(-3.2..3.2)),
                1 => c.h(n - 2),
                2 => c.cx(rng.random_range(0..n - 2), n - 1),
                3 => c.cx(n - 1, n - 2),
                4 => c.cz(n - 1, rng.random_range(0..n - 1)),
                5 => c.swap(n - 1, rng.random_range(0..n - 1)),
                _ => c.swap(n - 1, n - 2),
            };
        }
        let plan = CircuitPlan::compile(&c);
        let serial = serial_reference(&c);
        let layout: Vec<usize> = (0..n).collect();
        let sp = ShardPlan::with_layout(&plan, shards, &layout);
        let mut sharded = ShardedState::zero(n, shards)
            .with_parallelism(Parallelism::Threads(threads));
        sharded.apply_shard_plan(&sp);
        prop_assert_eq!(
            serial.amplitudes(),
            sharded.to_statevector().amplitudes(),
            "divergence: {} shards, {} threads, seed {} ({} exchanges, {} plane swaps)",
            shards, threads, seed, sp.exchange_count(), sp.plane_swap_count()
        );
    }

    /// Sequential plans on one sharded state (the second pins the layout
    /// the first adopted) still match running both plans serially.
    #[test]
    fn chained_plans_are_bit_identical(
        n in 3usize..=10,
        shards_log in 0u32..=2,
        seed in 0u64..100_000,
    ) {
        let shards = (1usize << shards_log).min(1 << n);
        let a = random_circuit(n, 12, seed);
        let b = random_circuit(n, 12, seed.wrapping_add(1));
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&CircuitPlan::compile(&a));
        serial.apply_plan(&CircuitPlan::compile(&b));
        let mut sharded = ShardedState::zero(n, shards);
        sharded.apply_plan(&CircuitPlan::compile(&a));
        sharded.apply_plan(&CircuitPlan::compile(&b));
        prop_assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    /// Entangler blocks in every placement the shard planner
    /// distinguishes — both pair bits local, low bit local / high bit
    /// global, and both bits global — execute bit-identically under a
    /// pinned identity layout.
    #[test]
    fn block4_placements_are_bit_identical(
        shards_log in 1u32..=3,
        threads in 1usize..=4,
        seed in 0u64..100_000,
    ) {
        let n = 8;
        let shards = 1usize << shards_log;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        // Three same-pair entangler runs with rotation sandwiches: pair
        // (0,1) stays local at every shard count here, (1,n-1) splits,
        // and (n-2,n-1) is fully global once shards >= 4.
        for &(a, b) in &[(0usize, 1usize), (1, n - 1), (n - 2, n - 1)] {
            c.ry(a, rng.random_range(-3.2..3.2));
            c.ry(b, rng.random_range(-3.2..3.2));
            c.cx(a, b);
            c.cz(a, b);
            c.rz(a, rng.random_range(-3.2..3.2));
            c.ry(b, rng.random_range(-3.2..3.2));
            c.cx(b, a);
        }
        let plan = CircuitPlan::compile(&c);
        prop_assert!(plan.block_count() >= 3, "want all three placements blocked");
        let serial = serial_reference(&c);
        let layout: Vec<usize> = (0..n).collect();
        let sp = ShardPlan::with_layout(&plan, shards, &layout);
        let mut sharded = ShardedState::zero(n, shards)
            .with_parallelism(Parallelism::Threads(threads));
        sharded.apply_shard_plan(&sp);
        prop_assert_eq!(
            serial.amplitudes(),
            sharded.to_statevector().amplitudes(),
            "divergence: {} shards, {} threads, seed {}",
            shards, threads, seed
        );
    }
}

/// The block-path assertions above are non-vacuous: executing a
/// deliberately transposed block matrix through the sharded engine must
/// visibly disturb the state relative to the serial reference.
#[test]
fn transposed_block_is_caught_by_the_shard_oracle() {
    let n = 6;
    let mut c = Circuit::new(n);
    for &(a, b) in &[(0usize, 1usize), (n - 2, n - 1)] {
        c.ry(a, 0.3)
            .ry(b, 0.7)
            .cx(a, b)
            .cz(a, b)
            .rz(a, 0.9)
            .cx(a, b);
    }
    let plan = CircuitPlan::compile(&c);
    assert!(plan.block_count() >= 2);
    let serial = serial_reference(&c);
    let layout: Vec<usize> = (0..n).collect();
    let mutated = ShardPlan::with_layout(&plan.transpose_blocks_for_tests(), 4, &layout);
    let mut sharded = ShardedState::zero(n, 4);
    sharded.apply_shard_plan(&mutated);
    let drift: f64 = serial
        .amplitudes()
        .iter()
        .zip(sharded.to_statevector().amplitudes())
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max);
    assert!(
        drift > 1e-6,
        "transposed blocks must be detectable, drift {drift:e}"
    );
}

/// Regression (caught by the 256-case deep tier): a layout remap that
/// *flips* a block's pair order conjugates its matrix with
/// `swap_qubits4`, relabeling the pair basis by the permutation
/// `(0)(3)(1 2)`. A left-to-right quad accumulation diverged from the
/// serial reference by one rounding under that relabeling; the
/// `(0,3)+(1,2)` pairing in `exec::quad_update` keeps it exact. Pins
/// the seed that first exposed the divergence.
#[test]
fn pair_flipping_remap_is_bit_identical() {
    let circuit = random_circuit(4, 18, 1806);
    let serial = serial_reference(&circuit);
    let mut sharded = ShardedState::zero(4, 2).with_parallelism(Parallelism::Threads(4));
    sharded.apply_plan(&CircuitPlan::compile(&circuit));
    assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
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

    let layout: Vec<usize> = (0..n).collect();
    for (name, circuit) in [
        ("one_q", &one_q),
        ("cx_edge", &cx_edge),
        ("swap_edge", &swap_edge),
        ("block_edge", &block_edge),
    ] {
        let plan = CircuitPlan::compile(circuit);
        let serial = serial_reference(circuit);
        for shards in [2usize, 4, 8] {
            // A pinned identity layout keeps the top qubits global, so
            // the chosen ops really exchange.
            let sp = ShardPlan::with_layout(&plan, shards, &layout);
            // Odd, prime, and oversubscribed worker counts: the split
            // factor rounds up to a power of two and clamps at the
            // kernel's alignment-limited maximum.
            for threads in [1usize, 3, 5, 6, 7, 16, 64] {
                let mut sharded =
                    ShardedState::zero(n, shards).with_parallelism(Parallelism::Threads(threads));
                sharded.apply_shard_plan(&sp);
                assert_eq!(
                    serial.amplitudes(),
                    sharded.to_statevector().amplitudes(),
                    "{name}: {shards} shards, {threads} threads"
                );
            }
        }
    }
}

/// Worker counts exceeding the pair count do split exchanges: the state
/// reports the extra slices it created, and the split work remains
/// bit-identical (covered above).
#[test]
fn oversubscribed_exchanges_report_sub_splits() {
    let n = 8;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.6);
    let plan = CircuitPlan::compile(&c);
    let layout: Vec<usize> = (0..n).collect();
    let sp = ShardPlan::with_layout(&plan, 2, &layout);
    // 2 shards = 1 exchange pair; 8 workers want 8 slices of it.
    let mut st = ShardedState::zero(n, 2).with_parallelism(Parallelism::Threads(8));
    st.apply_shard_plan(&sp);
    let stats = st.shard_stats();
    assert!(stats.exchanges >= 1, "expected an exchange, got {stats:?}");
    assert!(
        stats.sub_splits >= 1,
        "8 workers over 1 pair must sub-split, got {stats:?}"
    );
}

/// Thread requests are clamped to `parallel::MAX_THREADS` before they
/// reach the exchanges: an absurd request on a 2-shard 8-qubit state
/// sub-splits each exchange at most `MAX_THREADS - 1` times.
#[test]
fn absurd_thread_requests_are_clamped() {
    let n = 8;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.6);
    let plan = CircuitPlan::compile(&c);
    let layout: Vec<usize> = (0..n).collect();
    let sp = ShardPlan::with_layout(&plan, 2, &layout);
    let mut st = ShardedState::zero(n, 2).with_parallelism(Parallelism::Threads(1 << 20));
    st.apply_shard_plan(&sp);
    let stats = st.shard_stats();
    assert!(stats.exchanges >= 1, "expected an exchange, got {stats:?}");
    assert!(
        stats.sub_splits <= (parallel::MAX_THREADS as u64 - 1) * stats.exchanges,
        "unclamped sub-splits: {stats:?}"
    );
    assert_eq!(
        serial_reference(&c).amplitudes(),
        st.to_statevector().amplitudes()
    );
}

/// Movement counters accumulate across chained plans on one state: a
/// second plan with the same exchanges adds its steps to the first's.
#[test]
fn counters_accumulate_across_chained_plans() {
    let n = 6;
    let mut c = Circuit::new(n);
    c.h(0).ry(n - 1, 0.5);
    let plan = CircuitPlan::compile(&c);
    let layout: Vec<usize> = (0..n).collect();
    let sp = ShardPlan::with_layout(&plan, 4, &layout);
    let mut st = ShardedState::zero(n, 4);
    st.apply_shard_plan(&sp);
    let after_one = st.shard_stats();
    assert!(
        after_one.exchanges >= 1,
        "expected an exchange, got {after_one:?}"
    );
    assert!(
        after_one.local_runs >= 1,
        "expected a local run, got {after_one:?}"
    );
    st.apply_shard_plan(&sp);
    let after_two = st.shard_stats();
    assert_eq!(after_two.exchanges, 2 * after_one.exchanges);
    assert_eq!(after_two.local_runs, 2 * after_one.local_runs);
}
