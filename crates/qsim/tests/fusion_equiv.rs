//! Property tests for the circuit compiler (`qsim::plan`).
//!
//! Three guarantees, over random circuits spanning qubit counts 1–12 and
//! thread counts 1–8:
//!
//! 1. **Fused serial ≡ fused threaded, bitwise.** The dense plane and a
//!    threaded run (`Threads(k)`: `2^⌊log₂ k⌋` shards × `k` workers)
//!    consume the same compiled plan and perform identical arithmetic, so
//!    amplitudes must match with `==` on `f64`, never a tolerance.
//! 2. **Fused ≈ unfused, 1e-12.** Fusion replaces `k` rounded sweeps with
//!    one rounded matrix product — mathematically the same unitary, so
//!    every amplitude agrees to tight tolerance but *not* bitwise.
//! 3. **Rebind ≡ fresh compile, bitwise.** A cached structure rebound
//!    with new rotation angles multiplies exactly the matrices a fresh
//!    compile would, so the resulting states are bit-identical.
//! 4. **Entangler blocks preserve the state.** Ansatz-shaped circuits
//!    (rotation sandwiches around full / linear / circular entangler
//!    maps) always lower to at least one `Block4`, the blocked plan
//!    matches gate-by-gate execution to 1e-12, and rebinding a cached
//!    blocked structure reproduces a fresh compile bit for bit.

use proptest::prelude::*;
use qsim::shard::shards_and_workers;
use qsim::{Circuit, CircuitPlan, Parallelism, PlanCache, ShardedState, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random circuit over `n` qubits drawn from a seeded stream: rotations,
/// Cliffords, and (for n >= 2) CX/CZ/SWAP on distinct qubit pairs. Biased
/// toward rotations so single-qubit runs long enough to fuse are common.
fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.random_range(0..n);
        let kind = rng.random_range(0..12u8);
        match kind {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.s(q),
            3 => c.sdg(q),
            4 => c.rx(q, rng.random_range(-3.2..3.2)),
            5 | 6 => c.ry(q, rng.random_range(-3.2..3.2)),
            7 | 8 => c.rz(q, rng.random_range(-3.2..3.2)),
            _ if n < 2 => c.h(q),
            _ => {
                let mut p = rng.random_range(0..n);
                while p == q {
                    p = rng.random_range(0..n);
                }
                match kind {
                    9 => c.cx(q, p),
                    10 => c.cz(q, p),
                    _ => c.swap(q, p),
                }
            }
        };
    }
    c
}

/// The same circuit structure with freshly drawn rotation angles.
fn reangled(circuit: &Circuit, seed: u64) -> Circuit {
    use qsim::Gate;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(circuit.num_qubits());
    for &g in circuit.gates() {
        let g = match g {
            Gate::Rx(q, _) => Gate::Rx(q, rng.random_range(-3.2..3.2)),
            Gate::Ry(q, _) => Gate::Ry(q, rng.random_range(-3.2..3.2)),
            Gate::Rz(q, _) => Gate::Rz(q, rng.random_range(-3.2..3.2)),
            g => g,
        };
        c.push(g);
    }
    c
}

/// The qubit pairs of an EfficientSU2-style entangler layer. Built
/// inline: these tests cannot depend on the `vqe` crate (it depends on
/// `qsim`), so the ansatz shapes are reproduced here.
fn entangler_pairs(n: usize, map: u8) -> Vec<(usize, usize)> {
    match map {
        // Full: every ordered pair (i, j) with i < j.
        0 => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
        // Linear: nearest neighbours.
        1 => (0..n - 1).map(|i| (i, i + 1)).collect(),
        // Circular: nearest neighbours plus the wrap-around link.
        _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
    }
}

/// An EfficientSU2-shaped circuit: `reps` repetitions of per-qubit Ry·Rz
/// sandwiches followed by a CX entangler layer, plus a final rotation
/// layer, with angles drawn from a seeded stream. The shape block fusion
/// is built for: every entangler layer opens pair blocks that absorb the
/// sandwiches around them.
fn su2_ansatz(n: usize, reps: usize, map: u8, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..reps {
        for q in 0..n {
            c.ry(q, rng.random_range(-3.2..3.2));
        }
        for q in 0..n {
            c.rz(q, rng.random_range(-3.2..3.2));
        }
        for (a, b) in entangler_pairs(n, map) {
            c.cx(a, b);
        }
    }
    for q in 0..n {
        c.ry(q, rng.random_range(-3.2..3.2));
        c.rz(q, rng.random_range(-3.2..3.2));
    }
    c
}

proptest! {
    /// Serial and threaded execution of one compiled plan agree bit for
    /// bit, threads running as shards.
    #[test]
    fn fused_serial_and_threaded_are_bit_identical(
        n in 1usize..=12,
        threads in 1usize..=8,
        gates in 1usize..=32,
        seed in 0u64..100_000,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let plan = CircuitPlan::compile(&circuit);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let mode = Parallelism::Threads(threads);
        let (shards, _) = shards_and_workers(mode, n, plan.op_count());
        let mut threaded = ShardedState::zero(n, shards).with_parallelism(mode);
        threaded.apply_plan(&plan);
        prop_assert_eq!(
            serial.amplitudes(),
            threaded.to_statevector().amplitudes(),
            "divergence: {} qubits, {} threads, {} gates, seed {}",
            n, threads, gates, seed
        );
    }

    /// The fused plan prepares the same state as gate-by-gate execution
    /// to 1e-12 per amplitude (fusion re-rounds, so not bitwise).
    #[test]
    fn fused_matches_unfused_to_1e12(
        n in 1usize..=10,
        gates in 1usize..=32,
        seed in 0u64..100_000,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let mut fused = Statevector::zero(n);
        fused.apply_circuit(&circuit);
        let mut unfused = Statevector::zero(n);
        unfused.apply_circuit_unfused(&circuit);
        for (i, (a, b)) in fused
            .amplitudes()
            .iter()
            .zip(unfused.amplitudes())
            .enumerate()
        {
            prop_assert!(
                (*a - *b).abs() < 1e-12,
                "amplitude {} differs by {:e} ({} qubits, {} gates, seed {})",
                i, (*a - *b).abs(), n, gates, seed
            );
        }
    }

    /// A cached structure rebound with new rotation angles produces the
    /// exact amplitudes of a from-scratch compile of the new circuit.
    #[test]
    fn cached_plan_rebind_matches_fresh_compile(
        n in 1usize..=8,
        gates in 1usize..=24,
        seed in 0u64..100_000,
    ) {
        let first = random_circuit(n, gates, seed);
        let second = reangled(&first, seed ^ 0x9e37_79b9);

        let mut cache = PlanCache::new();
        cache.plan(&first);
        let rebound = cache.plan(&second); // structure hit, parameters rebound
        prop_assert_eq!(cache.hits(), 1);

        let fresh = CircuitPlan::compile(&second);
        let mut a = Statevector::zero(n);
        a.apply_plan(&rebound);
        let mut b = Statevector::zero(n);
        b.apply_plan(&fresh);
        prop_assert_eq!(a.amplitudes(), b.amplitudes());
    }

    /// Ansatz-shaped circuits always lower to entangler blocks, and the
    /// blocked plan prepares the gate-by-gate state to 1e-12 for every
    /// entanglement map.
    #[test]
    fn ansatz_blocks_match_unfused_to_1e12(
        n in 2usize..=12,
        reps in 1usize..=3,
        map in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let circuit = su2_ansatz(n, reps, map, seed);
        let plan = CircuitPlan::compile(&circuit);
        prop_assert!(
            plan.block_count() > 0,
            "no blocks: {} qubits, {} reps, map {}, seed {}",
            n, reps, map, seed
        );
        let mut blocked = Statevector::zero(n);
        blocked.apply_plan(&plan);
        let mut unfused = Statevector::zero(n);
        unfused.apply_circuit_unfused(&circuit);
        for (i, (a, b)) in blocked
            .amplitudes()
            .iter()
            .zip(unfused.amplitudes())
            .enumerate()
        {
            prop_assert!(
                (*a - *b).abs() < 1e-12,
                "amplitude {} differs by {:e} ({} qubits, {} reps, map {}, seed {})",
                i, (*a - *b).abs(), n, reps, map, seed
            );
        }
    }

    /// A cached ansatz structure rebound with fresh angles rebinds its
    /// block matrices too: bit-identical to a fresh compile of the
    /// reangled circuit.
    #[test]
    fn block4_rebind_matches_fresh_compile(
        n in 2usize..=10,
        map in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let first = su2_ansatz(n, 2, map, seed);
        let second = reangled(&first, seed ^ 0x51f1_57a7);

        let mut cache = PlanCache::new();
        cache.plan(&first);
        let rebound = cache.plan(&second); // structure hit, blocks rebound
        prop_assert_eq!(cache.hits(), 1);
        prop_assert!(rebound.block_count() > 0);

        let fresh = CircuitPlan::compile(&second);
        let mut a = Statevector::zero(n);
        a.apply_plan(&rebound);
        let mut b = Statevector::zero(n);
        b.apply_plan(&fresh);
        prop_assert_eq!(a.amplitudes(), b.amplitudes());
    }
}
