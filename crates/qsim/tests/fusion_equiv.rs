//! Property tests for the circuit compiler (`qsim::plan`).
//!
//! Three guarantees:
//!
//! 1. **Fused ≈ unfused, 1e-12.** Fusion replaces `k` rounded sweeps with
//!    one rounded matrix product — mathematically the same unitary, so
//!    every amplitude agrees to tight tolerance but *not* bitwise. Checked
//!    on random circuits over 1–10 qubits.
//! 2. **The paper's ansatz shape holds it too.** EfficientSU2-shaped
//!    circuits (rotation sandwiches around full / linear / circular
//!    entangler maps, 2–12 qubits) compile to a plan that matches
//!    gate-by-gate execution to 1e-12.
//! 3. **The fused bits are pinned.** One ansatz circuit and one circuit of
//!    diagonal folds prepare amplitudes whose digest is fixed, so the
//!    order of each fused product cannot change unnoticed.

use proptest::prelude::*;
use qsim::{Circuit, CircuitPlan, Gate, Statevector};
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
/// layer, with angles drawn from a seeded stream — the shape every VQE
/// evaluation of the paper executes.
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

    /// Ansatz-shaped circuits compile to a plan that prepares the
    /// gate-by-gate state to 1e-12 for every entanglement map.
    #[test]
    fn ansatz_fused_matches_unfused_to_1e12(
        n in 2usize..=12,
        reps in 1usize..=3,
        map in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let circuit = su2_ansatz(n, reps, map, seed);
        let plan = CircuitPlan::compile(&circuit);
        let mut fused = Statevector::zero(n);
        fused.apply_plan(&plan);
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
                "amplitude {} differs by {:e} ({} qubits, {} reps, map {}, seed {})",
                i, (*a - *b).abs(), n, reps, map, seed
            );
        }
    }
}

/// FNV-1a over the bits of every amplitude, real part first.
fn amplitude_digest(st: &Statevector) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in st.amplitudes() {
        for word in [a.re.to_bits(), a.im.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// A circuit whose diagonal runs fold through entanglers: Rz·S and Rz·T
/// runs cross a CZ on both qubits, an Rz·S† run crosses a CX on its
/// control side, and each then fuses with the rotations beyond.
fn diagonal_folds() -> Circuit {
    let mut c = Circuit::new(4);
    for q in 0..4 {
        c.h(q);
    }
    // Flushes every H run, so the diagonal runs below start fresh.
    c.cx(0, 1).cx(2, 3);
    c.rz(0, 0.37).s(0).rz(1, -1.21).push(Gate::T(1)).cz(0, 1);
    c.rz(0, 2.03).ry(0, 0.58).rz(1, 0.44).rx(1, -0.91);
    c.rz(2, 1.17).sdg(2).rz(3, -0.66).cx(2, 3);
    c.ry(2, -1.45).rz(2, 0.29).ry(3, 0.83);
    c.rz(1, 0.71).cx(1, 2).rz(1, -0.12).ry(1, 1.9).h(2);
    c
}

/// Pins the amplitude bits `apply_circuit` prepares, so a change to the
/// order in which a run's fused 2×2 product is multiplied fails here
/// even when every tolerance test still passes. The op counts show the
/// fusion and folds took place: 66 gates fuse to 48 ops, and the fold
/// circuit's Rz·S, Rz·T and Rz·S† runs cross their CZ and CX control
/// (27 gates, 16 ops).
#[test]
fn fused_amplitude_bits_are_pinned() {
    for (label, circuit, ops, want) in [
        (
            "efficient_su2",
            su2_ansatz(6, 2, 0, 2024),
            48,
            0xb945_cf49_a944_eb2c_u64,
        ),
        (
            "diagonal_folds",
            diagonal_folds(),
            16,
            0xe773_ccc1_7b28_418c,
        ),
    ] {
        assert_eq!(CircuitPlan::compile(&circuit).op_count(), ops, "{label}");
        let mut st = Statevector::zero(circuit.num_qubits());
        st.apply_circuit(&circuit);
        let got = amplitude_digest(&st);
        assert_eq!(got, want, "{label}: amplitude digest {got:#018x}");
    }
}
