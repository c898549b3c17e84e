//! Property test: the blocked, branchless expectation kernel is
//! bit-identical to a textbook per-term reference.
//!
//! The reference walks the outcomes of one term in order and branches on
//! the parity of each outcome over the term's support, adding or
//! subtracting its probability. `expectations_from_probs` (and the
//! one-term `expectation_from_probs`) must reproduce every value exactly
//! — the same `f64` bits, not within a tolerance — for 1–12 measured
//! qubits (fewer than 64 outcomes, one 64-outcome block, many blocks),
//! group sizes 1–9 (every 4/2/1 register-block remainder), parity masks
//! with bits at and above 6, and support-only layouts whose measured
//! qubit list is an arbitrary ordered subset of the register.

use pauli::{expectation_from_probs, expectations_from_probs, Pauli, PauliString};
use proptest::prelude::*;

/// Register width the strings are defined over; the measured qubits are
/// drawn from it.
const REGISTER: usize = 14;
/// Largest measured-qubit count.
const MAX_MEASURED: usize = 12;
/// Largest group size.
const MAX_GROUP: usize = 9;

/// Textbook `Σ_x ±p(x)`: one pass per term, branching on the parity of
/// `x` over the term's support positions in the measured layout.
fn branchy_expectation(string: &PauliString, probs: &[f64], measured: &[usize]) -> f64 {
    let positions: Vec<usize> = string
        .support()
        .into_iter()
        .map(|q| measured.iter().position(|&m| m == q).expect("covered"))
        .collect();
    let mut acc = 0.0;
    for (x, &p) in probs.iter().enumerate() {
        let odd = positions.iter().filter(|&&j| (x >> j) & 1 == 1).count() % 2 == 1;
        if odd {
            acc -= p;
        } else {
            acc += p;
        }
    }
    acc
}

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop::sample::select(vec![Pauli::I, Pauli::X, Pauli::Y, Pauli::Z])
}

proptest! {
    #[test]
    fn blocked_kernel_matches_branchy_reference(
        m in 1usize..=MAX_MEASURED,
        group in 1usize..=MAX_GROUP,
        full_register in prop::sample::select(vec![false, true]),
        order in prop::sample::shuffle((0..REGISTER).collect::<Vec<usize>>()),
        paulis in prop::collection::vec(arb_pauli(), MAX_GROUP * REGISTER),
        weights in prop::collection::vec(0.0..1.0f64, 1 << MAX_MEASURED),
        zeros in prop::collection::vec(0.0..1.0f64, 1 << MAX_MEASURED),
    ) {
        // Either the plain layout `0..m` or a support-only layout: an
        // arbitrary ordered subset of the register.
        let measured: Vec<usize> = if full_register {
            (0..m).collect()
        } else {
            order[..m].to_vec()
        };
        let probs: Vec<f64> = weights[..1 << m]
            .iter()
            .zip(&zeros)
            .map(|(&w, &z)| if z < 0.2 { 0.0 } else { w })
            .collect();
        // Group members act only on measured qubits, so every one is
        // covered by the layout.
        let strings: Vec<PauliString> = (0..group)
            .map(|i| {
                PauliString::new(
                    (0..REGISTER)
                        .map(|q| {
                            if measured.contains(&q) {
                                paulis[i * REGISTER + q]
                            } else {
                                Pauli::I
                            }
                        })
                        .collect(),
                )
            })
            .collect();

        let mut blocked = Vec::new();
        expectations_from_probs(&strings, &probs, &measured, |i, e| {
            assert_eq!(i, blocked.len(), "values arrive in string order");
            blocked.push(e);
        });
        prop_assert_eq!(blocked.len(), group);
        for (s, &e) in strings.iter().zip(&blocked) {
            let want = branchy_expectation(s, &probs, &measured);
            prop_assert_eq!(e.to_bits(), want.to_bits(), "{} over {:?}", s, measured);
            let single = expectation_from_probs(s, &probs, &measured);
            prop_assert_eq!(single.to_bits(), want.to_bits(), "{} one-term", s);
        }
    }
}

/// Masks at and above bit 6 on a many-block distribution, with every
/// group size 1–9, pinned deterministically alongside the random cases.
#[test]
fn high_bit_masks_match_reference() {
    let m = 12;
    let measured: Vec<usize> = (0..m).rev().collect();
    let probs: Vec<f64> = (0..1usize << m)
        .map(|x| ((x * 2654435761) % 1009) as f64 / 1009.0)
        .collect();
    let all: Vec<PauliString> = [
        "ZIIIIIIIIIII",
        "IIIIIIZIIIII",
        "IIIIIZZIIIIZ",
        "XYZXYZXYZXYZ",
        "IIIIIIIIIIIZ",
        "ZZZZZZIIIIII",
        "IIIIIIZZZZZZ",
        "YIIIIIIIIIIX",
        "IZIZIZIZIZIZ",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    for group in 1..=all.len() {
        let strings = &all[..group];
        expectations_from_probs(strings, &probs, &measured, |i, e| {
            let want = branchy_expectation(&strings[i], &probs, &measured);
            assert_eq!(
                e.to_bits(),
                want.to_bits(),
                "{} in a group of {group}",
                strings[i]
            );
        });
    }
}
