//! Property-based tests for the state-vector simulator.

use proptest::prelude::*;
use qsim::{Circuit, Gate, Statevector};

/// Strategy producing an arbitrary gate on a circuit of `n` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let theta = -6.3..6.3f64;
    prop_oneof![
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::Y),
        q.clone().prop_map(Gate::Z),
        q.clone().prop_map(Gate::S),
        q.clone().prop_map(Gate::Sdg),
        q.clone().prop_map(Gate::T),
        q.clone().prop_map(Gate::Tdg),
        (q.clone(), theta.clone()).prop_map(|(q, t)| Gate::Rx(q, t)),
        (q.clone(), theta.clone()).prop_map(|(q, t)| Gate::Ry(q, t)),
        (q.clone(), theta).prop_map(|(q, t)| Gate::Rz(q, t)),
        (0..n, 0..n).prop_filter_map("distinct qubits", |(a, b)| (a != b)
            .then_some(Gate::Cx(a, b))),
        (0..n, 0..n).prop_filter_map("distinct qubits", |(a, b)| (a != b)
            .then_some(Gate::Cz(a, b))),
        (0..n, 0..n).prop_filter_map("distinct qubits", |(a, b)| (a != b)
            .then_some(Gate::Swap(a, b))),
    ]
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 0..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        c.extend(gates);
        c
    })
}

/// Any sampler width, 1 to 1024 outcomes, log-uniformly.
fn any_width() -> impl Strategy<Value = usize> {
    (0u32..=10, 0usize..1024).prop_map(|(bits, r)| 1 + r % (1 << bits))
}

/// The widths drawn through the guide table, 33 to 1024 outcomes,
/// log-uniformly.
fn guided_width() -> impl Strategy<Value = usize> {
    (6u32..=10, 0usize..1024).prop_map(|(bits, r)| (1 << (bits - 1)) + 1 + r % (1 << (bits - 1)))
}

/// Strategy producing a distribution for the sampler oracle, of a width
/// drawn from `size`: flat, ragged, spiky or steep; zero runs at either
/// end and zero holes inside; scaled far from normalized.
fn arb_distribution(size: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f64>> {
    let zeros = (0usize..1024, 0usize..1024, 0u32..4);
    let look = (
        0u8..4,
        -40i32..40,
        prop::sample::select(vec![1.0, 3.0, 0.1]),
        0u64..u64::MAX,
    );
    (size, zeros, look).prop_map(|(n, (lead, trail, holes), (shape, exp, mult, seed))| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let spike = rng.random_range(0..n);
        let mut p: Vec<f64> = (0..n)
            .map(|i| match shape {
                0 => 1.0,
                1 => rng.random::<f64>(),
                2 if i == spike => 1e6,
                2 => rng.random::<f64>(),
                _ => rng.random::<f64>().powi(16),
            })
            .collect();
        p[..lead % (n / 2 + 1)].fill(0.0);
        p[n - trail % (n / 2 + 1)..].fill(0.0);
        for x in &mut p {
            if rng.random_range(0..4u32) < holes {
                *x = 0.0;
            }
        }
        if p.iter().all(|&x| x == 0.0) {
            p[spike] = 1.0;
        }
        let scale = 2f64.powi(exp) * mult;
        p.iter().map(|x| x * scale).collect()
    })
}

/// A seeded RNG that keeps only the top `keep_bits` bits of each word.
/// Few bits put `u` on a coarse dyadic grid, so on flat distributions it
/// lands exactly on CDF values and exercises ties.
struct Coarse {
    inner: rand::rngs::StdRng,
    mask: u64,
}

impl Coarse {
    fn new(seed: u64, keep_bits: u32) -> Self {
        use rand::SeedableRng;
        Coarse {
            inner: rand::rngs::StdRng::seed_from_u64(seed),
            mask: !(u64::MAX.checked_shr(keep_bits).unwrap_or(0)),
        }
    }
}

impl rand::RngCore for Coarse {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64() & self.mask
    }
}

/// An RNG stuck on one word: 0 and `u64::MAX` give the extreme uniforms.
struct Stuck(u64);

impl rand::RngCore for Stuck {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The guided sampler's specification: per shot the same `u`, then the
/// first CDF entry greater than `u`, found by binary search.
fn reference_counts(probs: &[f64], shots: u64, rng: &mut Coarse) -> Vec<u64> {
    use rand::Rng;
    let cdf: Vec<f64> = probs
        .iter()
        .scan(0.0, |acc, &p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    let n = cdf.len();
    let total = cdf[n - 1];
    let mut counts = vec![0u64; n];
    for _ in 0..shots {
        let u = rng.random::<f64>() * total;
        counts[cdf.partition_point(|&c| c <= u).min(n - 1)] += 1;
    }
    counts
}

proptest! {
    /// Above the chained widths, shot sampling lands every shot exactly
    /// where the binary-search reference does, and never on an outcome
    /// with zero mass.
    #[test]
    fn sampling_matches_the_first_cdf_entry_above_u(
        probs in arb_distribution(guided_width()),
        seed in 0u64..u64::MAX,
        keep_bits in prop::sample::select(vec![64u32, 8, 3]),
    ) {
        for s in seed..seed.saturating_add(8) {
            let got = qsim::sample_counts(&probs, 512, &mut Coarse::new(s, keep_bits));
            let want = reference_counts(&probs, 512, &mut Coarse::new(s, keep_bits));
            prop_assert_eq!(&got, &want, "{} outcomes, seed {}, {} bits", probs.len(), s, keep_bits);
            for (i, (&c, &p)) in got.iter().zip(&probs).enumerate() {
                prop_assert!(p > 0.0 || c == 0, "zero-mass outcome {} drawn {} times", i, c);
            }
        }
    }

    /// At every width, the counts sum to the shots and no shot lands on
    /// an outcome with zero mass, also under coarse uniforms that tie CDF
    /// values and under the extreme uniforms 0 and `u64::MAX`, which must
    /// terminate.
    #[test]
    fn sampling_places_every_shot_on_the_mass(
        probs in arb_distribution(any_width()),
        seed in 0u64..u64::MAX,
        shots in prop::sample::select(vec![1u64, 7, 512]),
    ) {
        let draws = [
            qsim::sample_counts(&probs, shots, &mut Coarse::new(seed, 64)),
            qsim::sample_counts(&probs, shots, &mut Coarse::new(seed, 8)),
            qsim::sample_counts(&probs, shots, &mut Coarse::new(seed, 3)),
            qsim::sample_counts(&probs, shots, &mut Stuck(0)),
            qsim::sample_counts(&probs, shots, &mut Stuck(u64::MAX)),
        ];
        for (k, counts) in draws.iter().enumerate() {
            prop_assert_eq!(counts.iter().sum::<u64>(), shots, "draw {}, {} outcomes", k, probs.len());
            for (i, (&c, &p)) in counts.iter().zip(&probs).enumerate() {
                prop_assert!(p > 0.0 || c == 0, "draw {}: zero-mass outcome {} drawn {} times", k, i, c);
            }
        }
    }

    #[test]
    fn circuits_preserve_norm(c in arb_circuit(4, 40)) {
        let mut s = Statevector::zero(4);
        s.apply_circuit(&c);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Applying a circuit followed by its inverse returns to |0…0⟩.
    #[test]
    fn inverse_undoes_circuit(c in arb_circuit(3, 30)) {
        let mut s = Statevector::zero(3);
        s.apply_circuit(&c);
        s.apply_circuit(&c.inverse());
        prop_assert!((s.probabilities()[0] - 1.0).abs() < 1e-9);
    }

    /// Probabilities are a valid distribution: nonnegative, summing to one.
    #[test]
    fn probabilities_form_distribution(c in arb_circuit(4, 40)) {
        let mut s = Statevector::zero(4);
        s.apply_circuit(&c);
        let p = s.probabilities();
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// A marginal over all qubits in identity order equals the full
    /// distribution, and any marginal sums to one.
    #[test]
    fn marginals_are_consistent(c in arb_circuit(4, 30), qubits in proptest::sample::subsequence(vec![0usize, 1, 2, 3], 1..=4)) {
        let mut s = Statevector::zero(4);
        s.apply_circuit(&c);
        let m = s.marginal_probabilities(&qubits);
        prop_assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let full = s.marginal_probabilities(&[0, 1, 2, 3]);
        let direct = s.probabilities();
        for (a, b) in full.iter().zip(&direct) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Fidelity is symmetric and bounded by [0, 1].
    #[test]
    fn fidelity_is_symmetric(a in arb_circuit(3, 20), b in arb_circuit(3, 20)) {
        let mut sa = Statevector::zero(3);
        sa.apply_circuit(&a);
        let mut sb = Statevector::zero(3);
        sb.apply_circuit(&b);
        let f_ab = sa.fidelity(&sb);
        let f_ba = sb.fidelity(&sa);
        prop_assert!((f_ab - f_ba).abs() < 1e-9);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&f_ab));
    }

    /// Sampling from an exact distribution yields counts totalling `shots`
    /// and supported only where the distribution is nonzero.
    #[test]
    fn sampling_respects_support(c in arb_circuit(3, 20), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut s = Statevector::zero(3);
        s.apply_circuit(&c);
        let p = s.probabilities();
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = qsim::sample_counts(&p, 256, &mut rng);
        prop_assert_eq!(counts.iter().sum::<u64>(), 256);
        for (i, &cnt) in counts.iter().enumerate() {
            if cnt > 0 {
                prop_assert!(p[i] > 0.0, "sampled outcome {} has zero probability", i);
            }
        }
    }
}
