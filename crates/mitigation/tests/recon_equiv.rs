//! Property test: the `Reconstructor` engine is bit-identical to a
//! textbook sequential Bayesian reconstruction, fresh and key-cached.
//!
//! The kernel must match the naive sequential reference **exactly**
//! (`==` on `f64`, not within a tolerance) for every input, qubit count
//! 2–14, window size and chain of sweeps — over dense priors and over
//! shot-sampled ones, which the engine sweeps over their nonzero outcomes
//! only.

use mitigation::{reconstruct, Pmf, Reconstructor};
use proptest::prelude::*;

/// The engine's support threshold: window outcomes whose prior marginal
/// is at or below it keep their mass exactly.
const EPSILON: f64 = 1e-9;

/// Textbook sequential reconstruction with the documented semantics: one
/// update per local, in order, each with per-outcome marginal
/// accumulation, Bayes conditioned on the prior's support (unsupported
/// window outcomes keep their mass exactly), skip of fully incompatible
/// updates, and the normalization `Pmf::new` applies (already-unit mass
/// left untouched).
fn naive_reconstruct(global: &Pmf, locals: &[Pmf]) -> Pmf {
    let mut out = global.clone();
    for local in locals {
        naive_update(&mut out, local);
    }
    out
}

/// One textbook Bayesian update of `out` by `local`: marginal, guarded
/// ratios, reweight, then a separate normalize pass. Returns the
/// post-reweight mass, or `None` when the update is skipped. Every sum
/// runs sequentially over the outcomes.
fn naive_update(out: &mut Pmf, local: &Pmf) -> Option<f64> {
    let positions = out.projection_positions(local.qubits());
    let key = |x: usize| -> usize {
        positions
            .iter()
            .enumerate()
            .map(|(j, &pos)| ((x >> pos) & 1) << j)
            .sum()
    };
    let k = local.probs().len();
    let mut marg = vec![0.0; k];
    for (x, &p) in out.probs().iter().enumerate() {
        marg[key(x)] += p;
    }
    let mut unsupported = 0.0;
    let mut supported_evidence = 0.0;
    for (j, &m) in marg.iter().enumerate() {
        if m > EPSILON {
            supported_evidence += local.prob(j);
        } else {
            unsupported += m;
        }
    }
    if supported_evidence <= 0.0 {
        return None;
    }
    let scale = (1.0 - unsupported) / supported_evidence;
    let ratio: Vec<f64> = (0..k)
        .map(|j| {
            if marg[j] > EPSILON {
                local.prob(j) * scale / marg[j]
            } else {
                1.0
            }
        })
        .collect();
    let probs = out.probs_mut();
    let mut total = 0.0;
    for (x, p) in probs.iter_mut().enumerate() {
        *p *= ratio[key(x)];
        total += *p;
    }
    if (total - 1.0).abs() > 1e-15 {
        for p in probs.iter_mut() {
            *p /= total;
        }
    }
    Some(total)
}

/// Weights in `[0, 1)` with a sprinkling of exact zeros (from the mask),
/// so the support guard is exercised; at least one cell stays positive.
fn arb_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0.0..1.0f64, n),
        prop::collection::vec(0.0..1.0f64, n),
    )
        .prop_map(|(mut w, mask)| {
            for (x, m) in mask.into_iter().enumerate() {
                if m < 0.5 {
                    w[x] = 0.0;
                }
            }
            if w.iter().sum::<f64>() <= 0.0 {
                w[0] = 0.5;
            }
            w
        })
}

/// Sweeps `locals` over `global` three times in a chain, as VarSaw sweeps
/// each evaluation's Output-PMF again as the next evaluation's prior:
/// once with a fresh engine and owned locals, then again from `global`
/// with the same, now key-cached engine and borrowed locals. After every
/// sweep, `check(got, want, label)` compares the engine's probabilities
/// with the naive reference applied as many times.
fn check_chained_sweeps(global: &Pmf, locals: &[Pmf], check: impl Fn(&[f64], &[f64], &str)) {
    let borrowed: Vec<&Pmf> = locals.iter().collect();
    let mut want = vec![naive_reconstruct(global, locals)];
    for _ in 1..3 {
        want.push(naive_reconstruct(&want[want.len() - 1], locals));
    }
    let mut engine = Reconstructor::new();
    let mut fresh = global.clone();
    for (sweep, want) in (1..).zip(&want) {
        engine.sweep(&mut fresh, locals);
        check(
            fresh.probs(),
            want.probs(),
            &format!("fresh, sweep {sweep}"),
        );
    }
    let mut cached = global.clone();
    for (sweep, want) in (1..).zip(&want) {
        engine.sweep(&mut cached, &borrowed);
        check(
            cached.probs(),
            want.probs(),
            &format!("key-cached, sweep {sweep}"),
        );
    }
}

/// [`check_chained_sweeps`] with `==` on every probability.
fn assert_fresh_and_cached_match_reference(global: &Pmf, locals: &[Pmf]) {
    check_chained_sweeps(global, locals, |got, want, label| {
        assert_eq!(got, want, "{label}");
    });
}

/// The PMF of `shots` draws over `n` qubits: every draw lands on
/// `raw mod 2^n`, so at most `shots` outcomes are nonzero, as in a
/// Global measured with that many shots.
fn sampled_global(n: usize, draws: &[usize]) -> Pmf {
    let mut counts = vec![0.0; 1 << n];
    for &raw in draws {
        counts[raw % (1 << n)] += 1.0;
    }
    Pmf::new((0..n).collect(), counts)
}

/// A deterministic skewed 1,024-shot draw over `n` qubits, as
/// [`sampled_global`] counts it. Clearing the bits of `never` keeps those
/// qubits reading 0.
fn skewed_draws(n: usize, never: usize) -> Vec<usize> {
    (0..1024usize)
        .map(|i| {
            let h = i.wrapping_mul(2654435761) ^ (i >> 3).wrapping_mul(40503);
            (h & (h >> 7) & ((1 << n) - 1)) & !never
        })
        .collect()
}

/// Whether the engine sweeps `global` over its listed support: at least
/// one 64-outcome mask word, at most half nonzero.
fn takes_sparse_path(global: &Pmf) -> bool {
    let dim = global.probs().len();
    let nonzero = global.probs().iter().filter(|&&p| p != 0.0).count();
    dim >= 64 && 2 * nonzero <= dim
}

/// A deterministic n-qubit global over `qubits` with every outcome
/// weighted differently.
fn hashed_global(qubits: Vec<usize>) -> Pmf {
    let probs = (0..1usize << qubits.len())
        .map(|x| ((x * 2654435761) % 1009 + 1) as f64)
        .collect();
    Pmf::new(qubits, probs)
}

/// A local over `qubits` whose evidence is salted so locals differ.
fn salted_local(qubits: Vec<usize>, salt: usize) -> Pmf {
    let probs = (0..1usize << qubits.len())
        .map(|j| ((j + 1) * (salt + 3) % 13 + 1) as f64)
        .collect();
    Pmf::new(qubits, probs)
}

/// The sliding window subsets `[s, s+window)` of `0..n`.
fn window_subsets(n: usize, window: usize) -> Vec<Vec<usize>> {
    let m = window.min(n);
    (0..=n - m).map(|s| (s..s + m).collect()).collect()
}

proptest! {
    /// `Reconstructor` output reproduces the naive reference bit for bit,
    /// fresh and key-cached, over one sweep and 2–3 chained ones, across
    /// qubit counts 2–10 and window sizes 1–3.
    #[test]
    fn reconstructor_is_bit_identical(
        n in 2usize..=10,
        window in 1usize..=3,
        global_seed in prop::collection::vec(0.01..1.0f64, 1 << 10),
        local_seed in prop::collection::vec(0.01..1.0f64, 1 << 3),
    ) {
        let dim = 1usize << n;
        let global = Pmf::new((0..n).collect(), global_seed[..dim].to_vec());
        let m = window.min(n);
        let locals: Vec<Pmf> = window_subsets(n, window)
            .into_iter()
            .enumerate()
            .map(|(i, sub)| {
                let k = 1usize << m;
                // Rotate the seed so windows carry distinct evidence.
                let probs: Vec<f64> = (0..k).map(|j| local_seed[(i + j) % 8]).collect();
                Pmf::new(sub, probs)
            })
            .collect();
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    /// The support guard (zeroed prior cells) keeps the engine in exact
    /// agreement with the reference too.
    #[test]
    fn bit_identical_with_zeroed_prior_cells(weights in arb_weights(1 << 6)) {
        let n = 6;
        let global = Pmf::new((0..n).collect(), weights);
        let locals: Vec<Pmf> = window_subsets(n, 2)
            .into_iter()
            .map(|sub| Pmf::new(sub, vec![0.4, 0.3, 0.2, 0.1]))
            .collect();
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    /// A global whose qubit list is a permutation, swept by 1- and 2-qubit
    /// locals whose lists may be non-contiguous, descending or repeat an
    /// earlier window: bit for bit against the reference, fresh and
    /// key-cached, over chained sweeps, across qubit counts 2–10.
    #[test]
    fn permuted_globals_and_arbitrary_local_lists_are_bit_identical(
        n in 2usize..=10,
        perm in prop::sample::shuffle((0..10usize).collect()),
        picks in prop::collection::vec((0usize..10, 0usize..10, 0.0..1.0f64), 1..=8),
        global_seed in prop::collection::vec(0.01..1.0f64, 1 << 10),
        local_seed in prop::collection::vec(0.01..1.0f64, 8),
    ) {
        let qubits: Vec<usize> = perm.into_iter().filter(|&q| q < n).collect();
        let global = Pmf::new(qubits, global_seed[..1 << n].to_vec());
        let locals: Vec<Pmf> = picks
            .iter()
            .enumerate()
            .map(|(i, &(a, b, coin))| {
                let (a, b) = (a % n, b % n);
                let sub = if a == b || coin < 0.4 { vec![a] } else { vec![a, b] };
                let probs = (0..1usize << sub.len()).map(|j| local_seed[(i + j) % 8]).collect();
                Pmf::new(sub, probs)
            })
            .collect();
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    /// Shot-sampled priors — at most 1,024 draws over 2–12 qubits, so
    /// that the share of nonzero outcomes lands on both sides of the
    /// sparse-sweep cut — swept by sliding windows of 1–3 qubits whose
    /// evidence may hold zero bins: bit for bit against the reference,
    /// fresh and key-cached, over chained sweeps.
    #[test]
    fn sampled_priors_are_bit_identical(
        n in 2usize..=12,
        window in 1usize..=3,
        draws in prop::collection::vec(0usize..1 << 12, 1..=1024),
        local_seed in prop::collection::vec(0.0..1.0f64, 8),
        zero_mask in prop::collection::vec(0.0..1.0f64, 8),
    ) {
        let global = sampled_global(n, &draws);
        let locals: Vec<Pmf> = window_subsets(n, window)
            .into_iter()
            .enumerate()
            .map(|(i, sub)| {
                let mut probs: Vec<f64> = (0..1usize << sub.len())
                    .map(|j| if zero_mask[(i + j) % 8] < 0.2 { 0.0 } else { local_seed[(i + j) % 8] })
                    .collect();
                if probs.iter().sum::<f64>() <= 0.0 {
                    probs[0] = 1.0;
                }
                Pmf::new(sub, probs)
            })
            .collect();
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    /// The one-shot `reconstruct()` is one sweep of a clone through the
    /// engine.
    #[test]
    fn wrapper_matches_engine(global_seed in prop::collection::vec(0.01..1.0f64, 1 << 4)) {
        let global = Pmf::new(vec![0, 1, 2, 3], global_seed);
        let locals = vec![global.marginal(&[0, 1]), Pmf::new(vec![2, 3], vec![0.1, 0.2, 0.3, 0.4])];
        let wrapped = reconstruct(&global, &locals);
        let mut swept = global.clone();
        Reconstructor::new().sweep(&mut swept, &locals);
        prop_assert_eq!(wrapped.probs(), swept.probs());
    }
}

/// Local qubit lists in descending order and with gaps — `[3, 1]` puts
/// global bit 3 in window bit 0 — including a descending 3-qubit window,
/// over a global whose own qubit list is not sorted either.
#[test]
fn descending_and_non_contiguous_locals_are_bit_identical() {
    let global = hashed_global(vec![2, 0, 5, 1, 4, 3]);
    let locals = vec![
        salted_local(vec![3, 1], 0),
        salted_local(vec![5, 0], 1),
        salted_local(vec![1, 3], 2),
        salted_local(vec![4, 2, 0], 3),
        salted_local(vec![2], 4),
    ];
    assert_fresh_and_cached_match_reference(&global, &locals);
}

/// A sweep mixing 1- and 2-qubit locals the way VarSaw's coverage does
/// (the H6-10 basis with most windows: a window repeats when two subset
/// groups cover it), over a 10-qubit global.
#[test]
fn varsaw_shaped_mixed_width_sweeps_are_bit_identical() {
    let global = hashed_global((0..10).collect());
    let windows: [&[usize]; 9] = [&[1], &[1, 2], &[2], &[4], &[4], &[6], &[6], &[8], &[8]];
    let locals: Vec<Pmf> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| salted_local(w.to_vec(), i))
        .collect();
    assert_fresh_and_cached_match_reference(&global, &locals);
}

/// A 13-qubit window next to 2-qubit ones over a 14-qubit global: bins
/// of two outcomes and bins of 4,096 in one sweep.
#[test]
fn wide_and_narrow_windows_over_14_qubits_are_bit_identical() {
    let n = 14;
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x.wrapping_mul(2654435761)) % 997 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let wide: Vec<usize> = (0..13).collect();
    let wide_probs: Vec<f64> = (0..1usize << 13).map(|j| ((j % 31) + 1) as f64).collect();
    let locals = vec![
        Pmf::new(wide, wide_probs),
        Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.2, 0.3]),
        Pmf::new(vec![12, 13], vec![0.3, 0.3, 0.2, 0.2]),
    ];
    assert_fresh_and_cached_match_reference(&global, &locals);
}

/// Every sliding 2-qubit window over a dense 13-qubit global.
#[test]
fn thirteen_qubit_sweeps_are_bit_identical() {
    let n = 13;
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x * 2654435761) % 1000 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let locals: Vec<Pmf> = (0..n - 1)
        .map(|s| {
            let probs = vec![0.4, 0.1, 0.2, 0.3];
            Pmf::new(vec![s, s + 1], probs)
        })
        .collect();
    assert_fresh_and_cached_match_reference(&global, &locals);
}

/// Edge cases of the normalization: an update whose mass misses 1 owes a
/// division, which must land before the next update reads the plane —
/// next to skipped updates, unit-mass updates and the end of a sweep.
/// Every case matches the reference, which normalizes right after each
/// update, bit for bit.
mod deferred_normalization {
    use super::*;

    /// A 10-qubit global whose qubit 0 always reads 0.
    fn global_q0_zero() -> Pmf {
        let probs: Vec<f64> = (0..1usize << 10)
            .map(|x| {
                if x & 1 == 1 {
                    0.0
                } else {
                    ((x * 2654435761) % 1013 + 1) as f64
                }
            })
            .collect();
        Pmf::new((0..10).collect(), probs)
    }

    /// Whether updating `prior` by `local` owes a normalize: its mass
    /// after the reweight misses 1 by more than the unit-mass tolerance.
    /// `None` when the update is skipped.
    fn owes_normalize(prior: &Pmf, local: &Pmf) -> Option<bool> {
        let mut out = prior.clone();
        naive_update(&mut out, local).map(|total| (total - 1.0).abs() > 1e-15)
    }

    /// The first local over `qubits`, from a fixed deterministic family,
    /// whose update of `prior` owes a normalize (`owes`) or lands on
    /// unit mass (`!owes`).
    pub(super) fn local_owing(prior: &Pmf, qubits: &[usize], owes: bool) -> Pmf {
        (1..500)
            .map(|salt: usize| {
                let probs = (0..1usize << qubits.len())
                    .map(|j| ((j + 1) * salt % 97 + 1) as f64)
                    .collect();
                Pmf::new(qubits.to_vec(), probs)
            })
            .find(|l| owes_normalize(prior, l) == Some(owes))
            .expect("the family has a local of each kind")
    }

    /// Evidence that qubit 0 reads 1, which `global_q0_zero` never
    /// supports: the update is skipped.
    fn incompatible() -> Pmf {
        Pmf::new(vec![0], vec![0.0, 1.0])
    }

    #[test]
    fn skipped_update_right_after_an_owed_normalize() {
        let global = global_q0_zero();
        let owing = local_owing(&global, &[3, 4], true);
        let mut after = global.clone();
        naive_update(&mut after, &owing);
        assert_eq!(owes_normalize(&after, &incompatible()), None, "skipped");
        let next = Pmf::new(vec![8, 9], vec![0.1, 0.2, 0.3, 0.4]);
        assert_fresh_and_cached_match_reference(&global, &[owing, incompatible(), next]);
    }

    #[test]
    fn sweep_whose_last_update_is_skipped() {
        let global = global_q0_zero();
        let owing = local_owing(&global, &[1, 2], true);
        assert_fresh_and_cached_match_reference(&global, &[owing, incompatible()]);
    }

    #[test]
    fn unit_mass_update_then_an_owed_normalize() {
        let global = global_q0_zero();
        let unit = local_owing(&global, &[5, 6], false);
        let mut after = global.clone();
        naive_update(&mut after, &unit);
        let owing = local_owing(&after, &[8], true);
        assert_fresh_and_cached_match_reference(&global, &[unit, owing]);
    }

    /// Windows of 2, 4 and 8 outcomes in one sweep over a dense 13-qubit
    /// global, high-bit windows included.
    #[test]
    fn mixed_window_sizes_over_a_13_qubit_global() {
        let n = 13;
        let probs: Vec<f64> = (0..1usize << n)
            .map(|x| ((x * 2654435761) % 1000 + 1) as f64)
            .collect();
        let global = Pmf::new((0..n).collect(), probs);
        let locals = vec![
            Pmf::new(vec![12], vec![0.7, 0.3]),
            Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.2, 0.3]),
            Pmf::new(vec![10, 11, 12], (1..=8).map(f64::from).collect()),
            Pmf::new(vec![11, 12], vec![0.3, 0.3, 0.2, 0.2]),
            Pmf::new(vec![0], vec![0.45, 0.55]),
            Pmf::new(vec![3, 7, 12], (1..=8).rev().map(f64::from).collect()),
        ];
        assert_fresh_and_cached_match_reference(&global, &locals);
    }
}

/// Updates over a 10-qubit 1,024-shot prior, which the engine sweeps over
/// its nonzero outcomes only: a skipped update, an owed normalize,
/// evidence that empties listed outcomes partway through a sweep, and the
/// inputs that hand the sweep back to every outcome. Each matches the
/// reference bit for bit.
mod sampled_priors {
    use super::deferred_normalization::local_owing;
    use super::*;

    /// A sampled prior whose qubit 0 never reads 1.
    fn prior() -> Pmf {
        let global = sampled_global(10, &skewed_draws(10, 1));
        assert!(takes_sparse_path(&global));
        global
    }

    #[test]
    fn skipped_update() {
        let global = prior();
        let incompatible = Pmf::new(vec![0], vec![0.0, 1.0]);
        let locals = vec![
            salted_local(vec![3, 4], 0),
            incompatible,
            salted_local(vec![8, 9], 1),
        ];
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    #[test]
    fn owed_normalize() {
        let global = prior();
        let owing = local_owing(&global, &[2, 5], true);
        let unit = local_owing(&global, &[7], false);
        assert_fresh_and_cached_match_reference(&global, &[owing, unit]);
    }

    /// Evidence with an empty bin zeroes every listed outcome in it; the
    /// later updates still read those outcomes, as `0.0`.
    #[test]
    fn zero_evidence_bin_empties_listed_outcomes() {
        let global = prior();
        let emptying = Pmf::new(vec![1, 2], vec![0.0, 0.5, 0.3, 0.2]);
        let locals = vec![
            emptying,
            salted_local(vec![2, 3], 0),
            salted_local(vec![1], 1),
        ];
        let out = naive_reconstruct(&global, &locals);
        let emptied = global
            .probs()
            .iter()
            .zip(out.probs())
            .filter(|&(&p, &q)| p != 0.0 && q == 0.0)
            .count();
        assert!(emptied > 0, "the evidence empties listed outcomes");
        assert_fresh_and_cached_match_reference(&global, &locals);
    }

    /// [`check_chained_sweeps`] on the bits of every probability, with
    /// every NaN read as one value.
    fn assert_same_bits_over_chained_sweeps(global: &Pmf, locals: &[Pmf]) {
        let bits = |v: &[f64]| -> Vec<u64> {
            v.iter()
                .map(|p| if p.is_nan() { u64::MAX } else { p.to_bits() })
                .collect()
        };
        check_chained_sweeps(global, locals, |got, want, label| {
            assert_eq!(bits(got), bits(want), "{label}");
        });
    }

    /// Evidence so faint on the prior's only supported outcome of qubit 0
    /// that the support scale `1 / 1e-310` overflows to ∞: the ratio of
    /// that bin is ∞, which turns every unlisted zero in it into NaN, so
    /// the sweep must reach every outcome from that update on.
    #[test]
    fn non_finite_ratio_reaches_every_outcome() {
        let global = prior();
        let locals = vec![
            salted_local(vec![4, 5], 0),
            Pmf::new(vec![0], vec![1e-310, 1.0]),
            salted_local(vec![0, 6], 1),
        ];
        let want = naive_reconstruct(&global, &locals);
        let unlisted = (0..1 << 10)
            .find(|&x| x & 1 == 0 && global.prob(x) == 0.0)
            .expect("an unlisted outcome with qubit 0 reading 0");
        assert!(want.probs()[unlisted].is_nan());
        assert_same_bits_over_chained_sweeps(&global, &locals);
    }

    /// Evidence of `-0.0` on a supported bin gives that bin the ratio
    /// `-0.0`, which turns every `+0.0` outcome of the bin into `-0.0`.
    #[test]
    fn negative_zero_evidence_reaches_every_outcome() {
        let global = prior();
        let locals = vec![
            Pmf::new(vec![2, 3], vec![-0.0, 0.5, 0.3, 0.2]),
            salted_local(vec![5, 6], 0),
        ];
        let want = naive_reconstruct(&global, &locals);
        assert!(want
            .probs()
            .iter()
            .any(|p| p.to_bits() == (-0.0f64).to_bits()));
        assert_same_bits_over_chained_sweeps(&global, &locals);
    }

    /// A prior edited to hold a huge negative value whose update cancels
    /// the mass to zero or below: the owed normalize turns every unlisted
    /// zero into NaN or `-0.0`, so it must reach every outcome.
    #[test]
    fn cancelled_mass_reaches_every_outcome() {
        let mut global = prior();
        let x = (0..1 << 10)
            .find(|&x| x & 2 == 0 && global.prob(x) != 0.0)
            .expect("a listed outcome with qubit 1 reading 0");
        global.probs_mut()[x] = -1e17;
        let locals = vec![
            Pmf::new(vec![1], vec![0.5, 0.5]),
            salted_local(vec![8, 9], 0),
        ];
        let want = naive_reconstruct(&global, &locals);
        let unlisted = (0..1 << 10)
            .find(|&x| global.prob(x) == 0.0)
            .expect("an unlisted outcome");
        assert_ne!(want.probs()[unlisted].to_bits(), 0.0f64.to_bits());
        assert_same_bits_over_chained_sweeps(&global, &locals);
    }
}

/// A 13-qubit 1,024-shot prior, far sparser than the cut: the engine
/// sweeps it over its nonzero outcomes, with the reference's bits.
#[test]
fn sampled_13_qubit_prior_takes_the_sparse_path() {
    let n = 13;
    let global = sampled_global(n, &skewed_draws(n, 0));
    assert!(takes_sparse_path(&global));
    let locals = vec![
        Pmf::new(vec![12], vec![0.7, 0.3]),
        Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.2, 0.3]),
        Pmf::new(vec![11, 12], vec![0.3, 0.3, 0.2, 0.2]),
        Pmf::new(vec![3, 7, 12], (1..=8).rev().map(f64::from).collect()),
    ];
    assert_fresh_and_cached_match_reference(&global, &locals);
}
