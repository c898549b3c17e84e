//! Property test: the `Reconstructor` engine is bit-identical to a
//! textbook sequential Bayesian reconstruction, fresh and key-cached.
//!
//! Up to 12 qubits a global fits in a single chunk, where the kernel
//! must match the naive sequential reference **exactly** (`==` on `f64`,
//! not within a tolerance) for every input, qubit count 2–10, window
//! size and round count. The 13- and 14-qubit multi-chunk cases
//! re-associate the marginal reduction in chunk order: they agree with
//! the reference within floating-point tolerance, and their exact output
//! bits are pinned by digest so the chunk-ordered reduction cannot drift.

use mitigation::{reconstruct, Pmf, ReconstructionConfig, Reconstructor};
use proptest::prelude::*;

/// Textbook sequential reconstruction with the documented semantics:
/// per-outcome marginal accumulation, Bayes conditioned on the prior's
/// support (unsupported window outcomes keep their mass exactly), skip of
/// fully incompatible updates, and `Pmf::normalize`-style normalization.
fn naive_reconstruct(global: &Pmf, locals: &[Pmf], config: ReconstructionConfig) -> Pmf {
    let mut out = global.clone();
    for _ in 0..config.rounds {
        for local in locals {
            naive_update(&mut out, local, config.epsilon, 1);
        }
    }
    out
}

/// One textbook Bayesian update of `out` by `local`: marginal, guarded
/// ratios, reweight, then a separate normalize pass. Returns the
/// post-reweight mass, or `None` when the update is skipped.
///
/// With `chunks == 1` every sum runs sequentially over the outcomes.
/// With more, the outcome range splits into `chunks` equal chunks; each
/// chunk's sums run sequentially and the chunk sums are added in chunk
/// order — the engine's documented multi-chunk reduction.
fn naive_update(out: &mut Pmf, local: &Pmf, epsilon: f64, chunks: usize) -> Option<f64> {
    let positions = out.projection_positions(local.qubits());
    let key = |x: usize| -> usize {
        positions
            .iter()
            .enumerate()
            .map(|(j, &pos)| ((x >> pos) & 1) << j)
            .sum()
    };
    let k = local.probs().len();
    let chunk_len = out.probs().len() / chunks;
    let mut marg = vec![0.0; k];
    for (c, probs) in out.probs().chunks(chunk_len).enumerate() {
        let mut part = vec![0.0; k];
        for (i, &p) in probs.iter().enumerate() {
            part[key(c * chunk_len + i)] += p;
        }
        for (m, p) in marg.iter_mut().zip(&part) {
            *m += p;
        }
    }
    let mut unsupported = 0.0;
    let mut supported_evidence = 0.0;
    for (j, &m) in marg.iter().enumerate() {
        if m > epsilon {
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
            if marg[j] > epsilon {
                local.prob(j) * scale / marg[j]
            } else {
                1.0
            }
        })
        .collect();
    let probs = out.probs_mut();
    let mut total = 0.0;
    for (c, chunk) in probs.chunks_mut(chunk_len).enumerate() {
        let mut sum = 0.0;
        for (i, p) in chunk.iter_mut().enumerate() {
            *p *= ratio[key(c * chunk_len + i)];
            sum += *p;
        }
        total += sum;
    }
    if (total - 1.0).abs() > 1e-15 {
        for p in probs.iter_mut() {
            *p /= total;
        }
    }
    Some(total)
}

/// FNV-1a over the output's `f64` bit patterns: a compact pin of every
/// bit of a reconstruction.
fn bit_digest(probs: &[f64]) -> u64 {
    probs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

/// Runs `locals` over `global` with one engine twice — fresh, then
/// key-cached — and asserts both runs equal the naive reference bit for
/// bit, for 0–3 rounds. Owned and borrowed locals both take part.
fn assert_fresh_and_cached_match_reference(global: &Pmf, locals: &[Pmf]) {
    let borrowed: Vec<&Pmf> = locals.iter().collect();
    for rounds in 0..=3 {
        let config = ReconstructionConfig {
            epsilon: 1e-9,
            rounds,
        };
        let want = naive_reconstruct(global, locals, config);
        let mut engine = Reconstructor::new();
        let fresh = engine.reconstruct(global, locals, config);
        assert_eq!(fresh.probs(), want.probs(), "fresh, rounds {rounds}");
        let mut cached = global.clone();
        engine.sweep(&mut cached, &borrowed, config);
        assert_eq!(cached.probs(), want.probs(), "key-cached, rounds {rounds}");
    }
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
    /// and a key-cached rerun reproduces the first run bit for bit, across
    /// qubit counts 2–10, window sizes 1–3 and round counts 0–3.
    #[test]
    fn reconstructor_is_bit_identical(
        n in 2usize..=10,
        window in 1usize..=3,
        rounds in 0usize..=3,
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
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };

        let reference = naive_reconstruct(&global, &locals, config);
        let mut engine = Reconstructor::new();
        let serial = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), serial.probs(), "naive vs serial");

        // Prekeyed: the second run hits the key cache.
        let prekeyed = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(serial.probs(), prekeyed.probs(), "serial vs prekeyed");
    }

    /// The support guard (zeroed prior cells) keeps the engine in exact
    /// agreement with the reference too.
    #[test]
    fn bit_identical_with_zeroed_prior_cells(
        weights in arb_weights(1 << 6),
        rounds in 1usize..=3,
    ) {
        let n = 6;
        let global = Pmf::new((0..n).collect(), weights);
        let locals: Vec<Pmf> = window_subsets(n, 2)
            .into_iter()
            .map(|sub| Pmf::new(sub, vec![0.4, 0.3, 0.2, 0.1]))
            .collect();
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };
        let reference = naive_reconstruct(&global, &locals, config);
        let serial = Reconstructor::new().reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), serial.probs());
    }

    /// A global whose qubit list is a permutation, swept by 1- and 2-qubit
    /// locals whose lists may be non-contiguous, descending or repeat an
    /// earlier window: bit for bit against the reference, fresh and
    /// key-cached, across qubit counts 2–10 and round counts 0–3.
    #[test]
    fn permuted_globals_and_arbitrary_local_lists_are_bit_identical(
        n in 2usize..=10,
        perm in prop::sample::shuffle((0..10usize).collect()),
        picks in prop::collection::vec((0usize..10, 0usize..10, 0.0..1.0f64), 1..=8),
        rounds in 0usize..=3,
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
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };

        let reference = naive_reconstruct(&global, &locals, config);
        let mut engine = Reconstructor::new();
        let fresh = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), fresh.probs(), "naive vs fresh");
        let cached = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), cached.probs(), "naive vs key-cached");
    }

    /// The compatibility wrapper `reconstruct()` is the one-shot engine.
    #[test]
    fn wrapper_matches_engine(
        global_seed in prop::collection::vec(0.01..1.0f64, 1 << 4),
        rounds in 0usize..=2,
    ) {
        let global = Pmf::new(vec![0, 1, 2, 3], global_seed);
        let locals = vec![global.marginal(&[0, 1]), Pmf::new(vec![2, 3], vec![0.1, 0.2, 0.3, 0.4])];
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };
        let wrapped = reconstruct(&global, &locals, config);
        let engine = Reconstructor::new().reconstruct(&global, &locals, config);
        prop_assert_eq!(wrapped.probs(), engine.probs());
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

/// Consecutive locals with *different* chunk grids: a 13-qubit window
/// caps its grid at 2 chunks while a 2-qubit window gets 4. The output
/// bits are pinned by digest.
#[test]
fn mixed_window_chunk_grids_are_bit_identical() {
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
    let config = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 2,
    };
    let out = Reconstructor::new().reconstruct(&global, &locals, config);
    assert_eq!(bit_digest(out.probs()), 0x85b5_d0b5_d8e1_f419);
}

/// 13 qubits splits into two chunks: the output bits are pinned by
/// digest, while the naive sequential reference — whose marginal sums are
/// not chunk-associated — agrees within floating-point tolerance.
#[test]
fn multi_chunk_sweeps_match_pinned_bits() {
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
    let config = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 2,
    };
    let serial = Reconstructor::new().reconstruct(&global, &locals, config);
    assert_eq!(bit_digest(serial.probs()), 0xb811_8910_70eb_439c);
    let reference = naive_reconstruct(&global, &locals, config);
    assert!(
        reference.tvd(&serial) < 1e-12,
        "multi-chunk reduction drifted: tvd {}",
        reference.tvd(&serial)
    );
}

/// Edge cases of the normalization: an update whose mass misses 1 owes a
/// division, which must land before the next update reads the plane —
/// next to skipped updates, unit-mass updates and the end of a sweep.
/// Every case matches the reference, which normalizes right after each
/// update, bit for bit.
mod deferred_normalization {
    use super::*;

    const EPSILON: f64 = 1e-9;

    fn config(rounds: usize) -> ReconstructionConfig {
        ReconstructionConfig {
            epsilon: EPSILON,
            rounds,
        }
    }

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
        naive_update(&mut out, local, EPSILON, 1).map(|total| (total - 1.0).abs() > 1e-15)
    }

    /// The first local over `qubits`, from a fixed deterministic family,
    /// whose update of `prior` owes a normalize (`owes`) or lands on
    /// unit mass (`!owes`).
    fn local_owing(prior: &Pmf, qubits: &[usize], owes: bool) -> Pmf {
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

    fn assert_matches_reference(global: &Pmf, locals: &[Pmf]) {
        for rounds in 1..=3 {
            let want = naive_reconstruct(global, locals, config(rounds));
            let got = Reconstructor::new().reconstruct(global, locals, config(rounds));
            assert_eq!(got.probs(), want.probs(), "rounds {rounds}");
        }
    }

    #[test]
    fn skipped_update_right_after_an_owed_normalize() {
        let global = global_q0_zero();
        let owing = local_owing(&global, &[3, 4], true);
        let mut after = global.clone();
        naive_update(&mut after, &owing, EPSILON, 1);
        assert_eq!(owes_normalize(&after, &incompatible()), None, "skipped");
        let next = Pmf::new(vec![8, 9], vec![0.1, 0.2, 0.3, 0.4]);
        assert_matches_reference(&global, &[owing, incompatible(), next]);
    }

    #[test]
    fn sweep_whose_last_update_is_skipped() {
        let global = global_q0_zero();
        let owing = local_owing(&global, &[1, 2], true);
        assert_matches_reference(&global, &[owing, incompatible()]);
    }

    #[test]
    fn unit_mass_update_then_an_owed_normalize() {
        let global = global_q0_zero();
        let unit = local_owing(&global, &[5, 6], false);
        let mut after = global.clone();
        naive_update(&mut after, &unit, EPSILON, 1);
        let owing = local_owing(&after, &[8], true);
        assert_matches_reference(&global, &[unit, owing]);
    }

    /// Windows of 2, 4 and 8 outcomes in one sweep over a 13-qubit global
    /// that splits into two chunks, high-bit windows (bins left empty in
    /// a chunk) included. Multi-chunk sums are
    /// chunk-ordered, so the exact reference is the chunked one; the
    /// sequential reference agrees within floating-point tolerance.
    #[test]
    fn mixed_window_sizes_over_a_multi_chunk_global() {
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
        for rounds in 1..=2 {
            let got = Reconstructor::new().reconstruct(&global, &locals, config(rounds));
            let mut want = global.clone();
            for _ in 0..rounds {
                for local in &locals {
                    naive_update(&mut want, local, EPSILON, 2);
                }
            }
            assert_eq!(got.probs(), want.probs(), "rounds {rounds}");
            let sequential = naive_reconstruct(&global, &locals, config(rounds));
            assert!(sequential.tvd(&got) < 1e-12, "rounds {rounds}");
        }
    }
}
