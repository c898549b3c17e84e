//! Shot sampling from outcome distributions.
//!
//! A distribution is drawn in one of two ways, chosen by its width:
//!
//! - up to [`CHAIN_MAX`] outcomes (VarSaw's and JigSaw's subset circuits
//!   measure 1–5 qubits, 2 in the paper's evaluation), the multinomial is
//!   drawn as a chain of conditional binomials: outcome `i` gets
//!   `Binomial(shots_left, p_i / mass_left)`, where `mass_left` is the
//!   mass of outcomes `i..`. Each
//!   binomial is drawn by inversion of one uniform, searched outward from
//!   its mode, so a draw costs O(outcomes · σ) whatever the shot count.
//!   Zero-mass outcomes get no draw, and the last outcome with mass takes
//!   the shots left. One uniform is consumed per binomial drawn: none
//!   for the last outcome with mass, and none once every shot is placed;
//! - wider distributions (full-register Globals) map one uniform per shot,
//!   `u = rng.random::<f64>() * total`, onto the first outcome whose
//!   cumulative probability exceeds `u`, found by walking a guide table
//!   (Chen & Asau 1974) built from a bucket histogram in one pass. Every
//!   shot consumes exactly one uniform, so there the RNG stream after a
//!   call does not depend on the distribution.
//!
//! Neither way ever draws an outcome with zero mass.

use rand::Rng;

/// Distributions with at most this many outcomes are drawn as a chain of
/// conditional binomials rather than through the guide table. With 1024
/// shots on a 2-core x86-64 host, the chain beat the guided walk on every
/// 16- and 32-outcome shape timed (flat, peaked and two ansatz states:
/// 1.1–2.5 µs against 4.6–10.4 µs at 16, 1.4–4.4 µs against 4.5–9.9 µs at
/// 32). At 64 it stopped winning: it lost on the flat shape (6.1–6.9 µs
/// against 4.5–5.2 µs) and tied or lost on an ansatz state (6.0–6.2 µs
/// against 5.1–6.3 µs), as 63 binomial set-ups of three log-factorials,
/// two logarithms and an exponential each outweigh 1024 mostly zero-step
/// walks.
const CHAIN_MAX: usize = 32;

/// Draws `shots` samples from the distribution `probs` and returns a count
/// per outcome index.
///
/// The distribution is renormalized internally, so slightly unnormalized
/// inputs (e.g. probabilities that sum to `1 ± 1e-12` after floating-point
/// round-off) are fine. Above 32 outcomes exactly one
/// `rng.random::<f64>()` is drawn per shot; up to 32, one per conditional
/// binomial (see the module docs).
///
/// # Panics
///
/// Panics if `probs` is empty, contains a negative or NaN entry, or sums
/// to zero or to a non-finite value.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let counts = qsim::sample_counts(&[0.5, 0.5], 1000, &mut rng);
/// assert_eq!(counts.iter().sum::<u64>(), 1000);
/// assert!(counts[0] > 400 && counts[0] < 600);
/// ```
pub fn sample_counts<R: Rng + ?Sized>(probs: &[f64], shots: u64, rng: &mut R) -> Vec<u64> {
    assert!(
        !probs.is_empty(),
        "cannot sample from an empty distribution"
    );
    // Validating in a separate branch-free pass keeps the running sums
    // plain loops of adds and stores.
    if !probs.iter().fold(true, |ok, &p| ok & (p >= 0.0)) {
        let bad = probs.iter().find(|&&p| p < 0.0 || p.is_nan());
        panic!(
            "probability {} is not finite and non-negative",
            bad.unwrap()
        );
    }
    if probs.len() <= CHAIN_MAX {
        counts_chained(probs, shots, rng)
    } else {
        Sampler::new(probs).counts(shots, rng)
    }
}

/// Panics unless the running sum `total` of valid probabilities is a
/// usable normalizer.
fn check_total(total: f64) {
    assert!(total > 0.0, "distribution sums to zero");
    assert!(total.is_finite(), "distribution sum {total} is not finite");
}

/// Draws over at most [`CHAIN_MAX`] outcomes as conditional binomials,
/// left to right. `mass_left` comes from suffix sums, not from repeated
/// subtraction, so it never drifts below the mass it stands for and each
/// ratio `p_i / mass_left` stays in `[0, 1]`.
fn counts_chained<R: Rng + ?Sized>(probs: &[f64], shots: u64, rng: &mut R) -> Vec<u64> {
    let mut mass_left = [0.0; CHAIN_MAX + 1];
    for (i, &p) in probs.iter().enumerate().rev() {
        mass_left[i] = mass_left[i + 1] + p;
    }
    check_total(mass_left[0]);
    let last = probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("a positive total has an outcome with mass");
    let mut counts = vec![0u64; probs.len()];
    let mut left = shots;
    for (i, &p) in probs[..last].iter().enumerate() {
        if left == 0 {
            break;
        }
        if p > 0.0 {
            let k = binomial(left, p / mass_left[i], rng.random::<f64>());
            counts[i] = k;
            left -= k;
        }
    }
    counts[last] = left;
    counts
}

/// `Binomial(n, p)` for `p` in `[0, 1]`, drawn by inverting the one
/// uniform `u` in `[0, 1)`. The outcomes are visited outward from the
/// mode `m`, alternately below and above it (`m, m − 1, m + 1, m − 2,
/// …`), subtracting each pmf from `u`; the first that takes `u` below zero
/// is drawn. Any fixed visiting order inverts the distribution exactly;
/// this one takes about `2 E|k − m|`, some 1.6 σ, steps on average, where
/// a walk up from 0 would take about `n p`. Neighbouring pmfs follow
/// from the mode's by the ratio `f(k + 1) / f(k) = (n − k) p / ((k + 1)
/// q)`.
///
/// When rounding leaves the visited pmfs summing to less than `u` (a mass
/// of order 1e-15 at most), the walk stops once both sides are exhausted
/// or have underflowed to zero, and the mode is drawn.
fn binomial(n: u64, p: f64, u: f64) -> u64 {
    if p >= 1.0 {
        return n;
    }
    if p <= 0.0 {
        return 0;
    }
    let nf = n as f64;
    let m = (((nf + 1.0) * p) as u64).min(n);
    let mf = m as f64;
    let ln_at_mode = ln_factorial(n) - ln_factorial(m) - ln_factorial(n - m)
        + mf * p.ln()
        + (nf - mf) * (-p).ln_1p();
    let at_mode = ln_at_mode.exp();
    let mut u = u - at_mode;
    if u < 0.0 {
        return m;
    }
    // m ≥ 1 implies p ≥ 1 / (n + 1), and m < n implies q > 1 / (n + 1),
    // so neither ratio below is ever formed from an underflowed odds.
    let odds = p / (1.0 - p);
    let (mut lo, mut lo_pmf) = (m, at_mode);
    let (mut hi, mut hi_pmf) = (m, at_mode);
    loop {
        let lo_open = lo > 0 && lo_pmf > 0.0;
        let hi_open = hi < n && hi_pmf > 0.0;
        if !(lo_open || hi_open) {
            return m;
        }
        if lo_open {
            lo_pmf *= lo as f64 / ((n - lo + 1) as f64 * odds);
            lo -= 1;
            u -= lo_pmf;
            if u < 0.0 {
                return lo;
            }
        }
        if hi_open {
            hi_pmf *= (n - hi) as f64 * odds / (hi + 1) as f64;
            hi += 1;
            u -= hi_pmf;
            if u < 0.0 {
                return hi;
            }
        }
    }
}

/// `ln(k!)` for `k` below 16, correctly rounded.
const LN_FACTORIAL: [f64; 16] = [
    0.0,
    0.0,
    std::f64::consts::LN_2,
    1.791_759_469_228_055,
    3.178_053_830_347_945_8,
    4.787_491_742_782_046,
    6.579_251_212_010_101,
    8.525_161_361_065_415,
    10.604_602_902_745_25,
    12.801_827_480_081_469,
    15.104_412_573_075_516,
    17.502_307_845_873_887,
    19.987_214_495_661_885,
    22.552_163_853_123_425,
    25.191_221_182_738_68,
    27.899_271_383_840_89,
];

/// `ln(k!)`: the table below 16, else Stirling's series through the
/// `k⁻⁷` term, whose truncation error at `k = 16` is below 2e-14 and
/// falls as `k⁻⁹`. Builds nothing.
fn ln_factorial(k: u64) -> f64 {
    if let Some(&v) = LN_FACTORIAL.get(k as usize) {
        return v;
    }
    const HALF_LN_TWO_PI: f64 = 0.918_938_533_204_672_8;
    let x = k as f64;
    let r = 1.0 / x;
    let r2 = r * r;
    let series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)));
    (x + 0.5) * x.ln() - x + HALF_LN_TWO_PI + series
}

/// A wide distribution prepared for repeated draws.
///
/// The guide table splits `[0, total)` into `n` equal buckets:
/// `guide[k]` is the number of CDF entries whose bucket is below `k`.
/// Every such entry is below any `u` in bucket `k` (bucketing is
/// monotone), so the answer for `u` is at least `guide[k]` and a forward
/// walk from there finds it — in about half a step on average, against
/// `log2 n` branchy steps for a binary search.
struct Sampler {
    /// Running sums of the probabilities, with every entry equal to the
    /// total (the last outcome with mass and any zero-mass tail) replaced
    /// by `+inf`. For `u` below the total this changes no comparison; the
    /// sentinel stops every walk at the last outcome with mass.
    cdf: Vec<f64>,
    /// `n + 1` walk starts, one per bucket.
    guide: Vec<usize>,
    /// The sum of the probabilities; uniforms are scaled by it.
    total: f64,
    /// Buckets per unit of probability mass, `n / total`.
    scale: f64,
}

impl Sampler {
    /// Prepares validated probabilities.
    fn new(probs: &[f64]) -> Self {
        let n = probs.len();
        let mut cdf = vec![0.0; n];
        let mut acc = 0.0;
        for (c, &p) in cdf.iter_mut().zip(probs) {
            acc += p;
            *c = acc;
        }
        check_total(acc);
        if acc < f64::MIN_POSITIVE {
            // `u = r · total` keeps the 53 bits of `r` only for a normal
            // total; a subnormal one rounds `u` onto a few multiples of the
            // smallest subnormal and skews the draw. Every entry is then
            // subnormal, so scaling by a power of two is exact.
            let scaled: Vec<f64> = probs.iter().map(|p| p * 2f64.powi(600)).collect();
            return Sampler::new(&scaled);
        }

        let scale = n as f64 / acc;
        let guide = guide_table(&cdf, scale);
        for c in cdf.iter_mut().rev().take_while(|c| **c == acc) {
            *c = f64::INFINITY;
        }
        Sampler {
            cdf,
            guide,
            total: acc,
            scale,
        }
    }

    /// Draws through the guide table: from `guide[bucket(u)]`, step
    /// forward while the CDF entry is `<= u`. The first two steps are
    /// unconditional adds of the comparison, which covers nearly every
    /// draw without a data-dependent branch; the loop finishes the rare
    /// longer walk. The `+inf` sentinel stops every step, so `i` never
    /// passes the last outcome with mass.
    fn counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
        let cdf = &self.cdf[..];
        let mut counts = vec![0u64; cdf.len()];
        for _ in 0..shots {
            let u = rng.random::<f64>() * self.total;
            let mut i = self.guide[bucket(u, self.scale, cdf.len())];
            i += usize::from(cdf[i] <= u);
            i += usize::from(cdf[i] <= u);
            while cdf[i] <= u {
                i += 1;
            }
            counts[i] += 1;
        }
        counts
    }
}

/// The guide-table bucket of `x` in `[0, total]` among `n`: `floor(x *
/// scale)`, clamped to `n` in case a subnormal total overflowed `scale`.
/// Monotone in `x`, which is all the table relies on. The saturating cast
/// through `u32` compiles to fewer instructions on x86-64 than one
/// through `usize`, and gives the same bucket for any `n < 2^32`.
fn bucket(x: f64, scale: f64, n: usize) -> usize {
    ((x * scale) as u32 as usize).min(n)
}

/// Builds the guide table from the true CDF (before the `+inf` sentinels)
/// in O(n): a histogram of the entries' buckets, then its exclusive prefix
/// sums, since the entries below bucket `k` are exactly those counted in
/// buckets `< k`. No start passes the first entry equal to the total, so
/// every walk ends on the sentinel at the latest.
fn guide_table(cdf: &[f64], scale: f64) -> Vec<usize> {
    let n = cdf.len();
    let last = cdf.partition_point(|&c| c < cdf[n - 1]);
    let mut guide = vec![0usize; n + 1];
    for &c in cdf {
        guide[bucket(c, scale, n)] += 1;
    }
    let mut below = 0;
    for g in &mut guide {
        let in_bucket = *g;
        *g = below.min(last);
        below += in_bucket;
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_distribution_always_hits_the_point_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = sample_counts(&[0.0, 1.0, 0.0], 100, &mut rng);
        assert_eq!(counts, vec![0, 100, 0]);
    }

    #[test]
    fn counts_sum_to_shots() {
        let mut rng = StdRng::seed_from_u64(2);
        let counts = sample_counts(&[0.1, 0.2, 0.3, 0.4], 2048, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 2048);
    }

    #[test]
    fn empirical_frequencies_track_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = [0.7, 0.2, 0.1];
        let shots = 100_000;
        let counts = sample_counts(&probs, shots, &mut rng);
        for (c, p) in counts.iter().zip(probs) {
            let freq = *c as f64 / shots as f64;
            assert!((freq - p).abs() < 0.01, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn unnormalized_inputs_are_rescaled() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts = sample_counts(&[2.0, 2.0], 1000, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts[0] > 400);
    }

    #[test]
    fn same_seed_reproduces_samples() {
        let probs = [0.25, 0.25, 0.5];
        let a = sample_counts(&probs, 500, &mut StdRng::seed_from_u64(9));
        let b = sample_counts(&probs, 500, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// An RNG stuck on one word, to place `u` exactly on a CDF value.
    struct Stuck(u64);

    impl rand::RngCore for Stuck {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn u_of_zero_skips_a_leading_zero_mass_outcome() {
        let counts = sample_counts(&[0.0, 1.0, 0.0], 4, &mut Stuck(0));
        assert_eq!(counts, vec![0, 4, 0]);
    }

    /// Every shot lands on an outcome with mass, and all of them land.
    fn assert_on_the_mass(probs: &[f64], counts: &[u64], shots: u64) {
        assert_eq!(counts.iter().sum::<u64>(), shots, "{probs:?}");
        for (i, (&c, &p)) in counts.iter().zip(probs).enumerate() {
            assert!(p > 0.0 || c == 0, "zero-mass outcome {i} drawn: {probs:?}");
        }
    }

    #[test]
    fn u_on_a_cdf_tie_skips_zero_mass_outcomes() {
        // u = 0.5 equals the CDF at outcomes 0, 1 and 2 of the walk; the
        // chain sees the same distribution at the same stuck uniform.
        for n in [4, 40] {
            let mut probs = vec![0.0; n];
            probs[0] = 0.5;
            probs[3] = 0.5;
            let counts = sample_counts(&probs, 4, &mut Stuck(1 << 63));
            assert_on_the_mass(&probs, &counts, 4);
        }
    }

    #[test]
    fn guide_table_walk_skips_zero_mass_outcomes_on_ties() {
        let mut half = vec![0.0; 40];
        half[0] = 0.5;
        half[39] = 0.5;
        assert_eq!(sample_counts(&half, 4, &mut Stuck(1 << 63))[39], 4);

        let mut point = vec![0.0; 40];
        point[20] = 3.0;
        assert_eq!(sample_counts(&point, 4, &mut Stuck(0))[20], 4);
        assert_eq!(sample_counts(&point, 4, &mut Stuck(u64::MAX))[20], 4);
    }

    #[test]
    fn u_rounding_up_to_a_subnormal_total_stays_on_the_mass() {
        // The largest uniform times the smallest subnormal rounds to the
        // total itself; the draw must still land on the outcomes with mass.
        for n in [3, 40] {
            for massive in [&[1][..], &[0, 2]] {
                let mut probs = vec![0.0; n];
                for &i in massive {
                    probs[i] = f64::from_bits(1);
                }
                let counts = sample_counts(&probs, 4, &mut Stuck(u64::MAX));
                assert_on_the_mass(&probs, &counts, 4);
            }
        }
    }

    /// The uniforms `sample_counts` drew from a seeded stream.
    fn uniforms_drawn(probs: &[f64], shots: u64) -> usize {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(probs.len() as u64);
        let mut advanced = rng.clone();
        sample_counts(probs, shots, &mut rng);
        let next = rng.next_u64();
        (0..).find(|_| advanced.next_u64() == next).unwrap()
    }

    /// Above the chained widths, whatever the distribution.
    #[test]
    fn every_shot_consumes_exactly_one_uniform() {
        for n in [CHAIN_MAX + 1, 40, 256] {
            let probs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 + 0.5).collect();
            assert_eq!(uniforms_drawn(&probs, 333), 333, "{n} outcomes");
        }
    }

    #[test]
    fn every_binomial_drawn_consumes_exactly_one_uniform() {
        // Outcomes 0, 2 and 3 are drawn; 5 is the last with mass and
        // takes the rest, and the zero-mass outcomes get no draw.
        let probs = [0.1, 0.0, 0.2, 0.3, 0.0, 0.4, 0.0];
        assert_eq!(uniforms_drawn(&probs, 333), 3);
        assert_eq!(uniforms_drawn(&probs, 0), 0);
        assert_eq!(uniforms_drawn(&[0.0, 1.0, 0.0], 333), 0);
        // A certain first outcome leaves no shot for the rest.
        assert_eq!(uniforms_drawn(&[1.0, 1e-300, 1e-300], 5), 1);
        for n in 1..=CHAIN_MAX {
            let flat = vec![1.0; n];
            assert_eq!(uniforms_drawn(&flat, 1 << 20), n - 1, "{n} outcomes");
        }
    }

    /// `ln(n!)` by summing logarithms.
    fn ln_factorial_summed(n: u64) -> f64 {
        (2..=n).map(|k| (k as f64).ln()).sum()
    }

    #[test]
    fn ln_factorial_matches_the_summed_logarithms() {
        for k in (0..64).chain([100, 255, 256, 1023, 1024, 4096, 100_000]) {
            let want = ln_factorial_summed(k);
            let got = ln_factorial(k);
            assert!(
                (got - want).abs() <= 1e-13 * want.max(1.0),
                "ln({k}!) = {got}, summed {want}"
            );
        }
    }

    /// The exact `Binomial(n, p)` pmf, from summed log-factorials.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let ln_n = ln_factorial_summed(n);
        (0..=n)
            .map(|k| {
                let ln_c = ln_n - ln_factorial_summed(k) - ln_factorial_summed(n - k);
                (ln_c + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()).exp()
            })
            .collect()
    }

    #[test]
    fn binomial_inverts_a_uniform_grid_onto_the_pmf() {
        // Uniforms on an even grid of `steps` points land on `k` in the
        // proportion f(k), up to one grid point per boundary crossed.
        let steps = 1u32 << 16;
        for n in [1u64, 2, 7, 30, 200] {
            for p in [1e-3, 0.05, 0.3, 0.5, 0.77, 0.999] {
                let mut hits = vec![0u32; n as usize + 1];
                for j in 0..steps {
                    let k = binomial(n, p, f64::from(j) / f64::from(steps));
                    hits[k as usize] += 1;
                }
                for (k, (&h, f)) in hits.iter().zip(binomial_pmf(n, p)).enumerate() {
                    let freq = f64::from(h) / f64::from(steps);
                    assert!(
                        (freq - f).abs() <= 2.0 / f64::from(steps),
                        "n {n}, p {p}, k {k}: {freq} vs {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn binomial_stays_in_range_at_extreme_uniforms() {
        let top = 1.0 - f64::EPSILON / 2.0;
        for n in [0u64, 1, 16, 1024, 1 << 20] {
            for p in [0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-12, 1.0] {
                for u in [0.0, top] {
                    assert!(binomial(n, p, u) <= n, "n {n}, p {p}, u {u}");
                }
            }
        }
        assert_eq!(binomial(9, 0.0, top), 0);
        assert_eq!(binomial(9, 1.0, 0.0), 9);
    }

    /// The guide table by definition: a forward scan per bucket for the
    /// first CDF entry whose bucket, computed through `usize`, is not
    /// below it.
    fn guide_table_scan(cdf: &[f64], scale: f64) -> Vec<usize> {
        let n = cdf.len();
        let last = cdf.partition_point(|&c| c < cdf[n - 1]);
        let mut start = 0;
        (0..=n)
            .map(|k| {
                while start < n && ((cdf[start] * scale) as usize).min(n) < k {
                    start += 1;
                }
                start.min(last)
            })
            .collect()
    }

    #[test]
    fn guide_table_matches_the_forward_scan() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let mut dists: Vec<Vec<f64>> = Vec::new();
        for _ in 0..200 {
            let n = rng.random_range(17..300usize);
            let head = rng.random_range(0..n / 2);
            let tail = rng.random_range(0..n / 2);
            let sparse = rng.random::<f64>();
            let dist = (0..n)
                .map(|i| {
                    let massless = i < head || i >= n - tail || rng.random::<f64>() < sparse;
                    if massless {
                        0.0
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect();
            dists.push(dist);
        }
        for n in [17, 40, 256, 1024] {
            for at in [0, n / 3, n - 1] {
                let mut spike = vec![1e-9; n];
                spike[at] = 1.0;
                dists.push(spike);
            }
            let mut subnormal = vec![0.0; n];
            subnormal[1] = f64::from_bits(1);
            dists.push(subnormal);
        }
        for probs in dists {
            let cdf: Vec<f64> = probs
                .iter()
                .scan(0.0, |acc, &p| {
                    *acc += p;
                    Some(*acc)
                })
                .collect();
            let total = cdf[cdf.len() - 1];
            if total == 0.0 {
                continue;
            }
            let scale = cdf.len() as f64 / total;
            assert_eq!(
                guide_table(&cdf, scale),
                guide_table_scan(&cdf, scale),
                "{probs:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn infinite_total_panics() {
        sample_counts(&[f64::MAX, f64::MAX], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "probability -0.5 is not finite and non-negative")]
    fn negative_probability_panics() {
        sample_counts(&[0.5, -0.5], 1, &mut StdRng::seed_from_u64(0));
    }

    /// A NaN rotation angle turns every outcome probability NaN; the
    /// sampler must refuse it rather than draw from a garbage CDF.
    #[test]
    #[should_panic(expected = "probability NaN is not finite and non-negative")]
    fn nan_probability_panics() {
        sample_counts(&[f64::NAN, 0.5], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "sums to zero")]
    fn zero_distribution_panics() {
        sample_counts(&[0.0, 0.0], 1, &mut StdRng::seed_from_u64(0));
    }
}
