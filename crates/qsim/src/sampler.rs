//! Shot sampling from outcome distributions.
//!
//! Every draw maps one uniform `u = rng.random::<f64>() * total` onto the
//! first outcome whose cumulative probability exceeds `u`, so an outcome
//! with zero mass is never drawn, even when `u` lands exactly on a
//! cumulative value. Each shot consumes exactly one uniform, whatever the
//! width, so the RNG stream after a call does not depend on the
//! distribution. A distribution is prepared once per call into a
//! [`Sampler`] and then drawn from `shots` times, for O(n + shots) work
//! overall:
//!
//! - up to [`LINEAR_MAX`] outcomes (VarSaw's subset circuits measure 1–2
//!   qubits), a register counter per CDF entry tallies the shots at or
//!   above it, and the counts are their differences;
//! - wider distributions (full-register Globals) walk a guide table
//!   (Chen & Asau 1974), built from a bucket histogram in one pass.

use rand::Rng;

/// Distributions with at most this many outcomes are drawn by register
/// counters rather than the guide table. Each shot then costs `K`
/// branch-free compares and adds (`K` the width rounded up to 2, 4, 8 or
/// 16) and no memory write: a memory `counts[i] += 1` per shot stalls on
/// the previous shot's store whenever most shots land in one bin, as they
/// do on 2- and 4-outcome subset draws. Up to 16 outcomes this beat the
/// guided walk in a 1024-shot microbenchmark on a 2-core x86-64 host; the
/// walk pays for a bucket lookup and its occasional mispredicted step.
const LINEAR_MAX: usize = 16;

/// Draws `shots` samples from the distribution `probs` and returns a count
/// per outcome index.
///
/// The distribution is renormalized internally, so slightly unnormalized
/// inputs (e.g. probabilities that sum to `1 ± 1e-12` after floating-point
/// round-off) are fine. Exactly one `rng.random::<f64>()` is drawn per
/// shot.
///
/// # Panics
///
/// Panics if `probs` is empty, contains a negative entry, or sums to zero
/// or to a non-finite value.
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
    Sampler::new(probs).counts(shots, rng)
}

/// A distribution prepared for repeated draws.
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
    /// by `+inf`. For `u` below the total this changes no comparison. The
    /// sentinel stops every walk and count at the last outcome with mass,
    /// also for a subnormal total, where rounding can make `u` equal it.
    cdf: Vec<f64>,
    /// `n + 1` walk starts, one per bucket. Empty for at most
    /// [`LINEAR_MAX`] outcomes.
    guide: Vec<usize>,
    /// The sum of the probabilities; uniforms are scaled by it.
    total: f64,
    /// Buckets per unit of probability mass, `n / total`.
    scale: f64,
}

impl Sampler {
    fn new(probs: &[f64]) -> Self {
        assert!(
            !probs.is_empty(),
            "cannot sample from an empty distribution"
        );
        // Validating in a separate branch-free pass keeps the running sum
        // a plain loop of adds and stores.
        if !probs.iter().fold(true, |ok, &p| ok & (p >= 0.0)) {
            let bad = probs.iter().find(|&&p| p < 0.0 || p.is_nan());
            panic!("negative probability {}", bad.unwrap());
        }
        let n = probs.len();
        let mut cdf = vec![0.0; n];
        let mut acc = 0.0;
        for (c, &p) in cdf.iter_mut().zip(probs) {
            acc += p;
            *c = acc;
        }
        assert!(acc > 0.0, "distribution sums to zero");
        assert!(acc.is_finite(), "distribution sum {acc} is not finite");

        let scale = n as f64 / acc;
        let guide = if n > LINEAR_MAX {
            guide_table(&cdf, scale)
        } else {
            Vec::new()
        };
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

    fn counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
        match self.cdf.len() {
            1..=2 => self.counts_linear::<2, R>(shots, rng),
            3..=4 => self.counts_linear::<4, R>(shots, rng),
            5..=8 => self.counts_linear::<8, R>(shots, rng),
            9..=LINEAR_MAX => self.counts_linear::<16, R>(shots, rng),
            _ => self.counts_guided(shots, rng),
        }
    }

    /// Draws over at most `K` outcomes. `le[j]` counts the shots with
    /// `cdf[j] <= u`, i.e. drawn above `j`; the CDF is padded with `+inf`
    /// to `K` entries, whose counters stay zero. Outcome `i` then got
    /// `le[i - 1] - le[i]` shots, with `le[-1] = shots`.
    fn counts_linear<const K: usize, R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
        let mut cdf = [f64::INFINITY; K];
        cdf[..self.cdf.len()].copy_from_slice(&self.cdf);
        let mut le = [0u64; K];
        for _ in 0..shots {
            let u = rng.random::<f64>() * self.total;
            for (l, &c) in le.iter_mut().zip(&cdf) {
                *l += u64::from(c <= u);
            }
        }
        let mut above = shots;
        le[..self.cdf.len()]
            .iter()
            .map(|&l| {
                let count = above - l;
                above = l;
                count
            })
            .collect()
    }

    /// Draws through the guide table: from `guide[bucket(u)]`, step
    /// forward while the CDF entry is `<= u`. The first two steps are
    /// unconditional adds of the comparison, which covers nearly every
    /// draw without a data-dependent branch; the loop finishes the rare
    /// longer walk. The `+inf` sentinel stops every step, so `i` never
    /// passes the last outcome with mass.
    fn counts_guided<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
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

    #[test]
    fn u_on_a_cdf_tie_skips_zero_mass_outcomes() {
        // u = 0.5 equals the CDF at outcomes 0, 1 and 2.
        let counts = sample_counts(&[0.5, 0.0, 0.0, 0.5], 4, &mut Stuck(1 << 63));
        assert_eq!(counts, vec![0, 0, 0, 4]);
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
        // total itself; the draw must still land on the outcome with mass.
        for n in [3, 40] {
            let mut probs = vec![0.0; n];
            probs[1] = f64::from_bits(1);
            let counts = sample_counts(&probs, 4, &mut Stuck(u64::MAX));
            assert_eq!(counts[1], 4, "{n} outcomes");
        }
    }

    #[test]
    fn every_shot_consumes_exactly_one_uniform() {
        use rand::RngCore;
        // One width per arm: 1, 2, 3–4, 5–8, 9–16 and more than 16.
        for n in [1usize, 2, 3, 7, 16, 40, 256] {
            let probs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 + 0.5).collect();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut advanced = rng.clone();
            sample_counts(&probs, 333, &mut rng);
            for _ in 0..333 {
                advanced.next_u64();
            }
            assert_eq!(rng.next_u64(), advanced.next_u64(), "{n} outcomes");
        }
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
    #[should_panic(expected = "negative probability")]
    fn negative_probability_panics() {
        sample_counts(&[0.5, -0.5], 1, &mut StdRng::seed_from_u64(0));
    }

    /// A NaN rotation angle turns every outcome probability NaN; the
    /// sampler must refuse it rather than draw from a garbage CDF.
    #[test]
    #[should_panic(expected = "negative probability NaN")]
    fn nan_probability_panics() {
        sample_counts(&[f64::NAN, 0.5], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "sums to zero")]
    fn zero_distribution_panics() {
        sample_counts(&[0.0, 0.0], 1, &mut StdRng::seed_from_u64(0));
    }
}
