//! Shot sampling from outcome distributions.
//!
//! Every draw maps one uniform `u = rng.random::<f64>() * total` onto the
//! first outcome whose cumulative probability exceeds `u`, so an outcome
//! with zero mass is never drawn, even when `u` lands exactly on a
//! cumulative value. A distribution is prepared once per
//! call into a [`Sampler`] (CDF plus a guide table, Chen & Asau 1974) and
//! then drawn from `shots` times, for O(n + shots) work overall.

use rand::Rng;

/// Distributions with at most this many outcomes are drawn by counting
/// the CDF entries `<= u`, which compiles without branches. Up to this
/// size the count beat the guide table in a 1024-shot microbenchmark on
/// a 2-core x86-64 host: the walk's data-dependent branch mispredicts
/// when a few wide buckets share the mass, and through the table alone
/// 2-outcome draws were slower than a binary search.
const LINEAR_MAX: usize = 16;

/// Draws `shots` samples from the distribution `probs` and returns a count
/// per outcome index.
///
/// The distribution is renormalized internally, so slightly unnormalized
/// inputs (e.g. probabilities that sum to `1 ± 1e-12` after floating-point
/// round-off) are fine.
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

/// Draws a single outcome index from the distribution `probs`.
///
/// # Panics
///
/// Same conditions as [`sample_counts`].
pub fn sample_index<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    Sampler::new(probs).draw(rng)
}

/// Draws `shots` samples per seed from the distribution `probs`, one
/// independent count vector per entry of `seeds`, computed on scoped
/// threads.
///
/// The sampler is built once and shared; each seed drives its own
/// `StdRng::seed_from_u64` stream, so the result for a given seed is
/// identical to a serial [`sample_counts`] call with that freshly seeded
/// RNG — batch parallelism never changes the counts. This is the
/// shot-sampling entry point for executors running many independent
/// trials or repeated measurements of the same prepared state.
///
/// # Panics
///
/// Same conditions as [`sample_counts`].
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let probs = [0.25, 0.75];
/// let batch = qsim::sample_counts_many(&probs, 100, &[7, 8]);
/// let mut rng = StdRng::seed_from_u64(7);
/// assert_eq!(batch[0], qsim::sample_counts(&probs, 100, &mut rng));
/// assert_eq!(batch[1].iter().sum::<u64>(), 100);
/// ```
pub fn sample_counts_many(probs: &[f64], shots: u64, seeds: &[u64]) -> Vec<Vec<u64>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let sampler = Sampler::new(probs);
    parallel::parallel_map(seeds.to_vec(), |&seed| {
        sampler.counts(shots, &mut StdRng::seed_from_u64(seed))
    })
}

/// A distribution prepared for repeated draws.
///
/// The guide table splits `[0, total)` into `n` equal buckets:
/// `guide[k]` is the number of CDF entries whose bucket is below `k`.
/// Every such entry is below any `u` in bucket `k` (bucketing is
/// monotone), so the answer for `u` is at least `guide[k]` and a forward
/// walk from there finds it — in about one step on average, against
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
        let n = probs.len();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in probs {
            assert!(p >= 0.0, "negative probability {p}");
            acc += p;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "distribution sums to zero");
        assert!(acc.is_finite(), "distribution sum {acc} is not finite");

        let mut sampler = Sampler {
            cdf,
            guide: Vec::new(),
            total: acc,
            scale: n as f64 / acc,
        };
        if n > LINEAR_MAX {
            sampler.guide = sampler.guide_table();
        }
        for c in sampler.cdf.iter_mut().rev().take_while(|c| **c == acc) {
            *c = f64::INFINITY;
        }
        sampler
    }

    /// Builds the guide table from the true CDF in O(n). No start passes
    /// the first entry equal to the total, so every walk ends on the
    /// sentinel at the latest.
    fn guide_table(&self) -> Vec<usize> {
        let n = self.cdf.len();
        let last = self.cdf.partition_point(|&c| c < self.total);
        let mut start = 0;
        (0..=n)
            .map(|k| {
                while start < n && self.bucket(self.cdf[start]) < k {
                    start += 1;
                }
                start.min(last)
            })
            .collect()
    }

    /// The guide-table bucket of `x` in `[0, total]`: `floor(x * n /
    /// total)`, clamped to `n` in case a subnormal total overflowed
    /// `scale`. Monotone in `x`, which is all the table relies on.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.cdf.len())
    }

    /// One draw: the first outcome whose CDF entry exceeds `u`.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.random::<f64>() * self.total;
        if self.guide.is_empty() {
            return self.cdf.iter().filter(|&&c| c <= u).count();
        }
        let mut i = self.guide[self.bucket(u)];
        while self.cdf[i] <= u {
            i += 1;
        }
        i
    }

    fn counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
        let mut counts = vec![0u64; self.cdf.len()];
        for _ in 0..shots {
            counts[self.draw(rng)] += 1;
        }
        counts
    }
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

    #[test]
    fn batch_sampling_matches_serial_per_seed() {
        let wide = |n: usize| -> Vec<f64> { (0..n).map(|i| ((i * 37) % 11) as f64).collect() };
        for probs in [vec![0.1, 0.2, 0.3, 0.4], wide(256), wide(1024)] {
            let seeds: Vec<u64> = (0..12).collect();
            let batch = sample_counts_many(&probs, 333, &seeds);
            assert_eq!(batch.len(), seeds.len());
            for (&seed, counts) in seeds.iter().zip(&batch) {
                let mut rng = StdRng::seed_from_u64(seed);
                assert_eq!(
                    counts,
                    &sample_counts(&probs, 333, &mut rng),
                    "{} outcomes, seed {seed}",
                    probs.len()
                );
            }
        }
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
