//! Statistical oracle for shot sampling: the counts `sample_counts` draws
//! must follow the multinomial `Multinomial(shots, p)`, at every width and
//! for every way the sampler draws them.
//!
//! Each case draws `trials` count vectors from fixed seeds and tests, per
//! outcome `i` with mass:
//! - the histogram of its count across trials, against the exact
//!   `Binomial(shots, p_i)` pmf, by a chi-square test over bins whose
//!   expected count is at least 5;
//! - the mean of its count, against `shots · p_i`;
//!
//! and per pair `i < j` with mass, the covariance of their counts against
//! `−shots · p_i · p_j`, so a draw with the right marginals but the wrong
//! joint fails: by z-score where both counts are near normal, else through
//! the histogram of `c_i + c_j` against the exact `Binomial(shots, p_i +
//! p_j)`, whose variance is `Var c_i + Var c_j + 2 Cov`.
//! Outcomes without mass must never be drawn, and every trial must place
//! exactly `shots` shots.
//!
//! Pooled frequencies alone would pass `round(shots · p)`; the histograms
//! catch it. A statistic fails when its z-score exceeds [`Z_MAX`]. With
//! some 20,000 statistics in all, a correct sampler crosses that
//! somewhere with a probability of about 1e-3 where the normal
//! approximations hold; the seeds are fixed, so the outcome repeats.
//!
//! `trials` is 64 per proptest case: 4096 by default, more in the deep
//! tier that raises `PROPTEST_CASES`.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The z-score beyond which a statistic fails.
const Z_MAX: f64 = 5.5;

/// Count vectors drawn per case.
fn trials() -> usize {
    64 * proptest::test_runner::cases() as usize
}

/// The distributions the oracle draws from, by name. Chained widths 2, 3,
/// 4, 16 and 32 and the guided width 64; flat, skewed, ansatz-like, with
/// zero-mass holes, and made of subnormals.
fn distributions() -> Vec<(String, Vec<f64>)> {
    let ulps = |v: &[u64]| v.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
    let mut dists = vec![
        ("flat-2".to_string(), vec![1.0; 2]),
        ("tilted-2".into(), vec![0.9, 0.1]),
        ("subnormal-2".into(), ulps(&[1, 3])),
        ("flat-3".into(), vec![1.0; 3]),
        ("hole-3".into(), vec![0.2, 0.0, 0.8]),
        ("flat-4".into(), vec![0.25; 4]),
        ("skewed-4".into(), vec![0.97, 0.01, 0.015, 0.005]),
        ("hole-4".into(), vec![0.4, 0.0, 0.35, 0.25]),
        ("subnormal-4".into(), ulps(&[1, 3, 0, 2])),
    ];
    for n in [16usize, 32, 64] {
        dists.push((format!("flat-{n}"), vec![1.0; n]));
        // Ansatz-like: uneven weights spanning two orders of magnitude.
        let ragged: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 37 + 11) % 23) as f64 * ((i % 5) as f64 + 0.5).powi(2))
            .collect();
        dists.push((format!("ragged-{n}"), ragged.clone()));
        let holed: Vec<f64> = ragged
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % 3 == 1 || i == n - 1 { 0.0 } else { p })
            .collect();
        dists.push((format!("hole-{n}"), holed));
        let mut skewed = vec![0.05 / (n - 1) as f64; n];
        skewed[n / 3] = 0.95;
        dists.push((format!("skewed-{n}"), skewed));
        let sub: Vec<u64> = (0..n as u64)
            .map(|i| [1, 0, 4, 2][(i % 4) as usize])
            .collect();
        dists.push((format!("subnormal-{n}"), ulps(&sub)));
    }
    dists
}

/// `ln(k!)` for `k` in `0..=n`, by summing logarithms.
fn ln_factorials(n: u64) -> Vec<f64> {
    let mut table = vec![0.0];
    for k in 1..=n {
        table.push(table[k as usize - 1] + (k as f64).ln());
    }
    table
}

/// The exact `Binomial(n, p)` pmf, for `p` in `(0, 1]`, cut where it
/// falls below 1e-20 above the mean (the tail beyond is smaller still).
fn binomial_pmf(n: u64, p: f64, ln_fact: &[f64]) -> Vec<f64> {
    let n = n as usize;
    if p >= 1.0 {
        let mut point = vec![0.0; n + 1];
        point[n] = 1.0;
        return point;
    }
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    let mut pmf = Vec::new();
    for k in 0..=n {
        let ln_c = ln_fact[n] - ln_fact[k] - ln_fact[n - k];
        let f = (ln_c + k as f64 * ln_p + (n - k) as f64 * ln_q).exp();
        if k as f64 > n as f64 * p && f < 1e-20 {
            break;
        }
        pmf.push(f);
    }
    pmf
}

/// The chi-square statistic of `observed` (a count per value) against
/// `trials · pmf`, over consecutive bins each expecting at least 5, with
/// its degrees of freedom; `None` when everything fits in one bin.
/// Observations beyond the end of `pmf` fall into the last bin.
fn chi_square(observed: &[u64], pmf: &[f64], trials: usize) -> Option<(f64, usize)> {
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let (mut obs, mut exp) = (0.0, 0.0);
    for (&o, &f) in observed.iter().zip(pmf) {
        obs += o as f64;
        exp += f * trials as f64;
        if exp >= 5.0 {
            bins.push((obs, exp));
            (obs, exp) = (0.0, 0.0);
        }
    }
    obs += observed[pmf.len()..].iter().sum::<u64>() as f64;
    match bins.last_mut() {
        Some(last) => {
            last.0 += obs;
            last.1 += exp;
        }
        None => return None,
    }
    if bins.len() < 2 {
        return None;
    }
    let x2 = bins.iter().map(|(o, e)| (o - e).powi(2) / e).sum();
    Some((x2, bins.len() - 1))
}

/// The upper-tail z-score of a chi-square statistic with `df` degrees of
/// freedom, by the Wilson–Hilferty cube-root transform. It understates
/// the tail at one degree of freedom, which only makes the test stricter
/// about failing.
fn chi_square_z(x2: f64, df: usize) -> f64 {
    let k = df as f64;
    let v = 2.0 / (9.0 * k);
    ((x2 / k).cbrt() - (1.0 - v)) / v.sqrt()
}

/// Runs every statistic on `draws` (one count vector per trial) from
/// `probs`, returning a line per failed one.
fn failures(name: &str, probs: &[f64], shots: u64, draws: &[Vec<u64>]) -> Vec<String> {
    let total: f64 = probs.iter().sum();
    let p: Vec<f64> = probs.iter().map(|&x| x / total).collect();
    let t = draws.len();
    let tag = format!("{name}, {shots} shots");
    let mut failed = Vec::new();
    for (k, d) in draws.iter().enumerate() {
        if d.iter().sum::<u64>() != shots {
            failed.push(format!("{tag}: trial {k} placed {d:?}"));
        }
        for (i, (&c, &pi)) in d.iter().zip(&p).enumerate() {
            if pi == 0.0 && c > 0 {
                failed.push(format!("{tag}: zero-mass outcome {i} drawn in trial {k}"));
            }
        }
    }
    // Per outcome, its count in every trial.
    let columns: Vec<Vec<u64>> = (0..p.len())
        .map(|i| draws.iter().map(|d| d[i]).collect())
        .collect();
    let histogram = |counts: &mut dyn Iterator<Item = u64>| {
        let mut h = vec![0u64; shots as usize + 1];
        counts.for_each(|c| h[c as usize] += 1);
        h
    };
    let ln_fact = ln_factorials(shots);
    let massive: Vec<usize> = (0..p.len()).filter(|&i| p[i] > 0.0).collect();
    for &i in &massive {
        let observed = histogram(&mut columns[i].iter().copied());
        if let Some((x2, df)) = chi_square(&observed, &binomial_pmf(shots, p[i], &ln_fact), t) {
            let z = chi_square_z(x2, df);
            if z > Z_MAX {
                failed.push(format!(
                    "{tag}: outcome {i} histogram X² {x2:.1} on {df} df (z {z:.1})"
                ));
            }
        }
        let var = shots as f64 * p[i] * (1.0 - p[i]);
        if var > 0.0 {
            let mean = columns[i].iter().sum::<u64>() as f64 / t as f64;
            let z = (mean - shots as f64 * p[i]) / (var / t as f64).sqrt();
            if z.abs() > Z_MAX {
                failed.push(format!("{tag}: outcome {i} mean {mean:.3} (z {z:.1})"));
            }
        }
    }
    // One shot lands on exactly one outcome, so its marginals fix the
    // joint: pairs are tested from two shots up.
    let pairs = if shots > 1 { massive.len() } else { 0 };
    for (a, &i) in massive[..pairs].iter().enumerate() {
        for &j in &massive[a + 1..] {
            let (si, sj) = (shots as f64 * p[i], shots as f64 * p[j]);
            let want = -si * p[j];
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for (&ci, &cj) in columns[i].iter().zip(&columns[j]) {
                let x = (ci as f64 - si) * (cj as f64 - sj);
                sum += x;
                sum_sq += x * x;
            }
            let cov = sum / t as f64;
            if si.min(sj) >= 5.0 {
                // Both counts near normal: a z-score of the covariance.
                let var = (sum_sq - sum * cov) / (t - 1) as f64;
                let z = (cov - want) / (var / t as f64).sqrt();
                if z.abs() > Z_MAX {
                    failed.push(format!(
                        "{tag}: outcomes {i}, {j} covariance {cov:.3}, want {want:.3} (z {z:.1})"
                    ));
                }
                continue;
            }
            // A rare outcome makes the products too skewed for a z-score.
            // The pair's sum is `Binomial(shots, p_i + p_j)`, whose variance
            // holds the covariance: tested exactly instead.
            let observed = histogram(&mut columns[i].iter().zip(&columns[j]).map(|(a, b)| a + b));
            let pmf = binomial_pmf(shots, p[i] + p[j], &ln_fact);
            if let Some((x2, df)) = chi_square(&observed, &pmf, t) {
                let z = chi_square_z(x2, df);
                if z > Z_MAX {
                    failed.push(format!(
                        "{tag}: outcomes {i} + {j} histogram X² {x2:.1} on {df} df (z {z:.1}), \
                         covariance {cov:.3}, want {want:.3}"
                    ));
                }
            }
        }
    }
    failed
}

/// Draws every distribution of `width` outcomes at 1, 7 and 1024 shots and
/// fails with every statistic that failed.
fn check_width(width: usize) {
    let t = trials();
    let mut failed = Vec::new();
    for (d, (name, probs)) in distributions().into_iter().enumerate() {
        if probs.len() != width {
            continue;
        }
        for shots in [1u64, 7, 1024] {
            let mut rng = StdRng::seed_from_u64(1000 * d as u64 + shots);
            let draws: Vec<Vec<u64>> = (0..t)
                .map(|_| qsim::sample_counts(&probs, shots, &mut rng))
                .collect();
            failed.extend(failures(&name, &probs, shots, &draws));
        }
    }
    assert!(
        failed.is_empty(),
        "{} failed statistics:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn chained_small_widths_follow_the_multinomial() {
    for width in [2, 3, 4] {
        check_width(width);
    }
}

#[test]
fn chained_16_outcomes_follow_the_multinomial() {
    check_width(16);
}

#[test]
fn chained_32_outcomes_follow_the_multinomial() {
    check_width(32);
}

#[test]
fn guided_64_outcomes_follow_the_multinomial() {
    check_width(64);
}
