//! Property-based tests for noise channels.

use proptest::prelude::*;
use proptest::strategy::Just;
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};

fn arb_readout() -> impl Strategy<Value = ReadoutError> {
    (0.0..0.5f64, 0.0..0.5f64).prop_map(|(a, b)| ReadoutError::new(a, b))
}

/// The readout channel by definition: per outcome `x` with bit `j`
/// clear, mix the pair `(x, x | 2^j)` through qubit `j`'s confusion.
fn readout_per_outcome(probs: &mut [f64], errors: &[ReadoutError]) {
    for (j, e) in errors.iter().enumerate() {
        if *e == ReadoutError::NONE {
            continue;
        }
        let m = e.confusion();
        let mask = 1usize << j;
        for x in 0..probs.len() {
            if x & mask == 0 {
                let y = x | mask;
                let p0 = probs[x];
                let p1 = probs[y];
                probs[x] = m[0][0] * p0 + m[0][1] * p1;
                probs[y] = m[1][0] * p0 + m[1][1] * p1;
            }
        }
    }
}

fn arb_dist(k: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001..1.0f64, 1usize << k).prop_map(|w| {
        let total: f64 = w.iter().sum();
        w.into_iter().map(|x| x / total).collect()
    })
}

proptest! {
    /// Readout confusion is a stochastic map: preserves mass and
    /// nonnegativity.
    #[test]
    fn confusion_is_stochastic(errors in prop::collection::vec(arb_readout(), 3), dist in arb_dist(3)) {
        let mut p = dist;
        apply_readout_errors(&mut p, &errors);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
    }

    /// The blocked channel is bit-identical to the per-outcome loop, with
    /// noiseless axes skipped, from 1 to 10 qubits.
    #[test]
    fn blocked_readout_matches_the_per_outcome_loop(
        errors in prop::collection::vec(prop_oneof![arb_readout(), Just(ReadoutError::NONE)], 1..=10),
        weights in prop::collection::vec(0.0..1.0f64, 1024),
    ) {
        let dist = &weights[..1usize << errors.len()];
        let mut got = dist.to_vec();
        apply_readout_errors(&mut got, &errors);
        let mut want = dist.to_vec();
        readout_per_outcome(&mut want, &errors);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", errors);
    }

    /// Order of qubit axes does not matter (the channel is a tensor
    /// product): applying errors [a, b] to a symmetric distribution equals
    /// applying [b, a] with the qubits relabeled.
    #[test]
    fn confusion_axes_commute(a in arb_readout(), b in arb_readout(), dist in arb_dist(2)) {
        let mut p1 = dist.clone();
        apply_readout_errors(&mut p1, &[a, b]);
        // Relabel qubits: swap bits of each index.
        let swapped: Vec<f64> = (0..4).map(|x| dist[((x & 1) << 1) | (x >> 1)]).collect();
        let mut p2 = swapped;
        apply_readout_errors(&mut p2, &[b, a]);
        for (x, &px) in p1.iter().enumerate() {
            let sx = ((x & 1) << 1) | (x >> 1);
            prop_assert!((px - p2[sx]).abs() < 1e-9);
        }
    }

    /// Depolarizing keeps distributions valid and shrinks the distance to
    /// uniform.
    #[test]
    fn depolarizing_contracts_toward_uniform(dist in arb_dist(3), lambda in 0.0..1.0f64) {
        let uniform = 1.0 / dist.len() as f64;
        let before: f64 = dist.iter().map(|&x| (x - uniform).abs()).sum();
        let mut p = dist;
        apply_depolarizing(&mut p, lambda);
        let after: f64 = p.iter().map(|&x| (x - uniform).abs()).sum();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(after <= before + 1e-12);
    }

    /// Scaling a device by a factor ≤ 1 never increases any error rate.
    #[test]
    fn scaling_down_reduces_errors(factor in 0.0..1.0f64) {
        let dev = DeviceModel::mumbai_like();
        let scaled = dev.scaled(factor);
        for q in 0..dev.num_qubits() {
            prop_assert!(scaled.readout(q).average() <= dev.readout(q).average() + 1e-15);
        }
        prop_assert!(scaled.depolarizing() <= dev.depolarizing() + 1e-15);
    }

    /// Readout errors scaled by crosstalk stay valid probabilities.
    #[test]
    fn crosstalk_scaling_stays_valid(e in arb_readout(), measured in 1usize..50) {
        let dev = DeviceModel::new("t", vec![e; 4], qnoise::CrosstalkModel::new(0.1), 0.0);
        let eff = dev.effective_readout(0, measured);
        prop_assert!(eff.p10() <= 0.5 && eff.p01() <= 0.5);
        prop_assert!(eff.p10() >= e.p10() && eff.p01() >= e.p01());
    }
}
