//! Amplitude-slice kernels behind [`Statevector`](crate::Statevector).
//!
//! Every kernel here updates one contiguous amplitude slice in place, on
//! the calling thread.
//!
//! # Exact arithmetic
//!
//! Each amplitude's new value is a pure elementwise function of its pair
//! ([`pair_update`]), the two-qubit ops are exact swaps and negations,
//! and no reduction is reordered. So the enumeration a sweep picks (contiguous lanes or
//! index spreading, see [`LANE_MIN_BIT`]) never changes its arithmetic:
//! both forms produce the same bits.

use crate::complex::C64;

/// The dense-plane byte footprint of an `n`-qubit register, saturating
/// for register sizes beyond any allocatable plane. The source behind
/// [`crate::CapacityError::bytes`].
pub(crate) fn state_bytes_for_qubits(num_qubits: usize) -> u128 {
    (std::mem::size_of::<C64>() as u128)
        .checked_shl(num_qubits as u32)
        .unwrap_or(u128::MAX)
}

/// New values of an amplitude pair under a single-qubit matrix. Shared by
/// both enumerations of [`apply_1q_local`], so they perform the exact
/// same floating-point operations (bit-identical results).
#[inline]
pub(crate) fn pair_update(m: &[[C64; 2]; 2], a0: C64, a1: C64) -> (C64, C64) {
    (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
}

/// Calls `f` with the two contiguous stride-1 lanes of every qubit-`q`
/// amplitude block: `s0` holds the indices with bit `q` clear, `s1` the
/// elementwise partners with it set, both `2^q` long. The branch-free
/// slice form lets the single-qubit sweeps autovectorize over whole f64
/// lanes instead of chasing per-element bit arithmetic.
#[inline]
pub(crate) fn for_each_pair_lanes(
    amps: &mut [C64],
    q: usize,
    mut f: impl FnMut(&mut [C64], &mut [C64]),
) {
    let mask = 1usize << q;
    let dim = amps.len();
    let mut base = 0;
    while base < dim {
        let (s0, s1) = amps[base..base + (mask << 1)].split_at_mut(mask);
        f(s0, s1);
        base += mask << 1;
    }
}

/// Calls `f` with the four contiguous stride-1 lanes of every
/// `(lo, hi)`-pair block (`lo < hi`), each `2^lo` long, in pair-basis
/// order `s = 2·bit(hi) + bit(lo)`: `(s0, s1, s2, s3)` hold the indices
/// with (neither, `lo`, `hi`, both) set. The two-qubit sweeps walk these
/// lanes with no per-element bit spreading, so the inner loops are
/// branch-free and autovectorizable.
#[inline]
pub(crate) fn for_each_quad_lanes(
    amps: &mut [C64],
    lo: usize,
    hi: usize,
    mut f: impl FnMut(&mut [C64], &mut [C64], &mut [C64], &mut [C64]),
) {
    debug_assert!(lo < hi);
    let lolen = 1usize << lo;
    let himask = 1usize << hi;
    let dim = amps.len();
    let mut outer = 0;
    while outer < dim {
        let mut mid = outer;
        while mid < outer + himask {
            let block = &mut amps[mid..mid + himask + 2 * lolen];
            let (s0, rest) = block.split_at_mut(lolen);
            let (s1, rest) = rest.split_at_mut(lolen);
            let (s2, rest) = rest[himask - 2 * lolen..].split_at_mut(lolen);
            f(s0, s1, s2, &mut rest[..lolen]);
            mid += lolen << 1;
        }
        outer += himask << 1;
    }
}

/// Minimum pair-bit position (log2 lane length) for the contiguous-lane
/// sweeps to pay off: below it the stride-1 lanes shrink to a handful of
/// elements and per-lane call overhead beats the vectorization win, so
/// the serial kernels fall back to index-spread enumeration. Both forms
/// visit identical amplitude sets with identical arithmetic, so the
/// switch can never change results — only speed.
pub(crate) const LANE_MIN_BIT: usize = 3;

/// Single-qubit matrix sweep over the amplitude plane. Hybrid
/// enumeration per [`LANE_MIN_BIT`]; the arithmetic per pair is
/// [`pair_update`] on both paths, so both produce the same bits.
pub(crate) fn apply_1q_local(amps: &mut [C64], q: usize, m: &[[C64; 2]; 2]) {
    let m = *m;
    if q >= LANE_MIN_BIT {
        for_each_pair_lanes(amps, q, |s0, s1| {
            for (a, b) in s0.iter_mut().zip(s1.iter_mut()) {
                let (b0, b1) = pair_update(&m, *a, *b);
                *a = b0;
                *b = b1;
            }
        });
    } else {
        let mask = 1usize << q;
        for p in 0..amps.len() / 2 {
            let i = insert_zero_bit(p, q);
            let (b0, b1) = pair_update(&m, amps[i], amps[i | mask]);
            amps[i] = b0;
            amps[i | mask] = b1;
        }
    }
}

/// CX sweep: in the sorted pair basis the control-set lanes are
/// `s1`/`s3` (control = low bit) or `s2`/`s3` (control = high bit); X on
/// the target swaps them.
pub(crate) fn apply_cx_local(amps: &mut [C64], control: usize, target: usize) {
    let (lo, hi) = (control.min(target), control.max(target));
    if lo >= LANE_MIN_BIT {
        if control < target {
            for_each_quad_lanes(amps, lo, hi, |_s0, s1, _s2, s3| s1.swap_with_slice(s3));
        } else {
            for_each_quad_lanes(amps, lo, hi, |_s0, _s1, s2, s3| s2.swap_with_slice(s3));
        }
    } else {
        let (cmask, tmask) = (1usize << control, 1usize << target);
        for p in 0..amps.len() / 4 {
            let i = insert_zero_bits(p, lo, hi) | cmask;
            amps.swap(i, i | tmask);
        }
    }
}

/// CZ sweep: negates the both-set lane.
pub(crate) fn apply_cz_local(amps: &mut [C64], lo: usize, hi: usize) {
    if lo >= LANE_MIN_BIT {
        for_each_quad_lanes(amps, lo, hi, |_s0, _s1, _s2, s3| {
            for a in s3.iter_mut() {
                *a = -*a;
            }
        });
    } else {
        let mask = (1usize << lo) | (1usize << hi);
        for p in 0..amps.len() / 4 {
            let i = insert_zero_bits(p, lo, hi) | mask;
            amps[i] = -amps[i];
        }
    }
}

/// SWAP sweep: exchanges the two single-set lanes.
pub(crate) fn apply_swap_local(amps: &mut [C64], lo: usize, hi: usize) {
    if lo >= LANE_MIN_BIT {
        for_each_quad_lanes(amps, lo, hi, |_s0, s1, s2, _s3| s1.swap_with_slice(s2));
    } else {
        let (lomask, himask) = (1usize << lo, 1usize << hi);
        for p in 0..amps.len() / 4 {
            let i0 = insert_zero_bits(p, lo, hi);
            amps.swap(i0 | lomask, i0 | himask);
        }
    }
}

/// Spreads `p` over the bit positions of an index, leaving a zero at
/// position `bit`: bits `0..bit` of `p` stay, bits `bit..` shift up one.
/// Enumerates all indices whose `bit` is clear as `p` runs over `0..len/2`.
#[inline]
pub(crate) fn insert_zero_bit(p: usize, bit: usize) -> usize {
    let low = p & ((1 << bit) - 1);
    ((p >> bit) << (bit + 1)) | low
}

/// [`insert_zero_bit`] at two positions `lo < hi`: enumerates all indices
/// with both bits clear as `p` runs over `0..len/4`.
#[inline]
pub(crate) fn insert_zero_bits(p: usize, lo: usize, hi: usize) -> usize {
    insert_zero_bit(insert_zero_bit(p, lo), hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_zero_bit_enumerates_clear_bit_indices() {
        // All 8 indices of a 16-element space with bit 2 clear, in order.
        let got: Vec<usize> = (0..8).map(|p| insert_zero_bit(p, 2)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        // Bit 0: the even indices.
        let got: Vec<usize> = (0..8).map(|p| insert_zero_bit(p, 0)).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn insert_zero_bits_clears_both_positions() {
        for p in 0..16 {
            let i = insert_zero_bits(p, 1, 3);
            assert_eq!(i & 0b1010, 0, "index {i:#b} has a set inserted bit");
        }
        // Injective over the pair space.
        let mut seen: Vec<usize> = (0..16).map(|p| insert_zero_bits(p, 1, 3)).collect();
        seen.dedup();
        assert_eq!(seen.len(), 16);
    }
}
