//! Amplitude-slice kernels shared by the dense plane and the shards.
//!
//! Every kernel here updates one contiguous amplitude slice in place: a
//! whole [`Statevector`](crate::Statevector) or one shard of a
//! [`ShardedState`](crate::ShardedState) whose pair bits are local.
//! Threads never share a slice; [`crate::shard`] spreads shards (and
//! sub-slices of exchanged shard pairs) across workers instead.
//!
//! # Bit-identical results
//!
//! Each amplitude's new value is a pure elementwise function of its pair
//! or quad ([`pair_update`], [`QuadKernel::apply`]), the two-qubit sparse
//! ops are exact swaps and negations, and no reduction is reordered. So
//! which slice or thread runs an update never changes its arithmetic:
//! dense and sharded execution agree bit for bit
//! (`tests/shard_equiv.rs`).

use crate::complex::C64;

/// How an executor spreads a circuit across threads.
///
/// The enum lives in [`parallel`]; this re-export keeps
/// `qsim::Parallelism` working. The dense [`Statevector`](crate::Statevector)
/// plane is serial. Threads run as shards: [`crate::shard::shards_and_workers`]
/// turns a choice into a shard count and a worker count, and a
/// [`ShardedState`](crate::ShardedState) spreads its shards across those
/// workers. Results never depend on the choice.
///
/// # Examples
///
/// ```
/// use qsim::{Circuit, CircuitPlan, Parallelism, ShardedState, Statevector};
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2);
/// let plan = CircuitPlan::compile(&c);
/// let mut serial = Statevector::zero(3);
/// serial.apply_plan(&plan);
/// let mut threaded = ShardedState::zero(3, 2).with_parallelism(Parallelism::Threads(2));
/// threaded.apply_plan(&plan);
/// // Same amplitudes, bit for bit.
/// assert_eq!(serial.amplitudes(), threaded.to_statevector().amplitudes());
/// ```
pub use parallel::Parallelism;

/// The dense-plane byte footprint of an `n`-qubit register, saturating
/// for register sizes beyond any allocatable plane. The single source
/// behind [`crate::CircuitStats::state_bytes`] and
/// [`crate::CapacityError::bytes`].
pub(crate) fn state_bytes_for_qubits(num_qubits: usize) -> u128 {
    (std::mem::size_of::<C64>() as u128)
        .checked_shl(num_qubits as u32)
        .unwrap_or(u128::MAX)
}

/// New values of an amplitude pair under a single-qubit matrix. Shared by
/// the dense and sharded kernels so both paths perform the exact same
/// floating-point operations (bit-identical results).
#[inline]
pub(crate) fn pair_update(m: &[[C64; 2]; 2], a0: C64, a1: C64) -> (C64, C64) {
    (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
}

/// New values of a pair-basis amplitude quad under a 4×4 block matrix.
/// Shared by the dense and sharded
/// [`PlanOp::Block4`](crate::plan::PlanOp::Block4) kernels so both tiers
/// perform the exact same floating-point operations (bit-identical
/// results).
///
/// The accumulation tree is the fixed pairing `(t0 + t3) + (t1 + t2)`,
/// not left-to-right. A shard-layout remap that flips a block's pair
/// order relabels the pair basis by the permutation `(0)(3)(1 2)`
/// (`linalg::swap_qubits4` conjugation — exact entry copies); that
/// relabeling fixes the `{0,3}` operand pair and swaps the `{1,2}`
/// one wholesale, and IEEE addition is commutative, so this pairing
/// makes remapped blocks bit-identical to the serial reference where
/// left-to-right accumulation would diverge by a rounding.
#[inline]
pub(crate) fn quad_update(m: &[[C64; 4]; 4], a: [C64; 4]) -> [C64; 4] {
    let mut out = [C64::ZERO; 4];
    for (o, row) in out.iter_mut().zip(m) {
        *o = (row[0] * a[0] + row[3] * a[3]) + (row[1] * a[1] + row[2] * a[2]);
    }
    out
}

/// New values of a pair-basis amplitude quad under a row-sparse block
/// matrix: row `r` reads only `a[cols[r][0]]` and `a[cols[r][1]]` (a row
/// with one nonzero pads the second slot with a zero coefficient). Eight
/// complex multiplies instead of sixteen — entangler blocks built from
/// CX/CZ sandwiches are mostly this sparse. Two-term sums are
/// commutative bitwise, so like [`quad_update`]'s pairing this rule is
/// exact under the pair-flip relabeling a shard-layout remap performs.
#[inline(always)]
pub(crate) fn sparse2_update(
    cols: &[[usize; 2]; 4],
    vals: &[[C64; 2]; 4],
    a: [C64; 4],
) -> [C64; 4] {
    let mut out = [C64::ZERO; 4];
    for ((o, c), v) in out.iter_mut().zip(cols).zip(vals) {
        *o = v[0] * a[c[0]] + v[1] * a[c[1]];
    }
    out
}

/// Per-pass classification of a bound
/// [`PlanOp::Block4`](crate::plan::PlanOp::Block4) matrix by its nonzero
/// pattern, shared by the dense and sharded kernels.
///
/// Entangler blocks frequently bind matrices that are at least half
/// zeros (a CX times a `R ⊗ I` rotation sandwich has two nonzeros per
/// row), so each execution pass scans the 16 entries once and picks the
/// cheapest update rule. The classification is a pure function of the
/// matrix values, so every tier derives the same kernel for the same op
/// — cross-tier results stay bit-identical — and rebinding needs no
/// bookkeeping: a rebound matrix is simply re-classified at its next
/// pass.
#[derive(Clone, Copy, Debug)]
pub(crate) enum QuadKernel {
    /// Full 16-multiply [`quad_update`].
    Dense([[C64; 4]; 4]),
    /// At most two nonzeros in every row: [`sparse2_update`].
    Sparse2 {
        cols: [[usize; 2]; 4],
        vals: [[C64; 2]; 4],
    },
}

impl QuadKernel {
    /// Scans the matrix and picks the cheapest update rule that computes
    /// it exactly.
    pub(crate) fn of(m: &[[C64; 4]; 4]) -> Self {
        let mut cols = [[0usize; 2]; 4];
        let mut vals = [[C64::ZERO; 2]; 4];
        for (r, row) in m.iter().enumerate() {
            let mut k = 0;
            for (c, &v) in row.iter().enumerate() {
                if v != C64::ZERO {
                    if k == 2 {
                        return QuadKernel::Dense(*m);
                    }
                    cols[r][k] = c;
                    vals[r][k] = v;
                    k += 1;
                }
            }
        }
        QuadKernel::Sparse2 { cols, vals }
    }

    /// Applies the classified rule to one pair-basis quad.
    #[inline(always)]
    pub(crate) fn apply(&self, a: [C64; 4]) -> [C64; 4] {
        match self {
            QuadKernel::Dense(m) => quad_update(m, a),
            QuadKernel::Sparse2 { cols, vals } => sparse2_update(cols, vals, a),
        }
    }
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

/// Single-qubit matrix sweep over a contiguous amplitude slice (a full
/// statevector or one shard with `q` local). Hybrid enumeration per
/// [`LANE_MIN_BIT`]; the arithmetic per pair is [`pair_update`] on both
/// paths, keeping every tier bit-identical.
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

/// X sweep on `q` (a CX whose control sits outside the slice and is
/// known set): swaps the two `q` lanes.
pub(crate) fn apply_x_local(amps: &mut [C64], q: usize) {
    if q >= LANE_MIN_BIT {
        for_each_pair_lanes(amps, q, |s0, s1| s0.swap_with_slice(s1));
    } else {
        let mask = 1usize << q;
        for p in 0..amps.len() / 2 {
            let i = insert_zero_bit(p, q);
            amps.swap(i, i | mask);
        }
    }
}

/// Z sweep on `q` (a CZ whose partner sits outside the slice and is
/// known set): negates the set-`q` lane.
pub(crate) fn negate_bit_set(amps: &mut [C64], q: usize) {
    if q >= LANE_MIN_BIT {
        for_each_pair_lanes(amps, q, |_s0, s1| {
            for a in s1.iter_mut() {
                *a = -*a;
            }
        });
    } else {
        let mask = 1usize << q;
        for p in 0..amps.len() / 2 {
            let i = insert_zero_bit(p, q) | mask;
            amps[i] = -amps[i];
        }
    }
}

/// CX sweep with both qubits inside the slice: in the sorted pair basis
/// the control-set lanes are `s1`/`s3` (control = low bit) or `s2`/`s3`
/// (control = high bit); X on the target swaps them.
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

/// CZ sweep with both qubits inside the slice: negates the both-set lane.
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

/// SWAP sweep with both qubits inside the slice: exchanges the two
/// single-set lanes.
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

/// Entangler-block sweep (4×4 matrix over pair `(lo, hi)`) with both
/// qubits inside the slice. The matrix is classified once per pass
/// ([`QuadKernel`]) and the sweep is monomorphized over the resulting
/// update rule, so the hot loop carries no per-quad dispatch.
pub(crate) fn apply_block4_local(amps: &mut [C64], lo: usize, hi: usize, m: &[[C64; 4]; 4]) {
    match QuadKernel::of(m) {
        QuadKernel::Dense(m) => block4_sweep(amps, lo, hi, |a| quad_update(&m, a)),
        QuadKernel::Sparse2 { cols, vals } => {
            block4_sweep(amps, lo, hi, |a| sparse2_update(&cols, &vals, a))
        }
    }
}

/// Hybrid quad enumeration behind [`apply_block4_local`]: contiguous
/// pair-basis lanes at `lo >= LANE_MIN_BIT`, streamed `hi`-half
/// sub-blocks below. Both paths feed identical quads to `update` in
/// identical order.
fn block4_sweep(
    amps: &mut [C64],
    lo: usize,
    hi: usize,
    mut update: impl FnMut([C64; 4]) -> [C64; 4],
) {
    if lo >= LANE_MIN_BIT {
        for_each_quad_lanes(amps, lo, hi, |s0, s1, s2, s3| {
            for (((a0, a1), a2), a3) in s0
                .iter_mut()
                .zip(s1.iter_mut())
                .zip(s2.iter_mut())
                .zip(s3.iter_mut())
            {
                let out = update([*a0, *a1, *a2, *a3]);
                *a0 = out[0];
                *a1 = out[1];
                *a2 = out[2];
                *a3 = out[3];
            }
        });
    } else {
        // Low pair bit too small for worthwhile `lo` lanes: pair the two
        // contiguous `hi` halves instead and stream aligned 2^(lo+1)
        // sub-blocks through them, so every load sits next to the last.
        let lomask = 1usize << lo;
        for_each_pair_lanes(amps, hi, |sa, sb| {
            for (ca, cb) in sa
                .chunks_exact_mut(lomask << 1)
                .zip(sb.chunks_exact_mut(lomask << 1))
            {
                for i0 in 0..lomask {
                    let out = update([ca[i0], ca[i0 | lomask], cb[i0], cb[i0 | lomask]]);
                    ca[i0] = out[0];
                    ca[i0 | lomask] = out[1];
                    cb[i0] = out[2];
                    cb[i0 | lomask] = out[3];
                }
            }
        });
    }
}

/// Spreads `p` over the bit positions of an index, leaving a zero at
/// position `bit`: bits `0..bit` of `p` stay, bits `bit..` shift up one.
/// Enumerates all indices whose `bit` is clear as `p` runs over `0..len/2`.
/// Shared with the serial plan kernels in `state.rs`, so both paths
/// enumerate the exact same amplitude pairs.
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
    use crate::circuit::Circuit;
    use crate::plan::CircuitPlan;
    use crate::shard::{shards_and_workers, ShardedState};
    use crate::state::Statevector;

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

    #[test]
    fn auto_stays_serial_for_small_states_and_short_circuits() {
        assert_eq!(shards_and_workers(Parallelism::Auto, 11, 100), (1, 1));
        assert_eq!(shards_and_workers(Parallelism::Auto, 12, 3), (1, 1));
        let (shards, workers) = shards_and_workers(Parallelism::Auto, 12, 100);
        assert_eq!(workers, parallel::num_threads());
        assert!(shards.is_power_of_two() && shards <= workers);
    }

    #[test]
    fn threaded_matches_serial_on_a_dense_circuit() {
        // Touches every kernel: rotations on low and high qubits, CX in
        // all control/target orientations, CZ and SWAP across the shard
        // boundary. With 4 shards on 5 qubits each shard holds 8
        // amplitudes (bits 0-2 local, 3-4 global).
        let n = 5;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.3 + q as f64).rz(q, -0.7 * q as f64);
        }
        c.cx(0, 4).cx(4, 0).cx(1, 2).cz(0, 4).cz(1, 2).swap(0, 4);
        c.swap(1, 2).h(4).x(3).cx(3, 1);

        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        for workers in [2usize, 4, 8] {
            let mode = Parallelism::Threads(workers);
            let (shards, _) = shards_and_workers(mode, n, plan.op_count());
            let mut threaded = ShardedState::zero(n, shards).with_parallelism(mode);
            threaded.apply_plan(&plan);
            assert_eq!(
                serial.amplitudes(),
                threaded.to_statevector().amplitudes(),
                "{workers} workers"
            );
        }
    }
}
