//! JigSaw's Bayesian reconstruction, and the allocation-free, key-cached
//! engine that runs it.
//!
//! The third step of JigSaw (Fig.3): the low-fidelity, high-correlation
//! Global-PMF is reweighted by each high-fidelity Local-PMF, once. For a
//! window `w` the update is
//!
//! `P'(x) ∝ P(x) · L(x|w) / margw(P)(x|w)`
//!
//! — the probability of every full outcome `x` is rescaled so that the
//! marginal over `w` matches the local observation while the conditional
//! structure of the prior (the qubit-qubit correlations captured by the
//! global run) is preserved. This is Bayesian updating with the local
//! distributions as evidence. VarSaw repeats it across evaluations by
//! sweeping last evaluation's Output-PMF as the next prior (Fig.11), never
//! inside one sweep.
//!
//! Where the prior runs out of support, the update is Bayes *conditioned
//! on the support*: window outcomes whose prior marginal mass is at or
//! below a fixed threshold of `1e-9` keep their mass exactly, and the
//! local evidence is renormalized over the supported outcomes. A naive
//! `local/(marginal+ε)` ratio would amplify near-zero prior mass by up to
//! `local/ε` and fully resurrect it within a sweep or two; freezing the
//! unsupported mass keeps it invariant across arbitrarily many chained
//! sweeps. An update whose evidence lands *entirely* on unsupported window
//! outcomes is skipped as a whole (reweighting would annihilate all mass).
//!
//! [`reconstruct`] is the one-shot entry point. Both VQE evaluators re-run
//! reconstruction per basis group per tuner iteration, yet the expensive
//! parts of each update — resolving where every local qubit sits inside
//! the global outcome index and projecting all `2^n` outcomes onto the
//! window — depend only on the *(global-qubits, local-qubits)* geometry,
//! which never changes across iterations. [`Reconstructor`] exploits that:
//!
//! - **Key caching.** The `2^n`-entry projection-key table and the bin
//!   order (below) of every (global, local) signature are computed once
//!   and cached; later sweeps reuse them with a cheap signature lookup.
//! - **Two passes per update, allocation-free.** Each Bayesian update is
//!   a marginal-accumulate pass (A) and a reweight pass (B) that also
//!   accumulates the post-update mass, in place on preallocated scratch.
//!   An update whose mass is not already 1 then divides by it in a
//!   vectorizable pass in outcome order. No intermediate [`Pmf`]s,
//!   marginals, or ratio vectors are constructed per call.
//! - **Bin-ordered marginals.** Pass A does not walk the outcomes in
//!   order. Each table carries the outcomes grouped by window bin and
//!   ascending inside each bin, and Pass A sums every bin through that
//!   order as its own register chain, interleaving up to four bins. A
//!   `K`-outcome window thus waits on `2^n / K` dependent adds per bin,
//!   not `2^n`, while each bin still adds the same values in the same
//!   order as a textbook scatter `marg[key(x)] += p[x]`. Pass B's mass is
//!   one chain over all outcomes in order; it sets the floor of an update.
//! - **Sparse priors.** A Global sampled with 1,024 shots has at most
//!   1,024 nonzero outcomes, and a sweep chained from it keeps them. When
//!   at most half of an output's outcomes are nonzero, the sweep lists
//!   them once, ascending, with their values in compact scratch (a
//!   64-outcome nonzero mask per word in reused scratch, walked with
//!   `trailing_zeros`), runs every update over that list and scatters
//!   the values back at the end. Pass A sums each bin over the list in
//!   ascending order, in one masked register accumulator per bin for 2-
//!   and 4-outcome windows; Pass B's mass is one chain over the list; the
//!   normalize divides the listed values only. Denser outputs
//!   (exact-mode and MBM-corrected PMFs) and outputs under 64 outcomes
//!   keep the bin-ordered kernel. The cut is an internal constant of the
//!   observed density, not an option.
//!
//! # Bit-identical results
//!
//! Every sum of an update — each marginal bin and the post-update mass —
//! runs in ascending outcome order from `0.0`, so at every size the
//! kernel is bit-identical to a textbook sequential implementation with a
//! separate normalize pass per update, and fresh and key-cached sweeps
//! give the same bits. The property and edge tests in
//! `tests/recon_equiv.rs` assert both.
//!
//! The sparse sweep gives the same bits because zero stays zero. An
//! outcome that is `±0.0` in the prior stays so under the textbook update
//! too: `0 · ratio` for a finite, non-negative ratio and `0 / total` for a
//! positive mass. Every sum starts from `+0.0`, so no partial sum is ever
//! `-0.0`, and adding `±0.0` to any other value leaves it unchanged:
//! skipping those outcomes changes no rounding. An update whose ratios or
//! owed mass break that premise hands the sweep back to the dense kernel
//! from that update on: subnormal evidence whose support scale overflows
//! to ∞ gets there, and so does a plane edited to hold negative values.

use crate::pmf::Pmf;
use std::borrow::Borrow;

/// The support threshold guarding the local/marginal ratio: window
/// outcomes whose prior marginal mass is at or below it keep their mass
/// exactly (see the module docs).
const EPSILON: f64 = 1e-9;

/// JigSaw's full reconstruction: starts from the Global-PMF and applies the
/// Bayesian update for every Local-PMF once, returning the Output-PMF.
///
/// One-shot: it builds the key tables of a temporary [`Reconstructor`].
/// Callers reconstructing repeatedly with the same window geometry (every
/// VQE evaluator) should hold a [`Reconstructor`] and
/// [`sweep`](Reconstructor::sweep) instead, reusing its cached tables and
/// scratch.
///
/// # Panics
///
/// Panics if a local PMF measures a qubit the global does not.
///
/// # Examples
///
/// When the locals agree with the global's own marginals, the
/// reconstruction is a no-op:
///
/// ```
/// use mitigation::{reconstruct, Pmf};
///
/// let global = Pmf::new(vec![0, 1, 2], vec![0.4, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05, 0.2]);
/// let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
/// let out = reconstruct(&global, &locals);
/// assert!(out.tvd(&global) < 1e-6);
/// ```
pub fn reconstruct(global: &Pmf, locals: &[Pmf]) -> Pmf {
    let mut out = global.clone();
    Reconstructor::new().sweep(&mut out, locals);
    out
}

/// A cached projection-key table for one (global, local) signature.
///
/// `keys[x]` is the window outcome (bin) that global outcome `x` projects
/// to. `order` lists the outcomes grouped by bin, ascending inside each
/// bin: bin `j` is `order[j·2ⁿ/k..(j + 1)·2ⁿ/k]`, for `k` window outcomes.
#[derive(Clone, Debug)]
struct KeyTable {
    global: Vec<usize>,
    local: Vec<usize>,
    keys: Vec<u32>,
    order: Vec<u32>,
}

/// Grows a scratch buffer to at least `len` slots.
fn ensure(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The bin order of the (global, local) signature whose window bits sit
/// at `positions` of a `dim`-outcome global (see [`KeyTable`]).
///
/// Bin `j`'s outcomes are `j`'s window bits and every subset of the free
/// (non-window) bits; `y = (y − free) & free` walks those subsets in
/// ascending order.
fn bin_order(positions: &[usize], dim: usize) -> Vec<u32> {
    let window = positions.iter().fold(0, |m, &pos| m | 1 << pos);
    let free = (dim - 1) & !window;
    let mut order = Vec::with_capacity(dim);
    for j in 0..1usize << positions.len() {
        let head = positions
            .iter()
            .enumerate()
            .fold(0, |x, (b, &pos)| x | ((j >> b) & 1) << pos);
        let mut y = 0usize;
        loop {
            order.push((head | y) as u32);
            if y == free {
                break;
            }
            y = y.wrapping_sub(free) & free;
        }
    }
    order
}

/// Pass A: sums each window bin into `marg`, reading the bin's outcomes
/// of `plane` through `order` (see [`KeyTable`]). Each bin is one chain of
/// adds in ascending outcome order, starting from `0.0`; up to four
/// chains run interleaved.
fn bin_sums(plane: &[f64], order: &[u32], marg: &mut [f64]) {
    let len = order.len() / marg.len();
    match marg.len() {
        1 => interleaved::<1>(plane, order, len, marg),
        2 => interleaved::<2>(plane, order, len, marg),
        _ => interleaved::<4>(plane, order, len, marg),
    }
}

/// [`bin_sums`] over bins of `len` outcomes each, `L` bins at a time with
/// one register accumulator per bin. `marg.len()` is a multiple of `L`
/// (window sizes are powers of two).
fn interleaved<const L: usize>(plane: &[f64], order: &[u32], len: usize, marg: &mut [f64]) {
    for (lanes, out) in order.chunks_exact(L * len).zip(marg.chunks_exact_mut(L)) {
        let lane: [&[u32]; L] = std::array::from_fn(|j| &lanes[j * len..(j + 1) * len]);
        let mut acc = [0.0; L];
        for i in 0..len {
            for (a, l) in acc.iter_mut().zip(&lane) {
                *a += plane[l[i] as usize];
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// Fills `ratio` with the guarded Bayes ratios of a window whose prior
/// marginal is `marg` and whose evidence is `lp`. Returns `false` when
/// the update is skipped.
///
/// The update is Bayes conditioned on the prior's support: window
/// outcomes whose prior marginal is at or below [`EPSILON`] keep their
/// mass *exactly* (ratio 1 with the evidence renormalized around them), so
/// near-zero prior mass is neither amplified by up to local/[`EPSILON`]
/// nor eroded by normalization drift, however many sweeps chain. If the prior
/// supports no outcome carrying local evidence the update is skipped —
/// reweighting would annihilate all mass.
fn guarded_ratios(marg: &[f64], lp: &[f64], ratio: &mut [f64]) -> bool {
    let mut unsupported = 0.0;
    let mut supported_evidence = 0.0;
    for (&m, &l) in marg.iter().zip(lp) {
        if m > EPSILON {
            supported_evidence += l;
        } else {
            unsupported += m;
        }
    }
    if supported_evidence <= 0.0 {
        return false;
    }
    let scale = (1.0 - unsupported) / supported_evidence;
    for ((r, &m), &l) in ratio.iter_mut().zip(marg).zip(lp) {
        *r = if m > EPSILON { l * scale / m } else { 1.0 };
    }
    true
}

/// Pass A over a listed support: sums each window bin of the listed
/// outcomes into `marg`, where outcome `support[i]` (value `values[i]`)
/// falls in bin `keys[support[i]]`. Each bin is one chain of adds in
/// ascending outcome order, starting from `0.0`.
///
/// Windows of two and four outcomes keep one register accumulator per
/// bin and add every listed value to each, masked to `+0.0` outside its
/// bin; wider windows scatter into `marg`.
fn support_sums(support: &[u32], values: &[f64], keys: &[u32], marg: &mut [f64]) {
    match marg.len() {
        2 => masked_lanes::<2>(support, values, keys, marg),
        4 => masked_lanes::<4>(support, values, keys, marg),
        _ => {
            marg.fill(0.0);
            for (&x, &v) in support.iter().zip(values) {
                marg[keys[x as usize] as usize] += v;
            }
        }
    }
}

/// [`support_sums`] with `K` register accumulators. A chain that starts
/// from `+0.0` is never `-0.0`, so the masked `+0.0` adds leave every
/// partial sum of a bin as its own values alone make it.
fn masked_lanes<const K: usize>(support: &[u32], values: &[f64], keys: &[u32], marg: &mut [f64]) {
    let mut acc = [0.0; K];
    for (&x, &v) in support.iter().zip(values) {
        let key = keys[x as usize] as usize;
        for (j, a) in acc.iter_mut().enumerate() {
            *a += if key == j { v } else { 0.0 };
        }
    }
    marg.copy_from_slice(&acc);
}

/// Whether a post-update mass of `total` owes a normalize: like
/// [`Pmf::new`], the update leaves a mass within `1e-15` of 1 untouched.
fn owes_normalize(total: f64) -> bool {
    (total - 1.0).abs() > 1e-15
}

/// Lists the nonzero outcomes of `plane` in ascending order into
/// `support` and their values into `values`, when at most half of the
/// outcomes are nonzero; returns whether it did. `plane` holds a whole
/// number of 64-outcome words; `masks` is scratch for one nonzero mask
/// per word.
///
/// The scan builds each word's mask eight outcomes at a time (a shape the
/// compiler turns into vector compares) and stops as soon as the count is
/// past the cut, so a dense plane writes nothing but masks. The listing
/// walks each mask with `trailing_zeros`: a sparse plane costs a compare
/// per outcome plus a step per listed one.
fn gather_support(
    plane: &[f64],
    masks: &mut Vec<u64>,
    support: &mut Vec<u32>,
    values: &mut Vec<f64>,
) -> bool {
    masks.clear();
    let mut listed = 0;
    for word in plane.chunks_exact(64) {
        let mut mask = 0u64;
        for (i, eight) in word.chunks_exact(8).enumerate() {
            let eight: &[f64; 8] = eight.try_into().expect("chunks of eight");
            let byte = (0..8).fold(0, |m, j| m | u64::from(eight[j] != 0.0) << j);
            mask |= byte << (8 * i);
        }
        listed += mask.count_ones() as usize;
        if 2 * listed > plane.len() {
            return false;
        }
        masks.push(mask);
    }
    support.resize(listed, 0);
    values.resize(listed, 0.0);
    let mut slots = support.iter_mut().zip(values.iter_mut());
    for (word, &mask) in masks.iter().enumerate() {
        let mut mask = mask;
        while mask != 0 {
            let x = word * 64 + mask.trailing_zeros() as usize;
            let (s, v) = slots.next().expect("one slot per listed outcome");
            *s = x as u32;
            *v = plane[x];
            mask &= mask - 1;
        }
    }
    true
}

/// A reusable Bayesian-reconstruction engine: the `2^n`-entry
/// projection-key table and bin order of every (global-qubits,
/// local-qubits) signature are computed once and cached, and sweeps run
/// as two allocation-free passes per update (plus a normalize when the
/// mass is not 1) over preallocated scratch, with no intermediate
/// [`Pmf`]s.
///
/// One `Reconstructor` should persist wherever reconstruction repeats
/// with the same measurement geometry — `varsaw`'s evaluators keep one
/// across all VQE iterations, so every sweep after the first runs with
/// zero key-table construction and zero scratch allocation. The one-shot
/// [`reconstruct`] sweeps a clone of its global with a temporary instance.
///
/// Sweeps are **bit-identical** to a textbook sequential reconstruction,
/// fresh or key-cached: every sum runs in ascending outcome order. An
/// output with at most half of its outcomes nonzero — a shot-sampled
/// Global and everything chained from it — is swept over its nonzero
/// outcomes only, with the same bits (see the module docs). See the
/// "reconstruction hot path" section of `ARCHITECTURE.md` and the
/// property tests in `tests/recon_equiv.rs`.
///
/// # Examples
///
/// ```
/// use mitigation::{Pmf, Reconstructor};
///
/// let mut output = Pmf::new(vec![0, 1], vec![0.35, 0.15, 0.15, 0.35]);
/// let local = Pmf::new(vec![0], vec![0.95, 0.05]);
/// let mut engine = Reconstructor::new();
/// engine.sweep(&mut output, &[local]);
/// assert!(output.marginal(&[0]).prob(0) > 0.9);
/// // The projection-key table is now cached for later iterations.
/// assert_eq!(engine.cached_key_tables(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Reconstructor {
    tables: Vec<KeyTable>,
    /// Table index per local of the sweep in progress (reused scratch).
    picked: Vec<usize>,
    // Sweep scratch: the window marginal and the per-window-outcome
    // ratios.
    marg: Vec<f64>,
    ratio: Vec<f64>,
    // Sparse-sweep scratch: the nonzero mask of each 64-outcome word, the
    // prior's nonzero outcomes, ascending, and their values while the
    // sweep runs over them.
    masks: Vec<u64>,
    support: Vec<u32>,
    values: Vec<f64>,
}

impl Clone for Reconstructor {
    /// Clones the cached key tables; sweep scratch is transient and
    /// starts empty in the clone.
    fn clone(&self) -> Self {
        Reconstructor {
            tables: self.tables.clone(),
            ..Reconstructor::default()
        }
    }
}

impl Reconstructor {
    /// A fresh engine with no cached tables.
    pub fn new() -> Self {
        Reconstructor::default()
    }

    /// How many (global, local) projection-key tables are cached.
    pub fn cached_key_tables(&self) -> usize {
        self.tables.len()
    }

    /// Applies the Bayesian update of each of `locals` once, in order,
    /// mutating `output` in place into the Output-PMF. No locals leave it
    /// untouched.
    ///
    /// The locals may be owned or borrowed (`&[Pmf]` or `&[&Pmf]`), so a
    /// caller whose Local-PMFs are shared between several outputs — VarSaw
    /// computes each distinct coverage marginal once per evaluation and
    /// hands it to every basis it covers — passes references instead of
    /// copies. Both forms give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if a local measures a qubit `output` does not, or `output`
    /// measures 32 qubits or more.
    pub fn sweep<L: Borrow<Pmf>>(&mut self, output: &mut Pmf, locals: &[L]) {
        if locals.is_empty() {
            return;
        }
        let _span = telemetry::span(telemetry::Stage::Reconstruction);

        self.picked.clear();
        for local in locals {
            let idx = self.table_index(output, local.borrow());
            self.picked.push(idx);
        }

        let k_max = locals
            .iter()
            .map(|local| local.borrow().probs().len())
            .max()
            .unwrap_or(0);
        ensure(&mut self.marg, k_max);
        ensure(&mut self.ratio, k_max);

        let plane = output.probs_mut();
        // An output of at least one mask word with at most half of its
        // outcomes nonzero runs over those outcomes only (see "Sparse
        // priors" above); the dense kernel takes every other output, and
        // whatever the sparse sweep hands back.
        let mut next = 0;
        if plane.len() >= 64
            && gather_support(plane, &mut self.masks, &mut self.support, &mut self.values)
        {
            next = self.sparse_updates(plane, locals);
        }
        for (i, local) in locals.iter().enumerate().skip(next) {
            self.dense_update(plane, local.borrow().probs(), self.picked[i]);
        }
    }

    /// One Bayesian update of the whole `plane` by the evidence `lp`
    /// through key table `t`: bin-ordered Pass A, Pass B and the owed
    /// normalize, each over every outcome.
    fn dense_update(&mut self, plane: &mut [f64], lp: &[f64], t: usize) {
        let table = &self.tables[t];
        let marg = &mut self.marg[..lp.len()];
        let ratio = &mut self.ratio[..lp.len()];

        // Pass A: the window marginal, summed bin by bin in bin order.
        bin_sums(plane, &table.order, marg);
        if !guarded_ratios(marg, lp, ratio) {
            return;
        }

        // Pass B: reweight, accumulating the mass as one chain.
        let mut total = 0.0;
        for (p, &key) in plane.iter_mut().zip(&table.keys) {
            *p *= ratio[key as usize];
            total += *p;
        }

        // The normalize, in outcome order, skipping already-unit mass.
        if owes_normalize(total) {
            for p in plane.iter_mut() {
                *p /= total;
            }
        }
    }

    /// Runs the sweep's updates, one per local in order, over the compact
    /// support that [`gather_support`] listed, then scatters the values
    /// back into `plane`. Returns the index of the first local still owed
    /// to [`dense_update`](Self::dense_update): `locals.len()`, unless an
    /// update would turn an unlisted zero into something else, in which
    /// case the plane is handed to the dense kernel from there on.
    ///
    /// Pass A sums each bin over its listed outcomes in ascending order,
    /// starting from `0.0`; Pass B reweights and sums the mass as one
    /// chain in ascending order; the normalize divides the listed values.
    /// Unlisted outcomes are `±0.0`. A sum that starts from `+0.0` is
    /// never `-0.0`, and adding `±0.0` to anything else changes nothing,
    /// so dropping them changes no partial sum: the results are the dense
    /// kernel's, bit for bit.
    fn sparse_updates<L: Borrow<Pmf>>(&mut self, plane: &mut [f64], locals: &[L]) -> usize {
        let support = &self.support;
        let values = &mut self.values[..support.len()];
        let scatter = |plane: &mut [f64], values: &[f64]| {
            for (&x, &v) in support.iter().zip(values) {
                plane[x as usize] = v;
            }
        };
        for (i, (local, &t)) in locals.iter().zip(&self.picked).enumerate() {
            let lp = local.borrow().probs();
            let keys = &self.tables[t].keys[..plane.len()];
            let marg = &mut self.marg[..lp.len()];
            let ratio = &mut self.ratio[..lp.len()];

            support_sums(support, values, keys, marg);
            if !guarded_ratios(marg, lp, ratio) {
                continue;
            }
            // `±0.0 · r` keeps its bits only for a finite `r` with a
            // clear sign bit; any other ratio must reach every outcome.
            if !ratio.iter().all(|r| r.is_finite() && r.is_sign_positive()) {
                scatter(plane, values);
                return i;
            }

            // Pass B: reweight, summing the mass as one chain.
            let mut total = 0.0;
            for (&x, v) in support.iter().zip(values.iter_mut()) {
                *v *= ratio[keys[x as usize] as usize];
                total += *v;
            }
            if owes_normalize(total) {
                // `±0.0 / total` keeps its bits only for a positive total
                // (a NaN total owes no normalize).
                if total <= 0.0 {
                    scatter(plane, values);
                    for p in plane.iter_mut() {
                        *p /= total;
                    }
                    return i + 1;
                }
                for v in values.iter_mut() {
                    *v /= total;
                }
            }
        }
        scatter(plane, values);
        locals.len()
    }

    /// The cached key-table index for the (global, local) signature,
    /// building the table on first sight.
    fn table_index(&mut self, global: &Pmf, local: &Pmf) -> usize {
        // The short local list first: it rejects almost every table, and
        // most tables of a workload share one global.
        if let Some(i) = self.tables.iter().position(|t| {
            t.local.as_slice() == local.qubits() && t.global.as_slice() == global.qubits()
        }) {
            return i;
        }
        assert!(
            global.num_qubits() < 32,
            "global of {} qubits exceeds the 31-qubit outcome-index width",
            global.num_qubits()
        );
        let positions = global.projection_positions(local.qubits());
        let keys: Vec<u32> = (0..global.probs().len())
            .map(|x| {
                let mut key = 0u32;
                for (j, &pos) in positions.iter().enumerate() {
                    key |= (((x >> pos) & 1) as u32) << j;
                }
                key
            })
            .collect();
        let order = bin_order(&positions, keys.len());
        self.tables.push(KeyTable {
            global: global.qubits().to_vec(),
            local: local.qubits().to_vec(),
            keys,
            order,
        });
        self.tables.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global3() -> Pmf {
        Pmf::new(
            vec![0, 1, 2],
            vec![0.2, 0.05, 0.1, 0.15, 0.05, 0.1, 0.15, 0.2],
        )
    }

    /// `global` swept once by `locals` through `engine`.
    fn swept(engine: &mut Reconstructor, global: &Pmf, locals: &[Pmf]) -> Pmf {
        let mut out = global.clone();
        engine.sweep(&mut out, locals);
        out
    }

    /// A noisy 2-qubit Bell distribution and a clean local on qubit 0.
    #[test]
    fn update_pulls_marginal_toward_local() {
        // Global says q0 is 0 with prob 0.6; local evidence says 0.9.
        let global = Pmf::new(vec![0, 1], vec![0.3, 0.2, 0.3, 0.2]);
        let local = Pmf::new(vec![0], vec![0.9, 0.1]);
        let global = reconstruct(&global, &[local]);
        let m = global.marginal(&[0]);
        assert!((m.prob(0) - 0.9).abs() < 1e-6, "{}", m.prob(0));
        // Conditional structure preserved: P(q1 | q0=0) unchanged (was 0.5/0.5).
        assert!((global.prob(0b00) - 0.45).abs() < 1e-6);
        assert!((global.prob(0b10) - 0.45).abs() < 1e-6);
    }

    #[test]
    fn fixpoint_when_local_matches_marginal() {
        let global = global3();
        let local = global.marginal(&[1, 2]);
        let out = reconstruct(&global, &[local]);
        assert!(out.tvd(&global) < 1e-7);
    }

    #[test]
    fn reconstruction_recovers_readout_corrupted_ghz() {
        // Ideal GHZ over 3 qubits; global corrupted by heavy symmetric
        // readout noise; locals are clean pairwise marginals. The output
        // should be much closer to the ideal than the global was.
        let ideal = Pmf::new(vec![0, 1, 2], {
            let mut v = vec![0.0; 8];
            v[0] = 0.5;
            v[7] = 0.5;
            v
        });
        let mut noisy_probs: Vec<f64> = ideal.probs().to_vec();
        qnoise::apply_readout_errors(
            &mut noisy_probs,
            &[qnoise::ReadoutError::symmetric(0.15); 3],
        );
        let global = Pmf::new(vec![0, 1, 2], noisy_probs);
        let locals = vec![ideal.marginal(&[0, 1]), ideal.marginal(&[1, 2])];
        let out = reconstruct(&global, &locals);
        assert!(
            out.tvd(&ideal) < global.tvd(&ideal) * 0.5,
            "reconstruction tvd {} vs noisy {}",
            out.tvd(&ideal),
            global.tvd(&ideal)
        );
        assert!(out.fidelity(&ideal) > global.fidelity(&ideal));
    }

    #[test]
    fn empty_locals_leave_prior_unchanged() {
        let global = Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.1, 0.4]);
        let out = reconstruct(&global, &[]);
        assert_eq!(out, global);
        let mut engine = Reconstructor::new();
        let mut swept = global.clone();
        engine.sweep::<Pmf>(&mut swept, &[]);
        assert_eq!(swept, global);
        assert_eq!(engine.cached_key_tables(), 0);
    }

    #[test]
    fn zero_prior_mass_is_not_resurrected() {
        // The global assigns zero to outcome 0b11 region; a local insisting
        // on q0=1 cannot move mass there beyond threshold effects.
        let global = Pmf::new(vec![0, 1], vec![0.5, 0.0, 0.5, 0.0]);
        let local = Pmf::new(vec![0], vec![0.2, 0.8]);
        let global = reconstruct(&global, &[local]);
        assert!(global.prob(0b01) < 1e-6);
        assert!(global.prob(0b11) < 1e-6);
    }

    #[test]
    fn near_zero_prior_mass_is_not_resurrected_across_chained_sweeps() {
        // Regression for the epsilon-ratio blowup: with the old
        // `(local+ε)/(marg+ε)` update, a prior marginal of ~2e-12 was
        // amplified by ~local/ε ≈ 8e8 in one update and fully resurrected
        // to the local's 0.8 by the next. The support guard keeps it
        // within normalization drift of zero across 8 chained sweeps, as
        // VarSaw chains an Output-PMF into the next evaluation's prior.
        let mut out = Pmf::new(vec![0, 1], vec![0.5, 1e-12, 0.5, 1e-12]);
        let locals = [Pmf::new(vec![0], vec![0.2, 0.8])];
        let mut engine = Reconstructor::new();
        for _ in 0..8 {
            engine.sweep(&mut out, &locals);
        }
        let resurrected = out.marginal(&[0]).prob(1);
        assert!(resurrected < 1e-6, "resurrected mass {resurrected}");
    }

    #[test]
    fn chained_sweeps_tighten_consistency() {
        let global = Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.1, 0.4]);
        let locals = vec![
            Pmf::new(vec![0], vec![0.8, 0.2]),
            Pmf::new(vec![1], vec![0.3, 0.7]),
        ];
        // One sweep gets the *last applied* marginal right.
        let once = reconstruct(&global, &locals);
        let m1_once = once.marginal(&[1]);
        assert!((m1_once.prob(1) - 0.7).abs() < 1e-6);
        // After 8 chained sweeps both marginals are (nearly) satisfied.
        let mut engine = Reconstructor::new();
        let mut many = global.clone();
        for _ in 0..8 {
            engine.sweep(&mut many, &locals);
        }
        let m0 = many.marginal(&[0]);
        let m1 = many.marginal(&[1]);
        assert!((m0.prob(0) - 0.8).abs() < 0.02);
        assert!((m1.prob(1) - 0.7).abs() < 0.02);
    }

    #[test]
    fn key_tables_cached_by_signature() {
        let global = global3();
        let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
        let mut r = Reconstructor::new();
        swept(&mut r, &global, &locals);
        assert_eq!(r.cached_key_tables(), 2);
        // Same geometry: no new tables.
        swept(&mut r, &global, &locals);
        assert_eq!(r.cached_key_tables(), 2);
        // A new window geometry adds exactly one.
        swept(&mut r, &global, &[global.marginal(&[0, 2])]);
        assert_eq!(r.cached_key_tables(), 3);
    }

    #[test]
    fn cached_and_fresh_runs_are_bit_identical() {
        let global = global3();
        let locals = vec![
            Pmf::new(vec![0, 1], vec![0.4, 0.3, 0.2, 0.1]),
            Pmf::new(vec![1, 2], vec![0.1, 0.2, 0.3, 0.4]),
        ];
        let mut engine = Reconstructor::new();
        let first = swept(&mut engine, &global, &locals);
        let prekeyed = swept(&mut engine, &global, &locals);
        let fresh = reconstruct(&global, &locals);
        assert_eq!(first.probs(), prekeyed.probs());
        assert_eq!(first.probs(), fresh.probs());
    }

    #[test]
    fn incompatible_evidence_is_skipped() {
        // The prior supports only q0=0; the local insists on q0=1. No
        // supported window outcome carries evidence, so the update is a
        // documented no-op instead of annihilating all mass.
        let global = Pmf::new(vec![0, 1], vec![0.6, 0.0, 0.4, 0.0]);
        let local = Pmf::new(vec![0], vec![0.0, 1.0]);
        let out = reconstruct(&global, &[local]);
        assert_eq!(out.probs(), global.probs());
    }

    /// Every bin-order table lists each outcome exactly once, grouped by
    /// window bin and ascending inside each bin, for globals of 3–14
    /// qubits, high, descending and wide windows.
    #[test]
    fn bin_order_groups_each_chunk_by_key() {
        let shapes: [(usize, &[usize]); 8] = [
            (3, &[0, 1]),
            (6, &[3, 1]),
            (10, &[8]),
            (10, &[4, 2, 0]),
            (13, &[12]),
            (13, &[0, 12]),
            (14, &[12, 13]),
            (14, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
        ];
        for (n, window) in shapes {
            let dim = 1usize << n;
            let global = Pmf::new((0..n).collect(), vec![1.0; dim]);
            let mut r = Reconstructor::new();
            swept(&mut r, &global, &[global.marginal(window)]);
            let t = &r.tables[0];
            let len = dim >> window.len();
            assert_eq!(t.order.len(), dim, "{n} {window:?}");
            let mut seen = vec![false; dim];
            for (j, bin) in t.order.chunks_exact(len).enumerate() {
                assert!(
                    bin.windows(2).all(|w| w[0] < w[1]),
                    "{n} {window:?} bin {j}"
                );
                for &x in bin {
                    let x = x as usize;
                    assert_eq!(t.keys[x] as usize, j, "{n} {window:?}: {x} in bin {j}");
                    assert!(!std::mem::replace(&mut seen[x], true));
                }
            }
            assert!(seen.iter().all(|&s| s), "{n} {window:?}: incomplete");
        }
    }

    /// The support scan lists exactly the nonzero outcomes (NaN included,
    /// `-0.0` not), ascending, up to half of the plane, and refuses one
    /// past the cut.
    #[test]
    fn gather_support_lists_nonzero_outcomes_up_to_half() {
        let (mut masks, mut support, mut values) = (Vec::new(), Vec::new(), Vec::new());
        let mut plane = vec![0.0; 256];
        for (x, p) in [
            (3, 0.5),
            (64, f64::NAN),
            (65, -0.0),
            (200, 1e-300),
            (255, 2.0),
        ] {
            plane[x] = p;
        }
        assert!(gather_support(
            &plane,
            &mut masks,
            &mut support,
            &mut values
        ));
        assert_eq!(support, [3, 64, 200, 255]);
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [0.5, f64::NAN, 1e-300, 2.0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);

        let mut half: Vec<f64> = (0..256).map(|x| (x % 2) as f64).collect();
        assert!(gather_support(&half, &mut masks, &mut support, &mut values));
        assert_eq!(support.len(), 128);
        half[0] = 1.0;
        assert!(!gather_support(
            &half,
            &mut masks,
            &mut support,
            &mut values
        ));
    }

    #[test]
    fn borrowed_and_owned_locals_sweep_the_same_bits() {
        let global = global3();
        let locals = vec![
            Pmf::new(vec![2], vec![0.7, 0.3]),
            Pmf::new(vec![0, 1], vec![0.4, 0.3, 0.2, 0.1]),
            Pmf::new(vec![2, 1], vec![0.1, 0.2, 0.3, 0.4]),
        ];
        let borrowed: Vec<&Pmf> = locals.iter().collect();
        let mut r = Reconstructor::new();
        let (mut owned, mut shared) = (global.clone(), global.clone());
        r.sweep(&mut owned, &locals);
        r.sweep(&mut shared, &borrowed);
        assert_eq!(owned.probs(), shared.probs());
        assert_ne!(owned.probs(), global.probs());
    }

    #[test]
    fn clone_keeps_tables_but_not_scratch() {
        let global = global3();
        let mut r = Reconstructor::new();
        swept(&mut r, &global, &[global.marginal(&[0, 1])]);
        assert!(!r.marg.is_empty());
        let c = r.clone();
        assert_eq!(c.cached_key_tables(), 1);
        assert!(c.marg.is_empty() && c.ratio.is_empty());
        assert!(c.masks.is_empty() && c.support.is_empty() && c.values.is_empty());
    }
}
