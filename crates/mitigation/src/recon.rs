//! The Bayesian-reconstruction engine: allocation-free and key-cached.
//!
//! [`reconstruct`](crate::reconstruct) is the second-hottest kernel in the
//! workspace (`reconstruction/bayesian_8q_7windows`): both VQE evaluators
//! re-run it per basis group per tuner iteration, yet the expensive parts
//! of each update — resolving where every local qubit sits inside the
//! global outcome index and projecting all `2^n` outcomes onto the window
//! — depend only on the *(global-qubits, local-qubits)* geometry, which
//! never changes across iterations. [`Reconstructor`] exploits that:
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
//!   order. Each table carries, per chunk, the outcomes grouped by window
//!   bin and ascending inside each bin, and Pass A sums every bin through
//!   that order as its own register chain, interleaving up to four bins.
//!   A `K`-outcome window thus waits on `2^n / K` dependent adds per bin,
//!   not `2^n`, while each bin still adds the same values in the same
//!   order as a textbook scatter `marg[key(x)] += p[x]`. Pass B's mass is
//!   one chain over all outcomes in order; it sets the floor of an update.
//! - **Chunk-ordered reduction.** The outcome range is split into
//!   fixed-size chunks; each chunk accumulates its own partial marginal
//!   histogram and partial mass, and the partials are summed in chunk
//!   order.
//!
//! # Bit-identical results
//!
//! Fresh and key-cached sweeps produce bit-identical output PMFs. The
//! chunk grid is a pure function of the problem shape (outcome count and
//! window size), so the floating-point reduction order is fixed. For
//! globals that fit in a single chunk (up to 12 qubits, every paper
//! workload) the kernel is bit-identical to a textbook sequential
//! implementation with a separate normalize pass per update; beyond that
//! the chunk-ordered reduction re-associates sums and agreement is within
//! floating-point tolerance instead, with the exact bits pinned by
//! digest. The property and edge tests in `tests/recon_equiv.rs` assert
//! both.

use crate::bayes::ReconstructionConfig;
use crate::pmf::Pmf;
use std::borrow::Borrow;

/// Outcomes per partition chunk. Fixed, so the chunk grid — and with it
/// the floating-point reduction order — depends only on the problem
/// shape. Globals at or below this size run single-chunk, where the
/// kernel matches a textbook sequential update bit for bit.
const CHUNK_OUTCOMES: usize = 1 << 12;

/// A cached projection-key table for one (global, local) signature.
///
/// `keys[x]` is the window outcome (bin) that global outcome `x` projects
/// to. `order` lists the outcomes of each chunk grouped by bin, ascending
/// inside each bin: bin `j` of chunk `c` is
/// `order[starts[c·k + j]..starts[c·k + j + 1]]`, for `k` window outcomes.
#[derive(Clone, Debug)]
struct KeyTable {
    global: Vec<usize>,
    local: Vec<usize>,
    keys: Vec<u32>,
    order: Vec<u32>,
    starts: Vec<u32>,
}

/// The number of chunks the outcome range splits into for a window of
/// `k` outcomes: `dim / CHUNK_OUTCOMES`, capped so the per-chunk partial
/// histograms never outweigh the outcome array itself (relevant only for
/// windows spanning most of the register). All quantities are powers of
/// two, so chunks always divide `dim` exactly.
fn chunk_count(dim: usize, k: usize) -> usize {
    (dim / CHUNK_OUTCOMES).max(1).min((dim / k).max(1))
}

/// Grows a scratch buffer to at least `len` slots.
fn ensure(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The bin order of the (global, local) signature whose window bits sit
/// at `positions` of a `dim`-outcome global. Returns the order and the
/// `n_chunks·k + 1` bin starts (see [`KeyTable`]).
///
/// Within a chunk, bin `j`'s outcomes are the chunk's high bits, `j`'s
/// window bits and every subset of the chunk's free (non-window) low
/// bits; `y = (y − free) & free` walks those subsets in ascending order.
/// A bin whose window bits above the chunk boundary disagree with the
/// chunk's is empty there.
fn bin_order(positions: &[usize], dim: usize) -> (Vec<u32>, Vec<u32>) {
    let k = 1usize << positions.len();
    let n_chunks = chunk_count(dim, k);
    let low = dim / n_chunks - 1;
    let window = positions.iter().fold(0, |m, &pos| m | 1 << pos);
    let free = low & !window;
    let mut order = Vec::with_capacity(dim);
    let mut starts = Vec::with_capacity(n_chunks * k + 1);
    for prefix in (0..dim).step_by(low + 1) {
        for j in 0..k {
            starts.push(order.len() as u32);
            let bits = positions
                .iter()
                .enumerate()
                .fold(0, |x, (b, &pos)| x | ((j >> b) & 1) << pos);
            if (bits ^ prefix) & window & !low != 0 {
                continue;
            }
            let head = prefix | (bits & low);
            let mut y = 0usize;
            loop {
                order.push((head | y) as u32);
                if y == free {
                    break;
                }
                y = y.wrapping_sub(free) & free;
            }
        }
    }
    starts.push(dim as u32);
    (order, starts)
}

/// Pass A over one chunk: sums each window bin of the chunk into `part`,
/// reading the bin's outcomes of `plane` through `order`, where bin `j`
/// is `order[starts[j]..starts[j + 1]]`. Each bin is one chain of adds in
/// ascending outcome order, starting from `0.0`. Bins of equal length run
/// interleaved, up to four chains at once; a chunk whose bins differ in
/// length (a window bit above the chunk boundary leaves some bins empty)
/// sums them one after another.
fn bin_sums(plane: &[f64], order: &[u32], starts: &[u32], part: &mut [f64]) {
    let len = (starts[1] - starts[0]) as usize;
    if starts.windows(2).any(|w| (w[1] - w[0]) as usize != len) {
        for (s, w) in part.iter_mut().zip(starts.windows(2)) {
            let mut acc = 0.0;
            for &x in &order[w[0] as usize..w[1] as usize] {
                acc += plane[x as usize];
            }
            *s = acc;
        }
        return;
    }
    let first = starts[0] as usize;
    let bins = &order[first..first + part.len() * len];
    match part.len() {
        1 => interleaved::<1>(plane, bins, len, part),
        2 => interleaved::<2>(plane, bins, len, part),
        _ => interleaved::<4>(plane, bins, len, part),
    }
}

/// [`bin_sums`] over equal bins of `len` outcomes each, `L` bins at a time
/// with one register accumulator per bin. `part.len()` is a multiple of
/// `L` (window sizes are powers of two).
fn interleaved<const L: usize>(plane: &[f64], bins: &[u32], len: usize, part: &mut [f64]) {
    for (lanes, out) in bins.chunks_exact(L * len).zip(part.chunks_exact_mut(L)) {
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
/// [`crate::reconstruct`] / [`crate::bayesian_update`] functions are thin
/// wrappers over a temporary instance.
///
/// Fresh and key-cached sweeps are **bit-identical**: the chunk grid is a
/// pure function of the problem shape (outcome count and window size), so
/// the floating-point reduction order is fixed. See the "reconstruction
/// hot path" section of `ARCHITECTURE.md` and the property tests in
/// `tests/recon_equiv.rs`.
///
/// # Examples
///
/// ```
/// use mitigation::{Pmf, Reconstructor, ReconstructionConfig};
///
/// let global = Pmf::new(vec![0, 1], vec![0.35, 0.15, 0.15, 0.35]);
/// let local = Pmf::new(vec![0], vec![0.95, 0.05]);
/// let mut engine = Reconstructor::new();
/// let out = engine.reconstruct(&global, &[local], ReconstructionConfig::default());
/// assert!(out.marginal(&[0]).prob(0) > 0.9);
/// // The projection-key table is now cached for later iterations.
/// assert_eq!(engine.cached_key_tables(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Reconstructor {
    tables: Vec<KeyTable>,
    /// Table index per local of the sweep in progress (reused scratch).
    picked: Vec<usize>,
    // Sweep scratch: per-chunk partial histograms and masses, the
    // reduced marginal and the per-outcome ratios.
    partials: Vec<f64>,
    marg: Vec<f64>,
    ratio: Vec<f64>,
    totals: Vec<f64>,
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

    /// Drops all cached key tables (e.g. after a workload change to a
    /// disjoint set of measurement geometries).
    pub fn clear_key_cache(&mut self) {
        self.tables.clear();
    }

    /// JigSaw's full reconstruction: starts from the Global-PMF and
    /// applies the Bayesian update for every Local-PMF, returning the
    /// Output-PMF. Equivalent to [`crate::reconstruct`] but reusing this
    /// engine's cached key tables and scratch.
    ///
    /// # Panics
    ///
    /// Panics if a local PMF measures a qubit the global does not.
    pub fn reconstruct(
        &mut self,
        global: &Pmf,
        locals: &[Pmf],
        config: ReconstructionConfig,
    ) -> Pmf {
        let mut out = global.clone();
        self.sweep(&mut out, locals, config);
        out
    }

    /// Applies one Bayesian update of `global` by the evidence `local`,
    /// in place. Equivalent to [`crate::bayesian_update`] but reusing
    /// this engine's cached key tables and scratch.
    ///
    /// # Panics
    ///
    /// Panics if some qubit of `local` is not measured by `global`.
    pub fn update(&mut self, global: &mut Pmf, local: &Pmf, epsilon: f64) {
        self.sweep(
            global,
            std::slice::from_ref(local),
            ReconstructionConfig { epsilon, rounds: 1 },
        );
    }

    /// Runs `config.rounds` sweeps of Bayesian updates over `locals`,
    /// mutating `output` in place. `rounds: 0` leaves it untouched.
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
    pub fn sweep<L: Borrow<Pmf>>(
        &mut self,
        output: &mut Pmf,
        locals: &[L],
        config: ReconstructionConfig,
    ) {
        if config.rounds == 0 || locals.is_empty() {
            return;
        }
        let _span = telemetry::span(telemetry::Stage::Reconstruction);
        let dim = output.probs().len();

        self.picked.clear();
        for local in locals {
            let idx = self.table_index(output, local.borrow());
            self.picked.push(idx);
        }

        let (mut k_max, mut chunks_max, mut partial_max) = (0, 0, 0);
        for local in locals {
            let k = local.borrow().probs().len();
            let n_chunks = chunk_count(dim, k);
            k_max = k_max.max(k);
            chunks_max = chunks_max.max(n_chunks);
            partial_max = partial_max.max(n_chunks * k);
        }
        ensure(&mut self.marg, k_max);
        ensure(&mut self.ratio, k_max);
        ensure(&mut self.partials, partial_max);
        ensure(&mut self.totals, chunks_max);

        let plane = output.probs_mut();
        let epsilon = config.epsilon;
        for _ in 0..config.rounds {
            for (local, &t) in locals.iter().zip(&self.picked) {
                let table = &self.tables[t];
                let keys = &table.keys[..dim];
                let lp = local.borrow().probs();
                let k = lp.len();
                let n_chunks = chunk_count(dim, k);
                let chunk_len = dim / n_chunks;
                let partials = &mut self.partials[..n_chunks * k];
                let marg = &mut self.marg[..k];
                let ratio = &mut self.ratio[..k];
                let totals = &mut self.totals[..n_chunks];

                // Pass A: per-chunk partial marginal histograms, summed
                // bin by bin in bin order, reduced in chunk order.
                for (c, part) in partials.chunks_exact_mut(k).enumerate() {
                    let starts = &table.starts[c * k..=(c + 1) * k];
                    bin_sums(plane, &table.order, starts, part);
                }
                for (j, m) in marg.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for c in 0..n_chunks {
                        s += partials[c * k + j];
                    }
                    *m = s;
                }

                // Guarded ratios. The update is Bayes conditioned on the
                // prior's support: window outcomes whose prior marginal
                // is at or below epsilon keep their mass *exactly* (ratio
                // 1 with the evidence renormalized around them), so
                // near-zero prior mass is neither amplified by up to
                // local/epsilon nor eroded by normalization drift,
                // however many rounds run. If the prior supports no
                // outcome carrying local evidence the update is skipped —
                // reweighting would annihilate all mass.
                let mut unsupported = 0.0;
                let mut supported_evidence = 0.0;
                for (&m, &l) in marg.iter().zip(lp) {
                    if m > epsilon {
                        supported_evidence += l;
                    } else {
                        unsupported += m;
                    }
                }
                if supported_evidence <= 0.0 {
                    continue;
                }
                let scale = (1.0 - unsupported) / supported_evidence;
                for ((r, &m), &l) in ratio.iter_mut().zip(marg.iter()).zip(lp) {
                    *r = if m > epsilon { l * scale / m } else { 1.0 };
                }

                // Pass B: reweight, accumulating per-chunk masses that
                // are reduced in chunk order.
                for (c, t) in totals.iter_mut().enumerate() {
                    let range = c * chunk_len..(c + 1) * chunk_len;
                    let mut sum = 0.0;
                    for (p, &key) in plane[range.clone()].iter_mut().zip(&keys[range]) {
                        *p *= ratio[key as usize];
                        sum += *p;
                    }
                    *t = sum;
                }
                let mut total = 0.0;
                for &t in totals.iter() {
                    total += t;
                }

                // The normalize, in outcome order, mirroring
                // `Pmf::normalize`'s skip of already-unit mass.
                if (total - 1.0).abs() > 1e-15 {
                    for p in plane.iter_mut() {
                        *p /= total;
                    }
                }
            }
        }
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
        let (order, starts) = bin_order(&positions, keys.len());
        self.tables.push(KeyTable {
            global: global.qubits().to_vec(),
            local: local.qubits().to_vec(),
            keys,
            order,
            starts,
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

    #[test]
    fn key_tables_cached_by_signature() {
        let global = global3();
        let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
        let mut r = Reconstructor::new();
        r.reconstruct(&global, &locals, ReconstructionConfig::default());
        assert_eq!(r.cached_key_tables(), 2);
        // Same geometry: no new tables.
        r.reconstruct(&global, &locals, ReconstructionConfig::default());
        assert_eq!(r.cached_key_tables(), 2);
        // A new window geometry adds exactly one.
        r.reconstruct(
            &global,
            &[global.marginal(&[0, 2])],
            ReconstructionConfig::default(),
        );
        assert_eq!(r.cached_key_tables(), 3);
        r.clear_key_cache();
        assert_eq!(r.cached_key_tables(), 0);
    }

    #[test]
    fn cached_and_fresh_runs_are_bit_identical() {
        let global = global3();
        let locals = vec![
            Pmf::new(vec![0, 1], vec![0.4, 0.3, 0.2, 0.1]),
            Pmf::new(vec![1, 2], vec![0.1, 0.2, 0.3, 0.4]),
        ];
        let cfg = ReconstructionConfig::default();
        let mut engine = Reconstructor::new();
        let first = engine.reconstruct(&global, &locals, cfg);
        let prekeyed = engine.reconstruct(&global, &locals, cfg);
        let fresh = Reconstructor::new().reconstruct(&global, &locals, cfg);
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
        let out =
            Reconstructor::new().reconstruct(&global, &[local], ReconstructionConfig::default());
        assert_eq!(out.probs(), global.probs());
    }

    #[test]
    fn chunk_grid_is_worker_independent() {
        assert_eq!(chunk_count(1 << 10, 4), 1);
        assert_eq!(chunk_count(1 << 12, 4), 1);
        assert_eq!(chunk_count(1 << 13, 4), 2);
        assert_eq!(chunk_count(1 << 16, 4), 16);
        // Huge windows cap the grid so partials never outweigh the plane.
        assert_eq!(chunk_count(1 << 16, 1 << 14), 4);
        assert_eq!(chunk_count(1 << 16, 1 << 16), 1);
    }

    /// Every bin-order table lists each chunk's outcomes exactly once,
    /// grouped by window bin and ascending inside each bin, for single-
    /// and multi-chunk globals, high, descending and wide windows.
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
            r.update(&mut global.clone(), &global.marginal(window), 1e-9);
            let t = &r.tables[0];
            let k = 1usize << window.len();
            let n_chunks = chunk_count(dim, k);
            let chunk_len = dim / n_chunks;
            assert_eq!(t.order.len(), dim, "{n} {window:?}");
            assert_eq!(t.starts.len(), n_chunks * k + 1, "{n} {window:?}");
            assert_eq!(t.starts[n_chunks * k] as usize, dim);
            for c in 0..n_chunks {
                let chunk = c * chunk_len..(c + 1) * chunk_len;
                assert_eq!(t.starts[c * k] as usize, chunk.start, "{n} {window:?}");
                let mut seen = vec![false; chunk_len];
                for j in 0..k {
                    let bin =
                        &t.order[t.starts[c * k + j] as usize..t.starts[c * k + j + 1] as usize];
                    assert!(
                        bin.windows(2).all(|w| w[0] < w[1]),
                        "{n} {window:?} bin {j}"
                    );
                    for &x in bin {
                        let x = x as usize;
                        assert!(chunk.contains(&x), "{n} {window:?}: {x} outside chunk {c}");
                        assert_eq!(t.keys[x] as usize, j, "{n} {window:?}: {x} in bin {j}");
                        assert!(!std::mem::replace(&mut seen[x - chunk.start], true));
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{n} {window:?}: chunk {c} incomplete"
                );
            }
        }
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
        let cfg = ReconstructionConfig {
            epsilon: 1e-9,
            rounds: 2,
        };
        let mut r = Reconstructor::new();
        let (mut owned, mut shared) = (global.clone(), global.clone());
        r.sweep(&mut owned, &locals, cfg);
        r.sweep(&mut shared, &borrowed, cfg);
        assert_eq!(owned.probs(), shared.probs());
        assert_ne!(owned.probs(), global.probs());
    }

    #[test]
    fn clone_keeps_tables_but_not_scratch() {
        let global = global3();
        let mut r = Reconstructor::new();
        r.reconstruct(
            &global,
            &[global.marginal(&[0, 1])],
            ReconstructionConfig::default(),
        );
        assert!(!r.partials.is_empty());
        let c = r.clone();
        assert_eq!(c.cached_key_tables(), 1);
        assert!(c.partials.is_empty() && c.marg.is_empty() && c.totals.is_empty());
    }
}
