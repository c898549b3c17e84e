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
//! - **Key caching.** The `2^n`-entry projection-key table of every
//!   (global, local) signature is computed once and cached; later sweeps
//!   reuse it with a cheap signature lookup.
//! - **Two passes per update, allocation-free.** Each Bayesian update is
//!   a marginal-accumulate pass (A) and a reweight pass (B) that also
//!   accumulates the post-update mass, in place on preallocated scratch.
//!   No intermediate [`Pmf`]s, marginals, or ratio vectors are
//!   constructed per call.
//! - **Deferred normalization.** An update whose mass is not already 1
//!   owes a divide-by-mass pass. Instead of a third pass, the division
//!   runs inside the next update's Pass A, which divides each outcome and
//!   then accumulates the divided value; after the last update one final
//!   division pass settles whatever is still owed. Every outcome sees the
//!   same divisions in the same order as with a separate pass.
//! - **Register histograms.** For 2- and 4-outcome windows (every window
//!   on the paper path) Pass A accumulates the window marginal in `K`
//!   register accumulators with a select-add instead of scattering into
//!   memory, so consecutive outcomes landing in one bin do not wait on
//!   each other's stores. Adding `+0.0` to a nonnegative sum is exact, so
//!   each bin still sums the same values in outcome order. Wider windows
//!   keep the scatter loop.
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

/// Outcomes per partition chunk. Fixed, so the chunk grid — and with it
/// the floating-point reduction order — depends only on the problem
/// shape. Globals at or below this size run single-chunk, where the
/// kernel matches a textbook sequential update bit for bit.
const CHUNK_OUTCOMES: usize = 1 << 12;

/// A cached projection-key table: `keys[x]` is the window outcome that
/// global outcome `x` projects to, for one (global, local) signature.
#[derive(Clone, Debug)]
struct KeyTable {
    global: Vec<usize>,
    local: Vec<usize>,
    keys: Vec<u32>,
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

/// Pass A over one chunk: divides every outcome by the previous update's
/// deferred `divisor`, if one is owed, and writes the chunk's window
/// histogram into `part` (one bin per window outcome).
fn histogram(plane: &mut [f64], keys: &[u32], part: &mut [f64], divisor: Option<f64>) {
    match part.len() {
        2 => histogram_in_registers::<2>(plane, keys, part, divisor),
        4 => histogram_in_registers::<4>(plane, keys, part, divisor),
        _ => histogram_scatter(plane, keys, part, divisor),
    }
}

/// [`histogram`] for `K`-outcome windows, with the bins in registers:
/// every outcome select-adds into all `K` accumulators, `+0.0` into the
/// bins it does not project to. A nonnegative sum plus `+0.0` is exact,
/// so each bin sums the same values in the same order as the scatter.
fn histogram_in_registers<const K: usize>(
    plane: &mut [f64],
    keys: &[u32],
    part: &mut [f64],
    divisor: Option<f64>,
) {
    let mut acc = [0.0; K];
    let mut add = |key: u32, p: f64| {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += if key as usize == j { p } else { 0.0 };
        }
    };
    match divisor {
        Some(d) => {
            for (p, &key) in plane.iter_mut().zip(keys) {
                *p /= d;
                add(key, *p);
            }
        }
        None => {
            for (&p, &key) in plane.iter().zip(keys) {
                add(key, p);
            }
        }
    }
    part.copy_from_slice(&acc);
}

/// [`histogram`] for any window size: scatters into the bins in memory.
fn histogram_scatter(plane: &mut [f64], keys: &[u32], part: &mut [f64], divisor: Option<f64>) {
    part.fill(0.0);
    match divisor {
        Some(d) => {
            for (p, &key) in plane.iter_mut().zip(keys) {
                *p /= d;
                part[key as usize] += *p;
            }
        }
        None => {
            for (&p, &key) in plane.iter().zip(keys) {
                part[key as usize] += p;
            }
        }
    }
}

/// A reusable Bayesian-reconstruction engine: the `2^n`-entry
/// projection-key table of every (global-qubits, local-qubits) signature
/// is computed once and cached, and sweeps run as two fused
/// allocation-free passes per update over preallocated scratch (no
/// intermediate [`Pmf`]s), each update's normalization deferred into the
/// next update's first pass.
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
    order: Vec<usize>,
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
    /// # Panics
    ///
    /// Panics if a local measures a qubit `output` does not, or a window
    /// exceeds 32 qubits.
    pub fn sweep(&mut self, output: &mut Pmf, locals: &[Pmf], config: ReconstructionConfig) {
        if config.rounds == 0 || locals.is_empty() {
            return;
        }
        let _span = telemetry::span(telemetry::Stage::Reconstruction);
        let dim = output.probs().len();

        self.order.clear();
        for local in locals {
            let idx = self.table_index(output, local);
            self.order.push(idx);
        }

        let k_max = locals
            .iter()
            .map(|l| l.probs().len())
            .max()
            .expect("nonempty");
        let chunks_max = locals
            .iter()
            .map(|l| chunk_count(dim, l.probs().len()))
            .max()
            .expect("nonempty");
        let partial_max = locals
            .iter()
            .map(|l| chunk_count(dim, l.probs().len()) * l.probs().len())
            .max()
            .expect("nonempty");
        ensure(&mut self.marg, k_max);
        ensure(&mut self.ratio, k_max);
        ensure(&mut self.partials, partial_max);
        ensure(&mut self.totals, chunks_max);

        let plane = output.probs_mut();
        let epsilon = config.epsilon;
        // The mass the last applied update left behind, while its
        // normalize is still owed (see the module docs).
        let mut pending: Option<f64> = None;
        for _ in 0..config.rounds {
            for (li, local) in locals.iter().enumerate() {
                let keys = &self.tables[self.order[li]].keys[..dim];
                let lp = local.probs();
                let k = lp.len();
                let n_chunks = chunk_count(dim, k);
                let chunk_len = dim / n_chunks;
                let partials = &mut self.partials[..n_chunks * k];
                let marg = &mut self.marg[..k];
                let ratio = &mut self.ratio[..k];
                let totals = &mut self.totals[..n_chunks];

                // Pass A: the owed normalize, then per-chunk partial
                // marginal histograms, reduced in chunk order.
                for (c, part) in partials.chunks_exact_mut(k).enumerate() {
                    let range = c * chunk_len..(c + 1) * chunk_len;
                    histogram(&mut plane[range.clone()], &keys[range], part, pending);
                }
                pending = None;
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

                // The normalize, mirroring `Pmf::normalize`'s skip of
                // already-unit mass, is owed to the next Pass A.
                if (total - 1.0).abs() > 1e-15 {
                    pending = Some(total);
                }
            }
        }
        if let Some(total) = pending {
            for p in plane.iter_mut() {
                *p /= total;
            }
        }
    }

    /// The cached key-table index for the (global, local) signature,
    /// building the table on first sight.
    fn table_index(&mut self, global: &Pmf, local: &Pmf) -> usize {
        if let Some(i) = self.tables.iter().position(|t| {
            t.global.as_slice() == global.qubits() && t.local.as_slice() == local.qubits()
        }) {
            return i;
        }
        assert!(
            local.num_qubits() <= 32,
            "window of {} qubits exceeds the 32-qubit key width",
            local.num_qubits()
        );
        let positions = global.projection_positions(local.qubits());
        let keys = (0..global.probs().len())
            .map(|x| {
                let mut key = 0u32;
                for (j, &pos) in positions.iter().enumerate() {
                    key |= (((x >> pos) & 1) as u32) << j;
                }
                key
            })
            .collect();
        self.tables.push(KeyTable {
            global: global.qubits().to_vec(),
            local: local.qubits().to_vec(),
            keys,
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
