//! Sharded amplitude-plane execution.
//!
//! # Why shards
//!
//! The dense statevector tops out around 20 qubits on one node: every
//! gate sweeps the full `2ⁿ` plane, and beyond the cache sizes each sweep
//! is a fresh trip through memory. [`ShardedState`] splits the plane into
//! `2ᵏ` contiguous **shards** of `2^(n−k)` amplitudes, keyed by the top
//! `k` bits of the basis index, and executes a compiled
//! [`CircuitPlan`] shard by shard:
//!
//! - **Local ops** — ops whose amplitude pairs stay inside one shard —
//!   run with no communication at all. Consecutive local ops are batched
//!   per shard ([`crate::plan::ShardPlan`] coalesces them), so a run of
//!   `r` local ops makes **one** pass over each shard instead of `r`
//!   passes over the whole plane: on states past the cache sizes this is
//!   a bandwidth win even single-threaded, and across threads each shard
//!   run is embarrassingly parallel.
//! - **Exchange ops** — single-qubit ops on a global (top-`k`) qubit, CX
//!   with a global target, SWAP with one global qubit, an entangler block
//!   ([`crate::plan`]'s `Block4`) with its high qubit global — pair
//!   shards along one shard-index bit and update amplitudes elementwise
//!   across each pair: the explicit communication step a distributed
//!   backend would send messages for. A block with *both* qubits global
//!   generalizes the pairing to shard **quads** along two shard-index
//!   bits.
//! - **Plane swaps** — CX with control *and* target global, SWAP of two
//!   global qubits — only relabel shards and execute as O(1) shard-handle
//!   swaps: no amplitude data moves. (A dense block never qualifies: its
//!   4×4 mixes the pair states, so it always moves amplitude data.)
//!
//! The plan-analysis pass additionally **remaps hot qubits into the
//! local range** (see [`ShardPlan::analyze`]): the `k` least pair-touched
//! qubits take the global bit positions, which typically turns almost
//! every exchange in an ansatz-shaped circuit into a local op. The state
//! records the adopted layout and un-permutes when read back.
//!
//! # Data movement
//!
//! Every shard lives in this address space, so movement is plain memory
//! work on the state's own shard buffers: exchanges walk each shard pair
//! (or quad) elementwise, sub-split into aligned slices so small shard
//! counts still occupy every worker, and plane swaps trade shard
//! handles in O(1). Movement tallies accumulate in
//! [`ShardedState::shard_stats`].
//!
//! # Threads are shards
//!
//! The dense [`Statevector`] plane is serial. Threads run through this
//! module: [`shards_and_workers`] turns a [`Parallelism`] choice into
//! `2^⌊log₂ w⌋` shards walked by `w` workers, so shard-local runs go
//! shard-parallel on the plain slice kernels, with no barrier between
//! ops. Executors apply that rule to states they prepare from `|0…0⟩`,
//! which adopt an exchange-minimizing layout.
//!
//! # Bit-identical results
//!
//! Sharded execution performs the exact same floating-point operations
//! per logical amplitude as the dense plane — the kernels
//! share `pair_update`, the two-qubit ops are exact swaps/negations, and
//! the layout only changes *where* an amplitude is stored, never its
//! arithmetic — so [`ShardedState::to_statevector`] equals the dense
//! result **bit for bit** (property-tested across shard × thread grids in
//! `tests/shard_equiv.rs`).
//!
//! # Examples
//!
//! ```
//! use qsim::{Circuit, CircuitPlan, ShardedState, Statevector};
//!
//! let mut c = Circuit::new(4);
//! c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).ry(3, 0.7);
//! let plan = CircuitPlan::compile(&c);
//!
//! let mut serial = Statevector::zero(4);
//! serial.apply_plan(&plan);
//!
//! let mut sharded = ShardedState::zero(4, 4);
//! sharded.apply_plan(&plan);
//! assert_eq!(sharded.to_statevector().amplitudes(), serial.amplitudes());
//! ```

use crate::complex::C64;
use crate::exec::{self, Parallelism, QuadKernel};
use crate::plan::{check_shards, CircuitPlan, PlanOp, ShardPlan, ShardStep};
use crate::state::{CapacityError, Statevector};

/// Smallest register for which [`Parallelism::Auto`] goes threaded: 2¹²
/// amplitudes. Below that a whole circuit on the dense plane costs less
/// than spawning workers and exchanging shards.
const AUTO_MIN_QUBITS: usize = 12;

/// Smallest plan op count for which [`Parallelism::Auto`] goes threaded:
/// spawn cost is amortized over the whole circuit, so very short plans
/// stay serial. Measured on the compiled plan's *post-fusion* sweep count
/// (see [`CircuitPlan::op_count`] and [`crate::Circuit::stats`]), not the
/// raw gate count.
const AUTO_MIN_OPS: usize = 8;

/// The one rule that turns a [`Parallelism`] choice into an execution
/// shape for a `num_qubits`-qubit plan of `ops` sweeps prepared from
/// `|0…0⟩`: `(shards, workers)`, where `(1, 1)` means the serial dense
/// plane.
///
/// - `Serial` is the dense plane.
/// - `Threads(w)` is `2^⌊log₂ w⌋` shards walked by `w` workers, with `w`
///   clamped to [`parallel::MAX_THREADS`] and the shard count to the
///   amplitude count.
/// - `Auto` is `Threads(`[`parallel::num_threads`]`())` from 2¹²
///   amplitudes and 8 plan ops up, and the dense plane below either.
///
/// # Panics
///
/// Panics if `Parallelism::Threads(0)` is requested.
///
/// ```
/// use qsim::{shard::shards_and_workers, Parallelism};
/// assert_eq!(shards_and_workers(Parallelism::Serial, 20, 100), (1, 1));
/// assert_eq!(shards_and_workers(Parallelism::Threads(6), 12, 100), (4, 6));
/// // Never more shards than amplitudes.
/// assert_eq!(shards_and_workers(Parallelism::Threads(8), 1, 100), (2, 8));
/// // Too small for Auto to thread.
/// assert_eq!(shards_and_workers(Parallelism::Auto, 11, 100), (1, 1));
/// ```
pub fn shards_and_workers(mode: Parallelism, num_qubits: usize, ops: usize) -> (usize, usize) {
    let workers = match mode {
        Parallelism::Serial => 1,
        Parallelism::Threads(n) => {
            assert!(n > 0, "Parallelism::Threads needs at least one thread");
            n.min(parallel::MAX_THREADS)
        }
        Parallelism::Auto => {
            if num_qubits < AUTO_MIN_QUBITS || ops < AUTO_MIN_OPS {
                1
            } else {
                parallel::num_threads()
            }
        }
    };
    // Largest power of two <= workers, then at most one amplitude per
    // shard.
    let shards = 1usize << (usize::BITS - 1 - workers.leading_zeros());
    (shards.min(1 << num_qubits.min(30)), workers)
}

/// Movement tallies a [`ShardedState`] accumulates across every plan it
/// applies (see [`ShardedState::shard_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Batched local-op runs executed (one per `ShardStep::Local`).
    pub local_runs: u64,
    /// Pairwise exchange steps executed.
    pub exchanges: u64,
    /// Quad (both pair bits global) exchange steps executed.
    pub quad_exchanges: u64,
    /// Plane-swap steps executed (shard-handle swaps).
    pub plane_swaps: u64,
    /// Extra sub-slices created to spread exchanges across workers
    /// (zero when every pair ran as one slice).
    pub sub_splits: u64,
}

/// A pure `n`-qubit state stored as `2ᵏ` contiguous amplitude shards —
/// see the [module docs](self) for the execution model.
///
/// The state tracks the qubit **layout** its first applied
/// [`ShardPlan`] adopted (`layout()[q]` = physical bit position of
/// logical qubit `q`); reads ([`ShardedState::to_statevector`],
/// [`ShardedState::probabilities`]) un-permute, so callers only ever see
/// logical basis ordering.
#[derive(Clone, Debug)]
pub struct ShardedState {
    num_qubits: usize,
    local_bits: usize,
    shards: Vec<Vec<C64>>,
    layout: Vec<usize>,
    /// Whether a plan has been applied: the zero state is invariant under
    /// any qubit permutation, so an unapplied state may still adopt a new
    /// plan's layout.
    dirty: bool,
    parallelism: Parallelism,
    counters: ShardCounters,
}

impl ShardedState {
    /// The all-zeros state `|0…0⟩` over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two, exceeds the
    /// amplitude count, or the plane cannot be allocated (see
    /// [`ShardedState::try_zero`] for the fallible variant).
    pub fn zero(num_qubits: usize, num_shards: usize) -> Self {
        Self::try_zero(num_qubits, num_shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The all-zeros state, or a [`CapacityError`] when the register
    /// exceeds the 30-qubit dense limit or the allocator refuses a
    /// shard's reservation. Each shard is reserved fallibly
    /// ([`Vec::try_reserve_exact`]), so an oversized request reports
    /// instead of aborting, and `vqe::SimExecutor::try_prepare` passes
    /// the error on to its caller.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two or exceeds the
    /// amplitude count (caller bugs, not capacity conditions).
    ///
    /// ```
    /// use qsim::ShardedState;
    /// assert!(ShardedState::try_zero(10, 4).is_ok());
    /// assert_eq!(ShardedState::try_zero(31, 4).unwrap_err().num_qubits(), 31);
    /// ```
    pub fn try_zero(num_qubits: usize, num_shards: usize) -> Result<Self, CapacityError> {
        let local_bits = check_shards(num_qubits, num_shards);
        if num_qubits > 30 {
            return Err(CapacityError::new(num_qubits));
        }
        let shard_len = 1usize << local_bits;
        let mut shards = Vec::new();
        if shards.try_reserve_exact(num_shards).is_err() {
            return Err(CapacityError::new(num_qubits));
        }
        for _ in 0..num_shards {
            let mut shard: Vec<C64> = Vec::new();
            if shard.try_reserve_exact(shard_len).is_err() {
                return Err(CapacityError::new(num_qubits));
            }
            shard.resize(shard_len, C64::ZERO);
            shards.push(shard);
        }
        shards[0][0] = C64::ONE;
        Ok(ShardedState {
            num_qubits,
            local_bits,
            shards,
            layout: (0..num_qubits).collect(),
            dirty: false,
            parallelism: Parallelism::Auto,
            counters: ShardCounters::default(),
        })
    }

    /// Scatters a dense state into `num_shards` shards (identity layout).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is invalid for the state's register.
    pub fn from_statevector(state: &Statevector, num_shards: usize) -> Self {
        let local_bits = check_shards(state.num_qubits(), num_shards);
        let shard_len = 1usize << local_bits;
        let shards = state
            .amplitudes()
            .chunks(shard_len)
            .map(|c| c.to_vec())
            .collect();
        ShardedState {
            num_qubits: state.num_qubits(),
            local_bits,
            shards,
            layout: (0..state.num_qubits()).collect(),
            dirty: true,
            parallelism: Parallelism::Auto,
            counters: ShardCounters::default(),
        }
    }

    /// Sets how many workers walk the shards (default
    /// [`Parallelism::Auto`]), resolved per applied plan by
    /// [`shards_and_workers`]: `Threads(n)` is clamped to
    /// [`parallel::MAX_THREADS`], and `Auto` stays on one thread below
    /// its size and op-count thresholds. The choice never changes
    /// results.
    pub fn with_parallelism(mut self, mode: Parallelism) -> Self {
        self.parallelism = mode;
        self
    }

    /// Movement tallies accumulated across every plan applied so far.
    pub fn shard_stats(&self) -> ShardCounters {
        self.counters
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Amplitudes per shard (`2^local_bits`).
    pub fn shard_len(&self) -> usize {
        1 << self.local_bits
    }

    /// The adopted qubit layout (`layout()[q]` = physical bit position of
    /// logical qubit `q`); identity until a plan with a remap is applied.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Analyzes `plan` for this state's shard count and executes it. A
    /// fresh (`|0…0⟩`) state adopts the analysis' exchange-minimizing
    /// layout; a state that already evolved pins its adopted layout so
    /// amplitudes never need physical re-permutation. Callers executing
    /// one structure many times should analyze once and use
    /// [`ShardedState::apply_shard_plan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan's qubit count differs from the state's.
    pub fn apply_plan(&mut self, plan: &CircuitPlan) {
        let sp = if self.dirty {
            ShardPlan::with_layout(plan, self.num_shards(), &self.layout)
        } else {
            ShardPlan::analyze(plan, self.num_shards())
        };
        self.apply_shard_plan(&sp);
    }

    /// Executes a precomputed [`ShardPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the analysis' qubit count or shard count differ from the
    /// state's, or if the state has already evolved under a different
    /// layout than the analysis assumes.
    pub fn apply_shard_plan(&mut self, sp: &ShardPlan) {
        assert_eq!(
            sp.num_qubits(),
            self.num_qubits,
            "shard plan acts on {} qubits but state has {}",
            sp.num_qubits(),
            self.num_qubits
        );
        assert_eq!(
            sp.num_shards(),
            self.shards.len(),
            "shard plan targets {} shards but state has {}",
            sp.num_shards(),
            self.shards.len()
        );
        if self.dirty {
            assert_eq!(
                sp.layout(),
                &self.layout[..],
                "shard plan layout differs from the state's adopted layout"
            );
        } else {
            self.layout.copy_from_slice(sp.layout());
            self.dirty = true;
        }
        let ops = sp.local_count() + sp.exchange_count() + sp.plane_swap_count();
        let (_, workers) = shards_and_workers(self.parallelism, self.num_qubits, ops);
        let local_bits = self.local_bits;
        for step in sp.steps() {
            match step {
                ShardStep::Local(ops) => {
                    let _span = telemetry::span(telemetry::Stage::SweepSharded);
                    self.run_local(&LocalOps { ops, local_bits }, workers);
                }
                ShardStep::Exchange(op) => {
                    let _span = telemetry::span(telemetry::Stage::TransportExchange);
                    match classify_exchange(op, local_bits) {
                        ExchangeStep::Pair { sbit, kernel } => {
                            self.exchange_pairs(sbit, &kernel, workers)
                        }
                        ExchangeStep::Quad { bl, bh, kernel } => {
                            self.exchange_quads(bl, bh, &kernel, workers)
                        }
                    }
                }
                ShardStep::PlaneSwap(op) => {
                    let _span = telemetry::span(telemetry::Stage::TransportPlaneSwap);
                    let swaps = plane_swap_pairs(op, local_bits, self.shards.len());
                    self.plane_swap(&swaps);
                }
            }
        }
    }

    /// Runs a batch of shard-local ops on every shard, shards spread
    /// across the workers.
    fn run_local(&mut self, ops: &LocalOps<'_>, workers: usize) {
        let nshards = self.shards.len();
        let w = workers.min(nshards).max(1);
        parallel::for_each_chunk_mut(&mut self.shards, w, |wi, chunk| {
            let first = parallel::worker_range(nshards, w, wi).start;
            for (i, shard) in chunk.iter_mut().enumerate() {
                ops.apply_to_shard(shard, first + i);
            }
        });
        self.counters.local_runs += 1;
    }

    /// Pairs shards along shard-index bit `sbit` and updates each pair
    /// elementwise with `kernel`.
    fn exchange_pairs(&mut self, sbit: usize, kernel: &ExchangeKernel, workers: usize) {
        // Sub-split each shard pair so small shard counts still saturate
        // the workers; power-of-two split counts keep slices aligned to
        // the kernel's condition/pair bits.
        let shard_len = self.shard_len();
        let npairs = self.shards.len() / 2;
        let max_splits = shard_len / kernel.min_block;
        let splits = workers
            .div_ceil(npairs.max(1))
            .next_power_of_two()
            .clamp(1, max_splits.max(1));
        let sub = shard_len / splits;

        let mut tasks: Vec<(&mut [C64], &mut [C64])> = Vec::with_capacity(npairs * splits);
        for block in self.shards.chunks_mut(2 * sbit) {
            let (lo_half, hi_half) = block.split_at_mut(sbit);
            for (a, b) in lo_half.iter_mut().zip(hi_half.iter_mut()) {
                for (sa, sb) in a.chunks_mut(sub).zip(b.chunks_mut(sub)) {
                    tasks.push((sa, sb));
                }
            }
        }
        let w = workers.min(tasks.len()).max(1);
        parallel::for_each_chunk_mut(&mut tasks, w, |_, chunk| {
            for (sa, sb) in chunk.iter_mut() {
                kernel.apply_pair(sa, sb);
            }
        });
        self.counters.exchanges += 1;
        self.counters.sub_splits += splits as u64 - 1;
    }

    /// Groups shards into quads along shard-index bits `bl < bh` and
    /// updates each quad elementwise with `kernel`.
    fn exchange_quads(&mut self, bl: usize, bh: usize, kernel: &QuadBlockKernel, workers: usize) {
        let shard_len = self.shard_len();
        let nquads = self.shards.len() / 4;
        let splits = workers
            .div_ceil(nquads.max(1))
            .next_power_of_two()
            .clamp(1, shard_len);
        let sub = shard_len / splits;

        // Pull the four member shards of each quad out of `self.shards`
        // without overlapping borrows: each slot is taken exactly once.
        let mut slots: Vec<Option<&mut [C64]>> = self
            .shards
            .iter_mut()
            .map(|s| Some(s.as_mut_slice()))
            .collect();
        let mut tasks: Vec<[&mut [C64]; 4]> = Vec::with_capacity(nquads * splits);
        for s in 0..slots.len() {
            if s & bl != 0 || s & bh != 0 {
                continue;
            }
            let s0 = slots[s].take().expect("quad base taken once");
            let s1 = slots[s | bl].take().expect("quad lo taken once");
            let s2 = slots[s | bh].take().expect("quad hi taken once");
            let s3 = slots[s | bl | bh].take().expect("quad both taken once");
            for (((c0, c1), c2), c3) in s0
                .chunks_mut(sub)
                .zip(s1.chunks_mut(sub))
                .zip(s2.chunks_mut(sub))
                .zip(s3.chunks_mut(sub))
            {
                tasks.push([c0, c1, c2, c3]);
            }
        }
        let w = workers.min(tasks.len()).max(1);
        parallel::for_each_chunk_mut(&mut tasks, w, |_, chunk| {
            for [s0, s1, s2, s3] in chunk.iter_mut() {
                kernel.apply_planes(s0, s1, s2, s3);
            }
        });
        self.counters.quad_exchanges += 1;
        self.counters.sub_splits += splits as u64 - 1;
    }

    /// Applies a plane swap: each `(a, b)` pair of shard indices trades
    /// shard handles (no amplitude math).
    fn plane_swap(&mut self, swaps: &[(usize, usize)]) {
        for &(a, b) in swaps {
            self.shards.swap(a, b);
        }
        self.counters.plane_swaps += 1;
    }

    /// Gathers the shards back into a dense [`Statevector`] in logical
    /// basis ordering (un-permuting the adopted layout).
    pub fn to_statevector(&self) -> Statevector {
        let _span = telemetry::span(telemetry::Stage::SweepSharded);
        let dim = self.shards.len() << self.local_bits;
        let moved: Vec<(usize, usize)> = self
            .layout
            .iter()
            .enumerate()
            .filter(|&(q, &p)| p != q)
            .map(|(q, &p)| (p, q))
            .collect();
        let mut amps = vec![C64::ZERO; dim];
        if moved.is_empty() {
            for (s, shard) in self.shards.iter().enumerate() {
                let base = s << self.local_bits;
                amps[base..base + shard.len()].copy_from_slice(shard);
            }
        } else {
            let mut fixed_mask = dim - 1;
            for &(p, _) in &moved {
                fixed_mask &= !(1usize << p);
            }
            for (s, shard) in self.shards.iter().enumerate() {
                let base = s << self.local_bits;
                for (j, &a) in shard.iter().enumerate() {
                    let p = base | j;
                    let mut x = p & fixed_mask;
                    for &(pb, lb) in &moved {
                        x |= ((p >> pb) & 1) << lb;
                    }
                    amps[x] = a;
                }
            }
        }
        Statevector::from_amplitudes(amps)
    }

    /// The full outcome distribution in logical basis ordering.
    pub fn probabilities(&self) -> Vec<f64> {
        self.to_statevector().probabilities()
    }

    /// The squared norm (1 for a valid state; useful in tests).
    pub fn norm_sqr(&self) -> f64 {
        self.shards.iter().flatten().map(|a| a.norm_sqr()).sum()
    }
}

/// A batched run of shard-local plan ops. Applying it to a shard
/// performs exactly the arithmetic the dense path performs.
struct LocalOps<'a> {
    ops: &'a [PlanOp],
    local_bits: usize,
}

impl LocalOps<'_> {
    /// Runs the whole batch on one shard. `shard_index` supplies the
    /// global index bits (qubits at or above the local range appear only
    /// as control/phase conditions, which select whole shards).
    fn apply_to_shard(&self, shard: &mut [C64], shard_index: usize) {
        let base = shard_index << self.local_bits;
        for op in self.ops {
            apply_local_op(shard, base, self.local_bits, op);
        }
    }
}

/// The elementwise update rule of one pairwise exchange step. `sa` is
/// the shard with the exchanged bit clear, `sb` its partner with it set.
#[derive(Clone, Copy, Debug)]
struct ExchangeKernel {
    kind: PairKind,
    /// Smallest aligned slice this kernel may run on: sub-splits must
    /// preserve an element's low (condition/pair) bits within each
    /// sub-slice, so split sizes must be multiples of this power of two.
    min_block: usize,
}

#[derive(Clone, Copy, Debug)]
enum PairKind {
    OneQ { m: [[C64; 2]; 2] },
    CxLocalControl { cmask: usize },
    SwapLocalLo { lomask: usize },
    Block4Lo { lomask: usize, k: QuadKernel },
}

impl ExchangeKernel {
    /// Updates one paired (low-half, high-half) slice run elementwise.
    /// Both slices must have equal, `min_block`-aligned lengths.
    fn apply_pair(&self, sa: &mut [C64], sb: &mut [C64]) {
        debug_assert_eq!(sa.len(), sb.len());
        debug_assert_eq!(sa.len() % self.min_block, 0);
        match self.kind {
            PairKind::OneQ { m } => {
                for (a, b) in sa.iter_mut().zip(sb.iter_mut()) {
                    let (b0, b1) = exec::pair_update(&m, *a, *b);
                    *a = b0;
                    *b = b1;
                }
            }
            PairKind::CxLocalControl { cmask } => {
                // Swap pairs whose (local) index has the control bit set;
                // alignment guarantees `j & cmask` only depends on the
                // in-slice offset.
                for j in 0..sa.len() {
                    if j & cmask != 0 {
                        std::mem::swap(&mut sa[j], &mut sb[j]);
                    }
                }
            }
            PairKind::SwapLocalLo { lomask } => {
                // Pair (i0 | lomask) on the low half with i0 on the high
                // half, i0 running over lo-clear offsets.
                let lo_bit = lomask.trailing_zeros() as usize;
                for p in 0..sa.len() / 2 {
                    let i0 = exec::insert_zero_bit(p, lo_bit);
                    std::mem::swap(&mut sa[i0 | lomask], &mut sb[i0]);
                }
            }
            PairKind::Block4Lo { lomask, k } => {
                // The high pair bit selects the half (sa = clear, sb =
                // set); the low bit is in-slice. Quads load in pair-basis
                // order s = 2·bit(hi) + bit(lo).
                let lo_bit = lomask.trailing_zeros() as usize;
                for p in 0..sa.len() / 2 {
                    let i0 = exec::insert_zero_bit(p, lo_bit);
                    let out = k.apply([sa[i0], sa[i0 | lomask], sb[i0], sb[i0 | lomask]]);
                    sa[i0] = out[0];
                    sa[i0 | lomask] = out[1];
                    sb[i0] = out[2];
                    sb[i0 | lomask] = out[3];
                }
            }
        }
    }
}

/// The elementwise update rule of one quad exchange step (an entangler
/// block with both pair bits global): the four shard slices hold the
/// four pair-basis amplitude planes.
#[derive(Clone, Copy, Debug)]
struct QuadBlockKernel {
    k: QuadKernel,
}

impl QuadBlockKernel {
    /// Updates the four pair-basis planes elementwise. All slices must
    /// have equal lengths; plane order is `s = 2·bit(hi) + bit(lo)`.
    fn apply_planes(&self, s0: &mut [C64], s1: &mut [C64], s2: &mut [C64], s3: &mut [C64]) {
        debug_assert!(s0.len() == s1.len() && s1.len() == s2.len() && s2.len() == s3.len());
        for (((a0, a1), a2), a3) in s0
            .iter_mut()
            .zip(s1.iter_mut())
            .zip(s2.iter_mut())
            .zip(s3.iter_mut())
        {
            let out = self.k.apply([*a0, *a1, *a2, *a3]);
            *a0 = out[0];
            *a1 = out[1];
            *a2 = out[2];
            *a3 = out[3];
        }
    }
}

/// The movement shape of one `ShardStep::Exchange` op.
enum ExchangeStep {
    /// Shards pair along one shard-index bit (`sbit`).
    Pair { sbit: usize, kernel: ExchangeKernel },
    /// Shards group into quads along two shard-index bits.
    Quad {
        bl: usize,
        bh: usize,
        kernel: QuadBlockKernel,
    },
}

/// Classifies an exchange op into its movement shape and kernel.
/// `min_block` alignment mirrors the condition/pair-bit constraints of
/// each kind (see `ExchangeKernel::min_block`).
fn classify_exchange(op: &PlanOp, local_bits: usize) -> ExchangeStep {
    let pair = |gq: usize, kind: PairKind, min_block: usize| {
        debug_assert!(gq >= local_bits);
        ExchangeStep::Pair {
            sbit: 1usize << (gq - local_bits),
            kernel: ExchangeKernel { kind, min_block },
        }
    };
    match *op {
        PlanOp::OneQ { q, m } => pair(q, PairKind::OneQ { m }, 1),
        PlanOp::Cx { control, target } => pair(
            target,
            PairKind::CxLocalControl {
                cmask: 1 << control,
            },
            1usize << (control + 1),
        ),
        PlanOp::Swap { lo, hi } => pair(
            hi,
            PairKind::SwapLocalLo { lomask: 1 << lo },
            1usize << (lo + 1),
        ),
        PlanOp::Block4 { lo, hi, ref m } => {
            if lo >= local_bits {
                // Both pair bits are shard-index bits: shards group into
                // quads instead of pairs.
                debug_assert!(hi > lo);
                ExchangeStep::Quad {
                    bl: 1usize << (lo - local_bits),
                    bh: 1usize << (hi - local_bits),
                    kernel: QuadBlockKernel {
                        k: QuadKernel::of(m),
                    },
                }
            } else {
                pair(
                    hi,
                    PairKind::Block4Lo {
                        lomask: 1 << lo,
                        k: QuadKernel::of(m),
                    },
                    1usize << (lo + 1),
                )
            }
        }
        PlanOp::Cz { .. } => unreachable!("CZ is diagonal and never exchanges"),
    }
}

/// Applies one shard-local op to a single shard whose global index bits
/// are `base` (already shifted into amplitude-index position). Qubits at
/// or above `local_bits` only appear as control/phase conditions, which
/// select whole shards via `base`.
fn apply_local_op(shard: &mut [C64], base: usize, local_bits: usize, op: &PlanOp) {
    match *op {
        PlanOp::OneQ { q, m } => {
            debug_assert!(q < local_bits);
            exec::apply_1q_local(shard, q, &m);
        }
        PlanOp::Cx { control, target } => {
            debug_assert!(target < local_bits);
            if control < local_bits {
                exec::apply_cx_local(shard, control, target);
            } else if base & (1usize << control) != 0 {
                // Global control: this whole shard sits in the controlled
                // subspace; apply X on the target within it.
                exec::apply_x_local(shard, target);
            }
        }
        PlanOp::Cz { lo, hi } => match (lo < local_bits, hi < local_bits) {
            (true, true) => exec::apply_cz_local(shard, lo, hi),
            (true, false) => {
                if base & (1usize << hi) != 0 {
                    exec::negate_bit_set(shard, lo);
                }
            }
            (false, false) => {
                if base & (1usize << lo) != 0 && base & (1usize << hi) != 0 {
                    for a in shard.iter_mut() {
                        *a = -*a;
                    }
                }
            }
            (false, true) => unreachable!("CZ stores sorted qubits"),
        },
        PlanOp::Swap { lo, hi } => {
            debug_assert!(hi < local_bits);
            exec::apply_swap_local(shard, lo, hi);
        }
        PlanOp::Block4 { lo, hi, ref m } => {
            debug_assert!(hi < local_bits, "local blocks have both pair bits local");
            exec::apply_block4_local(shard, lo, hi, m);
        }
    }
}

/// The disjoint shard-index pairs a plane-swap op trades: CX with both
/// qubits global swaps the target bit within the control-set planes,
/// SWAP of two global qubits trades the mixed-bit planes. Pure index
/// arithmetic — each pair becomes one shard-handle swap.
fn plane_swap_pairs(op: &PlanOp, local_bits: usize, nshards: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    match *op {
        PlanOp::Cx { control, target } => {
            let (cbit, tbit) = (
                1usize << (control - local_bits),
                1usize << (target - local_bits),
            );
            for s in 0..nshards {
                if s & cbit != 0 && s & tbit == 0 {
                    pairs.push((s, s | tbit));
                }
            }
        }
        PlanOp::Swap { lo, hi } => {
            let (lbit, hbit) = (1usize << (lo - local_bits), 1usize << (hi - local_bits));
            for s in 0..nshards {
                if s & lbit != 0 && s & hbit == 0 {
                    pairs.push((s, s ^ lbit ^ hbit));
                }
            }
        }
        _ => unreachable!("only CX and SWAP relabel whole shards"),
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn apply_both(c: &Circuit, shards: usize) -> (Statevector, Statevector) {
        let plan = CircuitPlan::compile(c);
        let mut serial = Statevector::zero(c.num_qubits());
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(c.num_qubits(), shards);
        sharded.apply_plan(&plan);
        (serial, sharded.to_statevector())
    }

    #[test]
    fn ghz_matches_across_shard_counts() {
        let n = 5;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        for shards in [1usize, 2, 4, 8] {
            let (serial, sharded) = apply_both(&c, shards);
            assert_eq!(serial.amplitudes(), sharded.amplitudes(), "{shards} shards");
        }
    }

    #[test]
    fn global_qubit_kernels_match() {
        // Every op touches the top qubits, forcing exchanges and plane
        // swaps under a pinned identity layout.
        let n = 4;
        let mut c = Circuit::new(n);
        c.h(3)
            .cx(3, 2)
            .cx(2, 3)
            .cz(3, 0)
            .swap(3, 0)
            .swap(3, 2)
            .ry(3, 0.7)
            .cx(0, 3);
        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let layout: Vec<usize> = (0..n).collect();
        for shards in [2usize, 4] {
            let sp = ShardPlan::with_layout(&plan, shards, &layout);
            assert!(sp.exchange_count() + sp.plane_swap_count() > 0);
            let mut sharded = ShardedState::zero(n, shards);
            sharded.apply_shard_plan(&sp);
            assert_eq!(
                serial.amplitudes(),
                sharded.to_statevector().amplitudes(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn remap_reduces_exchanges_and_stays_exact() {
        // Rotations hammer the top qubit; the analysis moves it local.
        let n = 6;
        let mut c = Circuit::new(n);
        for i in 0..6 {
            c.ry(n - 1, 0.1 * (i + 1) as f64).cx(n - 1, i % (n - 1));
        }
        let plan = CircuitPlan::compile(&c);
        let remapped = ShardPlan::analyze(&plan, 4);
        let identity = ShardPlan::with_layout(&plan, 4, &(0..n).collect::<Vec<_>>());
        assert!(
            remapped.exchange_count() < identity.exchange_count(),
            "remap {} vs identity {}",
            remapped.exchange_count(),
            identity.exchange_count()
        );
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(n, 4);
        sharded.apply_shard_plan(&remapped);
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    #[test]
    fn threads_never_change_results() {
        let n = 7;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.2 + q as f64).rz(q, -0.4 * q as f64);
        }
        c.cx(0, 6).cz(5, 6).swap(1, 6).cx(6, 2).h(5);
        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        for threads in [1usize, 2, 3, 8] {
            let mut sharded =
                ShardedState::zero(n, 4).with_parallelism(Parallelism::Threads(threads));
            sharded.apply_plan(&plan);
            assert_eq!(
                serial.amplitudes(),
                sharded.to_statevector().amplitudes(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn second_plan_pins_the_adopted_layout() {
        let n = 4;
        let mut a = Circuit::new(n);
        a.ry(3, 0.3).ry(3, 0.4);
        let mut b = Circuit::new(n);
        b.cx(3, 0).h(1);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&CircuitPlan::compile(&a));
        serial.apply_plan(&CircuitPlan::compile(&b));
        let mut sharded = ShardedState::zero(n, 2);
        sharded.apply_plan(&CircuitPlan::compile(&a));
        let adopted = sharded.layout().to_vec();
        sharded.apply_plan(&CircuitPlan::compile(&b));
        assert_eq!(sharded.layout(), &adopted[..], "layout stays pinned");
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    #[test]
    fn from_statevector_round_trips() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.9);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let sharded = ShardedState::from_statevector(&st, 4);
        assert_eq!(sharded.to_statevector().amplitudes(), st.amplitudes());
        assert!((sharded.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_zero_reports_capacity() {
        let err = ShardedState::try_zero(31, 4).unwrap_err();
        assert_eq!(err.num_qubits(), 31);
        assert!(ShardedState::try_zero(8, 8).is_ok());
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_shards_rejected() {
        ShardedState::zero(4, 3);
    }

    #[test]
    fn threads_become_power_of_two_shards() {
        for (threads, shards) in [(1, 1), (2, 2), (3, 2), (6, 4), (8, 8), (9, 8)] {
            assert_eq!(
                shards_and_workers(Parallelism::Threads(threads), 12, 1),
                (shards, threads)
            );
        }
        let cap = parallel::MAX_THREADS;
        assert_eq!(
            shards_and_workers(Parallelism::Threads(1 << 20), 12, 1),
            (cap.min(1 << 12), cap),
            "workers clamp to MAX_THREADS"
        );
        assert_eq!(shards_and_workers(Parallelism::Threads(8), 2, 1), (4, 8));
    }

    #[test]
    fn plane_swap_is_handle_relabeling() {
        // A SWAP of two global qubits must cost no amplitude traffic and
        // still relocate the excitation.
        let n = 4;
        let mut c = Circuit::new(n);
        c.x(2).swap(2, 3).cx(2, 3);
        // Unblocked: block fusion would collapse the swap+cx pair into a
        // dense Block4, which always moves data and never plane-swaps.
        let plan = CircuitPlan::compile_unblocked(&c);
        let sp = ShardPlan::with_layout(&plan, 4, &[0, 1, 2, 3]);
        assert_eq!(sp.plane_swap_count(), 2);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(n, 4);
        sharded.apply_shard_plan(&sp);
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }
}
