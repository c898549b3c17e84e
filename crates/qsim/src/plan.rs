//! Circuit compilation: gate fusion and structure-cached execution plans.
//!
//! # Why a compilation layer
//!
//! A VQE run executes the *same* ansatz circuit thousands of times — SPSA
//! perturbation pairs, subset evaluations, MBM circuits — with identical
//! structure and only rotated parameters. Executing the raw gate list
//! walks the full amplitude array once per gate; EfficientSU2's adjacent
//! Ry·Rz rotation layers alone double the number of full-state sweeps.
//!
//! [`CircuitPlan::compile`] scans a [`Circuit`] once and lowers it to a
//! flat op list:
//!
//! - **Adjacent-run fusion.** A maximal run of single-qubit gates on one
//!   qubit becomes a single one-qubit op whose 2×2 matrix is the
//!   product of the run's [`Gate::matrix`] values — one state sweep
//!   instead of `k`.
//! - **Diagonal folding.** A pending run whose product is diagonal
//!   (Rz/Z/S/S†/T/T†) commutes with CZ on either qubit and with the
//!   *control* side of CX, so it is folded through the entangler and keeps
//!   accumulating into the next rotation run instead of flushing.
//! - **Entangler-block fusion.** Adjacent two-qubit ops on one qubit
//!   pair — and the single-qubit rotation sandwiches around them — lower
//!   into a single `PlanOp::Block4`: one dense 4×4 sweep in the pair
//!   basis `s = 2·bit(hi) + bit(lo)` instead of one sweep per gate. Lone
//!   entanglers keep their sparse kernels ([`CircuitPlan::block_count`]
//!   reports how many blocks formed; [`CircuitPlan::compile_unblocked`]
//!   skips the pass).
//!
//! Fusing changes amplitude *bit patterns* (one rounded matrix product
//! instead of two rounded sweeps), so dense and sharded execution must
//! consume the **same plan** — both do, and are bit-identical to each
//! other (see `tests/fusion_equiv.rs`); fused-vs-unfused agreement is a
//! `1e-12`-tolerance property, not bitwise.
//!
//! # Plan caching
//!
//! Fusion analysis depends only on the circuit's *structure* — gate kinds
//! and qubit wiring, never rotation angles. [`PlanCache`] memoizes the
//! analysis ([`PlanStructure`]) under a parameter-free key, so a VQE
//! iteration rebinding new angles into a known ansatz shape pays only the
//! matrix products ([`CircuitPlan::rebind`]), not a re-scan. The cache is
//! routed through `vqe::SimExecutor` (and thus the `varsaw` evaluators'
//! mitigation pipeline), so SPSA, subset, and MBM circuits all hit it.
//!
//! # Examples
//!
//! ```
//! use qsim::{Circuit, CircuitPlan, Statevector};
//!
//! let mut c = Circuit::new(2);
//! c.ry(0, 0.3).rz(0, -0.7).ry(1, 0.1).rz(1, 0.2).cx(0, 1);
//! let plan = CircuitPlan::compile(&c);
//! // Both rotation runs and the CX collapse into one 4×4 block sweep.
//! assert_eq!((plan.op_count(), plan.block_count()), (1, 1));
//!
//! let mut st = Statevector::zero(2);
//! st.apply_plan(&plan);
//! assert!((st.norm_sqr() - 1.0).abs() < 1e-12);
//! ```

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::gate::Gate;
use crate::linalg::{identity2, kron2, matmul4, swap_qubits4, transpose4};
use std::collections::HashMap;
use std::sync::Arc;

/// One lowered operation of a compiled plan. Two-qubit symmetric gates
/// store sorted qubits so the execution kernels never re-sort.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PlanOp {
    /// A fused run of single-qubit gates: one 2×2 matrix sweep.
    OneQ { q: usize, m: [[C64; 2]; 2] },
    /// Controlled-X.
    Cx { control: usize, target: usize },
    /// Controlled-Z, qubits sorted (`lo < hi`).
    Cz { lo: usize, hi: usize },
    /// SWAP, qubits sorted (`lo < hi`).
    Swap { lo: usize, hi: usize },
    /// A fused entangler block on a sorted qubit pair: one dense 4×4
    /// sweep over the pair basis `s = 2·bit(hi) + bit(lo)`.
    Block4 {
        lo: usize,
        hi: usize,
        m: [[C64; 4]; 4],
    },
}

/// One slot of a [`PlanStructure`]: the parameter-free shape of a lowered
/// op. `Run` records *which* source gates fuse, not their matrices, so the
/// structure can be rebound to any circuit with the same key.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Slot {
    /// Indices into the source gate list, in application order.
    Run {
        q: usize,
        gates: Vec<u32>,
    },
    Cx {
        control: usize,
        target: usize,
    },
    Cz {
        lo: usize,
        hi: usize,
    },
    Swap {
        lo: usize,
        hi: usize,
    },
    /// An entangler block: the parts — in application order — whose 4×4
    /// matrices multiply into one [`PlanOp::Block4`] at bind time.
    Block4 {
        lo: usize,
        hi: usize,
        parts: Vec<BlockPart>,
    },
}

/// One constituent of a [`Slot::Block4`], expressed relative to the
/// block's sorted pair so binding needs no qubit lookups: runs embed via
/// `kron2` on the side they act on, entanglers are constant matrices in
/// the `s = 2·bit(hi) + bit(lo)` basis.
#[derive(Clone, Debug, PartialEq, Eq)]
enum BlockPart {
    /// A single-qubit run on the pair's low qubit (source gate indices).
    RunLo(Vec<u32>),
    /// A single-qubit run on the pair's high qubit.
    RunHi(Vec<u32>),
    /// CX with the control on the low qubit.
    CxLoControl,
    /// CX with the control on the high qubit.
    CxHiControl,
    Cz,
    Swap,
}

/// The parameter-free compilation of a circuit: fusion segmentation plus
/// the structure key it was derived from. Shared (via [`Arc`]) between a
/// [`PlanCache`] and every plan rebound from it.
#[derive(Debug)]
pub struct PlanStructure {
    num_qubits: usize,
    source_gates: usize,
    slots: Vec<Slot>,
    key: Vec<u64>,
}

/// A run of single-qubit gates pending fusion on one qubit.
struct Pending {
    gates: Vec<u32>,
    /// Whether every gate in the run is diagonal — the condition for
    /// folding the run through CZ and CX controls.
    diagonal: bool,
}

/// Encodes a gate's kind and wiring (never its angle) as one key word.
/// Qubit indices fit in 24 bits (dense states cap at 30 qubits). The
/// symmetric gates (CZ, SWAP) encode sorted qubits, so `cz(0, 1)` and
/// `cz(1, 0)` — the same gate — share one cache entry.
fn structure_code(g: Gate) -> u64 {
    let (tag, a, b): (u64, usize, usize) = match g {
        Gate::H(q) => (1, q, 0),
        Gate::X(q) => (2, q, 0),
        Gate::Y(q) => (3, q, 0),
        Gate::Z(q) => (4, q, 0),
        Gate::S(q) => (5, q, 0),
        Gate::Sdg(q) => (6, q, 0),
        Gate::T(q) => (7, q, 0),
        Gate::Tdg(q) => (8, q, 0),
        Gate::Rx(q, _) => (9, q, 0),
        Gate::Ry(q, _) => (10, q, 0),
        Gate::Rz(q, _) => (11, q, 0),
        Gate::Cx(c, t) => (12, c, t),
        Gate::Cz(x, y) => (13, x.min(y), x.max(y)),
        Gate::Swap(x, y) => (14, x.min(y), x.max(y)),
    };
    (tag << 48) | ((a as u64) << 24) | b as u64
}

/// The cache key of a circuit: qubit count followed by one
/// [`structure_code`] per gate. Equal keys imply identical fusion
/// segmentation, so a cached [`PlanStructure`] can be rebound.
fn structure_key(circuit: &Circuit) -> Vec<u64> {
    let mut key = Vec::with_capacity(circuit.gate_count() + 1);
    key.push(circuit.num_qubits() as u64);
    key.extend(circuit.gates().iter().map(|&g| structure_code(g)));
    key
}

/// An in-progress entangler block during [`coalesce_blocks`]: the sorted
/// qubit pair and the original slots absorbed so far.
struct OpenBlock {
    lo: usize,
    hi: usize,
    slots: Vec<Slot>,
}

/// The sorted qubit pair of a two-qubit slot, `None` for runs.
fn slot_pair(slot: &Slot) -> Option<(usize, usize)> {
    match *slot {
        Slot::Run { .. } => None,
        Slot::Cx { control, target } => Some((control.min(target), control.max(target))),
        Slot::Cz { lo, hi } | Slot::Swap { lo, hi } => Some((lo, hi)),
        Slot::Block4 { .. } => unreachable!("blocks are only built by this pass"),
    }
}

/// Emits a finished block: groups of two or more slots lower to one
/// [`Slot::Block4`]; a lone entangler keeps its original slot (its sparse
/// kernel beats a dense 4×4 sweep).
fn close_block(block: OpenBlock, out: &mut Vec<Slot>) {
    if block.slots.len() < 2 {
        out.extend(block.slots);
        return;
    }
    let parts = block
        .slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Run { q, gates } => {
                if q == block.lo {
                    BlockPart::RunLo(gates)
                } else {
                    BlockPart::RunHi(gates)
                }
            }
            Slot::Cx { control, .. } => {
                if control == block.lo {
                    BlockPart::CxLoControl
                } else {
                    BlockPart::CxHiControl
                }
            }
            Slot::Cz { .. } => BlockPart::Cz,
            Slot::Swap { .. } => BlockPart::Swap,
            Slot::Block4 { .. } => unreachable!("blocks never nest"),
        })
        .collect();
    out.push(Slot::Block4 {
        lo: block.lo,
        hi: block.hi,
        parts,
    });
}

/// The entangler-block coalescing pass. Each two-qubit slot opens a block
/// on its sorted pair; the block absorbs the held (not yet emitted)
/// single-qubit runs on those qubits, every later run landing on the
/// pair, and every later two-qubit slot on the *same* pair, and closes
/// when a two-qubit slot touches exactly one of its qubits. Deferred
/// slots only ever move past slots on disjoint qubits — an exact
/// commutation, so blocked and unblocked plans compute the same unitary.
///
/// Lone entanglers and unattached runs come out unchanged; only groups
/// of two or more slots pay for a dense 4×4 sweep.
fn coalesce_blocks(slots: Vec<Slot>, num_qubits: usize) -> Vec<Slot> {
    let mut out = Vec::with_capacity(slots.len());
    // Invariants: at most one held run per qubit; open pairs are mutually
    // disjoint; a held run's qubit never sits in an open pair.
    let mut held: Vec<Option<Slot>> = (0..num_qubits).map(|_| None).collect();
    let mut open: Vec<OpenBlock> = Vec::new();

    for slot in slots {
        match slot_pair(&slot) {
            None => {
                let Slot::Run { q, .. } = slot else {
                    unreachable!()
                };
                if let Some(block) = open.iter_mut().find(|b| b.lo == q || b.hi == q) {
                    block.slots.push(slot);
                } else if let Some(prev) = held[q].replace(slot) {
                    // Analysis never leaves two unattached runs on one
                    // qubit, but emitting the older one first keeps the
                    // order exact if it ever did.
                    out.push(prev);
                }
            }
            Some((lo, hi)) => {
                if let Some(block) = open.iter_mut().find(|b| (b.lo, b.hi) == (lo, hi)) {
                    block.slots.push(slot);
                    continue;
                }
                // A pair overlapping an open block on one qubit closes it.
                let mut i = 0;
                while i < open.len() {
                    let b = &open[i];
                    if [b.lo, b.hi].iter().any(|&q| q == lo || q == hi) {
                        close_block(open.remove(i), &mut out);
                    } else {
                        i += 1;
                    }
                }
                let mut absorbed = Vec::new();
                absorbed.extend(held[lo].take());
                absorbed.extend(held[hi].take());
                absorbed.push(slot);
                open.push(OpenBlock {
                    lo,
                    hi,
                    slots: absorbed,
                });
            }
        }
    }
    // Leftovers are mutually disjoint (see the invariants), so emission
    // order among them is free; qubit order keeps it deterministic.
    out.extend(held.into_iter().flatten());
    for block in open {
        close_block(block, &mut out);
    }
    out
}

impl PlanStructure {
    /// Runs the fusion analysis on `circuit`'s gate kinds and wiring,
    /// then lowers entangler groups into 4×4 blocks.
    fn analyze(circuit: &Circuit) -> PlanStructure {
        let mut s = Self::analyze_unblocked(circuit);
        s.slots = coalesce_blocks(std::mem::take(&mut s.slots), s.num_qubits);
        s
    }

    /// Run fusion and diagonal folding only — the structure behind
    /// [`CircuitPlan::compile_unblocked`], and the input the block
    /// coalescing pass operates on.
    fn analyze_unblocked(circuit: &Circuit) -> PlanStructure {
        // One slot per gate is the upper bound (no fusion at all).
        let mut slots: Vec<Slot> = Vec::with_capacity(circuit.gate_count());
        let mut pending: Vec<Option<Pending>> = Vec::new();
        pending.resize_with(circuit.num_qubits(), || None);

        // Emits qubit `q`'s pending run (runs on distinct qubits commute,
        // so callers flushing several qubits may pick any fixed order).
        let flush = |q: usize, pending: &mut [Option<Pending>], slots: &mut Vec<Slot>| {
            if let Some(run) = pending[q].take() {
                slots.push(Slot::Run {
                    q,
                    gates: run.gates,
                });
            }
        };
        // Flushes `q` only if its pending run cannot commute through a
        // diagonal two-qubit interaction.
        let flush_non_diagonal =
            |q: usize, pending: &mut [Option<Pending>], slots: &mut Vec<Slot>| {
                if pending[q].as_ref().is_some_and(|run| !run.diagonal) {
                    flush(q, pending, slots);
                }
            };

        for (i, &g) in circuit.gates().iter().enumerate() {
            match g {
                Gate::Cx(control, target) => {
                    // A diagonal run on the control commutes with CX; the
                    // target side mixes |0⟩/|1⟩, so its run always flushes.
                    flush_non_diagonal(control, &mut pending, &mut slots);
                    flush(target, &mut pending, &mut slots);
                    slots.push(Slot::Cx { control, target });
                }
                Gate::Cz(a, b) => {
                    // CZ is diagonal: diagonal runs on either qubit fold
                    // straight through it.
                    flush_non_diagonal(a.min(b), &mut pending, &mut slots);
                    flush_non_diagonal(a.max(b), &mut pending, &mut slots);
                    slots.push(Slot::Cz {
                        lo: a.min(b),
                        hi: a.max(b),
                    });
                }
                Gate::Swap(a, b) => {
                    flush(a.min(b), &mut pending, &mut slots);
                    flush(a.max(b), &mut pending, &mut slots);
                    slots.push(Slot::Swap {
                        lo: a.min(b),
                        hi: a.max(b),
                    });
                }
                g => {
                    let q = g.qubits()[0];
                    let run = pending[q].get_or_insert_with(|| Pending {
                        gates: Vec::new(),
                        diagonal: true,
                    });
                    run.gates.push(i as u32);
                    run.diagonal &= g.is_diagonal();
                }
            }
        }
        for q in 0..circuit.num_qubits() {
            flush(q, &mut pending, &mut slots);
        }

        PlanStructure {
            num_qubits: circuit.num_qubits(),
            source_gates: circuit.gate_count(),
            slots,
            key: structure_key(circuit),
        }
    }

    /// One slot per gate, no fusion, no reordering — the structure behind
    /// [`CircuitPlan::compile_unfused`].
    fn verbatim(circuit: &Circuit) -> PlanStructure {
        let slots = circuit
            .gates()
            .iter()
            .enumerate()
            .map(|(i, &g)| match g {
                Gate::Cx(control, target) => Slot::Cx { control, target },
                Gate::Cz(a, b) => Slot::Cz {
                    lo: a.min(b),
                    hi: a.max(b),
                },
                Gate::Swap(a, b) => Slot::Swap {
                    lo: a.min(b),
                    hi: a.max(b),
                },
                g => Slot::Run {
                    q: g.qubits()[0],
                    gates: vec![i as u32],
                },
            })
            .collect();
        PlanStructure {
            num_qubits: circuit.num_qubits(),
            source_gates: circuit.gate_count(),
            slots,
            key: structure_key(circuit),
        }
    }

    /// Binds `circuit`'s concrete gate matrices into this structure's
    /// slots. Caller guarantees the structure keys match.
    fn bind(self: &Arc<Self>, circuit: &Circuit) -> CircuitPlan {
        let gates = circuit.gates();
        let ops = self
            .slots
            .iter()
            .map(|slot| match *slot {
                Slot::Run { q, gates: ref idxs } => PlanOp::OneQ {
                    q,
                    m: run_matrix(idxs, gates),
                },
                Slot::Cx { control, target } => PlanOp::Cx { control, target },
                Slot::Cz { lo, hi } => PlanOp::Cz { lo, hi },
                Slot::Swap { lo, hi } => PlanOp::Swap { lo, hi },
                Slot::Block4 { lo, hi, ref parts } => {
                    // Parts multiply left-to-right in application order
                    // (later part on the left), mirroring run binding.
                    let mut m = part_matrix(&parts[0], gates);
                    for part in &parts[1..] {
                        m = matmul4(&part_matrix(part, gates), &m);
                    }
                    PlanOp::Block4 { lo, hi, m }
                }
            })
            .collect();
        CircuitPlan {
            structure: Arc::clone(self),
            ops,
        }
    }
}

fn matrix_of(g: Gate) -> [[C64; 2]; 2] {
    g.matrix().expect("run slots hold single-qubit gates only")
}

/// Binds a run's 2×2 matrix. A single-gate run uses the gate matrix
/// verbatim, so unfusible circuits keep their exact legacy amplitudes;
/// longer runs multiply left-to-right in application order (later gate
/// on the left).
fn run_matrix(idxs: &[u32], gates: &[Gate]) -> [[C64; 2]; 2] {
    let mut m = matrix_of(gates[idxs[0] as usize]);
    for &i in &idxs[1..] {
        m = matmul2(&matrix_of(gates[i as usize]), &m);
    }
    m
}

/// CX with the control on the pair's low bit: in the block basis
/// `s = 2·bit(hi) + bit(lo)`, states 1 and 3 swap.
const CX_LO_CONTROL: [[C64; 4]; 4] = [
    [C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ZERO, C64::ONE],
    [C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO],
    [C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO],
];

/// CX with the control on the pair's high bit: states 2 and 3 swap.
const CX_HI_CONTROL: [[C64; 4]; 4] = [
    [C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ZERO, C64::ONE],
    [C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO],
];

/// CZ: `diag(1, 1, 1, −1)`.
const CZ4: [[C64; 4]; 4] = [
    [C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ZERO, C64::new(-1.0, 0.0)],
];

/// SWAP: states 1 and 2 swap.
const SWAP4: [[C64; 4]; 4] = [
    [C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO],
    [C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO],
    [C64::ZERO, C64::ZERO, C64::ZERO, C64::ONE],
];

/// The 4×4 matrix of one block part in the pair basis
/// `s = 2·bit(hi) + bit(lo)`.
fn part_matrix(part: &BlockPart, gates: &[Gate]) -> [[C64; 4]; 4] {
    match part {
        BlockPart::RunLo(idxs) => kron2(&identity2(), &run_matrix(idxs, gates)),
        BlockPart::RunHi(idxs) => kron2(&run_matrix(idxs, gates), &identity2()),
        BlockPart::CxLoControl => CX_LO_CONTROL,
        BlockPart::CxHiControl => CX_HI_CONTROL,
        BlockPart::Cz => CZ4,
        BlockPart::Swap => SWAP4,
    }
}

/// 2×2 complex matrix product `a · b`.
fn matmul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    let mut out = [[C64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// A compiled, parameter-bound execution plan: the flat op list both the
/// dense plane ([`crate::Statevector::apply_plan`]) and the sharded
/// executor ([`crate::ShardedState::apply_plan`]) execute. See the [module docs](self) for what compilation does.
#[derive(Clone, Debug)]
pub struct CircuitPlan {
    structure: Arc<PlanStructure>,
    ops: Vec<PlanOp>,
}

impl CircuitPlan {
    /// Compiles `circuit` with fusion and diagonal folding.
    pub fn compile(circuit: &Circuit) -> CircuitPlan {
        let _span = telemetry::span(telemetry::Stage::PlanCompile);
        Arc::new(PlanStructure::analyze(circuit)).bind(circuit)
    }

    /// Lowers `circuit` one-op-per-gate with no fusion or reordering —
    /// the reference the fused path is equivalence-tested against, and
    /// the "unfused" side of the `statevector_fusion` benchmark pair.
    pub fn compile_unfused(circuit: &Circuit) -> CircuitPlan {
        let _span = telemetry::span(telemetry::Stage::PlanCompile);
        Arc::new(PlanStructure::verbatim(circuit)).bind(circuit)
    }

    /// Compiles with run fusion and diagonal folding but **without** the
    /// entangler-block pass — the per-gate 2q sweep baseline the blocked
    /// plan is benchmarked (and mutation-tested) against.
    pub fn compile_unblocked(circuit: &Circuit) -> CircuitPlan {
        let _span = telemetry::span(telemetry::Stage::PlanCompile);
        Arc::new(PlanStructure::analyze_unblocked(circuit)).bind(circuit)
    }

    /// Rebinds this plan's cached structure to a circuit with **the same
    /// structure** (gate kinds and wiring) but possibly different rotation
    /// angles — the per-iteration fast path of a [`PlanCache`] hit.
    ///
    /// # Panics
    ///
    /// Panics if `circuit`'s structure key differs from the plan's.
    ///
    /// ```
    /// use qsim::{Circuit, CircuitPlan};
    /// let mut a = Circuit::new(1);
    /// a.ry(0, 0.1).rz(0, 0.2);
    /// let mut b = Circuit::new(1);
    /// b.ry(0, -1.3).rz(0, 0.9);
    /// let rebound = CircuitPlan::compile(&a).rebind(&b);
    /// assert_eq!(rebound.op_count(), 1);
    /// ```
    pub fn rebind(&self, circuit: &Circuit) -> CircuitPlan {
        assert_eq!(
            self.structure.key,
            structure_key(circuit),
            "rebind requires an identical circuit structure"
        );
        self.structure.bind(circuit)
    }

    /// The number of qubits the plan acts on.
    pub fn num_qubits(&self) -> usize {
        self.structure.num_qubits
    }

    /// The number of lowered ops — the full-state sweeps one execution
    /// costs. [`crate::shard::shards_and_workers`] weighs this, not the
    /// raw gate count.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The number of gates in the source circuit.
    pub fn source_gate_count(&self) -> usize {
        self.structure.source_gates
    }

    /// The number of entangler blocks the coalescing pass formed — zero
    /// for [`CircuitPlan::compile_unfused`] / [`compile_unblocked`]
    /// plans.
    ///
    /// [`compile_unblocked`]: CircuitPlan::compile_unblocked
    pub fn block_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PlanOp::Block4 { .. }))
            .count()
    }

    /// Returns a copy of this plan with every block matrix transposed —
    /// a deliberately wrong plan the equivalence suites use to prove
    /// their block-path assertions are non-vacuous. Not part of the
    /// public API surface.
    #[doc(hidden)]
    pub fn transpose_blocks_for_tests(&self) -> CircuitPlan {
        let ops = self
            .ops
            .iter()
            .map(|op| match *op {
                PlanOp::Block4 { lo, hi, ref m } => PlanOp::Block4 {
                    lo,
                    hi,
                    m: transpose4(m),
                },
                op => op,
            })
            .collect();
        CircuitPlan {
            structure: Arc::clone(&self.structure),
            ops,
        }
    }

    /// The lowered ops, for the execution kernels.
    pub(crate) fn ops(&self) -> &[PlanOp] {
        &self.ops
    }
}

/// How a [`PlanOp`]'s amplitude pairs relate to a contiguous power-of-two
/// partition of the amplitude plane into blocks of `2^bits` amplitudes —
/// the shard decomposition of `qsim::shard`. Controlled gates are classified by
/// where their *pairs* reach, not their controls: a CX with a high
/// control but low target only swaps within blocks whose base index has
/// the control bit set, and CZ is diagonal, pairing nothing at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpLocality {
    /// Every pair falls inside one block (possibly conditioned on the
    /// block's high index bits): no cross-block traffic.
    Local,
    /// Pairs reach across blocks elementwise: executing the op moves
    /// amplitude data between exactly-paired blocks.
    Exchange,
    /// Pairs relabel whole blocks (CX with control *and* target high;
    /// SWAP of two high qubits): executable as O(1) block-handle swaps,
    /// no amplitude data moves at all.
    PlaneSwap,
}

/// Classifies `op` against blocks of `2^bits` amplitudes.
pub(crate) fn op_locality(op: &PlanOp, bits: usize) -> OpLocality {
    match *op {
        PlanOp::OneQ { q, .. } => {
            if q < bits {
                OpLocality::Local
            } else {
                OpLocality::Exchange
            }
        }
        PlanOp::Cx { control, target } => {
            if target < bits {
                OpLocality::Local
            } else if control < bits {
                OpLocality::Exchange
            } else {
                OpLocality::PlaneSwap
            }
        }
        PlanOp::Cz { .. } => OpLocality::Local,
        PlanOp::Swap { lo, hi } => {
            if hi < bits {
                OpLocality::Local
            } else if lo < bits {
                OpLocality::Exchange
            } else {
                OpLocality::PlaneSwap
            }
        }
        // A dense 4×4 mixes all four pair states, so unlike CX/SWAP a
        // both-high block still moves amplitude data: never a plane swap.
        PlanOp::Block4 { hi, .. } => {
            if hi < bits {
                OpLocality::Local
            } else {
                OpLocality::Exchange
            }
        }
    }
}

/// One execution step of a [`ShardPlan`]: plan ops grouped by how they
/// interact with the shard decomposition.
#[derive(Clone, Debug)]
pub(crate) enum ShardStep {
    /// A maximal run of shard-local ops: every shard executes the whole
    /// run independently — one parallel fan-out, no communication.
    Local(Vec<PlanOp>),
    /// One op whose pairs cross shards elementwise: executed as an
    /// explicit pairwise shard exchange.
    Exchange(PlanOp),
    /// One op that only relabels shards: executed as O(1) shard-handle
    /// swaps.
    PlaneSwap(PlanOp),
}

/// The sharded-execution compilation of a [`CircuitPlan`]: a qubit
/// *layout* that remaps exchange-heavy qubits into the shard-local bit
/// range, plus the (remapped) ops classified into shard-local runs,
/// pairwise exchanges, and plane swaps. Executed by
/// [`crate::ShardedState::apply_shard_plan`]; see the `qsim::shard`
/// module docs for the execution model.
///
/// The analysis is structural — it never reads rotation angles — so a
/// `ShardPlan` computed for one parameter binding is valid for any
/// rebind of the same [`PlanCache`] structure. Like compilation itself,
/// analysis is cheap (one scan of the op list) next to executing a
/// single op over a large state.
///
/// # Examples
///
/// A circuit hammering the *top* qubit would naively exchange on every
/// rotation; the layout analysis remaps it into the local range, leaving
/// zero exchanges:
///
/// ```
/// use qsim::{Circuit, CircuitPlan};
/// use qsim::plan::ShardPlan;
///
/// let mut c = Circuit::new(4);
/// c.ry(3, 0.1).cx(3, 0).ry(3, 0.2).cx(3, 1).ry(3, 0.3);
/// let plan = CircuitPlan::compile(&c);
/// let sharded = ShardPlan::analyze(&plan, 2);
/// assert_eq!(sharded.exchange_count(), 0);
/// assert!(sharded.layout()[3] < 3, "hot qubit 3 remapped into the local range");
///
/// // Pinning the identity layout shows what the remap saved: both
/// // entangler blocks on qubit 3 would cross shards.
/// let identity = ShardPlan::with_layout(&plan, 2, &[0, 1, 2, 3]);
/// assert_eq!(identity.exchange_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ShardPlan {
    analysis: Arc<ShardAnalysis>,
    steps: Vec<ShardStep>,
}

/// One slot of a [`ShardAnalysis`]: an execution step recorded as
/// *indices into the source plan's op list* instead of bound ops, so one
/// analysis can be rebound to any plan with the same op structure
/// (same kinds and wiring, different rotation matrices).
#[derive(Clone, Debug)]
enum ShardSlot {
    /// A maximal run of shard-local ops.
    Local(Vec<u32>),
    /// One pairwise-exchange op.
    Exchange(u32),
    /// One plane-swap op.
    PlaneSwap(u32),
}

/// The parameter-free half of a [`ShardPlan`]: the qubit layout, the
/// step segmentation (as op indices) and the step counts. Depends only
/// on the plan's op *structure* — kinds and qubit wiring, never rotation
/// matrices — so a [`PlanCache`] memoizes it per (structure, shard
/// count) and rebinding new angles skips the whole analysis
/// ([`PlanCache::shard_plan`]).
#[derive(Debug)]
pub(crate) struct ShardAnalysis {
    num_qubits: usize,
    shards: usize,
    local_bits: usize,
    layout: Vec<usize>,
    slots: Vec<ShardSlot>,
    local_ops: usize,
    exchange_ops: usize,
    plane_swaps: usize,
}

impl ShardAnalysis {
    /// Runs the layout analysis on `plan`'s op structure — see
    /// [`ShardPlan::analyze`] for the policy.
    fn analyze(plan: &CircuitPlan, shards: usize) -> ShardAnalysis {
        let local_bits = check_shards(plan.num_qubits(), shards);
        let n = plan.num_qubits();
        // Pair-reaching touches per qubit: the ops that would become
        // exchanges (or plane swaps) if this qubit sat in the global
        // range. CZ is diagonal and never reaches; CX controls and
        // high-conditioned phases select, but move nothing.
        let mut cost = vec![0u64; n];
        for op in plan.ops() {
            match *op {
                PlanOp::OneQ { q, .. } => cost[q] += 1,
                PlanOp::Cx { target, .. } => cost[target] += 1,
                PlanOp::Swap { lo, hi } | PlanOp::Block4 { lo, hi, .. } => {
                    cost[lo] += 1;
                    cost[hi] += 1;
                }
                PlanOp::Cz { .. } => {}
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        // Cheapest first; ties resolved toward high qubit indices so an
        // even tally reproduces the identity layout.
        order.sort_by_key(|&q| (cost[q], std::cmp::Reverse(q)));
        let k = n - local_bits;
        let mut globals = order[..k].to_vec();
        let mut locals = order[k..].to_vec();
        globals.sort_unstable();
        locals.sort_unstable();
        let mut layout = vec![0usize; n];
        for (slot, &q) in locals.iter().enumerate() {
            layout[q] = slot;
        }
        for (slot, &q) in globals.iter().enumerate() {
            layout[q] = local_bits + slot;
        }
        Self::segment(plan, shards, local_bits, layout)
    }

    /// Classifies every (layout-remapped) op and coalesces local runs,
    /// recording op indices rather than bound ops.
    fn segment(
        plan: &CircuitPlan,
        shards: usize,
        local_bits: usize,
        layout: Vec<usize>,
    ) -> ShardAnalysis {
        let mut slots: Vec<ShardSlot> = Vec::new();
        let (mut local_ops, mut exchange_ops, mut plane_swaps) = (0, 0, 0);
        for (i, op) in plan.ops().iter().enumerate() {
            let op = remap_op(op, &layout);
            let i = i as u32;
            match op_locality(&op, local_bits) {
                OpLocality::Local => {
                    local_ops += 1;
                    if let Some(ShardSlot::Local(run)) = slots.last_mut() {
                        run.push(i);
                    } else {
                        slots.push(ShardSlot::Local(vec![i]));
                    }
                }
                OpLocality::Exchange => {
                    exchange_ops += 1;
                    slots.push(ShardSlot::Exchange(i));
                }
                OpLocality::PlaneSwap => {
                    plane_swaps += 1;
                    slots.push(ShardSlot::PlaneSwap(i));
                }
            }
        }
        ShardAnalysis {
            num_qubits: plan.num_qubits(),
            shards,
            local_bits,
            layout,
            slots,
            local_ops,
            exchange_ops,
            plane_swaps,
        }
    }

    /// Binds `plan`'s concrete ops into this analysis' slots. Caller
    /// guarantees the op structures match ([`shard_key`] equality).
    fn bind(self: &Arc<Self>, plan: &CircuitPlan) -> ShardPlan {
        let ops = plan.ops();
        let remap = |i: u32| remap_op(&ops[i as usize], &self.layout);
        let steps = self
            .slots
            .iter()
            .map(|slot| match slot {
                ShardSlot::Local(run) => ShardStep::Local(run.iter().map(|&i| remap(i)).collect()),
                ShardSlot::Exchange(i) => ShardStep::Exchange(remap(*i)),
                ShardSlot::PlaneSwap(i) => ShardStep::PlaneSwap(remap(*i)),
            })
            .collect();
        ShardPlan {
            analysis: Arc::clone(self),
            steps,
        }
    }
}

/// The memoization key of a [`ShardAnalysis`]: the plan's qubit count
/// followed by one kind+wiring word per *lowered op*. Keyed on the op
/// list rather than the source circuit so fused and unfused plans of one
/// circuit — same circuit structure, different op segmentation — never
/// share an entry.
fn shard_key(plan: &CircuitPlan) -> Vec<u64> {
    let mut key = Vec::with_capacity(plan.op_count() + 1);
    key.push(plan.num_qubits() as u64);
    key.extend(plan.ops().iter().map(|op| {
        let (tag, a, b): (u64, usize, usize) = match *op {
            PlanOp::OneQ { q, .. } => (1, q, 0),
            PlanOp::Cx { control, target } => (2, control, target),
            PlanOp::Cz { lo, hi } => (3, lo, hi),
            PlanOp::Swap { lo, hi } => (4, lo, hi),
            PlanOp::Block4 { lo, hi, .. } => (5, lo, hi),
        };
        (tag << 48) | ((a as u64) << 24) | b as u64
    }));
    key
}

impl ShardPlan {
    /// Analyzes `plan` for execution on `shards` shards, choosing the
    /// qubit layout that minimizes exchange steps: each qubit's
    /// pair-reaching op count is tallied, and the qubits touched least
    /// take the global (top) bit positions. Ties prefer the identity
    /// layout.
    ///
    /// The analysis half (layout + step segmentation) is parameter-free;
    /// executors re-running one ansatz shape should route through
    /// [`PlanCache::shard_plan`], which memoizes it and only rebinds the
    /// op matrices per call.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a power of two or exceeds the plan's
    /// amplitude count.
    pub fn analyze(plan: &CircuitPlan, shards: usize) -> ShardPlan {
        Arc::new(ShardAnalysis::analyze(plan, shards)).bind(plan)
    }

    /// Analyzes `plan` under a caller-pinned qubit layout
    /// (`layout[logical] = physical bit position`) — how a state that
    /// already adopted a layout executes further plans.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is invalid (see [`ShardPlan::analyze`]) or
    /// `layout` is not a permutation of the plan's qubits.
    pub fn with_layout(plan: &CircuitPlan, shards: usize, layout: &[usize]) -> ShardPlan {
        let local_bits = check_shards(plan.num_qubits(), shards);
        check_layout(plan.num_qubits(), layout);
        Arc::new(ShardAnalysis::segment(
            plan,
            shards,
            local_bits,
            layout.to_vec(),
        ))
        .bind(plan)
    }

    /// The number of qubits the plan acts on.
    pub fn num_qubits(&self) -> usize {
        self.analysis.num_qubits
    }

    /// The shard count the analysis targets.
    pub fn num_shards(&self) -> usize {
        self.analysis.shards
    }

    /// The number of amplitude-index bits local to one shard
    /// (`num_qubits − log2(num_shards)`).
    pub fn local_bits(&self) -> usize {
        self.analysis.local_bits
    }

    /// The qubit layout: `layout()[q]` is the physical bit position
    /// logical qubit `q` occupies during sharded execution. Positions
    /// `>= local_bits()` select the shard index.
    pub fn layout(&self) -> &[usize] {
        &self.analysis.layout
    }

    /// Ops executed shard-locally with no communication.
    pub fn local_count(&self) -> usize {
        self.analysis.local_ops
    }

    /// Ops executed as elementwise pairwise shard exchanges — the
    /// communication cost the layout remap minimizes.
    pub fn exchange_count(&self) -> usize {
        self.analysis.exchange_ops
    }

    /// Ops executed as O(1) shard-handle swaps (no amplitude traffic).
    pub fn plane_swap_count(&self) -> usize {
        self.analysis.plane_swaps
    }

    /// The execution steps, for the sharded kernels.
    pub(crate) fn steps(&self) -> &[ShardStep] {
        &self.steps
    }
}

/// Validates a shard count against a register size; returns the
/// per-shard local bit count. Shared with `qsim::shard`'s constructors
/// so plan analysis and state allocation reject the same requests with
/// the same messages.
pub(crate) fn check_shards(num_qubits: usize, shards: usize) -> usize {
    assert!(
        shards.is_power_of_two(),
        "shard count {shards} is not a power of two"
    );
    let shard_bits = shards.trailing_zeros() as usize;
    assert!(
        shard_bits <= num_qubits,
        "{shards} shards need more than the 2^{num_qubits} amplitudes available"
    );
    num_qubits - shard_bits
}

/// Validates that `layout` is a permutation of `0..num_qubits`.
fn check_layout(num_qubits: usize, layout: &[usize]) {
    assert_eq!(
        layout.len(),
        num_qubits,
        "layout length {} for a {num_qubits}-qubit plan",
        layout.len()
    );
    let mut seen = vec![false; num_qubits];
    for &p in layout {
        assert!(
            p < num_qubits && !seen[p],
            "layout {layout:?} is not a permutation of 0..{num_qubits}"
        );
        seen[p] = true;
    }
}

/// Rewrites an op's qubits through `layout`, preserving the sorted-qubit
/// invariants of the symmetric ops.
fn remap_op(op: &PlanOp, layout: &[usize]) -> PlanOp {
    match *op {
        PlanOp::OneQ { q, m } => PlanOp::OneQ { q: layout[q], m },
        PlanOp::Cx { control, target } => PlanOp::Cx {
            control: layout[control],
            target: layout[target],
        },
        PlanOp::Cz { lo, hi } => {
            let (a, b) = (layout[lo], layout[hi]);
            PlanOp::Cz {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
        PlanOp::Swap { lo, hi } => {
            let (a, b) = (layout[lo], layout[hi]);
            PlanOp::Swap {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
        PlanOp::Block4 { lo, hi, m } => {
            let (a, b) = (layout[lo], layout[hi]);
            if a < b {
                PlanOp::Block4 { lo: a, hi: b, m }
            } else {
                // Re-sorting the pair permutes the basis — a pure entry
                // shuffle, so remapping never re-rounds the matrix, and
                // `exec::quad_update`'s (0,3)+(1,2) accumulation pairing
                // is invariant under exactly this relabeling, so the
                // remapped block executes bit-identically too.
                PlanOp::Block4 {
                    lo: b,
                    hi: a,
                    m: swap_qubits4(&m),
                }
            }
        }
    }
}

/// Memoizes fusion analysis by circuit structure (gate kinds + wiring,
/// parameters excluded), so repeated executions of one ansatz shape pay
/// only matrix rebinding. Cheap to clone state-wise: structures are
/// [`Arc`]-shared.
///
/// ```
/// use qsim::{Circuit, PlanCache};
///
/// let mut cache = PlanCache::new();
/// let make = |theta: f64| {
///     let mut c = Circuit::new(2);
///     c.ry(0, theta).rz(0, 2.0 * theta).cx(0, 1);
///     c
/// };
/// cache.plan(&make(0.1));
/// cache.plan(&make(0.7)); // same structure, new angles
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    structures: HashMap<Vec<u64>, Arc<PlanStructure>>,
    hits: u64,
    misses: u64,
    /// Sharded-execution analyses, keyed by (op structure, shard count) —
    /// see [`PlanCache::shard_plan`].
    shard_analyses: HashMap<(Vec<u64>, usize), Arc<ShardAnalysis>>,
    shard_hits: u64,
    shard_misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `circuit`, rebinding a cached structure when one
    /// matches and compiling (and caching) otherwise.
    pub fn plan(&mut self, circuit: &Circuit) -> CircuitPlan {
        let key = structure_key(circuit);
        if let Some(structure) = self.structures.get(&key) {
            self.hits += 1;
            let _span = telemetry::span(telemetry::Stage::PlanRebind);
            return structure.bind(circuit);
        }
        self.misses += 1;
        let structure = {
            let _span = telemetry::span(telemetry::Stage::PlanCompile);
            Arc::new(PlanStructure::analyze(circuit))
        };
        let plan = {
            let _span = telemetry::span(telemetry::Stage::PlanRebind);
            structure.bind(circuit)
        };
        self.structures.insert(key, structure);
        plan
    }

    /// The [`ShardPlan`] for executing `plan` on `shards` shards,
    /// rebinding a memoized shard analysis when one matches and
    /// analyzing (and caching) otherwise. Bit-identical to
    /// [`ShardPlan::analyze`] — the analysis depends only on op kinds
    /// and wiring, so a rebound plan of the same shape reuses the layout
    /// and step segmentation verbatim.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ShardPlan::analyze`].
    ///
    /// ```
    /// use qsim::{Circuit, PlanCache};
    ///
    /// let mut cache = PlanCache::new();
    /// let make = |t: f64| {
    ///     let mut c = Circuit::new(4);
    ///     c.ry(0, t).cx(0, 1).cx(1, 2).cx(2, 3);
    ///     c
    /// };
    /// let a = cache.plan(&make(0.1));
    /// let b = cache.plan(&make(0.9));
    /// cache.shard_plan(&a, 2);
    /// cache.shard_plan(&b, 2); // same shape: analysis reused
    /// assert_eq!(cache.shard_stats(), (1, 1));
    /// ```
    pub fn shard_plan(&mut self, plan: &CircuitPlan, shards: usize) -> ShardPlan {
        let key = (shard_key(plan), shards);
        if let Some(analysis) = self.shard_analyses.get(&key) {
            self.shard_hits += 1;
            let _span = telemetry::span(telemetry::Stage::PlanRebind);
            return analysis.bind(plan);
        }
        self.shard_misses += 1;
        let analysis = {
            let _span = telemetry::span(telemetry::Stage::PlanCompile);
            Arc::new(ShardAnalysis::analyze(plan, shards))
        };
        let sp = {
            let _span = telemetry::span(telemetry::Stage::PlanRebind);
            analysis.bind(plan)
        };
        self.shard_analyses.insert(key, analysis);
        sp
    }

    /// The number of distinct circuit structures cached.
    pub fn len(&self) -> usize {
        self.structures.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.structures.is_empty()
    }

    /// Structure-cache hits so far (rebinds that skipped analysis).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Structure-cache misses so far (full compilations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Shard-analysis cache counters `(hits, misses)` — how often
    /// [`PlanCache::shard_plan`] rebound a memoized layout instead of
    /// re-analyzing.
    pub fn shard_stats(&self) -> (u64, u64) {
        (self.shard_hits, self.shard_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> bool {
        a.iter()
            .flatten()
            .zip(b.iter().flatten())
            .all(|(x, y)| (*x - *y).abs() < 1e-12)
    }

    #[test]
    fn adjacent_same_qubit_rotations_fuse() {
        let mut c = Circuit::new(1);
        c.ry(0, 0.3).rz(0, -0.8).rx(0, 1.1);
        let plan = CircuitPlan::compile(&c);
        assert_eq!(plan.op_count(), 1);
        let PlanOp::OneQ { q, m } = plan.ops()[0] else {
            panic!("expected a fused one-qubit op");
        };
        assert_eq!(q, 0);
        // Application order: Rx · Rz · Ry.
        let expect = matmul2(
            &Gate::Rx(0, 1.1).matrix().unwrap(),
            &matmul2(
                &Gate::Rz(0, -0.8).matrix().unwrap(),
                &Gate::Ry(0, 0.3).matrix().unwrap(),
            ),
        );
        assert!(close(&m, &expect));
    }

    #[test]
    fn runs_on_different_qubits_do_not_fuse() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.1).ry(1, 0.2);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 2);
    }

    #[test]
    fn single_gate_runs_keep_the_exact_gate_matrix() {
        let mut c = Circuit::new(1);
        c.ry(0, 0.77);
        let PlanOp::OneQ { m, .. } = CircuitPlan::compile(&c).ops()[0] else {
            panic!("expected a one-qubit op");
        };
        // Bitwise equality: no identity multiplication is applied.
        assert_eq!(m, Gate::Ry(0, 0.77).matrix().unwrap());
    }

    #[test]
    fn two_qubit_gates_break_runs() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.1).cx(1, 0).ry(0, 0.2);
        // Ry | CX | Ry — the target-side run cannot cross CX, so the
        // unblocked plan keeps three sweeps; the block pass then fuses
        // the whole sandwich into one 4×4.
        assert_eq!(CircuitPlan::compile_unblocked(&c).op_count(), 3);
        let plan = CircuitPlan::compile(&c);
        assert_eq!((plan.op_count(), plan.block_count()), (1, 1));
    }

    #[test]
    fn diagonal_run_folds_through_cz() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).cz(0, 1).ry(0, 0.9);
        let plan = CircuitPlan::compile_unblocked(&c);
        // CZ first, then the fused Rz·Ry run.
        assert_eq!(plan.op_count(), 2);
        assert!(matches!(plan.ops()[0], PlanOp::Cz { lo: 0, hi: 1 }));
        assert!(matches!(plan.ops()[1], PlanOp::OneQ { q: 0, .. }));
        // Blocked: the CZ and the folded run make one 4×4 sweep.
        assert_eq!(CircuitPlan::compile(&c).op_count(), 1);
    }

    #[test]
    fn diagonal_run_folds_through_cx_control_but_not_target() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).rz(1, 0.5).cx(0, 1).ry(0, 0.9).ry(1, 1.0);
        let plan = CircuitPlan::compile_unblocked(&c);
        // Control-side Rz folds through and fuses with its Ry; the
        // target-side Rz must flush before CX.
        assert_eq!(plan.op_count(), 4);
        assert!(matches!(plan.ops()[0], PlanOp::OneQ { q: 1, .. }));
        assert!(matches!(
            plan.ops()[1],
            PlanOp::Cx {
                control: 0,
                target: 1
            }
        ));
        // All four sweeps live on the (0,1) pair: one block.
        let blocked = CircuitPlan::compile(&c);
        assert_eq!((blocked.op_count(), blocked.block_count()), (1, 1));
    }

    #[test]
    fn non_diagonal_run_flushes_at_cz() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.4).cz(0, 1).ry(0, 0.9);
        assert_eq!(CircuitPlan::compile_unblocked(&c).op_count(), 3);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 1);
    }

    #[test]
    fn swap_flushes_both_runs() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).rz(1, 0.5).swap(0, 1);
        assert_eq!(CircuitPlan::compile_unblocked(&c).op_count(), 3);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 1);
    }

    #[test]
    fn efficient_su2_shape_halves_rotation_sweeps() {
        // Two Ry·Rz layers around a linear entangler, as EfficientSU2
        // builds them: every per-qubit pair fuses.
        let n = 4;
        let mut c = Circuit::new(n);
        for layer in 0..2 {
            for q in 0..n {
                c.ry(q, 0.1 * (layer * n + q) as f64);
            }
            for q in 0..n {
                c.rz(q, 0.2 * (layer * n + q) as f64);
            }
            if layer == 0 {
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
            }
        }
        let unblocked = CircuitPlan::compile_unblocked(&c);
        let stats = c.stats();
        assert_eq!(stats.gate_count, 2 * 2 * n + (n - 1));
        // Each per-qubit Ry·Rz pair fuses into one sweep (the mixed run is
        // non-diagonal, so nothing folds through the CX entangler here).
        assert_eq!(unblocked.op_count(), 2 * n + (n - 1));
        assert_eq!(unblocked.op_count(), stats.fused_ops());
        // The block pass then absorbs every entangler's sandwich: the
        // linear chain lowers to n−1 blocks plus the two runs (qubits 0
        // and 1) that no second-layer entangler touches.
        let blocked = CircuitPlan::compile(&c);
        assert_eq!(blocked.block_count(), n - 1);
        assert_eq!(blocked.op_count(), (n - 1) + 2);
        // The stats mirror sees only lone entanglers here (a linear chain
        // never repeats a pair), so `blocked_ops` degenerates to
        // `fused_ops` — the documented drift: absorbed rotation
        // sandwiches save sweeps the pair count cannot anticipate.
        assert_eq!(stats.fusible_pairs, 0);
        assert_eq!(stats.blocked_ops(), stats.fused_ops());
        assert!(blocked.op_count() < stats.blocked_ops());
    }

    #[test]
    fn pure_rz_layer_folds_through_a_cz_entangler() {
        // An Rz-only layer before CZ entanglers defers entirely: each
        // qubit's Rz joins its next rotation run on the far side.
        let n = 3;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.rz(q, 0.1 + q as f64);
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1);
        }
        for q in 0..n {
            c.ry(q, 0.2 + q as f64);
        }
        let plan = CircuitPlan::compile_unblocked(&c);
        // n fused Rz·Ry sweeps + (n-1) CZs, against 2n + (n-1) unfused
        // and stats' fold-blind estimate of 2n + (n-1) as well.
        assert_eq!(plan.op_count(), n + (n - 1));
        assert!(plan.op_count() < c.stats().fused_ops());
        // Blocked: CZ(1,2) absorbs the runs on 1 and 2; CZ(0,1) stays a
        // lone entangler and qubit 0's run stays a 2×2 sweep.
        let blocked = CircuitPlan::compile(&c);
        assert_eq!((blocked.op_count(), blocked.block_count()), (3, 1));
    }

    #[test]
    fn unfused_plan_is_one_op_per_gate() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.3).rz(0, -0.8).cx(0, 1).cz(1, 0).swap(0, 1);
        let plan = CircuitPlan::compile_unfused(&c);
        assert_eq!(plan.op_count(), c.gate_count());
        assert!(matches!(plan.ops()[3], PlanOp::Cz { lo: 0, hi: 1 }));
    }

    #[test]
    fn cache_hits_on_rebound_parameters_only() {
        let make = |t: f64, wiring: bool| {
            let mut c = Circuit::new(2);
            c.ry(0, t).rz(0, 2.0 * t);
            if wiring {
                c.cx(0, 1);
            } else {
                c.cx(1, 0);
            }
            c
        };
        let mut cache = PlanCache::new();
        cache.plan(&make(0.1, true));
        cache.plan(&make(0.9, true)); // parameters differ: hit
        cache.plan(&make(0.1, false)); // wiring differs: miss
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn rebind_matches_fresh_compile() {
        let make = |a: f64, b: f64| {
            let mut c = Circuit::new(3);
            c.ry(0, a).rz(0, b).cx(0, 1).ry(1, a - b).ry(2, a + b);
            c
        };
        let plan = CircuitPlan::compile(&make(0.3, 0.7));
        let rebound = plan.rebind(&make(-1.1, 0.2));
        let fresh = CircuitPlan::compile(&make(-1.1, 0.2));
        assert_eq!(rebound.op_count(), fresh.op_count());
        assert!(fresh.block_count() > 0, "the sandwich must block");
        let mut blocks = 0;
        for (r, f) in rebound.ops().iter().zip(fresh.ops()) {
            match (r, f) {
                (PlanOp::OneQ { m: mr, .. }, PlanOp::OneQ { m: mf, .. }) => {
                    assert_eq!(mr, mf, "rebound matrices must be bit-identical");
                }
                (PlanOp::Block4 { m: mr, .. }, PlanOp::Block4 { m: mf, .. }) => {
                    blocks += 1;
                    assert_eq!(mr, mf, "rebound block matrices must be bit-identical");
                }
                _ => {}
            }
        }
        assert_eq!(blocks, fresh.block_count());
    }

    #[test]
    #[should_panic(expected = "identical circuit structure")]
    fn rebind_rejects_different_structure() {
        let mut a = Circuit::new(1);
        a.ry(0, 0.1);
        let mut b = Circuit::new(1);
        b.rz(0, 0.1);
        CircuitPlan::compile(&a).rebind(&b);
    }

    #[test]
    fn structure_code_distinguishes_kind_and_wiring_not_angle() {
        assert_eq!(
            structure_code(Gate::Ry(3, 0.1)),
            structure_code(Gate::Ry(3, -2.9))
        );
        assert_ne!(
            structure_code(Gate::Ry(3, 0.1)),
            structure_code(Gate::Rz(3, 0.1))
        );
        assert_ne!(
            structure_code(Gate::Cx(0, 1)),
            structure_code(Gate::Cx(1, 0))
        );
        // CZ and SWAP are symmetric: argument order must not split the
        // cache (the compiler sorts their slots anyway).
        assert_eq!(
            structure_code(Gate::Cz(0, 1)),
            structure_code(Gate::Cz(1, 0))
        );
        assert_eq!(
            structure_code(Gate::Swap(2, 5)),
            structure_code(Gate::Swap(5, 2))
        );
    }

    /// The satellite regression for shard-analysis memoization: a cached
    /// analysis rebound to new angles must equal a fresh
    /// [`ShardPlan::analyze`] in layout, step segmentation, counts, and
    /// the executed amplitudes (bit for bit).
    #[test]
    fn cached_shard_plan_rebind_equals_fresh_analysis() {
        let make = |t: f64| {
            let mut c = Circuit::new(5);
            c.ry(4, t)
                .cx(4, 0)
                .rz(4, 2.0 * t)
                .cx(4, 1)
                .ry(0, -t)
                .swap(1, 2);
            c
        };
        let mut cache = PlanCache::new();
        let first = cache.plan(&make(0.3));
        cache.shard_plan(&first, 4); // populate the analysis cache
        let rebound_plan = cache.plan(&make(-1.7));
        let cached = cache.shard_plan(&rebound_plan, 4);
        let fresh = ShardPlan::analyze(&rebound_plan, 4);
        assert_eq!(cache.shard_stats(), (1, 1));
        assert_eq!(cached.layout(), fresh.layout());
        assert_eq!(cached.local_count(), fresh.local_count());
        assert_eq!(cached.exchange_count(), fresh.exchange_count());
        assert_eq!(cached.plane_swap_count(), fresh.plane_swap_count());
        let run = |sp: &ShardPlan| {
            let mut st = crate::ShardedState::zero(5, 4);
            st.apply_shard_plan(sp);
            st.to_statevector()
        };
        assert_eq!(
            run(&cached).amplitudes(),
            run(&fresh).amplitudes(),
            "rebound analysis must execute bit-identically to a fresh one"
        );
    }

    #[test]
    fn shard_plan_cache_distinguishes_shard_counts_and_fusion() {
        let mut c = Circuit::new(4);
        c.rz(0, 0.4).cz(0, 1).ry(0, 0.9).cx(1, 2).ry(3, 0.2);
        let fused = CircuitPlan::compile(&c);
        let unfused = CircuitPlan::compile_unfused(&c);
        let mut cache = PlanCache::new();
        cache.shard_plan(&fused, 2);
        cache.shard_plan(&fused, 4); // different shard count: miss
                                     // Same circuit, different op segmentation: must not share the
                                     // fused entry (the slot indices would be wrong).
        cache.shard_plan(&unfused, 2);
        assert_eq!(cache.shard_stats(), (0, 3));
    }

    #[test]
    fn symmetric_gate_argument_order_hits_the_cache() {
        let make = |flip: bool| {
            let mut c = Circuit::new(2);
            c.ry(0, 0.3);
            if flip {
                c.cz(1, 0);
            } else {
                c.cz(0, 1);
            }
            c
        };
        let mut cache = PlanCache::new();
        cache.plan(&make(false));
        let plan = cache.plan(&make(true));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The Ry run and the CZ block together.
        assert_eq!(plan.op_count(), 1);
    }

    #[test]
    fn lone_entanglers_never_block() {
        // A bare CX chain has no sandwiches: a dense 4×4 per gate would
        // only slow it down, so the pass leaves every op sparse.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let plan = CircuitPlan::compile(&c);
        assert_eq!((plan.op_count(), plan.block_count()), (3, 0));
    }

    #[test]
    fn adjacent_two_qubit_ops_on_one_pair_collapse() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cz(0, 1).cx(1, 0).swap(0, 1);
        let plan = CircuitPlan::compile(&c);
        assert_eq!((plan.op_count(), plan.block_count()), (1, 1));
        let PlanOp::Block4 { lo: 0, hi: 1, m } = plan.ops()[0] else {
            panic!("expected one block");
        };
        // CX·CZ·CX_rev·SWAP is a ±1 permutation-with-phase matrix: every
        // row holds exactly one unit entry.
        for row in &m {
            let ones = row.iter().filter(|e| e.abs() > 0.5).count();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn block_pass_is_an_exact_reordering() {
        // Deferred runs and blocks only move past disjoint-support slots,
        // so blocked and unblocked plans agree to rounding (1e-12), and
        // the transposed-blocks mutant visibly does not.
        let mut c = Circuit::new(3);
        c.ry(0, 0.3)
            .ry(2, -0.8)
            .cz(1, 2)
            .rz(2, 0.5)
            .cx(0, 1)
            .ry(1, 1.1)
            .swap(1, 2);
        let blocked = CircuitPlan::compile(&c);
        assert!(blocked.block_count() > 0);
        let run = |plan: &CircuitPlan| {
            let mut st = crate::Statevector::zero(3);
            st.apply_plan(plan);
            st
        };
        let a = run(&blocked);
        let b = run(&CircuitPlan::compile_unblocked(&c));
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).abs() < 1e-12);
        }
        let mutant = run(&blocked.transpose_blocks_for_tests());
        let drift: f64 = mutant
            .amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(drift > 1e-6, "transposed blocks must be detectable");
    }
}
