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
//!
//! Two-qubit gates keep their sparse kernels: one sweep per entangler.
//!
//! Fusing changes amplitude *bit patterns* (one rounded matrix product
//! instead of two rounded sweeps), so fused-vs-unfused agreement is a
//! `1e-12`-tolerance property, not bitwise (see `tests/fusion_equiv.rs`).
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
//! // Each Ry·Rz run fuses into one 2×2 sweep, then the CX sweeps.
//! assert_eq!(plan.op_count(), 3);
//!
//! let mut st = Statevector::zero(2);
//! st.apply_plan(&plan);
//! assert!((st.norm_sqr() - 1.0).abs() < 1e-12);
//! ```

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::gate::Gate;
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

impl PlanStructure {
    /// Runs the fusion analysis (run fusion and diagonal folding) on
    /// `circuit`'s gate kinds and wiring.
    fn analyze(circuit: &Circuit) -> PlanStructure {
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

/// A compiled, parameter-bound execution plan: the flat op list
/// [`crate::Statevector::apply_plan`] executes. See the
/// [module docs](self) for what compilation does.
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
    /// costs.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The number of gates in the source circuit.
    pub fn source_gate_count(&self) -> usize {
        self.structure.source_gates
    }

    /// The lowered ops, for the execution kernels.
    pub(crate) fn ops(&self) -> &[PlanOp] {
        &self.ops
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
        // plan keeps three sweeps.
        assert_eq!(CircuitPlan::compile(&c).op_count(), 3);
    }

    #[test]
    fn diagonal_run_folds_through_cz() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).cz(0, 1).ry(0, 0.9);
        let plan = CircuitPlan::compile(&c);
        // CZ first, then the fused Rz·Ry run.
        assert_eq!(plan.op_count(), 2);
        assert!(matches!(plan.ops()[0], PlanOp::Cz { lo: 0, hi: 1 }));
        assert!(matches!(plan.ops()[1], PlanOp::OneQ { q: 0, .. }));
    }

    #[test]
    fn diagonal_run_folds_through_cx_control_but_not_target() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).rz(1, 0.5).cx(0, 1).ry(0, 0.9).ry(1, 1.0);
        let plan = CircuitPlan::compile(&c);
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
    }

    #[test]
    fn non_diagonal_run_flushes_at_cz() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.4).cz(0, 1).ry(0, 0.9);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 3);
    }

    #[test]
    fn swap_flushes_both_runs() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.4).rz(1, 0.5).swap(0, 1);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 3);
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
        let plan = CircuitPlan::compile(&c);
        let stats = c.stats();
        assert_eq!(stats.gate_count, 2 * 2 * n + (n - 1));
        // Each per-qubit Ry·Rz pair fuses into one sweep (the mixed run is
        // non-diagonal, so nothing folds through the CX entangler here).
        assert_eq!(plan.op_count(), 2 * n + (n - 1));
        assert_eq!(plan.op_count(), stats.fused_ops());
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
        let plan = CircuitPlan::compile(&c);
        // n fused Rz·Ry sweeps + (n-1) CZs, against 2n + (n-1) unfused
        // and stats' fold-blind estimate of 2n + (n-1) as well.
        assert_eq!(plan.op_count(), n + (n - 1));
        assert!(plan.op_count() < c.stats().fused_ops());
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
        let mut runs = 0;
        for (r, f) in rebound.ops().iter().zip(fresh.ops()) {
            if let (PlanOp::OneQ { m: mr, .. }, PlanOp::OneQ { m: mf, .. }) = (r, f) {
                runs += 1;
                assert_eq!(mr, mf, "rebound matrices must be bit-identical");
            }
        }
        assert_eq!(runs, 3, "fused Ry·Rz plus the two lone Ry runs");
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
        // The Ry run and the CZ.
        assert_eq!(plan.op_count(), 2);
    }
}
