//! Circuit compilation: gate fusion in one pass over the gate list.
//!
//! # Why a compilation layer
//!
//! Executing the raw gate list walks the full amplitude array once per
//! gate; EfficientSU2's adjacent Ry·Rz rotation layers alone double the
//! number of full-state sweeps.
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
//! # Cost
//!
//! Each pending run carries its running product, so a compile is one scan
//! with one 2×2 product per fused gate and no allocation per gate. On a
//! 2-core x86-64 host, compiling the 10-qubit EfficientSU2 (full
//! entanglement, reps 2; the `fusion/plan_compile_full_10q` bench) took
//! 1.3–3.1 µs, against 75–140 µs to run the plan. So every circuit is
//! compiled where it is run, and nothing is cached.
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

/// A run of single-qubit gates pending fusion on one qubit.
#[derive(Clone, Copy)]
struct Run {
    /// The product of the run's matrices, latest gate on the left. A
    /// one-gate run is that gate's matrix verbatim, so unfusible circuits
    /// keep their exact gate-by-gate amplitudes.
    m: [[C64; 2]; 2],
    /// Whether every gate in the run is diagonal — the condition for
    /// folding the run through CZ and CX controls.
    diagonal: bool,
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

/// A compiled execution plan: the flat op list
/// [`crate::Statevector::apply_plan`] executes. See the
/// [module docs](self) for what compilation does.
#[derive(Clone, Debug)]
pub struct CircuitPlan {
    num_qubits: usize,
    ops: Vec<PlanOp>,
}

impl CircuitPlan {
    /// Compiles `circuit` with fusion and diagonal folding, in one scan.
    pub fn compile(circuit: &Circuit) -> CircuitPlan {
        let _span = telemetry::span(telemetry::Stage::PlanCompile);
        let n = circuit.num_qubits();
        // One op per gate is the upper bound (no fusion at all).
        let mut ops: Vec<PlanOp> = Vec::with_capacity(circuit.gate_count());
        let mut pending: Vec<Option<Run>> = vec![None; n];

        // Emits qubit `q`'s pending run (runs on distinct qubits commute,
        // so callers flushing several qubits may pick any fixed order).
        let flush = |q: usize, pending: &mut [Option<Run>], ops: &mut Vec<PlanOp>| {
            if let Some(run) = pending[q].take() {
                ops.push(PlanOp::OneQ { q, m: run.m });
            }
        };
        // Flushes `q` only if its pending run cannot commute through a
        // diagonal two-qubit interaction.
        let flush_non_diagonal = |q: usize, pending: &mut [Option<Run>], ops: &mut Vec<PlanOp>| {
            if pending[q].is_some_and(|run| !run.diagonal) {
                flush(q, pending, ops);
            }
        };

        for &g in circuit.gates() {
            match g {
                Gate::Cx(control, target) => {
                    // A diagonal run on the control commutes with CX; the
                    // target side mixes |0⟩/|1⟩, so its run always flushes.
                    flush_non_diagonal(control, &mut pending, &mut ops);
                    flush(target, &mut pending, &mut ops);
                    ops.push(PlanOp::Cx { control, target });
                }
                Gate::Cz(a, b) => {
                    // CZ is diagonal: diagonal runs on either qubit fold
                    // straight through it.
                    let (lo, hi) = (a.min(b), a.max(b));
                    flush_non_diagonal(lo, &mut pending, &mut ops);
                    flush_non_diagonal(hi, &mut pending, &mut ops);
                    ops.push(PlanOp::Cz { lo, hi });
                }
                Gate::Swap(a, b) => {
                    let (lo, hi) = (a.min(b), a.max(b));
                    flush(lo, &mut pending, &mut ops);
                    flush(hi, &mut pending, &mut ops);
                    ops.push(PlanOp::Swap { lo, hi });
                }
                Gate::H(q)
                | Gate::X(q)
                | Gate::Y(q)
                | Gate::Z(q)
                | Gate::S(q)
                | Gate::Sdg(q)
                | Gate::T(q)
                | Gate::Tdg(q)
                | Gate::Rx(q, _)
                | Gate::Ry(q, _)
                | Gate::Rz(q, _) => {
                    let m = g.matrix().expect("single-qubit gates have a matrix");
                    let diagonal = g.is_diagonal();
                    pending[q] = Some(match pending[q] {
                        None => Run { m, diagonal },
                        Some(run) => Run {
                            m: matmul2(&m, &run.m),
                            diagonal: run.diagonal && diagonal,
                        },
                    });
                }
            }
        }
        for q in 0..n {
            flush(q, &mut pending, &mut ops);
        }
        CircuitPlan { num_qubits: n, ops }
    }

    /// The number of qubits the plan acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of lowered ops — the full-state sweeps one execution
    /// costs.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The lowered ops, for the execution kernels.
    pub(crate) fn ops(&self) -> &[PlanOp] {
        &self.ops
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
        assert_eq!(c.gate_count(), 19);
        // Each per-qubit Ry·Rz pair fuses into one sweep (the mixed run is
        // non-diagonal, so nothing folds through the CX entangler here):
        // 8 rotation sweeps and 3 CXs.
        assert_eq!(CircuitPlan::compile(&c).op_count(), 11);
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
        // 3 fused Rz·Ry sweeps and 2 CZs, against 8 unfused ops: without
        // the fold, each Rz would flush as its own sweep before the CZs.
        assert_eq!(c.gate_count(), 8);
        assert_eq!(CircuitPlan::compile(&c).op_count(), 5);
    }

    #[test]
    fn symmetric_gates_lower_to_sorted_qubits() {
        for flip in [false, true] {
            let mut c = Circuit::new(3);
            if flip {
                c.cz(2, 0).swap(1, 0);
            } else {
                c.cz(0, 2).swap(0, 1);
            }
            let plan = CircuitPlan::compile(&c);
            assert!(matches!(plan.ops()[0], PlanOp::Cz { lo: 0, hi: 2 }));
            assert!(matches!(plan.ops()[1], PlanOp::Swap { lo: 0, hi: 1 }));
        }
    }
}
