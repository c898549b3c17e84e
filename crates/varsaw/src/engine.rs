//! The JigSaw-for-VQA and VarSaw objective evaluators.
//!
//! Both implement [`vqe::EnergyEvaluator`], so the same tuning loop
//! ([`vqe::run_vqe`]) drives the paper's four comparison scenarios:
//! Baseline (in the `vqe` crate), JigSaw, VarSaw, and the noise-free Ideal
//! (Baseline on a noiseless device).

use crate::spatial::{DistinctCoverage, SpatialPlan};
use crate::temporal::{GlobalScheduler, TemporalPolicy};
use mitigation::{mbm_correct, sliding_windows, Pmf, ReconstructionConfig, Reconstructor};
use pauli::{Hamiltonian, PauliString};
use qsim::Statevector;
use std::borrow::Borrow;
use std::ops::Range;
use vqe::{
    EfficientSu2, EnergyEvaluator, GroupedHamiltonian, LoadedReads, SimExecutor, SubsetReads,
};

/// The execute-and-mitigate plumbing shared by [`JigsawEvaluator`] and
/// [`VarSawEvaluator`]: runs subset/Global circuits (optionally
/// MBM-corrected) and reconstructs through a persistent [`Reconstructor`]
/// whose projection-key tables and scratch survive across VQE iterations
/// — the measurement geometry of a Hamiltonian never changes between
/// tuner steps, so every reconstruction after the first runs key-cached
/// and allocation-free.
#[derive(Clone, Debug)]
struct MitigationPipeline {
    executor: SimExecutor,
    reconstructor: Reconstructor,
    mbm: bool,
}

impl MitigationPipeline {
    /// Wraps an executor with a fresh reconstruction engine.
    fn new(executor: SimExecutor) -> Self {
        MitigationPipeline {
            executor,
            reconstructor: Reconstructor::new(),
            mbm: false,
        }
    }

    /// Applies matrix-based mitigation when enabled.
    fn correct(&mut self, pmf: Pmf) -> Pmf {
        if self.mbm {
            let cal = self.executor.calibration(pmf.num_qubits());
            mbm_correct(&pmf, &cal)
        } else {
            pmf
        }
    }

    /// Runs the Global circuit of `basis` on the prepared `state`,
    /// reading the full register, with MBM applied when enabled.
    fn run_global(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        let pmf = self.executor.run_prepared_all(state, basis);
        self.correct(pmf)
    }

    /// Runs subset circuit `i` of `loaded`, reading only its support,
    /// with MBM applied when enabled.
    fn run_subset(&mut self, loaded: &LoadedReads<'_>, i: usize) -> Pmf {
        let pmf = self.executor.run_subset(loaded, i);
        self.correct(pmf)
    }

    /// Bayesian reconstruction through the persistent engine, in place:
    /// `prior` becomes the Output-PMF. The locals may be owned or
    /// borrowed.
    fn reconstruct<L: Borrow<Pmf>>(&mut self, prior: &mut Pmf, locals: &[L]) {
        self.reconstructor
            .sweep(prior, locals, ReconstructionConfig::default());
    }

    /// Reconstructs every basis's output in place from the coverage
    /// marginals its windows read: output `b` is swept by
    /// `marginals[i]` for each `i` in `windows[b]`, in order.
    fn reconstruct_covered(
        &mut self,
        outputs: &mut [Pmf],
        windows: &[Vec<usize>],
        marginals: &[Pmf],
    ) {
        let mut locals: Vec<&Pmf> = Vec::new();
        for (output, entries) in outputs.iter_mut().zip(windows) {
            locals.clear();
            locals.extend(entries.iter().map(|&i| &marginals[i]));
            self.reconstruct(output, &locals);
        }
    }
}

/// JigSaw applied to VQA, application-agnostically (the paper's "JigSaw"
/// comparison): every iteration, every basis circuit runs its Global *and*
/// all of its sliding-window subset circuits, with no cross-circuit subset
/// reduction and no Global reuse.
#[derive(Clone, Debug)]
pub struct JigsawEvaluator {
    ansatz: EfficientSu2,
    grouped: GroupedHamiltonian,
    /// Every group's sliding-window subset circuits, group after group.
    reads: SubsetReads,
    /// Per group, its circuits' indices in `reads`.
    group_reads: Vec<Range<usize>>,
    pipeline: MitigationPipeline,
}

impl JigsawEvaluator {
    /// Creates a JigSaw evaluator with the given subset window size.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz and Hamiltonian qubit counts differ or
    /// `window == 0`.
    pub fn new(
        hamiltonian: &Hamiltonian,
        ansatz: EfficientSu2,
        window: usize,
        executor: SimExecutor,
    ) -> Self {
        assert_eq!(
            ansatz.num_qubits(),
            hamiltonian.num_qubits(),
            "ansatz/Hamiltonian qubit mismatch"
        );
        assert!(window > 0, "window size must be positive");
        let grouped = GroupedHamiltonian::new(hamiltonian);
        let windows: Vec<Vec<PauliString>> = grouped
            .groups()
            .iter()
            .map(|g| sliding_windows(&g.basis, window))
            .collect();
        let group_reads = windows
            .iter()
            .scan(0, |end, w| {
                let start = *end;
                *end += w.len();
                Some(start..*end)
            })
            .collect();
        JigsawEvaluator {
            ansatz,
            reads: SubsetReads::new(windows.iter().flatten()),
            grouped,
            group_reads,
            pipeline: MitigationPipeline::new(executor),
        }
    }

    /// Enables matrix-based mitigation on every measured PMF.
    pub fn with_mbm(mut self, enabled: bool) -> Self {
        self.pipeline.mbm = enabled;
        self
    }

    /// Circuits executed per objective evaluation: one Global plus all
    /// subsets for every basis group.
    pub fn circuits_per_evaluation(&self) -> usize {
        self.grouped.num_groups() + self.reads.len()
    }

    /// The grouped Hamiltonian.
    pub fn grouped(&self) -> &GroupedHamiltonian {
        &self.grouped
    }
}

impl EnergyEvaluator for JigsawEvaluator {
    /// Prepares the ansatz state, then per group runs the Global and its
    /// subset circuits and reconstructs the group's Output-PMF. The subset
    /// reads of every group share one load of the state.
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        let pipeline = &mut self.pipeline;
        let state = pipeline.executor.prepare(&self.ansatz.circuit(params));
        let loaded = self.reads.load(&state);
        let pmfs: Vec<Pmf> = self
            .grouped
            .groups()
            .iter()
            .zip(&self.group_reads)
            .map(|(g, reads)| {
                let mut output = pipeline.run_global(&state, &g.basis);
                let locals: Vec<Pmf> = reads
                    .clone()
                    .map(|i| pipeline.run_subset(&loaded, i))
                    .collect();
                pipeline.reconstruct(&mut output, &locals);
                output
            })
            .collect();
        self.grouped.energy_from_pmfs(&pmfs)
    }

    fn circuits_executed(&self) -> u64 {
        self.pipeline.executor.circuits_executed()
    }
}

/// VarSaw: JigSaw's measurement error mitigation with the spatial subset
/// reduction ([`SpatialPlan`]) and selective Global execution
/// ([`GlobalScheduler`]) — the paper's contribution.
///
/// Per objective evaluation:
///
/// 1. the reduced subset circuits execute (always);
/// 2. if the scheduler calls for it, the Globals execute too, the
///    mitigated result is computed both from the fresh Globals and from
///    the chained priors, and the comparison feeds the sparsity hill
///    climb (Fig.11);
/// 3. otherwise the previous evaluation's Output-PMFs serve as the
///    reconstruction priors (`MRᵢ` from `MRᵢ₋₁` and `MSᵢ`).
#[derive(Clone, Debug)]
pub struct VarSawEvaluator {
    ansatz: EfficientSu2,
    grouped: GroupedHamiltonian,
    plan: SpatialPlan,
    scheduler: GlobalScheduler,
    /// The previous evaluation's Output-PMFs, one per basis group (`None`
    /// before the first evaluation).
    priors: Option<Vec<Pmf>>,
    /// The plan's subset circuits, in [`SpatialPlan::subset_groups`] order.
    reads: SubsetReads,
    /// The plan's coverage deduplicated into distinct marginals.
    coverage: DistinctCoverage,
    pipeline: MitigationPipeline,
}

impl VarSawEvaluator {
    /// Creates a VarSaw evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz and Hamiltonian qubit counts differ, or
    /// `window == 0`, or the Hamiltonian has no measurable terms.
    pub fn new(
        hamiltonian: &Hamiltonian,
        ansatz: EfficientSu2,
        window: usize,
        temporal: TemporalPolicy,
        executor: SimExecutor,
    ) -> Self {
        Self::with_coefficient_floor(hamiltonian, ansatz, window, 0.0, temporal, executor)
    }

    /// [`VarSawEvaluator::new`] with selective mitigation: subsets are
    /// planned only for terms with `|coefficient| >= floor` (the
    /// Section 7.3 cost/accuracy knob — see
    /// [`SpatialPlan::with_coefficient_floor`]). Basis windows without a
    /// planned subset reconstruct from the Global alone.
    ///
    /// # Panics
    ///
    /// Same conditions as [`VarSawEvaluator::new`], plus `floor < 0`.
    pub fn with_coefficient_floor(
        hamiltonian: &Hamiltonian,
        ansatz: EfficientSu2,
        window: usize,
        floor: f64,
        temporal: TemporalPolicy,
        executor: SimExecutor,
    ) -> Self {
        assert_eq!(
            ansatz.num_qubits(),
            hamiltonian.num_qubits(),
            "ansatz/Hamiltonian qubit mismatch"
        );
        let grouped = GroupedHamiltonian::new(hamiltonian);
        let bases = grouped.groups().iter().map(|g| g.basis.clone()).collect();
        let plan = SpatialPlan::with_bases(hamiltonian, bases, window, floor);
        VarSawEvaluator {
            ansatz,
            grouped,
            reads: SubsetReads::new(plan.subset_groups().iter().map(|g| &g.basis)),
            coverage: plan.distinct_coverage(),
            plan,
            scheduler: GlobalScheduler::new(temporal),
            priors: None,
            pipeline: MitigationPipeline::new(executor),
        }
    }

    /// Enables matrix-based mitigation on every measured PMF.
    pub fn with_mbm(mut self, enabled: bool) -> Self {
        self.pipeline.mbm = enabled;
        self
    }

    /// The spatial plan (for cost statistics).
    pub fn plan(&self) -> &SpatialPlan {
        &self.plan
    }

    /// The Global scheduler (for sparsity statistics).
    pub fn scheduler(&self) -> &GlobalScheduler {
        &self.scheduler
    }

    /// The grouped Hamiltonian.
    pub fn grouped(&self) -> &GroupedHamiltonian {
        &self.grouped
    }
}

impl EnergyEvaluator for VarSawEvaluator {
    /// Prepares the ansatz state, then runs steps 1–3 of the type-level
    /// docs.
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        let pipeline = &mut self.pipeline;
        let state = pipeline.executor.prepare(&self.ansatz.circuit(params));

        // 1. Measurement Subsets: the reduced groups, all read from one
        // load of the state.
        let loaded = self.reads.load(&state);
        let subset_pmfs: Vec<Pmf> = (0..self.plan.subset_groups().len())
            .map(|i| pipeline.run_subset(&loaded, i))
            .collect();

        // The Local-PMFs, marginalized out of the groups: each distinct
        // (group, window support) marginal once, shared by every basis
        // window that reads it.
        let coverage = &self.coverage;
        let marginals: Vec<Pmf> = {
            let _span = telemetry::span(telemetry::Stage::Marginal);
            coverage
                .entries
                .iter()
                .map(|(group, support)| subset_pmfs[*group].marginal(support))
                .collect()
        };

        // 2./3. Reconstruction with fresh Globals and/or chained priors,
        // each swept in place: the priors become the chained outputs and
        // the measured Globals the fresh ones.
        let run_global = self.scheduler.should_run_global() || self.priors.is_none();

        let chained: Option<Vec<Pmf>> = self.priors.take().map(|mut priors| {
            pipeline.reconstruct_covered(&mut priors, &coverage.windows, &marginals);
            priors
        });
        let fresh: Option<Vec<Pmf>> = run_global.then(|| {
            let mut globals: Vec<Pmf> = self
                .grouped
                .groups()
                .iter()
                .map(|g| pipeline.run_global(&state, &g.basis))
                .collect();
            pipeline.reconstruct_covered(&mut globals, &coverage.windows, &marginals);
            globals
        });

        let (energy, outputs) = match (fresh, chained) {
            (Some(f), Some(c)) => {
                let ef = self.grouped.energy_from_pmfs(&f);
                let ec = self.grouped.energy_from_pmfs(&c);
                self.scheduler.feedback(ef, ec);
                if ec <= ef {
                    (ec, c)
                } else {
                    (ef, f)
                }
            }
            (Some(f), None) => (self.grouped.energy_from_pmfs(&f), f),
            (None, Some(c)) => (self.grouped.energy_from_pmfs(&c), c),
            (None, None) => unreachable!("first evaluation always runs Globals"),
        };
        self.priors = Some(outputs);
        self.scheduler.advance(run_global);
        energy
    }

    fn circuits_executed(&self) -> u64 {
        self.pipeline.executor.circuits_executed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnoise::DeviceModel;
    use vqe::{BaselineEvaluator, Entanglement};

    /// Includes a weight-3 term so the Global circuits measure more qubits
    /// than the window-2 subsets — the regime where mitigation has
    /// something to recover.
    fn toy_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_pairs(
            3,
            &[
                (-0.8, "ZZZ"),
                (-1.0, "ZZI"),
                (-1.0, "IZZ"),
                (-0.6, "XXI"),
                (-0.6, "IXX"),
                (0.4, "ZIZ"),
            ],
        )
    }

    fn ansatz() -> EfficientSu2 {
        EfficientSu2::new(3, 1, Entanglement::Full)
    }

    /// A device where subsetting matters: strong measurement crosstalk
    /// makes a 3-qubit simultaneous readout much noisier per qubit than a
    /// 2-qubit subset readout. (With no crosstalk and identical qubits the
    /// locals equal the global's own marginals and reconstruction is a
    /// fixpoint — correctly, there is nothing to mitigate.)
    fn crosstalky_device() -> DeviceModel {
        DeviceModel::new(
            "crosstalky",
            vec![qnoise::ReadoutError::symmetric(0.04); 3],
            qnoise::CrosstalkModel::new(0.6),
            0.0,
        )
    }

    #[test]
    fn noiseless_varsaw_matches_baseline_energy() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(3);
        let mut base = BaselineEvaluator::new(
            &h,
            ansatz(),
            SimExecutor::exact(DeviceModel::noiseless(3), 1),
        );
        let mut vs = VarSawEvaluator::new(
            &h,
            ansatz(),
            2,
            TemporalPolicy::EveryIteration,
            SimExecutor::exact(DeviceModel::noiseless(3), 1),
        );
        let eb = base.evaluate(&params);
        let ev = vs.evaluate(&params);
        assert!(
            (eb - ev).abs() < 1e-6,
            "baseline {eb} vs varsaw {ev} (noiseless should agree)"
        );
    }

    #[test]
    fn varsaw_reduces_measurement_bias_under_noise() {
        // At fixed parameters, the mitigated estimate should sit closer to
        // the ideal value than the unmitigated baseline estimate.
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(7);
        let dev = crosstalky_device();
        let mut ideal = BaselineEvaluator::new(
            &h,
            ansatz(),
            SimExecutor::exact(DeviceModel::noiseless(3), 1),
        );
        let mut noisy = BaselineEvaluator::new(&h, ansatz(), SimExecutor::exact(dev.clone(), 1));
        let mut vs = VarSawEvaluator::new(
            &h,
            ansatz(),
            2,
            TemporalPolicy::EveryIteration,
            SimExecutor::exact(dev, 1),
        );
        let e_ideal = ideal.evaluate(&params);
        let e_noisy = noisy.evaluate(&params);
        let e_vs = vs.evaluate(&params);
        assert!(
            (e_vs - e_ideal).abs() < (e_noisy - e_ideal).abs(),
            "varsaw {e_vs}, noisy {e_noisy}, ideal {e_ideal}"
        );
    }

    #[test]
    fn jigsaw_reduces_measurement_bias_under_noise() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(7);
        let dev = crosstalky_device();
        let mut ideal = BaselineEvaluator::new(
            &h,
            ansatz(),
            SimExecutor::exact(DeviceModel::noiseless(3), 1),
        );
        let mut noisy = BaselineEvaluator::new(&h, ansatz(), SimExecutor::exact(dev.clone(), 1));
        let mut js = JigsawEvaluator::new(&h, ansatz(), 2, SimExecutor::exact(dev, 1));
        let e_ideal = ideal.evaluate(&params);
        let e_noisy = noisy.evaluate(&params);
        let e_js = js.evaluate(&params);
        assert!(
            (e_js - e_ideal).abs() < (e_noisy - e_ideal).abs(),
            "jigsaw {e_js}, noisy {e_noisy}, ideal {e_ideal}"
        );
    }

    #[test]
    fn varsaw_costs_fewer_circuits_than_jigsaw() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(1);
        let dev = DeviceModel::mumbai_like();
        let mut js = JigsawEvaluator::new(&h, ansatz(), 2, SimExecutor::new(dev.clone(), 64, 1));
        let mut vs = VarSawEvaluator::new(
            &h,
            ansatz(),
            2,
            TemporalPolicy::OneShot,
            SimExecutor::new(dev, 64, 1),
        );
        for _ in 0..5 {
            js.evaluate(&params);
            vs.evaluate(&params);
        }
        assert!(
            vs.circuits_executed() < js.circuits_executed(),
            "varsaw {} vs jigsaw {}",
            vs.circuits_executed(),
            js.circuits_executed()
        );
    }

    #[test]
    fn one_shot_policy_runs_globals_once() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(2);
        let n_bases = GroupedHamiltonian::new(&h).num_groups() as u64;
        let mut vs = VarSawEvaluator::new(
            &h,
            ansatz(),
            2,
            TemporalPolicy::OneShot,
            SimExecutor::new(DeviceModel::mumbai_like(), 64, 2),
        );
        let subsets = vs.plan().stats().varsaw_subsets as u64;
        vs.evaluate(&params);
        let first = vs.circuits_executed();
        assert_eq!(
            first,
            subsets + n_bases,
            "first eval runs subsets + globals"
        );
        vs.evaluate(&params);
        assert_eq!(
            vs.circuits_executed(),
            first + subsets,
            "later evals run subsets only"
        );
        assert_eq!(vs.scheduler().globals_run(), 1);
    }

    #[test]
    fn adaptive_scheduler_state_progresses() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(4);
        let mut vs = VarSawEvaluator::new(
            &h,
            ansatz(),
            2,
            TemporalPolicy::Adaptive {
                initial_interval: 2,
            },
            SimExecutor::new(DeviceModel::mumbai_like(), 128, 4),
        );
        for _ in 0..12 {
            vs.evaluate(&params);
        }
        assert_eq!(vs.scheduler().evaluations(), 12);
        let frac = vs.scheduler().global_fraction();
        assert!(frac < 1.0 && frac > 0.0, "fraction {frac}");
    }

    /// The contract every [`EnergyEvaluator::evaluate_batch`] caller
    /// relies on: a probe family gives bit-for-bit the energies, circuit
    /// count and RNG advancement of evaluating the probes one by one.
    #[test]
    fn evaluate_batch_matches_sequential_evaluates() {
        fn check<E: EnergyEvaluator + Clone>(label: &str, eval: E, probes: &[Vec<f64>; 3]) {
            let [a, b, next] = probes;
            let mut batched = eval.clone();
            let mut sequential = eval;
            for round in 0..3 {
                let got = batched.evaluate_batch(&[a, b]);
                let want = [sequential.evaluate(a), sequential.evaluate(b)];
                let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{label} round {round}");
                assert_eq!(
                    batched.circuits_executed(),
                    sequential.circuits_executed(),
                    "{label} round {round}"
                );
            }
            assert_eq!(
                batched.evaluate(next).to_bits(),
                sequential.evaluate(next).to_bits(),
                "{label}: RNG streams diverged"
            );
        }

        let h = toy_hamiltonian();
        let probes = [
            ansatz().initial_parameters(11),
            ansatz().initial_parameters(12),
            ansatz().initial_parameters(13),
        ];
        let exec = || SimExecutor::new(DeviceModel::mumbai_like(), 256, 17);
        check(
            "baseline",
            BaselineEvaluator::new(&h, ansatz(), exec()),
            &probes,
        );
        check(
            "jigsaw",
            JigsawEvaluator::new(&h, ansatz(), 2, exec()),
            &probes,
        );
        let adaptive = TemporalPolicy::Adaptive {
            initial_interval: 2,
        };
        check(
            "varsaw",
            VarSawEvaluator::new(&h, ansatz(), 2, adaptive, exec()),
            &probes,
        );
    }

    /// The evaluator plans from its own grouping; the plan must be the one
    /// the public constructor groups for itself, floor or no floor.
    #[test]
    fn evaluator_plan_matches_the_public_plan() {
        let h = toy_hamiltonian();
        for floor in [0.0, 0.7] {
            let vs = VarSawEvaluator::with_coefficient_floor(
                &h,
                ansatz(),
                2,
                floor,
                TemporalPolicy::EveryIteration,
                SimExecutor::exact(DeviceModel::noiseless(3), 1),
            );
            let public = SpatialPlan::with_coefficient_floor(&h, 2, floor);
            let plan = vs.plan();
            assert_eq!(plan.bases(), public.bases());
            assert_eq!(plan.subset_groups(), public.subset_groups());
            assert_eq!(plan.stats(), public.stats());
            for b in 0..plan.bases().len() {
                assert_eq!(plan.coverage(b), public.coverage(b), "floor {floor}");
            }
        }
    }

    #[test]
    fn jigsaw_circuit_count_formula_matches_execution() {
        let h = toy_hamiltonian();
        let params = ansatz().initial_parameters(5);
        let mut js = JigsawEvaluator::new(
            &h,
            ansatz(),
            2,
            SimExecutor::new(DeviceModel::mumbai_like(), 32, 5),
        );
        let per_eval = js.circuits_per_evaluation() as u64;
        js.evaluate(&params);
        assert_eq!(js.circuits_executed(), per_eval);
    }
}
