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
use qsim::{Circuit, Statevector};
use std::borrow::Borrow;
use vqe::{BatchJob, EfficientSu2, EnergyEvaluator, GroupedHamiltonian, SimExecutor};

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
    recon: ReconstructionConfig,
    reconstructor: Reconstructor,
    mbm: bool,
}

impl MitigationPipeline {
    /// Wraps an executor with a fresh reconstruction engine.
    fn new(executor: SimExecutor) -> Self {
        MitigationPipeline {
            executor,
            recon: ReconstructionConfig::default(),
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

    /// Runs a whole measurement family (subset and Global circuits) as
    /// one batched executor dispatch — exactly equivalent to running the
    /// jobs one by one (see [`SimExecutor::run_batch`]), with MBM applied
    /// to each result in order.
    fn run_measurements(&mut self, jobs: &[BatchJob<'_>]) -> Vec<Pmf> {
        let pmfs = self.executor.run_batch(jobs);
        pmfs.into_iter().map(|pmf| self.correct(pmf)).collect()
    }

    /// Bayesian reconstruction through the persistent engine, in place:
    /// `prior` becomes the Output-PMF. The locals may be owned or
    /// borrowed.
    fn reconstruct<L: Borrow<Pmf>>(&mut self, prior: &mut Pmf, locals: &[L]) {
        self.reconstructor.sweep(prior, locals, self.recon);
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
    window: usize,
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
        JigsawEvaluator {
            ansatz,
            grouped: GroupedHamiltonian::new(hamiltonian),
            window,
            pipeline: MitigationPipeline::new(executor),
        }
    }

    /// Enables matrix-based mitigation on every measured PMF.
    pub fn with_mbm(mut self, enabled: bool) -> Self {
        self.pipeline.mbm = enabled;
        self
    }

    /// Overrides the reconstruction configuration.
    pub fn with_reconstruction(mut self, recon: ReconstructionConfig) -> Self {
        self.pipeline.recon = recon;
        self
    }

    /// Circuits executed per objective evaluation: one Global plus all
    /// subsets for every basis group.
    pub fn circuits_per_evaluation(&self) -> usize {
        self.grouped
            .groups()
            .iter()
            .map(|g| 1 + sliding_windows(&g.basis, self.window).len())
            .sum()
    }

    /// The grouped Hamiltonian.
    pub fn grouped(&self) -> &GroupedHamiltonian {
        &self.grouped
    }
}

impl JigsawEvaluator {
    /// One objective evaluation against an already-prepared ansatz
    /// state: every group's Global and subset circuits dispatched as
    /// **one** executor batch (in the same order sequential execution
    /// would submit them, so sampling streams match run for run), then
    /// per-group Bayesian reconstruction.
    fn evaluate_prepared(&mut self, state: &Statevector) -> f64 {
        let windows: Vec<Vec<PauliString>> = self
            .grouped
            .groups()
            .iter()
            .map(|g| sliding_windows(&g.basis, self.window))
            .collect();
        let mut jobs: Vec<BatchJob<'_>> = Vec::new();
        for (g, wins) in self.grouped.groups().iter().zip(&windows) {
            jobs.push(BatchJob::global(state, &g.basis));
            for w in wins {
                jobs.push(BatchJob::subset(state, w));
            }
        }
        let pipeline = &mut self.pipeline;
        let mut results = pipeline.run_measurements(&jobs).into_iter();
        let pmfs: Vec<Pmf> = windows
            .iter()
            .map(|wins| {
                let mut output = results.next().expect("one Global per group");
                let locals: Vec<Pmf> = wins
                    .iter()
                    .map(|_| results.next().expect("one PMF per subset"))
                    .collect();
                pipeline.reconstruct(&mut output, &locals);
                output
            })
            .collect();
        self.grouped.energy_from_pmfs(&pmfs)
    }
}

impl EnergyEvaluator for JigsawEvaluator {
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        let state = self.pipeline.executor.prepare(&self.ansatz.circuit(params));
        self.evaluate_prepared(&state)
    }

    /// A probe family as one batch: ansatz states prepared together
    /// against one cached plan ([`SimExecutor::prepare_batch`]), then
    /// each probe's measurement family dispatched batched, in probe
    /// order — exactly the sequential results, seed for seed.
    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        let circuits: Vec<Circuit> = param_sets.iter().map(|p| self.ansatz.circuit(p)).collect();
        let states = self.pipeline.executor.prepare_batch(&circuits);
        states
            .iter()
            .map(|state| self.evaluate_prepared(state))
            .collect()
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
    /// The plan's coverage deduplicated into distinct marginals, built on
    /// the first evaluation (`None` before it).
    coverage: Option<DistinctCoverage>,
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
        let plan = SpatialPlan::with_coefficient_floor(hamiltonian, window, floor);
        // Both derive their bases from the same cover-grouping; keep the
        // invariant explicit.
        for (g, b) in grouped.groups().iter().zip(plan.bases()) {
            assert_eq!(&g.basis, b, "grouping/bases order drifted");
        }
        VarSawEvaluator {
            ansatz,
            grouped,
            plan,
            scheduler: GlobalScheduler::new(temporal),
            priors: None,
            coverage: None,
            pipeline: MitigationPipeline::new(executor),
        }
    }

    /// Enables matrix-based mitigation on every measured PMF.
    pub fn with_mbm(mut self, enabled: bool) -> Self {
        self.pipeline.mbm = enabled;
        self
    }

    /// Overrides the reconstruction configuration.
    pub fn with_reconstruction(mut self, recon: ReconstructionConfig) -> Self {
        self.pipeline.recon = recon;
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

impl VarSawEvaluator {
    /// One objective evaluation against an already-prepared ansatz state
    /// (steps 1–3 of the type-level docs). The reduced subset family —
    /// and, on Global iterations, the Global family — each go through
    /// one batched executor dispatch in the order sequential execution
    /// would submit them.
    fn evaluate_prepared(&mut self, state: &Statevector) -> f64 {
        let pipeline = &mut self.pipeline;

        // 1. Measurement Subsets: the reduced groups, one batch.
        let subset_jobs: Vec<BatchJob<'_>> = self
            .plan
            .subset_groups()
            .iter()
            .map(|g| BatchJob::subset(state, &g.basis))
            .collect();
        let subset_pmfs: Vec<Pmf> = pipeline.run_measurements(&subset_jobs);

        // The Local-PMFs, marginalized out of the groups: each distinct
        // (group, window support) marginal once, shared by every basis
        // window that reads it.
        let (coverage, marginals) = {
            let _span = telemetry::span(telemetry::Stage::Marginal);
            let coverage = self
                .coverage
                .get_or_insert_with(|| self.plan.distinct_coverage());
            let marginals: Vec<Pmf> = coverage
                .entries
                .iter()
                .map(|(group, support)| subset_pmfs[*group].marginal(support))
                .collect();
            (&*coverage, marginals)
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
            // The fresh Globals as one batch (reconstruction consumes no
            // randomness, so batching them ahead of the per-group
            // reconstructions leaves the sampling streams unchanged).
            let global_jobs: Vec<BatchJob<'_>> = self
                .grouped
                .groups()
                .iter()
                .map(|g| BatchJob::global(state, &g.basis))
                .collect();
            let mut globals = pipeline.run_measurements(&global_jobs);
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
}

impl EnergyEvaluator for VarSawEvaluator {
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        let state = self.pipeline.executor.prepare(&self.ansatz.circuit(params));
        self.evaluate_prepared(&state)
    }

    /// A probe family with batched state preparation. The prior-chaining
    /// and Global-scheduling state advance per probe, in order — exactly
    /// as sequential evaluation would (preparation consumes no
    /// randomness), so traces and scheduler decisions are unchanged.
    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        let circuits: Vec<Circuit> = param_sets.iter().map(|p| self.ansatz.circuit(p)).collect();
        let states = self.pipeline.executor.prepare_batch(&circuits);
        states
            .iter()
            .map(|state| self.evaluate_prepared(state))
            .collect()
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
