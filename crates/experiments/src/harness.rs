//! Shared experiment harness: workload construction and trial running,
//! fanned out over scoped threads by [`parallel_map`].
//!
//! # Example
//!
//! ```
//! // Square every input on up to `num_threads()` workers, in input order.
//! let squares = experiments::harness::parallel_map((0..1000u64).collect(), |&x| x * x);
//! assert_eq!(squares.iter().sum::<u64>(), (0..1000u64).map(|x| x * x).sum());
//! ```

use crate::config::num_threads;
use chem::{molecular_hamiltonian, MoleculeSpec};
use qnoise::DeviceModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use varsaw::{run_method, Method, MethodOutcome, RunSetup, TemporalPolicy};
use vqe::{EfficientSu2, Entanglement, VqeConfig};

/// Global experiment options parsed from the command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Paper-scale parameters (`--full`) vs the scaled-down defaults.
    pub full: bool,
    /// Output directory for CSV artifacts.
    pub out_dir: std::path::PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            full: false,
            out_dir: std::path::PathBuf::from("results"),
        }
    }
}

impl Options {
    /// VQE iterations for the long tuning studies (paper: 2000).
    pub fn iterations(&self) -> usize {
        if self.full {
            2000
        } else {
            240
        }
    }

    /// Independent trials averaged per configuration (paper: up to 10).
    pub fn trials(&self) -> u64 {
        if self.full {
            7
        } else {
            3
        }
    }

    /// Shots per circuit.
    pub fn shots(&self) -> u64 {
        1024
    }
}

/// The standard per-molecule setup of the paper's evaluation: synthetic
/// molecular Hamiltonian, full-entanglement EfficientSU2 with 2 reps,
/// IBMQ-Mumbai-like noise, window-2 subsets.
pub fn molecule_setup(spec: &MoleculeSpec, seed: u64) -> RunSetup {
    let h = molecular_hamiltonian(spec);
    let ansatz = EfficientSu2::new(spec.qubits, 2, Entanglement::Full);
    let mut setup = RunSetup::new(h, ansatz, DeviceModel::mumbai_like(), seed);
    setup.shots = 1024;
    setup
}

/// Replaces the device of a setup (noise sweeps, noiseless ideals).
pub fn with_device(mut setup: RunSetup, device: DeviceModel) -> RunSetup {
    setup.device = device;
    setup
}

/// Runs `trials` seeds of the same (setup-template, method) and returns all
/// outcomes, in seed order, computed in parallel.
pub fn run_trials(
    make_setup: impl Fn(u64) -> RunSetup + Sync,
    method: Method,
    config: &VqeConfig,
    trials: u64,
) -> Vec<MethodOutcome> {
    parallel_map((0..trials).collect::<Vec<_>>(), |&t| {
        let setup = make_setup(1000 + t * 7919);
        run_method(&setup, method, config)
    })
}

/// The mean converged energy across trial outcomes (tail-averaged traces).
pub fn mean_converged(outcomes: &[MethodOutcome], tail: f64) -> f64 {
    let sum: f64 = outcomes
        .iter()
        .map(|o| o.trace.converged_energy(tail))
        .sum();
    sum / outcomes.len() as f64
}

/// Order-preserving parallel map: applies `f` to every item on up to
/// [`num_threads`] scoped worker threads and collects the results in
/// input order.
///
/// Workers are spawned per call (there is no pool) and joined before it
/// returns, so callers parallelize coarse units of work — whole VQE
/// trials — rather than loop iterations. Items are claimed through an
/// atomic cursor, so uneven per-item costs balance. With one worker or
/// one item this is a sequential map with no thread spawns; the calling
/// thread is always one of the workers. A panic in any worker
/// propagates.
///
/// # Examples
///
/// ```
/// let doubled = experiments::harness::parallel_map((0..100).collect::<Vec<_>>(), |&x| x * 2);
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T: Sync, R: Send>(items: Vec<T>, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let workers = num_threads().min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slots: Vec<Mutex<&mut Option<R>>> = results.iter_mut().map(Mutex::new).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(&items[i]);
        **slots[i].lock().expect("slot lock") = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// The paper's default VarSaw temporal policy for experiments.
pub fn adaptive() -> Method {
    Method::VarSaw(TemporalPolicy::Adaptive {
        initial_interval: 2,
    })
}

/// VarSaw with Globals every evaluation ("no sparsity").
pub fn no_sparsity() -> Method {
    Method::VarSaw(TemporalPolicy::EveryIteration)
}

/// VarSaw with a single Global ("max sparsity").
pub fn max_sparsity() -> Method {
    Method::VarSaw(TemporalPolicy::OneShot)
}

#[cfg(test)]
mod tests {
    use super::*;

    // More items than any worker count, so the multi-worker path runs
    // whenever the host has more than one core.
    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..200).collect(), |&x| x * 2);
        assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn molecule_setup_uses_paper_defaults() {
        let spec = MoleculeSpec::find("H2", 4).unwrap();
        let setup = molecule_setup(&spec, 1);
        assert_eq!(setup.window, 2);
        assert_eq!(setup.shots, 1024);
        assert_eq!(setup.ansatz.num_qubits(), 4);
        assert_eq!(setup.ansatz.reps(), 2);
    }
}
