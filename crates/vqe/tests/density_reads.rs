//! Oracle for subset reads from reduced density matrices: on random
//! states, every X/Y/Z basis over a random support of one to three qubits
//! must read what rotating a copy of the state and marginalizing it
//! reads, to `1e-14`.

use pauli::{Pauli, PauliString};
use proptest::prelude::*;
use qnoise::DeviceModel;
use qsim::{CircuitPlan, Statevector, C64};
use rand::{rngs::StdRng, Rng, SeedableRng};
use vqe::{basis_rotation, SimExecutor, SubsetReads};

/// A normalized state of `n` qubits with independent random amplitudes.
fn random_state(n: usize, rng: &mut StdRng) -> Statevector {
    let mut st = Statevector::zero(n);
    for a in st.amplitudes_mut() {
        *a = C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5);
    }
    let norm = st.norm_sqr().sqrt();
    for a in st.amplitudes_mut() {
        *a = *a * (1.0 / norm);
    }
    st
}

/// The clone → rotate → marginal read of `basis`, normalized as a PMF.
fn reference(state: &Statevector, basis: &PauliString) -> Vec<f64> {
    let mut st = state.clone();
    st.apply_plan(&CircuitPlan::compile(&basis_rotation(basis)));
    let p = st.marginal_probabilities(&basis.support());
    let total: f64 = p.iter().sum();
    p.iter().map(|x| x / total).collect()
}

proptest! {
    #[test]
    fn density_reads_match_rotate_and_marginal(
        n in 2usize..=12,
        width in 1usize..=3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_state(n, &mut rng);
        // A random support: `width` distinct qubits, at most all of them.
        let width = width.min(n);
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in 0..width {
            let j = rng.random_range(i..n);
            qubits.swap(i, j);
        }
        let support = &qubits[..width];
        // Every X/Y/Z assignment on the support, identity elsewhere.
        let bases: Vec<PauliString> = (0..3usize.pow(width as u32))
            .map(|code| {
                let mut paulis = vec![Pauli::I; n];
                for (j, &q) in support.iter().enumerate() {
                    paulis[q] = [Pauli::X, Pauli::Y, Pauli::Z][code / 3usize.pow(j as u32) % 3];
                }
                PauliString::new(paulis)
            })
            .collect();
        let mut reads = SubsetReads::new(&bases);
        prop_assert_eq!(reads.num_supports(), 1);
        let loaded = reads.load(&state);
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(n), 1);
        for (i, basis) in bases.iter().enumerate() {
            let got = exec.run_subset(&loaded, i);
            prop_assert_eq!(got.qubits(), basis.support().as_slice());
            for (g, w) in got.probs().iter().zip(reference(&state, basis)) {
                prop_assert!((g - w).abs() <= 1e-14, "{basis}: {g} vs {w}");
            }
        }
    }
}
