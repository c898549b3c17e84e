//! A single-circuit look at the mitigation machinery, without any VQE:
//! corrupt a GHZ distribution with realistic readout noise, reconstruct it
//! with JigSaw's Bayesian method, and compare with matrix-based mitigation.
//!
//! ```sh
//! cargo run --release --example mitigation_playground
//! ```

use mitigation::{mbm_correct, reconstruct, Pmf};
use qnoise::{apply_readout_errors, DeviceModel};
use qsim::{Circuit, Statevector};

fn main() {
    // A 5-qubit GHZ state: the classic readout-error victim.
    let n = 5;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 1..n {
        circuit.cx(q - 1, q);
    }
    let mut state = Statevector::zero(n);
    state.apply_circuit(&circuit);
    let qubits: Vec<usize> = (0..n).collect();
    let ideal = Pmf::new(qubits.clone(), state.probabilities());

    // Corrupt it: all five qubits measured simultaneously on a noisy device.
    let device = DeviceModel::jakarta_like();
    let errors: Vec<_> = device
        .best_qubits(n)
        .into_iter()
        .map(|q| device.effective_readout(q, n))
        .collect();
    let mut noisy = ideal.probs().to_vec();
    apply_readout_errors(&mut noisy, &errors);
    let global = Pmf::new(qubits.clone(), noisy);

    // JigSaw locals: clean pairwise windows (measured 2-at-a-time on the
    // best qubits, so nearly noise-free).
    let locals: Vec<Pmf> = (0..n - 1)
        .map(|w| {
            let sub = [w, w + 1];
            let marg = ideal.marginal(&sub);
            let errs: Vec<_> = device
                .best_qubits(2)
                .into_iter()
                .map(|q| device.effective_readout(q, 2))
                .collect();
            let mut p = marg.probs().to_vec();
            apply_readout_errors(&mut p, &errs);
            Pmf::new(sub.to_vec(), p)
        })
        .collect();

    let jigsaw = reconstruct(&global, &locals);
    let mbm = mbm_correct(
        &global,
        &device
            .best_qubits(n)
            .into_iter()
            .map(|q| device.readout(q))
            .collect::<Vec<_>>(),
    );

    println!("GHZ-{n} on {device}\n");
    println!("fidelity to ideal (higher is better):");
    println!("  noisy global         : {:.4}", global.fidelity(&ideal));
    println!("  jigsaw reconstruction: {:.4}", jigsaw.fidelity(&ideal));
    println!("  matrix-based (MBM)   : {:.4}", mbm.fidelity(&ideal));
    println!("\ntotal variation distance (lower is better):");
    println!("  noisy global         : {:.4}", global.tvd(&ideal));
    println!("  jigsaw reconstruction: {:.4}", jigsaw.tvd(&ideal));
    println!("  matrix-based (MBM)   : {:.4}", mbm.tvd(&ideal));
    println!("\nMBM knows the calibration but not the crosstalk; JigSaw needs no calibration.");
}
