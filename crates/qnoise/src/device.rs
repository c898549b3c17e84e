//! Synthetic device (noise) models.
//!
//! The paper evaluates on noise models of real IBM machines (IBMQ Mumbai for
//! the simulation studies, Lagos and Jakarta for the "real device" section).
//! We have no access to IBM calibration data, so this module generates
//! *deterministic synthetic* devices with per-qubit readout-error rates in
//! the 1–7% band the paper cites, asymmetric in the hardware-typical
//! direction, plus a crosstalk model and an optional depolarizing channel
//! standing in for all non-measurement noise. See ARCHITECTURE.md for the
//! substitution rationale.

use crate::crosstalk::CrosstalkModel;
use crate::readout::ReadoutError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A quantum device's noise description: per-physical-qubit readout errors,
/// measurement crosstalk, and a circuit-level depolarizing rate standing in
/// for gate/decoherence noise.
///
/// # Examples
///
/// ```
/// use qnoise::DeviceModel;
///
/// let dev = DeviceModel::mumbai_like();
/// assert_eq!(dev.num_qubits(), 27);
/// let best = dev.best_qubits(2);
/// assert!(dev.readout(best[0]).average() <= dev.readout(best[1]).average());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    name: String,
    readout: Vec<ReadoutError>,
    crosstalk: CrosstalkModel,
    depolarizing: f64,
}

impl DeviceModel {
    /// Builds a device from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `readout` is empty or `depolarizing` is outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        readout: Vec<ReadoutError>,
        crosstalk: CrosstalkModel,
        depolarizing: f64,
    ) -> Self {
        assert!(!readout.is_empty(), "device needs at least one qubit");
        assert!(
            (0.0..=1.0).contains(&depolarizing),
            "depolarizing rate must lie in [0, 1]"
        );
        DeviceModel {
            name: name.into(),
            readout,
            crosstalk,
            depolarizing,
        }
    }

    /// A noiseless device with `n` qubits.
    pub fn noiseless(n: usize) -> Self {
        DeviceModel::new(
            format!("noiseless-{n}"),
            vec![ReadoutError::NONE; n],
            CrosstalkModel::NONE,
            0.0,
        )
    }

    /// A device with `n` qubits, all with symmetric readout error `p`, no
    /// crosstalk and no depolarizing — handy in tests.
    pub fn uniform(n: usize, p: f64) -> Self {
        DeviceModel::new(
            format!("uniform-{n}-{p}"),
            vec![ReadoutError::symmetric(p); n],
            CrosstalkModel::NONE,
            0.0,
        )
    }

    /// A 27-qubit device patterned on the paper's primary noise model
    /// (IBMQ Mumbai): readout flip rates spread over ≈1–6% with the p01
    /// (relaxation) direction 1.5–2.5× worse, moderate crosstalk and a small
    /// depolarizing floor.
    pub fn mumbai_like() -> Self {
        Self::synthetic("mumbai-like", 27, 0.010, 0.030, 0.25, 0.01, 0xA11CE)
    }

    /// A 7-qubit device patterned on IBM Lagos (used in the paper's Fig.16).
    pub fn lagos_like() -> Self {
        Self::synthetic("lagos-like", 7, 0.012, 0.035, 0.30, 0.015, 0x1A605)
    }

    /// A 7-qubit device patterned on IBM Jakarta (Fig.16), slightly noisier
    /// than [`DeviceModel::lagos_like`].
    pub fn jakarta_like() -> Self {
        Self::synthetic("jakarta-like", 7, 0.016, 0.045, 0.35, 0.02, 0x7A4A)
    }

    /// Deterministic synthetic device: `n` qubits with `p10` drawn uniformly
    /// from `[p10_lo, p10_hi]` and `p01 = (1.5–2.5)·p10`, crosstalk
    /// amplification `ct` per simultaneous neighbor, depolarizing rate
    /// `depol`. The same `(name, seed)` always yields the same device.
    pub fn synthetic(
        name: &str,
        n: usize,
        p10_lo: f64,
        p10_hi: f64,
        ct: f64,
        depol: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let readout = (0..n)
            .map(|_| {
                let p10 = p10_lo + rng.random::<f64>() * (p10_hi - p10_lo);
                let ratio = 1.5 + rng.random::<f64>();
                ReadoutError::new(p10, (p10 * ratio).min(0.5))
            })
            .collect();
        DeviceModel::new(name, readout, CrosstalkModel::new(ct), depol)
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.readout.len()
    }

    /// The readout error of physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn readout(&self, q: usize) -> ReadoutError {
        self.readout[q]
    }

    /// The crosstalk model.
    pub fn crosstalk(&self) -> CrosstalkModel {
        self.crosstalk
    }

    /// The circuit-level depolarizing rate.
    pub fn depolarizing(&self) -> f64 {
        self.depolarizing
    }

    /// The `k` physical qubits with the lowest average readout error,
    /// best first.
    ///
    /// JigSaw/VarSaw subset circuits are mapped onto these (Section 2.3:
    /// "mapping the target logical qubits to be measured onto the physical
    /// qubits with highest measurement fidelity").
    ///
    /// # Panics
    ///
    /// Panics if `k > num_qubits`.
    pub fn best_qubits(&self, k: usize) -> Vec<usize> {
        assert!(
            k <= self.num_qubits(),
            "requested {k} qubits from a {}-qubit device",
            self.num_qubits()
        );
        let mut order: Vec<usize> = (0..self.num_qubits()).collect();
        order.sort_by(|&a, &b| {
            self.readout[a]
                .average()
                .partial_cmp(&self.readout[b].average())
                .expect("error rates are not NaN")
        });
        order.truncate(k);
        order
    }

    /// The device-average readout error.
    pub fn average_readout_error(&self) -> f64 {
        self.readout.iter().map(|e| e.average()).sum::<f64>() / self.num_qubits() as f64
    }

    /// A copy of the device with every error rate multiplied by `factor`
    /// (flip probabilities saturate at 0.5, depolarizing at 1.0) — the
    /// paper's Appendix B noise sweep.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    pub fn scaled(&self, factor: f64) -> DeviceModel {
        assert!(factor >= 0.0, "scale factor must be nonnegative");
        DeviceModel {
            name: format!("{}×{:.2}", self.name, factor),
            readout: self.readout.iter().map(|e| e.scaled(factor)).collect(),
            crosstalk: self.crosstalk,
            depolarizing: (self.depolarizing * factor).min(1.0),
        }
    }

    /// The effective readout error of physical qubit `q` when `measured`
    /// qubits are read out simultaneously (crosstalk-amplified).
    pub fn effective_readout(&self, q: usize, measured: usize) -> ReadoutError {
        self.readout[q].scaled(self.crosstalk.factor(measured))
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, avg readout {:.3}, crosstalk {:.2}/neighbor, depol {:.3})",
            self.name,
            self.num_qubits(),
            self.average_readout_error(),
            self.crosstalk.per_neighbor(),
            self.depolarizing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_deterministic() {
        assert_eq!(DeviceModel::mumbai_like(), DeviceModel::mumbai_like());
        assert_eq!(DeviceModel::lagos_like(), DeviceModel::lagos_like());
        assert_eq!(DeviceModel::jakarta_like(), DeviceModel::jakarta_like());
    }

    #[test]
    fn preset_error_rates_are_in_paper_band() {
        for dev in [
            DeviceModel::mumbai_like(),
            DeviceModel::lagos_like(),
            DeviceModel::jakarta_like(),
        ] {
            for q in 0..dev.num_qubits() {
                let e = dev.readout(q);
                assert!(e.p10() >= 0.005 && e.p10() <= 0.08, "{e}");
                assert!(e.p01() >= e.p10(), "p01 should dominate: {e}");
            }
            let avg = dev.average_readout_error();
            assert!(avg > 0.01 && avg < 0.07, "avg {avg} outside 1–7%");
        }
    }

    #[test]
    fn best_qubits_are_sorted_by_error() {
        let dev = DeviceModel::mumbai_like();
        let best = dev.best_qubits(27);
        for w in best.windows(2) {
            assert!(dev.readout(w[0]).average() <= dev.readout(w[1]).average());
        }
    }

    #[test]
    fn scaling_scales_average_error() {
        let dev = DeviceModel::uniform(4, 0.05);
        let scaled = dev.scaled(2.0);
        assert!((scaled.average_readout_error() - 0.1).abs() < 1e-12);
        let silenced = dev.scaled(0.0);
        assert_eq!(silenced.average_readout_error(), 0.0);
    }

    #[test]
    fn effective_readout_includes_crosstalk() {
        let dev = DeviceModel::new(
            "t",
            vec![ReadoutError::symmetric(0.02); 4],
            CrosstalkModel::new(0.5),
            0.0,
        );
        let isolated = dev.effective_readout(0, 1);
        let grouped = dev.effective_readout(0, 4);
        assert_eq!(isolated.average(), 0.02);
        assert!((grouped.average() - 0.05).abs() < 1e-12); // 0.02 · (1 + 0.5·3)
    }

    #[test]
    fn noiseless_device_is_error_free() {
        let dev = DeviceModel::noiseless(5);
        assert_eq!(dev.average_readout_error(), 0.0);
        assert_eq!(dev.depolarizing(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn empty_device_rejected() {
        DeviceModel::new("x", vec![], CrosstalkModel::NONE, 0.0);
    }
}
