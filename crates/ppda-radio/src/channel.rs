//! Radio channel model: log-distance path loss, shadowing, RSSI→PRR, and
//! the constructive-interference reliability of concurrent transmissions.
//!
//! The model follows the standard indoor-propagation parameterization used
//! in low-power wireless simulation: received power is
//!
//! ```text
//! RSSI(d) = Ptx − PL₀ − 10·η·log₁₀(d/d₀) − X_σ
//! ```
//!
//! with a static per-link shadowing term `X_σ` (drawn once per deployment,
//! capturing walls/furniture) and per-packet fading applied as a soft
//! RSSI→PRR curve around the receiver sensitivity.
//!
//! Concurrent transmitters in a Glossy flood or a MiniCast sub-slot always
//! send the *same* packet: baseband-identical signals superpose, so
//! reception succeeds if *any* copy would have been received, scaled by
//! [`CI_RELIABILITY`] (timing misalignment beyond ±0.5 µs occasionally
//! corrupts the superposition). The CT engine in `ppda-ct` applies that
//! rule per sub-slot.

use ppda_sim::Xoshiro256;

use crate::phy;

/// Log-distance path-loss channel with shadowing.
///
/// # Example
///
/// ```
/// use ppda_radio::PathLossModel;
/// let model = PathLossModel::indoor_office();
/// let near = model.prr_from_rssi(model.rssi_dbm(3.0, 0.0));
/// let far = model.prr_from_rssi(model.rssi_dbm(120.0, 0.0));
/// assert!(near > 0.99);
/// assert!(far < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path loss at the reference distance (dB).
    pub pl0_db: f64,
    /// Reference distance (m).
    pub d0_m: f64,
    /// Path-loss exponent η.
    pub exponent: f64,
    /// Standard deviation of the static (per-link) shadowing term (dB).
    pub shadowing_sigma_db: f64,
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// Receiver sensitivity (dBm).
    pub sensitivity_dbm: f64,
    /// Width (dB) of the soft PRR transition around sensitivity.
    pub transition_db: f64,
}

impl PathLossModel {
    /// Parameters for an indoor office/lab building (FlockLab-like):
    /// η = 3.2, σ = 3 dB, ~50 m usable range at 0 dBm.
    pub fn indoor_office() -> Self {
        PathLossModel {
            pl0_db: 46.0,
            d0_m: 1.0,
            exponent: 3.2,
            shadowing_sigma_db: 3.0,
            tx_power_dbm: phy::TX_POWER_DBM,
            sensitivity_dbm: phy::SENSITIVITY_DBM,
            transition_db: 7.0,
        }
    }

    /// Parameters for a denser industrial/institute deployment
    /// (DCube-like): slightly higher attenuation and shadowing.
    pub fn industrial() -> Self {
        PathLossModel {
            pl0_db: 46.0,
            d0_m: 1.0,
            exponent: 3.4,
            shadowing_sigma_db: 4.0,
            tx_power_dbm: phy::TX_POWER_DBM,
            sensitivity_dbm: phy::SENSITIVITY_DBM,
            transition_db: 8.0,
        }
    }

    /// Mean RSSI (dBm) at distance `distance_m` with the given static
    /// shadowing offset (dB, positive = extra loss).
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is not strictly positive.
    pub fn rssi_dbm(&self, distance_m: f64, shadow_db: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        let d = distance_m.max(self.d0_m);
        self.tx_power_dbm - self.pl0_db - 10.0 * self.exponent * (d / self.d0_m).log10() - shadow_db
    }

    /// Map an RSSI to a packet reception ratio with a logistic curve
    /// centered slightly above sensitivity (soft SNR margin).
    pub fn prr_from_rssi(&self, rssi_dbm: f64) -> f64 {
        let margin = rssi_dbm - (self.sensitivity_dbm + 4.0);
        let p = 1.0 / (1.0 + (-margin / (self.transition_db / 4.0)).exp());
        // Real radios never quite reach 100%: cap at the PRR ceiling
        // observed on good testbed links.
        p.min(0.995)
    }

    /// Draw a static shadowing offset for one link.
    pub fn draw_shadowing(&self, rng: &mut Xoshiro256) -> f64 {
        rng.next_gaussian() * self.shadowing_sigma_db
    }
}

/// Reliability factor of constructive interference: the probability that
/// concurrent same-packet transmissions stay within the ±0.5 µs alignment
/// window (Glossy achieves >99.9% in practice).
pub const CI_RELIABILITY: f64 = 0.999;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_decreases_with_distance() {
        let m = PathLossModel::indoor_office();
        let r1 = m.rssi_dbm(1.0, 0.0);
        let r10 = m.rssi_dbm(10.0, 0.0);
        let r100 = m.rssi_dbm(100.0, 0.0);
        assert!(r1 > r10 && r10 > r100);
        // η = 3.2 -> 32 dB per decade.
        assert!((r1 - r10 - 32.0).abs() < 1e-9);
    }

    #[test]
    fn rssi_at_reference_distance() {
        let m = PathLossModel::indoor_office();
        assert!((m.rssi_dbm(1.0, 0.0) - (0.0 - 46.0)).abs() < 1e-9);
    }

    #[test]
    fn below_reference_clamps() {
        let m = PathLossModel::indoor_office();
        assert_eq!(m.rssi_dbm(0.5, 0.0), m.rssi_dbm(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_panics() {
        PathLossModel::indoor_office().rssi_dbm(0.0, 0.0);
    }

    #[test]
    fn shadowing_shifts_rssi() {
        let m = PathLossModel::indoor_office();
        assert!(m.rssi_dbm(10.0, 5.0) < m.rssi_dbm(10.0, 0.0));
    }

    #[test]
    fn prr_curve_is_monotone_sigmoid() {
        let m = PathLossModel::indoor_office();
        let lo = m.prr_from_rssi(-115.0);
        let mid = m.prr_from_rssi(m.sensitivity_dbm + 4.0);
        let hi = m.prr_from_rssi(-60.0);
        assert!(lo < 0.01);
        assert!((mid - 0.5).abs() < 0.01);
        assert!(hi > 0.99);
        assert!(hi <= 0.995, "ceiling applies");
    }

    #[test]
    fn draw_shadowing_statistics() {
        let m = PathLossModel::indoor_office();
        let mut rng = Xoshiro256::seed_from(1);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| m.draw_shadowing(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let std = (draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((std - 3.0).abs() < 0.1, "std {std}");
    }
}
