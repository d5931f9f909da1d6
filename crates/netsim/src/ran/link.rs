//! Radio link model: channel quality, retransmission probability and HARQ.
//!
//! The RDM's customized CQI→MCS table lets a slice request an MCS offset to
//! make its transmissions more robust. Fig. 6 of the paper measures the
//! retransmission probability as a function of that offset on the testbed:
//! it decays roughly exponentially from ~10⁻¹ (uplink, offset 0) down to
//! ~10⁻⁵ at offset 10, with the downlink about an order of magnitude lower.
//! [`retransmission_probability`] reproduces that shape.

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::cqi::MAX_CQI;

/// Transmission direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Device to network.
    Uplink,
    /// Network to device.
    Downlink,
}

/// Retransmission probability of a transport block for the given direction
/// and MCS offset, matching the exponential decay of Fig. 6.
///
/// * uplink:    `0.10 · e^(−0.92 · offset)` (≈ 10⁻¹ → ≈ 10⁻⁵ over offsets 0–10)
/// * downlink:  `0.02 · e^(−0.60 · offset)` (≈ 2·10⁻² → ≈ 5·10⁻⁵)
pub fn retransmission_probability(direction: Direction, mcs_offset: u32) -> f64 {
    let o = mcs_offset.min(10) as f64;
    match direction {
        Direction::Uplink => 0.10 * (-0.92 * o).exp(),
        Direction::Downlink => 0.02 * (-0.60 * o).exp(),
    }
}

/// Residual failure probability after HARQ: a block is lost only if all
/// `1 + max_retransmissions` attempts fail independently.
pub fn residual_loss_probability(
    direction: Direction,
    mcs_offset: u32,
    max_retransmissions: u32,
) -> f64 {
    let p = retransmission_probability(direction, mcs_offset);
    p.powi(1 + max_retransmissions as i32)
}

/// Expected number of transmission attempts per block under HARQ with
/// unbounded retries (`1 / (1 − p)`), used to inflate airtime and latency.
pub fn expected_transmissions(direction: Direction, mcs_offset: u32) -> f64 {
    let p = retransmission_probability(direction, mcs_offset);
    1.0 / (1.0 - p.min(0.99))
}

/// A slowly-varying per-slice channel model.
///
/// The paper's devices are stationary inside a Faraday cage, so the channel
/// shows only *moderate* variation (§9 "Dynamics"): the average CQI of a
/// slice's users follows an AR(1) process around a nominal value, clipped to
/// the valid CQI range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Long-run mean CQI of the slice's users.
    pub mean_cqi: f64,
    /// Standard deviation of the stationary CQI distribution.
    pub std_cqi: f64,
    /// AR(1) correlation between consecutive slots (0 = white noise,
    /// 1 = frozen channel).
    pub correlation: f64,
    /// Current average CQI (state of the AR(1) process).
    current_cqi: f64,
}

impl ChannelModel {
    /// Creates a channel model starting at its mean.
    ///
    /// # Panics
    /// Panics if the parameters are outside their valid ranges.
    pub fn new(mean_cqi: f64, std_cqi: f64, correlation: f64) -> Self {
        assert!(
            (1.0..=f64::from(MAX_CQI)).contains(&mean_cqi),
            "mean CQI out of range"
        );
        assert!(std_cqi >= 0.0, "std must be non-negative");
        assert!(
            (0.0..1.0).contains(&correlation),
            "correlation must be in [0, 1)"
        );
        Self {
            mean_cqi,
            std_cqi,
            correlation,
            current_cqi: mean_cqi,
        }
    }

    /// The paper-testbed default: good indoor channel, CQI ≈ 12 ± 1.2,
    /// strongly correlated across 15-minute slots.
    pub fn testbed_default() -> Self {
        Self::new(12.0, 1.2, 0.7)
    }

    /// Current average CQI rounded to an integer index in `1..=15`.
    pub fn current_cqi_index(&self) -> u8 {
        self.current_cqi.round().clamp(1.0, f64::from(MAX_CQI)) as u8
    }

    /// Normalized channel quality in `[0, 1]` (CQI 15 → 1.0); this is the
    /// `h_{t−1}` component of the agent state.
    pub fn normalized_quality(&self) -> f64 {
        (self.current_cqi / f64::from(MAX_CQI)).clamp(0.0, 1.0)
    }

    /// Advances the AR(1) process by one slot and returns the new average CQI.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let noise_std = self.std_cqi * (1.0 - self.correlation * self.correlation).sqrt();
        let z = onslicing_traffic::arrivals::standard_normal(rng);
        let next =
            self.mean_cqi + self.correlation * (self.current_cqi - self.mean_cqi) + noise_std * z;
        self.current_cqi = next.clamp(1.0, f64::from(MAX_CQI));
        self.current_cqi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn retransmission_probability_decays_exponentially_with_offset() {
        let mut prev = 1.0;
        for o in 0..=10 {
            let p = retransmission_probability(Direction::Uplink, o);
            assert!(p < prev, "probability must decrease with the offset");
            prev = p;
        }
        // Fig. 6 endpoints: ~1e-1 at offset 0, ~1e-5 at offset 10 (uplink).
        assert!((retransmission_probability(Direction::Uplink, 0) - 0.1).abs() < 1e-12);
        assert!(retransmission_probability(Direction::Uplink, 10) < 2e-5);
        // Downlink sits roughly an order of magnitude below the uplink.
        assert!(
            retransmission_probability(Direction::Downlink, 0)
                < retransmission_probability(Direction::Uplink, 0)
        );
    }

    #[test]
    fn offsets_beyond_ten_saturate() {
        assert_eq!(
            retransmission_probability(Direction::Uplink, 10),
            retransmission_probability(Direction::Uplink, 50)
        );
    }

    #[test]
    fn residual_loss_shrinks_with_retransmissions() {
        let p0 = residual_loss_probability(Direction::Uplink, 0, 0);
        let p1 = residual_loss_probability(Direction::Uplink, 0, 1);
        let p2 = residual_loss_probability(Direction::Uplink, 0, 2);
        assert!(p1 < p0 && p2 < p1);
        assert!((p1 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rdc_reliability_needs_a_large_offset() {
        // With one HARQ retransmission, offset 0 gives only ~2 nines while
        // offset 6 comfortably exceeds the 5-nines RDC requirement — this is
        // why the paper's Model_Based baseline picks U_m = 6.
        let low = 1.0 - residual_loss_probability(Direction::Uplink, 0, 1);
        let high = 1.0 - residual_loss_probability(Direction::Uplink, 6, 1);
        assert!(low < 0.999);
        assert!(high > 0.99999);
    }

    #[test]
    fn expected_transmissions_is_at_least_one() {
        for o in 0..=10 {
            let e = expected_transmissions(Direction::Uplink, o);
            assert!((1.0..1.2).contains(&e));
        }
    }

    #[test]
    fn channel_stays_within_cqi_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ch = ChannelModel::testbed_default();
        for _ in 0..1000 {
            let cqi = ch.step(&mut rng);
            assert!((1.0..=15.0).contains(&cqi));
            assert!((0.0..=1.0).contains(&ch.normalized_quality()));
        }
    }

    #[test]
    fn channel_long_run_mean_is_near_the_configured_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ch = ChannelModel::new(10.0, 1.0, 0.5);
        let n = 5000;
        let mean: f64 = (0..n).map(|_| ch.step(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - 10.0).abs() < 0.2,
            "empirical mean {mean} should be near 10"
        );
    }

    #[test]
    fn zero_std_freezes_the_channel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ch = ChannelModel::new(9.0, 0.0, 0.5);
        for _ in 0..10 {
            assert_eq!(ch.step(&mut rng), 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "mean CQI out of range")]
    fn invalid_mean_cqi_is_rejected() {
        let _ = ChannelModel::new(0.0, 1.0, 0.5);
    }
}
