//! Core network model (the substrate the CDM virtualizes).
//!
//! The testbed runs a CUPS-split OpenAir-CN: shared control plane (HSS, MME,
//! SPGW-C) and a per-slice pool of SPGW-U user-plane instances, each a Docker
//! container co-located with the slice's edge server (§6). Slice users are
//! mapped to the pool by IMSI and attached to an instance round-robin.
//!
//! At the orchestration timescale the relevant behaviour is packet-processing
//! latency and loss as a function of the CPU share granted to the slice's
//! SPGW-U containers, which this module models as an M/M/1 processor-sharing
//! queue.

use serde::{Deserialize, Serialize};

/// Outcome of user-plane packet processing for one slice and one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CnOutcome {
    /// Packet-processing capacity granted to the slice, in packets per second.
    pub capacity_pps: f64,
    /// Offered packet rate over capacity.
    pub offered_load: f64,
    /// Average per-packet processing delay (one direction) in milliseconds.
    pub avg_delay_ms: f64,
    /// Fraction of packets dropped because the user plane is saturated.
    pub loss_prob: f64,
}

/// Configuration of the core-network user plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CnConfig {
    /// Packet-processing rate of a fully-provisioned SPGW-U (CPU share = 1),
    /// in packets per second.
    pub max_pps: f64,
    /// Base per-packet processing delay at negligible load, in milliseconds.
    pub base_delay_ms: f64,
    /// Cap on the M/M/1 queueing multiplier.
    pub max_queue_multiplier: f64,
}

impl CnConfig {
    /// The testbed's workstation-hosted SPGW-U.
    pub fn testbed_default() -> Self {
        Self {
            max_pps: 50_000.0,
            base_delay_ms: 0.3,
            max_queue_multiplier: 25.0,
        }
    }

    /// Evaluates packet processing for one slice and one slot.
    ///
    /// * `cpu_share` — the CPU share granted to the slice's SPGW-U (`U_c`).
    /// * `packet_rate_pps` — offered packet rate.
    pub fn evaluate(&self, cpu_share: f64, packet_rate_pps: f64) -> CnOutcome {
        let share = cpu_share.clamp(0.0, 1.0);
        let capacity = self.max_pps * share;
        if capacity <= 1e-9 {
            return CnOutcome {
                capacity_pps: 0.0,
                offered_load: if packet_rate_pps > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                },
                avg_delay_ms: self.base_delay_ms * self.max_queue_multiplier,
                loss_prob: if packet_rate_pps > 0.0 { 1.0 } else { 0.0 },
            };
        }
        let rho = packet_rate_pps / capacity;
        let queue_mult = if rho < 1.0 {
            (1.0 / (1.0 - rho)).min(self.max_queue_multiplier)
        } else {
            self.max_queue_multiplier
        };
        let loss = if rho > 1.0 { 1.0 - 1.0 / rho } else { 0.0 };
        CnOutcome {
            capacity_pps: capacity,
            offered_load: rho,
            avg_delay_ms: self.base_delay_ms * queue_mult,
            loss_prob: loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_cpu_means_lower_processing_delay() {
        let cn = CnConfig::testbed_default();
        let low = cn.evaluate(0.1, 2_000.0);
        let high = cn.evaluate(0.5, 2_000.0);
        assert!(high.avg_delay_ms < low.avg_delay_ms);
        assert!(high.capacity_pps > low.capacity_pps);
    }

    #[test]
    fn saturation_drops_packets() {
        let cn = CnConfig::testbed_default();
        let out = cn.evaluate(0.01, 5_000.0); // capacity 500 pps << 5000
        assert!(out.offered_load > 1.0);
        assert!(out.loss_prob > 0.8);
    }

    #[test]
    fn zero_cpu_serves_nothing() {
        let cn = CnConfig::testbed_default();
        let out = cn.evaluate(0.0, 100.0);
        assert_eq!(out.loss_prob, 1.0);
        assert_eq!(out.capacity_pps, 0.0);
    }

    #[test]
    fn idle_traffic_incurs_no_loss() {
        let cn = CnConfig::testbed_default();
        let out = cn.evaluate(0.2, 0.0);
        assert_eq!(out.loss_prob, 0.0);
        assert!((out.avg_delay_ms - cn.base_delay_ms).abs() < 1e-9);
    }
}
