//! Edge computing model (the substrate the EDM virtualizes).
//!
//! Each slice's edge server runs in a Docker container co-located with its
//! SPGW-U; the EDM adjusts its CPU and RAM allocation at runtime via
//! `docker update` (§6). The dominant effect at the orchestration timescale
//! is compute latency: the MAR back-end extracts ORB features and matches
//! them against a dataset, so its service rate scales with the CPU share,
//! while the RAM share caps the sustainable rate a second time (at twice the
//! full-CPU rate per unit of RAM share).

use serde::{Deserialize, Serialize};

/// Outcome of edge processing for one slice and one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeOutcome {
    /// Request service rate granted to the slice, in requests per second.
    pub service_rate_rps: f64,
    /// Offered request rate over the service rate.
    pub offered_load: f64,
    /// Average per-request processing delay (queueing + service) in
    /// milliseconds.
    pub avg_delay_ms: f64,
    /// Fraction of requests rejected because the server is saturated or out
    /// of memory.
    pub loss_prob: f64,
    /// Normalized server workload (`offered / capacity`, capped at 2).
    pub workload: f64,
}

/// Configuration of the edge-compute substrate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Requests per second a fully-provisioned container (CPU share = 1) can
    /// serve for this application class.
    pub max_service_rate_rps: f64,
    /// Cap on the M/M/1 queueing multiplier.
    pub max_queue_multiplier: f64,
}

impl EdgeConfig {
    /// Profile for the MAR back-end (ORB feature extraction + matching):
    /// a full CPU sustains ≈ 40 frames/s.
    pub fn mar_default() -> Self {
        Self {
            max_service_rate_rps: 40.0,
            max_queue_multiplier: 25.0,
        }
    }

    /// Profile for the HVS streaming server: pushing chunks is cheap,
    /// a full CPU feeds ≈ 120 chunk requests/s.
    pub fn hvs_default() -> Self {
        Self {
            max_service_rate_rps: 120.0,
            max_queue_multiplier: 25.0,
        }
    }

    /// Profile for the RDC control server: tiny messages, very high rate.
    pub fn rdc_default() -> Self {
        Self {
            max_service_rate_rps: 4_000.0,
            max_queue_multiplier: 25.0,
        }
    }

    /// Evaluates edge processing for one slice and one slot.
    ///
    /// * `cpu_share` — CPU share of the container (`U_c`).
    /// * `ram_share` — RAM share of the container (`U_r`).
    /// * `request_rate_rps` — offered request rate.
    pub fn evaluate(&self, cpu_share: f64, ram_share: f64, request_rate_rps: f64) -> EdgeOutcome {
        let cpu = cpu_share.clamp(0.0, 1.0);
        let ram = ram_share.clamp(0.0, 1.0);
        let cpu_rate = self.max_service_rate_rps * cpu;
        // RAM bounds the number of in-flight requests; with Little's law the
        // sustainable rate is `concurrency / service_time = concurrency · rate`.
        // Model it as a second cap proportional to the RAM share.
        let ram_rate = self.max_service_rate_rps * 2.0 * ram;
        let capacity = cpu_rate.min(ram_rate);
        if capacity <= 1e-9 {
            return EdgeOutcome {
                service_rate_rps: 0.0,
                offered_load: if request_rate_rps > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                },
                avg_delay_ms: 5_000.0,
                loss_prob: if request_rate_rps > 0.0 { 1.0 } else { 0.0 },
                workload: if request_rate_rps > 0.0 { 2.0 } else { 0.0 },
            };
        }
        let rho = request_rate_rps / capacity;
        let base_service_ms = 1_000.0 / capacity;
        let queue_mult = if rho < 1.0 {
            (1.0 / (1.0 - rho)).min(self.max_queue_multiplier)
        } else {
            self.max_queue_multiplier
        };
        let loss = if rho > 1.0 { 1.0 - 1.0 / rho } else { 0.0 };
        EdgeOutcome {
            service_rate_rps: capacity,
            offered_load: rho,
            avg_delay_ms: base_service_ms * queue_mult,
            loss_prob: loss,
            workload: rho.min(2.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_cpu_reduces_processing_delay() {
        let edge = EdgeConfig::mar_default();
        let low = edge.evaluate(0.2, 1.0, 5.0);
        let high = edge.evaluate(0.6, 1.0, 5.0);
        assert!(high.avg_delay_ms < low.avg_delay_ms);
        assert_eq!(low.loss_prob, 0.0);
    }

    #[test]
    fn mar_latency_scale_is_plausible() {
        // At peak MAR traffic (5 frames/s) and a quarter of the CPU, the M/M/1
        // sojourn time should be on the order of 200 ms — the same order as
        // the paper's 500 ms end-to-end budget.
        let edge = EdgeConfig::mar_default();
        let out = edge.evaluate(0.25, 1.0, 5.0);
        assert!(
            out.avg_delay_ms > 100.0 && out.avg_delay_ms < 400.0,
            "delay {}",
            out.avg_delay_ms
        );
    }

    #[test]
    fn insufficient_ram_caps_the_service_rate() {
        let edge = EdgeConfig::mar_default();
        let plenty = edge.evaluate(0.5, 1.0, 5.0);
        let starved = edge.evaluate(0.5, 0.05, 5.0);
        assert!(starved.service_rate_rps < plenty.service_rate_rps);
        assert!(starved.avg_delay_ms > plenty.avg_delay_ms);
    }

    #[test]
    fn overload_drops_requests() {
        let edge = EdgeConfig::mar_default();
        let out = edge.evaluate(0.05, 1.0, 10.0); // capacity 2 rps << 10 rps
        assert!(out.offered_load > 1.0);
        assert!(out.loss_prob > 0.5);
        assert!(out.workload >= 1.0);
    }

    #[test]
    fn zero_allocation_rejects_everything() {
        let edge = EdgeConfig::rdc_default();
        let out = edge.evaluate(0.0, 0.5, 100.0);
        assert_eq!(out.loss_prob, 1.0);
        let idle = edge.evaluate(0.0, 0.0, 0.0);
        assert_eq!(idle.loss_prob, 0.0);
    }

    #[test]
    fn rdc_server_is_far_from_saturation_at_peak_traffic() {
        let edge = EdgeConfig::rdc_default();
        let out = edge.evaluate(0.1, 0.1, 100.0);
        assert!(out.offered_load < 0.5);
        assert_eq!(out.loss_prob, 0.0);
    }
}
