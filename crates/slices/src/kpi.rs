//! Per-slot key performance indicators reported by the simulated network.
//!
//! A [`SlotKpi`] is everything the slice tenant's application reports back to
//! the OnSlicing agent at the end of a configuration interval, together with
//! the network-side statistics the agent uses to build its next observation
//! (channel quality, radio usage, server workload). The paper's mobile
//! applications report these metrics periodically (§7.1, footnote 3).

use serde::{Deserialize, Serialize};

use crate::action::Action;
use crate::sla::Sla;

/// All measurements collected for one slice during one configuration slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotKpi {
    /// Number of user requests that arrived during the slot.
    pub offered_requests: u64,
    /// Number of user requests served within the slot.
    pub served_requests: u64,
    /// Average end-to-end round-trip latency of served requests, in ms.
    pub avg_latency_ms: f64,
    /// Achieved uplink throughput in Mbps (slice aggregate).
    pub ul_throughput_mbps: f64,
    /// Achieved downlink throughput in Mbps (slice aggregate).
    pub dl_throughput_mbps: f64,
    /// Delivered video frame rate (only meaningful for the HVS slice).
    pub delivered_fps: f64,
    /// Radio delivery reliability in `[0, 1]` (only meaningful for RDC).
    pub reliability: f64,
    /// Probability that a transmitted transport block needed retransmission.
    pub retransmission_prob: f64,
    /// Average channel quality of the slice's users, normalized to `[0, 1]`
    /// (CQI 15 = 1.0).
    pub avg_channel_quality: f64,
    /// Fraction of the slice's allocated PRBs actually used.
    pub radio_utilization: f64,
    /// Normalized workload of the slice's VNFs and edge server in `[0, ...]`
    /// (1.0 = fully loaded).
    pub server_workload: f64,
    /// Raw performance in the slice's natural unit (ms, FPS or reliability).
    pub raw_performance: f64,
    /// Normalized performance score `p_t / P` (larger is better).
    pub performance_score: f64,
    /// Per-slot cost `c(s_t, a_t)` from Eq. 10.
    pub cost: f64,
    /// Total virtual resource usage of the executed action (Eq. 9, in `[0, 6]`).
    pub resource_usage: f64,
}

impl SlotKpi {
    /// Builds a KPI record, deriving `performance_score`, `cost` and
    /// `resource_usage` from the SLA, the raw performance and the executed
    /// action.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per KPI input the record derives its fields from"
    )]
    pub fn new(
        sla: &Sla,
        executed_action: &Action,
        raw_performance: f64,
        offered_requests: u64,
        served_requests: u64,
        avg_latency_ms: f64,
        ul_throughput_mbps: f64,
        dl_throughput_mbps: f64,
        delivered_fps: f64,
        reliability: f64,
        retransmission_prob: f64,
        avg_channel_quality: f64,
        radio_utilization: f64,
        server_workload: f64,
    ) -> Self {
        let performance_score = sla.performance_score(raw_performance);
        let cost = Sla::cost_from_score(performance_score);
        Self {
            offered_requests,
            served_requests,
            avg_latency_ms,
            ul_throughput_mbps,
            dl_throughput_mbps,
            delivered_fps,
            reliability,
            retransmission_prob,
            avg_channel_quality,
            radio_utilization,
            server_workload,
            raw_performance,
            performance_score,
            cost,
            resource_usage: executed_action.resource_usage(),
        }
    }

    /// An "idle slot" KPI: no traffic arrived, nothing was served, no cost
    /// is incurred and the usage is that of the executed action.
    pub fn idle(executed_action: &Action) -> Self {
        Self {
            offered_requests: 0,
            served_requests: 0,
            avg_latency_ms: 0.0,
            ul_throughput_mbps: 0.0,
            dl_throughput_mbps: 0.0,
            delivered_fps: 0.0,
            reliability: 1.0,
            retransmission_prob: 0.0,
            avg_channel_quality: 1.0,
            radio_utilization: 0.0,
            server_workload: 0.0,
            raw_performance: 0.0,
            performance_score: 1.0,
            cost: 0.0,
            resource_usage: executed_action.resource_usage(),
        }
    }

    /// The reward of Eq. 9 (negative resource usage).
    pub fn reward(&self) -> f64 {
        -self.resource_usage
    }

    /// Average resource usage as a percentage (0–100), the unit reported in
    /// the paper's tables.
    pub fn resource_usage_percent(&self) -> f64 {
        self.resource_usage / 6.0 * 100.0
    }

    /// Sanity-checks the record (all values finite, probabilities in range).
    pub fn validate(&self) -> Result<(), String> {
        let finite = [
            self.avg_latency_ms,
            self.ul_throughput_mbps,
            self.dl_throughput_mbps,
            self.delivered_fps,
            self.reliability,
            self.retransmission_prob,
            self.avg_channel_quality,
            self.radio_utilization,
            self.server_workload,
            self.raw_performance,
            self.performance_score,
            self.cost,
            self.resource_usage,
        ];
        if finite.iter().any(|v| !v.is_finite()) {
            return Err("non-finite KPI value".to_string());
        }
        if !(0.0..=1.0).contains(&self.reliability) {
            return Err(format!("reliability {} out of [0, 1]", self.reliability));
        }
        if !(0.0..=1.0).contains(&self.retransmission_prob) {
            return Err(format!(
                "retransmission prob {} out of [0, 1]",
                self.retransmission_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.cost) {
            return Err(format!("cost {} out of [0, 1]", self.cost));
        }
        if self.served_requests > self.offered_requests {
            return Err("served more requests than were offered".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SliceKind;

    fn sample_kpi() -> SlotKpi {
        let sla = Sla::for_kind(SliceKind::Hvs);
        let action = Action::uniform(0.3);
        SlotKpi::new(
            &sla, &action, 24.0, 100, 95, 80.0, 2.0, 12.0, 24.0, 0.999, 0.01, 0.8, 0.6, 0.4,
        )
    }

    #[test]
    fn new_derives_score_cost_and_usage() {
        let kpi = sample_kpi();
        assert!((kpi.performance_score - 0.8).abs() < 1e-12);
        assert!((kpi.cost - 0.2).abs() < 1e-12);
        assert!((kpi.resource_usage - 6.0 * 0.3).abs() < 1e-12);
        assert!((kpi.reward() + 1.8).abs() < 1e-12);
        assert!(kpi.validate().is_ok());
    }

    #[test]
    fn idle_slot_has_no_cost() {
        let kpi = SlotKpi::idle(&Action::uniform(0.1));
        assert_eq!(kpi.cost, 0.0);
        assert_eq!(kpi.offered_requests, 0);
        assert!(kpi.validate().is_ok());
    }

    #[test]
    fn usage_percent_is_mean_of_counted_dimensions() {
        let kpi = sample_kpi();
        assert!((kpi.resource_usage_percent() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_inconsistent_records() {
        let mut kpi = sample_kpi();
        kpi.served_requests = kpi.offered_requests + 1;
        assert!(kpi.validate().is_err());

        let mut kpi = sample_kpi();
        kpi.reliability = 1.2;
        assert!(kpi.validate().is_err());

        let mut kpi = sample_kpi();
        kpi.avg_latency_ms = f64::NAN;
        assert!(kpi.validate().is_err());
    }
}
