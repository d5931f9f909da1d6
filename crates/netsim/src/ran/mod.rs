//! Radio access network model (the substrate the RDM virtualizes).
//!
//! The real testbed runs OpenAirInterface eNB/gNB with FlexRAN and assigns
//! RBGs/PRBs exclusively per slice. At the 15-minute orchestration timescale
//! the agent only observes slot aggregates, so this module models the RAN as
//! a capacity/latency/reliability function of
//!
//! * the slice's radio bandwidth share (`U_u` / `U_d`),
//! * its MCS offset (`U_m` / `U_s`) through the customized CQI→MCS table,
//! * its scheduler choice (`U_a` / `U_g`), and
//! * the current average channel quality of its users.

pub mod cqi;
pub mod link;
pub mod scheduler;

pub use cqi::{
    apply_mcs_offset, cqi_to_mcs, spectral_efficiency, RatKind, RatProfile, MAX_CQI, MAX_MCS,
};
pub use link::{
    expected_transmissions, residual_loss_probability, retransmission_probability, ChannelModel,
    Direction,
};
pub use scheduler::{scheduler_effect, SchedulerEffect};

use serde::{Deserialize, Serialize};

use onslicing_slices::SchedulerKind;

/// Per-direction outcome of serving a slice's radio traffic for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioLinkOutcome {
    /// Link capacity allocated to the slice in Mbps (after MCS, scheduler and
    /// HARQ overhead).
    pub capacity_mbps: f64,
    /// Offered load over capacity (may exceed 1 when overloaded).
    pub offered_load: f64,
    /// Fraction of the allocation actually used, in `[0, 1]`.
    pub utilization: f64,
    /// Goodput actually delivered in Mbps.
    pub goodput_mbps: f64,
    /// Average per-request radio delay in milliseconds (transmission +
    /// queueing + scheduling latency).
    pub avg_delay_ms: f64,
    /// First-transmission error probability (before HARQ).
    pub retransmission_prob: f64,
    /// Residual loss probability after HARQ.
    pub residual_loss_prob: f64,
}

/// Configuration of the RAN substrate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RanConfig {
    /// Radio-access technology profile (LTE or NR).
    pub profile: RatProfile,
    /// When set, every transmission uses this MCS instead of the CQI-derived
    /// one (the paper fixes MCS 9 for its 4G-vs-5G comparison, §7.2).
    pub fixed_mcs: Option<u8>,
    /// Maximum HARQ retransmissions per transport block.
    pub max_harq_retransmissions: u32,
    /// Cap on the M/M/1 queueing multiplier so that overload produces large
    /// but finite delays.
    pub max_queue_multiplier: f64,
}

impl RanConfig {
    /// LTE with adaptive MCS — the default configuration for the main
    /// evaluation.
    pub fn lte_default() -> Self {
        Self {
            profile: RatProfile::lte(),
            fixed_mcs: None,
            max_harq_retransmissions: 1,
            max_queue_multiplier: 25.0,
        }
    }

    /// 5G NR with adaptive MCS.
    pub fn nr_default() -> Self {
        Self {
            profile: RatProfile::nr(),
            ..Self::lte_default()
        }
    }

    /// LTE pinned to MCS 9 (the paper's stabilized 4G/5G comparison setting).
    pub fn lte_fixed_mcs9() -> Self {
        Self {
            fixed_mcs: Some(9),
            ..Self::lte_default()
        }
    }

    /// NR pinned to MCS 9.
    pub fn nr_fixed_mcs9() -> Self {
        Self {
            profile: RatProfile::nr(),
            fixed_mcs: Some(9),
            ..Self::lte_default()
        }
    }

    /// The MCS used for a transmission given the current CQI and the slice's
    /// requested offset.
    pub fn effective_mcs(&self, cqi: u8, mcs_offset_steps: u32) -> u8 {
        let standard = self.fixed_mcs.unwrap_or_else(|| cqi_to_mcs(cqi));
        apply_mcs_offset(standard, mcs_offset_steps)
    }

    /// Evaluates one direction of a slice's radio service for one slot.
    ///
    /// * `direction` — uplink or downlink.
    /// * `bandwidth_share` — the slice's share of the carrier in `[0, 1]`
    ///   (`U_u` or `U_d`).
    /// * `mcs_offset_steps` — the decoded MCS offset (0–10).
    /// * `sched` — the slice's scheduler choice for this direction.
    /// * `cqi` — current average CQI of the slice's users.
    /// * `demand_mbps` — offered load in Mbps.
    /// * `request_bits` — size of one application request in bits (used for
    ///   the per-request transmission delay).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per radio input of the link model, each documented above"
    )]
    pub fn evaluate(
        &self,
        direction: Direction,
        bandwidth_share: f64,
        mcs_offset_steps: u32,
        sched: SchedulerKind,
        cqi: u8,
        demand_mbps: f64,
        request_bits: f64,
    ) -> RadioLinkOutcome {
        let share = bandwidth_share.clamp(0.0, 1.0);
        let mcs = self.effective_mcs(cqi, mcs_offset_steps);
        let channel_quality = f64::from(cqi) / f64::from(MAX_CQI);
        let effect = scheduler_effect(sched, channel_quality);
        let raw_capacity = match direction {
            Direction::Uplink => self.profile.ul_capacity_mbps(mcs),
            Direction::Downlink => self.profile.dl_capacity_mbps(mcs),
        };
        let retx = retransmission_probability(direction, mcs_offset_steps);
        let harq_overhead = expected_transmissions(direction, mcs_offset_steps);
        let capacity = raw_capacity * share * effect.throughput_factor / harq_overhead;

        if capacity <= 1e-9 {
            // No allocation: nothing is served; delay saturates.
            return RadioLinkOutcome {
                capacity_mbps: 0.0,
                offered_load: if demand_mbps > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                },
                utilization: 0.0,
                goodput_mbps: 0.0,
                avg_delay_ms: self.overload_delay_ms(),
                retransmission_prob: retx,
                residual_loss_prob: 1.0,
            };
        }

        let rho = demand_mbps / capacity;
        let served_mbps = demand_mbps.min(capacity);
        let utilization = (served_mbps / capacity).clamp(0.0, 1.0);
        // Per-request transmission time at the allocated rate, inflated by
        // HARQ round trips (8 ms per extra attempt).
        let tx_ms = request_bits / (capacity * 1e6) * 1e3 + (harq_overhead - 1.0) * 8.0;
        let queue_mult = if rho < 1.0 {
            (1.0 / (1.0 - rho)).min(self.max_queue_multiplier)
        } else {
            self.max_queue_multiplier
        };
        let avg_delay_ms = self.profile.base_latency_ms * effect.delay_factor + tx_ms * queue_mult;
        let residual =
            residual_loss_probability(direction, mcs_offset_steps, self.max_harq_retransmissions);
        // When overloaded, the excess traffic is dropped (adds to loss).
        let drop_prob = if rho > 1.0 { 1.0 - 1.0 / rho } else { 0.0 };
        RadioLinkOutcome {
            capacity_mbps: capacity,
            offered_load: rho,
            utilization,
            goodput_mbps: served_mbps * (1.0 - residual),
            avg_delay_ms,
            retransmission_prob: retx,
            residual_loss_prob: (residual + drop_prob).min(1.0),
        }
    }

    /// The delay reported when a link is completely overloaded or
    /// unallocated.
    pub fn overload_delay_ms(&self) -> f64 {
        2_000.0
    }

    /// One-way ping-style latency sample through the RAN (used for the
    /// Fig. 16 ping-delay CDF). Deterministic part only; jitter is added by
    /// the caller from the profile's `latency_jitter_ms`.
    pub fn base_rtt_ms(&self) -> f64 {
        2.0 * self.profile.base_latency_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_ul(cfg: &RanConfig, share: f64, offset: u32, demand: f64) -> RadioLinkOutcome {
        cfg.evaluate(
            Direction::Uplink,
            share,
            offset,
            SchedulerKind::ProportionalFair,
            12,
            demand,
            800_000.0,
        )
    }

    #[test]
    fn more_bandwidth_means_more_capacity_and_less_delay() {
        let cfg = RanConfig::lte_default();
        let small = eval_ul(&cfg, 0.1, 0, 2.0);
        let large = eval_ul(&cfg, 0.5, 0, 2.0);
        assert!(large.capacity_mbps > small.capacity_mbps);
        assert!(large.avg_delay_ms < small.avg_delay_ms);
    }

    #[test]
    fn mcs_offset_trades_capacity_for_reliability() {
        let cfg = RanConfig::lte_default();
        let aggressive = eval_ul(&cfg, 0.3, 0, 1.0);
        let robust = eval_ul(&cfg, 0.3, 6, 1.0);
        assert!(robust.capacity_mbps < aggressive.capacity_mbps);
        assert!(robust.residual_loss_prob < aggressive.residual_loss_prob);
        assert!(robust.retransmission_prob < aggressive.retransmission_prob);
    }

    #[test]
    fn overload_saturates_delay_and_drops_traffic() {
        let cfg = RanConfig::lte_default();
        let out = eval_ul(&cfg, 0.05, 0, 50.0);
        assert!(out.offered_load > 1.0);
        assert!(out.residual_loss_prob > 0.5);
        assert!(out.goodput_mbps < 50.0);
        assert!(out.avg_delay_ms > 100.0);
    }

    #[test]
    fn zero_allocation_serves_nothing() {
        let cfg = RanConfig::lte_default();
        let out = eval_ul(&cfg, 0.0, 0, 1.0);
        assert_eq!(out.capacity_mbps, 0.0);
        assert_eq!(out.goodput_mbps, 0.0);
        assert_eq!(out.residual_loss_prob, 1.0);
    }

    #[test]
    fn fixed_mcs_ignores_cqi() {
        let cfg = RanConfig::lte_fixed_mcs9();
        assert_eq!(cfg.effective_mcs(15, 0), 9);
        assert_eq!(cfg.effective_mcs(3, 0), 9);
        assert_eq!(cfg.effective_mcs(15, 4), 5);
        let adaptive = RanConfig::lte_default();
        assert_eq!(adaptive.effective_mcs(15, 0), 28);
    }

    #[test]
    fn nr_beats_lte_on_latency_and_capacity_at_fixed_mcs() {
        let lte = RanConfig::lte_fixed_mcs9();
        let nr = RanConfig::nr_fixed_mcs9();
        let out_lte = eval_ul(&lte, 0.5, 0, 3.0);
        let out_nr = nr.evaluate(
            Direction::Uplink,
            0.5,
            0,
            SchedulerKind::ProportionalFair,
            12,
            3.0,
            800_000.0,
        );
        assert!(out_nr.capacity_mbps > out_lte.capacity_mbps);
        assert!(nr.base_rtt_ms() < lte.base_rtt_ms());
    }

    #[test]
    fn downlink_has_more_capacity_than_uplink() {
        let cfg = RanConfig::lte_default();
        let ul = cfg.evaluate(
            Direction::Uplink,
            0.4,
            0,
            SchedulerKind::RoundRobin,
            12,
            1.0,
            1e5,
        );
        let dl = cfg.evaluate(
            Direction::Downlink,
            0.4,
            0,
            SchedulerKind::RoundRobin,
            12,
            1.0,
            1e5,
        );
        assert!(dl.capacity_mbps > ul.capacity_mbps);
    }

    #[test]
    fn utilization_is_demand_over_capacity_when_underloaded() {
        let cfg = RanConfig::lte_default();
        let out = eval_ul(&cfg, 0.8, 0, 1.0);
        assert!(out.offered_load < 1.0);
        assert!((out.utilization - out.offered_load).abs() < 1e-9);
    }
}
