//! End-to-end composition of the RAN, TN, CN and edge substrates into
//! per-slot slice KPIs.
//!
//! [`NetworkSimulator::step_slice`] is the simulator's single entry point for
//! the orchestration loop: given a slice, its SLA, the executed action and
//! the slot's traffic intensity, it produces the [`SlotKpi`] the slice's
//! application would report on the real testbed — average round-trip latency
//! for MAR, delivered FPS for HVS, delivery reliability for RDC, plus the
//! network-side statistics (channel quality, radio utilization, server
//! workload) the agent folds into its next observation.

// Channels are keyed by a BTreeMap so a serialized simulator has one
// canonical byte representation (checkpoint files diff cleanly).
use std::collections::BTreeMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use onslicing_slices::{Action, Sla, SliceKind, SlotKpi};
use onslicing_traffic::{PoissonArrivals, SLOT_SECONDS};

use crate::cn::CnConfig;
use crate::edge::EdgeConfig;
use crate::ran::{ChannelModel, Direction, RanConfig};
use crate::tn::TnConfig;

/// Static description of a slice application's traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceWorkload {
    /// Bits carried uplink per user request.
    pub ul_bits_per_request: f64,
    /// Bits carried downlink per user request.
    pub dl_bits_per_request: f64,
    /// Representative transport packet size in bits.
    pub packet_bits: f64,
    /// Target frame rate (only meaningful for HVS).
    pub target_fps: f64,
}

impl SliceWorkload {
    /// The workload model of the given slice kind, matching the paper's
    /// applications (§7.1): 540p frames uplink for MAR, ~5 Mbit/s 1080p
    /// chunks downlink for HVS, 1-kbit control messages for RDC.
    pub fn for_kind(kind: SliceKind) -> Self {
        match kind {
            SliceKind::Mar => Self {
                ul_bits_per_request: 800_000.0, // ≈ 100 kB 540p frame
                dl_bits_per_request: 80_000.0,  // matched-object result
                packet_bits: 12_000.0,
                target_fps: 0.0,
            },
            SliceKind::Hvs => Self {
                ul_bits_per_request: 8_000.0,     // chunk request
                dl_bits_per_request: 5_000_000.0, // 1 s of 1080p video
                packet_bits: 12_000.0,
                target_fps: 30.0,
            },
            SliceKind::Rdc => Self {
                ul_bits_per_request: 1_000.0, // 1 kbit raw data
                dl_bits_per_request: 1_000.0, // 1 kbit control message
                packet_bits: 1_000.0,
                target_fps: 0.0,
            },
        }
    }

    /// Uplink offered load in Mbps at the given arrival rate (users/s).
    pub fn ul_demand_mbps(&self, arrival_rate: f64) -> f64 {
        arrival_rate * self.ul_bits_per_request / 1e6
    }

    /// Downlink offered load in Mbps at the given arrival rate (users/s).
    pub fn dl_demand_mbps(&self, arrival_rate: f64) -> f64 {
        arrival_rate * self.dl_bits_per_request / 1e6
    }

    /// Transport packet rate (packets/s) at the given arrival rate.
    pub fn packet_rate_pps(&self, arrival_rate: f64) -> f64 {
        (self.ul_demand_mbps(arrival_rate) + self.dl_demand_mbps(arrival_rate)) * 1e6
            / self.packet_bits
    }

    /// The edge-compute profile matching this application class.
    pub fn edge_config(kind: SliceKind) -> EdgeConfig {
        match kind {
            SliceKind::Mar => EdgeConfig::mar_default(),
            SliceKind::Hvs => EdgeConfig::hvs_default(),
            SliceKind::Rdc => EdgeConfig::rdc_default(),
        }
    }
}

/// Full configuration of the end-to-end network substrate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Radio access network configuration.
    pub ran: RanConfig,
    /// Transport network configuration.
    pub tn: TnConfig,
    /// Core network user-plane configuration.
    pub cn: CnConfig,
    /// Seed controlling the simulator's internal randomness (channel
    /// evolution, arrival sampling, latency jitter).
    pub seed: u64,
}

impl NetworkConfig {
    /// The default testbed: 4G LTE with adaptive MCS, 1-Gbps transport,
    /// workstation-hosted CN and edge.
    pub fn testbed_default() -> Self {
        Self {
            ran: RanConfig::lte_default(),
            tn: TnConfig::testbed_default(),
            cn: CnConfig::testbed_default(),
            seed: 0,
        }
    }

    /// The 5G NR variant of the testbed.
    pub fn testbed_nr() -> Self {
        Self {
            ran: RanConfig::nr_default(),
            ..Self::testbed_default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different RAN configuration.
    pub fn with_ran(mut self, ran: RanConfig) -> Self {
        self.ran = ran;
        self
    }
}

/// The end-to-end network simulator standing in for the OAI / ODL /
/// OpenAir-CN / Docker testbed.
///
/// Serializes its complete dynamic state — channel AR(1) positions and the
/// RNG stream — so a deserialized simulator continues bit-for-bit where the
/// original left off (the checkpoint/replay contract).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkSimulator {
    config: NetworkConfig,
    channels: BTreeMap<SliceKind, ChannelModel>,
    rng: ChaCha8Rng,
}

impl NetworkSimulator {
    /// Creates a simulator with per-slice channel models at the testbed
    /// default and the configured seed.
    pub fn new(config: NetworkConfig) -> Self {
        let mut channels = BTreeMap::new();
        for kind in SliceKind::ALL {
            channels.insert(kind, ChannelModel::testbed_default());
        }
        Self {
            channels,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            config,
        }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Resets the simulator's random state (new episode with fresh dynamics).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
    }

    /// Simulates one configuration slot for one slice and returns the KPI
    /// record its application would report.
    ///
    /// `arrival_rate` is the slot's mean user-request rate in users per
    /// second (from the slice's traffic trace).
    pub fn step_slice(
        &mut self,
        kind: SliceKind,
        sla: &Sla,
        action: &Action,
        arrival_rate: f64,
    ) -> SlotKpi {
        let workload = SliceWorkload::for_kind(kind);
        let channel = self
            .channels
            .get_mut(&kind)
            .expect("every slice kind has a channel model");
        channel.step(&mut self.rng);
        let cqi = channel.current_cqi_index();
        let channel_quality = channel.normalized_quality();

        let arrival_rate = arrival_rate.max(0.0);
        let offered_requests =
            PoissonArrivals::new(arrival_rate, SLOT_SECONDS).sample_count(&mut self.rng);

        let ul_demand = workload.ul_demand_mbps(arrival_rate);
        let dl_demand = workload.dl_demand_mbps(arrival_rate);

        let ul = self.config.ran.evaluate(
            Direction::Uplink,
            action.ul_bandwidth,
            action.ul_mcs_offset_steps(),
            action.ul_scheduler_kind(),
            cqi,
            ul_demand,
            workload.ul_bits_per_request,
        );
        let dl = self.config.ran.evaluate(
            Direction::Downlink,
            action.dl_bandwidth,
            action.dl_mcs_offset_steps(),
            action.dl_scheduler_kind(),
            cqi,
            dl_demand,
            workload.dl_bits_per_request,
        );
        let tn = self.config.tn.evaluate(
            action.tn_bandwidth,
            action.tn_path,
            ul_demand + dl_demand,
            workload.packet_bits,
        );
        let cn = self
            .config
            .cn
            .evaluate(action.cpu, workload.packet_rate_pps(arrival_rate));
        let edge = SliceWorkload::edge_config(kind).evaluate(action.cpu, action.ram, arrival_rate);

        // Latency jitter from the RAN profile (scheduling randomness).
        let jitter = self.config.ran.profile.latency_jitter_ms
            * onslicing_traffic::arrivals::standard_normal(&mut self.rng).abs();

        // End-to-end service ratio: the fraction of requests fully delivered.
        let service_ratio = (1.0 - ul.residual_loss_prob)
            * (1.0 - dl.residual_loss_prob)
            * (1.0 - tn.loss_prob)
            * (1.0 - cn.loss_prob)
            * (1.0 - edge.loss_prob);

        let rtt_ms = ul.avg_delay_ms
            + dl.avg_delay_ms
            + 2.0 * tn.avg_delay_ms
            + 2.0 * cn.avg_delay_ms
            + edge.avg_delay_ms
            + jitter;

        let served_requests = (offered_requests as f64 * service_ratio)
            .round()
            .min(offered_requests as f64) as u64;

        // Raw performance in the slice's natural unit. Idle slots (no offered
        // traffic) report the SLA target itself: the application has nothing
        // to complain about, so the slot is cost-free.
        let raw_performance = if arrival_rate <= 0.0 {
            match kind {
                SliceKind::Mar => sla.performance_target,
                SliceKind::Hvs => workload.target_fps,
                SliceKind::Rdc => 1.0,
            }
        } else {
            match kind {
                SliceKind::Mar => {
                    // Dropped frames are counted as if they had to be resent:
                    // the effective latency grows as the service ratio falls.
                    rtt_ms / service_ratio.max(1e-3)
                }
                SliceKind::Hvs => {
                    let rate_factor = if dl_demand > 0.0 {
                        (dl.goodput_mbps / dl_demand).min(1.0)
                    } else {
                        1.0
                    };
                    let delivery_factor =
                        (1.0 - tn.loss_prob) * (1.0 - cn.loss_prob) * (1.0 - edge.loss_prob);
                    workload.target_fps * rate_factor * delivery_factor
                }
                SliceKind::Rdc => service_ratio,
            }
        };

        SlotKpi::new(
            sla,
            action,
            raw_performance,
            offered_requests,
            served_requests,
            rtt_ms,
            ul.goodput_mbps,
            dl.goodput_mbps,
            if kind == SliceKind::Hvs {
                raw_performance
            } else {
                0.0
            },
            if kind == SliceKind::Rdc {
                raw_performance
            } else {
                service_ratio
            },
            ul.retransmission_prob.max(dl.retransmission_prob),
            channel_quality,
            0.5 * (ul.utilization + dl.utilization),
            edge.workload.max(cn.offered_load.min(2.0)),
        )
    }

    /// Samples a ping-style round-trip time through RAN + TN + CN (no edge
    /// processing), used for the Fig. 16 latency CDF.
    pub fn ping_rtt_ms(&mut self) -> f64 {
        let base = self.config.ran.base_rtt_ms()
            + 2.0 * self.config.tn.base_delay_ms
            + 2.0 * self.config.cn.base_delay_ms;
        let jitter = self.config.ran.profile.latency_jitter_ms
            * onslicing_traffic::arrivals::standard_normal(&mut self.rng).abs()
            * 2.0;
        base + jitter + self.rng.gen::<f64>() * 2.0
    }

    /// Saturation throughput (Mbps) a slice would achieve in the given
    /// direction with the given bandwidth share — the RDM isolation
    /// measurement of Fig. 5.
    pub fn saturation_throughput_mbps(
        &mut self,
        kind: SliceKind,
        share: f64,
        direction: Direction,
    ) -> f64 {
        let channel = self.channels.get_mut(&kind).expect("channel exists");
        let cqi = channel.current_cqi_index();
        let out = self.config.ran.evaluate(
            direction,
            share,
            0,
            onslicing_slices::SchedulerKind::ProportionalFair,
            cqi,
            1e6, // effectively infinite offered load
            12_000.0,
        );
        out.goodput_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> NetworkSimulator {
        NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(7))
    }

    /// A generously provisioned action for any slice.
    fn generous() -> Action {
        Action {
            ul_bandwidth: 0.6,
            ul_mcs_offset: 0.0,
            ul_scheduler: 0.5,
            dl_bandwidth: 0.6,
            dl_mcs_offset: 0.0,
            dl_scheduler: 0.5,
            tn_bandwidth: 0.2,
            tn_path: 0.5,
            cpu: 0.6,
            ram: 0.5,
        }
    }

    /// A starved action.
    fn starved() -> Action {
        Action {
            ul_bandwidth: 0.02,
            ul_mcs_offset: 0.0,
            ul_scheduler: 0.5,
            dl_bandwidth: 0.02,
            dl_mcs_offset: 0.0,
            dl_scheduler: 0.5,
            tn_bandwidth: 0.002,
            tn_path: 0.0,
            cpu: 0.03,
            ram: 0.03,
        }
    }

    #[test]
    fn generous_mar_allocation_meets_the_latency_sla() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Mar);
        let kpi = s.step_slice(SliceKind::Mar, &sla, &generous(), 5.0);
        assert!(kpi.validate().is_ok());
        assert!(
            kpi.avg_latency_ms < 500.0,
            "latency {} should meet the SLA",
            kpi.avg_latency_ms
        );
        assert_eq!(kpi.cost, 0.0);
    }

    #[test]
    fn starved_mar_allocation_violates_the_latency_sla() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Mar);
        let kpi = s.step_slice(SliceKind::Mar, &sla, &starved(), 5.0);
        assert!(kpi.avg_latency_ms > 500.0);
        assert!(kpi.cost > 0.3);
    }

    #[test]
    fn generous_hvs_allocation_delivers_full_frame_rate() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Hvs);
        let kpi = s.step_slice(SliceKind::Hvs, &sla, &generous(), 2.0);
        assert!(kpi.delivered_fps > 29.0, "fps {}", kpi.delivered_fps);
        // A sliver of residual radio loss is unavoidable; the cost must be
        // negligible relative to the 5 % SLA threshold.
        assert!(kpi.cost < 0.005, "cost {}", kpi.cost);
    }

    #[test]
    fn starved_hvs_allocation_drops_frames() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Hvs);
        let kpi = s.step_slice(SliceKind::Hvs, &sla, &starved(), 2.0);
        assert!(kpi.delivered_fps < 25.0, "fps {}", kpi.delivered_fps);
        assert!(kpi.cost > 0.1);
    }

    #[test]
    fn rdc_needs_the_mcs_offset_to_reach_five_nines() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Rdc);
        let mut without_offset = generous();
        without_offset.ul_mcs_offset = 0.0;
        without_offset.dl_mcs_offset = 0.0;
        let mut with_offset = generous();
        with_offset.ul_mcs_offset = 0.6; // offset 6
        with_offset.dl_mcs_offset = 0.6;
        let kpi_without = s.step_slice(SliceKind::Rdc, &sla, &without_offset, 100.0);
        let kpi_with = s.step_slice(SliceKind::Rdc, &sla, &with_offset, 100.0);
        assert!(kpi_without.reliability < 0.9999);
        assert!(kpi_without.cost > 0.1);
        assert!(
            kpi_with.reliability > 0.99999,
            "reliability {}",
            kpi_with.reliability
        );
        assert_eq!(kpi_with.cost, 0.0);
    }

    #[test]
    fn more_resources_never_hurt_performance() {
        let mut s = sim();
        let sla = Sla::for_kind(SliceKind::Mar);
        let mid = Action::uniform(0.3);
        let kpi_mid = s.step_slice(SliceKind::Mar, &sla, &mid, 5.0);
        s.reseed(7);
        let kpi_big = s.step_slice(SliceKind::Mar, &sla, &generous(), 5.0);
        assert!(kpi_big.avg_latency_ms <= kpi_mid.avg_latency_ms * 1.2);
    }

    #[test]
    fn idle_slot_is_cost_free() {
        let mut s = sim();
        for kind in SliceKind::ALL {
            let sla = Sla::for_kind(kind);
            let kpi = s.step_slice(kind, &sla, &generous(), 0.0);
            assert_eq!(kpi.cost, 0.0, "{kind}: idle slot should cost nothing");
            assert_eq!(kpi.offered_requests, 0);
        }
    }

    #[test]
    fn nr_ping_is_faster_than_lte_ping() {
        let mut lte = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(3));
        let mut nr = NetworkSimulator::new(NetworkConfig::testbed_nr().with_seed(3));
        let lte_avg: f64 = (0..200).map(|_| lte.ping_rtt_ms()).sum::<f64>() / 200.0;
        let nr_avg: f64 = (0..200).map(|_| nr.ping_rtt_ms()).sum::<f64>() / 200.0;
        assert!(
            nr_avg < lte_avg,
            "NR ping {nr_avg} should beat LTE ping {lte_avg}"
        );
        assert!(
            lte_avg > 20.0 && lte_avg < 45.0,
            "LTE ping {lte_avg} should be tens of ms"
        );
        assert!(
            nr_avg > 5.0 && nr_avg < 25.0,
            "NR ping {nr_avg} should be ~10-20 ms"
        );
    }

    #[test]
    fn saturation_throughput_scales_with_the_share() {
        let mut s = sim();
        let half = s.saturation_throughput_mbps(SliceKind::Hvs, 0.5, Direction::Downlink);
        let full = s.saturation_throughput_mbps(SliceKind::Hvs, 1.0, Direction::Downlink);
        assert!(full > 1.8 * half);
        assert!(
            full > 30.0,
            "full-carrier DL throughput {full} Mbps should be tens of Mbps"
        );
    }

    #[test]
    fn simulation_is_reproducible_for_a_fixed_seed() {
        let mut a = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(11));
        let mut b = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(11));
        let sla = Sla::for_kind(SliceKind::Mar);
        for _ in 0..5 {
            let ka = a.step_slice(SliceKind::Mar, &sla, &generous(), 3.0);
            let kb = b.step_slice(SliceKind::Mar, &sla, &generous(), 3.0);
            assert_eq!(ka, kb);
        }
    }
}
