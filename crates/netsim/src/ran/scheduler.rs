//! MAC scheduler models.
//!
//! The RDM lets every slice choose its own uplink and downlink scheduling
//! algorithm (action dimensions `U_a` and `U_g`). A full per-TTI scheduler is
//! far below the 15-minute timescale the agent operates on, so the simulator
//! captures the *slot-aggregate* effect of the scheduling discipline: how
//! efficiently the slice's PRBs are turned into throughput and how much
//! queueing delay users see. (The slot's latency jitter is the RAN profile's
//! `latency_jitter_ms` whatever the scheduler.)
//!
//! * **Round-robin** serves users in turn regardless of channel state; it
//!   wastes some capacity on bad-channel users.
//! * **Proportional fair** weighs instantaneous channel against average
//!   throughput; slightly better cell efficiency with near-RR fairness.
//! * **Max-CQI** always serves the best channel; highest aggregate
//!   throughput, but poor-channel users see extra queueing delay.

use serde::{Deserialize, Serialize};

use onslicing_slices::SchedulerKind;

/// Slot-aggregate effect of a scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerEffect {
    /// Multiplier on the slice's link capacity (1.0 = nominal).
    pub throughput_factor: f64,
    /// Multiplier on the per-request queueing delay.
    pub delay_factor: f64,
}

/// Returns the aggregate effect of a scheduler choice, given the normalized
/// channel quality (0–1) of the slice's users.
///
/// Channel-aware schedulers gain more when the channel is mediocre (there is
/// diversity to exploit) and converge to round-robin when the channel is
/// uniformly excellent.
pub fn scheduler_effect(kind: SchedulerKind, channel_quality: f64) -> SchedulerEffect {
    let q = channel_quality.clamp(0.0, 1.0);
    // Diversity gain available to channel-aware schedulers: larger when the
    // channel is mid-range, smaller when it is uniformly good (q -> 1).
    let diversity = 0.25 * (1.0 - q);
    match kind {
        SchedulerKind::RoundRobin => SchedulerEffect {
            throughput_factor: 1.0 - 0.6 * diversity,
            delay_factor: 1.0,
        },
        SchedulerKind::ProportionalFair => SchedulerEffect {
            throughput_factor: 1.0,
            delay_factor: 1.0,
        },
        SchedulerKind::MaxCqi => SchedulerEffect {
            throughput_factor: 1.0 + diversity,
            delay_factor: 1.05,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_cqi_has_highest_throughput_and_worst_delay() {
        let q = 0.6;
        let rr = scheduler_effect(SchedulerKind::RoundRobin, q);
        let pf = scheduler_effect(SchedulerKind::ProportionalFair, q);
        let mc = scheduler_effect(SchedulerKind::MaxCqi, q);
        assert!(mc.throughput_factor > pf.throughput_factor);
        assert!(pf.throughput_factor > rr.throughput_factor);
        assert!(mc.delay_factor > rr.delay_factor);
    }

    #[test]
    fn schedulers_converge_when_the_channel_is_perfect() {
        let rr = scheduler_effect(SchedulerKind::RoundRobin, 1.0);
        let mc = scheduler_effect(SchedulerKind::MaxCqi, 1.0);
        assert!((rr.throughput_factor - 1.0).abs() < 1e-12);
        assert!((mc.throughput_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factors_are_positive_and_bounded() {
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::ProportionalFair,
            SchedulerKind::MaxCqi,
        ] {
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let e = scheduler_effect(kind, q);
                assert!(e.throughput_factor > 0.5 && e.throughput_factor < 1.5);
                assert!(e.delay_factor >= 1.0 && e.delay_factor < 2.0);
            }
        }
    }

    #[test]
    fn out_of_range_quality_is_clamped() {
        let a = scheduler_effect(SchedulerKind::MaxCqi, -5.0);
        let b = scheduler_effect(SchedulerKind::MaxCqi, 0.0);
        assert_eq!(a, b);
    }
}
