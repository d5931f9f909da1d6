//! The rule-based baseline policy (paper §7.1, "Baseline").
//!
//! The paper builds its baseline in three steps: (1) identify the key action
//! factors of each slice offline ([U_u, U_b, U_c] for MAR, [U_d, U_b] for
//! HVS, [U_m, U_s] for RDC), (2) grid-search the minimum resource usage that
//! meets the slice's performance requirement at each traffic level, and (3)
//! let the domain managers project over-requests. This module reproduces
//! steps (1) and (2): [`RuleBasedBaseline::calibrate`] runs the grid search
//! against the network simulator and stores one action per traffic bucket;
//! at run time the policy looks up the bucket of the observed traffic.
//!
//! The same object serves as the baseline policy `π_b` that the OnSlicing
//! agent imitates offline (Eq. 15) and proactively switches to (Eq. 8).

use serde::{Deserialize, Serialize};

use onslicing_netsim::{NetworkConfig, NetworkSimulator};
use onslicing_slices::{Action, Sla, SliceKind, SliceState};

use super::SlicePolicy;

/// Safety margin on the performance score required during calibration: a
/// candidate counts as "meeting the requirement" only if its score stays
/// above `1 + CALIBRATION_MARGIN` in the evaluation slots, so that run-time
/// noise does not immediately cause violations.
const CALIBRATION_MARGIN: f64 = 0.08;

/// Number of simulated slots used to evaluate one candidate at one traffic
/// level.
const EVAL_SLOTS: usize = 3;

/// The grid-searched rule-based baseline for one slice: its table is all it
/// holds, so the bucket count is `table.len() - 1` and the slice kind is the
/// owning agent's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleBasedBaseline {
    /// One pre-computed action per traffic bucket (index 0 = idle, last =
    /// peak traffic).
    table: Vec<Action>,
}

impl RuleBasedBaseline {
    /// Runs the offline grid search for the given slice on the given network
    /// and returns the calibrated policy.
    ///
    /// `peak_rate` is the slice's peak arrival rate in users/s (the value its
    /// normalized traffic observation is scaled by).
    pub fn calibrate(
        kind: SliceKind,
        sla: &Sla,
        network: &NetworkConfig,
        peak_rate: f64,
        num_buckets: usize,
        seed: u64,
    ) -> Self {
        assert!(num_buckets >= 2, "need at least two traffic buckets");
        assert!(peak_rate > 0.0, "peak rate must be positive");
        let mut sim = NetworkSimulator::new(network.with_seed(seed));
        let candidates = Self::candidates(kind);
        let mut table = Vec::with_capacity(num_buckets + 1);
        for bucket in 0..=num_buckets {
            // Evaluate at the bucket's *upper* edge so the chosen action is
            // conservative for every traffic level that maps to the bucket.
            let arrival = peak_rate * (bucket as f64 / num_buckets as f64);
            let mut best: Option<(f64, Action)> = None;
            for candidate in &candidates {
                if Self::meets_requirement(&mut sim, kind, sla, candidate, arrival) {
                    let usage = candidate.resource_usage();
                    if best.as_ref().is_none_or(|(u, _)| usage < *u) {
                        best = Some((usage, *candidate));
                    }
                }
            }
            // If nothing meets the requirement (e.g. the traffic exceeds what
            // any single-slice allocation can serve), fall back to the most
            // generous candidate.
            let chosen = best.map(|(_, a)| a).unwrap_or_else(|| {
                *candidates
                    .iter()
                    .max_by(|a, b| a.resource_usage().partial_cmp(&b.resource_usage()).unwrap())
                    .expect("candidate grid is never empty")
            });
            table.push(chosen);
        }
        Self { table }
    }

    /// The calibrated lookup table (one action per traffic bucket).
    pub fn table(&self) -> &[Action] {
        &self.table
    }

    /// The action chosen for a given normalized traffic level in `[0, 1]`.
    pub fn action_for_traffic(&self, normalized_traffic: f64) -> Action {
        let t = normalized_traffic.clamp(0.0, 1.0);
        let num_buckets = self.table.len() - 1;
        let bucket = (t * num_buckets as f64).ceil() as usize;
        self.table[bucket.min(num_buckets)]
    }

    /// Default values of the non-key action dimensions for each slice kind.
    ///
    /// Every dimension a slice genuinely needs is kept comfortably above the
    /// point where the service collapses (≥ 0.08): the baseline is the policy
    /// the learning agent imitates and explores *around*, and razor-thin
    /// allocations would turn ordinary exploration noise into total outages —
    /// something an operator-crafted rule would never do either.
    fn default_action(kind: SliceKind) -> Action {
        match kind {
            SliceKind::Mar => Action {
                ul_bandwidth: 0.1,
                ul_mcs_offset: 0.0,
                ul_scheduler: 0.5,
                dl_bandwidth: 0.12,
                dl_mcs_offset: 0.0,
                dl_scheduler: 0.5,
                tn_bandwidth: 0.05,
                tn_path: 0.3,
                cpu: 0.12,
                ram: 0.3,
            },
            SliceKind::Hvs => Action {
                ul_bandwidth: 0.08,
                ul_mcs_offset: 0.0,
                ul_scheduler: 0.5,
                dl_bandwidth: 0.12,
                dl_mcs_offset: 0.0,
                dl_scheduler: 0.5,
                tn_bandwidth: 0.05,
                tn_path: 0.3,
                cpu: 0.12,
                ram: 0.25,
            },
            SliceKind::Rdc => Action {
                ul_bandwidth: 0.08,
                ul_mcs_offset: 0.0,
                ul_scheduler: 0.2,
                dl_bandwidth: 0.08,
                dl_mcs_offset: 0.0,
                dl_scheduler: 0.2,
                tn_bandwidth: 0.05,
                tn_path: 0.1,
                cpu: 0.12,
                ram: 0.1,
            },
        }
    }

    /// The candidate grid over the slice's key action factors, applied on top
    /// of the defaults.
    fn candidates(kind: SliceKind) -> Vec<Action> {
        let base = Self::default_action(kind);
        let bandwidth_grid = [0.08, 0.12, 0.16, 0.2, 0.3, 0.4, 0.5, 0.7];
        let cpu_grid = [0.08, 0.12, 0.16, 0.2, 0.3, 0.4, 0.5, 0.7];
        let tn_grid = [0.05, 0.08, 0.12, 0.2];
        let offset_grid = [0.0, 0.2, 0.4, 0.6, 0.8];
        let mut out = Vec::new();
        match kind {
            SliceKind::Mar => {
                for &uu in &bandwidth_grid {
                    for &uc in &cpu_grid {
                        for &ub in &tn_grid {
                            let mut a = base;
                            a.ul_bandwidth = uu;
                            a.cpu = uc;
                            a.tn_bandwidth = ub;
                            out.push(a);
                        }
                    }
                }
            }
            SliceKind::Hvs => {
                for &ud in &bandwidth_grid {
                    for &ub in &tn_grid {
                        let mut a = base;
                        a.dl_bandwidth = ud;
                        a.tn_bandwidth = ub;
                        out.push(a);
                    }
                }
            }
            SliceKind::Rdc => {
                for &um in &offset_grid {
                    for &us in &offset_grid {
                        let mut a = base;
                        a.ul_mcs_offset = um;
                        a.dl_mcs_offset = us;
                        out.push(a);
                    }
                }
            }
        }
        out
    }

    /// Whether a candidate keeps the slice's performance score above the
    /// calibration margin at the given arrival rate.
    fn meets_requirement(
        sim: &mut NetworkSimulator,
        kind: SliceKind,
        sla: &Sla,
        candidate: &Action,
        arrival_rate: f64,
    ) -> bool {
        for _ in 0..EVAL_SLOTS {
            let kpi = sim.step_slice(kind, sla, candidate, arrival_rate);
            if kpi.performance_score < 1.0 + CALIBRATION_MARGIN {
                return false;
            }
        }
        true
    }
}

impl SlicePolicy for RuleBasedBaseline {
    fn act(&self, state: &SliceState) -> Action {
        self.action_for_traffic(state.traffic)
    }

    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SliceEnvironment;

    fn calibrated(kind: SliceKind) -> RuleBasedBaseline {
        let sla = Sla::for_kind(kind);
        RuleBasedBaseline::calibrate(
            kind,
            &sla,
            &NetworkConfig::testbed_default(),
            kind.default_peak_users_per_second(),
            5,
            123,
        )
    }

    #[test]
    fn calibration_produces_one_action_per_bucket() {
        let b = calibrated(SliceKind::Mar);
        assert_eq!(b.table().len(), 6);
    }

    #[test]
    fn allocations_grow_with_traffic() {
        let b = calibrated(SliceKind::Mar);
        let low = b.action_for_traffic(0.1).resource_usage();
        let high = b.action_for_traffic(1.0).resource_usage();
        assert!(
            high >= low,
            "peak-traffic allocation {high} should not be below idle {low}"
        );
    }

    #[test]
    fn rdc_calibration_selects_a_positive_mcs_offset() {
        let b = calibrated(SliceKind::Rdc);
        let at_peak = b.action_for_traffic(1.0);
        assert!(
            at_peak.ul_mcs_offset_steps() >= 4,
            "RDC needs a large uplink MCS offset, got {}",
            at_peak.ul_mcs_offset_steps()
        );
    }

    #[test]
    fn baseline_keeps_every_slice_violation_free_over_an_episode() {
        for kind in SliceKind::ALL {
            let baseline = calibrated(kind);
            let mut env = SliceEnvironment::new(kind, NetworkConfig::testbed_default(), 7);
            env.reset();
            loop {
                let action = baseline.act(&env.state());
                if env.step(&action).done {
                    break;
                }
            }
            assert!(
                !env.is_violated(),
                "{kind}: baseline violated its SLA (avg cost {})",
                env.average_cost()
            );
        }
    }

    #[test]
    fn baseline_uses_substantially_less_than_full_allocation() {
        let b = calibrated(SliceKind::Hvs);
        let at_peak = b.action_for_traffic(1.0);
        assert!(at_peak.resource_usage_percent() < 60.0);
    }

    #[test]
    fn action_for_traffic_clamps_out_of_range_inputs() {
        let b = calibrated(SliceKind::Hvs);
        assert_eq!(b.action_for_traffic(-1.0), b.table()[0]);
        assert_eq!(b.action_for_traffic(2.0), *b.table().last().unwrap());
    }
}
