//! The ten-dimensional resource-orchestration action space (paper §3).
//!
//! Every dimension is a normalized share in `[0, 1]`, matching the Sigmoid
//! actor output in the paper's agent implementation. The environment (the
//! domain managers and the network simulator) interprets each share against
//! the corresponding physical capacity: e.g. `ul_bandwidth = 0.3` reserves
//! 30 % of the cell's uplink PRBs, `ul_mcs_offset = 0.6` maps to an MCS
//! offset of `round(0.6 · 10) = 6`, and `ul_scheduler` selects one of the
//! implemented MAC schedulers.
//!
//! The reward (Eq. 9) counts only the six dimensions that consume shareable
//! infrastructure resources; the MCS offsets and scheduler choices influence
//! resource usage only indirectly and are excluded, exactly as in the paper.

use serde::{Deserialize, Serialize};

/// Number of action dimensions.
pub const ACTION_DIM: usize = 10;

/// Identifies one of the ten action dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionDim {
    /// Uplink radio bandwidth share (`U_u`).
    UlBandwidth,
    /// Uplink MCS offset, normalized over `0..=10` (`U_m`).
    UlMcsOffset,
    /// Uplink scheduling algorithm selector (`U_a`).
    UlScheduler,
    /// Downlink radio bandwidth share (`U_d`).
    DlBandwidth,
    /// Downlink MCS offset, normalized over `0..=10` (`U_s`).
    DlMcsOffset,
    /// Downlink scheduling algorithm selector (`U_g`).
    DlScheduler,
    /// Transport-network bandwidth share (`U_b`).
    TnBandwidth,
    /// Reserved transport path share (`U_l`).
    TnPath,
    /// CPU share for the co-located SPGW-U and edge server (`U_c`).
    Cpu,
    /// RAM share for the co-located SPGW-U and edge server (`U_r`).
    Ram,
}

impl ActionDim {
    /// All dimensions in storage order.
    pub const ALL: [ActionDim; ACTION_DIM] = [
        ActionDim::UlBandwidth,
        ActionDim::UlMcsOffset,
        ActionDim::UlScheduler,
        ActionDim::DlBandwidth,
        ActionDim::DlMcsOffset,
        ActionDim::DlScheduler,
        ActionDim::TnBandwidth,
        ActionDim::TnPath,
        ActionDim::Cpu,
        ActionDim::Ram,
    ];

    /// The paper's symbol for this dimension (`U_u`, `U_m`, …).
    pub fn symbol(self) -> &'static str {
        match self {
            ActionDim::UlBandwidth => "Uu",
            ActionDim::UlMcsOffset => "Um",
            ActionDim::UlScheduler => "Ua",
            ActionDim::DlBandwidth => "Ud",
            ActionDim::DlMcsOffset => "Us",
            ActionDim::DlScheduler => "Ug",
            ActionDim::TnBandwidth => "Ub",
            ActionDim::TnPath => "Ul",
            ActionDim::Cpu => "Uc",
            ActionDim::Ram => "Ur",
        }
    }

    /// Index of this dimension in the flat action vector.
    pub fn index(self) -> usize {
        ActionDim::ALL
            .iter()
            .position(|d| *d == self)
            .expect("dimension is in ALL")
    }

    /// The shared infrastructure resource this dimension draws from, if any.
    pub fn resource(self) -> Option<ResourceKind> {
        match self {
            ActionDim::UlBandwidth => Some(ResourceKind::UplinkRadio),
            ActionDim::DlBandwidth => Some(ResourceKind::DownlinkRadio),
            ActionDim::TnBandwidth => Some(ResourceKind::TransportBandwidth),
            ActionDim::TnPath => Some(ResourceKind::TransportPath),
            ActionDim::Cpu => Some(ResourceKind::EdgeCpu),
            ActionDim::Ram => Some(ResourceKind::EdgeRam),
            _ => None,
        }
    }
}

/// A shared, capacity-constrained infrastructure resource (Eq. 12).
///
/// Each resource lives in exactly one technical domain and is managed by the
/// corresponding domain manager; the per-slice shares of a resource must sum
/// to at most the (normalized) capacity `L_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Uplink PRBs in the RAN (managed by the RDM).
    UplinkRadio,
    /// Downlink RBGs in the RAN (managed by the RDM).
    DownlinkRadio,
    /// Transport-network bandwidth, i.e. OpenFlow meter budget (TDM).
    TransportBandwidth,
    /// Reserved transport paths (TDM).
    TransportPath,
    /// CPU of the co-located SPGW-U / edge server (CDM + EDM).
    EdgeCpu,
    /// RAM of the co-located SPGW-U / edge server (CDM + EDM).
    EdgeRam,
}

impl ResourceKind {
    /// All shared resources in a fixed order.
    pub const ALL: [ResourceKind; 6] = [
        ResourceKind::UplinkRadio,
        ResourceKind::DownlinkRadio,
        ResourceKind::TransportBandwidth,
        ResourceKind::TransportPath,
        ResourceKind::EdgeCpu,
        ResourceKind::EdgeRam,
    ];

    /// Index of this resource in [`ResourceKind::ALL`].
    pub fn index(self) -> usize {
        ResourceKind::ALL
            .iter()
            .position(|r| *r == self)
            .expect("resource is in ALL")
    }

    /// The action dimension through which a slice requests this resource.
    pub fn action_dim(self) -> ActionDim {
        match self {
            ResourceKind::UplinkRadio => ActionDim::UlBandwidth,
            ResourceKind::DownlinkRadio => ActionDim::DlBandwidth,
            ResourceKind::TransportBandwidth => ActionDim::TnBandwidth,
            ResourceKind::TransportPath => ActionDim::TnPath,
            ResourceKind::EdgeCpu => ActionDim::Cpu,
            ResourceKind::EdgeRam => ActionDim::Ram,
        }
    }

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::UplinkRadio => "ul-radio",
            ResourceKind::DownlinkRadio => "dl-radio",
            ResourceKind::TransportBandwidth => "tn-bandwidth",
            ResourceKind::TransportPath => "tn-path",
            ResourceKind::EdgeCpu => "edge-cpu",
            ResourceKind::EdgeRam => "edge-ram",
        }
    }
}

/// MAC scheduling algorithms selectable per slice and direction (§6, RDM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Round-robin: equal turns for all slice users.
    RoundRobin,
    /// Proportional fair: balances throughput and fairness using channel state.
    ProportionalFair,
    /// Max-CQI: always serves the best-channel user (maximizes cell throughput).
    MaxCqi,
}

impl SchedulerKind {
    /// Decodes the normalized scheduler selector of an action dimension.
    pub fn from_normalized(v: f64) -> Self {
        let v = v.clamp(0.0, 1.0);
        if v < 1.0 / 3.0 {
            SchedulerKind::RoundRobin
        } else if v < 2.0 / 3.0 {
            SchedulerKind::ProportionalFair
        } else {
            SchedulerKind::MaxCqi
        }
    }
}

/// A complete resource-orchestration action for one slice at one slot.
///
/// All fields are normalized shares in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Action {
    /// Uplink radio bandwidth share (`U_u`).
    pub ul_bandwidth: f64,
    /// Uplink MCS offset, normalized over `0..=10` (`U_m`).
    pub ul_mcs_offset: f64,
    /// Uplink scheduler selector (`U_a`).
    pub ul_scheduler: f64,
    /// Downlink radio bandwidth share (`U_d`).
    pub dl_bandwidth: f64,
    /// Downlink MCS offset, normalized over `0..=10` (`U_s`).
    pub dl_mcs_offset: f64,
    /// Downlink scheduler selector (`U_g`).
    pub dl_scheduler: f64,
    /// Transport bandwidth share (`U_b`).
    pub tn_bandwidth: f64,
    /// Reserved transport path share (`U_l`).
    pub tn_path: f64,
    /// CPU share for SPGW-U + edge server (`U_c`).
    pub cpu: f64,
    /// RAM share for SPGW-U + edge server (`U_r`).
    pub ram: f64,
}

impl Action {
    /// Maximum MCS offset the RDM accepts (the paper sweeps 0–10 in Fig. 6).
    pub const MAX_MCS_OFFSET: u32 = 10;

    /// An all-zero action (no resources requested).
    pub fn zeros() -> Self {
        Self::uniform(0.0)
    }

    /// An action with every dimension set to `v` (clamped to `[0, 1]`).
    pub fn uniform(v: f64) -> Self {
        let v = v.clamp(0.0, 1.0);
        Self {
            ul_bandwidth: v,
            ul_mcs_offset: v,
            ul_scheduler: v,
            dl_bandwidth: v,
            dl_mcs_offset: v,
            dl_scheduler: v,
            tn_bandwidth: v,
            tn_path: v,
            cpu: v,
            ram: v,
        }
    }

    /// Builds an action from a flat vector in [`ActionDim::ALL`] order,
    /// clamping every element to `[0, 1]`.
    ///
    /// # Panics
    /// Panics if the vector does not have [`ACTION_DIM`] elements.
    pub fn from_vec(v: &[f64]) -> Self {
        assert_eq!(
            v.len(),
            ACTION_DIM,
            "action vector must have {ACTION_DIM} elements"
        );
        Self {
            ul_bandwidth: v[0].clamp(0.0, 1.0),
            ul_mcs_offset: v[1].clamp(0.0, 1.0),
            ul_scheduler: v[2].clamp(0.0, 1.0),
            dl_bandwidth: v[3].clamp(0.0, 1.0),
            dl_mcs_offset: v[4].clamp(0.0, 1.0),
            dl_scheduler: v[5].clamp(0.0, 1.0),
            tn_bandwidth: v[6].clamp(0.0, 1.0),
            tn_path: v[7].clamp(0.0, 1.0),
            cpu: v[8].clamp(0.0, 1.0),
            ram: v[9].clamp(0.0, 1.0),
        }
    }

    /// Flattens the action into a vector in [`ActionDim::ALL`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.ul_bandwidth,
            self.ul_mcs_offset,
            self.ul_scheduler,
            self.dl_bandwidth,
            self.dl_mcs_offset,
            self.dl_scheduler,
            self.tn_bandwidth,
            self.tn_path,
            self.cpu,
            self.ram,
        ]
    }

    /// Reads one dimension.
    pub fn get(&self, dim: ActionDim) -> f64 {
        match dim {
            ActionDim::UlBandwidth => self.ul_bandwidth,
            ActionDim::UlMcsOffset => self.ul_mcs_offset,
            ActionDim::UlScheduler => self.ul_scheduler,
            ActionDim::DlBandwidth => self.dl_bandwidth,
            ActionDim::DlMcsOffset => self.dl_mcs_offset,
            ActionDim::DlScheduler => self.dl_scheduler,
            ActionDim::TnBandwidth => self.tn_bandwidth,
            ActionDim::TnPath => self.tn_path,
            ActionDim::Cpu => self.cpu,
            ActionDim::Ram => self.ram,
        }
    }

    /// Writes one dimension (clamped to `[0, 1]`).
    pub fn set(&mut self, dim: ActionDim, value: f64) {
        let value = value.clamp(0.0, 1.0);
        match dim {
            ActionDim::UlBandwidth => self.ul_bandwidth = value,
            ActionDim::UlMcsOffset => self.ul_mcs_offset = value,
            ActionDim::UlScheduler => self.ul_scheduler = value,
            ActionDim::DlBandwidth => self.dl_bandwidth = value,
            ActionDim::DlMcsOffset => self.dl_mcs_offset = value,
            ActionDim::DlScheduler => self.dl_scheduler = value,
            ActionDim::TnBandwidth => self.tn_bandwidth = value,
            ActionDim::TnPath => self.tn_path = value,
            ActionDim::Cpu => self.cpu = value,
            ActionDim::Ram => self.ram = value,
        }
    }

    /// Total virtual resource usage, i.e. the negated reward of Eq. 9:
    /// `U_u + U_d + U_b + U_l + U_c + U_r`. The result is in `[0, 6]`.
    pub fn resource_usage(&self) -> f64 {
        self.ul_bandwidth
            + self.dl_bandwidth
            + self.tn_bandwidth
            + self.tn_path
            + self.cpu
            + self.ram
    }

    /// Average per-dimension resource usage as a percentage (0–100), the unit
    /// the paper's tables and figures report.
    pub fn resource_usage_percent(&self) -> f64 {
        self.resource_usage() / 6.0 * 100.0
    }

    /// The reward of Eq. 9 (the negative resource usage).
    pub fn reward(&self) -> f64 {
        -self.resource_usage()
    }

    /// Squared l2 distance to another action over all ten dimensions (the
    /// first term of the action-modification objective, Eq. 11/13).
    pub fn squared_distance(&self, other: &Action) -> f64 {
        self.to_vec()
            .iter()
            .zip(other.to_vec().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// The share requested from the given shared resource.
    pub fn resource_share(&self, resource: ResourceKind) -> f64 {
        self.get(resource.action_dim())
    }

    /// Decoded uplink MCS offset (0–10).
    pub fn ul_mcs_offset_steps(&self) -> u32 {
        (self.ul_mcs_offset.clamp(0.0, 1.0) * Self::MAX_MCS_OFFSET as f64).round() as u32
    }

    /// Decoded downlink MCS offset (0–10).
    pub fn dl_mcs_offset_steps(&self) -> u32 {
        (self.dl_mcs_offset.clamp(0.0, 1.0) * Self::MAX_MCS_OFFSET as f64).round() as u32
    }

    /// Decoded uplink scheduler.
    pub fn ul_scheduler_kind(&self) -> SchedulerKind {
        SchedulerKind::from_normalized(self.ul_scheduler)
    }

    /// Decoded downlink scheduler.
    pub fn dl_scheduler_kind(&self) -> SchedulerKind {
        SchedulerKind::from_normalized(self.dl_scheduler)
    }
}

impl Default for Action {
    fn default() -> Self {
        Action::uniform(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_dim_constants_are_consistent() {
        assert_eq!(ActionDim::ALL.len(), ACTION_DIM);
        for (i, d) in ActionDim::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn usage_counts_exactly_six_dimensions() {
        // MCS offsets and scheduler selectors map to no shared resource and
        // stay out of the resource-usage reward (Eq. 9).
        let counted = ActionDim::ALL
            .iter()
            .filter(|d| d.resource().is_some())
            .count();
        assert_eq!(counted, 6);
    }

    #[test]
    fn resource_kind_round_trips_through_action_dim() {
        for r in ResourceKind::ALL {
            assert_eq!(r.action_dim().resource(), Some(r));
        }
    }

    #[test]
    fn to_vec_from_vec_round_trip() {
        let a = Action {
            ul_bandwidth: 0.1,
            ul_mcs_offset: 0.2,
            ul_scheduler: 0.3,
            dl_bandwidth: 0.4,
            dl_mcs_offset: 0.5,
            dl_scheduler: 0.6,
            tn_bandwidth: 0.7,
            tn_path: 0.8,
            cpu: 0.9,
            ram: 1.0,
        };
        assert_eq!(Action::from_vec(&a.to_vec()), a);
    }

    #[test]
    fn from_vec_clamps_out_of_range_values() {
        let v = vec![-1.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let a = Action::from_vec(&v);
        assert_eq!(a.ul_bandwidth, 0.0);
        assert_eq!(a.ul_mcs_offset, 1.0);
    }

    #[test]
    fn resource_usage_matches_eq9() {
        let mut a = Action::zeros();
        a.ul_bandwidth = 0.2;
        a.dl_bandwidth = 0.3;
        a.tn_bandwidth = 0.1;
        a.tn_path = 0.1;
        a.cpu = 0.2;
        a.ram = 0.1;
        // MCS offsets / schedulers must not change usage
        a.ul_mcs_offset = 0.9;
        a.dl_scheduler = 0.9;
        assert!((a.resource_usage() - 1.0).abs() < 1e-12);
        assert!((a.reward() + 1.0).abs() < 1e-12);
        assert!((a.resource_usage_percent() - 100.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn get_and_set_address_the_right_dimension() {
        let mut a = Action::zeros();
        a.set(ActionDim::Cpu, 0.7);
        assert_eq!(a.cpu, 0.7);
        assert_eq!(a.get(ActionDim::Cpu), 0.7);
        a.set(ActionDim::UlMcsOffset, 5.0); // clamped
        assert_eq!(a.ul_mcs_offset, 1.0);
    }

    #[test]
    fn mcs_offset_decoding() {
        let mut a = Action::zeros();
        a.ul_mcs_offset = 0.6;
        a.dl_mcs_offset = 0.04;
        assert_eq!(a.ul_mcs_offset_steps(), 6);
        assert_eq!(a.dl_mcs_offset_steps(), 0);
    }

    #[test]
    fn scheduler_decoding_covers_all_kinds() {
        assert_eq!(
            SchedulerKind::from_normalized(0.1),
            SchedulerKind::RoundRobin
        );
        assert_eq!(
            SchedulerKind::from_normalized(0.5),
            SchedulerKind::ProportionalFair
        );
        assert_eq!(SchedulerKind::from_normalized(0.9), SchedulerKind::MaxCqi);
    }

    #[test]
    fn squared_distance_is_zero_to_self_and_symmetric() {
        let a = Action::uniform(0.3);
        let b = Action::uniform(0.6);
        assert_eq!(a.squared_distance(&a), 0.0);
        assert!((a.squared_distance(&b) - b.squared_distance(&a)).abs() < 1e-12);
        assert!((a.squared_distance(&b) - 10.0 * 0.09).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "action vector must have")]
    fn from_vec_rejects_wrong_length() {
        let _ = Action::from_vec(&[0.0; 5]);
    }
}
