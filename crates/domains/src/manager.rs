//! Domain managers: RDM, TDM, CDM and EDM.
//!
//! Each manager owns the resources of one technical domain: it runs one
//! [`ParameterCoordinator`] per resource and carries the domain's fault
//! state. The slice registry all four act on — which slices exist and what
//! each was last enforced — is shared, so [`crate::DomainSet`] holds it
//! once. The four concrete managers differ
//! only in which resources they own (and in what they wrap on the real
//! testbed — FlexRAN, OpenDayLight, OpenAir-CN, Docker); their orchestration
//! behaviour is identical, which is why a single [`DomainManager`] type
//! parameterized by [`DomainKind`] models all of them.

use serde::{Deserialize, Serialize};

use onslicing_slices::{Action, ResourceKind};

use crate::coordinator::ParameterCoordinator;

/// The four technical domains of the end-to-end slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomainKind {
    /// Radio domain manager (FlexRAN / OAI eNB+gNB on the testbed).
    Radio,
    /// Transport domain manager (OpenDayLight + OpenFlow meters).
    Transport,
    /// Core domain manager (OpenAir-CN CUPS user plane).
    Core,
    /// Edge domain manager (Docker runtime updates).
    Edge,
}

impl DomainKind {
    /// All domains in the paper's order.
    pub const ALL: [DomainKind; 4] = [
        DomainKind::Radio,
        DomainKind::Transport,
        DomainKind::Core,
        DomainKind::Edge,
    ];

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Radio => "RDM",
            DomainKind::Transport => "TDM",
            DomainKind::Core => "CDM",
            DomainKind::Edge => "EDM",
        }
    }

    /// The shared resources this domain owns.
    ///
    /// CPU and RAM are owned by the edge domain manager: the paper co-locates
    /// each slice's SPGW-U with its edge server, so the CDM's user-plane
    /// compute is drawn from the same allocation (§6).
    pub fn resources(self) -> &'static [ResourceKind] {
        match self {
            DomainKind::Radio => &[ResourceKind::UplinkRadio, ResourceKind::DownlinkRadio],
            DomainKind::Transport => &[
                ResourceKind::TransportBandwidth,
                ResourceKind::TransportPath,
            ],
            DomainKind::Core => &[],
            DomainKind::Edge => &[ResourceKind::EdgeCpu, ResourceKind::EdgeRam],
        }
    }
}

/// A domain manager: one parameter coordinator per owned resource and the
/// domain's fault state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainManager {
    kind: DomainKind,
    coordinators: Vec<ParameterCoordinator>,
    /// Fault-free capacity of every owned resource; the coordinators carry
    /// `nominal_capacity · capacity_scale`.
    nominal_capacity: f64,
    /// Current fault multiplier on the nominal capacity (1.0 = healthy).
    capacity_scale: f64,
}

impl DomainManager {
    /// Creates a manager for the given domain with unit capacity and the
    /// default coordination step size on every owned resource.
    pub fn new(kind: DomainKind) -> Self {
        Self::with_parameters(kind, 1.0, 0.5)
    }

    /// Creates a manager with explicit capacity `L_max` and coordination step
    /// size `ε` for every owned resource.
    pub fn with_parameters(kind: DomainKind, capacity: f64, step_size: f64) -> Self {
        let coordinators = kind
            .resources()
            .iter()
            .map(|r| ParameterCoordinator::new(*r, capacity, step_size))
            .collect();
        Self {
            kind,
            coordinators,
            nominal_capacity: capacity,
            capacity_scale: 1.0,
        }
    }

    /// Which domain this manager controls.
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// The resources this manager owns.
    pub fn resources(&self) -> &'static [ResourceKind] {
        self.kind.resources()
    }

    /// The fault-free capacity every owned resource was configured with.
    pub fn nominal_capacity(&self) -> f64 {
        self.nominal_capacity
    }

    /// The current fault multiplier on the nominal capacity (1.0 = healthy).
    pub fn capacity_scale(&self) -> f64 {
        self.capacity_scale
    }

    /// The *effective* (possibly degraded) capacity of one resource, or
    /// `None` when this manager does not own it.
    pub fn capacity_of(&self, resource: ResourceKind) -> Option<f64> {
        self.coordinators
            .iter()
            .find(|c| c.resource == resource)
            .map(|c| c.capacity)
    }

    /// Applies a fault (or recovery) to every resource this manager owns:
    /// the effective capacity becomes `nominal · scale`. `scale = 1.0`
    /// restores the healthy infrastructure; `scale < 1.0` models degradation
    /// (a failing transport link, a throttled edge host, radio interference).
    ///
    /// # Panics
    /// Panics if the scale is not positive and finite.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "capacity scale must be positive and finite"
        );
        self.capacity_scale = scale;
        for c in &mut self.coordinators {
            c.set_capacity(self.nominal_capacity * scale);
        }
    }

    /// Whether the requested actions fit every resource this manager owns.
    /// Shares are summed straight off the slice, so the hot coordination
    /// loop materializes nothing.
    pub fn is_feasible_slice(&self, actions: &[Action]) -> bool {
        self.coordinators.iter().all(|c| {
            let total: f64 = actions.iter().map(|a| a.resource_share(c.resource)).sum();
            c.is_feasible_total(total)
        })
    }

    /// One coordination round: updates every owned resource's `β_k` from the
    /// requested actions (Eq. 14), allocating nothing.
    pub fn update_coordination_in_place(&mut self, actions: &[Action]) {
        for c in &mut self.coordinators {
            let total: f64 = actions.iter().map(|a| a.resource_share(c.resource)).sum();
            c.update_total(total);
        }
    }

    /// Visits every owned resource's current `β_k` without allocating.
    pub fn for_each_beta(&self, mut f: impl FnMut(ResourceKind, f64)) {
        for c in &self.coordinators {
            f(c.resource, c.beta());
        }
    }

    /// Overwrites the dual variable of one owned resource (warm start or
    /// fixed-β experiments). Silently ignores resources the manager does not
    /// own.
    pub fn set_beta(&mut self, resource: ResourceKind, beta: f64) {
        for c in &mut self.coordinators {
            if c.resource == resource {
                c.set_beta(beta);
            }
        }
    }

    /// Resets every coordinator's `β_k` to zero (cold start).
    pub fn reset_betas(&mut self) {
        for c in &mut self.coordinators {
            c.set_beta(0.0);
        }
    }

    /// Projects the requested actions, in place, so that every owned
    /// resource fits its capacity, scaling each resource independently — the
    /// baseline / OnRL over-request handling the paper compares against.
    /// Actions that already fit a resource are left untouched rather than
    /// multiplied by `1.0`.
    pub fn project_in_place(&self, actions: &mut [Action]) {
        for c in &self.coordinators {
            let total: f64 = actions.iter().map(|a| a.resource_share(c.resource)).sum();
            let scale = c.project_scale(total);
            if scale < 1.0 {
                for a in actions.iter_mut() {
                    let share = a.resource_share(c.resource);
                    a.set(c.resource.action_dim(), share * scale);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainSet, SliceId};

    /// The manager's `(resource, β_k)` pairs, collected for assertions.
    fn betas(m: &DomainManager) -> Vec<(ResourceKind, f64)> {
        let mut out = Vec::new();
        m.for_each_beta(|r, b| out.push((r, b)));
        out
    }

    fn beta_for(m: &DomainManager, resource: ResourceKind) -> f64 {
        betas(m)
            .iter()
            .find(|(r, _)| *r == resource)
            .map_or(0.0, |(_, b)| *b)
    }

    #[test]
    fn domains_own_disjoint_resources_covering_all_six() {
        let mut seen = Vec::new();
        for d in DomainKind::ALL {
            for r in d.resources() {
                assert!(!seen.contains(r), "{r:?} owned by two domains");
                seen.push(*r);
            }
        }
        assert_eq!(seen.len(), ResourceKind::ALL.len());
    }

    #[test]
    fn slice_lifecycle_is_enforced() {
        let mut domains = DomainSet::testbed_default();
        let id = SliceId(1);
        assert!(domains.create_slice(id).is_ok());
        assert!(domains.create_slice(id).is_err());
        assert!(domains.enforce(id, Action::uniform(0.4)).is_ok());
        let radio = ResourceKind::UplinkRadio;
        assert!((domains.residual_capacity(radio) - 0.6).abs() < 1e-12);
        assert!(domains.delete_slice(id).is_ok());
        assert!(domains.delete_slice(id).is_err());
        assert!(domains.enforce(id, Action::zeros()).is_err());
        assert_eq!(domains.residual_capacity(radio), 1.0);
    }

    #[test]
    fn total_enforced_share_sums_over_slices() {
        let mut domains = DomainSet::testbed_default();
        for i in 0..3 {
            domains.create_slice(SliceId(i)).unwrap();
            domains.enforce(SliceId(i), Action::uniform(0.2)).unwrap();
        }
        let enforced = 1.0 - domains.residual_capacity(ResourceKind::EdgeCpu);
        assert!((enforced - 0.6).abs() < 1e-12);
    }

    #[test]
    fn feasibility_and_coordination_follow_the_owned_resources() {
        let mut rdm = DomainManager::new(DomainKind::Radio);
        let fits = [Action::uniform(0.4), Action::uniform(0.4)];
        let too_much = [Action::uniform(0.7), Action::uniform(0.7)];
        assert!(rdm.is_feasible_slice(&fits));
        assert!(!rdm.is_feasible_slice(&too_much));

        rdm.update_coordination_in_place(&too_much);
        assert!(beta_for(&rdm, ResourceKind::UplinkRadio) > 0.0);
        // Radio manager knows nothing about edge CPU.
        assert_eq!(beta_for(&rdm, ResourceKind::EdgeCpu), 0.0);
    }

    #[test]
    fn betas_warm_start_and_reset() {
        let mut tdm = DomainManager::new(DomainKind::Transport);
        tdm.set_beta(ResourceKind::TransportBandwidth, 0.4);
        assert_eq!(beta_for(&tdm, ResourceKind::TransportBandwidth), 0.4);
        tdm.reset_betas();
        assert!(betas(&tdm).iter().all(|(_, b)| *b == 0.0));
        // Setting a beta for a resource the TDM does not own is a no-op.
        tdm.set_beta(ResourceKind::EdgeCpu, 0.9);
        assert!(betas(&tdm).iter().all(|(_, b)| *b == 0.0));
    }

    #[test]
    fn projection_only_touches_owned_resources() {
        let rdm = DomainManager::new(DomainKind::Radio);
        let mut projected = [Action::uniform(0.8), Action::uniform(0.8)];
        rdm.project_in_place(&mut projected);
        // Radio shares scaled to fit...
        let total_ul: f64 = projected.iter().map(|a| a.ul_bandwidth).sum();
        assert!((total_ul - 1.0).abs() < 1e-9);
        // ...but the CPU shares are untouched (not owned by the RDM).
        assert!(projected.iter().all(|a| (a.cpu - 0.8).abs() < 1e-12));
    }

    #[test]
    fn capacity_scale_degrades_and_restores_every_owned_resource() {
        let mut tdm = DomainManager::new(DomainKind::Transport);
        assert_eq!(tdm.capacity_scale(), 1.0);
        assert_eq!(tdm.capacity_of(ResourceKind::TransportBandwidth), Some(1.0));
        assert_eq!(tdm.capacity_of(ResourceKind::EdgeCpu), None);

        let healthy = [Action::uniform(0.4), Action::uniform(0.4)];
        assert!(tdm.is_feasible_slice(&healthy));
        tdm.set_capacity_scale(0.5);
        assert!(!tdm.is_feasible_slice(&healthy));
        assert_eq!(tdm.capacity_of(ResourceKind::TransportPath), Some(0.5));
        // The degraded capacity also feeds the dual update.
        tdm.update_coordination_in_place(&healthy);
        assert!(beta_for(&tdm, ResourceKind::TransportBandwidth) > 0.0);
        // Recovery restores the nominal capacity.
        tdm.set_capacity_scale(1.0);
        assert_eq!(tdm.capacity_of(ResourceKind::TransportPath), Some(1.0));
        assert!(tdm.is_feasible_slice(&healthy));
    }

    #[test]
    #[should_panic(expected = "capacity scale must be positive")]
    fn zero_capacity_scale_is_rejected() {
        DomainManager::new(DomainKind::Radio).set_capacity_scale(0.0);
    }

    #[test]
    fn core_domain_owns_no_shared_resources() {
        let mut cdm = DomainManager::new(DomainKind::Core);
        assert!(cdm.resources().is_empty());
        let requests = vec![Action::uniform(0.9); 5];
        assert!(cdm.is_feasible_slice(&requests));
        cdm.update_coordination_in_place(&requests);
        assert!(betas(&cdm).is_empty());
    }
}
