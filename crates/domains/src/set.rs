//! The complete set of domain managers of one infrastructure.
//!
//! [`DomainSet`] bundles the RDM, TDM, CDM and EDM with the one slice
//! registry they share — every registered slice and the allocation last
//! enforced for it — and aggregates the managers' coordinators into the
//! per-resource `β` vector the agents' action modifiers consume. It also
//! exposes the *projection* alternative so the baselines can share the same
//! infrastructure object.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use onslicing_slices::{Action, ResourceKind};

use crate::manager::{DomainKind, DomainManager};
use crate::SliceId;

/// The four domain managers of one end-to-end infrastructure and the slice
/// registry they act on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSet {
    managers: Vec<DomainManager>,
    /// The most recently enforced allocation of every registered slice
    /// (all zeros until its first enforcement).
    allocations: BTreeMap<SliceId, Action>,
}

impl DomainSet {
    /// The testbed default: unit capacity per resource, coordination step
    /// size 1.0 (fast dual convergence at the per-slot timescale).
    pub fn testbed_default() -> Self {
        Self::with_parameters(1.0, 1.0)
    }

    /// Builds a domain set with explicit per-resource capacity and
    /// coordination step size.
    pub fn with_parameters(capacity: f64, step_size: f64) -> Self {
        let managers = DomainKind::ALL
            .iter()
            .map(|k| DomainManager::with_parameters(*k, capacity, step_size))
            .collect();
        Self {
            managers,
            allocations: BTreeMap::new(),
        }
    }

    /// Immutable access to the individual managers.
    pub fn managers(&self) -> &[DomainManager] {
        &self.managers
    }

    /// The manager of one domain.
    pub fn manager(&self, kind: DomainKind) -> &DomainManager {
        self.managers
            .iter()
            .find(|m| m.kind() == kind)
            .expect("all domains exist")
    }

    /// Mutable access to the manager of one domain.
    pub fn manager_mut(&mut self, kind: DomainKind) -> &mut DomainManager {
        self.managers
            .iter_mut()
            .find(|m| m.kind() == kind)
            .expect("all domains exist")
    }

    /// Applies a fault (or recovery) to one domain: every resource that
    /// domain owns gets its effective capacity scaled to `nominal · scale`.
    /// `scale = 1.0` heals the domain.
    pub fn set_domain_capacity_scale(&mut self, kind: DomainKind, scale: f64) {
        self.manager_mut(kind).set_capacity_scale(scale);
    }

    /// The *effective* (possibly fault-degraded) capacity of one resource.
    pub fn capacity_of(&self, resource: ResourceKind) -> f64 {
        self.managers
            .iter()
            .find_map(|m| m.capacity_of(resource))
            .expect("every resource has an owning domain")
    }

    /// Residual capacity of one resource after the currently *enforced*
    /// allocations: what an admission controller may still hand out.
    pub fn residual_capacity(&self, resource: ResourceKind) -> f64 {
        let enforced: f64 = self
            .allocations
            .values()
            .map(|a| a.resource_share(resource))
            .sum();
        self.capacity_of(resource) - enforced
    }

    /// Whether a slice is registered.
    pub fn has_slice(&self, id: SliceId) -> bool {
        self.allocations.contains_key(&id)
    }

    /// Registers a slice with every domain, holding no resources yet.
    pub fn create_slice(&mut self, id: SliceId) -> Result<(), String> {
        if self.allocations.contains_key(&id) {
            return Err(format!("{id} already exists"));
        }
        self.allocations.insert(id, Action::zeros());
        Ok(())
    }

    /// Removes a slice from every domain, releasing its resources.
    pub fn delete_slice(&mut self, id: SliceId) -> Result<(), String> {
        self.allocations
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| format!("{id} is not registered"))
    }

    /// Enforces a slice's action in every domain (the per-slot configuration
    /// push).
    pub fn enforce(&mut self, id: SliceId, action: Action) -> Result<(), String> {
        let entry = self
            .allocations
            .get_mut(&id)
            .ok_or_else(|| format!("{id} is not registered"))?;
        *entry = action;
        Ok(())
    }

    /// The current `β` vector in [`ResourceKind::ALL`] order.
    pub fn betas(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        for m in &self.managers {
            m.for_each_beta(|resource, beta| out[resource.index()] = beta);
        }
        out
    }

    /// Whether the requested actions fit every resource of every domain.
    pub fn is_feasible_slice(&self, actions: &[Action]) -> bool {
        self.managers.iter().all(|m| m.is_feasible_slice(actions))
    }

    /// One coordination round across all domains: every manager updates its
    /// owned `β_k` (Eq. 14). Returns the full per-resource `β` vector in
    /// [`ResourceKind::ALL`] order, on the stack — nothing is materialized
    /// along the way.
    pub fn update_coordination_slice(&mut self, actions: &[Action]) -> [f64; 6] {
        for m in &mut self.managers {
            m.update_coordination_in_place(actions);
        }
        self.betas()
    }

    /// Scales the requested actions down in place, resource by resource, so
    /// that every capacity is respected — the baseline's *projection* method.
    pub fn project_in_place(&self, actions: &mut [Action]) {
        for m in &self.managers {
            m.project_in_place(actions);
        }
    }

    /// Overwrites the `β` of one resource in whichever manager owns it.
    pub fn set_beta(&mut self, resource: ResourceKind, beta: f64) {
        for m in &mut self.managers {
            m.set_beta(resource, beta);
        }
    }

    /// Sets every resource's `β` to the same value (the fixed-β sweep of
    /// Fig. 14).
    pub fn set_all_betas(&mut self, beta: f64) {
        for r in ResourceKind::ALL {
            self.set_beta(r, beta);
        }
    }

    /// Resets every coordinator (cold start at the beginning of an episode
    /// when warm starting is disabled).
    pub fn reset_betas(&mut self) {
        for m in &mut self.managers {
            m.reset_betas();
        }
    }

    /// The per-resource excess demand (`Σ â − L`, positive entries mean
    /// over-request) in [`ResourceKind::ALL`] order, against the *effective*
    /// (possibly fault-degraded) capacities.
    pub fn excess(&self, actions: &[Action]) -> [f64; 6] {
        let mut out = [0.0; 6];
        for (i, r) in ResourceKind::ALL.iter().enumerate() {
            let total: f64 = actions.iter().map(|a| a.resource_share(*r)).sum();
            out[i] = total - self.capacity_of(*r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_lifecycle_spans_all_domains() {
        let mut set = DomainSet::testbed_default();
        let id = SliceId(0);
        set.create_slice(id).unwrap();
        assert!(set.create_slice(id).is_err());
        set.enforce(id, Action::uniform(0.3)).unwrap();
        // One registry: every domain's resources see the one enforcement.
        for r in ResourceKind::ALL {
            assert!((set.residual_capacity(r) - 0.7).abs() < 1e-12);
        }
        set.delete_slice(id).unwrap();
        assert!(set.delete_slice(id).is_err());
    }

    #[test]
    fn feasibility_covers_every_resource() {
        let set = DomainSet::testbed_default();
        let ok = vec![
            Action::uniform(0.3),
            Action::uniform(0.3),
            Action::uniform(0.3),
        ];
        assert!(set.is_feasible_slice(&ok));
        let mut bad = ok.clone();
        bad[0].ram = 0.9; // 0.9 + 0.3 + 0.3 > 1
        assert!(!set.is_feasible_slice(&bad));
    }

    #[test]
    fn coordination_raises_betas_only_for_overloaded_resources() {
        let mut set = DomainSet::testbed_default();
        let mut a = Action::zeros();
        a.cpu = 0.8;
        let mut b = Action::zeros();
        b.cpu = 0.6;
        let betas = set.update_coordination_slice(&[a, b]);
        assert!(betas[ResourceKind::EdgeCpu.index()] > 0.0);
        assert_eq!(betas[ResourceKind::UplinkRadio.index()], 0.0);
        assert_eq!(betas[ResourceKind::TransportPath.index()], 0.0);
    }

    #[test]
    fn set_all_betas_and_reset() {
        let mut set = DomainSet::testbed_default();
        set.set_all_betas(0.25);
        assert!(set.betas().iter().all(|&b| (b - 0.25).abs() < 1e-12));
        set.reset_betas();
        assert!(set.betas().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn projection_makes_any_request_set_feasible() {
        let set = DomainSet::testbed_default();
        let mut projected = [
            Action::uniform(0.9),
            Action::uniform(0.8),
            Action::uniform(0.7),
        ];
        set.project_in_place(&mut projected);
        assert!(set.is_feasible_slice(&projected));
        // Projection preserves relative ordering.
        assert!(projected[0].cpu > projected[2].cpu);
    }

    #[test]
    fn excess_reports_per_resource_overload() {
        let set = DomainSet::testbed_default();
        let requests = [Action::uniform(0.6), Action::uniform(0.6)];
        let excess = set.excess(&requests);
        for e in excess {
            assert!((e - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn domain_fault_shrinks_capacity_residual_and_feasibility() {
        let mut set = DomainSet::testbed_default();
        set.create_slice(SliceId(0)).unwrap();
        set.enforce(SliceId(0), Action::uniform(0.3)).unwrap();
        assert!((set.residual_capacity(ResourceKind::TransportBandwidth) - 0.7).abs() < 1e-12);

        let requests = [Action::uniform(0.4), Action::uniform(0.4)];
        assert!(set.is_feasible_slice(&requests));
        set.set_domain_capacity_scale(DomainKind::Transport, 0.5);
        assert_eq!(set.capacity_of(ResourceKind::TransportPath), 0.5);
        // Untouched domains keep their nominal capacity.
        assert_eq!(set.capacity_of(ResourceKind::EdgeCpu), 1.0);
        assert!(!set.is_feasible_slice(&requests));
        // `excess` prices the degraded transport, not the healthy radio.
        let excess = set.excess(&requests);
        assert!((excess[ResourceKind::TransportBandwidth.index()] - 0.3).abs() < 1e-12);
        assert!((excess[ResourceKind::UplinkRadio.index()] + 0.2).abs() < 1e-12);
        // Projection respects the degraded capacity too.
        let mut projected = requests;
        set.project_in_place(&mut projected);
        assert!(set.is_feasible_slice(&projected));
        // Healing restores everything.
        set.set_domain_capacity_scale(DomainKind::Transport, 1.0);
        assert!(set.is_feasible_slice(&requests));
        assert!((set.residual_capacity(ResourceKind::TransportBandwidth) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn has_slice_tracks_the_lifecycle() {
        let mut set = DomainSet::testbed_default();
        assert!(!set.has_slice(SliceId(4)));
        set.create_slice(SliceId(4)).unwrap();
        assert!(set.has_slice(SliceId(4)));
        set.delete_slice(SliceId(4)).unwrap();
        assert!(!set.has_slice(SliceId(4)));
    }

    #[test]
    fn repeated_coordination_converges_requests_downward_with_a_modifier() {
        // Emulate the agent-side reaction: each round, every slice scales its
        // request down proportionally to the total beta price. The loop must
        // terminate with a feasible allocation in a handful of rounds.
        let mut set = DomainSet::testbed_default();
        let mut requests = vec![Action::uniform(0.8), Action::uniform(0.8)];
        let mut rounds = 0;
        while !set.is_feasible_slice(&requests) && rounds < 20 {
            let betas = set.update_coordination_slice(&requests);
            let price: f64 = betas.iter().sum();
            for a in &mut requests {
                let scale = (1.0 - 0.1 * price).clamp(0.5, 1.0);
                *a = Action::from_vec(&a.to_vec().iter().map(|v| v * scale).collect::<Vec<_>>());
            }
            rounds += 1;
        }
        assert!(
            set.is_feasible_slice(&requests),
            "coordination failed to converge"
        );
        assert!(rounds <= 10, "too many interactions: {rounds}");
    }
}
