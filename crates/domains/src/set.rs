//! The four domain managers of one infrastructure, as one value.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use onslicing_slices::{Action, ResourceKind};

use crate::{DomainKind, SliceId};

/// What the RDM, TDM, CDM and EDM state between slots: the nominal capacity
/// and step size they were configured with, each domain's fault scale, each
/// resource's `β_k`, and the one slice registry they share. A resource's
/// effective capacity is the nominal one times its owning domain's scale.
/// The *projection* alternative lives here too, so the baselines share the
/// same infrastructure object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSet {
    /// Fault-free capacity `L_max` of every resource (1.0 = the whole
    /// infrastructure resource).
    capacity: f64,
    /// Sub-gradient step size `ε` of Eq. 14.
    step_size: f64,
    /// Each domain's fault multiplier on `capacity` (1.0 = healthy), in
    /// [`DomainKind::ALL`] order.
    capacity_scales: [f64; 4],
    /// Each resource's dual variable `β_k ≥ 0`, in [`ResourceKind::ALL`]
    /// order.
    betas: [f64; 6],
    /// The most recently enforced allocation of every registered slice
    /// (all zeros until its first enforcement).
    allocations: BTreeMap<SliceId, Action>,
}

/// Index in [`DomainKind::ALL`] of the domain that owns `resource`.
fn owner(resource: ResourceKind) -> usize {
    DomainKind::ALL
        .iter()
        .position(|d| d.resources().contains(&resource))
        .expect("every resource has an owning domain")
}

/// The shares of one resource, summed in order.
fn total_share<'a>(actions: impl IntoIterator<Item = &'a Action>, r: ResourceKind) -> f64 {
    actions.into_iter().map(|a| a.resource_share(r)).sum()
}

impl DomainSet {
    /// The testbed default: unit capacity per resource, coordination step
    /// size 1.0 (fast dual convergence at the per-slot timescale).
    pub fn testbed_default() -> Self {
        Self::with_parameters(1.0, 1.0)
    }

    /// Builds a domain set with explicit per-resource capacity and
    /// coordination step size, every domain healthy and every `β` zero.
    ///
    /// # Panics
    /// Panics if the capacity or step size is not positive.
    pub fn with_parameters(capacity: f64, step_size: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(step_size > 0.0, "step size must be positive");
        Self {
            capacity,
            step_size,
            capacity_scales: [1.0; 4],
            betas: [0.0; 6],
            allocations: BTreeMap::new(),
        }
    }

    /// What a deserialised set must satisfy to behave like a constructed
    /// one: capacity, step size and every fault scale positive and finite,
    /// every `β` finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        let scales = DomainKind::ALL.iter().zip(self.capacity_scales);
        let positives = [
            ("capacity".to_string(), self.capacity),
            ("step size".to_string(), self.step_size),
        ]
        .into_iter()
        .chain(scales.map(|(kind, scale)| (format!("{} capacity scale", kind.name()), scale)));
        for (what, v) in positives {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!(
                    "domains: {what} must be positive and finite, got {v}"
                ));
            }
        }
        for (resource, beta) in ResourceKind::ALL.iter().zip(self.betas) {
            if !(beta >= 0.0 && beta.is_finite()) {
                return Err(format!(
                    "domains: β of {resource:?} must be finite and non-negative, got {beta}"
                ));
            }
        }
        Ok(())
    }

    /// Applies a fault (or recovery) to one domain: every resource that
    /// domain owns gets its effective capacity scaled to `nominal · scale`.
    /// `scale = 1.0` heals the domain; `scale < 1.0` models degradation (a
    /// failing transport link, a throttled edge host, radio interference).
    ///
    /// # Panics
    /// Panics if the scale is not positive and finite.
    pub fn set_domain_capacity_scale(&mut self, kind: DomainKind, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "capacity scale must be positive and finite"
        );
        self.capacity_scales[kind.index()] = scale;
    }

    /// The current fault multiplier of one domain (1.0 = healthy).
    pub fn capacity_scale(&self, kind: DomainKind) -> f64 {
        self.capacity_scales[kind.index()]
    }

    /// The *effective* (possibly fault-degraded) capacity of one resource.
    pub fn capacity_of(&self, resource: ResourceKind) -> f64 {
        self.capacity * self.capacity_scales[owner(resource)]
    }

    /// Residual capacity of one resource after the currently *enforced*
    /// allocations: what an admission controller may still hand out.
    pub fn residual_capacity(&self, resource: ResourceKind) -> f64 {
        self.capacity_of(resource) - total_share(self.allocations.values(), resource)
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
        self.betas
    }

    /// Whether the requested actions fit every resource, within the 0.1 %
    /// tolerance of the crate docs. Shares are summed straight off the
    /// slice, so the hot coordination loop materializes nothing.
    pub fn is_feasible_slice(&self, actions: &[Action]) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|r| total_share(actions, *r) - self.capacity_of(*r) <= 1e-3)
    }

    /// One coordination round: every resource's `β_k` takes one step of
    /// Eq. 14, `β_k ← [β_k + ε (Σ_i â_i,k − L_k)]⁺`. Returns the full
    /// per-resource `β` vector in [`ResourceKind::ALL`] order, on the stack
    /// — nothing is materialized along the way.
    pub fn update_coordination_slice(&mut self, actions: &[Action]) -> [f64; 6] {
        for (i, r) in ResourceKind::ALL.iter().enumerate() {
            let excess = total_share(actions, *r) - self.capacity_of(*r);
            self.betas[i] = (self.betas[i] + self.step_size * excess).max(0.0);
        }
        self.betas
    }

    /// Scales the requested actions down in place, resource by resource, so
    /// that every capacity is respected — the baseline / OnRL over-request
    /// handling the paper compares against (Table 3). Shares of a resource
    /// that already fits are left untouched rather than multiplied by `1.0`.
    pub fn project_in_place(&self, actions: &mut [Action]) {
        for r in ResourceKind::ALL {
            let total = total_share(&*actions, r);
            let capacity = self.capacity_of(r);
            // Over capacity (a NaN total never is): `capacity / total < 1`.
            if total > capacity && total > 0.0 {
                let scale = capacity / total;
                for a in actions.iter_mut() {
                    let share = a.resource_share(r);
                    a.set(r.action_dim(), share * scale);
                }
            }
        }
    }

    /// Overwrites the `β` of one resource (warm start), clamped at zero.
    pub fn set_beta(&mut self, resource: ResourceKind, beta: f64) {
        self.betas[resource.index()] = beta.max(0.0);
    }

    /// Sets every resource's `β` to the same value (the fixed-β sweep of
    /// Fig. 14).
    pub fn set_all_betas(&mut self, beta: f64) {
        self.betas = [beta.max(0.0); 6];
    }

    /// Resets every `β` to zero (cold start at the beginning of an episode
    /// when warm starting is disabled).
    pub fn reset_betas(&mut self) {
        self.betas = [0.0; 6];
    }

    /// The per-resource excess demand (`Σ â − L`, positive entries mean
    /// over-request) in [`ResourceKind::ALL`] order, against the *effective*
    /// (possibly fault-degraded) capacities.
    pub fn excess(&self, actions: &[Action]) -> [f64; 6] {
        ResourceKind::ALL.map(|r| total_share(actions, r) - self.capacity_of(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_set_keys_are_pinned_in_order() {
        // Part of every checkpoint's layout: a reordered or renamed field is
        // a format change.
        let serde::Value::Obj(pairs) = DomainSet::testbed_default().serialize_value() else {
            panic!("a domain set serializes to an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "capacity",
                "step_size",
                "capacity_scales",
                "betas",
                "allocations"
            ]
        );
    }

    #[test]
    fn validate_refuses_what_the_constructor_and_setters_refuse() {
        let mut set = DomainSet::testbed_default();
        set.set_domain_capacity_scale(DomainKind::Transport, 0.5);
        set.set_beta(ResourceKind::EdgeRam, 0.25);
        let json = serde_json::to_string(&set).unwrap();
        let back: DomainSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
        back.validate().unwrap();
        let table = [
            (
                "\"capacity\":1.0",
                "\"capacity\":0.0",
                "capacity must be positive",
            ),
            (
                "\"step_size\":1.0",
                "\"step_size\":-1.0",
                "step size must be positive",
            ),
            (
                "[1.0,0.5,",
                "[1.0,0.0,",
                "TDM capacity scale must be positive",
            ),
            (
                "[1.0,0.5,",
                "[1.0,1e999,",
                "TDM capacity scale must be positive",
            ),
            (
                ",0.25]",
                ",-0.25]",
                "β of EdgeRam must be finite and non-negative",
            ),
        ];
        for (honest, doctored, reason) in table {
            assert!(json.contains(honest), "{honest} not in {json}");
            let doctored = json.replacen(honest, doctored, 1);
            let set: DomainSet = serde_json::from_str(&doctored).unwrap();
            let err = set.validate().unwrap_err();
            assert!(err.contains(reason), "{doctored}: {err}");
        }
    }

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
