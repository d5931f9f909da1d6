//! The parameter coordinator (paper §4, Eq. 14).
//!
//! Each domain manager runs one coordinator per resource it owns. The
//! coordinator maintains the dual variable `β_k` that prices the resource:
//! when the slices' (modified) requests over-subscribe the capacity, `β_k`
//! rises by sub-gradient ascent, which pushes the agents' action modifiers to
//! request less; when the resource is under-subscribed, `β_k` decays back
//! toward zero. Warm-starting `β_k` from the previous slot is what keeps the
//! number of agent↔manager interactions per slot low (≈ 1.8 in Table 3).

use serde::{Deserialize, Serialize};

use onslicing_slices::ResourceKind;

/// The coordinator of one shared resource inside one domain manager.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParameterCoordinator {
    /// The resource this coordinator prices.
    pub resource: ResourceKind,
    /// Normalized capacity `L_max` of the resource (1.0 = the whole
    /// infrastructure resource).
    pub capacity: f64,
    /// Sub-gradient step size `ε`.
    pub step_size: f64,
    /// Current dual variable `β_k ≥ 0`.
    beta: f64,
}

impl ParameterCoordinator {
    /// Creates a coordinator with `β = 0`.
    ///
    /// # Panics
    /// Panics if the capacity or step size is not positive.
    pub fn new(resource: ResourceKind, capacity: f64, step_size: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(step_size > 0.0, "step size must be positive");
        Self {
            resource,
            capacity,
            step_size,
            beta: 0.0,
        }
    }

    /// The current coordinating parameter `β_k`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Overwrites `β_k` (used to warm-start from the previous slot or to
    /// evaluate fixed-β sweeps like Fig. 14).
    pub fn set_beta(&mut self, beta: f64) {
        self.beta = beta.max(0.0);
    }

    /// Overwrites the capacity `L_max` (fault injection / recovery: a
    /// degraded link or an overloaded edge host shrinks the resource the
    /// coordinator prices).
    ///
    /// # Panics
    /// Panics if the new capacity is not positive and finite.
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive and finite"
        );
        self.capacity = capacity;
    }

    /// Excess demand `Σ_i â_i,k − L_max` for requested shares summing to
    /// `total` (positive when the resource is over-requested). Callers sum
    /// the shares straight off the action slice, so no per-resource share
    /// vector is ever materialized.
    pub fn excess_of_total(&self, total: f64) -> f64 {
        total - self.capacity
    }

    /// Whether requests summing to `total` fit within the capacity.
    ///
    /// A 0.1 % over-allocation tolerance is accepted: the dual-ascent
    /// coordination converges geometrically, so insisting on exact
    /// feasibility would waste interactions on a vanishing sliver.
    pub fn is_feasible_total(&self, total: f64) -> bool {
        self.excess_of_total(total) <= 1e-3
    }

    /// One sub-gradient update of Eq. 14 for requests summing to `total`:
    /// `β_k ← [β_k + ε (Σ_i â_i,k − L_max)]⁺`. Returns the new value.
    pub fn update_total(&mut self, total: f64) -> f64 {
        let excess = self.excess_of_total(total);
        self.beta = (self.beta + self.step_size * excess).max(0.0);
        self.beta
    }

    /// The proportional scale-down factor that fits requests summing to
    /// `total` into the capacity (`1.0` when they already fit) — the
    /// *projection* method used by the baseline and by OnRL (and shown in
    /// Table 3 to cause SLA violations).
    pub fn project_scale(&self, total: f64) -> f64 {
        if total <= self.capacity || total <= 0.0 {
            1.0
        } else {
            self.capacity / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord() -> ParameterCoordinator {
        ParameterCoordinator::new(ResourceKind::UplinkRadio, 1.0, 0.5)
    }

    #[test]
    fn beta_starts_at_zero_and_stays_nonnegative() {
        let mut c = coord();
        assert_eq!(c.beta(), 0.0);
        // Under-subscription cannot push beta below zero.
        c.update_total(0.1 + 0.2);
        assert_eq!(c.beta(), 0.0);
    }

    #[test]
    fn over_request_raises_beta_by_eps_times_excess() {
        let mut c = coord();
        let new_beta = c.update_total(0.8 + 0.6); // excess 0.4
        assert!((new_beta - 0.2).abs() < 1e-12);
        // A second identical round keeps raising it.
        let again = c.update_total(0.8 + 0.6);
        assert!((again - 0.4).abs() < 1e-12);
    }

    #[test]
    fn beta_decays_once_requests_become_feasible() {
        let mut c = coord();
        c.update_total(0.9 + 0.9); // beta = 0.4
        c.update_total(0.3 + 0.3); // excess -0.4 -> beta 0.2
        assert!((c.beta() - 0.2).abs() < 1e-12);
        c.update_total(0.1 + 0.1);
        assert!(c.beta() < 0.2);
    }

    #[test]
    fn feasibility_check_matches_excess_sign() {
        let c = coord();
        assert!(c.is_feasible_total(0.5 + 0.5));
        assert!(!c.is_feasible_total(0.51 + 0.5));
        assert!((c.excess_of_total(0.7 + 0.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn projection_scales_down_only_when_infeasible() {
        let c = coord();
        assert_eq!(c.project_scale(0.2 + 0.3), 1.0);
        let scale = c.project_scale(1.0 + 1.0);
        assert!((scale * (1.0 + 1.0) - 1.0).abs() < 1e-12);
        assert!((scale * 1.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_beta_clamps_negative_values() {
        let mut c = coord();
        c.set_beta(-3.0);
        assert_eq!(c.beta(), 0.0);
        c.set_beta(0.7);
        assert_eq!(c.beta(), 0.7);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ParameterCoordinator::new(ResourceKind::EdgeCpu, 0.0, 0.1);
    }
}
