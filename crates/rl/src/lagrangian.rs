//! The constraint-aware reward shaping of the Lagrangian primal–dual method
//! (paper §3, Eq. 3–5).
//!
//! The constrained problem P0 (maximize reward subject to the average cost
//! staying below `C_max`) is relaxed into the Lagrangian of Eq. 3. The primal
//! step is an ordinary PPO update on the *shaped* reward
//! `r − (λ / T) · c`; the dual step raises the multiplier by sub-gradient
//! ascent whenever the observed average cost exceeds the threshold (Eq. 5):
//!
//! ```text
//! λ ← [ λ + ε ( E[ (1/T) Σ c ] − C_max ) ]⁺
//! ```

use serde::{Deserialize, Serialize};

/// Dual step size `ε` of Eq. 5.
const STEP_SIZE: f64 = 10.0;

/// The Lagrangian multiplier of one slice's SLA constraint: the learned `λ`
/// and nothing else — the step `ε` is the method's constant and the
/// threshold `C_max` belongs to the SLA, which the caller passes in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LagrangianMultiplier {
    /// Current multiplier value `λ ≥ 0`.
    lambda: f64,
}

impl LagrangianMultiplier {
    /// Creates a multiplier starting at `λ = initial_lambda`.
    ///
    /// # Panics
    /// Panics if the initial value is negative.
    pub fn new(initial_lambda: f64) -> Self {
        assert!(initial_lambda >= 0.0, "lambda must be non-negative");
        Self {
            lambda: initial_lambda,
        }
    }

    /// The current multiplier.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Shapes one slot's reward: `r − λ · c` (the `1/T` of Eq. 3 is folded
    /// into the step size since the average cost is what the dual update
    /// sees).
    pub fn shaped_reward(&self, reward: f64, cost: f64) -> f64 {
        reward - self.lambda * cost
    }

    /// Dual update from the average per-slot cost observed since the last
    /// update against the threshold `C_max` (Eq. 5). Returns the new
    /// multiplier.
    pub fn update(&mut self, average_cost: f64, cost_threshold: f64) -> f64 {
        self.lambda = (self.lambda + STEP_SIZE * (average_cost - cost_threshold)).max(0.0);
        self.lambda
    }

    /// Whether the observed average cost violates the threshold `C_max`.
    pub fn is_violated(&self, average_cost: f64, cost_threshold: f64) -> bool {
        average_cost > cost_threshold + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_raises_lambda_and_satisfaction_lowers_it() {
        let mut m = LagrangianMultiplier::new(1.0);
        let up = m.update(0.15, 0.05); // violated by 0.10
        assert!((up - 2.0).abs() < 1e-12);
        let down = m.update(0.0, 0.05); // satisfied with margin 0.05
        assert!((down - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lambda_never_goes_negative() {
        let mut m = LagrangianMultiplier::new(0.1);
        m.update(0.0, 0.05);
        assert_eq!(m.lambda(), 0.0);
        m.update(0.0, 0.05);
        assert_eq!(m.lambda(), 0.0);
    }

    #[test]
    fn shaped_reward_penalizes_cost_proportionally_to_lambda() {
        let m = LagrangianMultiplier::new(2.0);
        assert!((m.shaped_reward(-1.0, 0.5) + 2.0).abs() < 1e-12);
        let zero = LagrangianMultiplier::new(0.0);
        assert_eq!(zero.shaped_reward(-1.0, 0.5), -1.0);
    }

    #[test]
    fn equilibrium_when_cost_equals_threshold() {
        let mut m = LagrangianMultiplier::new(3.0);
        let after = m.update(0.05, 0.05);
        assert!((after - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_violations_grow_lambda_monotonically() {
        let mut m = LagrangianMultiplier::new(1.0);
        let mut prev = m.lambda();
        for _ in 0..5 {
            let now = m.update(0.2, 0.05);
            assert!(now > prev);
            prev = now;
        }
    }

    #[test]
    fn violation_check_matches_threshold() {
        let m = LagrangianMultiplier::new(1.0);
        assert!(!m.is_violated(0.05, 0.05));
        assert!(m.is_violated(0.0501, 0.05));
    }
}
