//! The Adam optimizer.
//!
//! [`Adam::step_set`] updates any [`ParameterSet`] in place, block by block,
//! so the same optimizer drives plain MLPs, Gaussian policies and Bayesian
//! networks without a per-step allocation.

use serde::{Deserialize, Serialize};

/// A model whose parameters and accumulated gradients can be visited as
/// contiguous blocks.
///
/// Implementations must visit the same blocks in the same order on every
/// call, and the total length must match the size the optimizer was created
/// with. The `scale` passed to the visitor multiplies the stored gradient
/// (used by the Gaussian policy, whose std-deviation gradients are stored in
/// the ascent convention and stepped with `scale = -1`).
pub trait ParameterSet {
    /// Squared l2 norm of all accumulated gradients.
    fn grad_norm_squared(&self) -> f64;

    /// Visits every `(params, grads, scale)` block in a stable order.
    fn visit_param_blocks(&mut self, f: &mut ParamBlockVisitor<'_>);
}

/// Visitor over `(params, grads, scale)` parameter blocks.
pub type ParamBlockVisitor<'a> = dyn FnMut(&mut [f64], &[f64], f64) + 'a;

/// Adam's first-moment decay `β₁`.
const BETA1: f64 = 0.9;
/// Adam's second-moment decay `β₂`.
const BETA2: f64 = 0.999;
/// Adam's denominator guard `ε`.
const EPSILON: f64 = 1e-8;
/// Global-norm gradient clip applied before every step.
const MAX_GRAD_NORM: f64 = 5.0;

/// Adam optimizer (Kingma & Ba, 2015) with global-norm gradient clipping.
///
/// Only what a step changes is state — the step count and the two moment
/// vectors — plus the learning rate; `β₁`, `β₂`, `ε` and the clip norm are
/// the method's constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    learning_rate: f64,
    step_count: u64,
    first_moment: Vec<f64>,
    second_moment: Vec<f64>,
}

impl Adam {
    /// Creates an Adam optimizer for `num_params` parameters.
    pub fn new(num_params: usize, learning_rate: f64) -> Self {
        Self {
            learning_rate,
            step_count: 0,
            first_moment: vec![0.0; num_params],
            second_moment: vec![0.0; num_params],
        }
    }

    /// Whether both moment vectors cover exactly `num_parameters`
    /// parameters — what [`Adam::step_set`] asserts at the first step, as a
    /// value for a loader to refuse.
    pub fn validate_for(&self, num_parameters: usize) -> Result<(), String> {
        let moments = (self.first_moment.len(), self.second_moment.len());
        if moments != (num_parameters, num_parameters) {
            return Err(format!(
                "holds {} first and {} second moments for {num_parameters} parameters",
                moments.0, moments.1
            ));
        }
        Ok(())
    }

    /// Applies one Adam update to a [`ParameterSet`] in place, with no
    /// per-step heap allocation.
    ///
    /// # Panics
    /// Panics if the set's total parameter count does not match the size the
    /// optimizer was created with.
    pub fn step_set<P: ParameterSet + ?Sized>(&mut self, set: &mut P) {
        self.step_count += 1;
        let norm = set.grad_norm_squared().sqrt();
        let clip_scale = if norm > MAX_GRAD_NORM {
            MAX_GRAD_NORM / norm
        } else {
            1.0
        };
        // The counter lives in checkpoints and only ever grows; past
        // `i32::MAX` a plain cast would wrap to a negative exponent. βⁿ is
        // already exactly 0.0 long before that, so saturating changes no
        // reachable step.
        let exponent = self.step_count.min(i32::MAX as u64) as i32;
        let inv_bc1 = 1.0 / (1.0 - BETA1.powi(exponent));
        let inv_bc2 = 1.0 / (1.0 - BETA2.powi(exponent));
        let lr = self.learning_rate;
        let first = &mut self.first_moment;
        let second = &mut self.second_moment;
        let mut offset = 0usize;
        set.visit_param_blocks(&mut |params, grads, scale| {
            assert_eq!(
                params.len(),
                grads.len(),
                "parameter/gradient block length mismatch"
            );
            assert!(
                offset + params.len() <= first.len(),
                "optimizer was created for a different parameter count"
            );
            let fm = &mut first[offset..offset + params.len()];
            let sm = &mut second[offset..offset + params.len()];
            let g_scale = scale * clip_scale;
            // Zipped iteration (no index bounds checks) so the update
            // vectorizes; the bias corrections are hoisted reciprocals, so
            // the loop carries one sqrt and one division per parameter.
            for (((p, &g_raw), m), v) in params
                .iter_mut()
                .zip(grads.iter())
                .zip(fm.iter_mut())
                .zip(sm.iter_mut())
            {
                let g = g_raw * g_scale;
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let m_hat = *m * inv_bc1;
                let v_hat = *v * inv_bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + EPSILON);
            }
            offset += params.len();
        });
        assert_eq!(
            offset,
            self.first_moment.len(),
            "optimizer was created for a different parameter count"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat parameter vector with externally written gradients.
    struct Flat {
        params: Vec<f64>,
        grads: Vec<f64>,
    }

    impl Flat {
        fn new(params: &[f64]) -> Self {
            Self {
                params: params.to_vec(),
                grads: vec![0.0; params.len()],
            }
        }
    }

    impl ParameterSet for Flat {
        fn grad_norm_squared(&self) -> f64 {
            self.grads.iter().map(|g| g * g).sum()
        }

        fn visit_param_blocks(&mut self, f: &mut ParamBlockVisitor<'_>) {
            f(&mut self.params, &self.grads, 1.0);
        }
    }

    /// Minimizes f(x) = (x - 3)^2 starting at 0 and checks convergence.
    #[test]
    fn adam_minimizes_a_quadratic() {
        let mut x = Flat::new(&[0.0]);
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            x.grads[0] = 2.0 * (x.params[0] - 3.0);
            opt.step_set(&mut x);
        }
        let x = x.params[0];
        assert!((x - 3.0).abs() < 1e-3, "adam did not converge: {x}");
    }

    #[test]
    fn adam_handles_multidimensional_problems() {
        let mut set = Flat::new(&[5.0, -4.0, 2.0]);
        let targets = [1.0, 2.0, 3.0];
        let mut opt = Adam::new(3, 0.05);
        for _ in 0..2000 {
            for ((g, p), t) in set.grads.iter_mut().zip(&set.params).zip(&targets) {
                *g = 2.0 * (p - t);
            }
            opt.step_set(&mut set);
        }
        for (p, t) in set.params.iter().zip(targets.iter()) {
            assert!((p - t).abs() < 1e-2);
        }
    }

    #[test]
    fn gradient_clipping_limits_update_magnitude() {
        let mut x = Flat::new(&[0.0]);
        let mut opt = Adam::new(1, 1.0);
        x.grads[0] = 1e9;
        opt.step_set(&mut x);
        // Adam's first step is bounded by the learning rate.
        assert!(x.params[0].abs() <= 1.0 + 1e-9);
        // The moments saw the gradient clipped to the global norm of 5, not
        // the raw 1e9.
        assert!((opt.first_moment[0] - 0.1 * 5.0).abs() < 1e-12);
        assert!((opt.second_moment[0] - 0.001 * 25.0).abs() < 1e-12);
    }

    #[test]
    fn bias_correction_survives_step_counts_beyond_i32() {
        // A long-running daemon's counter, as a checkpoint would carry it.
        let json = serde_json::to_string(&Adam::new(1, 0.1)).expect("serialize");
        let doctored = json.replace("\"step_count\":0", "\"step_count\":2147483647");
        assert_ne!(json, doctored, "step_count not found in {json}");
        let mut opt: Adam = serde_json::from_str(&doctored).expect("deserialize");
        let mut x = Flat::new(&[0.0]);
        for _ in 0..2 {
            let before = x.params[0];
            x.grads[0] = 1.0;
            opt.step_set(&mut x);
            let after = x.params[0];
            assert!(
                after.is_finite() && after < before,
                "step {} did not descend: {before} -> {after}",
                opt.step_count
            );
        }
        assert_eq!(opt.step_count, (1u64 << 31) + 1);
    }

    #[test]
    #[should_panic(expected = "different parameter count")]
    fn wrong_parameter_count_panics() {
        let mut x = Flat::new(&[0.0]);
        let mut opt = Adam::new(2, 0.1);
        opt.step_set(&mut x);
    }
}
