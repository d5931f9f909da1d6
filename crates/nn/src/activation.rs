//! Activation functions and their derivatives.
//!
//! The paper's policy networks use ReLU hidden layers and Sigmoid actor
//! outputs (so every action dimension is a normalized share in `[0, 1]`,
//! §6 "The OnSlicing agents"). `Tanh` and `Identity` are provided for value
//! heads and regression outputs.

use serde::{Deserialize, Serialize};

use crate::sigmoid;

/// Supported element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, output in `(0, 1)`.
    Sigmoid,
    /// Hyperbolic tangent, output in `(-1, 1)`.
    Tanh,
    /// Pass-through (no nonlinearity).
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation expressed in terms of the *pre-activation*
    /// input `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// Writes `act(src[i])` into `dst[i]` — the allocation-free batched
    /// forward kernel.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn apply_into(self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "activation buffer length mismatch");
        match self {
            // Specialized loops keep the hot ReLU/Identity cases branch-free
            // inside the element body.
            Activation::Relu => {
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = if s > 0.0 { s } else { 0.0 };
                }
            }
            Activation::Identity => dst.copy_from_slice(src),
            act => {
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = act.apply(s);
                }
            }
        }
    }

    /// Multiplies `delta[i]` by `act'(pre[i])` in place — the batched
    /// backward kernel turning `dL/dy` into `dL/d(pre-activation)`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn mul_derivative_into(self, pre: &[f64], delta: &mut [f64]) {
        assert_eq!(pre.len(), delta.len(), "derivative buffer length mismatch");
        match self {
            Activation::Relu => {
                // Branchless select: the pre-activation sign is data
                // dependent, so a conditional store would mispredict half
                // the time and block vectorization.
                for (d, &z) in delta.iter_mut().zip(pre.iter()) {
                    *d = if z > 0.0 { *d } else { 0.0 };
                }
            }
            Activation::Identity => {}
            act => {
                for (d, &z) in delta.iter_mut().zip(pre.iter()) {
                    *d *= act.derivative(z);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(a: Activation, x: f64) -> f64 {
        let h = 1e-6;
        (a.apply(x + h) - a.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::Relu.apply(-1.5), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let a = Activation::Sigmoid;
        assert!((a.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(a.apply(20.0) > 0.999);
        assert!(a.apply(-20.0) < 0.001);
    }

    #[test]
    fn analytic_derivatives_match_numeric_ones() {
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Identity] {
            for i in -10..=10 {
                let x = i as f64 / 3.0 + 0.05; // avoid the ReLU kink at 0
                let analytic = act.derivative(x);
                let numeric = numeric_derivative(act, x);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act:?} derivative mismatch at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn apply_vec_maps_each_element() {
        let mut v = vec![f64::NAN; 3];
        Activation::Relu.apply_into(&[-1.0, 0.0, 2.0], &mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.0]);
        Activation::Tanh.apply_into(&[-1.0, 0.0, 2.0], &mut v);
        assert_eq!(v, vec![(-1.0f64).tanh(), 0.0, 2.0f64.tanh()]);
    }

    #[test]
    fn tanh_is_odd_function() {
        let a = Activation::Tanh;
        for i in 1..20 {
            let x = i as f64 / 4.0;
            assert!((a.apply(x) + a.apply(-x)).abs() < 1e-12);
        }
    }
}
