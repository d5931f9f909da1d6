//! # onslicing-nn
//!
//! A small, dependency-light dense neural-network library used by the
//! OnSlicing reproduction in place of PyTorch.
//!
//! The paper's agents only need fully connected networks of modest size
//! (`128 x 64 x 32` trunks with ReLU activations and Sigmoid policy heads),
//! trained with Adam. This crate provides exactly that, plus the two less
//! common pieces the paper relies on:
//!
//! * a **Gaussian policy head** ([`policy::GaussianPolicy`]) producing a
//!   squashed mean in `(0, 1)` with a learnable, state-independent standard
//!   deviation — the form used by the PPO actor (policy `π_θ`), and
//! * a **Bayes-by-backprop variational layer** ([`bayesian::BayesianLinear`],
//!   [`bayesian::BayesianMlp`]) used for the cost-value estimator (policy
//!   `π_φ`), which must report both a mean and a standard deviation of the
//!   baseline policy's remaining cost (paper §3, Eq. 6–8).
//!
//! All math is `f64`, all storage is plain `Vec<f64>`, and randomness flows
//! through explicit [`rand`] RNGs so experiments are reproducible.
//!
//! ## Quick example
//!
//! ```
//! use onslicing_nn::{Activation, Adam, BatchWorkspace, Matrix, Mlp, mse_grad};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // 2-in, 1-out regression network, trained on a one-row minibatch.
//! let mut net = Mlp::new(&[2, 16, 16, 1], Activation::Relu, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(net.num_parameters(), 1e-2);
//! let x = Matrix::from_vec(1, 2, vec![0.3, 0.7]);
//! let target = [0.3f64 + 0.7];
//! let mut ws = BatchWorkspace::new();
//! for _ in 0..500 {
//!     net.zero_grad();
//!     let y = net.forward_batch(&x, &mut ws);
//!     let grad = Matrix::from_vec(1, 1, mse_grad(y.row(0), &target));
//!     net.backward_batch(&grad, &mut ws);
//!     opt.step_set(&mut net);
//! }
//! let y = net.forward(&[0.3, 0.7]);
//! assert!((y[0] - 1.0).abs() < 0.05);
//! ```

pub mod activation;
pub mod bayesian;
pub mod cell;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod policy;

pub use activation::Activation;
pub use bayesian::{
    BayesWorkspace, BayesianLinear, BayesianMlp, BayesianPrediction, PredictScratch,
};
pub use cell::CellBatch;
pub use layer::Dense;
pub use loss::{mse_grad, mse_loss};
pub use matrix::Matrix;
pub use mlp::{BatchWorkspace, Mlp};
pub use optimizer::{Adam, ParameterSet};
pub use policy::{GaussianPolicy, PolicySample};

/// Numerically stable softplus, `log(1 + e^x)`.
///
/// Used to map unconstrained parameters to positive standard deviations in
/// the variational layers and the Gaussian policy head.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Derivative of [`softplus`], i.e. the logistic sigmoid.
pub fn softplus_derivative(x: f64) -> f64 {
    sigmoid(x)
}

/// Logistic sigmoid `1 / (1 + e^-x)` with saturation guards.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `(softplus(x), sigmoid(x))`, bit-identical to the two calls. On
/// `-30 ≤ x < 0` both evaluate `e^x` through the same expression, so it is
/// computed once there; every other input (±0, NaN, ±inf included) takes
/// the two functions as they are.
pub(crate) fn softplus_and_sigmoid(x: f64) -> (f64, f64) {
    if (-30.0..0.0).contains(&x) {
        let e = x.exp();
        ((1.0 + e).ln(), e / (1.0 + e))
    } else {
        (softplus(x), sigmoid(x))
    }
}

/// Fixtures shared by the unit tests of the batched path.
#[cfg(test)]
pub(crate) mod test_util {
    use crate::matrix::Matrix;

    /// Batch sizes every batched check runs at: a single ragged row, a
    /// 4-row block plus a ragged row, sixteen whole blocks, and sixteen
    /// blocks plus ragged rows.
    pub const BATCHES: [usize; 4] = [1, 5, 64, 67];

    /// Deterministic, non-trivial `(batch × dim)` matrix with entries in
    /// `[-1, 1]`.
    pub fn batch_matrix(batch: usize, dim: usize, phase: f64) -> Matrix {
        let data = (0..batch * dim)
            .map(|i| (i as f64 * 0.37 + phase).sin())
            .collect();
        Matrix::from_vec(batch, dim, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_is_positive_and_monotone() {
        let mut prev = softplus(-40.0);
        assert!(prev >= 0.0);
        for i in -39..40 {
            let v = softplus(i as f64);
            assert!(v > 0.0);
            assert!(v >= prev, "softplus must be monotone");
            prev = v;
        }
    }

    #[test]
    fn softplus_matches_reference_values() {
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((softplus(50.0) - 50.0).abs() < 1e-9);
        assert!(softplus(-50.0) < 1e-20);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        for i in -50..=50 {
            let x = i as f64 / 5.0;
            let s = sigmoid(x);
            assert!(s > 0.0 && s < 1.0);
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_fused_scale_pair_is_bit_identical_to_the_two_functions() {
        let below_minus_30 = f64::from_bits((-30.0f64).to_bits() + 1);
        let mut inputs = vec![
            -30.0,
            below_minus_30,
            -0.0,
            0.0,
            30.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -f64::MIN_POSITIVE,
            -1e-300,
            -3.0,
            f64::MAX,
            f64::MIN,
        ];
        inputs.extend((-4000..=4000).map(|i| i as f64 / 100.0));
        inputs.extend((0..2000).map(|i| -30.0 + i as f64 * 0.0150001));
        for x in inputs {
            let (s, d) = softplus_and_sigmoid(x);
            assert_eq!(s.to_bits(), softplus(x).to_bits(), "softplus({x:e})");
            assert_eq!(d.to_bits(), sigmoid(x).to_bits(), "sigmoid({x:e})");
        }
    }

    #[test]
    fn softplus_derivative_is_sigmoid() {
        for i in -20..=20 {
            let x = i as f64 / 2.0;
            let h = 1e-6;
            let numeric = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!((numeric - softplus_derivative(x)).abs() < 1e-5);
        }
    }
}
