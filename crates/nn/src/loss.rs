//! Loss functions and their gradients.
//!
//! Training in this repository is done with explicit gradient computation:
//! the caller evaluates the loss gradient with respect to the network output,
//! one row per sample, and passes the batch to
//! [`Mlp::backward_batch`](crate::mlp::Mlp::backward_batch).

/// Mean squared error `1/n Σ (y - t)²`.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mse_loss(prediction: &[f64], target: &[f64]) -> f64 {
    assert_eq!(prediction.len(), target.len(), "mse length mismatch");
    assert!(!prediction.is_empty(), "mse of empty vectors");
    prediction
        .iter()
        .zip(target.iter())
        .map(|(y, t)| (y - t) * (y - t))
        .sum::<f64>()
        / prediction.len() as f64
}

/// Gradient of [`mse_loss`] with respect to the prediction.
pub fn mse_grad(prediction: &[f64], target: &[f64]) -> Vec<f64> {
    assert_eq!(prediction.len(), target.len(), "mse length mismatch");
    let n = prediction.len() as f64;
    prediction
        .iter()
        .zip(target.iter())
        .map(|(y, t)| 2.0 * (y - t) / n)
        .collect()
}

/// Huber (smooth-L1) loss with threshold `delta`, averaged over elements.
pub fn huber_loss(prediction: &[f64], target: &[f64], delta: f64) -> f64 {
    assert_eq!(prediction.len(), target.len(), "huber length mismatch");
    assert!(!prediction.is_empty(), "huber of empty vectors");
    prediction
        .iter()
        .zip(target.iter())
        .map(|(y, t)| {
            let e = (y - t).abs();
            if e <= delta {
                0.5 * e * e
            } else {
                delta * (e - 0.5 * delta)
            }
        })
        .sum::<f64>()
        / prediction.len() as f64
}

/// Gradient of [`huber_loss`] with respect to the prediction.
pub fn huber_grad(prediction: &[f64], target: &[f64], delta: f64) -> Vec<f64> {
    assert_eq!(prediction.len(), target.len(), "huber length mismatch");
    let n = prediction.len() as f64;
    prediction
        .iter()
        .zip(target.iter())
        .map(|(y, t)| {
            let e = y - t;
            if e.abs() <= delta {
                e / n
            } else {
                delta * e.signum() / n
            }
        })
        .collect()
}

/// Negative log-likelihood of observing `target` under a univariate Gaussian
/// with the given `mean` and `std` (σ > 0).
///
/// Used to train the variational cost-value estimator: the likelihood term of
/// the ELBO in Eq. 7 of the paper.
pub fn gaussian_nll(mean: f64, std: f64, target: f64) -> f64 {
    let std = std.max(1e-6);
    let var = std * std;
    0.5 * ((2.0 * std::f64::consts::PI * var).ln() + (target - mean) * (target - mean) / var)
}

/// Gradient of [`gaussian_nll`] with respect to `(mean, std)`.
pub fn gaussian_nll_grad(mean: f64, std: f64, target: f64) -> (f64, f64) {
    let std = std.max(1e-6);
    let var = std * std;
    let d_mean = (mean - target) / var;
    let d_std = 1.0 / std - (target - mean) * (target - mean) / (var * std);
    (d_mean, d_std)
}

/// KL divergence `KL(N(mu_q, sigma_q²) || N(mu_p, sigma_p²))` between two
/// univariate Gaussians.
///
/// Used both for the variational posterior regularization (Eq. 7, second
/// term) and as a diagnostic for PPO policy updates.
pub fn gaussian_kl(mu_q: f64, sigma_q: f64, mu_p: f64, sigma_p: f64) -> f64 {
    let sigma_q = sigma_q.max(1e-9);
    let sigma_p = sigma_p.max(1e-9);
    (sigma_p / sigma_q).ln()
        + (sigma_q * sigma_q + (mu_q - mu_p) * (mu_q - mu_p)) / (2.0 * sigma_p * sigma_p)
        - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_perfect_prediction_is_zero() {
        assert_eq!(mse_loss(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_matches_hand_computed_value() {
        // ((1-0)^2 + (3-1)^2) / 2 = 2.5
        assert!((mse_loss(&[1.0, 3.0], &[0.0, 1.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mse_grad_matches_finite_differences() {
        let y = vec![0.3, -0.7, 1.2];
        let t = vec![0.1, 0.0, 1.0];
        let g = mse_grad(&y, &t);
        let h = 1e-6;
        for i in 0..y.len() {
            let mut yp = y.clone();
            yp[i] += h;
            let mut ym = y.clone();
            ym[i] -= h;
            let numeric = (mse_loss(&yp, &t) - mse_loss(&ym, &t)) / (2.0 * h);
            assert!((numeric - g[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn huber_equals_mse_half_for_small_errors() {
        let y = vec![0.1];
        let t = vec![0.0];
        assert!((huber_loss(&y, &t, 1.0) - 0.5 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn huber_is_linear_for_large_errors() {
        let l1 = huber_loss(&[10.0], &[0.0], 1.0);
        let l2 = huber_loss(&[11.0], &[0.0], 1.0);
        assert!((l2 - l1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huber_grad_matches_finite_differences() {
        let y = vec![0.3, 5.0, -3.0];
        let t = vec![0.0, 0.0, 0.0];
        let g = huber_grad(&y, &t, 1.0);
        let h = 1e-6;
        for i in 0..y.len() {
            let mut yp = y.clone();
            yp[i] += h;
            let mut ym = y.clone();
            ym[i] -= h;
            let numeric = (huber_loss(&yp, &t, 1.0) - huber_loss(&ym, &t, 1.0)) / (2.0 * h);
            assert!((numeric - g[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn gaussian_nll_is_minimized_at_the_target_mean() {
        let at_target = gaussian_nll(2.0, 1.0, 2.0);
        let off_target = gaussian_nll(3.0, 1.0, 2.0);
        assert!(at_target < off_target);
    }

    #[test]
    fn gaussian_nll_grad_matches_finite_differences() {
        let (mean, std, target) = (0.7, 0.6, 0.2);
        let (dm, ds) = gaussian_nll_grad(mean, std, target);
        let h = 1e-6;
        let ndm =
            (gaussian_nll(mean + h, std, target) - gaussian_nll(mean - h, std, target)) / (2.0 * h);
        let nds =
            (gaussian_nll(mean, std + h, target) - gaussian_nll(mean, std - h, target)) / (2.0 * h);
        assert!((dm - ndm).abs() < 1e-5);
        assert!((ds - nds).abs() < 1e-5);
    }

    #[test]
    fn kl_of_identical_gaussians_is_zero() {
        assert!(gaussian_kl(0.3, 0.7, 0.3, 0.7).abs() < 1e-12);
    }

    #[test]
    fn kl_is_nonnegative() {
        let cases = [
            (0.0, 1.0, 1.0, 1.0),
            (0.0, 0.5, 0.0, 2.0),
            (-1.0, 0.1, 1.0, 0.3),
            (3.0, 2.0, -3.0, 0.2),
        ];
        for (a, b, c, d) in cases {
            assert!(gaussian_kl(a, b, c, d) >= -1e-12);
        }
    }
}
