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
}
