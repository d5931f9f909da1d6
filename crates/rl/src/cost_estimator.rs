//! The variational cost-value estimator (policy `π_φ`, paper §3 Eq. 6–8).
//!
//! The proactive baseline switching rule needs, at every slot, the
//! distribution of the *remaining episode cost* that would be incurred if the
//! baseline policy took over now. The paper trains a Bayesian neural network
//! on `(state, cost-to-go)` pairs collected while the baseline interacts with
//! the network, maximizing the ELBO (Eq. 7); at decision time the estimator
//! reports a mean `μ` and standard deviation `σ`, and the agent switches when
//! `Σ cost + μ + η·σ ≥ T · C_max` (Eq. 8).
//!
//! [`CostValueEstimator`] wraps the Bayes-by-backprop network from
//! `onslicing_nn`; [`CostValueEstimator::cost_to_go_dataset`] builds the
//! training targets from raw per-slot baseline costs.

use rand::Rng;
use serde::{Deserialize, Serialize};

use onslicing_nn::{Adam, BayesWorkspace, BayesianMlp, BayesianPrediction, Matrix, PredictScratch};

/// A `(state, remaining-episode cost)` training pair for the estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostToGoSample {
    /// Flattened observation at the decision slot.
    pub state: Vec<f64>,
    /// Cost accumulated by the baseline from this slot to the end of the
    /// episode.
    pub cost_to_go: f64,
}

/// Weight of the KL regularizer relative to the likelihood (the `1/|D|`
/// minibatch scaling of Bayes-by-backprop).
const KL_WEIGHT: f64 = 1e-4;

/// Hyper-parameters of the estimator's training stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimatorConfig {
    /// Number of passes over the dataset per `fit` call.
    pub epochs: usize,
    /// Learning rate of the Adam optimizer.
    pub learning_rate: f64,
    /// Number of posterior samples drawn per prediction.
    pub prediction_samples: usize,
}

impl Default for CostEstimatorConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            learning_rate: 2e-3,
            prediction_samples: 16,
        }
    }
}

/// The Bayesian cost-value estimator π_φ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostValueEstimator {
    network: BayesianMlp,
    config: CostEstimatorConfig,
    /// Scratch memory of the predict path — never serialized; a deserialized
    /// estimator starts with an invalid (empty) cache and rebuilds it on
    /// first use.
    #[serde(skip)]
    predict_scratch: PredictScratch,
}

impl CostValueEstimator {
    /// Creates an estimator for the given state dimensionality using a small
    /// trunk (the estimator regresses a single scalar, so the paper-size
    /// trunk is unnecessary and slow in tests).
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        config: CostEstimatorConfig,
        rng: &mut R,
    ) -> Self {
        Self {
            network: BayesianMlp::new(&[state_dim, 64, 32, 1], rng),
            config,
            predict_scratch: PredictScratch::new(),
        }
    }

    /// The estimator's configuration.
    pub fn config(&self) -> &CostEstimatorConfig {
        &self.config
    }

    /// What a deserialised estimator must satisfy before its first
    /// prediction: a well-formed network.
    pub fn validate(&self) -> Result<(), String> {
        self.network
            .validate()
            .map_err(|e| format!("estimator {e}"))
    }

    /// Builds cost-to-go training pairs from one baseline episode: for each
    /// slot `t`, the target is `Σ_{m ≥ t} cost_m`.
    ///
    /// # Panics
    /// Panics if the numbers of states and costs differ.
    pub fn cost_to_go_dataset(states: &[Vec<f64>], costs: &[f64]) -> Vec<CostToGoSample> {
        assert_eq!(states.len(), costs.len(), "states/costs length mismatch");
        let mut acc = 0.0;
        let mut togo = vec![0.0; costs.len()];
        for i in (0..costs.len()).rev() {
            acc += costs[i];
            togo[i] = acc;
        }
        states
            .iter()
            .zip(togo)
            .map(|(s, c)| CostToGoSample {
                state: s.clone(),
                cost_to_go: c,
            })
            .collect()
    }

    /// Trains the estimator on the dataset by maximizing the ELBO (Gaussian
    /// likelihood + KL to the prior). Returns the mean squared error after
    /// each epoch.
    ///
    /// The batched path draws **one posterior weight sample per epoch** and
    /// pushes the whole dataset through it with one GEMM per layer (a
    /// single-sample Monte-Carlo ELBO estimate, the standard
    /// Bayes-by-backprop minibatch scheme), instead of resampling every
    /// weight for every data point as the per-sample loop did. Both are
    /// unbiased ELBO gradient estimators; the batched one is far cheaper.
    ///
    /// Each call starts Adam from fresh moments, as
    /// [`crate::bc::behavior_clone`] does: π_φ is fitted offline, once, on
    /// the baseline's data, so no optimiser state outlives the call.
    pub fn fit<R: Rng + ?Sized>(&mut self, dataset: &[CostToGoSample], rng: &mut R) -> Vec<f64> {
        if dataset.is_empty() {
            return Vec::new();
        }
        let mut optimizer = Adam::new(self.network.num_parameters(), self.config.learning_rate);
        let n = dataset.len() as f64;
        let state_dim = self.network.input_dim();
        let mut states = Matrix::zeros(dataset.len(), state_dim);
        for (i, sample) in dataset.iter().enumerate() {
            states.copy_row_from(i, &sample.state);
        }
        let mut ws = BayesWorkspace::new();
        let mut grad = Matrix::zeros(dataset.len(), 1);
        let mut epoch_errors = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            self.network.zero_grad();
            self.network.resample_weights(rng);
            let mut err_sum = 0.0;
            {
                let y = self.network.forward_batch(&states, &mut ws);
                for (i, sample) in dataset.iter().enumerate() {
                    let err = y.get(i, 0) - sample.cost_to_go;
                    err_sum += err * err;
                    // Gradient of 0.5 * err^2 averaged over the dataset (the
                    // Gaussian likelihood term of the ELBO with unit
                    // observation noise).
                    grad.set(i, 0, err / n);
                }
            }
            self.network.backward_batch(&grad, &mut ws);
            self.network.accumulate_kl_grad(KL_WEIGHT / n);
            optimizer.step_set(&mut self.network);
            epoch_errors.push(err_sum / n);
        }
        // Parameters moved: the predict path's parameter cache is stale.
        self.predict_scratch.invalidate();
        epoch_errors
    }

    /// Predictive mean and standard deviation of the baseline's remaining
    /// episode cost at the given state.
    ///
    /// Runs [`BayesianMlp::predict_with`] — `prediction_samples` posterior
    /// samples pushed as one batch through the trunk, allocation-free once
    /// the estimator's scratch is warm.
    pub fn predict<R: Rng + ?Sized>(&mut self, state: &[f64], rng: &mut R) -> BayesianPrediction {
        let mut p = self.network.predict_with(
            state,
            self.config.prediction_samples,
            rng,
            &mut self.predict_scratch,
        );
        // Remaining cost is non-negative by construction.
        p.mean = p.mean.max(0.0);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn cost_to_go_is_a_reverse_cumulative_sum() {
        let states = vec![vec![0.0], vec![1.0], vec![2.0]];
        let costs = vec![0.1, 0.2, 0.3];
        let ds = CostValueEstimator::cost_to_go_dataset(&states, &costs);
        assert_eq!(ds.len(), 3);
        assert!((ds[0].cost_to_go - 0.6).abs() < 1e-12);
        assert!((ds[1].cost_to_go - 0.5).abs() < 1e-12);
        assert!((ds[2].cost_to_go - 0.3).abs() < 1e-12);
    }

    #[test]
    fn estimator_learns_a_state_dependent_cost_to_go() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Cost-to-go = 2 * s0 (e.g. early in the episode more cost remains).
        let dataset: Vec<CostToGoSample> = (0..128)
            .map(|i| {
                let s = i as f64 / 128.0;
                CostToGoSample {
                    state: vec![s, 1.0 - s],
                    cost_to_go: 2.0 * s,
                }
            })
            .collect();
        let mut est = CostValueEstimator::new(
            2,
            CostEstimatorConfig {
                epochs: 300,
                learning_rate: 5e-3,
                ..Default::default()
            },
            &mut rng,
        );
        let errors = est.fit(&dataset, &mut rng);
        assert!(
            errors.last().unwrap() < &0.05,
            "final mse {}",
            errors.last().unwrap()
        );
        let p_low = est.predict(&[0.1, 0.9], &mut rng);
        let p_high = est.predict(&[0.9, 0.1], &mut rng);
        assert!(
            p_high.mean > p_low.mean,
            "{} should exceed {}",
            p_high.mean,
            p_low.mean
        );
        assert!((p_high.mean - 1.8).abs() < 0.5);
        assert!(p_low.std >= 0.0 && p_high.std >= 0.0);
    }

    #[test]
    fn predictions_are_non_negative() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut est = CostValueEstimator::new(2, CostEstimatorConfig::default(), &mut rng);
        // Untrained network may output negatives; the wrapper clamps the mean.
        let p = est.predict(&[0.5, 0.5], &mut rng);
        assert!(p.mean >= 0.0);
    }

    #[test]
    fn fitting_an_empty_dataset_returns_no_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut est = CostValueEstimator::new(2, CostEstimatorConfig::default(), &mut rng);
        assert!(est.fit(&[], &mut rng).is_empty());
    }

    #[test]
    fn uncertainty_is_larger_away_from_the_training_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Train only on states near 0.2.
        let dataset: Vec<CostToGoSample> = (0..64)
            .map(|i| {
                let s = 0.15 + 0.1 * (i as f64 / 64.0);
                CostToGoSample {
                    state: vec![s],
                    cost_to_go: 1.0,
                }
            })
            .collect();
        let mut est = CostValueEstimator::new(
            1,
            CostEstimatorConfig {
                epochs: 200,
                learning_rate: 5e-3,
                ..Default::default()
            },
            &mut rng,
        );
        est.fit(&dataset, &mut rng);
        let in_dist: f64 = (0..10)
            .map(|_| est.predict(&[0.2], &mut rng).std)
            .sum::<f64>()
            / 10.0;
        let out_dist: f64 = (0..10)
            .map(|_| est.predict(&[3.0], &mut rng).std)
            .sum::<f64>()
            / 10.0;
        assert!(
            out_dist > in_dist,
            "uncertainty far from data ({out_dist}) should exceed in-distribution ({in_dist})"
        );
    }

    #[test]
    fn fit_invalidates_the_fast_predict_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut est = CostValueEstimator::new(2, CostEstimatorConfig::default(), &mut rng);
        // Warm the parameter cache (and leave the activation buffers in the
        // state several predictions leave them in), then move the parameters
        // with a fit.
        let mut warm_rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..3 {
            let _ = est.predict(&[0.1 * i as f64, 0.2], &mut warm_rng);
        }
        let dataset: Vec<CostToGoSample> = (0..16)
            .map(|i| CostToGoSample {
                state: vec![i as f64 / 16.0, 0.5],
                cost_to_go: i as f64 / 8.0,
            })
            .collect();
        est.fit(&dataset, &mut ChaCha8Rng::seed_from_u64(6));
        // A cold estimator (as after deserialization: empty scratch) must
        // predict the exact same bits — i.e. the warm cache was invalidated.
        let mut cold = est.clone();
        cold.predict_scratch = PredictScratch::new();
        let warm = est.predict(&[0.1, 0.2], &mut ChaCha8Rng::seed_from_u64(7));
        let fresh = cold.predict(&[0.1, 0.2], &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(warm.mean.to_bits(), fresh.mean.to_bits());
        assert_eq!(warm.std.to_bits(), fresh.std.to_bits());
    }

    /// A fitted estimator and what deserialising its serialised form gives.
    fn fitted_and_restored() -> (CostValueEstimator, CostValueEstimator) {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut live = CostValueEstimator::new(2, CostEstimatorConfig::default(), &mut rng);
        let dataset: Vec<CostToGoSample> = (0..16)
            .map(|i| CostToGoSample {
                state: vec![i as f64 / 16.0, 0.5],
                cost_to_go: i as f64 / 8.0,
            })
            .collect();
        live.fit(&dataset, &mut rng);
        assert!(live.network.grad_norm_squared() > 0.0);
        let document = live.serialize_value();
        let restored = CostValueEstimator::from_value(&document).unwrap();
        assert_eq!(restored.serialize_value(), document);
        (live, restored)
    }

    #[test]
    fn a_restored_estimator_predicts_exactly_like_the_live_one() {
        let (mut live, mut restored) = fitted_and_restored();
        restored.validate().unwrap();
        // Gradients and the last weight draw stayed behind.
        assert_eq!(restored.network.grad_norm_squared(), 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = live.predict(&[0.3, 0.5], &mut rng.clone());
        let b = restored.predict(&[0.3, 0.5], &mut rng);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std.to_bits(), b.std.to_bits());
    }

    #[test]
    fn a_restored_estimator_fits_exactly_like_the_live_one() {
        // The live layers keep the σ cache of their last fit (marked stale by
        // its final step); the restored ones start with none.
        let (mut live, mut restored) = fitted_and_restored();
        let dataset: Vec<CostToGoSample> = (0..24)
            .map(|i| CostToGoSample {
                state: vec![0.5, i as f64 / 24.0],
                cost_to_go: 3.0 - i as f64 / 8.0,
            })
            .collect();
        let rng = ChaCha8Rng::seed_from_u64(12);
        let bits = |errors: Vec<f64>| errors.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(live.fit(&dataset, &mut rng.clone())),
            bits(restored.fit(&dataset, &mut rng.clone()))
        );
        assert_eq!(
            format!("{:?}", live.serialize_value()),
            format!("{:?}", restored.serialize_value())
        );
    }

    #[test]
    #[should_panic(expected = "forward_batch called before resample_weights")]
    fn a_restored_estimator_has_no_weight_draw_until_it_resamples() {
        let (_, restored) = fitted_and_restored();
        let _ = restored
            .network
            .forward_batch(&Matrix::zeros(3, 2), &mut BayesWorkspace::new());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_dataset_construction_panics() {
        let _ = CostValueEstimator::cost_to_go_dataset(&[vec![0.0]], &[0.1, 0.2]);
    }
}
