//! Behavior cloning from the rule-based baseline policy (paper §5, Eq. 15).
//!
//! Before going online, every OnSlicing agent is trained offline to imitate
//! the baseline policy on transitions the baseline collected from the real
//! network: policy `π_θ`'s mean network is regressed onto the baseline's
//! actions with an l2 loss,
//!
//! ```text
//! Loss = (1/|B|) Σ_n | π_b(s_n) − π_θ(s_n) |²              (Eq. 15)
//! ```
//!
//! so that the online phase starts with baseline-level performance instead of
//! learning from scratch (the early-stage failure mode shown in Fig. 3).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use onslicing_nn::{mse_loss, Adam, BatchWorkspace, GaussianPolicy, Matrix};

/// A state → baseline-action demonstration pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Demonstration {
    /// Flattened observation.
    pub state: Vec<f64>,
    /// The action the baseline policy took (each dimension in `[0, 1]`).
    pub action: Vec<f64>,
}

/// Hyper-parameters of the behavior-cloning pre-training stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BcConfig {
    /// Number of passes over the demonstration dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate of the Adam optimizer.
    pub learning_rate: f64,
}

impl Default for BcConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 64,
            learning_rate: 1e-3,
        }
    }
}

/// Trains the policy's mean network to imitate the demonstrations.
///
/// Returns the mean l2 imitation loss after each epoch (a monotone-ish
/// decreasing curve is the offline imitation curve of Fig. 10).
///
/// The only use of `rng` is one shuffle of the demonstrations per epoch, so
/// the call draws exactly [`behavior_clone_draws`] `next_u64` words whatever
/// the data: a caller can hand a copy of the generator, advanced by that
/// many words, to work that runs alongside.
///
/// # Panics
/// Panics if the dataset is empty or a demonstration's dimensions do not
/// match the policy.
pub fn behavior_clone<R: Rng + ?Sized>(
    policy: &mut GaussianPolicy,
    demonstrations: &[Demonstration],
    config: &BcConfig,
    rng: &mut R,
) -> Vec<f64> {
    assert!(
        !demonstrations.is_empty(),
        "behavior cloning needs at least one demonstration"
    );
    for d in demonstrations {
        assert_eq!(
            d.state.len(),
            policy.state_dim(),
            "demonstration state dimension mismatch"
        );
        assert_eq!(
            d.action.len(),
            policy.action_dim(),
            "demonstration action dimension mismatch"
        );
    }
    let n = demonstrations.len();
    let state_dim = policy.state_dim();
    let action_dim = policy.action_dim();
    let mut opt = Adam::new(policy.mean_net().num_parameters(), config.learning_rate);

    // Pack the demonstration set once; minibatches gather rows from it.
    let mut all_states = Matrix::zeros(n, state_dim);
    let mut all_actions = Matrix::zeros(n, action_dim);
    for (i, d) in demonstrations.iter().enumerate() {
        all_states.copy_row_from(i, &d.state);
        all_actions.copy_row_from(i, &d.action);
    }

    let mut ws = BatchWorkspace::new();
    let mut grad = Matrix::default();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        // `n − 1` words: see `behavior_clone_draws`.
        indices.shuffle(rng);
        let mut loss_sum = 0.0;
        for chunk in indices.chunks(config.batch_size.max(1)) {
            policy.mean_net_mut().zero_grad();
            let batch = chunk.len();
            let input = ws.input_mut(batch, state_dim);
            for (b, &i) in chunk.iter().enumerate() {
                input.copy_row_from(b, all_states.row(i));
            }
            grad.resize(batch, action_dim);
            {
                // One GEMM pass for the whole minibatch; the per-row mse
                // gradient is `2 (y − t) / (action_dim · batch)`, matching
                // the former per-sample `mse_grad(...) / batch`.
                let y = policy.mean_net().forward_batch_prefilled(&mut ws);
                let scale = 2.0 / (action_dim as f64 * batch as f64);
                for (b, &i) in chunk.iter().enumerate() {
                    loss_sum += mse_loss(y.row(b), all_actions.row(i));
                    for (g, (p, t)) in grad
                        .row_mut(b)
                        .iter_mut()
                        .zip(y.row(b).iter().zip(all_actions.row(i).iter()))
                    {
                        *g = scale * (p - t);
                    }
                }
            }
            policy.mean_net_mut().backward_batch(&grad, &mut ws);
            opt.step_set(policy.mean_net_mut());
        }
        epoch_losses.push(loss_sum / n as f64);
    }
    epoch_losses
}

/// The number of `next_u64` words [`behavior_clone`] draws from its
/// generator on `num_demonstrations` demonstrations: the Fisher–Yates
/// shuffle of each epoch draws one word per position but the first.
pub fn behavior_clone_draws(num_demonstrations: usize, config: &BcConfig) -> usize {
    config.epochs * num_demonstrations.saturating_sub(1)
}

/// Mean l2 imitation error of the policy on a demonstration set (no
/// training) — used to verify the clone quality before going online.
pub fn imitation_error(policy: &GaussianPolicy, demonstrations: &[Demonstration]) -> f64 {
    if demonstrations.is_empty() {
        return 0.0;
    }
    demonstrations
        .iter()
        .map(|d| mse_loss(&policy.mean_action(&d.state), &d.action))
        .sum::<f64>()
        / demonstrations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_nn::{Activation, Mlp};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A synthetic "baseline": action = [s0, 1 - s0] clipped to [0.1, 0.9].
    fn synthetic_baseline(state: &[f64]) -> Vec<f64> {
        vec![state[0].clamp(0.1, 0.9), (1.0 - state[0]).clamp(0.1, 0.9)]
    }

    fn dataset(n: usize) -> Vec<Demonstration> {
        (0..n)
            .map(|i| {
                let s = vec![i as f64 / n as f64, (i % 7) as f64 / 7.0];
                Demonstration {
                    action: synthetic_baseline(&s),
                    state: s,
                }
            })
            .collect()
    }

    fn small_policy(seed: u64) -> GaussianPolicy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(
            &[2, 32, 16, 2],
            Activation::Tanh,
            Activation::Sigmoid,
            &mut rng,
        );
        GaussianPolicy::from_mean_net(net, 2, 0.1)
    }

    #[test]
    fn cloning_reduces_the_imitation_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut policy = small_policy(1);
        let demos = dataset(256);
        let before = imitation_error(&policy, &demos);
        let losses = behavior_clone(
            &mut policy,
            &demos,
            &BcConfig {
                epochs: 30,
                batch_size: 32,
                learning_rate: 3e-3,
            },
            &mut rng,
        );
        let after = imitation_error(&policy, &demos);
        assert_eq!(losses.len(), 30);
        assert!(
            after < before,
            "imitation error should drop: {before} -> {after}"
        );
        assert!(
            after < 0.01,
            "cloned policy should be close to the baseline, got {after}"
        );
        // The loss curve should be (weakly) improving overall.
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn cloned_policy_reproduces_baseline_actions_pointwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut policy = small_policy(3);
        let demos = dataset(256);
        behavior_clone(
            &mut policy,
            &demos,
            &BcConfig {
                epochs: 40,
                batch_size: 32,
                learning_rate: 3e-3,
            },
            &mut rng,
        );
        let s = vec![0.42, 0.3];
        let target = synthetic_baseline(&s);
        let cloned = policy.mean_action(&s);
        for (c, t) in cloned.iter().zip(target.iter()) {
            assert!((c - t).abs() < 0.1, "cloned {c} vs baseline {t}");
        }
    }

    /// The generator after cloning equals a copy that drew the stated
    /// number of words, one demonstration (zero words) included.
    #[test]
    fn cloning_draws_exactly_the_stated_number_of_words() {
        for (n, epochs, batch_size) in [(1, 10, 64), (2, 3, 1), (37, 4, 8), (256, 2, 64)] {
            let config = BcConfig {
                epochs,
                batch_size,
                learning_rate: 1e-3,
            };
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut expected = rng.clone();
            behavior_clone(&mut small_policy(12), &dataset(n), &config, &mut rng);
            let draws = behavior_clone_draws(n, &config);
            assert_eq!(draws, epochs * (n - 1));
            for _ in 0..draws {
                expected.next_u64();
            }
            assert_eq!(rng, expected, "{n} demonstrations, {epochs} epochs");
        }
    }

    #[test]
    fn imitation_error_of_empty_dataset_is_zero() {
        let policy = small_policy(4);
        assert_eq!(imitation_error(&policy, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one demonstration")]
    fn cloning_an_empty_dataset_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut policy = small_policy(6);
        let _ = behavior_clone(&mut policy, &[], &BcConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn dimension_mismatch_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut policy = small_policy(8);
        let demos = vec![Demonstration {
            state: vec![0.0; 5],
            action: vec![0.5, 0.5],
        }];
        let _ = behavior_clone(&mut policy, &demos, &BcConfig::default(), &mut rng);
    }
}
