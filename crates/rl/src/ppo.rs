//! Proximal policy optimization with a clipped surrogate objective.
//!
//! The paper trains policy `π_θ` with PPO rather than DDPG because the
//! clipped surrogate prevents excessively large policy updates and produces
//! the smooth performance improvement the online setting needs (§3, "Smooth
//! Policy Improvement"). This is a from-scratch PPO-clip implementation on
//! top of the [`onslicing_nn`] primitives:
//!
//! * actor — a [`GaussianPolicy`] (Sigmoid mean head, learnable state-
//!   independent std);
//! * critic — an [`Mlp`] regressing the (shaped) return;
//! * generalized advantage estimation from the rollout buffer;
//! * multiple epochs of minibatch updates with ratio clipping and an entropy
//!   bonus.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use onslicing_nn::{Activation, Adam, BatchWorkspace, GaussianPolicy, Matrix, Mlp, PolicySample};

use crate::buffer::RolloutBuffer;

/// Clip range of the probability ratio.
const CLIP_EPSILON: f64 = 0.2;
/// Entropy bonus coefficient.
const ENTROPY_COEF: f64 = 1e-3;

/// Hyper-parameters of the PPO learner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Number of optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch_size: usize,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Initial standard deviation of the Gaussian policy.
    pub initial_std: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            epochs: 8,
            minibatch_size: 64,
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            initial_std: 0.15,
        }
    }
}

/// Statistics of one PPO update (for logging and tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoUpdateStats {
    /// Number of transitions consumed.
    pub num_transitions: usize,
    /// Mean clipped-surrogate objective over the last epoch (higher is
    /// better).
    pub surrogate: f64,
    /// Mean critic loss over the last epoch.
    pub value_loss: f64,
    /// Fraction of samples whose ratio was clipped in the last epoch.
    pub clip_fraction: f64,
    /// Mean probability ratio in the last epoch.
    pub mean_ratio: f64,
}

/// Reusable buffers for [`PpoAgent::update`]: network workspaces, gathered
/// minibatch matrices and per-sample scalars. They live inside the agent
/// and persist across updates, so steady-state training re-touches warm
/// memory instead of faulting in fresh allocations every epoch, and agents
/// can update in parallel.
#[derive(Debug, Clone, Default)]
struct PpoUpdateScratch {
    actor_ws: BatchWorkspace,
    critic_ws: BatchWorkspace,
    all_states: Matrix,
    all_raw: Matrix,
    mb_raw: Matrix,
    actor_grad: Matrix,
    critic_grad: Matrix,
    new_log_probs: Vec<f64>,
    weights: Vec<f64>,
    indices: Vec<usize>,
}

/// A PPO actor-critic agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoAgent {
    config: PpoConfig,
    policy: GaussianPolicy,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    /// Scratch memory only — never part of the agent's serialized state.
    #[serde(skip)]
    scratch: PpoUpdateScratch,
}

impl PpoAgent {
    /// Creates an agent with the paper's network sizes for the given state
    /// and action dimensionality.
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        action_dim: usize,
        config: PpoConfig,
        rng: &mut R,
    ) -> Self {
        let policy = GaussianPolicy::new(state_dim, action_dim, config.initial_std, rng);
        let critic = Mlp::onslicing_default(state_dim, 1, Activation::Identity, rng);
        Self::from_parts(policy, critic, config)
    }

    /// Creates an agent with small networks (fast tests).
    pub fn new_small<R: Rng + ?Sized>(
        state_dim: usize,
        action_dim: usize,
        config: PpoConfig,
        rng: &mut R,
    ) -> Self {
        let mean = Mlp::new(
            &[state_dim, 32, 16, action_dim],
            Activation::Tanh,
            Activation::Sigmoid,
            rng,
        );
        let policy = GaussianPolicy::from_mean_net(mean, action_dim, config.initial_std);
        let critic = Mlp::new(
            &[state_dim, 32, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            rng,
        );
        Self::from_parts(policy, critic, config)
    }

    /// Assembles an agent from an existing policy and critic (used after
    /// offline behavior cloning).
    pub fn from_parts(policy: GaussianPolicy, critic: Mlp, config: PpoConfig) -> Self {
        let actor_opt = Adam::new(policy.num_parameters(), config.actor_lr);
        let critic_opt = Adam::new(critic.num_parameters(), config.critic_lr);
        Self {
            config,
            policy,
            critic,
            actor_opt,
            critic_opt,
            scratch: PpoUpdateScratch::default(),
        }
    }

    /// The learner's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Immutable access to the policy.
    pub fn policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// Mutable access to the policy (used by behavior cloning).
    pub fn policy_mut(&mut self) -> &mut GaussianPolicy {
        &mut self.policy
    }

    /// Immutable access to the critic.
    pub fn critic(&self) -> &Mlp {
        &self.critic
    }

    /// What a deserialised learner must satisfy before its first update:
    /// well-formed networks, and for each an optimiser of its size.
    pub fn validate(&self) -> Result<(), String> {
        let mean_net = self.policy.mean_net();
        mean_net.validate().map_err(|e| format!("policy {e}"))?;
        self.critic.validate().map_err(|e| format!("critic {e}"))?;
        self.actor_opt
            .validate_for(self.policy.num_parameters())
            .map_err(|e| format!("actor optimizer {e}"))?;
        self.critic_opt
            .validate_for(self.critic.num_parameters())
            .map_err(|e| format!("critic optimizer {e}"))
    }

    /// Samples a stochastic action.
    pub fn act<R: Rng + ?Sized>(&self, state: &[f64], rng: &mut R) -> PolicySample {
        self.policy.sample(state, rng)
    }

    /// Samples a stochastic action around an already-computed policy mean
    /// (the fused cell batch hands each agent its mean row). Bit-identical
    /// to [`PpoAgent::act`] when `mean` carries the bits
    /// `policy().mean_action(state)` would produce.
    pub fn act_with_mean<R: Rng + ?Sized>(&self, mean: &[f64], rng: &mut R) -> PolicySample {
        self.policy.sample_with_mean(mean, rng)
    }

    /// The deterministic (mean) action.
    pub fn act_deterministic(&self, state: &[f64]) -> Vec<f64> {
        self.policy.mean_action(state)
    }

    /// Critic estimate of the (shaped) return from `state` — also used as the
    /// reward value function `R` that bootstraps truncated episodes.
    pub fn value(&self, state: &[f64]) -> f64 {
        self.critic.forward(state)[0]
    }

    /// Runs a full PPO update on the buffer's ready transitions.
    ///
    /// The whole minibatch flows through the batched network API: per epoch
    /// and minibatch there is exactly **one** forward GEMM pass (shared by
    /// the new log-probabilities and the policy gradient), one policy
    /// backward pass, and one critic forward/backward pass — instead of the
    /// former per-sample `matvec` loops. All scratch matrices are reused
    /// across minibatches, so the inner loop allocates nothing once warm.
    ///
    /// The buffer is left untouched (the caller clears it), so ablations can
    /// inspect it afterwards.
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        buffer: &RolloutBuffer,
        rng: &mut R,
    ) -> PpoUpdateStats {
        let (transitions, _advantages, returns) = buffer.ready_batch();
        let advantages = buffer.normalized_advantages();
        let n = transitions.len();
        if n == 0 {
            return PpoUpdateStats {
                num_transitions: 0,
                surrogate: 0.0,
                value_loss: 0.0,
                clip_fraction: 0.0,
                mean_ratio: 1.0,
            };
        }
        let Self {
            config,
            policy,
            critic,
            actor_opt,
            critic_opt,
            scratch,
        } = self;
        let state_dim = policy.state_dim();
        let action_dim = policy.action_dim();
        // Pack the rollout into matrices once; minibatches gather rows from
        // these instead of touching the transition structs again. All
        // buffers live in the agent's scratch, so steady-state updates
        // allocate nothing.
        scratch.all_states.resize(n, state_dim);
        scratch.all_raw.resize(n, action_dim);
        for (i, t) in transitions.iter().enumerate() {
            scratch.all_states.copy_row_from(i, &t.state);
            scratch.all_raw.copy_row_from(i, &t.raw_action);
        }

        scratch.indices.clear();
        scratch.indices.extend(0..n);
        let mut last_surrogate = 0.0;
        let mut last_value_loss = 0.0;
        let mut last_clip_fraction = 0.0;
        let mut last_mean_ratio = 1.0;
        let clip_lo = 1.0 - CLIP_EPSILON;
        let clip_hi = 1.0 + CLIP_EPSILON;

        for _epoch in 0..config.epochs {
            scratch.indices.shuffle(rng);
            let mut surrogate_sum = 0.0;
            let mut value_loss_sum = 0.0;
            let mut clipped = 0usize;
            let mut ratio_sum = 0.0;

            for chunk in scratch.indices.chunks(config.minibatch_size.max(1)) {
                policy.zero_grad();
                critic.zero_grad();
                let batch = chunk.len();
                let batch_f = batch as f64;

                // Gather the shuffled minibatch rows straight into the
                // workspaces' input buffers.
                let actor_in = scratch.actor_ws.input_mut(batch, state_dim);
                for (b, &i) in chunk.iter().enumerate() {
                    actor_in.copy_row_from(b, scratch.all_states.row(i));
                }
                scratch.mb_raw.resize(batch, action_dim);
                for (b, &i) in chunk.iter().enumerate() {
                    scratch.mb_raw.copy_row_from(b, scratch.all_raw.row(i));
                }

                // ---- actor: one batched forward, shared by the ratio
                // computation and the policy gradient ----
                policy.log_probs_batch_prefilled(
                    &scratch.mb_raw,
                    &mut scratch.actor_ws,
                    &mut scratch.new_log_probs,
                );
                scratch.weights.clear();
                for (b, &i) in chunk.iter().enumerate() {
                    let adv = advantages[i];
                    let ratio = (scratch.new_log_probs[b] - transitions[i].log_prob).exp();
                    let unclipped = ratio * adv;
                    let clipped_obj = ratio.clamp(clip_lo, clip_hi) * adv;
                    surrogate_sum += unclipped.min(clipped_obj);
                    ratio_sum += ratio;
                    // Gradient flows only when the unclipped branch is
                    // active; clipped samples keep a zero weight.
                    if unclipped <= clipped_obj + 1e-12 {
                        scratch.weights.push(ratio * adv / batch_f);
                    } else {
                        scratch.weights.push(0.0);
                        clipped += 1;
                    }
                }
                policy.accumulate_log_prob_grad_batch(
                    &scratch.mb_raw,
                    &scratch.weights,
                    &mut scratch.actor_ws,
                    &mut scratch.actor_grad,
                );
                // Entropy bonus (per minibatch, not per sample).
                policy.accumulate_entropy_grad(ENTROPY_COEF);

                // ---- critic: one batched forward/backward ----
                let critic_in = scratch.critic_ws.input_mut(batch, state_dim);
                for (b, &i) in chunk.iter().enumerate() {
                    critic_in.copy_row_from(b, scratch.all_states.row(i));
                }
                scratch.critic_grad.resize(batch, 1);
                {
                    let values = critic.forward_batch_prefilled(&mut scratch.critic_ws);
                    for (b, &i) in chunk.iter().enumerate() {
                        let err = values.get(b, 0) - returns[i];
                        value_loss_sum += err * err;
                        scratch.critic_grad.set(b, 0, 2.0 * err / batch_f);
                    }
                }
                critic.backward_batch(&scratch.critic_grad, &mut scratch.critic_ws);

                actor_opt.step_set(policy);
                critic_opt.step_set(critic);
            }
            last_surrogate = surrogate_sum / n as f64;
            last_value_loss = value_loss_sum / n as f64;
            last_clip_fraction = clipped as f64 / n as f64;
            last_mean_ratio = ratio_sum / n as f64;
        }

        PpoUpdateStats {
            num_transitions: n,
            surrogate: last_surrogate,
            value_loss: last_value_loss,
            clip_fraction: last_clip_fraction,
            mean_ratio: last_mean_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Transition;
    use onslicing_nn::ParameterSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A one-state continuous bandit: reward = 1 - (a0 - 0.7)^2 - (a1 - 0.2)^2.
    fn bandit_reward(action: &[f64]) -> f64 {
        1.0 - (action[0] - 0.7) * (action[0] - 0.7) - (action[1] - 0.2) * (action[1] - 0.2)
    }

    /// Collects `n` single-step bandit episodes (done after every step, so
    /// the advantage of an action reflects only that action's reward).
    fn collect_bandit_steps(
        agent: &PpoAgent,
        rng: &mut ChaCha8Rng,
        buffer: &mut RolloutBuffer,
        n: usize,
    ) {
        let state = vec![1.0, 0.0];
        for _ in 0..n {
            let sample = agent.act(&state, rng);
            let reward = bandit_reward(&sample.action);
            buffer.push(Transition {
                state: state.clone(),
                raw_action: sample.raw_action.clone(),
                action: sample.action.clone(),
                log_prob: sample.log_prob,
                reward,
                cost: 0.0,
                value: agent.value(&state),
                done: true,
            });
            buffer.finish_episode(0.0, agent.config().gamma, agent.config().gae_lambda);
        }
    }

    #[test]
    fn ppo_improves_a_continuous_bandit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = PpoConfig {
            epochs: 4,
            minibatch_size: 32,
            actor_lr: 5e-3,
            critic_lr: 5e-3,
            ..PpoConfig::default()
        };
        let mut agent = PpoAgent::new_small(2, 2, config, &mut rng);
        let state = vec![1.0, 0.0];
        let before = bandit_reward(&agent.act_deterministic(&state));
        for _ in 0..60 {
            let mut buffer = RolloutBuffer::new();
            collect_bandit_steps(&agent, &mut rng, &mut buffer, 64);
            let stats = agent.update(&buffer, &mut rng);
            assert_eq!(stats.num_transitions, 64);
        }
        let after = bandit_reward(&agent.act_deterministic(&state));
        assert!(
            after > before + 0.05 || after > 0.95,
            "PPO failed to improve: before {before}, after {after}"
        );
        let a = agent.act_deterministic(&state);
        assert!((a[0] - 0.7).abs() < 0.2, "a0 {} should approach 0.7", a[0]);
        assert!((a[1] - 0.2).abs() < 0.2, "a1 {} should approach 0.2", a[1]);
    }

    #[test]
    fn update_on_an_empty_buffer_is_a_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut agent = PpoAgent::new_small(2, 2, PpoConfig::default(), &mut rng);
        let buffer = RolloutBuffer::new();
        let stats = agent.update(&buffer, &mut rng);
        assert_eq!(stats.num_transitions, 0);
    }

    #[test]
    fn critic_learns_the_return_of_a_constant_reward() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = PpoConfig {
            epochs: 10,
            critic_lr: 5e-3,
            ..PpoConfig::default()
        };
        let mut agent = PpoAgent::new_small(2, 1, config, &mut rng);
        let state = vec![0.5, 0.5];
        for _ in 0..30 {
            let mut buffer = RolloutBuffer::new();
            for _ in 0..32 {
                let sample = agent.act(&state, &mut rng);
                buffer.push(Transition {
                    state: state.clone(),
                    raw_action: sample.raw_action.clone(),
                    action: sample.action.clone(),
                    log_prob: sample.log_prob,
                    reward: 1.0,
                    cost: 0.0,
                    value: agent.value(&state),
                    done: true, // single-step episodes: return is exactly 1
                });
                buffer.finish_episode(0.0, agent.config().gamma, agent.config().gae_lambda);
            }
            agent.update(&buffer, &mut rng);
        }
        let v = agent.value(&state);
        assert!(
            (v - 1.0).abs() < 0.2,
            "critic value {v} should approach 1.0"
        );
    }

    #[test]
    fn clip_fraction_and_ratio_are_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut agent = PpoAgent::new_small(
            2,
            2,
            PpoConfig {
                epochs: 6,
                ..PpoConfig::default()
            },
            &mut rng,
        );
        let mut buffer = RolloutBuffer::new();
        collect_bandit_steps(&agent, &mut rng, &mut buffer, 64);
        let stats = agent.update(&buffer, &mut rng);
        assert!((0.0..=1.0).contains(&stats.clip_fraction));
        assert!(stats.mean_ratio > 0.0);
        assert!(stats.value_loss >= 0.0);
    }

    #[test]
    fn a_restored_learner_updates_exactly_like_the_live_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut live = PpoAgent::new_small(2, 2, PpoConfig::default(), &mut rng);
        let mut buffer = RolloutBuffer::new();
        collect_bandit_steps(&live, &mut rng, &mut buffer, 48);
        // Mid-life: one update behind it, so the moments are off zero and
        // the layers hold the last minibatch's gradients.
        live.update(&buffer, &mut rng);
        assert!(ParameterSet::grad_norm_squared(&live.policy) > 0.0);
        let document = live.serialize_value();
        let mut restored = PpoAgent::from_value(&document).unwrap();
        restored.validate().unwrap();
        // The gradients stayed behind; everything an update reads came along.
        assert_eq!(ParameterSet::grad_norm_squared(&restored.policy), 0.0);
        assert_eq!(restored.critic.grad_norm_squared(), 0.0);
        assert_eq!(restored.serialize_value(), document);

        let mut buffer = RolloutBuffer::new();
        collect_bandit_steps(&live, &mut rng, &mut buffer, 48);
        live.update(&buffer, &mut rng.clone());
        restored.update(&buffer, &mut rng);
        let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(restored.policy.parameters()),
            bits(live.policy.parameters())
        );
        assert_eq!(
            bits(restored.critic.parameters()),
            bits(live.critic.parameters())
        );
    }

    #[test]
    fn deterministic_action_is_within_the_action_box() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let agent = PpoAgent::new_small(3, 4, PpoConfig::default(), &mut rng);
        let a = agent.act_deterministic(&[0.1, 0.2, 0.3]);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
