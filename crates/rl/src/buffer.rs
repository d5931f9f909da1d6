//! Rollout storage and generalized advantage estimation.
//!
//! The OnSlicing agent collects one transition per configuration slot. When
//! the proactive baseline switching mechanism truncates an episode, only the
//! transitions run by policy `π_θ` are kept and the reward value function at
//! the truncation slot bootstraps the return (paper §3, "Smooth Policy
//! Improvement") — [`RolloutBuffer::finish_episode`] implements exactly that
//! bootstrap.

use serde::{Deserialize, Serialize};

/// One slot's experience as seen by the learning policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Flattened observation.
    pub state: Vec<f64>,
    /// The raw (unclipped) Gaussian sample the log-probability refers to.
    pub raw_action: Vec<f64>,
    /// The action actually executed (clipped / modified).
    pub action: Vec<f64>,
    /// Log-probability of `raw_action` under the behaviour policy.
    pub log_prob: f64,
    /// The (possibly constraint-shaped) reward used for learning.
    pub reward: f64,
    /// The raw SLA cost of the slot (Eq. 10). No update reads it (the
    /// Lagrangian reads the agent's episode sums); it stays because both
    /// checkpoint layouts carry it.
    pub cost: f64,
    /// Critic value estimate at `state`.
    pub value: f64,
    /// Whether this transition ended its episode.
    pub done: bool,
}

/// Generalized advantage estimation over one episode segment.
///
/// `rewards[i]`, `values[i]` and `dones[i]` describe step `i`;
/// `bootstrap_value` is the critic estimate of the state following the last
/// step (0 when the episode terminated).
///
/// Returns `(advantages, returns)` where `returns[i] = advantages[i] + values[i]`.
pub fn compute_gae(
    rewards: &[f64],
    values: &[f64],
    dones: &[bool],
    bootstrap_value: f64,
    gamma: f64,
    lambda: f64,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        rewards.len(),
        values.len(),
        "rewards/values length mismatch"
    );
    assert_eq!(rewards.len(), dones.len(), "rewards/dones length mismatch");
    let n = rewards.len();
    let mut advantages = vec![0.0; n];
    let mut gae = 0.0;
    for i in (0..n).rev() {
        let next_value = if dones[i] {
            0.0
        } else if i + 1 < n {
            values[i + 1]
        } else {
            bootstrap_value
        };
        let not_done = if dones[i] { 0.0 } else { 1.0 };
        let delta = rewards[i] + gamma * next_value - values[i];
        gae = delta + gamma * lambda * not_done * gae;
        advantages[i] = gae;
    }
    let returns = advantages
        .iter()
        .zip(values.iter())
        .map(|(a, v)| a + v)
        .collect();
    (advantages, returns)
}

/// A rollout buffer accumulating transitions across (possibly truncated)
/// episodes until the learner consumes them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RolloutBuffer {
    transitions: Vec<Transition>,
    /// Advantage / return targets aligned with `transitions`, filled by
    /// `finish_episode`.
    advantages: Vec<f64>,
    returns: Vec<f64>,
    /// Index of the first transition of the episode currently being filled.
    episode_start: usize,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored transitions (including the in-progress episode).
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Number of transitions whose advantage targets have been computed.
    pub fn num_ready(&self) -> usize {
        self.advantages.len()
    }

    /// Adds one transition to the in-progress episode.
    pub fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// Closes the in-progress episode and computes its GAE targets.
    ///
    /// `bootstrap_value` is the estimated value of the remaining return after
    /// the last stored transition: 0 for naturally terminated episodes, and
    /// the reward value function `R` at the truncation slot when the baseline
    /// policy took over (the paper's truncated-episode correction).
    pub fn finish_episode(&mut self, bootstrap_value: f64, gamma: f64, lambda: f64) {
        let segment = &self.transitions[self.episode_start..];
        if segment.is_empty() {
            return;
        }
        let rewards: Vec<f64> = segment.iter().map(|t| t.reward).collect();
        let values: Vec<f64> = segment.iter().map(|t| t.value).collect();
        let dones: Vec<bool> = segment.iter().map(|t| t.done).collect();
        let (adv, ret) = compute_gae(&rewards, &values, &dones, bootstrap_value, gamma, lambda);
        self.advantages.extend(adv);
        self.returns.extend(ret);
        self.episode_start = self.transitions.len();
    }

    /// Returns the ready transitions together with their advantage and return
    /// targets (transitions of the still-open episode are excluded).
    pub fn ready_batch(&self) -> (&[Transition], &[f64], &[f64]) {
        let n = self.num_ready();
        (&self.transitions[..n], &self.advantages, &self.returns)
    }

    /// Advantages normalized to zero mean and unit variance (a standard PPO
    /// stabilization); returns the raw advantages when there are fewer than
    /// two samples.
    pub fn normalized_advantages(&self) -> Vec<f64> {
        let adv = &self.advantages;
        if adv.len() < 2 {
            return adv.clone();
        }
        let mean = adv.iter().sum::<f64>() / adv.len() as f64;
        let var = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / adv.len() as f64;
        let std = var.sqrt().max(1e-8);
        adv.iter().map(|a| (a - mean) / std).collect()
    }

    /// Clears everything (after a learner update).
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.advantages.clear();
        self.returns.clear();
        self.episode_start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(reward: f64, cost: f64, value: f64, done: bool) -> Transition {
        Transition {
            state: vec![0.0; 3],
            raw_action: vec![0.5],
            action: vec![0.5],
            log_prob: -1.0,
            reward,
            cost,
            value,
            done,
        }
    }

    #[test]
    fn gae_reduces_to_td_error_when_lambda_is_zero() {
        let rewards = [1.0, 1.0, 1.0];
        let values = [0.5, 0.5, 0.5];
        let dones = [false, false, true];
        let (adv, ret) = compute_gae(&rewards, &values, &dones, 0.0, 0.99, 0.0);
        // delta_t = r + gamma * V(s') - V(s)
        assert!((adv[0] - (1.0 + 0.99 * 0.5 - 0.5)).abs() < 1e-12);
        assert!((adv[2] - (1.0 - 0.5)).abs() < 1e-12);
        for i in 0..3 {
            assert!((ret[i] - (adv[i] + values[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn gae_equals_discounted_return_minus_value_when_lambda_is_one() {
        let rewards = [1.0, 2.0, 3.0];
        let values = [0.0, 0.0, 0.0];
        let dones = [false, false, true];
        let gamma = 0.9;
        let (adv, _) = compute_gae(&rewards, &values, &dones, 0.0, gamma, 1.0);
        let expected0 = 1.0 + gamma * 2.0 + gamma * gamma * 3.0;
        assert!((adv[0] - expected0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_value_feeds_the_last_step_when_not_done() {
        let rewards = [0.0];
        let values = [0.0];
        let dones = [false];
        let (adv, _) = compute_gae(&rewards, &values, &dones, 10.0, 0.5, 1.0);
        assert!((adv[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn done_masks_the_bootstrap() {
        let rewards = [0.0];
        let values = [0.0];
        let dones = [true];
        let (adv, _) = compute_gae(&rewards, &values, &dones, 10.0, 0.5, 1.0);
        assert_eq!(adv[0], 0.0);
    }

    #[test]
    fn buffer_tracks_ready_and_open_episodes() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.1, 0.0, false));
        buf.push(transition(1.0, 0.3, 0.0, true));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.num_ready(), 0);
        buf.finish_episode(0.0, 0.99, 0.95);
        assert_eq!(buf.num_ready(), 2);
        // Start a new episode that remains open.
        buf.push(transition(1.0, 0.5, 0.0, false));
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.num_ready(), 2);
    }

    #[test]
    fn normalized_advantages_have_zero_mean_and_unit_variance() {
        let mut buf = RolloutBuffer::new();
        for i in 0..10 {
            buf.push(transition(i as f64, 0.0, 0.0, i == 9));
        }
        buf.finish_episode(0.0, 0.99, 0.95);
        let norm = buf.normalized_advantages();
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        let var = norm.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / norm.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_everything() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, 0.0, true));
        buf.finish_episode(0.0, 0.99, 0.95);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.num_ready(), 0);
    }

    #[test]
    fn finishing_an_empty_episode_is_a_noop() {
        let mut buf = RolloutBuffer::new();
        buf.finish_episode(0.0, 0.99, 0.95);
        assert_eq!(buf.num_ready(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gae_rejects_mismatched_inputs() {
        let _ = compute_gae(&[1.0], &[0.0, 0.0], &[false], 0.0, 0.9, 0.9);
    }
}
