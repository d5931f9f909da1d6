//! The OnSlicing agent: one individualized safe online learner per slice.
//!
//! Each agent bundles the four policies of Fig. 2 of the paper:
//!
//! * `π_θ` — the learning policy (PPO actor-critic, [`onslicing_rl::PpoAgent`]);
//! * `π_b` — the rule-based baseline policy it imitates offline and switches
//!   to proactively ([`RuleBasedBaseline`]);
//! * `π_φ` — the variational cost-value estimator behind the switching rule
//!   (Eq. 6–8, [`CostValueEstimator`]);
//! * `π_a` — the action modifier that reacts to the domain managers'
//!   coordinating parameters (Eq. 13, [`ActionModifier`]).
//!
//! [`AgentConfig`] exposes every mechanism as a switch so that the paper's
//! ablations (OnSlicing-NB, OnSlicing-NE, estimator/modifier noise, OnRL,
//! the unsafe fixed-penalty DRL of Fig. 3) are just different configurations
//! of the same agent.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use onslicing_nn::policy::standard_normal;
use onslicing_nn::PolicySample;
use onslicing_rl::{
    behavior_clone, BcConfig, CostEstimatorConfig, CostValueEstimator, Demonstration,
    LagrangianMultiplier, PpoAgent, PpoConfig, PpoUpdateStats, RolloutBuffer, Transition,
};
use onslicing_slices::{Action, Sla, SliceKind, SliceState, SlotKpi, ACTION_DIM, STATE_DIM};

use crate::baselines::{RuleBasedBaseline, SlicePolicy};
use crate::env::SliceEnvironment;
use crate::metrics::SliceEpisodeSummary;
use crate::modifier::{ActionModifier, ModifierConfig};

/// Configuration of one OnSlicing agent; the paper's ablations are presets
/// over these switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// PPO hyper-parameters for policy `π_θ`.
    pub ppo: PpoConfig,
    /// Behavior-cloning hyper-parameters for the offline imitation stage.
    pub bc: BcConfig,
    /// Hyper-parameters of the variational cost-value estimator `π_φ`.
    pub estimator: CostEstimatorConfig,
    /// Configuration of the action modifier `π_a`.
    pub modifier: ModifierConfig,
    /// Whether to imitate the baseline offline before going online (§5).
    pub enable_imitation: bool,
    /// Whether the proactive baseline switching mechanism is active (§3).
    pub enable_switching: bool,
    /// Whether the switching rule uses the cost-value estimator; when false
    /// the rule degenerates to "switch once the cumulative cost itself
    /// exceeds the budget" (the OnSlicing-NE ablation).
    pub enable_estimator: bool,
    /// Standard deviation of Gaussian noise added to the estimator output
    /// (the "OnSlicing Est. Noise" robustness ablation).
    pub estimator_noise_std: f64,
    /// Whether the SLA penalty weight adapts via the Lagrangian dual update
    /// (Eq. 5); when false a fixed penalty weight is used (the unsafe DRL of
    /// Fig. 3).
    pub constraint_aware: bool,
    /// Penalty weight used when `constraint_aware` is false.
    pub fixed_penalty_weight: f64,
    /// Dual step size `ε` of the Lagrangian update.
    pub lagrangian_step: f64,
    /// Risk-preference factor `η` of the switching rule (Eq. 8).
    pub risk_factor_eta: f64,
    /// Episode length `T` in slots.
    pub horizon: usize,
    /// Use small policy networks instead of the paper's 128×64×32 trunks
    /// (keeps tests and CI-scale experiments fast; the algorithms are
    /// identical).
    pub use_small_networks: bool,
}

impl AgentConfig {
    /// The full OnSlicing agent (all mechanisms on).
    ///
    /// Exploration noise is kept small (σ = 0.03 on the normalized action
    /// box): the whole point of the system is a *smooth, safe* online
    /// improvement from the imitated baseline, not aggressive exploration —
    /// the OnRL and unsafe-DRL presets keep PPO's default, larger noise,
    /// which is precisely why they violate SLAs during learning (Fig. 3,
    /// Table 1).
    pub fn onslicing() -> Self {
        Self {
            ppo: PpoConfig {
                initial_std: 0.03,
                ..PpoConfig::default()
            },
            bc: BcConfig::default(),
            estimator: CostEstimatorConfig::default(),
            modifier: ModifierConfig::default(),
            enable_imitation: true,
            enable_switching: true,
            enable_estimator: true,
            estimator_noise_std: 0.0,
            constraint_aware: true,
            fixed_penalty_weight: 1.0,
            lagrangian_step: 10.0,
            risk_factor_eta: 2.0,
            horizon: 96,
            use_small_networks: false,
        }
    }

    /// OnSlicing-NB: no baseline switching at all.
    pub fn onslicing_nb() -> Self {
        Self {
            enable_switching: false,
            ..Self::onslicing()
        }
    }

    /// OnSlicing-NE: switching without the cost-value estimator (reactive,
    /// based on the cumulative cost alone).
    pub fn onslicing_ne() -> Self {
        Self {
            enable_estimator: false,
            ..Self::onslicing()
        }
    }

    /// OnSlicing with a noisy estimator (robustness ablation of Table 2).
    pub fn onslicing_estimator_noise(noise_std: f64) -> Self {
        Self {
            estimator_noise_std: noise_std,
            ..Self::onslicing()
        }
    }

    /// OnSlicing with a noisy action modifier (robustness ablation of
    /// Table 3).
    pub fn onslicing_modifier_noise(noise_std: f64) -> Self {
        let mut cfg = Self::onslicing();
        cfg.modifier.noise_std = noise_std;
        cfg
    }

    /// The OnRL-style comparator: learns from scratch (no imitation), keeps
    /// the constraint-aware reward shaping and a reactive backup switch, and
    /// relies on projection for over-requests (set at the orchestrator).
    /// Exploration uses PPO's default (large) noise — the learning-from-
    /// scratch behaviour the paper compares against.
    pub fn onrl() -> Self {
        Self {
            ppo: PpoConfig::default(),
            enable_imitation: false,
            enable_estimator: false,
            ..Self::onslicing()
        }
    }

    /// The unsafe DRL of Fig. 3: fixed penalty weight, no switching, no
    /// imitation, default (large) exploration noise.
    pub fn unsafe_drl() -> Self {
        Self {
            ppo: PpoConfig::default(),
            enable_imitation: false,
            enable_switching: false,
            enable_estimator: false,
            constraint_aware: false,
            ..Self::onslicing()
        }
    }

    /// Shrinks every training knob so the configuration runs in seconds
    /// (small networks, short horizon, few epochs); used by tests, examples
    /// and the CI-scale experiment binaries.
    pub fn scaled_down(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self.use_small_networks = true;
        self.ppo.epochs = 4;
        self.ppo.minibatch_size = 32;
        self.bc.epochs = 60;
        self.estimator.epochs = 40;
        self
    }
}

/// The outcome of one per-slot decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The action proposed by the agent (before coordination).
    pub action: Action,
    /// Whether the baseline policy produced it (proactive switching).
    pub used_baseline: bool,
    /// The stochastic policy sample when `π_θ` acted (None when the baseline
    /// did, or when acting deterministically).
    pub sample: Option<PolicySample>,
    /// The switching statistic `E_t` that was compared against the episode
    /// budget.
    pub switching_statistic: f64,
}

/// Report of the offline pre-training stage (§5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PretrainReport {
    /// Behavior-cloning loss after each epoch (Eq. 15) — the offline
    /// imitation curve of Fig. 10.
    pub bc_losses: Vec<f64>,
    /// Cost-value estimator regression error after each epoch.
    pub estimator_errors: Vec<f64>,
    /// Average resource usage (percent) of the baseline episodes used for
    /// the demonstrations.
    pub baseline_usage_percent: f64,
    /// Number of demonstration transitions collected.
    pub num_demonstrations: usize,
}

/// One individualized OnSlicing agent.
///
/// Serializes its complete learning state — policy/critic/estimator weights,
/// the Adam moments of the two networks PPO keeps training, the Lagrangian
/// multiplier, the rollout buffer, the per-episode accumulators and the
/// agent's RNG stream — so a deserialized agent decides, records and updates
/// exactly like the original. Gradients and other per-update scratch are
/// not part of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnSlicingAgent {
    kind: SliceKind,
    sla: Sla,
    config: AgentConfig,
    ppo: PpoAgent,
    baseline: RuleBasedBaseline,
    estimator: CostValueEstimator,
    lagrangian: LagrangianMultiplier,
    modifier: ActionModifier,
    buffer: RolloutBuffer,
    rng: ChaCha8Rng,
    // Per-episode state: the slots recorded and the running sums of their
    // cost and usage, a fixed size however long the episode runs.
    switched: bool,
    episode_slots: usize,
    episode_cost_sum: f64,
    episode_usage_sum: f64,
    pending_bootstrap: Option<f64>,
    /// Whether any π_θ transition was recorded this episode (evaluation
    /// episodes leave this false so they do not perturb the Lagrangian).
    learned_this_episode: bool,
}

impl OnSlicingAgent {
    /// Creates an agent for one slice around an already-calibrated baseline.
    pub fn new(
        kind: SliceKind,
        sla: Sla,
        baseline: RuleBasedBaseline,
        config: AgentConfig,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ppo = if config.use_small_networks {
            PpoAgent::new_small(STATE_DIM, ACTION_DIM, config.ppo, &mut rng)
        } else {
            PpoAgent::new(STATE_DIM, ACTION_DIM, config.ppo, &mut rng)
        };
        let estimator = CostValueEstimator::new(STATE_DIM, config.estimator, &mut rng);
        let lagrangian = LagrangianMultiplier::new(1.0, config.lagrangian_step, sla.cost_threshold);
        Self {
            kind,
            sla,
            config,
            ppo,
            baseline,
            estimator,
            lagrangian,
            modifier: ActionModifier::new(config.modifier),
            buffer: RolloutBuffer::new(),
            rng,
            switched: false,
            episode_slots: 0,
            // `Iterator::sum::<f64>` folds from -0.0, so sums started here
            // and added to in slot order keep its bits.
            episode_cost_sum: -0.0,
            episode_usage_sum: -0.0,
            pending_bootstrap: None,
            learned_this_episode: false,
        }
    }

    /// The slice this agent orchestrates.
    pub fn kind(&self) -> SliceKind {
        self.kind
    }

    /// The SLA the agent currently enforces.
    pub fn sla(&self) -> &Sla {
        &self.sla
    }

    /// Replaces the agent's SLA (renegotiation): the switching budget and
    /// the violation check follow the new terms from the next decision; the
    /// learned Lagrangian multiplier is kept so the dual state carries over.
    pub fn set_sla(&mut self, sla: Sla) {
        self.sla = sla;
        self.lagrangian.set_cost_threshold(sla.cost_threshold);
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The current Lagrangian multiplier `λ`.
    pub fn lambda(&self) -> f64 {
        self.lagrangian.lambda()
    }

    /// The agent's baseline policy (π_b).
    pub fn baseline(&self) -> &RuleBasedBaseline {
        &self.baseline
    }

    /// Whether the agent has switched to the baseline in the current episode.
    pub fn has_switched(&self) -> bool {
        self.switched
    }

    /// Offline pre-training (§5): runs the baseline policy for
    /// `num_episodes` in the environment, clones its behaviour into `π_θ`
    /// (Eq. 15) and fits the cost-value estimator `π_φ` on its cost-to-go.
    pub fn offline_pretrain(
        &mut self,
        env: &mut SliceEnvironment,
        num_episodes: usize,
    ) -> PretrainReport {
        let mut demos: Vec<Demonstration> = Vec::new();
        let mut cost_dataset = Vec::new();
        let mut usage_sum = 0.0;
        let mut usage_count = 0usize;
        for _ in 0..num_episodes {
            let mut state = env.reset();
            let mut episode_states = Vec::new();
            let mut episode_costs = Vec::new();
            loop {
                let action = self.baseline.act(&state);
                episode_states.push(state.to_vec());
                demos.push(Demonstration {
                    state: state.to_vec(),
                    action: action.to_vec(),
                });
                let r = env.step(&action);
                episode_costs.push(r.kpi.cost);
                usage_sum += r.kpi.resource_usage_percent();
                usage_count += 1;
                state = r.next_state;
                if r.done {
                    break;
                }
            }
            cost_dataset.extend(CostValueEstimator::cost_to_go_dataset(
                &episode_states,
                &episode_costs,
            ));
        }
        let bc_losses = if self.config.enable_imitation && !demos.is_empty() {
            behavior_clone(
                self.ppo.policy_mut(),
                &demos,
                &self.config.bc,
                &mut self.rng,
            )
        } else {
            Vec::new()
        };
        let estimator_errors = if self.config.enable_estimator && !cost_dataset.is_empty() {
            self.estimator.fit(&cost_dataset, &mut self.rng)
        } else {
            Vec::new()
        };
        PretrainReport {
            bc_losses,
            estimator_errors,
            baseline_usage_percent: if usage_count == 0 {
                0.0
            } else {
                usage_sum / usage_count as f64
            },
            num_demonstrations: demos.len(),
        }
    }

    /// The proactive switching statistic `E_t` of Eq. 8: the cumulative cost
    /// plus (when the estimator is enabled) the predicted mean and η-scaled
    /// standard deviation of the baseline's remaining episode cost.
    ///
    /// `state_row` is the flattened observation ([`SliceState::write_row`]
    /// layout); the slot path feeds rows straight from the gathered cell
    /// batch so the statistic costs no allocation.
    pub fn switching_statistic_row(&mut self, state_row: &[f64], cumulative_cost: f64) -> f64 {
        if !self.config.enable_estimator {
            return cumulative_cost;
        }
        let mut prediction = self.estimator.predict(state_row, &mut self.rng);
        if self.config.estimator_noise_std > 0.0 {
            prediction.mean += self.config.estimator_noise_std * standard_normal(&mut self.rng);
            prediction.mean = prediction.mean.max(0.0);
        }
        // A small floor on the epistemic uncertainty keeps the switching rule
        // conservative even when the estimator is (over-)confident, so that a
        // triggered switch still leaves the episode strictly under its budget
        // rather than exactly on it.
        let std = prediction.std.max(0.05);
        cumulative_cost + prediction.mean + self.config.risk_factor_eta * std
    }

    /// Produces the agent's orchestration decision for the upcoming slot
    /// (before distributed coordination): the two phases the orchestrator
    /// runs around its fused cell batch, composed over this agent's own
    /// policy mean.
    ///
    /// `deterministic` selects the policy mean instead of sampling (used for
    /// test-time evaluation).
    pub fn decide(
        &mut self,
        state: &SliceState,
        cumulative_cost: f64,
        deterministic: bool,
    ) -> Decision {
        let row = state.to_vec();
        let statistic = self.decide_phase_switch(&row, cumulative_cost);
        let mean = self.ppo.act_deterministic(&row);
        self.decide_finish(state, statistic, &mean, deterministic)
    }

    /// First phase of the slot decide: draws the switching statistic (the
    /// estimator's RNG draws happen here) and performs the proactive switch
    /// classification. Returns the statistic; whether the baseline acts is
    /// visible via [`OnSlicingAgent::has_switched`].
    ///
    /// The orchestrator runs this for every agent, then computes all policy
    /// means in one fused cell batch (no RNG involved), then calls
    /// [`OnSlicingAgent::decide_finish`] per agent. Because every agent owns
    /// an independent RNG stream, the phase split cannot change any draw.
    pub fn decide_phase_switch(&mut self, state_row: &[f64], cumulative_cost: f64) -> f64 {
        let statistic = if self.config.enable_switching {
            self.switching_statistic_row(state_row, cumulative_cost)
        } else {
            cumulative_cost
        };
        if self.config.enable_switching && !self.switched {
            let budget = self.sla.episode_cost_budget(self.config.horizon);
            if statistic >= budget {
                self.switched = true;
            }
        }
        statistic
    }

    /// Last phase of the slot decide: builds the decision from the
    /// policy-mean row. `statistic` must come from the matching
    /// [`OnSlicingAgent::decide_phase_switch`] call, and `mean` must carry
    /// the bits `ppo().policy().mean_action(&state.to_vec())` would produce
    /// (the fused cell batch guarantees this).
    pub fn decide_finish(
        &mut self,
        state: &SliceState,
        statistic: f64,
        mean: &[f64],
        deterministic: bool,
    ) -> Decision {
        if self.switched {
            return Decision {
                action: self.baseline.act(state),
                used_baseline: true,
                sample: None,
                switching_statistic: statistic,
            };
        }
        if deterministic {
            return Decision {
                action: Action::from_vec(mean),
                used_baseline: false,
                sample: None,
                switching_statistic: statistic,
            };
        }
        let sample = self.ppo.act_with_mean(mean, &mut self.rng);
        Decision {
            action: Action::from_vec(&sample.action),
            used_baseline: false,
            sample: Some(sample),
            switching_statistic: statistic,
        }
    }

    /// Read access to the PPO learner (the fused cell batch reads the policy
    /// mean network and the critic through this).
    pub fn ppo(&self) -> &PpoAgent {
        &self.ppo
    }

    /// Per-layer `(in, out)` dimensions of the two networks the fused slot
    /// path sweeps across a cell — the policy-mean net and the critic.
    /// Weights are free to differ between the agents of a cell; these are
    /// not.
    pub fn trunk_shape(&self) -> [Vec<(usize, usize)>; 2] {
        [self.ppo.policy().mean_net(), self.ppo.critic()].map(|net| {
            net.layers_ref()
                .iter()
                .map(|l| (l.in_dim(), l.out_dim()))
                .collect()
        })
    }

    /// Learned state whose pieces fit each other ([`PpoAgent::validate`],
    /// [`CostValueEstimator::validate`]).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.ppo.validate()?;
        self.estimator.validate()
    }

    /// Applies the action modifier `π_a` to an action under the current
    /// coordinating parameters.
    pub fn modify(&mut self, action: &Action, betas: &[f64; 6]) -> Action {
        self.modifier.modify(action, betas, &mut self.rng)
    }

    /// The constraint-shaped learning reward for one slot: the normalized
    /// Eq. 9 reward minus the (adaptive or fixed) SLA penalty.
    pub fn shaped_reward(&self, kpi: &SlotKpi) -> f64 {
        let reward = -kpi.resource_usage / 6.0;
        if self.config.constraint_aware {
            self.lagrangian.shaped_reward(reward, kpi.cost)
        } else {
            reward - self.config.fixed_penalty_weight * kpi.cost
        }
    }

    /// Records the outcome of a slot:
    /// [`OnSlicingAgent::record_with_value`] over this agent's own critic
    /// estimate of `state`.
    pub fn record(
        &mut self,
        state: &SliceState,
        decision: &Decision,
        executed: &Action,
        kpi: &SlotKpi,
        done: bool,
    ) {
        let value = self.ppo.value(&state.to_vec());
        self.record_with_value(state, decision, executed, kpi, done, value);
    }

    /// Records the outcome of a slot.
    ///
    /// `state` is the observation the decision was made from, `decision` the
    /// agent's own proposal, `executed` the action actually enforced after
    /// coordination, `kpi` the resulting measurements, and `value` the
    /// critic's estimate `ppo().value(&state.to_vec())` (the fused cell
    /// batch evaluates every agent's critic in one layer-major sweep).
    pub fn record_with_value(
        &mut self,
        state: &SliceState,
        decision: &Decision,
        executed: &Action,
        kpi: &SlotKpi,
        done: bool,
        value: f64,
    ) {
        self.episode_slots += 1;
        self.episode_cost_sum += kpi.cost;
        self.episode_usage_sum += kpi.resource_usage_percent();
        match &decision.sample {
            Some(sample) => {
                self.learned_this_episode = true;
                self.buffer.push(Transition {
                    state: state.to_vec(),
                    raw_action: sample.raw_action.clone(),
                    action: executed.to_vec(),
                    log_prob: sample.log_prob,
                    reward: self.shaped_reward(kpi),
                    cost: kpi.cost,
                    value,
                    done,
                });
            }
            None => {
                // First baseline slot after a switch: remember the critic's
                // estimate of the remaining (shaped) return so the truncated
                // episode can be bootstrapped (§3, "Smooth Policy
                // Improvement").
                if decision.used_baseline && self.pending_bootstrap.is_none() {
                    self.pending_bootstrap = Some(value);
                }
            }
        }
    }

    /// Closes the episode: computes the GAE targets of the effective (π_θ)
    /// transitions, performs the Lagrangian dual update (Eq. 5) and returns
    /// the episode summary.
    pub fn end_episode(&mut self) -> SliceEpisodeSummary {
        let bootstrap = self.pending_bootstrap.take().unwrap_or(0.0);
        self.buffer
            .finish_episode(bootstrap, self.config.ppo.gamma, self.config.ppo.gae_lambda);
        let mean = |sum: f64| match self.episode_slots {
            0 => 0.0,
            n => sum / n as f64,
        };
        let (avg_cost, avg_usage) = (mean(self.episode_cost_sum), mean(self.episode_usage_sum));
        if self.config.constraint_aware && self.learned_this_episode {
            self.lagrangian.update(avg_cost);
        }
        let summary = SliceEpisodeSummary {
            kind: self.kind,
            avg_cost,
            violated: self.sla.violates(avg_cost),
            avg_usage_percent: avg_usage,
            switched_to_baseline: self.switched,
        };
        self.episode_slots = 0;
        self.episode_cost_sum = -0.0;
        self.episode_usage_sum = -0.0;
        self.switched = false;
        self.learned_this_episode = false;
        summary
    }

    /// Whether any learning transition was recorded in the current episode.
    pub fn learned_this_episode(&self) -> bool {
        self.learned_this_episode
    }

    /// Runs one PPO update on the transitions accumulated since the last
    /// update and clears the rollout buffer.
    pub fn update_policy(&mut self) -> PpoUpdateStats {
        let stats = self.ppo.update(&self.buffer, &mut self.rng);
        self.buffer.clear();
        stats
    }

    /// Number of effective (π_θ) transitions waiting in the rollout buffer.
    pub fn pending_transitions(&self) -> usize {
        self.buffer.num_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_netsim::NetworkConfig;

    fn quick_agent(kind: SliceKind, config: AgentConfig) -> (OnSlicingAgent, SliceEnvironment) {
        let sla = Sla::for_kind(kind);
        let network = NetworkConfig::testbed_default();
        let baseline = RuleBasedBaseline::calibrate(
            kind,
            &sla,
            &network,
            kind.default_peak_users_per_second(),
            4,
            11,
        );
        let env = SliceEnvironment::new(kind, network, 17);
        let horizon = env.horizon();
        let agent = OnSlicingAgent::new(kind, sla, baseline, config.scaled_down(horizon), 3);
        (agent, env)
    }

    #[test]
    fn variant_presets_toggle_the_expected_mechanisms() {
        assert!(AgentConfig::onslicing().enable_switching);
        assert!(!AgentConfig::onslicing_nb().enable_switching);
        assert!(!AgentConfig::onslicing_ne().enable_estimator);
        assert!(AgentConfig::onslicing_ne().enable_switching);
        assert!(AgentConfig::onslicing_estimator_noise(1.0).estimator_noise_std > 0.0);
        assert!(
            AgentConfig::onslicing_modifier_noise(1.0)
                .modifier
                .noise_std
                > 0.0
        );
        assert!(!AgentConfig::onrl().enable_imitation);
        assert!(!AgentConfig::unsafe_drl().constraint_aware);
    }

    #[test]
    fn pretraining_clones_the_baseline_and_reduces_the_bc_loss() {
        let (mut agent, mut env) = quick_agent(SliceKind::Hvs, AgentConfig::onslicing());
        let report = agent.offline_pretrain(&mut env, 2);
        assert_eq!(report.num_demonstrations, 2 * env.horizon());
        assert!(report.bc_losses.len() >= 2);
        assert!(
            report.bc_losses.last().unwrap() < report.bc_losses.first().unwrap(),
            "BC loss should decrease"
        );
        assert!(!report.estimator_errors.is_empty());
        assert!(report.baseline_usage_percent > 0.0);
    }

    #[test]
    fn pretrained_agent_behaves_like_the_baseline() {
        let (mut agent, mut env) = quick_agent(SliceKind::Mar, AgentConfig::onslicing());
        agent.offline_pretrain(&mut env, 2);
        let state = env.reset();
        let d = agent.decide(&state, 0.0, true);
        let baseline_action = agent.baseline().act(&state);
        let distance = d.action.squared_distance(&baseline_action);
        assert!(
            distance < 0.5,
            "cloned action too far from the baseline: {distance}"
        );
    }

    #[test]
    fn switching_hands_the_episode_to_the_baseline_when_the_budget_is_exhausted() {
        let (mut agent, mut env) = quick_agent(SliceKind::Mar, AgentConfig::onslicing_ne());
        let state = env.reset();
        // Cumulative cost way beyond the budget forces the switch (NE rule).
        let budget = Sla::for_kind(SliceKind::Mar).episode_cost_budget(env.horizon());
        let d = agent.decide(&state, budget + 1.0, false);
        assert!(d.used_baseline);
        assert!(agent.has_switched());
        // And it keeps using the baseline for the rest of the episode.
        let d2 = agent.decide(&state, 0.0, false);
        assert!(d2.used_baseline);
        let summary = agent.end_episode();
        assert!(summary.switched_to_baseline || summary.avg_cost == 0.0);
        assert!(
            !agent.has_switched(),
            "switch flag must reset at episode end"
        );
    }

    #[test]
    fn no_switching_variant_never_uses_the_baseline() {
        let (mut agent, mut env) = quick_agent(SliceKind::Mar, AgentConfig::onslicing_nb());
        let state = env.reset();
        let d = agent.decide(&state, 1_000.0, false);
        assert!(!d.used_baseline);
    }

    #[test]
    fn shaped_reward_penalizes_cost_more_as_lambda_grows() {
        let (mut agent, mut env) = quick_agent(SliceKind::Hvs, AgentConfig::onslicing());
        env.reset();
        let r = env.step(&Action::uniform(0.02));
        let before = agent.shaped_reward(&r.kpi);
        // Repeated violating *learning* episodes raise lambda.
        for _ in 0..3 {
            agent.episode_slots += 1;
            agent.episode_cost_sum += 0.5;
            agent.learned_this_episode = true;
            agent.end_episode();
        }
        let after = agent.shaped_reward(&r.kpi);
        assert!(
            after < before,
            "penalty should grow with lambda: {before} -> {after}"
        );
    }

    #[test]
    fn online_loop_records_effective_transitions_and_updates() {
        let (mut agent, mut env) = quick_agent(SliceKind::Hvs, AgentConfig::onslicing());
        agent.offline_pretrain(&mut env, 1);
        let mut state = env.reset();
        loop {
            let d = agent.decide(&state, env.cumulative_cost(), false);
            let executed = d.action;
            let r = env.step(&executed);
            agent.record(&state, &d, &executed, &r.kpi, r.done);
            state = r.next_state;
            if r.done {
                break;
            }
        }
        let summary = agent.end_episode();
        assert!(summary.avg_usage_percent > 0.0);
        assert!(agent.pending_transitions() > 0);
        let stats = agent.update_policy();
        assert!(stats.num_transitions > 0);
        assert_eq!(agent.pending_transitions(), 0);
    }

    #[test]
    fn estimator_noise_perturbs_the_switching_statistic() {
        let (mut agent, mut env) =
            quick_agent(SliceKind::Mar, AgentConfig::onslicing_estimator_noise(1.0));
        agent.offline_pretrain(&mut env, 1);
        let state = env.reset();
        let a = agent.switching_statistic_row(&state.to_vec(), 0.0);
        let b = agent.switching_statistic_row(&state.to_vec(), 0.0);
        assert_ne!(a, b, "noisy estimator should vary between calls");
    }
}
