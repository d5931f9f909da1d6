//! Experiment plumbing shared by the benches, the examples and the
//! integration tests: evaluation of non-learning policies and a builder that
//! assembles a standard OnSlicing deployment (calibrated baselines, agents,
//! domain managers, orchestrator) in one call.

use onslicing_domains::DomainSet;
use onslicing_netsim::NetworkConfig;
use onslicing_slices::{Sla, SliceKind};

use crate::agent::{AgentConfig, OnSlicingAgent};
use crate::baselines::{RuleBasedBaseline, SlicePolicy};
use crate::env::{default_trace_config, MultiSliceEnvironment, SliceEnvironment};
use crate::metrics::PolicyEvaluation;
use crate::orchestrator::{CoordinationMode, Orchestrator, OrchestratorConfig};

/// Evaluates a non-learning policy on one slice for `episodes` episodes.
pub fn evaluate_policy(
    policy: &dyn SlicePolicy,
    env: &mut SliceEnvironment,
    episodes: usize,
) -> PolicyEvaluation {
    assert!(episodes > 0, "at least one evaluation episode is required");
    let mut usage_sum = 0.0;
    let mut usage_count = 0usize;
    let mut violated = 0usize;
    let mut cost_sum = 0.0;
    for _ in 0..episodes {
        let mut state = env.reset();
        loop {
            let action = policy.act(&state);
            let r = env.step(&action);
            usage_sum += r.kpi.resource_usage_percent();
            usage_count += 1;
            state = r.next_state;
            if r.done {
                break;
            }
        }
        cost_sum += env.average_cost();
        if env.is_violated() {
            violated += 1;
        }
    }
    PolicyEvaluation {
        kind: env.kind(),
        episodes,
        avg_usage_percent: usage_sum / usage_count.max(1) as f64,
        violation_percent: 100.0 * violated as f64 / episodes as f64,
        avg_cost: cost_sum / episodes as f64,
    }
}

/// A standard three-slice OnSlicing deployment, parameterized by the agent
/// variant and the coordination mode.
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    network: NetworkConfig,
    agent_config: AgentConfig,
    coordination: CoordinationMode,
    episodes_per_epoch: usize,
    horizon: usize,
    baseline_buckets: usize,
    seed: u64,
}

impl DeploymentBuilder {
    /// Starts from the paper defaults: LTE testbed, full OnSlicing agent,
    /// modifier-based coordination, 96-slot episodes.
    pub fn new() -> Self {
        Self {
            network: NetworkConfig::testbed_default(),
            agent_config: AgentConfig::onslicing(),
            coordination: CoordinationMode::default(),
            episodes_per_epoch: 2,
            horizon: 96,
            baseline_buckets: 5,
            seed: 0,
        }
    }

    /// Uses a different network substrate (e.g. the 5G NR profile).
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Uses a different agent variant (e.g. [`AgentConfig::onrl`]).
    pub fn agent_config(mut self, config: AgentConfig) -> Self {
        self.agent_config = config;
        self
    }

    /// Uses a different over-request resolution mechanism.
    pub fn coordination(mut self, coordination: CoordinationMode) -> Self {
        self.coordination = coordination;
        self
    }

    /// Number of episodes per learning epoch.
    pub fn episodes_per_epoch(mut self, episodes: usize) -> Self {
        self.episodes_per_epoch = episodes.max(1);
        self
    }

    /// Episode horizon in slots (96 in the paper; tests use less).
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon.max(1);
        self
    }

    /// Runs the whole deployment with small policy networks and shortened
    /// training loops — the configuration used by tests, examples and the
    /// CI-scale experiment binaries.
    pub fn scaled_down(mut self, horizon: usize) -> Self {
        self.horizon = horizon.max(1);
        self.agent_config = self.agent_config.scaled_down(self.horizon);
        self.baseline_buckets = 4;
        self
    }

    /// Master seed controlling the deployment's randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Calibrates one rule-based baseline per slice kind.
    pub fn calibrate_baselines(&self) -> Vec<RuleBasedBaseline> {
        SliceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                RuleBasedBaseline::calibrate(
                    *kind,
                    &Sla::for_kind(*kind),
                    &self.network,
                    kind.default_peak_users_per_second(),
                    self.baseline_buckets,
                    self.seed.wrapping_add(1_000 + i as u64),
                )
            })
            .collect()
    }

    /// Builds the slice environments with the configured horizon.
    pub fn build_environments(&self) -> MultiSliceEnvironment {
        let envs = SliceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                SliceEnvironment::with_trace_config(
                    *kind,
                    Sla::for_kind(*kind),
                    self.network,
                    default_trace_config(*kind),
                    self.horizon,
                    self.seed.wrapping_add(i as u64),
                )
            })
            .collect();
        MultiSliceEnvironment::from_envs(envs)
    }

    /// Builds the complete orchestrator (environments, calibrated baselines,
    /// agents and domain managers).
    pub fn build(&self) -> Orchestrator {
        let baselines = self.calibrate_baselines();
        let env = self.build_environments();
        let mut agent_config = self.agent_config;
        agent_config.horizon = self.horizon;
        let agents = SliceKind::ALL
            .iter()
            .zip(baselines)
            .enumerate()
            .map(|(i, (kind, baseline))| {
                OnSlicingAgent::new(
                    *kind,
                    Sla::for_kind(*kind),
                    baseline,
                    agent_config,
                    self.seed.wrapping_add(10 + i as u64),
                )
            })
            .collect();
        Orchestrator::new(
            env,
            agents,
            DomainSet::testbed_default(),
            OrchestratorConfig {
                coordination: self.coordination,
                episodes_per_epoch: self.episodes_per_epoch,
            },
        )
    }
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FixedPolicy;
    use onslicing_slices::Action;

    #[test]
    fn evaluate_policy_reports_usage_and_violation() {
        let mut env = SliceEnvironment::new(SliceKind::Mar, NetworkConfig::testbed_default(), 9);
        let generous = FixedPolicy {
            action: Action::uniform(0.6),
        };
        let starved = FixedPolicy {
            action: Action::uniform(0.02),
        };
        let good = evaluate_policy(&generous, &mut env, 1);
        let bad = evaluate_policy(&starved, &mut env, 1);
        assert!(good.violation_percent < bad.violation_percent || bad.violation_percent == 100.0);
        assert!(good.avg_usage_percent > bad.avg_usage_percent);
        assert_eq!(good.kind, SliceKind::Mar);
    }

    #[test]
    fn builder_assembles_a_three_slice_deployment() {
        let orch = DeploymentBuilder::new().scaled_down(12).seed(3).build();
        assert_eq!(orch.agents().len(), 3);
        assert_eq!(orch.env().num_slices(), 3);
        assert_eq!(orch.env().envs()[0].horizon(), 12);
    }

    #[test]
    fn builder_respects_the_agent_variant() {
        let orch = DeploymentBuilder::new()
            .agent_config(AgentConfig::onslicing_nb())
            .scaled_down(8)
            .build();
        assert!(!orch.agents()[0].config().enable_switching);
    }

    #[test]
    #[should_panic(expected = "at least one evaluation episode")]
    fn zero_episode_evaluation_is_rejected() {
        let mut env = SliceEnvironment::new(SliceKind::Hvs, NetworkConfig::testbed_default(), 1);
        let p = FixedPolicy {
            action: Action::uniform(0.5),
        };
        let _ = evaluate_policy(&p, &mut env, 0);
    }
}
