//! # onslicing-core
//!
//! The OnSlicing orchestration layer: per-slice safe online DRL agents, the
//! distributed action-modification/coordination mechanism, the comparison
//! policies and the experiment plumbing that reproduces the paper's
//! evaluation.
//!
//! * [`mod@env`] — the gym-style per-slice environment (15-minute slots, 96-slot
//!   episodes) over the `onslicing_netsim` simulator;
//! * [`agent`] — the OnSlicing agent combining `π_θ` (PPO), `π_b` (rule-based
//!   baseline), `π_φ` (variational cost estimator) and `π_a` (action
//!   modifier), with every paper ablation expressed as an [`AgentConfig`]
//!   preset;
//! * [`modifier`] — the Eq. 13 action modifier;
//! * [`baselines`] — the rule-based grid-search baseline and the model-based
//!   comparator;
//! * [`orchestrator`] — the multi-slice orchestration loop with β-priced
//!   coordination or projection;
//! * [`experiment`] / [`metrics`] — deployment builder, policy evaluation and
//!   the usage/violation metrics of the paper's tables and figures.
//!
//! ```no_run
//! use onslicing_core::experiment::DeploymentBuilder;
//!
//! // A scaled-down end-to-end run: calibrate baselines, pre-train offline,
//! // learn online for a few epochs, then evaluate.
//! let mut orchestrator = DeploymentBuilder::new().scaled_down(24).seed(7).build();
//! orchestrator.offline_pretrain_all(2);
//! let curve = orchestrator.run_online(3);
//! let test = orchestrator.evaluate(2);
//! println!("final usage {:.1}%, violation {:.1}%", test.avg_usage_percent, test.violation_percent);
//! assert_eq!(curve.len(), 3);
//! ```

pub mod agent;
pub mod baselines;
pub mod env;
pub mod experiment;
pub mod metrics;
pub mod modifier;
pub mod orchestrator;

pub use agent::{AgentConfig, Decision, OnSlicingAgent, PretrainReport};
pub use baselines::{FixedPolicy, ModelBasedPolicy, RuleBasedBaseline, SlicePolicy};
pub use env::{default_trace_config, MultiSliceEnvironment, SliceEnvironment, StepResult};
pub use experiment::{evaluate_policy, DeploymentBuilder};
pub use metrics::{EpisodeMetrics, EpochMetrics, PolicyEvaluation, SliceEpisodeSummary};
pub use modifier::{ActionModifier, ModifierConfig};
pub use orchestrator::{
    CoordinationMode, Orchestrator, OrchestratorConfig, OrchestratorError, SliceCheckpoint,
    SlotAggregate, SlotOutcome,
};
