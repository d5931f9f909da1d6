//! # onslicing-rl
//!
//! The reinforcement-learning substrate of the OnSlicing reproduction:
//! everything algorithmic that sits between the neural-network primitives
//! (`onslicing_nn`) and the orchestration logic (`onslicing_core`).
//!
//! * [`buffer`] — rollout storage, truncated-episode bootstrapping and
//!   generalized advantage estimation;
//! * [`ppo`] — the PPO-clip actor-critic used for policy `π_θ` (§3, "Smooth
//!   Policy Improvement");
//! * [`lagrangian`] — the constraint-aware reward shaping and dual update of
//!   Eq. 3–5;
//! * [`bc`] — offline behavior cloning from the rule-based baseline (Eq. 15);
//! * [`cost_estimator`] — the variational (Bayes-by-backprop) cost-value
//!   estimator `π_φ` behind the proactive baseline switching rule (Eq. 6–8).
//!
//! ```
//! use onslicing_rl::{LagrangianMultiplier, PpoAgent, PpoConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let agent = PpoAgent::new_small(4, 2, PpoConfig::default(), &mut rng);
//! let action = agent.act_deterministic(&[0.1, 0.2, 0.3, 0.4]);
//! assert!(action.iter().all(|a| (0.0..=1.0).contains(a)));
//!
//! let mut lambda = LagrangianMultiplier::new(1.0);
//! assert!(lambda.update(0.2, 0.05) > 1.0); // violations raise the multiplier
//! ```

pub mod bc;
pub mod buffer;
pub mod cost_estimator;
pub mod lagrangian;
pub mod ppo;

pub use bc::{behavior_clone, behavior_clone_draws, imitation_error, BcConfig, Demonstration};
pub use buffer::{compute_gae, RolloutBuffer, Transition};
pub use cost_estimator::{CostEstimatorConfig, CostToGoSample, CostValueEstimator};
pub use lagrangian::LagrangianMultiplier;
pub use ppo::{PpoAgent, PpoConfig, PpoUpdateStats};
