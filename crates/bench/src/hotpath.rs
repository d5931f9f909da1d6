//! Fixtures and the timer of the `bench_hotpath` binary, which emits the
//! one clock-reading artifact under `baselines/` (`BENCH_hotpath.json`).
//! Every fixture drives a path the product itself runs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use onslicing_core::{
    AgentConfig, CoordinationMode, DeploymentBuilder, MultiSliceEnvironment, OnSlicingAgent,
    Orchestrator, OrchestratorConfig, SliceEnvironment,
};
use onslicing_domains::DomainSet;
use onslicing_netsim::NetworkConfig;
use onslicing_nn::{Activation, GaussianPolicy, Mlp};
use onslicing_rl::{PpoConfig, RolloutBuffer, Transition};
use onslicing_slices::{Action, ActionDim, ResourceKind, Sla, SliceKind, ACTION_DIM, STATE_DIM};

/// The paper-sized actor/critic pair of the PPO and behavior-cloning timings
/// (`onslicing_default` 128×64×32 trunks on the real state/action dims).
pub fn paper_actor_critic(seed: u64) -> (GaussianPolicy, Mlp) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let policy = GaussianPolicy::new(STATE_DIM, ACTION_DIM, 0.1, &mut rng);
    let critic = Mlp::onslicing_default(STATE_DIM, 1, Activation::Identity, &mut rng);
    (policy, critic)
}

/// Fills a rollout buffer with `n` single-episode transitions drawn from the
/// policy (the same shape a real 96-slot day produces).
pub fn filled_buffer(policy: &GaussianPolicy, critic: &Mlp, n: usize, seed: u64) -> RolloutBuffer {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut buffer = RolloutBuffer::new();
    for i in 0..n {
        let state: Vec<f64> = (0..STATE_DIM).map(|_| rng.gen::<f64>()).collect();
        let sample = policy.sample(&state, &mut rng);
        let value = critic.forward(&state)[0];
        buffer.push(Transition {
            state,
            raw_action: sample.raw_action.clone(),
            action: sample.action.clone(),
            log_prob: sample.log_prob,
            reward: -0.3 + 0.1 * rng.gen::<f64>(),
            cost: 0.01,
            value,
            done: i + 1 == n,
        });
    }
    buffer.finish_episode(0.0, 0.99, 0.95);
    buffer
}

/// PPO hyper-parameters of the `ppo_minibatch_update` timing: one epoch over
/// one 64-transition minibatch, so a single `update` call is exactly one
/// minibatch update.
///
/// Learning rates are zero: the Adam math still runs in full (identical
/// instruction stream), but the weights stay pinned, so every timed
/// iteration — and every run compared against the committed baseline —
/// measures the *same* workload. With live learning rates the policy drifts
/// away from the behavior policy across the timing loop and the clip
/// fraction, hence the work per update, drifts with it.
pub fn hotpath_ppo_config() -> PpoConfig {
    PpoConfig {
        epochs: 1,
        minibatch_size: 64,
        actor_lr: 0.0,
        critic_lr: 0.0,
        ..PpoConfig::default()
    }
}

/// The per-slot inference workload of an `num_slices`-slice cell: one
/// deployment-scale policy mean net (`STATE_DIM -> 32 -> 16 -> ACTION_DIM`)
/// and one critic (`STATE_DIM -> 32 -> 16 -> 1`) per slice, each with its
/// own weights, plus one observation row per slice.
pub struct CellInferenceFixture {
    /// Per-slice policy mean networks (distinct weights, shared trunk).
    pub policies: Vec<Mlp>,
    /// Per-slice critics (distinct weights, shared trunk).
    pub critics: Vec<Mlp>,
    /// One observation row per slice.
    pub states: Vec<Vec<f64>>,
}

impl CellInferenceFixture {
    /// Builds the fixture with `num_slices` independently-seeded networks.
    pub fn new(num_slices: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let policies = (0..num_slices)
            .map(|_| {
                Mlp::new(
                    &[STATE_DIM, 32, 16, ACTION_DIM],
                    Activation::Tanh,
                    Activation::Sigmoid,
                    &mut rng,
                )
            })
            .collect();
        let critics = (0..num_slices)
            .map(|_| {
                Mlp::new(
                    &[STATE_DIM, 32, 16, 1],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                )
            })
            .collect();
        let states = (0..num_slices)
            .map(|_| (0..STATE_DIM).map(|_| rng.gen::<f64>()).collect())
            .collect();
        Self {
            policies,
            critics,
            states,
        }
    }
}

/// One slot of the coordination machinery as the orchestrator runs it: the
/// caller-owned workspace is refilled (no per-slot `Vec`), the β-discounted
/// modification runs through the direct-field [`Action::get`]/[`Action::set`],
/// and the [`DomainSet`] slice APIs sum, update and project without
/// materializing anything.
pub fn in_place_coordination_slot(
    proposals: &[Action],
    domains: &mut DomainSet,
    workspace: &mut Vec<Action>,
) {
    workspace.clear();
    workspace.extend_from_slice(proposals);
    let betas = domains.betas();
    for a in workspace.iter_mut() {
        for (resource, beta) in ResourceKind::ALL.into_iter().zip(betas.iter()) {
            let dim = resource.action_dim();
            let v = a.get(dim);
            a.set(dim, (v - beta / 2.0).max(0.0));
        }
    }
    domains.update_coordination_slice(workspace);
    if !domains.is_feasible_slice(workspace) {
        domains.project_in_place(workspace);
    }
}

/// Over-subscribed proposals for an `n`-slice cell (the projection branch of
/// the coordination machinery runs every slot, as it does while learning).
pub fn coordination_proposals(n: usize) -> Vec<Action> {
    (0..n)
        .map(|i| {
            let mut a = Action::zeros();
            for (d, dim) in ActionDim::ALL.into_iter().enumerate() {
                a.set(dim, 0.2 + 0.05 * ((i + d) % 7) as f64);
            }
            a
        })
        .collect()
}

/// Builds an `num_slices`-slice deployment (paper agents, paper networks
/// scaled to a short `horizon`) on an infrastructure that grows with it —
/// one "cell worth" of every resource per three slices, as the paper's
/// large-scale emulation adds capacity as it adds slices — for the
/// orchestrator-slot scaling benchmark and Fig. 19.
pub fn scaled_orchestrator(num_slices: usize, horizon: usize, seed: u64) -> Orchestrator {
    let network = NetworkConfig::testbed_default();
    let baselines = DeploymentBuilder::new()
        .scaled_down(horizon)
        .seed(seed)
        .calibrate_baselines();
    let mut envs = Vec::new();
    let mut agents = Vec::new();
    for i in 0..num_slices {
        let kind = SliceKind::ALL[i % 3];
        envs.push(SliceEnvironment::new(kind, network, seed + i as u64));
        let mut cfg = AgentConfig::onslicing().scaled_down(horizon);
        cfg.horizon = envs[i].horizon();
        agents.push(OnSlicingAgent::new(
            kind,
            Sla::for_kind(kind),
            baselines[i % 3].clone(),
            cfg,
            seed + 100 + i as u64,
        ));
    }
    let capacity = (num_slices as f64 / 3.0).max(1.0);
    Orchestrator::new(
        MultiSliceEnvironment::from_envs(envs),
        agents,
        DomainSet::with_parameters(capacity, 1.0),
        OrchestratorConfig {
            coordination: CoordinationMode::default(),
            episodes_per_epoch: 1,
        },
    )
}

/// Median wall-clock nanoseconds of `f` over `samples` runs of `iters`
/// iterations each (simple, dependency-free timing for the JSON emitter).
pub fn median_ns_per_iter<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> f64 {
    let mut results = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        results.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    results.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing"));
    results[results.len() / 2]
}
