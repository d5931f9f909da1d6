//! Shared fixtures for the hot-path benchmarks: the batched NN/PPO path
//! versus a faithful reconstruction of the former per-sample path.
//!
//! Used by the `bench_hotpath` binary (which emits the machine-readable
//! `BENCH_hotpath.json` tracked across PRs).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use onslicing_core::{
    AgentConfig, CoordinationMode, DeploymentBuilder, MultiSliceEnvironment, OnSlicingAgent,
    Orchestrator, OrchestratorConfig, SliceEnvironment,
};
use onslicing_domains::DomainSet;
use onslicing_netsim::NetworkConfig;
use onslicing_nn::{Activation, GaussianPolicy, Matrix, Mlp};
use onslicing_rl::{PpoAgent, PpoConfig, RolloutBuffer, Transition};
use onslicing_slices::{Action, ActionDim, ResourceKind, Sla, SliceKind, ACTION_DIM, STATE_DIM};

/// The paper-sized actor/critic pair used by every hot-path comparison
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

/// One dense layer with the **seed repository's** kernels: serial-accumulator
/// `matvec` with the `a == 0.0` / `v == 0.0` skip branches, a freshly
/// allocated `Vec` per product, and an allocated outer-product matrix per
/// backward call. This is the pre-PR hot path, reconstructed so
/// `BENCH_hotpath.json` tracks the batched rewrite against what the code
/// actually did before it.
struct NaiveLayer {
    weights: Matrix,
    bias: Vec<f64>,
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    activation: Activation,
    cached_input: Vec<f64>,
    cached_pre: Vec<f64>,
}

fn naive_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; m.rows()];
    for (o, i) in out.iter_mut().zip(0..m.rows()) {
        let mut acc = 0.0;
        for (a, b) in m.row(i).iter().zip(v.iter()) {
            acc += a * b;
        }
        *o = acc;
    }
    out
}

fn naive_t_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; m.cols()];
    for (i, &vi) in v.iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        for (o, a) in out.iter_mut().zip(m.row(i).iter()) {
            *o += a * vi;
        }
    }
    out
}

fn naive_outer(a: &[f64], b: &[f64]) -> Matrix {
    let mut out = Matrix::zeros(a.len(), b.len());
    for (i, &ai) in a.iter().enumerate() {
        for (o, &bj) in out.row_mut(i).iter_mut().zip(b.iter()) {
            *o = ai * bj;
        }
    }
    out
}

impl NaiveLayer {
    fn from_dense(layer: &onslicing_nn::Dense) -> Self {
        Self {
            weights: layer.weights().clone(),
            bias: layer.bias().to_vec(),
            grad_weights: Matrix::zeros(layer.out_dim(), layer.in_dim()),
            grad_bias: vec![0.0; layer.out_dim()],
            activation: layer.activation(),
            cached_input: Vec::new(),
            cached_pre: Vec::new(),
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut pre = naive_matvec(&self.weights, input);
        for (p, b) in pre.iter_mut().zip(self.bias.iter()) {
            *p += b;
        }
        pre.iter().map(|&x| self.activation.apply(x)).collect()
    }

    fn forward_train(&mut self, input: &[f64]) -> Vec<f64> {
        let mut pre = naive_matvec(&self.weights, input);
        for (p, b) in pre.iter_mut().zip(self.bias.iter()) {
            *p += b;
        }
        let out = pre.iter().map(|&x| self.activation.apply(x)).collect();
        self.cached_input = input.to_vec();
        self.cached_pre = pre;
        out
    }

    fn backward(&mut self, grad_output: &[f64]) -> Vec<f64> {
        let delta: Vec<f64> = grad_output
            .iter()
            .zip(self.cached_pre.iter())
            .map(|(&g, &z)| g * self.activation.derivative(z))
            .collect();
        let gw = naive_outer(&delta, &self.cached_input);
        self.grad_weights.add_scaled_assign(&gw, 1.0);
        for (gb, d) in self.grad_bias.iter_mut().zip(delta.iter()) {
            *gb += d;
        }
        naive_t_matvec(&self.weights, &delta)
    }

    fn zero_grad(&mut self) {
        self.grad_weights.fill(0.0);
        for g in &mut self.grad_bias {
            *g = 0.0;
        }
    }

    fn param_grad_pairs(&mut self) -> Vec<(&mut f64, f64)> {
        let grads: Vec<f64> = self
            .grad_weights
            .data()
            .iter()
            .copied()
            .chain(self.grad_bias.iter().copied())
            .collect();
        self.weights
            .data_mut()
            .iter_mut()
            .chain(self.bias.iter_mut())
            .zip(grads)
            .collect()
    }
}

/// The seed's per-sample MLP (stack of `NaiveLayer`s).
pub struct NaiveMlp {
    layers: Vec<NaiveLayer>,
}

impl NaiveMlp {
    /// Snapshots an [`Mlp`]'s weights into the seed-kernel implementation.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        Self {
            layers: mlp
                .layers_ref()
                .iter()
                .map(NaiveLayer::from_dense)
                .collect(),
        }
    }

    /// Per-sample inference forward (one allocation chain per layer).
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn forward_train(&mut self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &mut self.layers {
            x = layer.forward_train(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &[f64]) -> Vec<f64> {
        let mut g = grad_output.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.rows() * l.weights.cols() + l.bias.len())
            .sum()
    }

    fn param_grad_pairs(&mut self) -> Vec<(&mut f64, f64)> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            out.extend(layer.param_grad_pairs());
        }
        out
    }
}

/// The seed's Adam step: collects every gradient into a fresh `Vec`, clips
/// by global norm there, and walks a `(parameter, gradient)` pair vector.
struct NaiveAdam {
    learning_rate: f64,
    step_count: i32,
    first_moment: Vec<f64>,
    second_moment: Vec<f64>,
}

impl NaiveAdam {
    fn new(num_params: usize, learning_rate: f64) -> Self {
        Self {
            learning_rate,
            step_count: 0,
            first_moment: vec![0.0; num_params],
            second_moment: vec![0.0; num_params],
        }
    }

    fn step(&mut self, pairs: Vec<(&mut f64, f64)>) {
        let (beta1, beta2, epsilon, clip) = (0.9f64, 0.999f64, 1e-8, 5.0);
        self.step_count += 1;
        let mut grads: Vec<f64> = pairs.iter().map(|(_, g)| *g).collect();
        let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
        if norm > clip {
            for g in &mut grads {
                *g *= clip / norm;
            }
        }
        let bc1 = 1.0 - beta1.powi(self.step_count);
        let bc2 = 1.0 - beta2.powi(self.step_count);
        for (i, (param, _)) in pairs.into_iter().enumerate() {
            let g = grads[i];
            self.first_moment[i] = beta1 * self.first_moment[i] + (1.0 - beta1) * g;
            self.second_moment[i] = beta2 * self.second_moment[i] + (1.0 - beta2) * g * g;
            let m_hat = self.first_moment[i] / bc1;
            let v_hat = self.second_moment[i] / bc2;
            *param -= self.learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        }
    }
}

/// The pre-batching PPO learner: the seed's sample-by-sample minibatch loops
/// over the seed's naive kernels. Kept as the baseline `BENCH_hotpath.json`
/// measures the batched path against.
pub struct PerSamplePpo {
    mean_net: NaiveMlp,
    critic: NaiveMlp,
    std: Vec<f64>,
    actor_opt: NaiveAdam,
    critic_opt: NaiveAdam,
    config: PpoConfig,
}

impl PerSamplePpo {
    /// Builds the per-sample learner from the same initial weights as the
    /// batched learner (fair head-to-head start).
    pub fn new(policy: &GaussianPolicy, critic: &Mlp, config: PpoConfig) -> Self {
        let mean_net = NaiveMlp::from_mlp(policy.mean_net());
        let critic = NaiveMlp::from_mlp(critic);
        // The std parameters train too, but their gradient cost is O(action
        // dim) on both paths; pinning them keeps the baseline simple without
        // skewing the comparison.
        let actor_opt = NaiveAdam::new(mean_net.num_parameters(), config.actor_lr);
        let critic_opt = NaiveAdam::new(critic.num_parameters(), config.critic_lr);
        Self {
            mean_net,
            critic,
            std: policy.std(),
            actor_opt,
            critic_opt,
            config,
        }
    }

    fn log_prob(&mut self, state: &[f64], raw_action: &[f64]) -> f64 {
        let mean = self.mean_net.forward(state);
        let mut lp = 0.0;
        for ((m, s), a) in mean.iter().zip(self.std.iter()).zip(raw_action.iter()) {
            let s = s.max(1e-9);
            let z = (a - m) / s;
            lp += -0.5 * z * z - s.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        }
        lp
    }

    fn accumulate_log_prob_grad(&mut self, state: &[f64], raw_action: &[f64], weight: f64) {
        let mean = self.mean_net.forward_train(state);
        let mut grad_out = Vec::with_capacity(mean.len());
        for ((m, s), a) in mean.iter().zip(self.std.iter()).zip(raw_action.iter()) {
            let s = s.max(1e-9);
            grad_out.push(-weight * (a - m) / (s * s));
        }
        self.mean_net.backward(&grad_out);
    }

    /// One full PPO update (all epochs) with per-sample forward/backward
    /// passes — the former hot path, minus the shuffle (deterministic chunk
    /// order keeps the comparison reproducible).
    pub fn update(&mut self, buffer: &RolloutBuffer) {
        let (transitions, _advantages, returns) = buffer.ready_batch();
        let advantages = buffer.normalized_advantages();
        let n = transitions.len();
        if n == 0 {
            return;
        }
        let indices: Vec<usize> = (0..n).collect();
        for _epoch in 0..self.config.epochs {
            for chunk in indices.chunks(self.config.minibatch_size.max(1)) {
                self.mean_net.zero_grad();
                self.critic.zero_grad();
                let batch = chunk.len() as f64;
                for &i in chunk {
                    let t = &transitions[i];
                    let adv = advantages[i];
                    let new_log_prob = self.log_prob(&t.state, &t.raw_action);
                    let ratio = (new_log_prob - t.log_prob).exp();
                    let clip_lo = 1.0 - self.config.clip_epsilon;
                    let clip_hi = 1.0 + self.config.clip_epsilon;
                    let unclipped = ratio * adv;
                    let clipped_obj = ratio.clamp(clip_lo, clip_hi) * adv;
                    if unclipped <= clipped_obj + 1e-12 {
                        self.accumulate_log_prob_grad(&t.state, &t.raw_action, ratio * adv / batch);
                    }
                    let v = self.critic.forward_train(&t.state)[0];
                    let err = v - returns[i];
                    self.critic.backward(&[2.0 * err / batch]);
                }
                let pairs = self.mean_net.param_grad_pairs();
                self.actor_opt.step(pairs);
                let pairs = self.critic.param_grad_pairs();
                self.critic_opt.step(pairs);
            }
        }
    }
}

/// PPO hyper-parameters for the hot-path comparison: one epoch over one
/// 64-transition minibatch, so a single `update` call is exactly the "PPO
/// minibatch update" of the acceptance criteria.
///
/// Learning rates are zero: the Adam math still runs in full (identical
/// instruction stream), but the weights stay pinned, so every timed
/// iteration measures the *same* workload. With live learning rates the
/// policy drifts away from the behavior policy across the timing loop, the
/// clip fraction climbs, and the per-sample baseline — which skips the
/// gradient pass for clipped samples — gets progressively cheaper,
/// corrupting the comparison.
pub fn hotpath_ppo_config() -> PpoConfig {
    PpoConfig {
        epochs: 1,
        minibatch_size: 64,
        actor_lr: 0.0,
        critic_lr: 0.0,
        ..PpoConfig::default()
    }
}

/// The batched learner sharing the baseline's initial weights.
pub fn batched_ppo(policy: &GaussianPolicy, critic: &Mlp) -> PpoAgent {
    PpoAgent::from_parts(policy.clone(), critic.clone(), hotpath_ppo_config())
}

/// The per-slot inference workload of an `num_slices`-slice cell: one
/// paper-sized policy mean net (`STATE_DIM -> ACTION_DIM`) and one critic
/// (`STATE_DIM -> 1`) per slice, each with its own weights, plus one
/// observation row per slice. Shared by both sides of the
/// `fused_cell_slot` comparison so they evaluate the exact same networks
/// on the exact same states.
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

    /// Snapshots the networks into the seed repository's per-sample kernels
    /// (the dispatched baseline the fused path is measured against).
    pub fn naive(&self) -> (Vec<NaiveMlp>, Vec<NaiveMlp>) {
        (
            self.policies.iter().map(NaiveMlp::from_mlp).collect(),
            self.critics.iter().map(NaiveMlp::from_mlp).collect(),
        )
    }
}

/// Pre-rework [`Action`] dimension read: every access round-tripped through
/// a freshly allocated 10-element `Vec` (`to_vec` + index), which is what
/// made the coordination machinery allocate hundreds of times per slot.
/// Reconstructed here (like [`NaiveMlp`] reconstructs the seed kernels) so
/// the tracked JSON measures the in-place rework against what the code
/// actually did before it.
pub fn naive_action_get(a: &Action, dim: ActionDim) -> f64 {
    a.to_vec()[dim.index()]
}

/// Pre-rework [`Action`] dimension write (`to_vec`, mutate, `from_vec`).
pub fn naive_action_set(a: &mut Action, dim: ActionDim, value: f64) {
    let mut v = a.to_vec();
    v[dim.index()] = value.clamp(0.0, 1.0);
    *a = Action::from_vec(&v);
}

/// One slot of the pre-rework per-slice coordination machinery, faithfully
/// reconstructed: β-discounted modification of every proposal through
/// [`naive_action_get`]/[`naive_action_set`], per-resource share vectors
/// collected into fresh `Vec`s for the dual update and the feasibility
/// check, and an allocating proportional projection written back action by
/// action. The β arithmetic is the same Eq. 14 sub-gradient step the real
/// coordinators run, so both sides of the comparison do identical math —
/// only the data movement differs.
pub fn naive_coordination_slot(
    proposals: &[Action],
    betas: &mut [f64; 6],
    capacity: f64,
    step: f64,
) -> Vec<Action> {
    let mut actions: Vec<Action> = proposals.to_vec();
    for a in actions.iter_mut() {
        for (resource, beta) in ResourceKind::ALL.into_iter().zip(betas.iter()) {
            let dim = resource.action_dim();
            let v = naive_action_get(a, dim);
            naive_action_set(a, dim, (v - beta / 2.0).max(0.0));
        }
    }
    let refs: Vec<&Action> = actions.iter().collect();
    let mut feasible = true;
    for (resource, beta) in ResourceKind::ALL.into_iter().zip(betas.iter_mut()) {
        let shares: Vec<f64> = refs
            .iter()
            .map(|a| naive_action_get(a, resource.action_dim()))
            .collect();
        let total: f64 = shares.iter().sum();
        *beta = (*beta + step * (total - capacity)).max(0.0);
        feasible &= total - capacity <= 1e-3;
    }
    if !feasible {
        for resource in ResourceKind::ALL {
            let shares: Vec<f64> = actions
                .iter()
                .map(|a| naive_action_get(a, resource.action_dim()))
                .collect();
            let total: f64 = shares.iter().sum();
            if total > capacity && total > 0.0 {
                let scale = capacity / total;
                let projected: Vec<f64> = shares.iter().map(|s| s * scale).collect();
                for (a, p) in actions.iter_mut().zip(projected.iter()) {
                    naive_action_set(a, resource.action_dim(), *p);
                }
            }
        }
    }
    actions
}

/// The same slot through the reworked in-place path: the caller-owned
/// workspace is refilled (no per-slot `Vec`), modification runs through the
/// direct-field [`Action::get`]/[`Action::set`], and the [`DomainSet`] slice
/// APIs sum, update and project without materializing anything.
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
/// scaled to a short horizon) for the orchestrator-slot scaling benchmark.
pub fn scaled_orchestrator(num_slices: usize, seed: u64) -> Orchestrator {
    let network = NetworkConfig::testbed_default();
    let horizon = 24;
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

/// Paired comparison of a baseline and a contender under identical
/// conditions: each sample times both back-to-back, so slow phases of a
/// noisy (shared/throttled) host hit both sides equally and cancel out of
/// the ratio. Returns `(median baseline ns, median contender ns)` taken from
/// the sample pair whose ratio is the median ratio.
pub fn paired_median_ns<A: FnMut(), B: FnMut()>(
    samples: usize,
    iters: usize,
    mut baseline: A,
    mut contender: B,
) -> (f64, f64) {
    let mut pairs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            baseline();
        }
        let base_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            contender();
        }
        let cont_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        pairs.push((base_ns, cont_ns));
    }
    pairs.sort_by(|a, b| (a.0 / a.1).partial_cmp(&(b.0 / b.1)).expect("NaN timing"));
    pairs[pairs.len() / 2]
}
