//! Micro-probes: direct timed calls into the `nn`, `rl`, `netsim` and
//! `traffic` layers on fresh objects of the shapes the workload uses. They
//! run once per traced invocation, after the measured passes, and feed
//! per-layer metrics only.

use std::hint::black_box;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use onslicing_core::AgentConfig;
use onslicing_netsim::{NetworkConfig, NetworkSimulator};
use onslicing_nn::{
    Adam, BatchWorkspace, BayesWorkspace, BayesianMlp, CellBatch, Matrix, Mlp, PredictScratch,
};
use onslicing_rl::{
    behavior_clone, CostToGoSample, CostValueEstimator, Demonstration, PpoAgent, RolloutBuffer,
    Transition,
};
use onslicing_slices::{Action, Sla, SliceKind, ACTION_DIM, STATE_DIM};
use onslicing_traffic::{DiurnalTraceConfig, TraceGenerator};

use crate::metrics::MetricSet;

/// The network and dataset shapes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// The agent preset: paper-size trunks or the scaled-down ones every
    /// `ScenarioEngine` slice uses.
    pub agent: AgentConfig,
    /// Slices in a cell (rows of a fused forward).
    pub slices: usize,
    /// Baseline episodes behind an offline pre-training.
    pub pretrain_episodes: usize,
}

const BATCH: usize = 64;

/// Mean wall of `f` over `iters` calls, in microseconds.
fn mean_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily-sized workspaces
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn random_matrix(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen::<f64>()).collect(),
    )
}

fn random_state(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..STATE_DIM).map(|_| rng.gen::<f64>()).collect()
}

/// Runs every micro-probe and writes the `nn.*`, `rl.*`, `netsim.*` and
/// `traffic.*` metrics.
pub fn run(shapes: Shapes, seed: u64, out: &mut MetricSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d_6963_726f);
    let horizon = shapes.agent.horizon;
    let agent = if shapes.agent.use_small_networks {
        PpoAgent::new_small(STATE_DIM, ACTION_DIM, shapes.agent.ppo, &mut rng)
    } else {
        PpoAgent::new(STATE_DIM, ACTION_DIM, shapes.agent.ppo, &mut rng)
    };

    // nn: the estimator trunk (Monte-Carlo predict and one fitting step).
    let mut bayes = BayesianMlp::new(&[STATE_DIM, 64, 32, 1], &mut rng);
    let state = random_state(&mut rng);
    let mut scratch = PredictScratch::new();
    let samples = shapes.agent.estimator.prediction_samples;
    out.set(
        "nn.bayes_predict_us",
        mean_us(200, || {
            black_box(bayes.predict_with(black_box(&state), samples, &mut rng, &mut scratch));
        }),
    );
    let batch = random_matrix(BATCH, STATE_DIM, &mut rng);
    let grad = random_matrix(BATCH, 1, &mut rng);
    let mut bws = BayesWorkspace::new();
    out.set(
        "nn.bayes_fit_batch_us",
        mean_us(200, || {
            bayes.zero_grad();
            bayes.resample_weights(&mut rng);
            black_box(bayes.forward_batch(&batch, &mut bws));
            bayes.backward_batch(&grad, &mut bws);
        }),
    );

    // nn: the policy trunk (fused cell forward, batched forward/backward, Adam).
    let nets: Vec<Mlp> = (0..shapes.slices)
        .map(|_| agent.policy().mean_net().clone())
        .collect();
    let mut cell = CellBatch::new();
    out.set(
        "nn.fused_forward_us_per_slice",
        mean_us(2000, || {
            let input = cell.input_mut(nets.len(), STATE_DIM);
            for i in 0..nets.len() {
                input.row_mut(i).copy_from_slice(&state);
            }
            black_box(cell.forward_grouped(|i| &nets[i]));
        }) / shapes.slices as f64,
    );
    let mut mlp = agent.policy().mean_net().clone();
    let mut ws = BatchWorkspace::new();
    out.set(
        "nn.mlp_forward_b64_us",
        mean_us(500, || {
            black_box(mlp.forward_batch(black_box(&batch), &mut ws));
        }),
    );
    let grad_out = random_matrix(BATCH, ACTION_DIM, &mut rng);
    out.set(
        "nn.mlp_backward_b64_us",
        mean_us(500, || {
            mlp.zero_grad();
            mlp.backward_batch(black_box(&grad_out), &mut ws);
        }),
    );
    let mut adam = Adam::new(mlp.num_parameters(), 1e-3);
    out.set("nn.adam_step_us", mean_us(500, || adam.step_set(&mut mlp)));

    // rl: one PPO update on an episode of transitions, one behaviour
    // cloning and one estimator fit on a pre-training's worth of data.
    let mut buffer = RolloutBuffer::new();
    for i in 0..horizon {
        let s = random_state(&mut rng);
        let sample = agent.act(&s, &mut rng);
        let value = agent.value(&s);
        buffer.push(Transition {
            state: s,
            raw_action: sample.raw_action.clone(),
            action: sample.action.clone(),
            log_prob: sample.log_prob,
            reward: -0.3 + 0.1 * rng.gen::<f64>(),
            cost: 0.01,
            value,
            done: i + 1 == horizon,
        });
    }
    buffer.finish_episode(0.0, shapes.agent.ppo.gamma, shapes.agent.ppo.gae_lambda);
    out.set(
        "rl.ppo_update_ms",
        mean_us(3, || {
            let mut learner = agent.clone();
            black_box(learner.update(&buffer, &mut rng));
        }) / 1e3,
    );
    let n = horizon * shapes.pretrain_episodes;
    let demos: Vec<Demonstration> = (0..n)
        .map(|_| Demonstration {
            state: random_state(&mut rng),
            action: (0..ACTION_DIM).map(|_| rng.gen::<f64>()).collect(),
        })
        .collect();
    out.set(
        "rl.bc_ms",
        mean_us(1, || {
            let mut policy = agent.policy().clone();
            black_box(behavior_clone(
                &mut policy,
                &demos,
                &shapes.agent.bc,
                &mut rng,
            ));
        }) / 1e3,
    );
    let dataset: Vec<CostToGoSample> = (0..n)
        .map(|_| CostToGoSample {
            state: random_state(&mut rng),
            cost_to_go: rng.gen::<f64>(),
        })
        .collect();
    let mut estimator = CostValueEstimator::new(STATE_DIM, shapes.agent.estimator, &mut rng);
    out.set(
        "rl.estimator_fit_ms",
        mean_us(1, || {
            black_box(estimator.fit(&dataset, &mut rng));
        }) / 1e3,
    );
    out.set(
        "rl.estimator_predict_us",
        mean_us(200, || {
            black_box(estimator.predict(black_box(&state), &mut rng));
        }),
    );

    // netsim, traffic: one simulated slot and one day of arrivals.
    let mut sim = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(seed));
    let sla = Sla::for_kind(SliceKind::Mar);
    let action = Action::from_vec(&[0.5; ACTION_DIM]);
    out.set(
        "netsim.step_us",
        mean_us(2000, || {
            black_box(sim.step_slice(SliceKind::Mar, &sla, black_box(&action), 2.0));
        }),
    );
    let generator = TraceGenerator::new(DiurnalTraceConfig::mar_default());
    out.set(
        "traffic.trace_gen_us",
        mean_us(500, || {
            black_box(generator.generate(horizon, &mut rng));
        }),
    );
}
