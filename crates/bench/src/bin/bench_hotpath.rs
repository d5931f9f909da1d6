//! Emits `BENCH_hotpath.json` — the one artifact under `baselines/` that
//! reads the clock: absolute timings of the numeric hot path as the product
//! runs it today, gated by `bench_regress` at +35 % against the committed
//! copy. (End-to-end rates and latencies are the repository benchmark's job —
//! `benchmark/`, medians of repeated runs; this file is the per-kernel trend
//! line.)
//!
//! Measures (wall clock, median of several samples, one timed closure each):
//!
//! * the paper-sized MLP forward at batch 64 (one batched GEMM pass);
//! * one PPO minibatch update (64 transitions, paper networks);
//! * one behavior-cloning epoch over 96 demonstrations;
//! * one switch statistic — `BayesianMlp::predict_with` on the estimator
//!   trunk, 16 posterior samples, warm scratch — and one draw of the
//!   `N(0, 1)` sampler under it;
//! * one slot of cell-wide inference (policy mean + critic per slice, the
//!   deployment-scale trunks the orchestrator actually runs) through the
//!   fused `CellBatch` layer-major sweep at 3/9/12/18 slices;
//! * one slot of the in-place coordination machinery at 12 slices;
//! * the N-slice orchestrator episode (24 slots, deterministic), whose
//!   per-slot latency should grow sub-linearly in the slice count on a
//!   multi-core host (the decision/step phases fan out with rayon).
//!
//! Usage: `cargo run --release --bin bench_hotpath [output-path]`
//! (default output: `BENCH_hotpath.json` in the current directory).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use onslicing_bench::hotpath::{
    coordination_proposals, filled_buffer, hotpath_ppo_config, in_place_coordination_slot,
    median_ns_per_iter, paper_actor_critic, scaled_orchestrator, CellInferenceFixture,
};
use onslicing_domains::DomainSet;
use onslicing_nn::policy::standard_normal;
use onslicing_nn::{
    Activation, BatchWorkspace, BayesianMlp, CellBatch, Matrix, Mlp, PredictScratch,
};
use onslicing_rl::{behavior_clone, BcConfig, CostEstimatorConfig, Demonstration, PpoAgent};
use onslicing_slices::{ACTION_DIM, STATE_DIM};

const BATCH: usize = 64;
const SAMPLES: usize = 7;
const COORDINATION_SLICES: usize = 12;

fn measure_forward() -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let net = Mlp::onslicing_default(STATE_DIM, ACTION_DIM, Activation::Sigmoid, &mut rng);
    let mut batch = Matrix::zeros(BATCH, STATE_DIM);
    for r in 0..BATCH {
        batch.copy_row_from(r, &[0.3; STATE_DIM]);
    }
    let mut ws = BatchWorkspace::new();
    median_ns_per_iter(SAMPLES, 200, || {
        std::hint::black_box(
            net.forward_batch(std::hint::black_box(&batch), &mut ws)
                .get(0, 0),
        );
    })
}

fn measure_ppo() -> f64 {
    let (policy, critic) = paper_actor_critic(1);
    let buffer = filled_buffer(&policy, &critic, BATCH, 2);
    let mut agent = PpoAgent::from_parts(policy, critic, hotpath_ppo_config());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    median_ns_per_iter(SAMPLES, 20, || {
        std::hint::black_box(agent.update(std::hint::black_box(&buffer), &mut rng));
    })
}

fn measure_bc_epoch() -> f64 {
    let (mut policy, _critic) = paper_actor_critic(4);
    let demos: Vec<Demonstration> = (0..96)
        .map(|i| Demonstration {
            state: vec![i as f64 / 96.0; STATE_DIM],
            action: vec![0.3; ACTION_DIM],
        })
        .collect();
    let bc = BcConfig {
        epochs: 1,
        ..BcConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    median_ns_per_iter(SAMPLES, 10, || {
        std::hint::black_box(behavior_clone(&mut policy, &demos, &bc, &mut rng));
    })
}

/// The switch statistic as an agent computes it every slot: the estimator
/// trunk of `CostValueEstimator::new`, its default number of posterior
/// samples (16), a warm [`PredictScratch`].
fn measure_bayes_predict() -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let net = BayesianMlp::new(&[STATE_DIM, 64, 32, 1], &mut rng);
    let samples = CostEstimatorConfig::default().prediction_samples;
    let mut scratch = PredictScratch::new();
    let state = [0.3; STATE_DIM];
    median_ns_per_iter(SAMPLES, 2000, || {
        std::hint::black_box(net.predict_with(
            std::hint::black_box(&state),
            samples,
            &mut rng,
            &mut scratch,
        ));
    })
}

/// One `N(0, 1)` draw (1 024 to a timed iteration), generator included.
fn measure_standard_normal() -> f64 {
    const DRAWS: usize = 1024;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let per_iter = median_ns_per_iter(SAMPLES, 200, || {
        let mut sum = 0.0;
        for _ in 0..DRAWS {
            sum += standard_normal(&mut rng);
        }
        std::hint::black_box(sum);
    });
    per_iter / DRAWS as f64
}

/// One slot's worth of cell inference (policy mean + critic for every
/// slice) through the fused [`CellBatch`] sweep: gather once, one
/// layer-major grouped pass per network family, zero steady-state
/// allocations. Returns `(slices, fused_ns)` per cell size.
fn measure_fused_cell() -> Vec<(usize, f64)> {
    [3usize, 9, 12, 18]
        .into_iter()
        .map(|num_slices| {
            let fixture = CellInferenceFixture::new(num_slices, 20 + num_slices as u64);
            let mut policy_cell = CellBatch::new();
            let mut critic_cell = CellBatch::new();
            let fused_ns = median_ns_per_iter(SAMPLES, 200, || {
                {
                    let input = policy_cell.input_mut(num_slices, fixture.states[0].len());
                    for (i, state) in fixture.states.iter().enumerate() {
                        input
                            .row_mut(i)
                            .copy_from_slice(std::hint::black_box(state));
                    }
                }
                std::hint::black_box(policy_cell.forward_grouped(|i| &fixture.policies[i]).data());
                {
                    let input = critic_cell.input_mut(num_slices, fixture.states[0].len());
                    input.data_mut().copy_from_slice(policy_cell.input().data());
                }
                std::hint::black_box(critic_cell.forward_grouped(|i| &fixture.critics[i]).data());
            });
            (num_slices, fused_ns)
        })
        .collect()
}

/// The per-slot coordination machinery at [`COORDINATION_SLICES`] slices:
/// the in-place slice APIs over a caller-owned workspace, on over-subscribed
/// proposals so the projection branch runs every slot.
fn measure_coordination() -> f64 {
    let proposals = coordination_proposals(COORDINATION_SLICES);
    let mut domains = DomainSet::with_parameters(COORDINATION_SLICES as f64 / 3.0, 1.0);
    let mut workspace: Vec<onslicing_slices::Action> = Vec::new();
    median_ns_per_iter(SAMPLES, 2000, || {
        in_place_coordination_slot(
            std::hint::black_box(&proposals),
            &mut domains,
            &mut workspace,
        );
        std::hint::black_box(&workspace);
    })
}

fn measure_orchestrator() -> Vec<(usize, f64)> {
    [3usize, 9, 18]
        .into_iter()
        .map(|num_slices| {
            let mut orch = scaled_orchestrator(num_slices, 24, 10 + num_slices as u64);
            // The slots one `run_episode` really executes (a 96-slot day).
            let horizon = orch.env().envs()[0].horizon() as f64;
            // One warm-up episode so lazily-sized buffers settle.
            orch.run_episode(false);
            let episode_ns = median_ns_per_iter(3, 1, || {
                std::hint::black_box(orch.run_episode(false).avg_interactions);
            });
            (num_slices, episode_ns / horizon)
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    println!("bench_hotpath: measuring the NN/PPO/orchestrator hot path ...");

    let forward = measure_forward();
    println!("  mlp forward (batch {BATCH}): {forward:.0} ns");
    let ppo = measure_ppo();
    println!("  ppo minibatch update: {ppo:.0} ns");
    let bc_epoch = measure_bc_epoch();
    println!("  bc epoch (96 demos): {bc_epoch:.0} ns");
    let bayes_predict = measure_bayes_predict();
    println!("  bayes predict: {bayes_predict:.0} ns");
    let standard_normal = measure_standard_normal();
    println!("  standard normal draw: {standard_normal:.2} ns");
    let fused = measure_fused_cell();
    for (n, ns) in &fused {
        println!("  fused cell slot ({n} slices): {ns:.0} ns");
    }
    let coordination = measure_coordination();
    println!("  coordination machinery ({COORDINATION_SLICES} slices): {coordination:.0} ns");
    let slots = measure_orchestrator();
    for (n, ns) in &slots {
        println!("  orchestrator slot ({n} slices): {ns:.0} ns/slot");
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Per-slot latency ratio of the largest vs smallest deployment, divided
    // by the slice-count ratio: < 1.0 means sub-linear scaling.
    let (n_lo, t_lo) = slots.first().copied().unwrap_or((1, 1.0));
    let (n_hi, t_hi) = slots.last().copied().unwrap_or((1, 1.0));
    let sublinearity = (t_hi / t_lo.max(1.0)) / (n_hi as f64 / n_lo as f64).max(1.0);

    // Hand-formatted: the pruned template is shorter than the five structs a
    // derived `Serialize` would need, and it keeps the committed layout.
    let rows = |series: &[(usize, f64)], key: &str| {
        let rows: Vec<String> = series
            .iter()
            .map(|(n, ns)| format!("    {{ \"slices\": {n}, \"{key}\": {ns:.1} }}"))
            .collect();
        rows.join(",\n")
    };
    let json = format!(
        "{{\n\
         \x20 \"schema\": \"onslicing-hotpath-bench/4\",\n\
         \x20 \"threads\": {threads},\n\
         \x20 \"batch\": {BATCH},\n\
         \x20 \"trunk\": \"onslicing_default 128x64x32\",\n\
         \x20 \"mlp_forward\": {{\n\
         \x20   \"batched_ns\": {forward:.1}\n\
         \x20 }},\n\
         \x20 \"ppo_minibatch_update\": {{\n\
         \x20   \"batched_ns\": {ppo:.1}\n\
         \x20 }},\n\
         \x20 \"bc_epoch_96_demos_ns\": {bc_epoch:.1},\n\
         \x20 \"bayes_predict_ns\": {bayes_predict:.1},\n\
         \x20 \"standard_normal_ns\": {standard_normal:.2},\n\
         \x20 \"fused_cell_slot\": [\n{fused_rows}\n\x20 ],\n\
         \x20 \"coordination_machinery\": {{\n\
         \x20   \"slices\": {COORDINATION_SLICES},\n\
         \x20   \"in_place_ns\": {coordination:.1}\n\
         \x20 }},\n\
         \x20 \"orchestrator_slot\": [\n{slot_rows}\n\x20 ],\n\
         \x20 \"orchestrator_sublinearity\": {sublinearity:.3}\n\
         }}\n",
        fused_rows = rows(&fused, "fused_ns"),
        slot_rows = rows(&slots, "ns_per_slot"),
    );
    std::fs::write(&out_path, &json).expect("failed to write the benchmark JSON");
    println!("\nslot sub-linearity: {sublinearity:.3} (< 1 is sub-linear; {threads} thread(s))");
    println!("wrote {out_path}");
}
