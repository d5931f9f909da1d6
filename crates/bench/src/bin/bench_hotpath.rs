//! Emits `BENCH_hotpath.json` — the machine-readable record of the numeric
//! hot path's performance, tracked across PRs.
//!
//! Measures (wall clock, median of several samples):
//!
//! * the paper-sized MLP forward at batch 64: per-sample loop vs one batched
//!   GEMM pass (`speedup` = per-sample / batched);
//! * one PPO minibatch update (64 transitions, paper networks): the former
//!   per-sample loop vs the batched path;
//! * one behavior-cloning epoch over 96 demonstrations (batched path only,
//!   absolute trend line);
//! * one slot of cell-wide inference (policy mean + critic per slice, the
//!   deployment-scale trunks the fused orchestrator actually runs) at
//!   3/9/12/18 slices: the dispatched per-slice loop vs the fused
//!   `CellBatch` layer-major sweep;
//! * one slot of the coordination machinery at 12 slices: the pre-rework
//!   allocating per-slice path vs the in-place slice APIs — this
//!   `fused_speedup` is gated against an absolute ≥5x floor by
//!   `bench_regress`;
//! * the N-slice orchestrator episode (24 slots, deterministic), whose
//!   per-slot latency should grow sub-linearly in the slice count on a
//!   multi-core host (the decision/step phases fan out with rayon).
//!
//! Usage: `cargo run --release --bin bench_hotpath [output-path]`
//! (default output: `BENCH_hotpath.json` in the current directory).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use onslicing_bench::hotpath::{
    batched_ppo, coordination_proposals, filled_buffer, hotpath_ppo_config,
    in_place_coordination_slot, median_ns_per_iter, naive_coordination_slot, paired_median_ns,
    paper_actor_critic, scaled_orchestrator, CellInferenceFixture, NaiveMlp, PerSamplePpo,
};
use onslicing_domains::DomainSet;
use onslicing_nn::{Activation, BatchWorkspace, CellBatch, Matrix, Mlp};
use onslicing_rl::{behavior_clone, BcConfig, Demonstration};
use onslicing_slices::{ACTION_DIM, STATE_DIM};

const BATCH: usize = 64;
const SAMPLES: usize = 7;

fn measure_forward() -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let net = Mlp::onslicing_default(STATE_DIM, ACTION_DIM, Activation::Sigmoid, &mut rng);
    let naive = NaiveMlp::from_mlp(&net);
    let x = vec![0.3; STATE_DIM];
    let mut batch = Matrix::zeros(BATCH, STATE_DIM);
    for r in 0..BATCH {
        batch.copy_row_from(r, &x);
    }
    let mut ws = BatchWorkspace::new();
    paired_median_ns(
        SAMPLES,
        200,
        || {
            for _ in 0..BATCH {
                std::hint::black_box(naive.forward(std::hint::black_box(&x)));
            }
        },
        || {
            std::hint::black_box(
                net.forward_batch(std::hint::black_box(&batch), &mut ws)
                    .get(0, 0),
            );
        },
    )
}

fn measure_ppo() -> (f64, f64) {
    let (policy, critic) = paper_actor_critic(1);
    let buffer = filled_buffer(&policy, &critic, BATCH, 2);
    let mut per_sample_ppo = PerSamplePpo::new(&policy, &critic, hotpath_ppo_config());
    let mut batched_agent = batched_ppo(&policy, &critic);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    paired_median_ns(
        SAMPLES,
        20,
        || per_sample_ppo.update(std::hint::black_box(&buffer)),
        || {
            std::hint::black_box(batched_agent.update(std::hint::black_box(&buffer), &mut rng));
        },
    )
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

/// One slot's worth of cell inference (policy mean + critic for every
/// slice): the dispatched per-slice path (seed kernels, one allocation
/// chain per network call) versus the fused [`CellBatch`] sweep (gather
/// once, one layer-major grouped pass per network family, zero steady-state
/// allocations). Returns `(slices, dispatched_ns, fused_ns)` per cell size.
fn measure_fused_cell() -> Vec<(usize, f64, f64)> {
    [3usize, 9, 12, 18]
        .into_iter()
        .map(|num_slices| {
            let fixture = CellInferenceFixture::new(num_slices, 20 + num_slices as u64);
            let (naive_policies, naive_critics) = fixture.naive();
            let mut policy_cell = CellBatch::new();
            let mut critic_cell = CellBatch::new();
            let (dispatched_ns, fused_ns) = paired_median_ns(
                SAMPLES,
                200,
                || {
                    for (i, state) in fixture.states.iter().enumerate() {
                        std::hint::black_box(
                            naive_policies[i].forward(std::hint::black_box(state)),
                        );
                        std::hint::black_box(naive_critics[i].forward(std::hint::black_box(state)));
                    }
                },
                || {
                    {
                        let input = policy_cell.input_mut(num_slices, fixture.states[0].len());
                        for (i, state) in fixture.states.iter().enumerate() {
                            input
                                .row_mut(i)
                                .copy_from_slice(std::hint::black_box(state));
                        }
                    }
                    std::hint::black_box(
                        policy_cell.forward_grouped(|i| &fixture.policies[i]).data(),
                    );
                    {
                        let input = critic_cell.input_mut(num_slices, fixture.states[0].len());
                        input.data_mut().copy_from_slice(policy_cell.input().data());
                    }
                    std::hint::black_box(
                        critic_cell.forward_grouped(|i| &fixture.critics[i]).data(),
                    );
                },
            );
            (num_slices, dispatched_ns, fused_ns)
        })
        .collect()
}

/// The per-slot coordination machinery at 12 slices: the pre-rework
/// per-slice path (every `Action` dimension read/written through a fresh
/// `Vec`, share vectors collected per resource, allocating projection)
/// versus the in-place slice APIs over a caller-owned workspace. Identical
/// arithmetic on both sides; this isolates what the allocation-free rework
/// bought. Gated by `bench_regress` against an absolute ≥5x floor.
fn measure_coordination() -> (f64, f64) {
    const SLICES: usize = 12;
    let proposals = coordination_proposals(SLICES);
    let capacity = SLICES as f64 / 3.0;
    let mut naive_betas = [0.0f64; 6];
    let mut domains = DomainSet::with_parameters(capacity, 1.0);
    let mut workspace: Vec<onslicing_slices::Action> = Vec::new();
    paired_median_ns(
        SAMPLES,
        2000,
        || {
            std::hint::black_box(naive_coordination_slot(
                std::hint::black_box(&proposals),
                &mut naive_betas,
                capacity,
                1.0,
            ));
        },
        || {
            in_place_coordination_slot(
                std::hint::black_box(&proposals),
                &mut domains,
                &mut workspace,
            );
            std::hint::black_box(&workspace);
        },
    )
}

fn measure_orchestrator() -> Vec<(usize, f64)> {
    [3usize, 9, 18]
        .into_iter()
        .map(|num_slices| {
            let mut orch = scaled_orchestrator(num_slices, 10 + num_slices as u64);
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

    let (fwd_per_sample, fwd_batched) = measure_forward();
    println!("  mlp forward (batch {BATCH}): per-sample {fwd_per_sample:.0} ns, batched {fwd_batched:.0} ns");
    let (ppo_per_sample, ppo_batched) = measure_ppo();
    println!(
        "  ppo minibatch update: per-sample {ppo_per_sample:.0} ns, batched {ppo_batched:.0} ns"
    );
    let bc_epoch = measure_bc_epoch();
    println!("  bc epoch (96 demos): {bc_epoch:.0} ns");
    let fused = measure_fused_cell();
    for (n, dispatched, fused_ns) in &fused {
        println!(
            "  fused cell slot ({n} slices): dispatched {dispatched:.0} ns, fused {fused_ns:.0} ns \
             ({:.2}x)",
            dispatched / fused_ns.max(1.0)
        );
    }
    let (coord_naive, coord_fused) = measure_coordination();
    println!(
        "  coordination machinery (12 slices): per-slice {coord_naive:.0} ns, in-place \
         {coord_fused:.0} ns ({:.2}x)",
        coord_naive / coord_fused.max(1.0)
    );
    let slots = measure_orchestrator();
    for (n, ns) in &slots {
        println!("  orchestrator slot ({n} slices): {ns:.0} ns/slot");
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let forward_speedup = fwd_per_sample / fwd_batched.max(1.0);
    let ppo_speedup = ppo_per_sample / ppo_batched.max(1.0);
    // Per-slot latency ratio of the largest vs smallest deployment, divided
    // by the slice-count ratio: < 1.0 means sub-linear scaling.
    let (n_lo, t_lo) = slots.first().copied().unwrap_or((1, 1.0));
    let (n_hi, t_hi) = slots.last().copied().unwrap_or((1, 1.0));
    let scaling_exponent_denominator = (n_hi as f64 / n_lo as f64).max(1.0);
    let sublinearity = (t_hi / t_lo.max(1.0)) / scaling_exponent_denominator;

    let fused_12 = fused
        .iter()
        .find(|(n, _, _)| *n == 12)
        .map(|(_, d, f)| d / f.max(1.0))
        .unwrap_or(0.0);
    let coord_speedup = coord_naive / coord_fused.max(1.0);

    let fused_entries: Vec<String> = fused
        .iter()
        .map(|(n, dispatched, fused_ns)| {
            format!(
                "    {{ \"slices\": {n}, \"dispatched_ns\": {dispatched:.1}, \
                 \"fused_ns\": {fused_ns:.1}, \"speedup\": {:.2} }}",
                dispatched / fused_ns.max(1.0)
            )
        })
        .collect();
    let slot_entries: Vec<String> = slots
        .iter()
        .map(|(n, ns)| format!("    {{ \"slices\": {n}, \"ns_per_slot\": {ns:.1} }}"))
        .collect();
    let json = format!(
        "{{\n\
         \x20 \"schema\": \"onslicing-hotpath-bench/2\",\n\
         \x20 \"threads\": {threads},\n\
         \x20 \"batch\": {BATCH},\n\
         \x20 \"trunk\": \"onslicing_default 128x64x32\",\n\
         \x20 \"mlp_forward\": {{\n\
         \x20   \"per_sample_ns\": {fwd_per_sample:.1},\n\
         \x20   \"batched_ns\": {fwd_batched:.1},\n\
         \x20   \"speedup\": {forward_speedup:.2}\n\
         \x20 }},\n\
         \x20 \"ppo_minibatch_update\": {{\n\
         \x20   \"per_sample_ns\": {ppo_per_sample:.1},\n\
         \x20   \"batched_ns\": {ppo_batched:.1},\n\
         \x20   \"speedup\": {ppo_speedup:.2}\n\
         \x20 }},\n\
         \x20 \"bc_epoch_96_demos_ns\": {bc_epoch:.1},\n\
         \x20 \"fused_cell_slot\": [\n{fused_rows}\n\x20 ],\n\
         \x20 \"cell_inference_speedup_12_slices\": {fused_12:.2},\n\
         \x20 \"coordination_machinery\": {{\n\
         \x20   \"slices\": 12,\n\
         \x20   \"per_slice_ns\": {coord_naive:.1},\n\
         \x20   \"in_place_ns\": {coord_fused:.1},\n\
         \x20   \"fused_speedup\": {coord_speedup:.2}\n\
         \x20 }},\n\
         \x20 \"orchestrator_slot\": [\n{slot_rows}\n\x20 ],\n\
         \x20 \"orchestrator_sublinearity\": {sublinearity:.3}\n\
         }}\n",
        fused_rows = fused_entries.join(",\n"),
        slot_rows = slot_entries.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("failed to write the benchmark JSON");
    println!(
        "\nforward speedup: {forward_speedup:.2}x, ppo update speedup: {ppo_speedup:.2}x, \
         fused cell inference (12 slices): {fused_12:.2}x, \
         coordination machinery: {coord_speedup:.2}x, \
         slot sub-linearity: {sublinearity:.3} (< 1 is sub-linear; {threads} thread(s))"
    );
    println!("wrote {out_path}");
}
