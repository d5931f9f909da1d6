//! `paper-online`: the paper's own setting.
//!
//! Three slices (MAR, HVS, RDC) with the full-size policy and critic
//! trunks and 96-slot days: offline pre-training, then learning epochs of
//! two days plus a PPO update per agent, then deterministic evaluation
//! days. It is the only workload where the PPO update on full-size nets is
//! a large share of wall time, so `rl`/`nn` training-kernel work shows here
//! and hardly anywhere else. Epochs go through the product's own
//! `run_epoch()`; the evaluation days are driven slot by slot (exactly what
//! `evaluate()` does) so that the decision round of the deployed policy
//! has a latency distribution.

use std::time::Instant;

use onslicing_core::{
    CoordinationMode, DeploymentBuilder, EpisodeMetrics, EpochMetrics, SlotOutcome,
};

use super::{Cx, Round};
use crate::probe::probe_epoch;
use crate::stats::digest;

pub const PRETRAIN_EPISODES: usize = 20;
/// Slices of the paper's default deployment (MAR, HVS, RDC).
pub const SLICES: usize = 3;
/// Learning epochs per round (ISSUE 11 sized 10 epochs + 4 evaluation days
/// at 14 s; rounds repeat, so a round is a fifth of that).
const EPOCHS: usize = 2;
/// Evaluation days per round: 384 decision rounds, about two fifths of a
/// round's wall. The machine's speed drifts by the second, so the slot
/// samples must cover a good part of the run to be steady.
const EVAL_DAYS: usize = 4;
const EPISODES_PER_EPOCH: usize = 2;

fn builder(seed: u64) -> DeploymentBuilder {
    DeploymentBuilder::new()
        .seed(seed)
        .episodes_per_epoch(EPISODES_PER_EPOCH)
}

pub fn generated_json(seed: u64, quick: bool) -> String {
    format!(
        "{{\"deployment\":\"paper-default\",\"seed\":{seed},\"pretrain_episodes\":{PRETRAIN_EPISODES},\
         \"epochs\":{},\"evaluation_days\":{}}}",
        if quick { 1 } else { EPOCHS },
        if quick { 1 } else { EVAL_DAYS }
    )
}

pub fn round(cx: &mut Cx<'_>) -> Round {
    let mut r = Round::default();
    let epochs = if cx.quick { 1 } else { EPOCHS };
    let eval_days = if cx.quick { 1 } else { EVAL_DAYS };

    let setup = Instant::now();
    let mut orch = cx
        .tracer
        .time("core", "core.build", || builder(cx.seed).build());
    cx.tracer.time("core", "core.offline_pretrain_all", || {
        orch.offline_pretrain_all(PRETRAIN_EPISODES)
    });
    r.setups_s.push(setup.elapsed().as_secs_f64());
    let slices = orch.num_slices() as u64;
    r.check(slices == SLICES as u64, || {
        format!("the paper's deployment has {slices} slices, the harness assumes {SLICES}")
    });
    let horizon = orch.env().envs()[0].horizon();

    let measured = Instant::now();
    // One probed epoch per traced pass: it costs two epochs of wall.
    if cx.tracer.enabled() && cx.round == 0 {
        probe_epoch(
            &orch,
            EPISODES_PER_EPOCH,
            CoordinationMode::default(),
            cx.scratch,
            cx.tracer,
            cx.probes,
        );
    }
    let mut online = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        cx.tracer.set_op(epoch as u64);
        let start = Instant::now();
        let metrics = cx
            .tracer
            .time("core", "core.run_epoch", || orch.run_epoch());
        r.sample("epoch_s", start.elapsed().as_secs_f64());
        r.slice_slots += slices * (EPISODES_PER_EPOCH * horizon) as u64;
        r.ok((EPISODES_PER_EPOCH * horizon) as u64);
        online.push(metrics);
    }
    // Evaluation, as `Orchestrator::evaluate` runs it, one slot at a time.
    let mut outcome = SlotOutcome::default();
    let mut days = Vec::with_capacity(eval_days);
    let eval = cx.tracer.begin("core", "core.evaluate");
    for _ in 0..eval_days {
        orch.env_mut().reset_all();
        let mut interactions = 0;
        for _ in 0..horizon {
            let start = Instant::now();
            orch.run_slot_into(false, &mut outcome);
            r.sample("slot_ms", start.elapsed().as_secs_f64() * 1e3);
            interactions += outcome.interactions;
        }
        days.push(EpisodeMetrics {
            slices: orch
                .agents_mut()
                .iter_mut()
                .map(|a| a.end_episode())
                .collect(),
            avg_interactions: interactions as f64 / horizon as f64,
        });
        r.slice_slots += slices * horizon as u64;
        r.ok(horizon as u64);
    }
    cx.tracer.end(eval);
    r.measured_s = measured.elapsed().as_secs_f64();

    let evaluation = EpochMetrics::from_episodes(&days);
    // The paper's two claims: SLAs kept *while learning online*, at the
    // resource usage the *learned* policy then needs.
    let online_episodes: usize = online.iter().map(|m| m.num_slice_episodes).sum();
    let violated: f64 = online
        .iter()
        .map(|m| m.violation_percent / 100.0 * m.num_slice_episodes as f64)
        .sum();
    r.exact.insert(
        "sla_violation_pct",
        100.0 * violated / online_episodes.max(1) as f64,
    );
    r.exact.insert("usage_pct", evaluation.avg_usage_percent);
    r.exact
        .insert("domains.rounds_per_slot", evaluation.avg_interactions);
    let finite = online.iter().chain([&evaluation]).all(|m| {
        m.avg_usage_percent.is_finite() && m.avg_cost.is_finite() && m.violation_percent.is_finite()
    });
    r.check(finite, || {
        "an epoch's metrics hold a non-finite value".to_string()
    });
    r.check(
        evaluation.num_slice_episodes == eval_days * slices as usize,
        || "evaluation closed the wrong number of slice-episodes".to_string(),
    );
    let json = serde_json::to_string(&(online, evaluation)).expect("epoch metrics serialise");
    r.digest = digest(json.as_bytes());
    r
}
