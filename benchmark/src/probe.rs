//! Phase probes: the slot-time ledger, taken from outside.
//!
//! The product times nothing finer than a whole `step_slot`, so the traced
//! run decomposes a slot itself: it clones the engine *before* the real
//! slot runs and, on the replica, executes the slot through the public
//! phase functions the orchestrator composes — gather, switching
//! statistic, the two fused forwards, decide-finish, coordination,
//! enforcement, the simulator step, recording and, at an episode boundary,
//! episode close + policy update — wrapping each in a span. The real
//! engine is never touched. Two sibling clones run the undivided
//! `run_slot_into` / `step_slot`, which gives the coverage of the phase sum
//! and the bit-exact KPI oracle for the decomposition.

use onslicing_core::{CoordinationMode, Orchestrator};
use onslicing_nn::CellBatch;
use onslicing_scenario::ScenarioEngine;
use onslicing_slices::{Action, SliceState, SlotKpi, STATE_DIM};

use crate::trace::{SpanStat, Tracer};

/// Probe every `PROBE_STRIDE`-th slot. Prime, so that probes visit every
/// in-episode position of the 12- and 16-slot horizons (a stride of 16
/// would hit the episode boundary always or never).
pub const PROBE_STRIDE: usize = 17;

/// Span names of the ten phases, in slot order.
pub const PHASES: [&str; 10] = [
    "core.phase.gather",
    "core.phase.switch_stat",
    "core.phase.fused_forward",
    "core.phase.decide_finish",
    "core.phase.coordinate",
    "core.phase.enforce",
    "core.phase.env_step",
    "core.phase.record",
    "core.phase.end_episode",
    "core.phase.update_policy",
];

/// The phases that make up `run_slot_into` (the rest are episode-boundary
/// work the engine does after the round).
const IN_SLOT_PHASES: usize = 8;

const SIBLING_RUN_SLOT: &str = "probe.sibling.run_slot_into";
const SIBLING_STEP_SLOT: &str = "probe.sibling.step_slot";
const SIBLING_RUN_EPOCH: &str = "probe.sibling.run_epoch";

/// What the probes counted (times live in the tracer's spans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeCounts {
    pub probes: u64,
    pub slice_slots: u64,
    pub skipped: u64,
    pub mismatches: u64,
    pub coordination_rounds: u64,
    pub projections: u64,
    pub slots: u64,
}

/// Reusable fused-forward workspaces of the replica slots.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    policy: CellBatch,
    critic: CellBatch,
}

/// One slot on `orch`, phase by phase — the body of the orchestrator's
/// fused slot path, rebuilt from its public pieces. Returns the KPIs.
pub fn decomposed_slot(
    orch: &mut Orchestrator,
    learn: bool,
    mode: CoordinationMode,
    ws: &mut ProbeScratch,
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
) -> Vec<SlotKpi> {
    let n = orch.num_slices();

    let t = tr.begin("core", PHASES[0]);
    let states: Vec<SliceState> = orch.env().envs().iter().map(|e| e.state()).collect();
    let costs: Vec<f64> = orch
        .env()
        .envs()
        .iter()
        .map(|e| e.cumulative_cost())
        .collect();
    {
        let input = ws.policy.input_mut(n, STATE_DIM);
        for (i, state) in states.iter().enumerate() {
            state.write_row(input.row_mut(i));
        }
    }
    tr.end(t);

    let t = tr.begin("core", PHASES[1]);
    let mut statistics = Vec::with_capacity(n);
    for (i, cost) in costs.iter().enumerate() {
        let row = ws.policy.input().row(i);
        statistics.push(orch.agents_mut()[i].decide_phase_switch(row, *cost));
    }
    tr.end(t);

    let t = tr.begin("nn", PHASES[2]);
    ws.critic
        .input_mut(n, STATE_DIM)
        .data_mut()
        .copy_from_slice(ws.policy.input().data());
    let agents = orch.agents();
    ws.policy
        .forward_grouped(|i| agents[i].ppo().policy().mean_net());
    let critic_out = ws.critic.forward_grouped(|i| agents[i].ppo().critic());
    let values: Vec<f64> = (0..n).map(|i| critic_out.row(i)[0]).collect();
    tr.end(t);

    let t = tr.begin("core", PHASES[3]);
    let mut decisions = Vec::with_capacity(n);
    for i in 0..n {
        let mean = ws.policy.output().row(i);
        decisions.push(orch.agents_mut()[i].decide_finish(&states[i], statistics[i], mean, !learn));
    }
    tr.end(t);

    let t = tr.begin("domains", PHASES[4]);
    let proposals: Vec<Action> = decisions.iter().map(|d| d.action).collect();
    let (executed, rounds, projected) = coordinate(orch, &proposals, mode);
    tr.end(t);
    counts.coordination_rounds += rounds as u64;
    counts.projections += u64::from(projected);
    counts.slots += 1;

    let t = tr.begin("domains", PHASES[5]);
    let ids = orch.slice_ids().to_vec();
    for (id, action) in ids.iter().zip(&executed) {
        orch.domains_mut()
            .enforce(*id, *action)
            .expect("active slices are registered with every domain");
    }
    tr.end(t);

    let t = tr.begin("netsim", PHASES[6]);
    let results: Vec<_> = orch
        .env_mut()
        .envs_mut()
        .iter_mut()
        .zip(&executed)
        .map(|(env, action)| env.step(action))
        .collect();
    tr.end(t);

    let t = tr.begin("core", PHASES[7]);
    for (i, agent) in orch.agents_mut().iter_mut().enumerate() {
        agent.record_with_value(
            &states[i],
            &decisions[i],
            &executed[i],
            &results[i].kpi,
            results[i].done,
            values[i],
        );
    }
    tr.end(t);

    results.into_iter().map(|r| r.kpi).collect()
}

/// The orchestrator's coordination loop over the domain set's in-place
/// APIs. Returns the enforceable actions, the interaction count and
/// whether the slot fell through to last-resort projection.
fn coordinate(
    orch: &mut Orchestrator,
    proposals: &[Action],
    mode: CoordinationMode,
) -> (Vec<Action>, usize, bool) {
    match mode {
        CoordinationMode::Projection => {
            let mut executed = proposals.to_vec();
            orch.domains().project_in_place(&mut executed);
            (executed, 1, true)
        }
        CoordinationMode::Modifier {
            max_rounds,
            warm_start,
        } => {
            if !warm_start {
                orch.domains_mut().reset_betas();
            }
            let mut betas = orch.domains().betas();
            let mut executed = Vec::with_capacity(proposals.len());
            let mut rounds = 1;
            loop {
                executed.clear();
                for (a, agent) in proposals.iter().zip(orch.agents_mut().iter_mut()) {
                    executed.push(agent.modify(a, &betas));
                }
                betas = orch.domains_mut().update_coordination_slice(&executed);
                if orch.domains().is_feasible_slice(&executed) || rounds >= max_rounds {
                    break;
                }
                rounds += 1;
            }
            let projected = !orch.domains().is_feasible_slice(&executed);
            if projected {
                orch.domains().project_in_place(&mut executed);
            }
            (executed, rounds, projected)
        }
    }
}

/// The engine's episode-boundary work on the replica: every slice whose
/// episode just ended closes it and updates its policy.
fn close_due_episodes(orch: &mut Orchestrator, tr: &mut Tracer) {
    for index in 0..orch.num_slices() {
        let env = &orch.env().envs()[index];
        if env.slot() >= env.horizon() {
            tr.time("core", PHASES[8], || orch.agents_mut()[index].end_episode());
            tr.time("rl", PHASES[9], || orch.agents_mut()[index].update_policy());
            orch.env_mut().envs_mut()[index].reset();
        }
    }
}

/// Probes the slot `engine` is about to execute. The caller steps the real
/// engine afterwards and hands the KPIs it reported to
/// [`ProbeOutcome::matches`].
pub fn probe_engine_slot(
    engine: &ScenarioEngine,
    ws: &mut ProbeScratch,
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
) -> ProbeOutcome {
    let mode = engine.config().coordination;
    let mut replica = engine.clone();
    let kpis = decomposed_slot(replica.orchestrator_mut(), true, mode, ws, tr, counts);
    close_due_episodes(replica.orchestrator_mut(), tr);

    let mut sibling = engine.clone();
    let mut outcome = Default::default();
    tr.time("core", SIBLING_RUN_SLOT, || {
        sibling.orchestrator_mut().run_slot_into(true, &mut outcome)
    });
    let mut whole = engine.clone();
    tr.time("scenario", SIBLING_STEP_SLOT, || whole.step_slot(&mut ()));

    counts.probes += 1;
    counts.slice_slots += kpis.len() as u64;
    if kpis != outcome.kpis {
        counts.mismatches += 1;
    }
    ProbeOutcome { kpis }
}

/// The replica's KPIs, awaiting the real engine's verdict.
#[derive(Debug)]
pub struct ProbeOutcome {
    kpis: Vec<SlotKpi>,
}

impl ProbeOutcome {
    /// Compares with what the real engine's telemetry recorded for the
    /// slot: `(cost, usage_percent, performance_score)` per slice, bit for
    /// bit. A difference counts as a mismatch.
    pub fn check(self, real: impl Iterator<Item = (f64, f64, f64)>, counts: &mut ProbeCounts) {
        let real: Vec<_> = real.collect();
        let same = real.len() == self.kpis.len()
            && real.iter().zip(&self.kpis).all(|(r, k)| {
                r.0.to_bits() == k.cost.to_bits()
                    && r.1.to_bits() == k.resource_usage_percent().to_bits()
                    && r.2.to_bits() == k.performance_score.to_bits()
            });
        if !same {
            counts.mismatches += 1;
        }
    }
}

/// Probes one learning epoch of a bare orchestrator (`paper-online`): the
/// replica runs `episodes` episodes slot by slot through the phases, closes
/// them and updates every policy; a sibling runs the product's
/// `run_epoch()`, whose metrics the replica must reproduce exactly.
pub fn probe_epoch(
    orch: &Orchestrator,
    episodes: usize,
    mode: CoordinationMode,
    ws: &mut ProbeScratch,
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
) {
    let mut replica = orch.clone();
    let mut metrics = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        replica.env_mut().reset_all();
        let horizon = replica.env().envs()[0].horizon();
        let rounds_before = counts.coordination_rounds;
        for _ in 0..horizon {
            let kpis = decomposed_slot(&mut replica, true, mode, ws, tr, counts);
            counts.slice_slots += kpis.len() as u64;
        }
        let slices = tr.time("core", PHASES[8], || {
            replica
                .agents_mut()
                .iter_mut()
                .map(|a| a.end_episode())
                .collect()
        });
        metrics.push(onslicing_core::EpisodeMetrics {
            slices,
            avg_interactions: (counts.coordination_rounds - rounds_before) as f64 / horizon as f64,
        });
    }
    for agent in replica.agents_mut() {
        tr.time("rl", PHASES[9], || agent.update_policy());
    }
    let mut sibling = orch.clone();
    let expected = tr.time("core", SIBLING_RUN_EPOCH, || sibling.run_epoch());
    counts.probes += 1;
    if onslicing_core::EpochMetrics::from_episodes(&metrics) != expected {
        counts.mismatches += 1;
    }
}

/// The `core.phase.*`, `domains.*` and `scenario.step_overhead_share`
/// metrics, from the phase spans and counters of one traced run.
pub fn ledger_metrics(
    stats: &std::collections::BTreeMap<&'static str, SpanStat>,
    counts: &ProbeCounts,
    out: &mut crate::metrics::MetricSet,
) {
    let total = |name: &str| stats.get(name).map_or(0, |s| s.total_ns) as f64;
    let phase_ns: Vec<f64> = PHASES.iter().map(|p| total(p)).collect();
    let all: f64 = phase_ns.iter().sum();
    let in_slot: f64 = phase_ns[..IN_SLOT_PHASES].iter().sum();
    let slice_slots = counts.slice_slots.max(1) as f64;
    for (phase, ns) in PHASES.iter().zip(&phase_ns) {
        if *phase == PHASES[9] {
            // A policy update is a per-episode event, not a per-slot cost.
            out.set(
                "core.phase.update_policy_ms",
                stats.get(phase).map_or(0.0, |s| s.mean_ms()),
            );
        } else {
            out.set(&format!("{phase}_us"), ns / 1e3 / slice_slots);
        }
        out.set(
            &format!("{phase}_share"),
            if all > 0.0 { ns / all } else { 0.0 },
        );
    }
    // Coverage: the phases against the undivided call they decompose.
    let (covered, whole) = if total(SIBLING_RUN_EPOCH) > 0.0 {
        (all, total(SIBLING_RUN_EPOCH))
    } else {
        (in_slot, total(SIBLING_RUN_SLOT))
    };
    out.set(
        "core.phase.coverage",
        if whole > 0.0 { covered / whole } else { 0.0 },
    );
    out.set("core.phase.mismatches", counts.mismatches as f64);
    out.set("core.phase.probes_skipped", counts.skipped as f64);
    let step = total(SIBLING_STEP_SLOT);
    if step > 0.0 {
        out.set("scenario.step_overhead_share", 1.0 - all / step);
    }
    if counts.slots > 0 {
        out.set(
            "domains.round_us",
            phase_ns[4] / 1e3 / counts.coordination_rounds.max(1) as f64,
        );
        out.set(
            "domains.projection_share",
            counts.projections as f64 / counts.slots as f64,
        );
    }
}

/// Layer probes on replicas of a live engine: the `scenario`, `replay` and
/// pre-training calls no steady slot makes, each in a span. Runs once per
/// traced round, mid-run; `dir` receives (and loses again) one checkpoint
/// file.
pub fn probe_engine_layers(engine: &ScenarioEngine, dir: &std::path::Path, tr: &mut Tracer) {
    use onslicing_replay::{atomic_write, Checkpoint};
    use onslicing_scenario::{ScenarioEvent, SliceSpec};
    use onslicing_slices::SliceKind;

    let slot = engine.current_slot();
    let checkpoint = tr.time("replay", "replay.capture", || Checkpoint::capture(engine));
    let json = tr.time("replay", "replay.to_json", || checkpoint.to_json());
    let path = dir.join("probe-checkpoint.json");
    tr.time("replay", "replay.atomic_write", || {
        atomic_write(&path, &json).expect("checkpoint file is writable")
    });
    let parsed = tr.time("replay", "replay.from_json", || {
        Checkpoint::from_json(&json).expect("a checkpoint just written parses")
    });
    let mut replica = tr.time("replay", "replay.restore", || parsed.restore());
    let _ = std::fs::remove_file(&path);

    let spec = SliceSpec::new(SliceKind::Mar);
    let admitted = tr.time("scenario", "scenario.admit", || {
        replica.force_admit(&spec, slot)
    });
    tr.time("scenario", "scenario.teardown", || {
        replica
            .inject_event(&ScenarioEvent::TeardownSlice { slice: admitted.0 }, &mut ())
            .expect("a teardown event is valid")
    });
    let Some(first) = replica.orchestrator().slice_ids().first().copied() else {
        return;
    };
    let mut host = engine.clone();
    tr.time("scenario", "scenario.extract_inject", || {
        let migration = replica
            .extract_slice(first.0, slot)
            .expect("the first active slice can be extracted");
        host.inject_slice(migration, slot)
            .expect("a migrated slice can be injected")
    });
    // The slice just migrated into `host` carries a complete agent and
    // environment: export it and pre-train it again, alone.
    let moved = *host
        .orchestrator()
        .slice_ids()
        .last()
        .expect("just injected");
    let mut slice = host
        .orchestrator_mut()
        .export_slice(moved)
        .expect("the injected slice can be exported");
    let episodes = engine.config().pretrain_episodes;
    tr.time("core", "core.offline_pretrain", || {
        slice.agent.offline_pretrain(&mut slice.env, episodes)
    });
}
