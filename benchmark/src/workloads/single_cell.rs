//! The round shared by the two single-cell workloads: a `ScenarioEngine`
//! stepped slot by slot with a `TelemetryRecorder` attached.

use std::collections::BTreeSet;
use std::time::Instant;

use onslicing_replay::TelemetryRecorder;
use onslicing_scenario::{
    EpisodeEndEvent, Scenario, ScenarioConfig, ScenarioEngine, ScenarioEvent, SlotObserver,
    SlotSample,
};

use super::{Cx, Round};
use crate::probe::{probe_engine_layers, probe_engine_slot, PROBE_STRIDE};
use crate::stats::digest;
use crate::trace::Tracer;

/// The slots a phase probe must leave alone: a scripted event or the end
/// of a transient (burst, fault) changes the deployment before the round,
/// which the replica's bare orchestration round would not reproduce.
pub fn busy_slots(scenario: &Scenario) -> BTreeSet<usize> {
    let mut busy = BTreeSet::new();
    for timed in &scenario.events {
        busy.insert(timed.at_slot);
        match timed.event {
            ScenarioEvent::TrafficBurst { duration_slots, .. }
            | ScenarioEvent::DomainFault { duration_slots, .. } => {
                busy.insert(timed.at_slot + duration_slots);
            }
            _ => {}
        }
    }
    busy
}

/// The recorder behind a span per `on_slot`, for the traced run.
struct TimedObserver<'a> {
    inner: &'a mut TelemetryRecorder,
    tracer: &'a mut Tracer,
}

impl SlotObserver for TimedObserver<'_> {
    fn on_slot(&mut self, samples: &[SlotSample]) {
        let inner = &mut *self.inner;
        self.tracer
            .time("replay", "replay.on_slot", || inner.on_slot(samples));
    }

    fn on_episode_end(&mut self, event: &EpisodeEndEvent) {
        self.inner.on_episode_end(event);
    }
}

/// Set-ups a round times.
const SETUPS: usize = 4;

/// One round: build the engine, step every slot (timed), finish, check.
pub fn engine_round(cx: &mut Cx<'_>, scenario: Scenario, config: ScenarioConfig) -> Round {
    let mut r = Round::default();
    let busy = busy_slots(&scenario);
    let total = scenario.total_slots;

    // The set-up is 15-60 ms on two threads, short enough for where the
    // scheduler happens to put them to decide a sample: time several, run
    // the last.
    let mut built = None;
    for _ in 0..SETUPS {
        let scenario = scenario.clone();
        let setup = Instant::now();
        let token = cx.tracer.begin("scenario", "scenario.engine_new");
        let engine =
            ScenarioEngine::new(scenario, config).expect("the generated scenario is valid");
        let recorder = TelemetryRecorder::new(&engine);
        cx.tracer.end(token);
        r.setups_s.push(setup.elapsed().as_secs_f64());
        built = Some((engine, recorder));
    }
    let (mut engine, mut recorder) = built.expect("a round sets up at least once");

    let traced = cx.tracer.enabled();
    let measured = Instant::now();
    for slot in 0..total {
        cx.tracer.set_op(slot as u64);
        let mut probe = None;
        if traced && slot % PROBE_STRIDE == PROBE_STRIDE / 2 {
            if busy.contains(&slot) {
                cx.probes.skipped += 1;
            } else {
                probe = Some(probe_engine_slot(&engine, cx.scratch, cx.tracer, cx.probes));
            }
        }
        if traced && slot == total / 2 {
            probe_engine_layers(&engine, &cx.dir, cx.tracer);
        }
        let slices_before = engine.orchestrator().num_slices();
        let start = Instant::now();
        if traced {
            let token = cx.tracer.begin("scenario", "scenario.step_slot");
            engine.step_slot(&mut TimedObserver {
                inner: &mut recorder,
                tracer: cx.tracer,
            });
            cx.tracer.end(token);
        } else {
            engine.step_slot(&mut recorder);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        r.sample("slot_ms", ms);
        // Teardowns never share a slot with an admission in the generated
        // timelines, so a grown cell means this slot granted one.
        if engine.orchestrator().num_slices() > slices_before {
            r.sample("admit_ms", ms);
        }
        if let Some(probe) = probe {
            let real = recorder
                .slots()
                .last()
                .filter(|s| s.slot == slot)
                .map(|s| s.slices.as_slice())
                .unwrap_or_default();
            probe.check(
                real.iter()
                    .map(|s| (s.cost, s.usage_percent, s.performance_score)),
                cx.probes,
            );
        }
    }
    r.measured_s = measured.elapsed().as_secs_f64();
    r.ok(total as u64);

    let report = engine.run_with_observer(&mut recorder);
    r.slice_slots = report.slice_slots as u64;
    r.check(!report.has_non_finite(), || {
        "the scenario report holds a non-finite value".to_string()
    });
    let lifetime: usize = report
        .slices
        .iter()
        .map(|s| s.torn_down_at_slot.unwrap_or(total) - s.admitted_at_slot)
        .sum();
    r.check(lifetime == report.slice_slots, || {
        format!(
            "per-slice lifetimes sum to {lifetime} slots, the report counts {}",
            report.slice_slots
        )
    });
    r.exact.insert("usage_pct", report.avg_slot_usage_percent);
    r.exact
        .insert("sla_violation_pct", report.sla_violation_percent);
    r.exact
        .insert("scenario.events_applied", report.events_applied as f64);
    r.exact.insert(
        "scenario.admissions_denied",
        report.admissions_denied as f64,
    );
    r.exact
        .insert("domains.rounds_per_slot", report.avg_coordination_rounds);

    let trace = cx
        .tracer
        .time("replay", "replay.trace_finalize", || recorder.finalize());
    let json = trace.to_json();
    r.values.insert("replay.trace_mb", json.len() as f64 / 1e6);
    r.digest = digest(json.as_bytes());
    r
}

/// The generated input as JSON: the scenario file plus the run's tuning.
pub fn input_json(scenario: &Scenario, config: &ScenarioConfig) -> String {
    format!(
        "{{\"scenario\":{},\"config\":{}}}",
        scenario.to_json(),
        serde_json::to_string(config).expect("a scenario config serialises")
    )
}
