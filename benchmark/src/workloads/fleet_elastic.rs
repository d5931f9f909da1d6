//! `fleet-elastic`: long uptime of an in-process elastic fleet.
//!
//! Three cells on two threads (so the slowest cell sets every window), a
//! load hotspot that moves to the next cell every 48 slots so the balancer
//! keeps migrating, and the daemon's serve loop replayed exactly:
//! `advance_to(slot + 1)` per slot, a crash-safe checkpoint plus retention
//! sweep every 24 slots, and once per round the live fleet *replaced* by
//! what `FleetCheckpoint::load(..).restore()` makes of the file just
//! written. This is the only place checkpoint cost and size growth,
//! telemetry growth, sync rounds and migrations can show.

use std::collections::BTreeSet;
use std::time::Instant;

use onslicing_fleet::{ElasticFleet, ElasticFleetConfig, FleetCheckpoint};
use onslicing_replay::{atomic_write, checkpoint_file_name, gc_checkpoint_dir};
use onslicing_scenario::{FleetScenario, Scenario, ScenarioEvent, SliceSpec};
use onslicing_slices::SliceKind;

use super::single_cell::busy_slots;
use super::{Cx, Round};
use crate::probe::{probe_engine_layers, probe_engine_slot, PROBE_STRIDE};
use crate::stats::{digest, mean};

pub const CELLS: usize = 3;
/// Slots between hotspot moves.
const ROTATION: usize = 48;
/// Hotspot moves per round (ISSUE 11 sized one run of 1 008 slots at 22 s;
/// a round is 240 slots and rounds repeat).
const ROTATIONS: usize = 5;
/// Resident slices per cell.
const RESIDENTS: u32 = 3;
/// Slots between checkpoints — three times the daemon's default cadence of
/// 8, at which serialisation alone would be half of wall time.
const CHECKPOINT_EVERY: usize = 24;
/// Checkpoints kept by the retention sweep.
const RETAIN: usize = 2;

pub fn generate(seed: u64, quick: bool) -> (FleetScenario, ElasticFleetConfig) {
    let rotations = if quick { 1 } else { ROTATIONS };
    // The `hotspot-shift` shape with one resident fewer per cell, so that
    // the cool cells have room for what the balancer drains off the hot one.
    let mut base = Scenario::new("fleet-elastic", 12, rotations * ROTATION).with_capacity(1.8);
    for kind in SliceKind::ALL.iter().take(RESIDENTS as usize) {
        base = base.slice(SliceSpec::new(*kind));
    }
    let mut fleet = FleetScenario::new(base, CELLS)
        .describe("A hotspot rotating over 3 cells every 48 slots; the balancer keeps draining it");
    for r in 0..rotations {
        let hot = (r % CELLS) as u32;
        let at = r * ROTATION;
        // Two extra tenants squeeze the hot cell and its residents surge...
        for k in 0..2 {
            fleet = fleet.at_cell(
                at + 2,
                hot,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::ALL[(r + k) % 3]),
                },
            );
        }
        for slice in 0..RESIDENTS {
            fleet = fleet.at_cell(
                at + 4,
                hot,
                ScenarioEvent::SetTrafficScale { slice, scale: 1.5 },
            );
            if r > 0 {
                // ...while the previous hotspot cools down.
                let previous = ((r - 1) % CELLS) as u32;
                fleet = fleet.at_cell(
                    at + 4,
                    previous,
                    ScenarioEvent::SetTrafficScale { slice, scale: 1.0 },
                );
            }
        }
        // One tenant arrives through the fleet router and one resident of
        // the cell after the hotspot leaves, so the population stays level.
        fleet = fleet
            .fleet_admit(at + 18, SliceSpec::new(SliceKind::ALL[r % 3]))
            .at_cell(
                at + 30,
                ((r + 1) % CELLS) as u32,
                ScenarioEvent::TeardownSlice {
                    slice: (r / CELLS) as u32,
                },
            );
    }
    (fleet, ElasticFleetConfig::new(CELLS).with_seed(seed))
}

pub fn generated_json(seed: u64, quick: bool) -> String {
    let (fleet, config) = generate(seed, quick);
    format!(
        "{{\"fleet_scenario\":{},\"cells\":{},\"master_seed\":{}}}",
        fleet.to_json(),
        config.cells,
        config.base.seed
    )
}

pub fn round(cx: &mut Cx<'_>) -> Round {
    let mut r = Round::default();
    let (scenario, config) = generate(cx.seed, cx.quick);
    let total = scenario.base.total_slots;
    let traced = cx.tracer.enabled();
    let dir = cx.dir.join(format!("fleet-{}", cx.round));
    std::fs::create_dir_all(&dir).expect("the benchmark's out directory is writable");

    // A window that *reaches* a routed-admission slot ends in fleet-layer
    // work (the admitted slice is built and pre-trained there).
    let routed: BTreeSet<usize> = scenario.fleet_admissions().iter().map(|a| a.0).collect();
    // Slots that begin with a cell event: no phase probe there. (Balancer
    // rounds run at the end of the window before, so they disturb none.)
    let busy: Vec<BTreeSet<usize>> = (0..CELLS as u32)
        .map(|c| busy_slots(&scenario.scenario_for_cell(c)))
        .collect();

    let setup = Instant::now();
    let mut fleet = cx.tracer.time("fleet", "fleet.new", || {
        ElasticFleet::new(scenario, config).expect("the generated fleet scenario is valid")
    });
    r.setups_s.push(setup.elapsed().as_secs_f64());

    let measured = Instant::now();
    let mut sizes_mb = Vec::new();
    for slot in 0..total {
        cx.tracer.set_op(slot as u64);
        let mut probe = None;
        if traced && slot % PROBE_STRIDE == PROBE_STRIDE / 2 {
            let cell = (slot / PROBE_STRIDE) % CELLS;
            if busy[cell].contains(&slot) {
                cx.probes.skipped += 1;
            } else {
                let engine = &fleet.cells()[cell].engine;
                probe = Some((
                    cell,
                    probe_engine_slot(engine, cx.scratch, cx.tracer, cx.probes),
                ));
            }
        }
        if traced && slot == total / 2 + 1 {
            probe_engine_layers(&fleet.cells()[0].engine, &dir, cx.tracer);
        }
        let start = Instant::now();
        let reached = cx
            .tracer
            .time("fleet", "fleet.advance_to", || fleet.advance_to(slot + 1));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        r.sample("slot_ms", ms);
        if routed.contains(&(slot + 1)) {
            r.sample("routed_window_ms", ms);
        }
        r.check(reached == Ok(slot + 1), || {
            format!("advance_to({}) returned {reached:?}", slot + 1)
        });
        if let Some((cell, probe)) = probe {
            let real = fleet.cells()[cell]
                .recorder
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

        let at = slot + 1;
        if at % CHECKPOINT_EVERY != 0 {
            continue;
        }
        let path = dir.join(checkpoint_file_name(at));
        let start = Instant::now();
        let (saved, json_len) = if traced {
            // `save` taken apart: clone, serialise, write.
            let checkpoint = cx
                .tracer
                .time("fleet", "fleet.checkpoint_clone", || fleet.checkpoint());
            let json = cx
                .tracer
                .time("fleet", "fleet.checkpoint_to_json", || checkpoint.to_json());
            let saved = cx.tracer.time("replay", "replay.atomic_write", || {
                atomic_write(&path, &json)
            });
            if at == total / 2 {
                // The restore the untraced pass performs for real, on the side.
                let restored = cx.tracer.time("fleet", "fleet.restore", || {
                    FleetCheckpoint::from_json(&json).and_then(FleetCheckpoint::restore)
                });
                r.check(restored.is_ok(), || {
                    "a fleet checkpoint did not restore".to_string()
                });
            }
            (saved, json.len())
        } else {
            let saved = fleet.checkpoint().save(&path);
            (
                saved,
                std::fs::metadata(&path).map_or(0, |m| m.len() as usize),
            )
        };
        let swept = gc_checkpoint_dir(&dir, RETAIN);
        r.sample("checkpoint_ms", start.elapsed().as_secs_f64() * 1e3);
        r.check(saved.is_ok() && swept.is_ok(), || {
            format!("checkpoint at slot {at}: {saved:?} {swept:?}")
        });
        sizes_mb.push(json_len as f64 / 1e6);

        // Resume is exact, or the two passes' digests differ: only the
        // untraced pass swaps the restored fleet in.
        if !traced && at == total / 2 {
            let start = Instant::now();
            let restored = FleetCheckpoint::load(&path).and_then(FleetCheckpoint::restore);
            r.sample("resume_s", start.elapsed().as_secs_f64());
            r.check(restored.is_ok(), || format!("restore at slot {at} failed"));
            if let Ok(restored) = restored {
                fleet = restored;
            }
        }
    }
    r.measured_s = measured.elapsed().as_secs_f64();

    let outcome = cx
        .tracer
        .time("fleet", "fleet.finish", || fleet.finish(r.measured_s * 1e3))
        .expect("a complete fleet finishes");
    let _ = std::fs::remove_dir_all(&dir);
    let report = &outcome.report;
    r.slice_slots = report.slice_slots as u64;
    r.check(!report.has_non_finite(), || {
        "the fleet report holds a non-finite value".to_string()
    });
    let lifetime: usize = outcome
        .cells
        .iter()
        .flat_map(|c| &c.report.slices)
        .map(|s| s.torn_down_at_slot.unwrap_or(total) - s.admitted_at_slot)
        .sum();
    r.check(lifetime == report.slice_slots, || {
        format!(
            "per-slice lifetimes sum to {lifetime} slots, the report counts {}",
            report.slice_slots
        )
    });
    let usage: f64 = outcome
        .cells
        .iter()
        .map(|c| c.report.avg_slot_usage_percent * c.report.slice_slots as f64)
        .sum();
    let rounds: f64 = outcome
        .cells
        .iter()
        .map(|c| c.report.avg_coordination_rounds)
        .sum();
    let count = |f: fn(&onslicing_scenario::ScenarioReport) -> usize| -> f64 {
        outcome.cells.iter().map(|c| f(&c.report)).sum::<usize>() as f64
    };
    r.exact
        .insert("usage_pct", usage / report.slice_slots.max(1) as f64);
    r.exact
        .insert("sla_violation_pct", report.sla_violation_percent);
    r.exact
        .insert("domains.rounds_per_slot", rounds / CELLS as f64);
    r.exact
        .insert("scenario.events_applied", count(|c| c.events_applied));
    r.exact
        .insert("scenario.admissions_denied", count(|c| c.admissions_denied));
    r.exact
        .insert("fleet.migrations", report.migrations.len() as f64);
    r.exact.insert(
        "fleet.admissions_granted",
        report.fleet_admissions_granted as f64,
    );
    r.exact.insert(
        "fleet.admissions_denied",
        report.fleet_admissions_denied as f64,
    );

    if let (Some(first), Some(last)) = (sizes_mb.first(), sizes_mb.last()) {
        r.values.insert("checkpoint_mb", *last);
        r.values.insert("fleet.checkpoint_mb_first", *first);
        r.values.insert("fleet.checkpoint_mb_last", *last);
        r.values.insert("fleet.checkpoint_growth", last / first);
    }
    // Per-cell busy time against the windows' wall: who set the pace, and
    // how much of two threads three cells kept busy.
    let busy_ms: Vec<f64> = outcome
        .cells
        .iter()
        .map(|c| c.slot_latencies_ms.iter().sum())
        .collect();
    let advance_ms: f64 = r.series["slot_ms"].iter().sum();
    let threads = crate::envinfo::rayon_threads().min(CELLS) as f64;
    r.values.insert(
        "fleet.cell_skew",
        busy_ms.iter().copied().fold(0.0, f64::max) / mean(&busy_ms).max(f64::MIN_POSITIVE),
    );
    r.values.insert(
        "fleet.parallel_efficiency",
        busy_ms.iter().sum::<f64>() / (threads * advance_ms).max(f64::MIN_POSITIVE),
    );

    // What fleet-layer work adds to the window it ends: a routed admission
    // against the median window. (Balancer rounds always share their window
    // with the episode boundary and cannot be told apart from outside.)
    let routed_ms = r.series.remove("routed_window_ms").unwrap_or_default();
    r.values.insert(
        "fleet.sync_ms",
        (mean(&routed_ms) - crate::stats::median(&r.series["slot_ms"])).max(0.0),
    );

    let json = outcome.trace.to_json();
    r.values.insert("replay.trace_mb", json.len() as f64 / 1e6);
    r.digest = digest(json.as_bytes());
    r
}
