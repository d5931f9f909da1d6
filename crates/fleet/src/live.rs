//! The elastic fleet: the one fleet runner, an externally drivable,
//! checkpointable state machine.
//!
//! A batch caller runs a whole [`FleetScenario`] with
//! [`ElasticFleet::run`]; a long-running service cannot — it must advance
//! the fleet in bounded windows, apply control requests (admissions,
//! teardowns, SLA renegotiations) between them, snapshot itself on a
//! cadence and survive a stop → restart cycle bit-for-bit. Both drive the
//! same machine:
//!
//! * [`ElasticFleet::advance_to`] steps every cell rayon-parallel to the
//!   next **sync point** (a balancer cadence boundary, a scripted
//!   fleet-admission slot, or the caller's target), then runs the
//!   sequential fleet layer there: scripted admissions are routed to the
//!   least-utilized cell that passes its admission check, then
//!   [`rebalance`] migrates slices away from overloaded cells. Every
//!   sync point is a pure function of deterministic state, so the
//!   [`FleetTrace`] — migrations included — is byte-identical across rayon
//!   worker counts and across any choice of window boundaries, and a run
//!   whose balancer plans nothing is byte-identical to cells that never
//!   synchronized at all.
//! * [`ElasticFleet::admit`] / [`ElasticFleet::inject_cell_event`] apply
//!   live control between windows through the same admission-reservation
//!   rule ([`ScenarioEngine::check_admission`]) the scripted paths use, so
//!   a fleet driven by a logged request stream is bit-for-bit a fleet with
//!   those events spliced into the timeline.
//! * The live fleet **is** its own checkpoint: everything that defines the
//!   run — the scenario and tuning, every cell's deployment, telemetry
//!   recorder and rebalancing-window baseline, the scripted-timeline cursor
//!   and the admission counters — is declared once, in [`FleetCheckpoint`],
//!   and the machine owns one. Each fact is stored once: the scenario name,
//!   master seed and length are read off the scenario and config, the
//!   current slot off the cells, a cell's number is its position and its
//!   seed its engine's. [`ElasticFleet::checkpoint`] lends it (serialising
//!   reads the live state, nothing is copied); [`FleetCheckpoint::restore`]
//!   validates a loaded one and wraps it, and the run continues
//!   byte-exactly.
//!
//! ## Sync-point invariant
//!
//! At every public API boundary (after `new`, `advance_to` or `restore`),
//! all internal sync points at slots `<=` the current slot have been
//! processed. That makes the processed-sync cursor a pure function of the
//! current slot, so checkpoints don't store it and a restored fleet cannot
//! re-run (or skip) a balancer round.

use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use onslicing_core::OnSlicingAgent;
use onslicing_replay::{atomic_write, from_versioned_json, TelemetryRecorder};
use onslicing_scenario::{
    FleetScenario, LiveEventOutcome, ScenarioConfig, ScenarioEngine, ScenarioEvent, SliceSpec,
};

use crate::balancer::{cell_utilization, rebalance, BalancerConfig, CellRuntime, MigrationRecord};
use crate::{
    aggregate_fleet, CellOutcome, CellTraceEntry, FleetOutcome, FleetTrace,
    FLEET_TRACE_FORMAT_VERSION,
};

/// Version stamp of the fleet-checkpoint JSON layout; bump on breaking
/// changes so stale files fail loudly instead of mis-restoring.
///
/// v2: the Bayesian cost predictor samples pre-activations instead of
/// weights, so a v1 checkpoint would resume onto a different RNG draw
/// sequence than its writer would have produced; it is refused instead.
///
/// v3: the agents' `N(0, 1)` sampler is a ziggurat with value-dependent
/// word consumption; a v2 checkpoint (Box–Muller, two words a draw) is
/// refused for the same reason.
///
/// v4: layer scratch (gradients, the last weight draw) and the estimator's
/// optimiser are no longer part of the layout.
///
/// v5: an engine no longer carries a second copy of its admission tuning
/// (`engine.admission`); `engine.config.admission` is the only one.
///
/// v6: no fact is stored twice. The header (`scenario_name`, `master_seed`,
/// `slot`, `total_slots`), each cell's `cell` and `seed` and the balancer
/// block are gone; a cell carries its own window baseline; an engine's four
/// domain managers share one slice registry; a slice's episode averages are
/// a count and two running sums instead of two growing lists.
///
/// v7: an engine stores its inputs once and reads no clock (run counters
/// instead of a half-built report, no factory or `baseline_buckets` copies);
/// an agent's episode lists are running sums.
pub const FLEET_CHECKPOINT_FORMAT_VERSION: u32 = 7;

/// Tuning of an elastic fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticFleetConfig {
    /// Number of cells.
    pub cells: usize,
    /// Base per-cell configuration; `base.seed` is the fleet master seed.
    pub base: ScenarioConfig,
    /// Balancer tuning (disable for the frozen-sharding control arm).
    pub balancer: BalancerConfig,
}

impl ElasticFleetConfig {
    /// An elastic fleet of `cells` cells with default tuning.
    pub fn new(cells: usize) -> Self {
        Self {
            cells,
            base: ScenarioConfig::default(),
            balancer: BalancerConfig::default(),
        }
    }

    /// Replaces the fleet master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }

    /// Replaces the balancer tuning.
    pub fn with_balancer(mut self, balancer: BalancerConfig) -> Self {
        self.balancer = balancer;
        self
    }
}

/// A running elastic fleet that can be driven from outside: stepped in
/// windows, fed live control requests at window boundaries, checkpointed
/// and resumed. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct ElasticFleet {
    /// The whole serialisable machine.
    state: FleetCheckpoint,
    /// Internal sync points (balancer cadence boundaries and scripted
    /// fleet-admission slots, plus the scenario end), ascending. A pure
    /// function of the scenario and config — never serialized.
    sync_points: Vec<usize>,
    /// First entry of `sync_points` strictly above the current slot.
    next_sync: usize,
}

impl ElasticFleet {
    /// Checks that `scenario` and `config` form a buildable fleet.
    fn validate(scenario: &FleetScenario, config: &ElasticFleetConfig) -> Result<(), String> {
        scenario.validate()?;
        config.balancer.validate()?;
        if config.cells == 0 {
            return Err("an elastic fleet needs at least one cell".to_string());
        }
        if config.cells < scenario.min_cells {
            return Err(format!(
                "fleet scenario `{}` needs at least {} cells, configured {}",
                scenario.name, scenario.min_cells, config.cells
            ));
        }
        if config.cells > u32::MAX as usize {
            return Err("cell count exceeds the u32 cell-index space".to_string());
        }
        Ok(())
    }

    /// Validates the scenario and tuning, builds every cell (in parallel —
    /// construction is per-cell work like everything else) and processes
    /// any fleet-layer work scheduled at slot 0.
    pub fn new(scenario: FleetScenario, config: ElasticFleetConfig) -> Result<Self, String> {
        Self::validate(&scenario, &config)?;
        let total_slots = scenario.base.total_slots;
        // Cell timelines may reference ids only a fleet-routed admission
        // assigns; the engines must validate with that slack, exactly like
        // `FleetScenario::validate` does for the materialized scenarios.
        let admission_slack = scenario.fleet_admissions().len();
        let cells: Result<Vec<CellRuntime>, String> = (0..config.cells)
            .into_par_iter()
            .map(|i| {
                let cell = i as u32;
                let cell_config = config.base.for_cell(cell);
                let engine = ScenarioEngine::with_admission_slack(
                    scenario.scenario_for_cell(cell),
                    cell_config,
                    admission_slack,
                )?;
                let recorder = TelemetryRecorder::new(&engine);
                Ok(CellRuntime::new(engine, recorder, total_slots))
            })
            .collect();
        let cells = cells?;
        let mut fleet = Self {
            sync_points: compute_sync_points(&scenario, &config),
            // Unlike a restored fleet's cursor (past every sync point at or
            // before its slot), a fresh one starts *at* the first sync
            // point: fleet-layer work scheduled at slot 0 (a scripted
            // admission, typically) runs before the caller sees the fleet.
            next_sync: 0,
            state: FleetCheckpoint {
                format_version: FLEET_CHECKPOINT_FORMAT_VERSION,
                scenario,
                config,
                cells,
                migrations: Vec::new(),
                next_admission: 0,
                fleet_admissions_granted: 0,
                fleet_admissions_denied: 0,
            },
        };
        fleet.process_due_syncs()?;
        Ok(fleet)
    }

    /// Builds the fleet, runs it start to finish and aggregates the outcome,
    /// measuring the wall clock the report's throughput fields are over. For
    /// a fleet driven in windows (the service daemon), call
    /// [`ElasticFleet::new`], [`ElasticFleet::advance_to`] and
    /// [`ElasticFleet::finish`] yourself.
    pub fn run(
        scenario: FleetScenario,
        config: ElasticFleetConfig,
    ) -> Result<FleetOutcome, String> {
        // detlint: allow(wall-clock) -- report-only: wall_clock_ms lands in
        // FleetReport; FleetTrace (the byte-compared artifact) excludes it.
        let start = Instant::now();
        let mut fleet = Self::new(scenario, config)?;
        fleet.advance_to(fleet.total_slots())?;
        fleet.finish(start.elapsed().as_secs_f64() * 1_000.0)
    }

    /// The fleet scenario.
    pub fn scenario(&self) -> &FleetScenario {
        &self.state.scenario
    }

    /// The fleet configuration.
    pub fn config(&self) -> &ElasticFleetConfig {
        &self.state.config
    }

    /// The current global slot; all cells are aligned on it at every public
    /// API boundary.
    pub fn slot(&self) -> usize {
        self.state.slot()
    }

    /// Scheduled end of the scenario, in slots.
    pub fn total_slots(&self) -> usize {
        self.state.scenario.base.total_slots
    }

    /// Whether every scheduled slot has executed.
    pub fn is_complete(&self) -> bool {
        self.slot() >= self.total_slots()
    }

    /// The live cells, in cell order.
    pub fn cells(&self) -> &[CellRuntime] {
        &self.state.cells
    }

    /// Migrations applied so far, in application order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.state.migrations
    }

    /// Fleet-routed admissions granted so far (scripted and live alike).
    pub fn fleet_admissions_granted(&self) -> usize {
        self.state.fleet_admissions_granted
    }

    /// Fleet-routed admissions denied fleet-wide so far.
    pub fn fleet_admissions_denied(&self) -> usize {
        self.state.fleet_admissions_denied
    }

    /// Total active slices across the fleet.
    pub fn active_slices(&self) -> usize {
        self.state
            .cells
            .iter()
            .map(|c| c.engine.orchestrator().num_slices())
            .sum()
    }

    /// Deterministic per-cell utilization (worst-resource enforced share),
    /// in cell order.
    pub fn cell_utilizations(&self) -> Vec<f64> {
        self.state
            .cells
            .iter()
            .map(|c| cell_utilization(&c.engine))
            .collect()
    }

    /// Runs the sequential fleet layer of every sync point due at or before
    /// the current slot: scripted fleet admissions first, then the balancer
    /// round when the sync sits on the cadence. The scenario-end pseudo-sync
    /// does no fleet work.
    fn process_due_syncs(&mut self) -> Result<(), String> {
        let slot = self.slot();
        let total_slots = self.total_slots();
        let state = &mut self.state;
        while self.next_sync < self.sync_points.len() && self.sync_points[self.next_sync] <= slot {
            let sync = self.sync_points[self.next_sync];
            self.next_sync += 1;
            if sync >= total_slots {
                continue;
            }
            let admissions = state.scenario.fleet_admissions();
            while state.next_admission < admissions.len()
                && admissions[state.next_admission].0 <= sync
            {
                let (_, spec) = admissions[state.next_admission];
                state.next_admission += 1;
                match route_fleet_admission(&mut state.cells, &spec, sync) {
                    Some(_) => state.fleet_admissions_granted += 1,
                    None => state.fleet_admissions_denied += 1,
                }
            }
            // The cadence schedule starts at `1 * cadence_slots` (see
            // `compute_sync_points`); `sync == 0` only ever appears here
            // because a scripted fleet admission sits at slot 0, and slot 0
            // satisfies `is_multiple_of` for every cadence — without the
            // guard that admission would trigger an unscheduled balancer
            // round before any slot has executed.
            if state.config.balancer.enabled
                && sync > 0
                && sync.is_multiple_of(state.config.balancer.cadence_slots)
            {
                let migrated = rebalance(&state.config.balancer, sync, &mut state.cells)?;
                state.migrations.extend(migrated);
            }
        }
        Ok(())
    }

    /// Advances the fleet to global slot `target` (clamped to the scenario
    /// end): windows of rayon-parallel per-cell stepping separated by the
    /// sequential fleet layer at every internal sync point on the way.
    /// Returns the slot actually reached. A `target` at or below the
    /// current slot is a no-op.
    pub fn advance_to(&mut self, target: usize) -> Result<usize, String> {
        let target = target.min(self.total_slots());
        loop {
            self.process_due_syncs()?;
            let slot = self.slot();
            if slot >= target {
                return Ok(slot);
            }
            let stop = self
                .sync_points
                .get(self.next_sync)
                .copied()
                .unwrap_or(self.total_slots())
                .min(target);
            self.state.cells.par_iter_mut().for_each(|c| {
                while c.engine.current_slot() < stop {
                    // detlint: allow(wall-clock) -- report-only: slot
                    // latencies land in CellOutcome::slot_latencies_ms; every
                    // balancer plan reads deterministic signals only.
                    let slot_start = Instant::now();
                    c.engine.step_slot(&mut c.recorder);
                    c.slot_latencies_ms
                        .push(slot_start.elapsed().as_secs_f64() * 1_000.0);
                }
            });
        }
    }

    /// Admits a slice at the current window boundary through the fleet
    /// admission controller: cells are tried least-utilized first and the
    /// slice lands on the first whose own reservation-aware admission check
    /// accepts it. Returns the hosting `(cell, slice_id)` pair, or `None`
    /// for a fleet-wide denial. Counted alongside the scripted fleet
    /// admissions.
    pub fn admit(&mut self, spec: &SliceSpec) -> Option<(u32, u32)> {
        let slot = self.slot();
        // A fleet at its scenario end executes no further slots, so a
        // slice granted here would never run (and its zero-slot episode
        // would pollute the final aggregation): deny fleet-wide.
        if self.is_complete() {
            self.state.fleet_admissions_denied += 1;
            return None;
        }
        match route_fleet_admission(&mut self.state.cells, spec, slot) {
            Some(placement) => {
                self.state.fleet_admissions_granted += 1;
                Some(placement)
            }
            None => {
                self.state.fleet_admissions_denied += 1;
                None
            }
        }
    }

    /// Applies one scenario event to a specific cell at the current window
    /// boundary, exactly as if the cell's timeline had scheduled it here
    /// (slice ids are the target cell's own). Denials and skips are
    /// outcomes; an unknown cell or invalid event is an error.
    pub fn inject_cell_event(
        &mut self,
        cell: u32,
        event: &ScenarioEvent,
    ) -> Result<LiveEventOutcome, String> {
        let cells = &mut self.state.cells;
        let count = cells.len();
        let c = cells
            .get_mut(cell as usize)
            .ok_or_else(|| format!("no such cell {cell} (fleet has {count})"))?;
        c.engine.inject_event(event, &mut c.recorder)
    }

    /// Lends the complete fleet state as a versioned checkpoint: the
    /// machine's own state value, read in place — `fleet.checkpoint().save(..)`
    /// and `.to_json()` serialise the live fleet without copying it (clone
    /// the [`ElasticFleet`] itself for a throwaway copy). Call between
    /// windows, never from inside an observer callback.
    pub fn checkpoint(&self) -> &FleetCheckpoint {
        &self.state
    }

    /// Closes every cell's final partial episodes and aggregates the fleet
    /// outcome — trace, report, per-cell breakdown. Only a complete fleet
    /// can finish; a service that stops early checkpoints instead.
    /// `wall_clock_ms` is the caller-measured wall time of the run (report
    /// only; zero is fine for resumed service runs where it is meaningless).
    pub fn finish(self, wall_clock_ms: f64) -> Result<FleetOutcome, String> {
        if !self.is_complete() {
            return Err(format!(
                "cannot finish an incomplete fleet run (slot {} of {})",
                self.slot(),
                self.total_slots()
            ));
        }
        let state = self.state;
        let outcomes: Result<Vec<CellOutcome>, String> = state
            .cells
            .into_par_iter()
            .enumerate()
            .map(|(i, mut c)| {
                let (cell, seed) = (i as u32, c.engine.config().seed);
                let report = c.engine.run_with_observer(&mut c.recorder);
                if report.has_non_finite() {
                    return Err(format!(
                        "cell {cell} (seed {seed}) produced non-finite metrics"
                    ));
                }
                Ok(CellOutcome {
                    cell,
                    seed,
                    report,
                    trace: c.recorder.finalize(),
                    slot_latencies_ms: c.slot_latencies_ms,
                })
            })
            .collect();
        let outcomes = outcomes?;
        let master_seed = state.config.base.seed;
        let mut report =
            aggregate_fleet(&state.scenario.name, master_seed, &outcomes, wall_clock_ms);
        report.migrations = state.migrations;
        report.fleet_admissions_granted = state.fleet_admissions_granted;
        report.fleet_admissions_denied = state.fleet_admissions_denied;
        let trace = FleetTrace {
            format_version: FLEET_TRACE_FORMAT_VERSION,
            scenario: state.scenario.name,
            master_seed,
            cells: outcomes
                .iter()
                .map(|c| CellTraceEntry {
                    cell: c.cell,
                    seed: c.seed,
                    trace: c.trace.clone(),
                })
                .collect(),
        };
        Ok(FleetOutcome {
            report,
            trace,
            cells: outcomes,
        })
    }
}

/// The internal sync points of a fleet run: scripted fleet-admission slots
/// and balancer cadence boundaries, plus the scenario end, ascending and
/// deduplicated.
fn compute_sync_points(scenario: &FleetScenario, config: &ElasticFleetConfig) -> Vec<usize> {
    let total = scenario.base.total_slots;
    let mut points: Vec<usize> = scenario
        .fleet_admissions()
        .iter()
        .map(|(slot, _)| *slot)
        .collect();
    if config.balancer.enabled {
        let cadence = config.balancer.cadence_slots;
        points.extend((1..).map(|k| k * cadence).take_while(|s| *s < total));
    }
    points.push(total);
    points.sort_unstable();
    points.dedup();
    points
}

/// Routes one fleet-level admission: cells are tried least-utilized first
/// (ties toward the lower index), and the slice lands on the first cell
/// whose own [`ScenarioEngine::check_admission`] accepts it — that check
/// reserves the estimated share of every slice already granted at this
/// boundary (fleet admissions and migrations alike). Returns the hosting
/// `(cell, slice_id)` pair, or `None` for a fleet-wide denial.
fn route_fleet_admission(
    cells: &mut [CellRuntime],
    spec: &SliceSpec,
    slot: usize,
) -> Option<(u32, u32)> {
    let utilizations: Vec<f64> = cells.iter().map(|c| cell_utilization(&c.engine)).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        utilizations[a]
            .partial_cmp(&utilizations[b])
            .expect("utilization is never NaN")
            .then(a.cmp(&b))
    });
    for i in order {
        if cells[i].engine.check_admission().is_ok() {
            let slice = cells[i].engine.force_admit(spec, slot);
            return Some((i as u32, slice.0));
        }
    }
    None
}

/// A versioned snapshot of a whole elastic fleet run, and the one
/// declaration of the fleet machine's state: the scenario and tuning, every
/// cell's deployment, telemetry recorder and rebalancing-window baseline,
/// the scripted-timeline cursor and the admission counters — each fact
/// once. A live [`ElasticFleet`] owns one and lends it through
/// [`ElasticFleet::checkpoint`]; restoring a saved one continues the run
/// byte-exactly — the final trace of a resumed fleet is byte-identical to
/// the uninterrupted run's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Layout version ([`FLEET_CHECKPOINT_FORMAT_VERSION`] at capture).
    pub format_version: u32,
    scenario: FleetScenario,
    config: ElasticFleetConfig,
    cells: Vec<CellRuntime>,
    migrations: Vec<MigrationRecord>,
    /// Cursor into the scripted fleet admissions (sorted by slot).
    next_admission: usize,
    fleet_admissions_granted: usize,
    fleet_admissions_denied: usize,
}

impl FleetCheckpoint {
    /// Validates the checkpoint and wraps it as the live fleet's state.
    ///
    /// A file edited by hand (or torn in a way that still parses) never went
    /// through the doors a live fleet guards, so everything the machine
    /// relies on is checked here, each refusal naming both values: the
    /// scenario and config must form a buildable fleet holding
    /// `config.cells` cells, every cell must sit at cell 0's slot, cell `i`
    /// must run exactly the scenario `scenario.scenario_for_cell(i)` and the
    /// configuration `config.base.for_cell(i)` derive (seed and policies
    /// included), every engine must pass
    /// [`ScenarioEngine::validate`] (agents' learned state fits together,
    /// admission tuning in range) and every cell's agents must share one
    /// trunk shape. The processed sync-point cursor is recomputed from the
    /// slot (see the module docs' invariant), so nothing replays and nothing
    /// is skipped.
    pub fn restore(self) -> Result<ElasticFleet, String> {
        self.validate()
            .map_err(|e| format!("fleet checkpoint is inconsistent: {e}"))?;
        let sync_points = compute_sync_points(&self.scenario, &self.config);
        let next_sync = sync_points.partition_point(|s| *s <= self.slot());
        Ok(ElasticFleet {
            state: self,
            sync_points,
            next_sync,
        })
    }

    /// What [`FleetCheckpoint::restore`] refuses, as the first problem found.
    fn validate(&self) -> Result<(), String> {
        // What `ElasticFleet::new` demands of a scenario and tuning (a zero
        // balancer cadence would never finish computing its sync points).
        ElasticFleet::validate(&self.scenario, &self.config)?;
        if self.cells.len() != self.config.cells {
            return Err(format!(
                "it holds {} cells, the serialized config says {}",
                self.cells.len(),
                self.config.cells
            ));
        }
        // `advance_to` steps every cell up to a common stop: a laggard would
        // silently be stepped past sync points that already ran.
        let slot = self.slot();
        if let Some((i, c)) = self
            .cells
            .iter()
            .enumerate()
            .find(|(_, c)| c.engine.current_slot() != slot)
        {
            return Err(format!(
                "cell {i} sits at slot {}, cell 0 at {slot}",
                c.engine.current_slot()
            ));
        }
        for (i, c) in self.cells.iter().enumerate() {
            // `ElasticFleet::new` builds cell `i` from exactly this scenario
            // and config. A cell whose scenario differs would be stepped
            // past its own end (or stop short of the fleet's) at the next
            // window; one whose config differs would run a seed or policy
            // fleetd's resume check never sees.
            if *c.engine.scenario() != self.scenario.scenario_for_cell(i as u32) {
                return Err(format!(
                    "cell {i} runs a scenario the fleet scenario `{}` does not derive for it",
                    self.scenario.name
                ));
            }
            let expected = self.config.base.for_cell(i as u32);
            if *c.engine.config() != expected {
                return Err(format!(
                    "cell {i} runs {:?}, the serialized config derives {expected:?}",
                    c.engine.config()
                ));
            }
            // Learned state whose lengths disagree would panic inside a
            // kernel at the next slot or epoch boundary.
            c.engine.validate().map_err(|e| format!("cell {i} {e}"))?;
            // An orchestrator refuses a slice whose networks do not have its
            // cell's trunk shape where the slice enters; the cell's fused
            // forward pass would hit its shape assert mid-run.
            let mut shapes = c
                .engine
                .orchestrator()
                .agents()
                .iter()
                .map(OnSlicingAgent::trunk_shape);
            if let Some(first) = shapes.next() {
                if let Some(other) = shapes.find(|s| *s != first) {
                    return Err(format!(
                        "cell {i} mixes agents with layer dimensions {first:?} and {other:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Next global slot the fleet executes: cell 0's, which every other
    /// cell shares in a checkpoint that restores (a fleet has at least one
    /// cell).
    fn slot(&self) -> usize {
        self.cells[0].engine.current_slot()
    }

    /// The fleet scenario the checkpointed run executes.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// The fleet tuning the checkpointed run uses: master seed, cell count,
    /// admission and balance policies. A resume must run the same, or its
    /// trace would splice two deterministic histories.
    pub fn config(&self) -> &ElasticFleetConfig {
        &self.config
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fleet checkpoint serialization cannot fail")
    }

    /// Parses a fleet checkpoint through the one versioned-document loader
    /// ([`from_versioned_json`]): one parse, and an unknown layout version
    /// is reported before any other field is read.
    pub fn from_json(text: &str) -> Result<Self, String> {
        from_versioned_json(text, "fleet checkpoint", FLEET_CHECKPOINT_FORMAT_VERSION)
    }

    /// Writes the checkpoint crash-safely (temp file + fsync + atomic
    /// rename): a crash mid-save never leaves a torn file where the
    /// previous checkpoint was.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        atomic_write(path.as_ref(), &self.to_json())
            .map_err(|e| format!("cannot write fleet checkpoint: {e}"))
    }

    /// Reads and validates a fleet checkpoint file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            format!(
                "cannot read fleet checkpoint {}: {e}",
                path.as_ref().display()
            )
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerConfig;
    use onslicing_scenario::{fleet_by_name, Scenario};
    use onslicing_slices::SliceKind;

    fn tiny_fleet_scenario() -> FleetScenario {
        let base = Scenario::new("tiny-live", 8, 32)
            .with_capacity(1.5)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Rdc));
        FleetScenario::new(base, 1).fleet_admit(4, SliceSpec::new(SliceKind::Hvs))
    }

    fn quick_config(cells: usize) -> ElasticFleetConfig {
        ElasticFleetConfig::new(cells)
            .with_seed(11)
            .with_balancer(BalancerConfig {
                cadence_slots: 8,
                ..BalancerConfig::default()
            })
    }

    #[test]
    fn stepwise_advance_matches_one_shot_runner_bit_for_bit() {
        // The machine, driven in awkward uneven windows, must produce the
        // exact trace of a single run().
        let reference = ElasticFleet::run(tiny_fleet_scenario(), quick_config(2)).unwrap();

        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        for target in [1usize, 4, 5, 9, 16, 17, 31, 32, 32] {
            fleet.advance_to(target).unwrap();
        }
        assert!(fleet.is_complete());
        let outcome = fleet.finish(0.0).unwrap();
        assert_eq!(outcome.trace.to_json(), reference.trace.to_json());
        assert_eq!(
            outcome.report.fleet_admissions_granted + outcome.report.fleet_admissions_denied,
            1
        );
    }

    /// Snapshots a run of `config` at slot `at` (JSON round-trip included),
    /// continues both copies and requires byte-identical final traces.
    /// Returns the checkpoint document.
    fn assert_resume_continues_bit_for_bit(config: ElasticFleetConfig, at: usize) -> String {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), config).unwrap();
        fleet.advance_to(at).unwrap();
        let json = fleet.checkpoint().to_json();
        let snapshot = FleetCheckpoint::from_json(&json).unwrap();

        fleet.advance_to(32).unwrap();
        let reference = fleet.finish(0.0).unwrap();

        let mut resumed = snapshot.restore().unwrap();
        assert_eq!(resumed.slot(), at);
        resumed.advance_to(32).unwrap();
        let outcome = resumed.finish(0.0).unwrap();
        assert_eq!(outcome.trace.to_json(), reference.trace.to_json());
        json
    }

    #[test]
    fn checkpoint_resume_continues_bit_for_bit() {
        assert_resume_continues_bit_for_bit(quick_config(2), 13);
    }

    #[test]
    fn a_fleet_holding_a_non_finite_float_resumes_from_its_own_checkpoint() {
        // `forced_noop` is `min_load_gap = ∞`, which JSON can only carry as
        // the string the writer tags it with.
        let config = quick_config(2).with_balancer(BalancerConfig::forced_noop());
        let json = assert_resume_continues_bit_for_bit(config, 4);
        assert!(
            json.contains("\"min_load_gap\":\"inf\""),
            "no infinity on file"
        );
    }

    #[test]
    fn live_admissions_and_events_apply_at_boundaries() {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(8).unwrap();
        // Admit until denial: the reservation rule must eventually say no,
        // and both outcomes update the fleet counters.
        let mut granted = 0;
        for _ in 0..64 {
            match fleet.admit(&SliceSpec::new(SliceKind::Hvs)) {
                Some((cell, _)) => {
                    assert!((cell as usize) < 2);
                    granted += 1;
                }
                None => break,
            }
        }
        assert!(granted > 0, "at least one live admission must fit");
        assert!(fleet.fleet_admissions_denied() > 0 || granted == 64);
        // A teardown of a real slice applies; an unknown cell errors.
        let victim = fleet.cells()[0]
            .engine
            .orchestrator()
            .slice_ids()
            .iter()
            .map(|id| id.0)
            .max()
            .unwrap();
        assert_eq!(
            fleet
                .inject_cell_event(0, &ScenarioEvent::TeardownSlice { slice: victim })
                .unwrap(),
            LiveEventOutcome::Applied
        );
        assert!(fleet
            .inject_cell_event(7, &ScenarioEvent::TeardownSlice { slice: 0 })
            .is_err());
        fleet.advance_to(32).unwrap();
        assert!(fleet.finish(0.0).is_ok());
    }

    #[test]
    fn incomplete_fleets_refuse_to_finish_and_stale_versions_fail_clearly() {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(1)).unwrap();
        fleet.advance_to(4).unwrap();
        let json = fleet.checkpoint().to_json();
        assert!(fleet.finish(0.0).unwrap_err().contains("incomplete"));
        // Version gate: a stale stamp (v4 = a second copy of every
        // engine's admission tuning still on file, v5 = a header and
        // per-cell fields restating the body, v6 = engines carrying a clock
        // reading and a half-built report) reports the version, not a
        // missing field; a missing stamp is malformed.
        assert!(json.starts_with("{\"format_version\":7,"));
        for version in [4, 5, 6] {
            let doctored = json.replacen(
                "\"format_version\":7",
                &format!("\"format_version\":{version}"),
                1,
            );
            assert_eq!(
                FleetCheckpoint::from_json(&doctored).unwrap_err(),
                format!("fleet checkpoint format version {version} is not supported (expected 7)")
            );
        }
        let err = FleetCheckpoint::from_json("{\"slot\":4}").unwrap_err();
        assert!(err.contains("missing format_version"), "{err}");
    }

    #[test]
    fn restore_refuses_a_checkpoint_doctored_to_mix_trunk_shapes() {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(4).unwrap();
        let mut checkpoint = fleet.checkpoint().clone();
        // Swap one agent of cell 1 for a twin with the other network size —
        // a cell no orchestrator entry point would have let form.
        let agents = checkpoint.cells[1].engine.orchestrator_mut().agents_mut();
        let mut config = *agents[0].config();
        config.use_small_networks = !config.use_small_networks;
        agents[0] = OnSlicingAgent::new(
            agents[0].kind(),
            *agents[0].sla(),
            agents[0].baseline().clone(),
            config,
            0,
        );
        let err = checkpoint.restore().unwrap_err();
        assert!(
            err.contains("cell 1 mixes agents with layer dimensions"),
            "{err}"
        );
        // Untouched, the same checkpoint restores.
        assert!(fleet.checkpoint().clone().restore().is_ok());
    }

    #[test]
    fn restore_refuses_a_header_that_does_not_describe_the_body() {
        // The fleet shape the serialized config describes must hold. One
        // doctored fact at a time; every refusal names both values.
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(4).unwrap();
        let refused = |doctor: &dyn Fn(&mut FleetCheckpoint)| {
            let mut checkpoint = fleet.checkpoint().clone();
            doctor(&mut checkpoint);
            checkpoint.restore().unwrap_err()
        };
        assert_eq!(
            refused(&|c| c.config.cells = 3),
            "fleet checkpoint is inconsistent: it holds 2 cells, the serialized config says 3"
        );
        assert_eq!(
            refused(&|c| c.config.balancer.cadence_slots = 0),
            "fleet checkpoint is inconsistent: balancer cadence must be at least one slot"
        );
    }

    #[test]
    fn restore_refuses_cells_the_serialized_config_would_not_build() {
        // Each edit is one a hand-edited file could make; every refusal
        // names both values.
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(4).unwrap();
        let json = fleet.checkpoint().to_json();
        let refused = |doctored: String| {
            assert_ne!(doctored, json, "the edit must change the document");
            FleetCheckpoint::from_json(&doctored)
                .unwrap()
                .restore()
                .unwrap_err()
        };
        // Out-of-range headroom everywhere — config and cells agree, the
        // tuning itself is what `ElasticFleet::new` would refuse.
        let err = refused(json.replace("\"headroom\":0.0", "\"headroom\":1.5"));
        assert_eq!(
            err,
            "fleet checkpoint is inconsistent: cell 0 admission tuning: \
             headroom must be in [0, 1), got 1.5"
        );
        // One field of cell 1's engine config edited: the fleet config
        // still says greedy and derives the original seed.
        let cell1_config = |key: &str, value: serde::Value| {
            let mut document: serde::Value = serde_json::from_str(&json).unwrap();
            let serde::Value::Obj(top) = &mut document else {
                panic!("a fleet checkpoint is a JSON object");
            };
            let (_, serde::Value::Arr(cells)) = top.iter_mut().find(|(k, _)| k == "cells").unwrap()
            else {
                panic!("`cells` is an array");
            };
            let mut target = &mut cells[1];
            for step in ["engine", "config", key] {
                let serde::Value::Obj(pairs) = target else {
                    panic!("no `{step}` object");
                };
                target = &mut pairs.iter_mut().find(|(k, _)| k == step).unwrap().1;
            }
            *target = value;
            serde_json::to_string(&document).unwrap()
        };
        let mut admission = fleet.cells()[1].engine.config().admission;
        admission.policy = onslicing_scenario::AdmissionPolicy::Cautious;
        let err = refused(cell1_config("admission", admission.serialize_value()));
        assert!(
            err.starts_with("fleet checkpoint is inconsistent: cell 1 runs ")
                && err.contains("policy: Cautious")
                && err.contains("policy: Greedy"),
            "{err}"
        );
        let seed = fleet.cells()[1].engine.config().seed;
        let err = refused(cell1_config("seed", serde::Value::UInt(seed ^ 1)));
        assert!(
            err.starts_with("fleet checkpoint is inconsistent: cell 1 runs ")
                && err.contains(&format!("seed: {}", seed ^ 1))
                && err.contains(&format!("seed: {seed}")),
            "{err}"
        );
        // Cells out of order: cell 0 runs what the config derives for cell 1.
        let mut checkpoint = fleet.checkpoint().clone();
        checkpoint.cells.swap(0, 1);
        let err = checkpoint.restore().unwrap_err();
        assert!(
            err.starts_with("fleet checkpoint is inconsistent: cell 0 runs ")
                && err.contains(&format!("seed: {seed}")),
            "{err}"
        );
        // Untouched, the same document restores.
        assert!(FleetCheckpoint::from_json(&json).unwrap().restore().is_ok());
    }

    #[test]
    fn restore_refuses_cells_that_sit_at_different_slots() {
        // Cell 1 spliced in from one slot later: `advance_to` would step
        // cell 0 alone past whatever sync point lies between them.
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(4).unwrap();
        let mut checkpoint = fleet.checkpoint().clone();
        fleet.advance_to(5).unwrap();
        checkpoint.cells[1] = fleet.cells()[1].clone();
        assert_eq!(
            checkpoint.restore().unwrap_err(),
            "fleet checkpoint is inconsistent: cell 1 sits at slot 5, cell 0 at 4"
        );
    }

    #[test]
    fn restore_refuses_a_cell_whose_scenario_the_fleet_does_not_derive() {
        // Cell 1's scenario shortened to 20 slots: it used to restore, and
        // the first window past slot 20 panicked inside a pool job.
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(4).unwrap();
        let json = fleet.checkpoint().to_json();
        let mut document: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Obj(top) = &mut document else {
            panic!("a fleet checkpoint is a JSON object");
        };
        let (_, serde::Value::Arr(cells)) = top.iter_mut().find(|(k, _)| k == "cells").unwrap()
        else {
            panic!("`cells` is an array");
        };
        let mut target = &mut cells[1];
        for step in ["engine", "scenario", "total_slots"] {
            let serde::Value::Obj(pairs) = target else {
                panic!("no `{step}` object");
            };
            target = &mut pairs.iter_mut().find(|(k, _)| k == step).unwrap().1;
        }
        assert_eq!(target.as_u64(), Some(32));
        *target = serde::Value::UInt(20);
        let doctored = serde_json::to_string(&document).unwrap();
        assert_eq!(
            FleetCheckpoint::from_json(&doctored)
                .unwrap()
                .restore()
                .unwrap_err(),
            "fleet checkpoint is inconsistent: cell 1 runs a scenario the fleet \
             scenario `tiny-live` does not derive for it"
        );
        assert!(FleetCheckpoint::from_json(&json).unwrap().restore().is_ok());
    }

    #[test]
    fn checkpoint_json_top_level_keys_are_pinned_in_order() {
        // The layout is the struct's declaration order: a reordered or
        // renamed field is a format change and must show up here.
        let fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(1)).unwrap();
        let value: serde::Value = serde_json::from_str(&fleet.checkpoint().to_json()).unwrap();
        let serde::Value::Obj(pairs) = value else {
            panic!("a fleet checkpoint is a JSON object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "format_version",
                "scenario",
                "config",
                "cells",
                "migrations",
                "next_admission",
                "fleet_admissions_granted",
                "fleet_admissions_denied",
            ]
        );
    }

    #[test]
    fn a_cloned_fleet_advances_independently_to_the_same_trace() {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(2)).unwrap();
        fleet.advance_to(13).unwrap();
        let mut copy = fleet.clone();
        // The copy runs ahead in its own windows; the original must not
        // notice, and both must end on the same bytes.
        copy.advance_to(20).unwrap();
        assert_eq!(fleet.slot(), 13);
        copy.advance_to(32).unwrap();
        fleet.advance_to(32).unwrap();
        assert_eq!(
            copy.finish(0.0).unwrap().trace.to_json(),
            fleet.finish(0.0).unwrap().trace.to_json()
        );
    }

    #[test]
    fn slot0_fleet_admission_is_adjudicated_without_a_balancer_round() {
        // A fleet admission scripted at slot 0 creates sync point 0. The
        // construction-time cursor must not skip it (the admission would be
        // adjudicated late — or never, with the balancer disabled), and the
        // balancer must not treat it as a cadence boundary (0 is a multiple
        // of every cadence, but the schedule starts at 1 · cadence).
        let base = Scenario::new("slot0-admit", 8, 16)
            .with_capacity(1.5)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs));
        let scenario = FleetScenario::new(base, 2).fleet_admit(0, SliceSpec::new(SliceKind::Rdc));

        let config = ElasticFleetConfig::new(2)
            .with_seed(3)
            .with_balancer(BalancerConfig {
                cadence_slots: 8,
                min_load_gap: 0.0,
                ..BalancerConfig::default()
            });
        let fleet = ElasticFleet::new(scenario.clone(), config).unwrap();
        assert_eq!(
            fleet.fleet_admissions_granted() + fleet.fleet_admissions_denied(),
            1,
            "the slot-0 admission must be adjudicated before the caller sees the fleet"
        );
        assert!(
            fleet.migrations().is_empty(),
            "no balancer round may run at slot 0"
        );

        // With the balancer disabled the end pseudo-sync is the only other
        // sync point and it does no fleet work — slot 0 is the one chance.
        let config = ElasticFleetConfig::new(2)
            .with_seed(3)
            .with_balancer(BalancerConfig::disabled());
        let mut fleet = ElasticFleet::new(scenario, config).unwrap();
        assert_eq!(
            fleet.fleet_admissions_granted() + fleet.fleet_admissions_denied(),
            1
        );
        fleet.advance_to(16).unwrap();
        let outcome = fleet.finish(0.0).unwrap();
        assert_eq!(
            outcome.report.fleet_admissions_granted + outcome.report.fleet_admissions_denied,
            1
        );
    }

    #[test]
    fn cell_events_may_reference_fleet_admitted_ids() {
        // The cell timeline names slice 1, an id only the fleet-routed
        // admission assigns: the cell engines must validate with the same
        // admission slack FleetScenario::validate grants.
        let base = Scenario::new("fleet-admitted-id", 4, 8).slice(SliceSpec::new(SliceKind::Mar));
        let scenario = FleetScenario::new(base, 1)
            .fleet_admit(1, SliceSpec::new(SliceKind::Hvs))
            .at_cell(
                4,
                0,
                ScenarioEvent::SetTrafficScale {
                    slice: 1,
                    scale: 2.0,
                },
            );
        scenario.validate().unwrap();
        let mut fleet =
            ElasticFleet::new(scenario, ElasticFleetConfig::new(1).with_seed(7)).unwrap();
        fleet.advance_to(8).unwrap();
        fleet.finish(0.0).unwrap();
    }

    #[test]
    fn completed_fleet_denies_live_admissions() {
        let mut fleet = ElasticFleet::new(tiny_fleet_scenario(), quick_config(1)).unwrap();
        fleet.advance_to(32).unwrap();
        assert!(fleet.is_complete());
        let denied_before = fleet.fleet_admissions_denied();
        assert_eq!(
            fleet.admit(&SliceSpec::new(SliceKind::Mar)),
            None,
            "a slice granted at the scenario end would never execute a slot"
        );
        assert_eq!(fleet.fleet_admissions_denied(), denied_before + 1);
        fleet.finish(0.0).unwrap();
    }

    #[test]
    fn builtin_fleet_scenarios_run_through_the_live_machine() {
        // hotspot-shift exercises migrations + fleet admissions end to end
        // through advance_to; the result must match the one-shot run.
        let scenario = fleet_by_name("hotspot-shift").unwrap();
        let config = ElasticFleetConfig::new(2).with_seed(5);
        let reference = ElasticFleet::run(scenario.clone(), config).unwrap();
        let mut fleet = ElasticFleet::new(scenario, config).unwrap();
        let total = fleet.total_slots();
        let mut target = 7;
        while !fleet.is_complete() {
            fleet.advance_to(target.min(total)).unwrap();
            target += 7;
        }
        let outcome = fleet.finish(0.0).unwrap();
        assert_eq!(outcome.trace.to_json(), reference.trace.to_json());
        assert_eq!(outcome.report.migrations, reference.report.migrations);
    }
}
