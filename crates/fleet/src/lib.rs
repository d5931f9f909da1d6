//! # onslicing-fleet
//!
//! Fleet-scale multi-cell orchestration: partitions a large slice
//! population across `N` independent **cells** — each cell a complete
//! deployment (its own [`onslicing_core::Orchestrator`], multi-slice
//! environment and scenario timeline) — executes the cells in parallel
//! with `rayon` (nested above the per-slice fan-out inside every
//! orchestrator), and aggregates the per-cell telemetry into one
//! fleet-level report.
//!
//! There is one runner, [`ElasticFleet`]: a steppable, checkpointable
//! machine that also routes fleet-level admissions and migrates slices
//! between cells on a balancer cadence. [`ElasticFleet::run`] executes a
//! [`onslicing_scenario::FleetScenario`] start to finish; a fleet of
//! frozen shards (no fleet events, [`BalancerConfig::disabled`]) is the
//! same call, and its cells then step straight through in one window.
//!
//! A finished fleet keeps each fact once: [`ElasticFleet::finish`] moves
//! every cell's telemetry into the [`FleetTrace`] (which also names the
//! scenario, master seed, cells and their seeds), each [`CellOutcome`]
//! keeps only the cell's [`ScenarioReport`] and measured slot latencies,
//! and the [`FleetReport`] holds the fleet-wide aggregates plus the fleet
//! layer's migrations and admission counts.
//!
//! This is the scale axis of conf_conext_LiuCH21's per-slice-parallel
//! design taken one level up: slice-local work dominates and cross-slice
//! coordination is confined to a cell, so cells share *nothing* — no RNG,
//! no capacity, no coordination state — and a fleet of `N` cells is `N`
//! shards of one keyed seed family rather than one giant coordination
//! domain.
//!
//! ## Determinism
//!
//! Every cell's master seed is [`onslicing_scenario::derive_cell_seed`] of
//! the fleet seed, so the fleet is as reproducible as a single scenario
//! run: the [`FleetTrace`] (the concatenation of the per-cell telemetry
//! traces, in cell order) is **byte-identical** whatever the rayon worker
//! count, extending the repository's thread-count determinism gate to
//! fleets. The cells' engines read no clock; the fleet's wall-clock
//! figures ([`FleetReport::wall_clock_ms`], the caller's measurement of the
//! run, [`FleetReport::slice_slots_per_second`] over it, and the raw
//! per-slot latencies in [`CellOutcome::slot_latencies_ms`]) live only in
//! the outcome, never in the trace, and nothing pins them: fleet speed is
//! read by the repository benchmark's `fleet-elastic` workload.

use serde::{Deserialize, Serialize};

use onslicing_replay::{
    atomic_write, first_non_finite, from_versioned_json, percentile, TelemetryTrace,
};
use onslicing_scenario::ScenarioReport;

pub mod balancer;
pub mod live;
pub mod policy;

pub use balancer::{cell_utilization, rebalance, BalancerConfig, CellRuntime, MigrationRecord};
pub use live::{
    ElasticFleet, ElasticFleetConfig, FleetCheckpoint, FLEET_CHECKPOINT_FORMAT_VERSION,
};
pub use policy::{BalancePolicy, BalanceSignals};

/// Version stamp of the fleet-trace JSON layout; bump on breaking changes.
pub const FLEET_TRACE_FORMAT_VERSION: u32 = 1;

/// One cell's outcome beside its trace (`FleetTrace::cells[i].trace`): the
/// scenario report and the measured per-slot wall-clock latencies. A cell's
/// number is its index, its seed `report.seed`.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's scenario report.
    pub report: ScenarioReport,
    /// Wall-clock latency of every executed scenario slot, in milliseconds.
    pub slot_latencies_ms: Vec<f64>,
}

/// The aggregated outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Sum over cells of the peak concurrent slice count — the fleet's
    /// slice population at its widest point.
    pub peak_slices: usize,
    /// Total executed slice-slots.
    pub slice_slots: usize,
    /// Total closed slice-episodes.
    pub slice_episodes: usize,
    /// Total episodes that violated their SLA.
    pub violations: usize,
    /// Fleet-wide SLA-violation percentage (violations / episodes).
    pub sla_violation_percent: f64,
    /// Mean episode-average cost, weighted by each cell's episode count.
    pub avg_cost: f64,
    /// Mean per-slice-slot cost across every cell, weighted by each cell's
    /// slice-slots — equals the mean of the concatenated per-cell slot
    /// samples, but computed from the cells' cheap slot-level folds.
    pub avg_slot_cost: f64,
    /// Median per-slice-slot cost across every cell (deterministic).
    pub cost_p50: f64,
    /// 90th-percentile per-slice-slot cost (deterministic).
    pub cost_p90: f64,
    /// 99th-percentile per-slice-slot cost (deterministic).
    pub cost_p99: f64,
    /// Fleet wall-clock of the run as the caller measured it, in
    /// milliseconds.
    pub wall_clock_ms: f64,
    /// Executed slice-slots per wall-clock second on this machine.
    pub slice_slots_per_second: f64,
    /// Live migrations the balancer applied, in application order (empty
    /// when the balancer is disabled).
    pub migrations: Vec<MigrationRecord>,
    /// Fleet-routed admissions granted (placed on some cell).
    pub fleet_admissions_granted: usize,
    /// Fleet-routed admissions denied fleet-wide (no cell could host).
    pub fleet_admissions_denied: usize,
}

impl FleetReport {
    /// Whether any float of the report is NaN or infinite (the CI smoke
    /// check). The gate is on `is_finite`, not `is_nan`: a cell whose SLA
    /// or cost metric overflowed to `±inf` is as broken as a NaN one and
    /// must not sail through.
    pub fn has_non_finite(&self) -> bool {
        first_non_finite(&self.serialize_value()).is_some()
    }
}

/// One cell's entry in the fleet trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTraceEntry {
    /// Cell index.
    pub cell: u32,
    /// The cell's derived master seed.
    pub seed: u64,
    /// The cell's full telemetry trace.
    pub trace: TelemetryTrace,
}

/// The deterministic telemetry artifact of one fleet run: the per-cell
/// traces in cell order, with no wall-clock fields — two runs of the same
/// fleet (same scenario, master seed and cell count) emit byte-identical
/// JSON whatever the rayon worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTrace {
    /// Layout version ([`FLEET_TRACE_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Scenario executed by every cell.
    pub scenario: String,
    /// Fleet master seed.
    pub master_seed: u64,
    /// Per-cell traces, in cell order.
    pub cells: Vec<CellTraceEntry>,
}

impl FleetTrace {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet trace serialization cannot fail")
    }

    /// Parses a fleet trace, rejecting unknown layout versions before any
    /// other field is read ([`from_versioned_json`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        from_versioned_json(text, "fleet trace", FLEET_TRACE_FORMAT_VERSION)
    }

    /// Writes the trace to a file crash-safely (temp file + fsync + atomic
    /// rename).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        atomic_write(path.as_ref(), &self.to_json())
            .map_err(|e| format!("cannot write fleet trace: {e}"))
    }
}

/// The complete outcome of [`ElasticFleet::run`] / [`ElasticFleet::finish`].
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The aggregated fleet report.
    pub report: FleetReport,
    /// The deterministic fleet trace.
    pub trace: FleetTrace,
    /// The per-cell reports and latencies, in cell order.
    pub cells: Vec<CellOutcome>,
}

/// Folds per-cell outcomes, their traces (`trace.cells[i]` is cell `i`'s)
/// and the fleet layer's migrations and admission counters into the
/// fleet-level report.
///
/// Public so the aggregation math is property-testable: the fleet
/// SLA-violation percentage and every percentile must equal the values
/// recomputed from the concatenated per-cell samples.
pub fn aggregate_fleet(
    cells: &[CellOutcome],
    trace: &FleetTrace,
    migrations: Vec<MigrationRecord>,
    fleet_admissions_granted: usize,
    fleet_admissions_denied: usize,
    wall_clock_ms: f64,
) -> FleetReport {
    let mut peak_slices = 0usize;
    let mut slice_slots = 0usize;
    let mut slice_episodes = 0usize;
    let mut violations = 0usize;
    let mut cost_weighted = 0.0;
    let mut slot_cost_weighted = 0.0;
    for c in cells {
        peak_slices += c.report.peak_concurrent_slices;
        slice_slots += c.report.slice_slots;
        slice_episodes += c.report.slice_episodes;
        violations += c.report.slices.iter().map(|s| s.violations).sum::<usize>();
        cost_weighted += c.report.avg_cost * c.report.slice_episodes as f64;
        slot_cost_weighted += c.report.avg_slot_cost * c.report.slice_slots as f64;
    }
    let slot_costs: Vec<f64> = trace
        .cells
        .iter()
        .flat_map(|c| &c.trace.slots)
        .flat_map(|slot| slot.slices.iter().map(|s| s.cost))
        .collect();
    let ratio = |sum: f64, count: usize| if count > 0 { sum / count as f64 } else { 0.0 };
    FleetReport {
        peak_slices,
        slice_slots,
        slice_episodes,
        violations,
        sla_violation_percent: ratio(100.0 * violations as f64, slice_episodes),
        avg_cost: ratio(cost_weighted, slice_episodes),
        avg_slot_cost: ratio(slot_cost_weighted, slice_slots),
        cost_p50: percentile(&slot_costs, 50.0),
        cost_p90: percentile(&slot_costs, 90.0),
        cost_p99: percentile(&slot_costs, 99.0),
        wall_clock_ms,
        slice_slots_per_second: if wall_clock_ms > 0.0 {
            slice_slots as f64 / (wall_clock_ms / 1_000.0)
        } else {
            0.0
        },
        migrations,
        fleet_admissions_granted,
        fleet_admissions_denied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_scenario::{derive_cell_seed, FleetScenario, Scenario, SliceSpec};
    use onslicing_slices::SliceKind;

    fn tiny_scenario() -> Scenario {
        Scenario::new("tiny-fleet", 8, 16)
            .with_capacity(1.5)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Rdc))
    }

    /// `cells` frozen shards of `scenario`: no fleet events, balancer off.
    fn frozen(scenario: Scenario, cells: usize, seed: u64) -> Result<FleetOutcome, String> {
        ElasticFleet::run(
            FleetScenario::new(scenario, 1),
            ElasticFleetConfig::new(cells)
                .with_seed(seed)
                .with_balancer(BalancerConfig::disabled()),
        )
    }

    #[test]
    fn fleet_run_aggregates_every_cell() {
        let outcome = frozen(tiny_scenario(), 3, 7).unwrap();
        let report = &outcome.report;
        assert_eq!(outcome.trace.scenario, "tiny-fleet");
        assert_eq!(outcome.trace.master_seed, 7);
        // Two slices × 16 slots × 3 cells.
        assert_eq!(report.slice_slots, 2 * 16 * 3);
        assert_eq!(report.peak_slices, 6);
        assert!(report.slice_episodes > 0);
        assert!(!report.has_non_finite());
        assert!(
            report.migrations.is_empty(),
            "a disabled balancer never migrates"
        );
        assert!(report.slice_slots_per_second > 0.0);
        assert!(report.cost_p50 <= report.cost_p99);
        assert!(report.avg_slot_cost >= 0.0);
        assert_eq!(outcome.cells.len(), 3);
        for (i, (cell, entry)) in outcome.cells.iter().zip(&outcome.trace.cells).enumerate() {
            assert_eq!(entry.cell, i as u32);
            assert_eq!(cell.report.seed, derive_cell_seed(7, i as u32));
            assert_eq!(entry.seed, cell.report.seed);
            assert_eq!(cell.report.slice_slots, 32);
        }
        // Cells are distinct deployments: their seeds differ, and so do
        // their telemetry streams.
        assert_ne!(
            outcome.trace.cells[0].trace.to_json(),
            outcome.trace.cells[1].trace.to_json()
        );
    }

    #[test]
    fn fleet_traces_are_reproducible_and_version_gated() {
        let a = frozen(tiny_scenario(), 2, 3).unwrap().trace;
        let b = frozen(tiny_scenario(), 2, 3).unwrap().trace;
        assert_eq!(a.to_json(), b.to_json());
        let back = FleetTrace::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let mut bad = a.clone();
        bad.format_version = 99;
        assert!(FleetTrace::from_json(&bad.to_json())
            .unwrap_err()
            .contains("version 99"));
    }

    #[test]
    fn stale_fleet_trace_versions_fail_with_the_version_error_not_a_missing_field() {
        let stale = r#"{"format_version":0,"scenario":"tiny"}"#;
        assert_eq!(
            FleetTrace::from_json(stale).unwrap_err(),
            format!(
                "fleet trace format version 0 is not supported \
                 (expected {FLEET_TRACE_FORMAT_VERSION})"
            )
        );
    }

    #[test]
    fn fleet_trace_save_is_atomic_and_leaves_no_temp_file() {
        let trace = frozen(tiny_scenario(), 1, 3).unwrap().trace;
        let dir =
            std::env::temp_dir().join(format!("onslicing-fleet-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TRACE_FLEET_tiny.json");
        trace.save(&path).unwrap();
        let loaded = FleetTrace::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded, trace);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            names,
            ["TRACE_FLEET_tiny.json"],
            "save must not leave temp files"
        );
        assert!(trace.save(dir.join("no/such/dir/trace.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_metrics_fail_the_smoke_gate() {
        let report = frozen(tiny_scenario(), 2, 1).unwrap().report;
        assert!(!report.has_non_finite());
        // An infinite aggregate metric must trip the gate — this is the
        // regression the old `is_nan()` check waved through.
        let mut infinite = report.clone();
        infinite.cost_p99 = f64::INFINITY;
        assert!(infinite.has_non_finite());
        let mut negative_infinite = report.clone();
        negative_infinite.avg_cost = f64::NEG_INFINITY;
        assert!(negative_infinite.has_non_finite());
        // NaN still fails.
        let mut nan = report;
        nan.sla_violation_percent = f64::NAN;
        assert!(nan.has_non_finite());
    }

    #[test]
    fn invalid_fleets_are_rejected() {
        assert!(frozen(tiny_scenario(), 0, 0).is_err());
        assert!(frozen(Scenario::new("empty", 8, 16), 2, 0).is_err());
    }

    #[test]
    fn cell_seeds_match_the_scenario_derivation() {
        let fleet = ElasticFleet::new(
            FleetScenario::new(tiny_scenario(), 1),
            ElasticFleetConfig::new(5).with_seed(11),
        )
        .unwrap();
        assert_eq!(fleet.cells().len(), 5);
        for (i, cell) in fleet.cells().iter().enumerate() {
            assert_eq!(cell.engine.config().seed, derive_cell_seed(11, i as u32));
        }
    }
}
