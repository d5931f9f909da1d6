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
//! fleets. Wall-clock metrics (latency percentiles, throughput) live only
//! in the [`FleetReport`], never in the trace.
//!
//! ## Throughput accounting
//!
//! Two throughput numbers are reported, because they answer different
//! questions:
//!
//! * [`FleetReport::slice_slots_per_second`] — executed slice-slots divided
//!   by the fleet's wall-clock time **on this machine**: what this host
//!   actually sustained (bounded by its core count).
//! * [`FleetReport::aggregate_cell_slots_per_second`] — the sum of the
//!   cells' individual rates: the shared-nothing **capacity** of the fleet,
//!   i.e. what the same cells deliver when placed on independent hardware.
//!   Because cells share no state, this is the number that scales with the
//!   cell count. Neither is pinned anywhere: fleet speed is read by the
//!   repository benchmark's `fleet-elastic` workload.

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

/// One cell's complete outcome: the scenario report, the deterministic
/// telemetry trace and the measured per-slot wall-clock latencies.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell index (0-based).
    pub cell: u32,
    /// The cell's derived master seed.
    pub seed: u64,
    /// The cell's scenario report.
    pub report: ScenarioReport,
    /// The cell's telemetry trace (deterministic).
    pub trace: TelemetryTrace,
    /// Wall-clock latency of every executed scenario slot, in milliseconds.
    pub slot_latencies_ms: Vec<f64>,
}

/// Per-cell row of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Cell index.
    pub cell: u32,
    /// The cell's derived master seed.
    pub seed: u64,
    /// Largest number of concurrently active slices in the cell.
    pub peak_slices: usize,
    /// Executed slice-slots.
    pub slice_slots: usize,
    /// Closed slice-episodes.
    pub episodes: usize,
    /// Episodes that violated their SLA.
    pub violations: usize,
    /// Percentage of episodes that violated their SLA.
    pub sla_violation_percent: f64,
    /// Mean episode-average cost.
    pub avg_cost: f64,
    /// Mean per-slice-slot cost (the engine's cheap slot-level fold).
    pub avg_slot_cost: f64,
    /// The cell's own wall-clock, in milliseconds.
    pub wall_clock_ms: f64,
    /// The cell's own throughput in slice-slots per second.
    pub slice_slots_per_second: f64,
    /// Median per-slot wall-clock latency, in milliseconds.
    pub slot_latency_p50_ms: f64,
    /// 99th-percentile per-slot wall-clock latency, in milliseconds.
    pub slot_latency_p99_ms: f64,
}

/// The aggregated outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scenario executed by every cell.
    pub scenario: String,
    /// Fleet master seed.
    pub master_seed: u64,
    /// Number of cells.
    pub cells: usize,
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
    /// Fleet wall-clock of the parallel run, in milliseconds.
    pub wall_clock_ms: f64,
    /// Executed slice-slots per wall-clock second on this machine.
    pub slice_slots_per_second: f64,
    /// Sum of the cells' individual slice-slots-per-second rates: the
    /// shared-nothing capacity of the fleet (see the module docs).
    pub aggregate_cell_slots_per_second: f64,
    /// Median per-slot wall-clock latency across all cells' slots, in ms.
    pub slot_latency_p50_ms: f64,
    /// 90th-percentile per-slot latency, in ms.
    pub slot_latency_p90_ms: f64,
    /// 99th-percentile per-slot latency, in ms.
    pub slot_latency_p99_ms: f64,
    /// Live migrations the balancer applied, in application order (empty
    /// when the balancer is disabled).
    pub migrations: Vec<MigrationRecord>,
    /// Fleet-routed admissions granted (placed on some cell).
    pub fleet_admissions_granted: usize,
    /// Fleet-routed admissions denied fleet-wide (no cell could host).
    pub fleet_admissions_denied: usize,
    /// Per-cell breakdown, in cell order.
    pub cells_detail: Vec<CellSummary>,
}

impl FleetReport {
    /// Whether any float of the report — aggregate **or per-cell** — is NaN
    /// or infinite (the CI smoke check). The gate is on `is_finite`, not
    /// `is_nan`: a cell whose SLA or cost metric overflowed to `±inf` is as
    /// broken as a NaN one and must not sail through.
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
    /// The raw per-cell outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
}

/// Folds per-cell outcomes into the fleet-level report.
///
/// Public so the aggregation math is property-testable: the fleet
/// SLA-violation percentage and every percentile must equal the values
/// recomputed from the concatenated per-cell samples.
pub fn aggregate_fleet(
    scenario: &str,
    master_seed: u64,
    cells: &[CellOutcome],
    wall_clock_ms: f64,
) -> FleetReport {
    let mut peak_slices = 0usize;
    let mut slice_slots = 0usize;
    let mut slice_episodes = 0usize;
    let mut violations = 0usize;
    let mut cost_weighted = 0.0;
    let mut slot_cost_weighted = 0.0;
    let mut aggregate_rate = 0.0;
    let mut slot_costs: Vec<f64> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut cells_detail = Vec::with_capacity(cells.len());
    for c in cells {
        let cell_violations: usize = c.report.slices.iter().map(|s| s.violations).sum();
        peak_slices += c.report.peak_concurrent_slices;
        slice_slots += c.report.slice_slots;
        slice_episodes += c.report.slice_episodes;
        violations += cell_violations;
        cost_weighted += c.report.avg_cost * c.report.slice_episodes as f64;
        slot_cost_weighted += c.report.avg_slot_cost * c.report.slice_slots as f64;
        aggregate_rate += c.report.slice_slots_per_second;
        for slot in &c.trace.slots {
            slot_costs.extend(slot.slices.iter().map(|s| s.cost));
        }
        latencies.extend_from_slice(&c.slot_latencies_ms);
        cells_detail.push(CellSummary {
            cell: c.cell,
            seed: c.seed,
            peak_slices: c.report.peak_concurrent_slices,
            slice_slots: c.report.slice_slots,
            episodes: c.report.slice_episodes,
            violations: cell_violations,
            sla_violation_percent: c.report.sla_violation_percent,
            avg_cost: c.report.avg_cost,
            avg_slot_cost: c.report.avg_slot_cost,
            wall_clock_ms: c.report.wall_clock_ms,
            slice_slots_per_second: c.report.slice_slots_per_second,
            slot_latency_p50_ms: percentile(&c.slot_latencies_ms, 50.0),
            slot_latency_p99_ms: percentile(&c.slot_latencies_ms, 99.0),
        });
    }
    FleetReport {
        scenario: scenario.to_string(),
        master_seed,
        cells: cells.len(),
        peak_slices,
        slice_slots,
        slice_episodes,
        violations,
        sla_violation_percent: if slice_episodes > 0 {
            100.0 * violations as f64 / slice_episodes as f64
        } else {
            0.0
        },
        avg_cost: if slice_episodes > 0 {
            cost_weighted / slice_episodes as f64
        } else {
            0.0
        },
        avg_slot_cost: if slice_slots > 0 {
            slot_cost_weighted / slice_slots as f64
        } else {
            0.0
        },
        cost_p50: percentile(&slot_costs, 50.0),
        cost_p90: percentile(&slot_costs, 90.0),
        cost_p99: percentile(&slot_costs, 99.0),
        wall_clock_ms,
        slice_slots_per_second: if wall_clock_ms > 0.0 {
            slice_slots as f64 / (wall_clock_ms / 1_000.0)
        } else {
            0.0
        },
        aggregate_cell_slots_per_second: aggregate_rate,
        slot_latency_p50_ms: percentile(&latencies, 50.0),
        slot_latency_p90_ms: percentile(&latencies, 90.0),
        slot_latency_p99_ms: percentile(&latencies, 99.0),
        // `ElasticFleet::finish` overwrites these after aggregation.
        migrations: Vec::new(),
        fleet_admissions_granted: 0,
        fleet_admissions_denied: 0,
        cells_detail,
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
        assert_eq!(report.cells, 3);
        assert_eq!(report.scenario, "tiny-fleet");
        assert_eq!(report.master_seed, 7);
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
        assert!(report.aggregate_cell_slots_per_second > 0.0);
        assert!(report.slot_latency_p50_ms <= report.slot_latency_p99_ms);
        assert!(report.cost_p50 <= report.cost_p99);
        assert!(report.avg_slot_cost >= 0.0);
        assert_eq!(report.cells_detail.len(), 3);
        for (i, cell) in report.cells_detail.iter().enumerate() {
            assert_eq!(cell.cell, i as u32);
            assert_eq!(cell.seed, derive_cell_seed(7, i as u32));
            assert_eq!(cell.slice_slots, 32);
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
        // NaN still fails, and per-cell breakdowns are gated too.
        let mut nan = report.clone();
        nan.sla_violation_percent = f64::NAN;
        assert!(nan.has_non_finite());
        let mut cell_broken = report;
        cell_broken.cells_detail[1].avg_slot_cost = f64::INFINITY;
        assert!(cell_broken.has_non_finite());
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
