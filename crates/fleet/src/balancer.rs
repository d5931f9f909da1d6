//! The fleet balancer: deterministic live-migration planning over a set of
//! running cells.
//!
//! On a configurable cadence the balancer measures every cell's load and
//! migrates whole slices — agent weights, optimizer moments, RNG streams,
//! environment simulator and traffic cursors, the mid-episode position
//! included — from the most loaded cell to the least loaded one that still
//! passes the per-cell admission check. Migration is the checkpoint
//! machinery at work between cells: [`ScenarioEngine::extract_slice`]
//! detaches the slice, [`ScenarioEngine::inject_slice`] re-attaches it, and
//! nothing is reset or retrained on the way.
//!
//! ## Determinism contract
//!
//! Migration **plans are a pure function of deterministic state**: enforced
//! capacity shares (utilization) and closed-episode SLA violations. The
//! measured per-slot wall-clock latencies are deliberately *not* a policy
//! input — they differ run to run and machine to machine, and a plan based
//! on them would break the fleet's byte-identical-trace guarantee. Ties are
//! broken by cell index, the migrant is the source cell's highest slice id
//! (its most recently admitted slice), and the balancer runs between the
//! parallel stepping windows, so the same fleet produces the same migration
//! schedule whatever the rayon worker count.

use serde::{Deserialize, Serialize};

use onslicing_replay::{MigrationEvent, TelemetryRecorder};
use onslicing_scenario::ScenarioEngine;
use onslicing_slices::{ResourceKind, SliceKind};

use crate::policy::{BalancePolicy, BalanceSignals};

/// Tuning of the fleet balancer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalancerConfig {
    /// Whether rebalancing runs at all (off = PR 4's frozen sharding).
    pub enabled: bool,
    /// Slots between rebalancing rounds.
    pub cadence_slots: usize,
    /// Most migrations one round may apply.
    pub max_migrations_per_round: usize,
    /// Smallest source-minus-target load gap that justifies a migration;
    /// `f64::INFINITY` forces a no-op plan (the balancer measures but never
    /// moves — the control arm of the equivalence tests).
    pub min_load_gap: f64,
    /// Weight of the per-window SLA-violation rate in the load score (the
    /// utilization term has weight 1).
    pub violation_weight: f64,
    /// A source cell never drops to fewer active slices than this.
    pub min_slices_per_cell: usize,
    /// The migration strategy to plan with (default `greedy`).
    pub policy: BalancePolicy,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            // One episode of the CI-scale scenarios: migrating on episode
            // boundaries moves slices between days, not mid-day, so the
            // arriving slice starts a clean episode in its new home.
            cadence_slots: 12,
            max_migrations_per_round: 2,
            min_load_gap: 0.25,
            // Mild SLA feedback: utilization leads (it reacts within a
            // slot), violations confirm. A heavy violation weight makes
            // the balancer chase last window's pain back and forth.
            violation_weight: 0.5,
            min_slices_per_cell: 1,
            policy: BalancePolicy::Greedy,
        }
    }
}

impl BalancerConfig {
    /// A disabled balancer (frozen sharding).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// An enabled balancer whose plan is always empty: it measures on the
    /// normal cadence (so the run is window-stepped exactly like a
    /// balancing run) but the infinite load-gap threshold suppresses every
    /// migration.
    pub fn forced_noop() -> Self {
        Self {
            min_load_gap: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Validates the tuning, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.cadence_slots == 0 {
            return Err("balancer cadence must be at least one slot".to_string());
        }
        if self.enabled && self.max_migrations_per_round == 0 {
            return Err("max_migrations_per_round must be at least 1".to_string());
        }
        if self.min_load_gap.is_nan() || self.min_load_gap < 0.0 {
            return Err(format!(
                "min_load_gap must be non-negative, got {}",
                self.min_load_gap
            ));
        }
        if !(self.violation_weight >= 0.0 && self.violation_weight.is_finite()) {
            return Err(format!(
                "violation_weight must be non-negative and finite, got {}",
                self.violation_weight
            ));
        }
        if self.min_slices_per_cell == 0 {
            return Err("min_slices_per_cell must be at least 1".to_string());
        }
        Ok(())
    }
}

/// One applied migration, in fleet-level terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Global slot the migration happened before.
    pub slot: usize,
    /// Source cell.
    pub from_cell: u32,
    /// The slice's id in the source cell.
    pub from_slice: u32,
    /// Target cell.
    pub to_cell: u32,
    /// The slice's id in the target cell.
    pub to_slice: u32,
    /// Application class of the migrated slice.
    pub kind: SliceKind,
}

impl MigrationRecord {
    /// This migration as `cell`'s telemetry shows it: a departure when the
    /// slice left `cell`, an arrival when it entered it, `None` when the
    /// migration did not touch `cell`.
    pub fn endpoint(&self, cell: u32) -> Option<MigrationEvent> {
        let (slice, arrived, peer_cell, peer_slice) = if cell == self.from_cell {
            (self.from_slice, false, self.to_cell, self.to_slice)
        } else if cell == self.to_cell {
            (self.to_slice, true, self.from_cell, self.from_slice)
        } else {
            return None;
        };
        Some(MigrationEvent {
            slot: self.slot,
            slice,
            kind: self.kind,
            arrived,
            peer_cell,
            peer_slice,
        })
    }
}

/// One live cell of an elastic fleet run: its engine, telemetry recorder,
/// measured per-slot wall-clock latencies and rebalancing-window baseline.
/// A cell's number is its position in the fleet and its seed is its
/// engine's, so neither is stored here.
///
/// Serializable so a fleet checkpoint can freeze every cell whole —
/// deployment, telemetry-so-far and (report-only) latency samples — and a
/// restored cell continues exactly where the snapshot stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRuntime {
    /// The cell's live deployment.
    pub engine: ScenarioEngine,
    /// The cell's telemetry recorder (migrations included).
    pub recorder: TelemetryRecorder,
    /// Wall-clock latency of every executed slot, in milliseconds
    /// (report-only; never a balancer input).
    pub slot_latencies_ms: Vec<f64>,
    /// The cell's totals at the previous rebalancing boundary.
    window_start: WindowStart,
}

impl CellRuntime {
    /// A cell that has not been through a rebalancing boundary yet.
    pub(crate) fn new(engine: ScenarioEngine, recorder: TelemetryRecorder, slots: usize) -> Self {
        Self {
            engine,
            recorder,
            slot_latencies_ms: Vec::with_capacity(slots),
            window_start: WindowStart::default(),
        }
    }
}

/// A cell's violation, episode, cost and slice-slot totals at the previous
/// rebalancing boundary: the baseline the per-window SLA pressure and cost
/// rate are measured against. Checkpointed with the cell, so a resumed
/// fleet sees the same per-window pressure the uninterrupted run would.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct WindowStart {
    violations: usize,
    episodes: usize,
    cost_total: f64,
    cost_slots: usize,
}

impl WindowStart {
    fn of(engine: &ScenarioEngine) -> Self {
        Self {
            violations: engine.total_violations(),
            episodes: engine.total_episodes(),
            cost_total: engine.slot_cost_total(),
            cost_slots: engine.slice_slots(),
        }
    }
}

/// Deterministic utilization of one cell: the worst resource's enforced
/// fraction of effective capacity. Above 1.0 means the enforced shares
/// exceed the (possibly fault-degraded) capacity — an overload the
/// coordination loop is squeezing.
pub fn cell_utilization(engine: &ScenarioEngine) -> f64 {
    let domains = engine.orchestrator().domains();
    ResourceKind::ALL
        .iter()
        .map(|r| {
            let capacity = domains.capacity_of(*r);
            if capacity > 0.0 {
                1.0 - domains.residual_capacity(*r) / capacity
            } else {
                1.0
            }
        })
        .fold(0.0, f64::max)
}

/// Runs one rebalancing round at global slot `slot`: repeatedly asks the
/// configured [`BalancePolicy`] for a `(source, target)` pair over the
/// current deterministic signals and moves the source's highest-id slice
/// there (earlier same-round arrivals' estimated shares reserved), until the
/// policy declines or the per-round migration budget is spent. Records the
/// departure/arrival pair in the cells' telemetry, restarts every cell's
/// window and returns the applied migrations.
pub fn rebalance(
    config: &BalancerConfig,
    slot: usize,
    cells: &mut [CellRuntime],
) -> Result<Vec<MigrationRecord>, String> {
    let mut records = Vec::new();
    if !config.enabled || cells.len() < 2 {
        return Ok(records);
    }
    // Per-window SLA pressure and cost rates are fixed for the round;
    // utilization is re-measured after every migration (the move frees
    // enforced shares at the source immediately). The SLA pressure is the
    // violation rate of the episodes closed since the previous window,
    // weighted; the cost rate is the per-slice-slot cost accrued since then
    // (the `cost-aware` policy's signal).
    let mut violation_terms = Vec::with_capacity(cells.len());
    let mut window_cost = Vec::with_capacity(cells.len());
    for c in cells.iter_mut() {
        let now = WindowStart::of(&c.engine);
        let was = std::mem::replace(&mut c.window_start, now);
        let episodes = now.episodes - was.episodes;
        violation_terms.push(
            config.violation_weight * (now.violations - was.violations) as f64
                / episodes.max(1) as f64,
        );
        window_cost.push(
            (now.cost_total - was.cost_total) / (now.cost_slots - was.cost_slots).max(1) as f64,
        );
    }
    let policy = config.policy;
    for _ in 0..config.max_migrations_per_round {
        // A slice that was admitted or arrived at this boundary — by a
        // fleet-routed admission or an earlier migration of this round
        // — enforces nothing until the next slot, so its estimated
        // share is added as a virtual load; otherwise every migrant of
        // a round would pile onto the same still-cold-looking target.
        let loads: Vec<f64> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                cell_utilization(&c.engine)
                    + violation_terms[i]
                    + c.engine.pending_admissions() as f64
                        * c.engine.config().admission.estimated_share
            })
            .collect();
        // Eligibility is policy-independent: a source must be able to
        // spare a slice, a target must pass its own admission check —
        // `check_admission` reserves the estimated share of every slice
        // pending at this boundary, whether it came from a fleet-routed
        // admission or an earlier migration of this same round.
        let signals = BalanceSignals {
            loads,
            can_source: cells
                .iter()
                .map(|c| c.engine.orchestrator().num_slices() > config.min_slices_per_cell)
                .collect(),
            can_target: cells
                .iter()
                .map(|c| c.engine.check_admission().is_ok())
                .collect(),
            // Half a window of lookahead: over a full diurnal period
            // the mean normalized traffic is phase-blind (every trace
            // averages to its own day mean), while the next half-window
            // still sees *where in the day* each cell's peak falls.
            forecast: cells
                .iter()
                .map(|c| {
                    c.engine
                        .forecast_normalized_traffic((config.cadence_slots / 2).max(1))
                })
                .collect(),
            window_cost: window_cost.clone(),
            min_load_gap: config.min_load_gap,
        };
        let Some((src, dst)) = policy.plan_move(&signals) else {
            break;
        };
        if src == dst || src >= cells.len() || dst >= cells.len() {
            return Err(format!(
                "balance policy `{policy}` planned an invalid move {src} -> {dst} \
                 over {} cell(s)",
                cells.len()
            ));
        }
        let from_slice = cells[src]
            .engine
            .orchestrator()
            .slice_ids()
            .iter()
            .map(|id| id.0)
            .max()
            .expect("source cell has more slices than the configured minimum");
        let migration = cells[src].engine.extract_slice(from_slice, slot)?;
        let kind = migration.checkpoint.kind;
        let to_slice = cells[dst].engine.inject_slice(migration, slot)?.0;
        records.push(MigrationRecord {
            slot,
            from_cell: src as u32,
            from_slice,
            to_cell: dst as u32,
            to_slice,
            kind,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balancer_config_validation_catches_bad_tuning() {
        BalancerConfig::default().validate().unwrap();
        BalancerConfig::disabled().validate().unwrap();
        BalancerConfig::forced_noop().validate().unwrap();
        assert!(BalancerConfig {
            cadence_slots: 0,
            ..BalancerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BalancerConfig {
            max_migrations_per_round: 0,
            ..BalancerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BalancerConfig {
            min_load_gap: -0.1,
            ..BalancerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BalancerConfig {
            violation_weight: f64::NAN,
            ..BalancerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BalancerConfig {
            min_slices_per_cell: 0,
            ..BalancerConfig::default()
        }
        .validate()
        .is_err());
        // A disabled balancer tolerates a zero cadence (it never fires).
        BalancerConfig {
            enabled: false,
            cadence_slots: 0,
            ..BalancerConfig::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn a_migration_is_a_departure_at_its_source_and_an_arrival_at_its_target() {
        let record = MigrationRecord {
            slot: 16,
            from_cell: 2,
            from_slice: 5,
            to_cell: 0,
            to_slice: 3,
            kind: SliceKind::Hvs,
        };
        let departure = MigrationEvent {
            slot: 16,
            slice: 5,
            kind: SliceKind::Hvs,
            arrived: false,
            peer_cell: 0,
            peer_slice: 3,
        };
        let arrival = MigrationEvent {
            slice: 3,
            arrived: true,
            peer_cell: 2,
            peer_slice: 5,
            ..departure
        };
        assert_eq!(record.endpoint(2), Some(departure));
        assert_eq!(record.endpoint(0), Some(arrival));
        assert_eq!(record.endpoint(1), None);
    }

    #[test]
    fn balancer_config_keys_are_pinned_in_order() {
        // Part of every fleet checkpoint's layout: a reordered or renamed
        // field is a format change.
        let serde::Value::Obj(pairs) = BalancerConfig::default().serialize_value() else {
            panic!("a balancer config serializes to an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "enabled",
                "cadence_slots",
                "max_migrations_per_round",
                "min_load_gap",
                "violation_weight",
                "min_slices_per_cell",
                "policy",
            ]
        );
    }
}
