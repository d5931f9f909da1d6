//! Elastic-fleet integration tests: the determinism contract of live
//! migration and the balancer's effect on the fleet SLA.
//!
//! The load-bearing property: an elastic run whose balancer plans nothing
//! — disabled, or enabled with an infinite load-gap threshold (window-
//! stepped exactly like a migrating run) — emits a [`FleetTrace`] that is
//! **byte-identical** to the traces of the same cells run as plain,
//! unrelated scenario engines. Cells share nothing, and migration must be
//! a pure re-homing of state: the machinery itself may not perturb a
//! single bit of telemetry when no slice actually moves.

use onslicing_fleet::{
    BalancerConfig, CellTraceEntry, ElasticFleet, ElasticFleetConfig, FleetTrace,
    FLEET_TRACE_FORMAT_VERSION,
};
use onslicing_replay::record_scenario;
use onslicing_scenario::{
    hotspot_shift, AdmissionConfig, FleetScenario, Scenario, ScenarioConfig, ScenarioEngine,
    SliceSpec,
};
use onslicing_slices::SliceKind;
use proptest::prelude::*;
use rayon::prelude::*;

fn tiny_base() -> Scenario {
    Scenario::new("tiny-elastic", 8, 16)
        .with_capacity(1.5)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Rdc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// migrate(slice, A→B) is pure state motion: with the balancer forced
    /// to a no-op plan (and with it disabled outright), the elastic fleet
    /// reproduces, byte for byte, the telemetry of its cells run one by one
    /// as plain scenario engines outside any fleet — for random seeds and
    /// cell counts.
    #[test]
    fn noop_elastic_runs_are_byte_identical_to_the_frozen_runner(
        seed in 0u64..10_000,
        cells in 1usize..4,
    ) {
        let base = ScenarioConfig { seed, ..ScenarioConfig::default() };
        let reference = FleetTrace {
            format_version: FLEET_TRACE_FORMAT_VERSION,
            scenario: tiny_base().name,
            master_seed: seed,
            cells: (0..cells as u32)
                .map(|cell| {
                    let config = base.for_cell(cell);
                    CellTraceEntry {
                        cell,
                        seed: config.seed,
                        trace: record_scenario(tiny_base(), config).unwrap().0,
                    }
                })
                .collect(),
        }
        .to_json();
        let elastic = |balancer: BalancerConfig| {
            ElasticFleet::run(
                FleetScenario::new(tiny_base(), 1),
                ElasticFleetConfig::new(cells).with_seed(seed).with_balancer(balancer),
            )
            .unwrap()
        };
        let disabled = elastic(BalancerConfig::disabled());
        let forced_noop = elastic(BalancerConfig::forced_noop());
        prop_assert!(disabled.report.migrations.is_empty());
        prop_assert!(forced_noop.report.migrations.is_empty());
        prop_assert_eq!(disabled.trace.to_json(), reference.clone());
        // The forced-noop run was window-stepped on the balancer cadence —
        // the windowing itself must not leave a trace.
        prop_assert_eq!(forced_noop.trace.to_json(), reference);
    }
}

#[test]
fn migrated_agents_keep_exact_weights_and_rng_streams() {
    // Two cells of the hotspot-shift fleet, stepped mid-run; slice 3 of
    // the hot cell is extracted and injected into the cold cell. The
    // serialized agent and environment must be byte-identical across the
    // move — weights, Adam moments, rollout buffer, Lagrangian state and
    // both RNG streams — and the slice must keep running in its new home.
    let fleet = hotspot_shift();
    let config = ScenarioConfig::default();
    let mut hot = ScenarioEngine::new(fleet.scenario_for_cell(0), config.for_cell(0)).unwrap();
    let mut cold = ScenarioEngine::new(fleet.scenario_for_cell(1), config.for_cell(1)).unwrap();
    hot.run_until(14, &mut ());
    cold.run_until(14, &mut ());

    let migration = hot.extract_slice(3, 14).unwrap();
    let agent_bytes = serde_json::to_string(&migration.checkpoint.agent).unwrap();
    let env_bytes = serde_json::to_string(&migration.checkpoint.env).unwrap();
    assert!(migration.traffic_restores.is_empty());
    let new_id = cold.inject_slice(migration, 14).unwrap();
    assert_eq!(new_id.0, 4, "the cold cell hands out its own next id");

    let index = cold.orchestrator().index_of(new_id).unwrap();
    assert_eq!(
        serde_json::to_string(&cold.orchestrator().agents()[index]).unwrap(),
        agent_bytes,
        "agent state must survive migration bit-for-bit"
    );
    assert_eq!(
        serde_json::to_string(&cold.orchestrator().env().envs()[index]).unwrap(),
        env_bytes,
        "environment state must survive migration bit-for-bit"
    );

    // The migrated slice lives on: the cold cell runs to completion and
    // closes episodes for it (it arrived mid-episode).
    let report = cold.run_with_observer(&mut ());
    let migrated = report.slices.iter().find(|s| s.id == new_id.0).unwrap();
    assert_eq!(migrated.admitted_at_slot, 14);
    assert!(
        migrated.episodes > 0,
        "the migrated slice must keep closing episodes"
    );
    // And the hot cell accounts the departure like a teardown at slot 14.
    let hot_report = hot.run_with_observer(&mut ());
    assert_eq!(hot_report.slices[3].torn_down_at_slot, Some(14));
}

#[test]
fn hotspot_shift_balancer_strictly_reduces_fleet_sla_violations() {
    // The acceptance criterion: with the traffic hotspot concentrated on
    // cell 0, enabling the balancer must strictly lower the fleet-wide
    // SLA-violation percentage versus frozen sharding — migrations give
    // the hot slices idle-neighbor capacity instead of a squeezed share.
    // A single seed can land either way (a migrated slice restarts its
    // episode in a new cell) and most land on neither — over seeds 0–31 the
    // balanced run is strictly better on 12, tied on 19 and worse on 1 — so
    // the claim is about the mean, over enough seeds to resolve it (8 were
    // not; the figures are in ROADMAP item 5).
    const SEEDS: usize = 32;
    let run = |seed: usize, balancer: BalancerConfig| {
        ElasticFleet::run(
            hotspot_shift(),
            ElasticFleetConfig::new(2)
                .with_seed(seed as u64)
                .with_balancer(balancer),
        )
        .unwrap()
    };
    // The 64 runs are independent: fan them out.
    let outcomes: Vec<_> = (0..SEEDS)
        .into_par_iter()
        .map(|seed| {
            (
                run(seed, BalancerConfig::disabled()),
                run(seed, BalancerConfig::default()),
            )
        })
        .collect();
    let (mut frozen_sum, mut balanced_sum, mut migrations, mut granted) = (0.0, 0.0, 0, 0);
    for (frozen, balanced) in &outcomes {
        frozen_sum += frozen.report.sla_violation_percent;
        balanced_sum += balanced.report.sla_violation_percent;
        migrations += balanced.report.migrations.len();
        // Migrations drain the hotspot, never feed it.
        for m in &balanced.report.migrations {
            assert_eq!(m.from_cell, 0, "migrations must leave the hot cell");
            assert_ne!(m.to_cell, 0);
        }
        // Every migration shows up in both endpoint cells' telemetry.
        for m in &balanced.report.migrations {
            let source = &balanced.trace.cells[m.from_cell as usize].trace;
            let target = &balanced.trace.cells[m.to_cell as usize].trace;
            assert!(source
                .migrations
                .iter()
                .any(|e| !e.arrived && e.slice == m.from_slice && e.peer_slice == m.to_slice));
            assert!(target
                .migrations
                .iter()
                .any(|e| e.arrived && e.slice == m.to_slice && e.peer_slice == m.from_slice));
        }
        // The two scripted fleet admissions resolved; where the surge leaves
        // room on the cold cell at least one lands there (summed below).
        let report = &balanced.report;
        assert_eq!(
            report.fleet_admissions_granted + report.fleet_admissions_denied,
            2
        );
        granted += report.fleet_admissions_granted;
    }
    assert!(
        granted >= 1,
        "no scripted fleet admission was granted on any of {SEEDS} seeds"
    );
    assert!(
        migrations > 0,
        "the hotspot must trigger at least one migration"
    );
    let (frozen, balanced) = (frozen_sum / SEEDS as f64, balanced_sum / SEEDS as f64);
    assert!(
        balanced < frozen,
        "balancer on: mean {balanced:.3}% violations over {SEEDS} seeds must be strictly \
         below balancer off: {frozen:.3}%"
    );
}

#[test]
fn fleet_admissions_are_denied_fleet_wide_when_no_cell_can_host() {
    // Every cell is saturated by construction (the estimated share exceeds
    // any cell's residual), so the fleet-routed admission must be denied
    // fleet-wide rather than forced onto some cell.
    let base = Scenario::new("full-fleet", 8, 16)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs));
    let fleet = FleetScenario::new(base, 1).fleet_admit(8, SliceSpec::new(SliceKind::Rdc));
    let config = ElasticFleetConfig {
        cells: 2,
        base: ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.95,
                headroom: 0.0,
                ..Default::default()
            },
            ..ScenarioConfig::default()
        },
        balancer: BalancerConfig::disabled(),
    };
    let outcome = ElasticFleet::run(fleet, config).unwrap();
    assert_eq!(outcome.report.fleet_admissions_granted, 0);
    assert_eq!(outcome.report.fleet_admissions_denied, 1);
    assert_eq!(outcome.report.peak_slices, 4, "no cell grew");
}

#[test]
fn elastic_runner_rejects_underprovisioned_fleets() {
    // hotspot-shift targets cell 0 and declares min_cells = 2.
    assert!(
        ElasticFleet::run(hotspot_shift(), ElasticFleetConfig::new(1))
            .unwrap_err()
            .contains("at least 2 cells")
    );
    let bad_balancer = ElasticFleetConfig::new(2).with_balancer(BalancerConfig {
        cadence_slots: 0,
        ..BalancerConfig::default()
    });
    assert!(ElasticFleet::run(hotspot_shift(), bad_balancer).is_err());
}
