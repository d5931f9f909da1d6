//! End-to-end tests of the scenario engine: mid-run slice admission and
//! teardown, fault pricing, catalogue integrity and fixed-seed determinism.

use onslicing::domains::SliceId;
use onslicing::scenario::{
    builtin, run_scenario, Scenario, ScenarioConfig, ScenarioEngine, ScenarioEvent, SliceSpec,
};
use onslicing::slices::{ResourceKind, SliceKind};

/// The tentpole acceptance path: a slice admitted mid-run via a scenario
/// event trains online and appears in the per-slice metrics, and a
/// torn-down slice stops consuming capacity.
#[test]
fn admitted_slice_trains_online_and_torn_down_slice_releases_capacity() {
    let scenario = Scenario::new("lifecycle-e2e", 16, 64)
        .with_capacity(2.0)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs))
        .at(
            16,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Rdc),
            },
        )
        .at(48, ScenarioEvent::TeardownSlice { slice: 0 });
    let mut engine = ScenarioEngine::new(scenario, ScenarioConfig::default()).unwrap();
    let report = engine.run();

    // The admitted slice (id 2) appears in the per-slice metrics with its
    // own episodes and actually trained online (π_θ transitions consumed).
    assert_eq!(report.slices.len(), 3);
    let admitted = report.slices.iter().find(|s| s.id == 2).unwrap();
    assert_eq!(admitted.kind, SliceKind::Rdc);
    assert_eq!(admitted.admitted_at_slot, 16);
    assert!(admitted.episodes >= 2, "48 live slots = 3 full episodes");
    assert!(
        admitted.policy_updates > 0,
        "the admitted slice must train online"
    );
    assert!(admitted.avg_usage_percent > 0.0);

    // The torn-down slice (id 0) is gone from every domain manager, so its
    // allocation no longer counts against any capacity.
    let orch = engine.orchestrator();
    assert_eq!(orch.num_slices(), 2);
    assert!(orch.index_of(SliceId(0)).is_none());
    assert!(!orch.domains().has_slice(SliceId(0)));
    assert!(orch
        .slice_ids()
        .iter()
        .all(|id| orch.domains().has_slice(*id)));
    for resource in ResourceKind::ALL {
        assert!(
            orch.domains().residual_capacity(resource) >= 0.0,
            "survivors' allocations must fit without the torn-down slice"
        );
    }
    let torn = report.slices.iter().find(|s| s.id == 0).unwrap();
    assert_eq!(torn.torn_down_at_slot, Some(48));
    assert!(!report.has_non_finite());
}

/// Every built-in scenario is valid, JSON round-trips, and the cheap ones
/// run to completion (the full catalogue runs in release mode via CI's
/// `replay_check trace` gate).
#[test]
fn builtin_catalogue_is_valid_and_runs() {
    let catalogue = builtin::all();
    assert_eq!(catalogue.len(), builtin::BUILTIN_NAMES.len());
    for scenario in &catalogue {
        scenario.validate().unwrap();
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(&back, scenario);
    }
    for name in ["steady", "slice-churn"] {
        let report =
            run_scenario(builtin::by_name(name).unwrap(), ScenarioConfig::default()).unwrap();
        assert!(report.slice_episodes > 0, "{name} must close episodes");
        assert!(
            !report.has_non_finite(),
            "{name} must not produce non-finite metrics"
        );
        assert!(
            report.slices.iter().all(|s| s.episodes > 0),
            "{name}: every slice must live at least one episode"
        );
    }
}

/// Two runs of the same scenario with the same seed agree on every metric
/// — including through faults, which must also raise the
/// coordination pressure they are designed to create.
#[test]
fn fault_scenario_is_deterministic_and_raises_coordination_pressure() {
    let scenario = builtin::by_name("tn-degradation").unwrap();
    let config = ScenarioConfig {
        seed: 5,
        ..ScenarioConfig::default()
    };
    let a = run_scenario(scenario.clone(), config).unwrap();
    let b = run_scenario(scenario, config).unwrap();
    assert_eq!(a, b, "fixed-seed runs must agree");

    let steady = run_scenario(builtin::steady(), config).unwrap();
    assert!(
        a.avg_coordination_rounds > steady.avg_coordination_rounds,
        "a transport fault must force extra agent<->manager interactions \
         ({:.2} vs steady {:.2})",
        a.avg_coordination_rounds,
        steady.avg_coordination_rounds
    );
}
