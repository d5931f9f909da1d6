//! The fleet twin of the repository's thread-count determinism gate: a
//! multi-cell fleet run must emit a byte-identical [`FleetTrace`] with the
//! rayon pool forced to one thread and at the machine default — cells share
//! nothing, and every cell's RNG chain is keyed by its derived seed, not by
//! the worker that happened to execute it. CI additionally compares fleet
//! traces across separate processes: the upgrade drill's 2-cell
//! `hotspot-shift` run (default pool vs `RAYON_NUM_THREADS=1`), the
//! Scenario trace gate's `replay_check trace` of the three fleet built-ins
//! (default pool vs `RAYON_NUM_THREADS=1` and `=3`) and the
//! `chaos_fuzz --cases 12 --seed 7` gate's generated multi-cell fleets.
//!
//! A fleet checkpoint rides the same gate in-process: `to_json` renders one
//! cell per pool job, and one live fleet's text must not depend on the pool
//! width (across processes it differs anyway — each cell's
//! `slot_latencies_ms` holds clock readings).
//!
//! This is deliberately the **only** binary whose tests set
//! `RAYON_NUM_THREADS`: the vendored rayon reads it on every call, and
//! mutating the process environment is only safe while no other thread
//! reads it concurrently, so every test here holds [`ENV`] while it runs.

use std::sync::{Mutex, MutexGuard, PoisonError};

use onslicing_fleet::{BalancePolicy, BalancerConfig, ElasticFleet, ElasticFleetConfig};
use onslicing_scenario::{
    diurnal_fleet, hotspot_shift, AdmissionPolicy, FleetScenario, Scenario, SliceSpec,
};
use onslicing_slices::SliceKind;

/// Serializes this binary's tests: each one sets `RAYON_NUM_THREADS`.
static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sets `RAYON_NUM_THREADS` (`None` unsets it) and returns the prior value.
fn set_width(width: Option<&str>) -> Option<String> {
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    match width {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    previous
}

#[test]
fn fleet_checkpoint_text_is_identical_across_thread_counts() {
    let _env = env_lock();
    let always_migrates = BalancerConfig {
        min_load_gap: 0.0,
        ..BalancerConfig::default()
    };
    let mut fleet = ElasticFleet::new(
        hotspot_shift(),
        ElasticFleetConfig::new(3)
            .with_seed(5)
            .with_balancer(always_migrates),
    )
    .unwrap();
    fleet.advance_to(16).unwrap();
    assert!(!fleet.migrations().is_empty());
    let checkpoint = fleet.checkpoint();
    let derived = serde_json::to_string(checkpoint).unwrap();
    let previous = set_width(None);
    let mut texts = vec![("default", checkpoint.to_json())];
    for width in ["1", "2", "3"] {
        set_width(Some(width));
        texts.push((width, checkpoint.to_json()));
    }
    set_width(previous.as_deref());
    for (width, text) in texts {
        assert!(
            text == derived,
            "to_json at RAYON_NUM_THREADS={width} differs from the derive"
        );
    }
}

#[test]
fn fleet_trace_is_byte_identical_across_thread_counts() {
    let _env = env_lock();
    let scenario = Scenario::new("fleet-determinism", 8, 16)
        .with_capacity(2.0)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs))
        .slice(SliceSpec::new(SliceKind::Rdc));
    let record = || {
        let config = ElasticFleetConfig::new(3)
            .with_seed(5)
            .with_balancer(BalancerConfig::disabled());
        let outcome = ElasticFleet::run(FleetScenario::new(scenario.clone(), 1), config).unwrap();
        outcome.trace.to_json()
    };
    // The elastic twin: a migrating hotspot-shift fleet — the balancer's
    // plan (and therefore the migration schedule embedded in the trace)
    // must be a pure function of deterministic state, never of scheduling.
    // Recorded twice: at a zero load-gap threshold, which makes the
    // seven-against-four hotspot migrate on any RNG stream (at the default
    // 0.25 most seeds do not), and at the shipped default.
    let record_elastic = |balancer: BalancerConfig| {
        let config = ElasticFleetConfig::new(2)
            .with_seed(5)
            .with_balancer(balancer);
        ElasticFleet::run(hotspot_shift(), config).unwrap()
    };
    let always_migrates = BalancerConfig {
        min_load_gap: 0.0,
        ..BalancerConfig::default()
    };
    // Every non-default policy rides the same gate: the plans of
    // `predictive` and `cost-aware` (and the `cautious` admission variant)
    // must also be pure functions of deterministic state.
    let record_policy = |policy: BalancePolicy| {
        let mut config = ElasticFleetConfig::new(2)
            .with_seed(5)
            .with_balancer(BalancerConfig {
                policy,
                ..BalancerConfig::default()
            });
        config.base.admission.policy = AdmissionPolicy::Cautious;
        let outcome = ElasticFleet::run(diurnal_fleet(), config).unwrap();
        outcome.trace.to_json()
    };
    let default_threads = record();
    let default_elastic = record_elastic(always_migrates);
    assert!(
        !default_elastic.report.migrations.is_empty(),
        "the hotspot run must actually migrate for this gate to bite"
    );
    let default_shipped = record_elastic(BalancerConfig::default());
    let default_predictive = record_policy(BalancePolicy::Predictive);
    let default_cost_aware = record_policy(BalancePolicy::CostAware);
    let previous = set_width(Some("1"));
    let single_thread = record();
    let single_elastic = record_elastic(always_migrates);
    let single_shipped = record_elastic(BalancerConfig::default());
    let single_predictive = record_policy(BalancePolicy::Predictive);
    let single_cost_aware = record_policy(BalancePolicy::CostAware);
    set_width(previous.as_deref());
    assert_eq!(
        default_threads, single_thread,
        "fleet traces must not depend on the rayon worker count"
    );
    assert_eq!(
        default_elastic.trace.to_json(),
        single_elastic.trace.to_json(),
        "elastic fleet traces (migrations included) must not depend on the rayon worker count"
    );
    assert_eq!(
        default_shipped.trace.to_json(),
        single_shipped.trace.to_json(),
        "default-balancer fleet traces must not depend on the rayon worker count"
    );
    assert_eq!(
        default_predictive, single_predictive,
        "predictive-policy traces must not depend on the rayon worker count"
    );
    assert_eq!(
        default_cost_aware, single_cost_aware,
        "cost-aware-policy traces must not depend on the rayon worker count"
    );
}
