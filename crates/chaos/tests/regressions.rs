//! Minimized counterexamples promoted from chaos-fuzz runs.
//!
//! Each JSON file under `regressions/` is a shrunk [`ChaosCase`] that used to
//! violate a fleet invariant before its fix landed. The cases run through the
//! full harness ([`check_case_with_scratch`]), so a reintroduced bug fails the
//! exact invariant that originally caught it.

use onslicing_chaos::{check_case_with_scratch, ChaosCase};

fn run_regression(json: &str) {
    let case = ChaosCase::from_json(json).expect("regression case parses and validates");
    if let Err(violation) = check_case_with_scratch(&case) {
        panic!(
            "regression `{}` violated an invariant again: {violation}",
            case.scenario.name
        );
    }
}

/// A cell event may reference a slice id that only a fleet-routed admission
/// assigns. `ElasticFleet::new` used to construct cell engines with zero
/// admission slack, rejecting at startup a fleet scenario that
/// `FleetScenario::validate` had accepted.
#[test]
fn cell_event_may_reference_fleet_admitted_slice_id() {
    run_regression(include_str!("../regressions/fleet_admitted_id_ref.json"));
}

/// A fleet that has reached its scenario end must deny live admissions: the
/// granted slice would never execute a slot, and its zero-length episode would
/// pollute final aggregation. `ElasticFleet::admit` used to grant anyway.
#[test]
fn completed_fleet_denies_live_admissions() {
    run_regression(include_str!("../regressions/admit_after_scenario_end.json"));
}

/// With the balancer disabled, slot 0 and the scenario end are the only sync
/// points — and the end pseudo-sync does no fleet work. The construction-time
/// sync cursor used to treat the slot-0 point as already processed, so a
/// fleet admission scripted at slot 0 was never adjudicated at all.
#[test]
fn slot0_fleet_admission_is_adjudicated() {
    run_regression(include_str!("../regressions/slot0_admission_dropped.json"));
}

/// A fleet admission scripted at slot 0 creates sync point 0, and 0 is a
/// multiple of every cadence — the balancer used to run an unscheduled round
/// there and, with a zero load gap, migrate a slice before any slot executed.
#[test]
fn slot0_fleet_admission_triggers_no_balancer_round() {
    run_regression(include_str!(
        "../regressions/slot0_admission_balancer_round.json"
    ));
}

/// The harness's own admission-law oracle used to evaluate the `greedy` law
/// (`share + headroom · capacity + reserved`) whatever policy the case ran,
/// so every `cautious` case (`2 · share + …`) whose budget differed by a
/// whole grant failed the battery — `chaos_fuzz --cases 48 --seed 1` cases
/// 3, 10 and 45. The oracle now evaluates the law of the case's own policy.
#[test]
fn cautious_admission_law_is_predicted_by_the_cautious_oracle() {
    run_regression(include_str!("../regressions/cautious_law_none_fit.json"));
    run_regression(include_str!("../regressions/cautious_law_wide_cell.json"));
    run_regression(include_str!(
        "../regressions/cautious_law_with_headroom.json"
    ));
}
