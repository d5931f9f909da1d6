//! The built-in scenario catalogue.
//!
//! Seven named scenarios covering the workload axes the ROADMAP asks for:
//! steady state, flash crowds, slice churn, infrastructure faults, a
//! week-long diurnal rhythm with an SLA renegotiation, a many-slice
//! stress deployment that exercises the rayon fan-out, and the fleet-soak
//! per-cell workload of the multi-cell fleet runner. All are CI-scale
//! (seconds in release mode); they are *shapes*, so scaling them up is a
//! matter of raising `horizon`/`total_slots`.

use onslicing_domains::DomainKind;
use onslicing_slices::SliceKind;
use onslicing_traffic::DiurnalTraceConfig;

use crate::spec::{Scenario, ScenarioEvent, SliceSpec};

/// Names of the built-in scenarios, in catalogue order.
pub const BUILTIN_NAMES: [&str; 7] = [
    "steady",
    "flash-crowd",
    "slice-churn",
    "tn-degradation",
    "diurnal-week",
    "stress-many-slices",
    "fleet-soak",
];

fn paper_trio(scenario: Scenario) -> Scenario {
    scenario
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs))
        .slice(SliceSpec::new(SliceKind::Rdc))
}

/// The paper's static setting: three slices, no events — the control run
/// every other scenario is compared against.
pub fn steady() -> Scenario {
    paper_trio(Scenario::new("steady", 16, 48))
        .describe("Three slices (MAR/HVS/RDC), stationary traffic, no events")
}

/// A flash crowd hits the MAR slice while a fourth slice asks to join.
pub fn flash_crowd() -> Scenario {
    paper_trio(Scenario::new("flash-crowd", 16, 64))
        .describe("MAR traffic doubles for one episode; a fourth slice joins mid-surge")
        .with_capacity(1.5)
        .at(
            16,
            ScenarioEvent::TrafficBurst {
                slice: 0,
                scale: 2.0,
                duration_slots: 16,
            },
        )
        .at(
            24,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Mar).with_peak_rate(3.0),
            },
        )
        .at(48, ScenarioEvent::TeardownSlice { slice: 3 })
}

/// Continuous admission and teardown: tenants come and go.
pub fn slice_churn() -> Scenario {
    Scenario::new("slice-churn", 12, 84)
        .describe("Tenants join and leave every few episodes; ids 2..4 are assigned in event order")
        .with_capacity(1.5)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs))
        .at(
            12,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Rdc),
            },
        )
        .at(
            24,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Mar).with_peak_rate(2.0),
            },
        )
        .at(36, ScenarioEvent::TeardownSlice { slice: 1 })
        .at(48, ScenarioEvent::TeardownSlice { slice: 2 })
        .at(
            60,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Hvs),
            },
        )
}

/// Transport-network degradation, then a shorter radio fault: the domain
/// managers price the shrunken capacities and the agents must shrink with
/// them.
pub fn tn_degradation() -> Scenario {
    paper_trio(Scenario::new("tn-degradation", 16, 64))
        .describe("Transport capacity halves for one episode, then the radio degrades briefly")
        .at(
            16,
            ScenarioEvent::DomainFault {
                domain: DomainKind::Transport,
                capacity_scale: 0.5,
                duration_slots: 16,
            },
        )
        .at(
            48,
            ScenarioEvent::DomainFault {
                domain: DomainKind::Radio,
                capacity_scale: 0.7,
                duration_slots: 8,
            },
        )
}

/// A compressed week: weekday/weekend traffic regimes plus a mid-week SLA
/// renegotiation on the video slice.
pub fn diurnal_week() -> Scenario {
    let mut scenario = paper_trio(Scenario::new("diurnal-week", 24, 168)).describe(
        "Seven compressed days: weekday volumes, a weekend dip, an SLA renegotiation on HVS",
    );
    // Days 0-4 ramp the human-driven slices up through the week, days 5-6
    // are the weekend dip; the IoT slice (RDC) stays flat throughout.
    for (day, scale) in [(1, 1.1), (2, 1.2), (3, 1.25), (4, 1.3), (5, 0.7), (6, 0.6)] {
        let at = day * 24;
        scenario = scenario
            .at(at, ScenarioEvent::SetTrafficScale { slice: 0, scale })
            .at(at, ScenarioEvent::SetTrafficScale { slice: 1, scale });
    }
    scenario
        .at(
            72,
            ScenarioEvent::RenegotiateSla {
                slice: 1,
                cost_threshold: 0.08,
            },
        )
        // Mid-week the streaming tenant's mix changes: more viewers, later
        // evening peak (takes effect from the next episode).
        .at(
            96,
            ScenarioEvent::SetTraceProfile {
                slice: 1,
                profile: DiurnalTraceConfig {
                    peak_rate: 3.0,
                    peak_hour: 21.5,
                    ..DiurnalTraceConfig::hvs_default()
                },
            },
        )
}

/// A many-slice deployment (12 ≫ the paper's 3) on a proportionally larger
/// infrastructure — the scenario that exercises the per-slice rayon fan-out.
pub fn stress_many_slices() -> Scenario {
    let mut scenario = Scenario::new("stress-many-slices", 8, 24)
        .describe("12 cloned slices on a 4x infrastructure; exercises the parallel fan-out")
        .with_capacity(4.0);
    for i in 0..12 {
        scenario = scenario.slice(SliceSpec::new(SliceKind::ALL[i % 3]));
    }
    scenario
}

/// The per-cell workload of the fleet runner: a 12-slice deployment that
/// additionally exercises every event class mid-run — an admission (the
/// 13th slice), a flash burst, a transport fault and a teardown — so a
/// fleet of `N` cells soaks lifecycle churn at `N × 12+` slice scale.
pub fn fleet_soak() -> Scenario {
    let mut scenario = Scenario::new("fleet-soak", 8, 24)
        .describe("12 slices per cell plus mid-run admission, burst, transport fault and teardown")
        .with_capacity(4.5);
    for i in 0..12 {
        scenario = scenario.slice(SliceSpec::new(SliceKind::ALL[i % 3]));
    }
    scenario
        .at(
            8,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::Mar).with_peak_rate(2.0),
            },
        )
        .at(
            10,
            ScenarioEvent::TrafficBurst {
                slice: 0,
                scale: 1.8,
                duration_slots: 6,
            },
        )
        .at(
            12,
            ScenarioEvent::DomainFault {
                domain: DomainKind::Transport,
                capacity_scale: 0.7,
                duration_slots: 6,
            },
        )
        .at(20, ScenarioEvent::TeardownSlice { slice: 5 })
}

/// Every built-in scenario, in [`BUILTIN_NAMES`] order.
pub fn all() -> Vec<Scenario> {
    vec![
        steady(),
        flash_crowd(),
        slice_churn(),
        tn_degradation(),
        diurnal_week(),
        stress_many_slices(),
        fleet_soak(),
    ]
}

/// Looks a built-in scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Resolves a CLI scenario argument: a built-in name, or a path to a
/// scenario JSON file (validated on load). `onslicing-bench`'s
/// `replay_check` binary resolves its single-cell arguments through it.
pub fn by_name_or_file(arg: &str) -> Result<Scenario, String> {
    if let Some(scenario) = by_name(arg) {
        return Ok(scenario);
    }
    if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg)
            .map_err(|e| format!("cannot read scenario file `{arg}`: {e}"))?;
        return Scenario::from_json(&text);
    }
    Err(format!(
        "`{arg}` is neither a built-in scenario nor an existing file \
         (built-ins: {})",
        BUILTIN_NAMES.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_valid_and_named_consistently() {
        let scenarios = all();
        assert_eq!(scenarios.len(), BUILTIN_NAMES.len());
        for (scenario, name) in scenarios.iter().zip(BUILTIN_NAMES) {
            assert_eq!(scenario.name, name);
            scenario.validate().unwrap();
            assert!(!scenario.description.is_empty());
        }
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for name in BUILTIN_NAMES {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn every_builtin_round_trips_through_json() {
        for scenario in all() {
            let back = Scenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(back, scenario);
        }
    }

    #[test]
    fn stress_scenario_goes_well_beyond_three_slices() {
        let s = stress_many_slices();
        assert!(s.initial_slices.len() >= 12);
        assert!(s.capacity >= 4.0);
    }

    #[test]
    fn fleet_soak_mixes_scale_with_lifecycle_churn() {
        let s = fleet_soak();
        assert_eq!(s.initial_slices.len(), 12);
        // One admission mid-run, capacity-gated per cell by the admission
        // controller: cells peak at 12-13 slices depending on their seed,
        // and the committed 8-cell fleet curve peaks at 101 concurrent
        // slices — past the 100-slice fleet target.
        let admissions = s
            .events
            .iter()
            .filter(|t| matches!(t.event, ScenarioEvent::AdmitSlice { .. }))
            .count();
        assert_eq!(admissions, 1);
        assert!(s
            .events
            .iter()
            .any(|t| matches!(t.event, ScenarioEvent::DomainFault { .. })));
        assert!(s
            .events
            .iter()
            .any(|t| matches!(t.event, ScenarioEvent::TeardownSlice { .. })));
    }
}
