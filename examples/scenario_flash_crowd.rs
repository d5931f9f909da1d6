//! Programmatic scenario construction (no JSON): a flash crowd hits the MAR
//! slice while a fourth slice is admitted mid-run, then torn down again.
//!
//! ```sh
//! cargo run --release --example scenario_flash_crowd
//! ```

use onslicing::scenario::{Scenario, ScenarioConfig, ScenarioEngine, ScenarioEvent, SliceSpec};
use onslicing::slices::SliceKind;

fn main() {
    // The timeline, built with the chainable helpers instead of a JSON file:
    // three paper slices from slot 0; at slot 16 the MAR traffic doubles for
    // one episode; mid-surge a fourth (smaller) MAR tenant asks to join —
    // the admission controller checks residual per-domain capacity before
    // the agent and environment are instantiated — and at slot 48 that
    // tenant leaves again.
    let scenario = Scenario::new("flash-crowd-example", 16, 64)
        .describe("Traffic burst + mid-run admission, built programmatically")
        .with_capacity(1.5)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs))
        .slice(SliceSpec::new(SliceKind::Rdc))
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
        .at(48, ScenarioEvent::TeardownSlice { slice: 3 });
    scenario.validate().expect("the timeline is well-formed");

    let mut engine = ScenarioEngine::new(scenario, ScenarioConfig::default())
        .expect("scenario construction succeeds");
    let report = engine.run();

    println!(
        "{}: {} slice-episodes, {:.1}% SLA violations, {:.2} coordination rounds/slot",
        report.scenario,
        report.slice_episodes,
        report.sla_violation_percent,
        report.avg_coordination_rounds
    );
    println!(
        "peak {} concurrent slices, {} slice-slots, {} admissions denied",
        report.peak_concurrent_slices, report.slice_slots, report.admissions_denied
    );
    for s in &report.slices {
        let lifetime = match s.torn_down_at_slot {
            Some(t) => format!("slots {:>2}..{t}", s.admitted_at_slot),
            None => format!("slots {:>2}..end", s.admitted_at_slot),
        };
        println!(
            "  slice {} ({}) {}: {} episodes, {} violations, {} policy updates, usage {:.1}%",
            s.id,
            s.kind.name(),
            lifetime,
            s.episodes,
            s.violations,
            s.policy_updates,
            s.avg_usage_percent
        );
    }

    // The mid-run tenant really did live, learn and leave.
    let guest = report.slices.iter().find(|s| s.id == 3).expect("admitted");
    assert_eq!(guest.admitted_at_slot, 24);
    assert_eq!(guest.torn_down_at_slot, Some(48));
    assert!(guest.policy_updates > 0, "the guest slice trained online");
    assert_eq!(engine.orchestrator().num_slices(), 3);
    println!("\nguest slice joined at slot 24, trained online and left at slot 48.");
}
