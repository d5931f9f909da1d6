//! `churn-admit`: the same `nn`/`rl` layers used the other way round.
//!
//! A small cell under constant tenant churn: every six slots a slice asks
//! to join (it is calibrated, behaviour-cloned and its cost estimator
//! fitted before it goes live — *training*, where the steady loop only
//! *infers*), the slice admitted three cycles earlier leaves, and bursts,
//! transport faults and SLA renegotiations fire on their own cycles. The
//! churn rate is deliberately far above any real tenant churn, so that the
//! admission stall every tenant of the cell sees is a large, measurable
//! share of wall time.

use onslicing_domains::DomainKind;
use onslicing_scenario::{Scenario, ScenarioConfig, ScenarioEvent, SliceSpec};
use onslicing_slices::SliceKind;

use super::single_cell::engine_round;
use super::{Cx, Round};

pub const HORIZON: usize = 12;
/// Slots per admission cycle.
const CYCLE: usize = 6;
/// Cycles per round (ISSUE 11 sized 200 cycles at 15 s; three rounds of 56
/// give the same order of admission samples inside the run budget).
const CYCLES: usize = 56;
/// Slices present from slot 0; they are never torn down.
const INITIAL: usize = 2;
const PEAK_RATES: [f64; 3] = [1.5, 2.0, 2.5];

pub fn generate(seed: u64, quick: bool) -> (Scenario, ScenarioConfig) {
    let cycles = if quick { CYCLES.div_ceil(10) } else { CYCLES };
    let mut scenario = Scenario::new("churn-admit", HORIZON, (cycles + 1) * CYCLE)
        .describe(
            "2 resident slices; an admission every 6 slots, each slice leaving 3 cycles later",
        )
        .with_capacity(2.5)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Hvs));
    for c in 0..cycles {
        let at = (c + 1) * CYCLE;
        // Scripted ids follow admission-event order (a denied admission
        // still consumes its id), so the slice of cycle `c` is INITIAL + c.
        scenario = scenario.at(
            at,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::ALL[c % 3])
                    .with_peak_rate(PEAK_RATES[(c / 3) % 3]),
            },
        );
        if c >= 3 {
            scenario = scenario.at(
                at + CYCLE / 2,
                ScenarioEvent::TeardownSlice {
                    slice: (INITIAL + c - 3) as u32,
                },
            );
        }
        if c % 5 == 4 {
            scenario = scenario.at(
                at + 1,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 1.6,
                    duration_slots: 4,
                },
            );
        }
        if c % 7 == 6 {
            scenario = scenario.at(
                at + 2,
                ScenarioEvent::DomainFault {
                    domain: DomainKind::Transport,
                    capacity_scale: 0.7,
                    duration_slots: 3,
                },
            );
        }
        if c % 11 == 10 {
            scenario = scenario.at(
                at + 4,
                ScenarioEvent::RenegotiateSla {
                    slice: 1,
                    cost_threshold: if (c / 11) % 2 == 0 { 0.06 } else { 0.05 },
                },
            );
        }
    }
    let config = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    (scenario, config)
}

pub fn generated_json(seed: u64, quick: bool) -> String {
    let (scenario, config) = generate(seed, quick);
    super::single_cell::input_json(&scenario, &config)
}

pub fn round(cx: &mut Cx<'_>) -> Round {
    let (scenario, config) = generate(cx.seed, cx.quick);
    engine_round(cx, scenario, config)
}
