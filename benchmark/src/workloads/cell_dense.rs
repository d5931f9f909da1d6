//! `cell-dense`: one big cell and nothing but the steady slot loop.
//!
//! Eight slices share one cell for a few hundred slots with no scripted
//! event, so per-cell effects — the fused cell pass, the β-coordination
//! rounds, per-slot telemetry of many slices, the episode-boundary policy
//! updates that all land on the same slot — get most of the work here and
//! little in the 3-to-5-slice workloads. Scenario events, admissions and
//! checkpoints get none: an optimisation of those must show no change here.

use onslicing_scenario::{Scenario, ScenarioConfig, SliceSpec};
use onslicing_slices::SliceKind;

use super::single_cell::engine_round;
use super::{Cx, Round};

/// Slices in the cell. ISSUE 11 sized this workload at 12 slices x 1 008
/// slots (23 s); the driver's run budget allows about a third of that, and
/// slices shrink before slots so that three rounds still give the tail
/// percentile its thousand samples.
pub const SLICES: usize = 8;
pub const HORIZON: usize = 16;
/// Slots per round: 22 episodes.
const SLOTS: usize = 352;

pub fn generate(seed: u64, quick: bool) -> (Scenario, ScenarioConfig) {
    let slots = if quick { SLOTS.div_ceil(10) } else { SLOTS };
    // The `stress-many-slices` shape: a third of a unit of capacity per slice.
    let mut scenario = Scenario::new("cell-dense", HORIZON, slots)
        .describe("8 slices on one cell, no events: the steady slot loop")
        .with_capacity(SLICES as f64 / 3.0);
    for i in 0..SLICES {
        scenario = scenario.slice(SliceSpec::new(SliceKind::ALL[i % 3]));
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
