//! The five workloads and what they share: a workload is a generator (a
//! pure function of `--seed`) plus a *round* — one complete run of the
//! generated scenario from a fresh deployment: set-up, a fixed amount of
//! work timed from outside, and the checks on what it produced. The driver
//! repeats identical rounds until the measuring time is used up, so every
//! timing pools several rounds and `setup_s` is a median of several
//! set-ups, while the deterministic outputs must repeat from round to
//! round.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::probe::{ProbeCounts, ProbeScratch};
use crate::trace::Tracer;

pub mod cell_dense;
pub mod churn_admit;
pub mod fleet_elastic;
pub mod fleetd_drill;
pub mod paper_online;
pub mod single_cell;

/// What a round is given.
pub struct Cx<'a> {
    pub seed: u64,
    /// Work divided by ten (`--quick`): a smoke run, never a measurement.
    pub quick: bool,
    pub tracer: &'a mut Tracer,
    pub probes: &'a mut ProbeCounts,
    pub scratch: &'a mut ProbeScratch,
    /// A directory of this process's own for checkpoints and daemon state.
    pub dir: PathBuf,
    /// Index of the round within its pass.
    pub round: usize,
}

/// What a round reports.
#[derive(Debug, Default)]
pub struct Round {
    /// Construction until the first measurable operation, once for every
    /// time the round set up.
    pub setups_s: Vec<f64>,
    /// Wall of the measured work (set-up and checks excluded).
    pub measured_s: f64,
    /// Slice-slots executed in `measured_s`.
    pub slice_slots: u64,
    /// Timing samples by series name (`slot_ms`, `admit_ms`, `ctl_ms`, ...).
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic outputs: must repeat exactly from round to round.
    pub exact: BTreeMap<&'static str, f64>,
    /// Measured values that are not timings (sizes, ratios).
    pub values: BTreeMap<&'static str, f64>,
    /// Digest of the trace JSON the round produced.
    pub digest: u64,
    /// Operations attempted and failed (slots, requests, checkpoints,
    /// restores, checks).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
}

impl Round {
    pub fn sample(&mut self, series: &'static str, value: f64) {
        self.series.entry(series).or_default().push(value);
    }

    /// Counts `n` attempted operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted operation or check; a false `pass` fails it.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Runs one round of `workload`.
pub fn run_round(workload: &str, cx: &mut Cx<'_>) -> Round {
    match workload {
        "paper-online" => paper_online::round(cx),
        "cell-dense" => cell_dense::round(cx),
        "churn-admit" => churn_admit::round(cx),
        "fleet-elastic" => fleet_elastic::round(cx),
        "fleetd-drill" => fleetd_drill::round(cx),
        other => unreachable!("workload `{other}` was validated at the command line"),
    }
}

/// The generated input of `workload` as JSON — what the program under test
/// receives, and all it receives.
pub fn generated_json(workload: &str, seed: u64, quick: bool) -> String {
    match workload {
        "paper-online" => paper_online::generated_json(seed, quick),
        "cell-dense" => cell_dense::generated_json(seed, quick),
        "churn-admit" => churn_admit::generated_json(seed, quick),
        "fleet-elastic" => fleet_elastic::generated_json(seed, quick),
        "fleetd-drill" => fleetd_drill::generated_json(seed, quick),
        other => unreachable!("workload `{other}` was validated at the command line"),
    }
}

/// The micro-probe shapes of `workload`.
pub fn shapes(workload: &str) -> crate::micro::Shapes {
    use onslicing_core::AgentConfig;
    let scaled = |horizon: usize, slices: usize| crate::micro::Shapes {
        agent: AgentConfig::onslicing().scaled_down(horizon),
        slices,
        pretrain_episodes: onslicing_scenario::ScenarioConfig::default().pretrain_episodes,
    };
    match workload {
        "paper-online" => crate::micro::Shapes {
            agent: AgentConfig::onslicing(),
            slices: paper_online::SLICES,
            pretrain_episodes: paper_online::PRETRAIN_EPISODES,
        },
        "cell-dense" => scaled(cell_dense::HORIZON, cell_dense::SLICES),
        "churn-admit" => scaled(churn_admit::HORIZON, 5),
        _ => scaled(12, 5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for w in WORKLOADS {
            let a = generated_json(w, 3, false);
            assert_eq!(
                a,
                generated_json(w, 3, false),
                "{w}: same seed, different input"
            );
            assert_ne!(
                a,
                generated_json(w, 4, false),
                "{w}: the seed does not reach the input"
            );
            assert!(
                serde_json::from_str::<serde::Value>(&a).is_ok(),
                "{w}: generated input is not JSON"
            );
        }
    }

    #[test]
    fn generated_scenarios_are_valid() {
        cell_dense::generate(1, false).0.validate().unwrap();
        churn_admit::generate(1, false).0.validate().unwrap();
        fleet_elastic::generate(1, false).0.validate().unwrap();
        churn_admit::generate(1, true).0.validate().unwrap();
        fleet_elastic::generate(1, true).0.validate().unwrap();
    }
}
