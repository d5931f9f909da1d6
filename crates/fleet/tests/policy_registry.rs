//! Contract tests for the balance policies.
//!
//! * Unknown policy names are startup errors that name the known set —
//!   both through `FromStr` and through `BalancerConfig` deserialization,
//!   so a bad `config.toml` never reaches a run.
//! * Selecting `greedy` by name is byte-identical to the default balancer
//!   (the goldens and the `rebalance` and
//!   `tournament` cells of `baselines/EXPERIMENTS.json` pin the same fact
//!   from the outside; this pins it at the trace level).
//! * The non-greedy policies honor the same checkpoint/resume contract as
//!   greedy: a kill/resume mid-run yields a byte-identical final trace.
//! * On `diurnal-fleet` the forecast-driven policy evacuates ahead of the
//!   peak where greedy waits, and over that peak it strictly beats greedy on
//!   cost at no worse SLA, as a mean over seeds — the "prediction can
//!   actually win" claim behind the `tournament` experiment.

use onslicing_fleet::{
    BalancePolicy, BalancerConfig, ElasticFleet, ElasticFleetConfig, FleetCheckpoint, FleetOutcome,
};
use onslicing_scenario::{diurnal_fleet, hotspot_shift};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

fn config_with(policy: BalancePolicy) -> ElasticFleetConfig {
    ElasticFleetConfig::new(2)
        .with_seed(0)
        .with_balancer(BalancerConfig {
            policy,
            ..BalancerConfig::default()
        })
}

fn run_diurnal(policy: BalancePolicy) -> FleetOutcome {
    ElasticFleet::run(diurnal_fleet(), config_with(policy)).unwrap()
}

#[test]
fn unknown_balance_policy_is_a_startup_error_naming_the_registered_set() {
    let err = "round-robin".parse::<BalancePolicy>().unwrap_err();
    assert!(
        err.contains("unknown balance policy `round-robin`"),
        "{err}"
    );
    for policy in BalancePolicy::ALL {
        assert!(
            err.contains(policy.name()),
            "error must name `{policy}`: {err}"
        );
    }
    // The same check guards deserialized configs (fleetd's config.toml path):
    // a well-formed config with a misspelled policy name must fail to parse.
    let mut bad = BalancerConfig::default().serialize_value();
    if let serde::Value::Obj(pairs) = &mut bad {
        for (k, v) in pairs.iter_mut() {
            if k == "policy" {
                *v = serde::Value::Str("round-robin".to_string());
            }
        }
    }
    let err = BalancerConfig::from_value(&bad).unwrap_err();
    assert!(err.0.contains("unknown balance policy"), "{}", err.0);
}

#[test]
fn every_registered_policy_resolves_and_round_trips_by_name() {
    // Through the config a daemon reads: every policy survives a
    // `BalancerConfig` round trip under its own name.
    for policy in BalancePolicy::ALL {
        let config = BalancerConfig {
            policy,
            ..BalancerConfig::default()
        };
        let back = BalancerConfig::from_value(&config.serialize_value()).unwrap();
        assert_eq!(back.policy, policy);
        assert_eq!(policy.name().parse::<BalancePolicy>().unwrap(), policy);
    }
}

#[test]
fn greedy_through_the_registry_is_byte_identical_to_the_default_config() {
    let implicit =
        ElasticFleet::run(hotspot_shift(), ElasticFleetConfig::new(2).with_seed(0)).unwrap();
    let explicit =
        ElasticFleet::run(hotspot_shift(), config_with("greedy".parse().unwrap())).unwrap();
    assert_eq!(
        implicit.trace.to_json(),
        explicit.trace.to_json(),
        "selecting greedy by name must not perturb the default behavior"
    );
}

/// The first rebalancing round of `diurnal-fleet`, and the morning-peak
/// episode that follows it.
const FIRST_ROUND: usize = 12;
const MORNING_PEAK: std::ops::Range<usize> = FIRST_ROUND..24;

/// What a policy did at the first round and what the fleet then paid over
/// the morning peak.
#[derive(Default)]
struct PeakTally {
    /// Slices moved off cell 0 at the first round.
    evacuated: usize,
    /// Fleet-wide cost over every slice-slot of the peak, and their count.
    cost: f64,
    slice_slots: usize,
    /// SLA violations among the episodes that close within the peak.
    violations: usize,
}

impl PeakTally {
    /// One `diurnal-fleet` run under `policy`, driven to the end of the
    /// morning peak (the second half of the scenario is not the claim's).
    fn of(seed: usize, policy: BalancePolicy) -> Self {
        let config = config_with(policy).with_seed(seed as u64);
        let mut fleet = ElasticFleet::new(diurnal_fleet(), config).unwrap();
        fleet.advance_to(MORNING_PEAK.end).unwrap();
        let mut tally = Self {
            evacuated: fleet
                .migrations()
                .iter()
                .filter(|m| m.slot == FIRST_ROUND && m.from_cell == 0)
                .count(),
            ..Self::default()
        };
        for cell in fleet.cells() {
            let slots = cell.recorder.slots().iter();
            for slot in slots.filter(|s| MORNING_PEAK.contains(&s.slot)) {
                tally.cost += slot.slices.iter().map(|s| s.cost).sum::<f64>();
                tally.slice_slots += slot.slices.len();
            }
            // An episode closing at slot `s` ran through slot `s - 1`.
            let closed = cell.recorder.episodes().iter();
            tally.violations += closed
                .filter(|e| e.violated && e.slot > MORNING_PEAK.start && e.slot <= MORNING_PEAK.end)
                .count();
        }
        tally
    }

    fn add(&mut self, run: &Self) {
        self.evacuated += run.evacuated;
        self.cost += run.cost;
        self.slice_slots += run.slice_slots;
        self.violations += run.violations;
    }

    fn cost_per_slice_slot(&self) -> f64 {
        self.cost / self.slice_slots as f64
    }
}

#[test]
fn tournament_has_a_non_greedy_winner_on_diurnal_fleet() {
    // The mechanism, seed by seed: at the first rebalancing round (slot 12,
    // the pre-dawn lull) both policies see the same fleet state, and only
    // the forecast sees the morning peak coming, so `predictive` evacuates
    // cell 0 at least as hard as `greedy` there — and strictly harder over
    // the seeds.
    //
    // The outcome, as a mean over seeds: over the morning-peak episode the
    // head start is for (slots 12..24, the one stretch where the two runs
    // differ by nothing but that round's plans) `predictive` pays strictly
    // less per slice-slot than `greedy` without giving up SLA ground. A
    // single seed can land either way — a migrated slice restarts its
    // episode in the new cell — and past slot 24 the runs re-plan from
    // diverged states, so neither a seed pair nor the whole-run cost carries
    // the claim. The SLA margin is a tie (94 vs 94 violated episodes over
    // these 32 seeds), and 8 seeds do not resolve it either way.
    const SEEDS: usize = 32;
    // The 64 runs are independent: fan them out.
    let runs: Vec<_> = (0..SEEDS)
        .into_par_iter()
        .map(|seed| {
            (
                PeakTally::of(seed, BalancePolicy::Greedy),
                PeakTally::of(seed, BalancePolicy::Predictive),
            )
        })
        .collect();
    let (mut greedy, mut predictive) = (PeakTally::default(), PeakTally::default());
    for (seed, (by_greedy, by_predictive)) in runs.iter().enumerate() {
        assert!(
            by_predictive.evacuated >= by_greedy.evacuated,
            "seed {seed}: predictive moved {} slices off cell 0 ahead of the peak, greedy {}",
            by_predictive.evacuated,
            by_greedy.evacuated
        );
        greedy.add(by_greedy);
        predictive.add(by_predictive);
    }
    assert!(
        predictive.evacuated > greedy.evacuated,
        "over {SEEDS} seeds predictive must evacuate more ahead of the peak \
         ({} vs greedy {} slices at slot {FIRST_ROUND})",
        predictive.evacuated,
        greedy.evacuated
    );
    assert!(
        predictive.cost_per_slice_slot() < greedy.cost_per_slice_slot(),
        "predictive must strictly beat greedy on morning-peak cost per slice-slot over \
         {SEEDS} seeds (predictive {} vs greedy {}) — it evacuates the morning-peak cell \
         ahead of the surge instead of reacting to it",
        predictive.cost_per_slice_slot(),
        greedy.cost_per_slice_slot()
    );
    assert!(
        predictive.violations <= greedy.violations,
        "predictive must not lose SLA ground to greedy over the morning peak \
         (predictive {} vs greedy {} violated episodes over {SEEDS} seeds)",
        predictive.violations,
        greedy.violations
    );
}

#[test]
fn non_greedy_policies_survive_checkpoint_resume_byte_identically() {
    for policy in [BalancePolicy::Predictive, BalancePolicy::CostAware] {
        let reference = run_diurnal(policy);
        assert!(
            !reference.report.migrations.is_empty(),
            "{policy}: the diurnal run must migrate for this gate to bite"
        );
        // Kill the fleet mid-run — past the first rebalancing round — and
        // resume from the serialized checkpoint.
        let mut fleet = ElasticFleet::new(diurnal_fleet(), config_with(policy)).unwrap();
        let total = fleet.total_slots();
        fleet.advance_to(total / 2).unwrap();
        let frozen = fleet.checkpoint().to_json();
        drop(fleet);
        let mut resumed = FleetCheckpoint::from_json(&frozen)
            .unwrap()
            .restore()
            .unwrap();
        resumed.advance_to(total).unwrap();
        let outcome = resumed.finish(1.0).unwrap();
        assert_eq!(
            reference.trace.to_json(),
            outcome.trace.to_json(),
            "{policy}: resumed trace diverges from the uninterrupted run"
        );
    }
}
