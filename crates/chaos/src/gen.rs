//! Generation of random-but-valid fleet chaos cases.
//!
//! A [`ChaosCase`] bundles everything one adversarial trial needs: a
//! [`FleetScenario`] (admissions, teardowns, traffic shifts and bursts,
//! capacity faults, SLA renegotiations, cell-targeted events and
//! fleet-routed admissions), the fleet tuning knobs, and a [`DrivePlan`]
//! describing how the stepwise run slices the scenario into windows, where
//! it checkpoints/kills/resumes the fleet, and whether the admission-law
//! probe runs at window boundaries.
//!
//! Cases are **valid by construction**: raw slice ids, cell targets and
//! slots are drawn unconstrained and then folded into each cell's
//! assignable-id bound, the cell count and the slot range, and duplicate
//! same-slot teardowns are dropped — so every generated case passes
//! [`FleetScenario::validate`]. Numeric knobs are drawn from small discrete
//! sets, keeping committed counterexample JSON short and round-trip exact.

use proptest::prelude::*;

use onslicing_domains::DomainKind;
use onslicing_fleet::{BalancePolicy, BalancerConfig, ElasticFleetConfig};
use onslicing_scenario::{
    AdmissionPolicy, FleetEvent, FleetScenario, Scenario, ScenarioEvent, SliceSpec, TimedFleetEvent,
};
use onslicing_slices::SliceKind;
use onslicing_traffic::DiurnalTraceConfig;
use serde::{Deserialize, Serialize};

/// One window of the stepwise drive plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowOp {
    /// Slots to advance in this window (clamped at the scenario end).
    pub advance: usize,
    /// Whether to checkpoint to disk, drop the in-memory fleet and resume
    /// from the file at the end of this window (the chaos kill).
    pub checkpoint: bool,
}

/// How the stepwise run drives the fleet (pure data, so a replayed case is
/// deterministic without any harness-side RNG).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrivePlan {
    /// Window sequence; after the last window the fleet runs to the end.
    pub windows: Vec<WindowOp>,
    /// Whether the reservation-aware admission-law probe runs at every
    /// window boundary (on a throwaway clone of the fleet).
    pub probe_admissions: bool,
}

/// One complete adversarial trial: scenario, fleet tuning, drive plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCase {
    /// The generated fleet scenario (valid by construction).
    pub scenario: FleetScenario,
    /// Cell count the fleet runs at (= `scenario.min_cells`).
    pub cells: usize,
    /// Fleet master seed.
    pub seed: u64,
    /// Admission controller estimated per-slice share.
    pub estimated_share: f64,
    /// Admission policy the cells run (a misspelled name fails to
    /// deserialize).
    pub admission_policy: AdmissionPolicy,
    /// Admission controller headroom fraction.
    pub headroom: f64,
    /// Offline pretraining episodes per admitted slice.
    pub pretrain_episodes: usize,
    /// Whether the fleet balancer is on.
    pub balancer_enabled: bool,
    /// Balance policy the balancer plans with.
    pub balance_policy: BalancePolicy,
    /// Balancer cadence in slots.
    pub balancer_cadence: usize,
    /// Balancer minimum load gap before it migrates.
    pub min_load_gap: f64,
    /// How the stepwise/chaos run drives the fleet.
    pub plan: DrivePlan,
}

impl ChaosCase {
    /// The elastic fleet configuration this case runs under.
    pub fn fleet_config(&self) -> ElasticFleetConfig {
        let mut config = ElasticFleetConfig::new(self.cells).with_seed(self.seed);
        config.base.pretrain_episodes = self.pretrain_episodes;
        config.base.admission.estimated_share = self.estimated_share;
        config.base.admission.headroom = self.headroom;
        config.base.admission.policy = self.admission_policy;
        config.balancer = BalancerConfig {
            enabled: self.balancer_enabled,
            policy: self.balance_policy,
            cadence_slots: self.balancer_cadence,
            min_load_gap: self.min_load_gap,
            ..BalancerConfig::default()
        };
        config
    }

    /// Validates the whole case: scenario, tuning, plan.
    pub fn validate(&self) -> Result<(), String> {
        self.scenario.validate()?;
        if self.cells < self.scenario.min_cells {
            return Err(format!(
                "case runs {} cells but the scenario needs at least {}",
                self.cells, self.scenario.min_cells
            ));
        }
        self.fleet_config().base.admission.validate()?;
        self.fleet_config().balancer.validate()?;
        for (i, w) in self.plan.windows.iter().enumerate() {
            if w.advance == 0 {
                return Err(format!("plan window {i} advances zero slots"));
            }
        }
        Ok(())
    }

    /// Serializes the case to pretty JSON (the format committed regression
    /// counterexamples are stored in).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos case serialization cannot fail")
    }

    /// Parses and validates a case from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let case: ChaosCase = serde_json::from_str(text).map_err(|e| e.to_string())?;
        case.validate()?;
        Ok(case)
    }
}

fn slice_spec() -> impl Strategy<Value = SliceSpec> {
    (
        prop::sample::select(vec![SliceKind::Mar, SliceKind::Hvs, SliceKind::Rdc]),
        prop::sample::select(vec![None, Some(2.0), Some(8.0)]),
        prop::sample::select(vec![None, Some(0.05), Some(0.5)]),
    )
        .prop_map(|(kind, peak_rate, cost_threshold)| SliceSpec {
            kind,
            peak_rate,
            cost_threshold,
        })
}

/// A scenario event with *raw* (unbounded) slice references; `fix_events`
/// folds them into the per-cell assignable-id bound.
fn raw_scenario_event() -> impl Strategy<Value = ScenarioEvent> {
    prop_oneof![
        slice_spec().prop_map(|slice| ScenarioEvent::AdmitSlice { slice }),
        (0u32..64).prop_map(|slice| ScenarioEvent::TeardownSlice { slice }),
        ((0u32..64), prop::sample::select(vec![0.25, 0.5, 2.0, 4.0]))
            .prop_map(|(slice, scale)| ScenarioEvent::SetTrafficScale { slice, scale }),
        (
            (0u32..64),
            prop::sample::select(vec![1.5, 3.0]),
            (1usize..=6)
        )
            .prop_map(
                |(slice, scale, duration_slots)| ScenarioEvent::TrafficBurst {
                    slice,
                    scale,
                    duration_slots,
                }
            ),
        (
            prop::sample::select(DomainKind::ALL.to_vec()),
            prop::sample::select(vec![0.25, 0.5, 0.9]),
            (1usize..=6),
        )
            .prop_map(|(domain, capacity_scale, duration_slots)| {
                ScenarioEvent::DomainFault {
                    domain,
                    capacity_scale,
                    duration_slots,
                }
            }),
        ((0u32..64), prop::sample::select(vec![0.02, 0.1, 0.6])).prop_map(
            |(slice, cost_threshold)| ScenarioEvent::RenegotiateSla {
                slice,
                cost_threshold,
            }
        ),
        ((0u32..64), prop::sample::select(vec![1.0, 4.0, 40.0])).prop_map(|(slice, peak)| {
            ScenarioEvent::SetTraceProfile {
                slice,
                profile: DiurnalTraceConfig::hvs_default().with_peak_rate(peak),
            }
        }),
    ]
}

fn raw_fleet_event() -> impl Strategy<Value = TimedFleetEvent> {
    (
        (0usize..64),
        prop_oneof![
            ((0u32..8), raw_scenario_event())
                .prop_map(|(cell, event)| FleetEvent::CellEvent { cell, event }),
            slice_spec().prop_map(|slice| FleetEvent::FleetAdmit { slice }),
        ],
    )
        .prop_map(|(at_slot, event)| TimedFleetEvent { at_slot, event })
}

/// Folds raw slots, cell targets and slice references into the valid
/// domain, and drops duplicate same-cell same-slot teardowns — exactly the
/// holes [`FleetScenario::validate`] rejects.
fn fix_events(
    cells: usize,
    total_slots: usize,
    initial_slices: usize,
    events: Vec<TimedFleetEvent>,
) -> Vec<TimedFleetEvent> {
    let fleet_admits = events
        .iter()
        .filter(|t| matches!(t.event, FleetEvent::FleetAdmit { .. }))
        .count();
    let mut admits_per_cell = vec![0usize; cells];
    for t in &events {
        if let FleetEvent::CellEvent { cell, event } = &t.event {
            if matches!(event, ScenarioEvent::AdmitSlice { .. }) {
                admits_per_cell[*cell as usize % cells] += 1;
            }
        }
    }
    let mut seen_teardowns: Vec<(u32, usize, u32)> = Vec::new();
    let mut out = Vec::with_capacity(events.len());
    for mut t in events {
        t.at_slot %= total_slots;
        if let FleetEvent::CellEvent { cell, event } = &mut t.event {
            *cell %= cells as u32;
            // Each cell's materialized scenario can assign its initial ids,
            // its own scripted admissions' ids, and (worst case) every
            // fleet-routed admission's id.
            let bound = (initial_slices + admits_per_cell[*cell as usize] + fleet_admits) as u32;
            match event {
                ScenarioEvent::TeardownSlice { slice }
                | ScenarioEvent::SetTrafficScale { slice, .. }
                | ScenarioEvent::SetTraceProfile { slice, .. }
                | ScenarioEvent::TrafficBurst { slice, .. }
                | ScenarioEvent::RenegotiateSla { slice, .. } => *slice %= bound,
                ScenarioEvent::AdmitSlice { .. } | ScenarioEvent::DomainFault { .. } => {}
            }
            if let ScenarioEvent::TeardownSlice { slice } = event {
                let key = (*cell, t.at_slot, *slice);
                if seen_teardowns.contains(&key) {
                    continue;
                }
                seen_teardowns.push(key);
            }
        }
        out.push(t);
    }
    out
}

/// The full chaos-case strategy: bounded sizes (1–3 cells, 1–3 initial
/// slices, ≤ 24 slots, ≤ 6 fleet events) keep a single trial affordable in
/// debug CI while still covering every event kind and fleet seam.
pub fn chaos_case() -> impl Strategy<Value = ChaosCase> {
    let sizes = (
        (1usize..=3),
        (1usize..=3),
        prop::sample::select(vec![4usize, 6, 8]),
        prop::sample::select(vec![8usize, 12, 16, 24]),
        prop::sample::select(vec![1.0, 1.5, 2.0]),
    );
    sizes.prop_flat_map(|(cells, n_init, horizon, total_slots, capacity)| {
        let knobs = (
            (0u64..=0xffff),
            prop::sample::select(vec![0.1, 0.15, 0.25, 0.4]),
            prop::sample::select(vec![0.0, 0.1, 0.25]),
            (0usize..=1),
            prop::bool::ANY,
            prop::sample::select(vec![4usize, 6, 12]),
            prop::sample::select(vec![0.0, 0.25, 1.0]),
            // Every policy pair is fair game: a case must hold the whole
            // invariant battery whichever policies it drew.
            prop::sample::select(AdmissionPolicy::ALL.to_vec()),
            prop::sample::select(BalancePolicy::ALL.to_vec()),
        );
        (
            prop::collection::vec(slice_spec(), n_init),
            prop::collection::vec(raw_fleet_event(), 0..7),
            knobs,
            drive_plan(),
        )
            .prop_map(
                move |(
                    initial,
                    events,
                    (
                        seed,
                        estimated_share,
                        headroom,
                        pretrain_episodes,
                        balancer_enabled,
                        balancer_cadence,
                        min_load_gap,
                        admission_policy,
                        balance_policy,
                    ),
                    plan,
                )| {
                    let mut base = Scenario::new("chaos-fuzz", horizon, total_slots)
                        .with_capacity(capacity)
                        .describe("generated by crates/chaos");
                    for spec in initial {
                        base = base.slice(spec);
                    }
                    let mut scenario = FleetScenario::new(base, cells);
                    scenario.events = fix_events(cells, total_slots, n_init, events);
                    ChaosCase {
                        scenario,
                        cells,
                        seed,
                        estimated_share,
                        admission_policy,
                        headroom,
                        pretrain_episodes,
                        balancer_enabled,
                        balance_policy,
                        balancer_cadence,
                        min_load_gap,
                        plan,
                    }
                },
            )
    })
}

fn drive_plan() -> impl Strategy<Value = DrivePlan> {
    (
        prop::collection::vec(
            ((1usize..=9), prop::bool::ANY).prop_map(|(advance, checkpoint)| WindowOp {
                advance,
                checkpoint,
            }),
            0..5,
        ),
        prop::bool::ANY,
    )
        .prop_map(|(windows, probe_admissions)| DrivePlan {
            windows,
            probe_admissions,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{generate_case, test_rng};

    #[test]
    fn generated_cases_always_pass_fleet_validation() {
        let strategy = chaos_case();
        let mut rng = test_rng("chaos::gen::validity");
        for i in 0..200 {
            let case = generate_case(&strategy, &mut rng);
            case.validate().unwrap_or_else(|e| {
                panic!("generated case {i} is invalid: {e}\n{}", case.to_json())
            });
        }
    }

    #[test]
    fn cases_round_trip_through_json_exactly() {
        let strategy = chaos_case();
        let mut rng = test_rng("chaos::gen::roundtrip");
        for _ in 0..50 {
            let case = generate_case(&strategy, &mut rng);
            let back = ChaosCase::from_json(&case.to_json()).expect("round trip parses");
            assert_eq!(back, case);
        }
    }

    #[test]
    fn generator_covers_every_event_kind_and_chaos_feature() {
        let strategy = chaos_case();
        let mut rng = test_rng("chaos::gen::coverage");
        let (mut admit, mut teardown, mut scale, mut profile, mut burst, mut fault, mut sla) =
            (false, false, false, false, false, false, false);
        let (mut fleet_admit, mut checkpointed, mut probed, mut multi_cell) =
            (false, false, false, false);
        for _ in 0..300 {
            let case = generate_case(&strategy, &mut rng);
            multi_cell |= case.cells > 1;
            checkpointed |= case.plan.windows.iter().any(|w| w.checkpoint);
            probed |= case.plan.probe_admissions;
            for t in &case.scenario.events {
                match &t.event {
                    FleetEvent::FleetAdmit { .. } => fleet_admit = true,
                    FleetEvent::CellEvent { event, .. } => match event {
                        ScenarioEvent::AdmitSlice { .. } => admit = true,
                        ScenarioEvent::TeardownSlice { .. } => teardown = true,
                        ScenarioEvent::SetTrafficScale { .. } => scale = true,
                        ScenarioEvent::SetTraceProfile { .. } => profile = true,
                        ScenarioEvent::TrafficBurst { .. } => burst = true,
                        ScenarioEvent::DomainFault { .. } => fault = true,
                        ScenarioEvent::RenegotiateSla { .. } => sla = true,
                    },
                }
            }
        }
        assert!(
            admit && teardown && scale && profile && burst && fault && sla,
            "some scenario event kind never generated: admit={admit} teardown={teardown} \
             scale={scale} profile={profile} burst={burst} fault={fault} sla={sla}"
        );
        assert!(
            fleet_admit && checkpointed && probed && multi_cell,
            "some fleet feature never generated: fleet_admit={fleet_admit} \
             checkpointed={checkpointed} probed={probed} multi_cell={multi_cell}"
        );
    }
}
