//! Fleet-level scenario format: a per-cell base scenario plus a timeline
//! of **fleet events** — cell-targeted scenario events (the knob that lets
//! a script concentrate load on one cell) and fleet-routed admissions (new
//! slices whose placement is decided by the fleet admission controller at
//! run time, not by the script).
//!
//! A [`FleetScenario`] deliberately stays plain data, like [`Scenario`]:
//! JSON round-trippable, validated before execution, and materialized into
//! ordinary per-cell scenarios by [`FleetScenario::scenario_for_cell`] —
//! cell-targeted events are spliced into the target cell's own timeline,
//! so their slot semantics are exactly those of a single-cell run. Only
//! [`FleetEvent::FleetAdmit`] needs the fleet layer at run time.
//!
//! The two built-ins are the elastic-fleet counterparts of `flash-crowd`
//! and `tn-degradation`: [`hotspot_shift`] concentrates a traffic regime
//! shift on cell 0 (the balancer should drain it), and [`cell_outage`]
//! degrades cell 0's transport capacity (the balancer should evacuate it).

use serde::{Deserialize, Serialize};

use onslicing_domains::DomainKind;
use onslicing_slices::SliceKind;
use onslicing_traffic::DiurnalTraceConfig;

use crate::spec::{Scenario, ScenarioEvent, SliceSpec};

/// Names of the built-in fleet scenarios, in catalogue order.
pub const FLEET_BUILTIN_NAMES: [&str; 3] = ["hotspot-shift", "cell-outage", "diurnal-fleet"];

/// One scripted occurrence in a fleet timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// An ordinary scenario event targeted at exactly one cell; it is
    /// spliced into that cell's timeline and fires with single-cell slot
    /// semantics. Slice ids inside the event are the **target cell's** ids.
    CellEvent {
        /// The cell the event fires in (0-based).
        cell: u32,
        /// What happens there.
        event: ScenarioEvent,
    },
    /// A fleet-routed admission: the fleet admission controller places the
    /// slice on the least-loaded cell that passes the per-cell residual
    /// capacity check (reserving earlier same-boundary grants' shares), or
    /// denies it fleet-wide when no cell can host it.
    FleetAdmit {
        /// Blueprint of the slice asking to join.
        slice: SliceSpec,
    },
}

/// A fleet event bound to the slot it fires at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedFleetEvent {
    /// The slot (0-based, global scenario time) the event fires at.
    pub at_slot: usize,
    /// What happens.
    pub event: FleetEvent,
}

/// A complete fleet scenario: the per-cell base deployment plus the fleet
/// timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Fleet scenario name (used in reports, traces and file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Smallest cell count the script makes sense at; every cell-targeted
    /// event must address a cell below this floor, so any fleet with at
    /// least `min_cells` cells can run the scenario.
    pub min_cells: usize,
    /// The scenario every cell starts from (same shape, per-cell seeds).
    pub base: Scenario,
    /// The fleet timeline. Events need not be sorted: the engines fire a
    /// slot's cell events, and the fleet layer a slot's admissions, in the
    /// order they appear here.
    pub events: Vec<TimedFleetEvent>,
}

impl FleetScenario {
    /// Starts a fleet scenario around a per-cell base deployment.
    pub fn new(base: Scenario, min_cells: usize) -> Self {
        Self {
            name: base.name.clone(),
            description: String::new(),
            min_cells,
            base,
            events: Vec::new(),
        }
    }

    /// Sets the human description.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Schedules a cell-targeted event.
    pub fn at_cell(mut self, slot: usize, cell: u32, event: ScenarioEvent) -> Self {
        self.events.push(TimedFleetEvent {
            at_slot: slot,
            event: FleetEvent::CellEvent { cell, event },
        });
        self
    }

    /// Schedules a fleet-routed admission.
    pub fn fleet_admit(mut self, slot: usize, slice: SliceSpec) -> Self {
        self.events.push(TimedFleetEvent {
            at_slot: slot,
            event: FleetEvent::FleetAdmit { slice },
        });
        self
    }

    /// Validates the whole fleet scenario, returning the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("fleet scenario name must not be empty".to_string());
        }
        if self.min_cells == 0 {
            return Err("min_cells must be at least 1".to_string());
        }
        // Fleet-routed admissions can land on any cell, so every cell's
        // assignable-id bound grows by the full fleet-admission count.
        let fleet_admission_slack = self.admissions().count();
        self.base
            .validate_with_admission_slack(fleet_admission_slack)
            .map_err(|e| format!("base: {e}"))?;
        for (i, t) in self.events.iter().enumerate() {
            if t.at_slot >= self.base.total_slots {
                return Err(format!(
                    "fleet event {i} fires at slot {} but the scenario ends at slot {}",
                    t.at_slot, self.base.total_slots
                ));
            }
            match &t.event {
                FleetEvent::CellEvent { cell, event } => {
                    if *cell as usize >= self.min_cells {
                        return Err(format!(
                            "fleet event {i} targets cell {cell} but min_cells is {}",
                            self.min_cells
                        ));
                    }
                    event
                        .validate()
                        .map_err(|e| format!("fleet event {i}: {e}"))?;
                }
                FleetEvent::FleetAdmit { slice } => {
                    slice
                        .validate()
                        .map_err(|e| format!("fleet event {i}: {e}"))?;
                }
            }
        }
        // The per-event checks above see each cell event in isolation; the
        // materialized per-cell scenarios additionally catch cross-event
        // holes — impossible slice-id references and duplicate same-slot
        // teardowns arising from the base/cell-event splice.
        for cell in 0..self.min_cells {
            self.scenario_for_cell(cell as u32)
                .validate_with_admission_slack(fleet_admission_slack)
                .map_err(|e| format!("cell {cell}: {e}"))?;
        }
        Ok(())
    }

    /// Materializes cell `cell`'s own scenario: the base deployment with
    /// this cell's targeted events appended to its timeline in fleet
    /// timeline order, after the base's own events — the engine fires a
    /// slot's events in file order, so same-slot events keep that order.
    pub fn scenario_for_cell(&self, cell: u32) -> Scenario {
        let mut scenario = self.base.clone();
        for t in &self.events {
            if let FleetEvent::CellEvent { cell: c, event } = &t.event {
                if *c == cell {
                    scenario = scenario.at(t.at_slot, event.clone());
                }
            }
        }
        scenario
    }

    /// The fleet-routed admissions, as `(at_slot, spec)` in timeline order.
    pub fn fleet_admissions(&self) -> Vec<(usize, SliceSpec)> {
        self.admissions()
            .map(|(slot, spec)| (slot, *spec))
            .collect()
    }

    /// [`FleetScenario::fleet_admissions`] without collecting them.
    pub fn admissions(&self) -> impl Iterator<Item = (usize, &SliceSpec)> {
        self.events.iter().filter_map(|t| match &t.event {
            FleetEvent::FleetAdmit { slice } => Some((t.at_slot, slice)),
            FleetEvent::CellEvent { .. } => None,
        })
    }

    /// Serializes the fleet scenario to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet scenario serialization cannot fail")
    }

    /// Parses and validates a fleet scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let scenario: FleetScenario = serde_json::from_str(text).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }
}

fn elastic_base(name: &str, capacity: f64) -> Scenario {
    let mut base = Scenario::new(name, 12, 48).with_capacity(capacity);
    for i in 0..4 {
        base = base.slice(SliceSpec::new(SliceKind::ALL[i % 3]));
    }
    base
}

/// A load hotspot concentrated on cell 0: three extra tenants land there
/// at slot 10 (seven slices on capacity sized for four to be comfortable —
/// the squeeze regime where violations are capacity-driven, so migration
/// can actually fix them) and from slot 12 the original four slices run at
/// 1.3× their trace rates. Two fleet-routed admissions arrive mid-surge;
/// the fleet admission controller places them away from the hotspot. With
/// the balancer enabled, slices drain from cell 0 to the idle neighbors
/// and the fleet-wide SLA-violation rate drops strictly below the
/// frozen-sharding run (asserted in `crates/fleet`'s tests).
pub fn hotspot_shift() -> FleetScenario {
    let mut fleet = FleetScenario::new(elastic_base("hotspot-shift", 1.8), 2).describe(
        "Three extra tenants plus a 1.3x traffic shift concentrate on cell 0; the balancer \
         drains the hotspot, fleet admissions route around it",
    );
    for k in 0..3 {
        fleet = fleet.at_cell(
            10,
            0,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::ALL[k % 3]),
            },
        );
    }
    for slice in 0..4 {
        fleet = fleet.at_cell(12, 0, ScenarioEvent::SetTrafficScale { slice, scale: 1.3 });
    }
    fleet
        .fleet_admit(18, SliceSpec::new(SliceKind::Mar))
        .fleet_admit(18, SliceSpec::new(SliceKind::Hvs))
}

/// A capacity outage on cell 0: its transport domain drops to 40 % of
/// nominal capacity for two episodes. The per-cell coordination loop
/// squeezes every cell-0 slice into the shrunken capacity; the balancer's
/// job is to evacuate slices to healthy cells instead (and to rebalance
/// back once the fault heals).
pub fn cell_outage() -> FleetScenario {
    FleetScenario::new(elastic_base("cell-outage", 2.0), 2)
        .describe(
            "Cell 0's transport capacity drops to 40% for two episodes; balancer evacuates \
             slices to healthy cells",
        )
        .at_cell(
            12,
            0,
            ScenarioEvent::DomainFault {
                domain: DomainKind::Transport,
                capacity_scale: 0.4,
                duration_slots: 24,
            },
        )
        .fleet_admit(24, SliceSpec::new(SliceKind::Rdc))
}

/// A diurnal regime shift concentrated on cell 0: early in the run its four
/// slices are re-profiled to the evening-peaked HVS tenant mix (effective
/// from the second episode), and just after the first rebalancing window
/// their traffic scale jumps to 1.7× — a surge every slice's deterministic
/// arrival trace announces a full window before violations accumulate. A
/// fleet-routed admission shortly after the shift opens a mid-window sync
/// point where a forecast-driven balancer can migrate *ahead* of the peak,
/// while a purely reactive one still sees yesterday's load.
pub fn diurnal_fleet() -> FleetScenario {
    // An early-morning-peaked tenant mix: the diurnal peak lands on the
    // first slots of every episode — right *after* each rebalancing round,
    // where a reactive balancer is blind (utilization still shows the
    // pre-dawn lull and the window's violations have not closed yet), while
    // the deterministic trace forecast sees the peak coming.
    let morning_peak = DiurnalTraceConfig {
        peak_rate: 5.0,
        base_fraction: 0.1,
        second_harmonic: 0.0,
        peak_hour: 4.0,
        noise_std: 0.12,
        weekend_dip: 0.0,
    };
    let mut fleet = FleetScenario::new(elastic_base("diurnal-fleet", 1.8), 2).describe(
        "Cell 0's tenants shift to a morning-peaked profile and three extra tenants land there \
         during the night lull; the next peak is visible only in the trace forecast, so a \
         forecast-driven balancer evacuates ahead of it while a reactive one waits for the \
         violations",
    );
    for slice in 0..4 {
        fleet = fleet.at_cell(
            2,
            0,
            ScenarioEvent::SetTraceProfile {
                slice,
                profile: morning_peak.clone(),
            },
        );
    }
    // Three extra tenants land on cell 0 during the pre-dawn lull (slot 10,
    // just before the rebalancing round at slot 12): enforced shares — and
    // with them a reactive balancer's utilization signal — stay low until
    // the morning peak actually hits at slots 12-16.
    for k in 0..3 {
        fleet = fleet.at_cell(
            10,
            0,
            ScenarioEvent::AdmitSlice {
                slice: SliceSpec::new(SliceKind::ALL[k % 3]),
            },
        );
    }
    for slice in 0..4 {
        fleet = fleet.at_cell(11, 0, ScenarioEvent::SetTrafficScale { slice, scale: 1.6 });
    }
    fleet.fleet_admit(40, SliceSpec::new(SliceKind::Mar))
}

/// Every built-in fleet scenario, in [`FLEET_BUILTIN_NAMES`] order.
pub fn all_fleet_builtins() -> Vec<FleetScenario> {
    vec![hotspot_shift(), cell_outage(), diurnal_fleet()]
}

/// Looks a built-in fleet scenario up by name.
pub fn fleet_by_name(name: &str) -> Option<FleetScenario> {
    all_fleet_builtins().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_catalogue_is_complete_valid_and_named_consistently() {
        let scenarios = all_fleet_builtins();
        assert_eq!(scenarios.len(), FLEET_BUILTIN_NAMES.len());
        for (scenario, name) in scenarios.iter().zip(FLEET_BUILTIN_NAMES) {
            assert_eq!(scenario.name, name);
            scenario.validate().unwrap();
            assert!(!scenario.description.is_empty());
            assert!(scenario.min_cells >= 2, "fleet built-ins need neighbors");
        }
        assert!(fleet_by_name("hotspot-shift").is_some());
        assert!(fleet_by_name("steady").is_none());
    }

    #[test]
    fn fleet_builtins_round_trip_through_json() {
        for scenario in all_fleet_builtins() {
            let back = FleetScenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(back, scenario);
        }
    }

    #[test]
    fn cell_targeted_events_splice_only_into_their_cell() {
        let fleet = hotspot_shift();
        let hot = fleet.scenario_for_cell(0);
        let cold = fleet.scenario_for_cell(1);
        assert_eq!(
            hot.events.len(),
            fleet.base.events.len() + 7,
            "cell 0 gains the three admissions and four traffic shifts"
        );
        assert_eq!(cold.events, fleet.base.events);
        hot.validate().unwrap();
        cold.validate().unwrap();
        // Fleet-routed admissions are not spliced anywhere: they are the
        // fleet layer's to place at run time.
        assert_eq!(fleet.fleet_admissions().len(), 2);
        assert!(fleet.fleet_admissions().iter().all(|(slot, _)| *slot == 18));
    }

    #[test]
    fn fleet_validation_accounts_for_fleet_admissions_in_the_id_bound() {
        let base = elastic_base("x", 2.0); // four initial slices, ids 0..4
                                           // Referencing id 4 on a cell is impossible without extra admissions…
        let dangling = FleetScenario::new(base.clone(), 2).at_cell(
            8,
            0,
            ScenarioEvent::SetTrafficScale {
                slice: 4,
                scale: 1.5,
            },
        );
        let err = dangling.validate().unwrap_err();
        assert!(err.contains("references slice 4"), "got: {err}");
        // …but one fleet-routed admission could land there and assign id 4.
        dangling
            .clone()
            .fleet_admit(4, SliceSpec::new(SliceKind::Mar))
            .validate()
            .unwrap();
    }

    #[test]
    fn fleet_validation_catches_duplicate_teardowns_across_the_splice() {
        // The duplicate only exists on the materialized cell-0 timeline:
        // one teardown in the base, the other spliced in as a cell event.
        let base = elastic_base("x", 2.0).at(8, ScenarioEvent::TeardownSlice { slice: 1 });
        let dup =
            FleetScenario::new(base, 2).at_cell(8, 0, ScenarioEvent::TeardownSlice { slice: 1 });
        let err = dup.validate().unwrap_err();
        assert!(err.contains("cell 0"), "got: {err}");
        assert!(err.contains("twice"), "got: {err}");
    }

    #[test]
    fn validation_rejects_out_of_range_targets_and_slots() {
        let base = elastic_base("x", 2.0);
        let late =
            FleetScenario::new(base.clone(), 2).fleet_admit(48, SliceSpec::new(SliceKind::Mar));
        assert!(late.validate().unwrap_err().contains("slot 48"));
        let wide = FleetScenario::new(base.clone(), 2).at_cell(
            4,
            5,
            ScenarioEvent::TeardownSlice { slice: 0 },
        );
        assert!(wide.validate().unwrap_err().contains("targets cell 5"));
        let no_cells = FleetScenario::new(base, 0);
        assert!(no_cells.validate().unwrap_err().contains("min_cells"));
    }
}
