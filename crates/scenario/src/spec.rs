//! Scenario specifications: a named timeline of lifecycle, traffic, fault
//! and SLA events over a multi-slice deployment.
//!
//! A [`Scenario`] is plain serializable data — loadable from a JSON file,
//! constructible programmatically through the chainable helpers, and
//! runnable by [`crate::ScenarioEngine`]. Slices are referenced by their
//! stable [`onslicing_domains::SliceId`] number: the initial slices get ids
//! `0..n`, and every admission event is assigned the next id in event order
//! — a *denied* admission still consumes its id — so a scenario file can
//! name mid-run slices deterministically whatever the admission outcomes.

use serde::{Deserialize, Serialize};

use onslicing_core::default_trace_config;
use onslicing_domains::DomainKind;
use onslicing_slices::{Sla, SliceKind};
use onslicing_traffic::DiurnalTraceConfig;

/// Blueprint of one slice: the application class plus optional overrides of
/// the paper defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceSpec {
    /// The application class (`"mar"`, `"hvs"` or `"rdc"` in JSON).
    pub kind: SliceKind,
    /// Peak arrival rate in users/s; `null` selects the kind's paper default
    /// (5 for MAR, 2 for HVS, 100 for RDC).
    pub peak_rate: Option<f64>,
    /// SLA threshold `C_max`; `null` selects the paper's 5 %.
    pub cost_threshold: Option<f64>,
}

impl SliceSpec {
    /// A slice of the given kind with the paper defaults.
    pub fn new(kind: SliceKind) -> Self {
        Self {
            kind,
            peak_rate: None,
            cost_threshold: None,
        }
    }

    /// Overrides the peak arrival rate.
    pub fn with_peak_rate(mut self, peak_rate: f64) -> Self {
        self.peak_rate = Some(peak_rate);
        self
    }

    /// Overrides the SLA cost threshold.
    pub fn with_cost_threshold(mut self, cost_threshold: f64) -> Self {
        self.cost_threshold = Some(cost_threshold);
        self
    }

    /// The SLA this spec resolves to.
    pub fn sla(&self) -> Sla {
        let sla = Sla::for_kind(self.kind);
        match self.cost_threshold {
            Some(c) => sla.with_cost_threshold(c),
            None => sla,
        }
    }

    /// The diurnal traffic profile this spec resolves to.
    pub fn trace_config(&self) -> DiurnalTraceConfig {
        let config = default_trace_config(self.kind);
        match self.peak_rate {
            Some(p) => config.with_peak_rate(p),
            None => config,
        }
    }

    /// Validates the overrides.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(p) = self.peak_rate {
            if !(p > 0.0 && p.is_finite()) {
                return Err(format!("peak_rate must be positive and finite, got {p}"));
            }
        }
        if let Some(c) = self.cost_threshold {
            if !(0.0..=1.0).contains(&c) {
                return Err(format!("cost_threshold must be in [0, 1], got {c}"));
            }
        }
        Ok(())
    }
}

/// One scripted occurrence in a scenario timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Admit a new slice (subject to the admission controller); it receives
    /// the next free slice id.
    AdmitSlice {
        /// Blueprint of the admitted slice.
        slice: SliceSpec,
    },
    /// Tear an active slice down; its resources are released immediately.
    TeardownSlice {
        /// Stable id of the slice to remove.
        slice: u32,
    },
    /// Shift a slice's traffic regime: all future arrival rates are the
    /// trace rates times `scale`, until changed again.
    SetTrafficScale {
        /// Stable id of the affected slice.
        slice: u32,
        /// Multiplier on the trace's arrival rates.
        scale: f64,
    },
    /// Replace a slice's diurnal traffic profile (a long-horizon regime
    /// change, e.g. a new tenant mix or a different peak). The remaining
    /// slots of the current episode keep the old trace; the next episode
    /// generates from the new profile.
    SetTraceProfile {
        /// Stable id of the affected slice.
        slice: u32,
        /// The new diurnal profile.
        profile: DiurnalTraceConfig,
    },
    /// A transient traffic burst (flash crowd): `scale` applies for
    /// `duration_slots` slots, then the previous regime is restored.
    TrafficBurst {
        /// Stable id of the affected slice.
        slice: u32,
        /// Multiplier during the burst.
        scale: f64,
        /// Burst length in slots.
        duration_slots: usize,
    },
    /// A transient infrastructure fault: every resource owned by `domain`
    /// runs at `capacity_scale` of its nominal capacity for
    /// `duration_slots` slots, then heals.
    DomainFault {
        /// The degraded domain.
        domain: DomainKind,
        /// Multiplier on the domain's nominal capacity (< 1 = degradation).
        capacity_scale: f64,
        /// Fault length in slots.
        duration_slots: usize,
    },
    /// Renegotiate a slice's SLA to a new cost threshold `C_max`.
    RenegotiateSla {
        /// Stable id of the affected slice.
        slice: u32,
        /// The new SLA threshold.
        cost_threshold: f64,
    },
}

impl ScenarioEvent {
    /// The slice id this event references, if any. Admissions reference no
    /// existing slice (they *assign* the next free id); faults target a
    /// domain, not a slice.
    pub fn referenced_slice(&self) -> Option<u32> {
        match self {
            ScenarioEvent::AdmitSlice { .. } | ScenarioEvent::DomainFault { .. } => None,
            ScenarioEvent::TeardownSlice { slice }
            | ScenarioEvent::SetTrafficScale { slice, .. }
            | ScenarioEvent::SetTraceProfile { slice, .. }
            | ScenarioEvent::TrafficBurst { slice, .. }
            | ScenarioEvent::RenegotiateSla { slice, .. } => Some(*slice),
        }
    }

    /// Validates the event payload (slice ids are resolved at run time).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioEvent::AdmitSlice { slice } => slice.validate(),
            ScenarioEvent::TeardownSlice { .. } => Ok(()),
            ScenarioEvent::SetTrafficScale { scale, .. } => {
                if *scale > 0.0 && scale.is_finite() {
                    Ok(())
                } else {
                    Err(format!(
                        "traffic scale must be positive and finite, got {scale}"
                    ))
                }
            }
            ScenarioEvent::SetTraceProfile { profile, .. } => profile.validate(),
            ScenarioEvent::TrafficBurst {
                scale,
                duration_slots,
                ..
            } => {
                if !(*scale > 0.0 && scale.is_finite()) {
                    return Err(format!(
                        "burst scale must be positive and finite, got {scale}"
                    ));
                }
                if *duration_slots == 0 {
                    return Err("burst duration must be at least one slot".to_string());
                }
                Ok(())
            }
            ScenarioEvent::DomainFault {
                capacity_scale,
                duration_slots,
                ..
            } => {
                if !(*capacity_scale > 0.0 && capacity_scale.is_finite()) {
                    return Err(format!(
                        "fault capacity scale must be positive and finite, got {capacity_scale}"
                    ));
                }
                if *duration_slots == 0 {
                    return Err("fault duration must be at least one slot".to_string());
                }
                Ok(())
            }
            ScenarioEvent::RenegotiateSla { cost_threshold, .. } => {
                if (0.0..=1.0).contains(cost_threshold) {
                    Ok(())
                } else {
                    Err(format!(
                        "renegotiated cost_threshold must be in [0, 1], got {cost_threshold}"
                    ))
                }
            }
        }
    }
}

/// An event bound to the slot it fires at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// The slot (0-based, global scenario time) the event fires at, before
    /// the slot's orchestration round.
    pub at_slot: usize,
    /// What happens.
    pub event: ScenarioEvent,
}

/// A complete scenario: initial deployment plus a timeline of events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports and file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Episode length in slots: each slice learns/reset on this cadence.
    pub horizon: usize,
    /// Total scenario length in slots (global time).
    pub total_slots: usize,
    /// Normalized per-resource infrastructure capacity (1.0 = the paper's
    /// testbed; raise it for deployments with many slices).
    pub capacity: f64,
    /// The slices alive at slot 0 (ids `0..n` in order).
    pub initial_slices: Vec<SliceSpec>,
    /// The scripted timeline, in any slot order. At each slot the engine
    /// fires the events with that `at_slot` in the order they appear here
    /// (file order for JSON scenarios, call order for the builder), so
    /// same-slot events fire in exactly that order — equal-slot ordering is
    /// part of the format contract, not an implementation accident.
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// Starts a scenario with the given name and timing, no slices and no
    /// events.
    pub fn new(name: impl Into<String>, horizon: usize, total_slots: usize) -> Self {
        Self {
            name: name.into(),
            description: String::new(),
            horizon,
            total_slots,
            capacity: 1.0,
            initial_slices: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Sets the human description.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Sets the infrastructure capacity.
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Adds an initial slice.
    pub fn slice(mut self, spec: SliceSpec) -> Self {
        self.initial_slices.push(spec);
        self
    }

    /// Schedules an event.
    pub fn at(mut self, slot: usize, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent {
            at_slot: slot,
            event,
        });
        self
    }

    /// Upper bound (exclusive) on the slice ids this scenario can ever
    /// assign: initial slices take `0..n` and every admission event consumes
    /// the next id in event order, whether the admission is granted or
    /// denied.
    pub fn max_assignable_slice_ids(&self) -> usize {
        self.initial_slices.len()
            + self
                .events
                .iter()
                .filter(|t| matches!(t.event, ScenarioEvent::AdmitSlice { .. }))
                .count()
    }

    /// Validates the whole scenario, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with_admission_slack(0)
    }

    /// [`Scenario::validate`] for a scenario that may gain up to
    /// `admission_slack` additional admissions at run time beyond its own
    /// timeline — the fleet runner routes `FleetAdmit` events onto cells, so
    /// a cell's materialized scenario can legitimately reference slice ids
    /// past its static bound. Single-cell callers want a slack of 0.
    pub fn validate_with_admission_slack(&self, admission_slack: usize) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".to_string());
        }
        if self.horizon == 0 {
            return Err("horizon must be positive".to_string());
        }
        if self.total_slots == 0 {
            return Err("total_slots must be positive".to_string());
        }
        if !(self.capacity > 0.0 && self.capacity.is_finite()) {
            return Err(format!(
                "capacity must be positive and finite, got {}",
                self.capacity
            ));
        }
        if self.initial_slices.is_empty() {
            return Err("at least one initial slice is required".to_string());
        }
        for (i, s) in self.initial_slices.iter().enumerate() {
            s.validate()
                .map_err(|e| format!("initial slice {i}: {e}"))?;
        }
        let id_bound = self.max_assignable_slice_ids() + admission_slack;
        let mut teardowns: Vec<(usize, u32)> = Vec::new();
        for (i, t) in self.events.iter().enumerate() {
            if t.at_slot >= self.total_slots {
                return Err(format!(
                    "event {i} fires at slot {} but the scenario ends at slot {}",
                    t.at_slot, self.total_slots
                ));
            }
            t.event.validate().map_err(|e| format!("event {i}: {e}"))?;
            // A reference past the assignable-id bound can never resolve: no
            // run of this scenario assigns that id, so the event would be
            // silently skipped every time — a scripting bug, not a timeline.
            if let Some(slice) = t.event.referenced_slice() {
                if slice as usize >= id_bound {
                    return Err(format!(
                        "event {i} references slice {slice} but this scenario can only ever \
                         assign ids 0..{id_bound} ({} initial + {} admissions)",
                        self.initial_slices.len(),
                        id_bound - self.initial_slices.len()
                    ));
                }
            }
            // Two teardowns of the same slice at the same slot: the second
            // always fires on an already-removed slice, so one of them is a
            // scripting mistake (a teardown re-fired at a *later* slot stays
            // legal — the id may have been skipped or the first denied).
            if let ScenarioEvent::TeardownSlice { slice } = t.event {
                if teardowns.contains(&(t.at_slot, slice)) {
                    return Err(format!(
                        "event {i} tears slice {slice} down at slot {} twice",
                        t.at_slot
                    ));
                }
                teardowns.push((t.at_slot, slice));
            }
        }
        Ok(())
    }

    /// Serializes the scenario to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization cannot fail")
    }

    /// Parses and validates a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let scenario: Scenario = serde_json::from_str(text).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::new("sample", 12, 48)
            .describe("round-trip fixture")
            .with_capacity(1.5)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs).with_peak_rate(3.0))
            .at(
                6,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Rdc).with_cost_threshold(0.1),
                },
            )
            .at(
                10,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 2.0,
                    duration_slots: 4,
                },
            )
            .at(
                20,
                ScenarioEvent::DomainFault {
                    domain: DomainKind::Transport,
                    capacity_scale: 0.5,
                    duration_slots: 8,
                },
            )
            .at(
                30,
                ScenarioEvent::RenegotiateSla {
                    slice: 1,
                    cost_threshold: 0.08,
                },
            )
            .at(40, ScenarioEvent::TeardownSlice { slice: 2 })
    }

    #[test]
    fn sample_scenario_validates_and_round_trips_through_json() {
        let scenario = sample();
        scenario.validate().unwrap();
        let json = scenario.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, scenario);
        // Slice kinds appear under their lowercase alias in the file format.
        assert!(json.contains("\"mar\""));
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        assert!(Scenario::new("", 12, 48).validate().is_err());
        assert!(Scenario::new("x", 0, 48).validate().is_err());
        assert!(Scenario::new("x", 12, 48).validate().is_err()); // no slices
        let late_event = Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(48, ScenarioEvent::TeardownSlice { slice: 0 });
        assert!(late_event.validate().unwrap_err().contains("slot 48"));
        let bad_burst = Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                1,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 0.0,
                    duration_slots: 4,
                },
            );
        assert!(bad_burst.validate().is_err());
        let bad_spec = Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar).with_cost_threshold(2.0));
        assert!(bad_spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_slice_ids_no_run_can_ever_assign() {
        // One initial slice + one admission ⇒ ids 0..2 are assignable.
        let base = Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                4,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Hvs),
                },
            );
        let in_bound = base.clone().at(
            8,
            ScenarioEvent::SetTrafficScale {
                slice: 1,
                scale: 2.0,
            },
        );
        in_bound.validate().unwrap();
        let out_of_bound = base.clone().at(
            8,
            ScenarioEvent::SetTrafficScale {
                slice: 2,
                scale: 2.0,
            },
        );
        let err = out_of_bound.validate().unwrap_err();
        assert!(err.contains("references slice 2"), "got: {err}");
        assert!(err.contains("0..2"), "got: {err}");
        // The fleet runner may route extra admissions onto this cell; with
        // one admission of slack the same reference becomes satisfiable.
        out_of_bound.validate_with_admission_slack(1).unwrap();
        assert_eq!(base.max_assignable_slice_ids(), 2);
    }

    #[test]
    fn validation_rejects_duplicate_same_slot_teardowns() {
        let dup = Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(8, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(8, ScenarioEvent::TeardownSlice { slice: 1 });
        let err = dup.validate().unwrap_err();
        assert!(err.contains("twice"), "got: {err}");
        // The same teardown re-fired at a later slot stays legal (the first
        // may have been skipped), as do same-slot teardowns of two slices.
        Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(8, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(12, ScenarioEvent::TeardownSlice { slice: 1 })
            .validate()
            .unwrap();
        Scenario::new("x", 12, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(8, ScenarioEvent::TeardownSlice { slice: 0 })
            .at(8, ScenarioEvent::TeardownSlice { slice: 1 })
            .validate()
            .unwrap();
    }

    #[test]
    fn spec_resolves_sla_and_trace_overrides() {
        let spec = SliceSpec::new(SliceKind::Hvs)
            .with_peak_rate(7.0)
            .with_cost_threshold(0.2);
        assert_eq!(spec.sla().cost_threshold, 0.2);
        assert_eq!(spec.trace_config().peak_rate, 7.0);
        let plain = SliceSpec::new(SliceKind::Rdc);
        assert_eq!(plain.sla().cost_threshold, Sla::DEFAULT_COST_THRESHOLD);
        assert_eq!(plain.trace_config().peak_rate, 100.0);
    }
}
