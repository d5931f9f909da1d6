//! # onslicing-scenario
//!
//! An event-driven scenario engine over the OnSlicing reproduction: scripts
//! a timeline of slice admissions and teardowns, traffic regime shifts and
//! bursts, domain capacity faults and SLA renegotiations, executes it
//! against a live multi-slice deployment and reports per-scenario metrics
//! (SLA violation rate, coordination rounds, slice-slots, admissions). The
//! engine reads no clock: a report and a checkpoint are pure functions of
//! the scenario, the configuration and the slot reached.
//!
//! The paper evaluates one fixed setting — three slices alive from t = 0 —
//! but OnSlicing is an *online* system; this crate turns the reproduction
//! into a workload generator for the non-stationary conditions the system
//! is actually for.
//!
//! * [`spec`] — the serializable scenario format ([`Scenario`],
//!   [`ScenarioEvent`], [`SliceSpec`]) with JSON round-tripping;
//! * [`admission`] — the residual-capacity admission check consulted
//!   before any mid-run slice instantiation;
//! * [`engine`] — the slot-by-slot executor ([`ScenarioEngine`]) and the
//!   [`ScenarioReport`] metrics;
//! * [`builtin`] — the seven named built-in scenarios (`steady`,
//!   `flash-crowd`, `slice-churn`, `tn-degradation`, `diurnal-week`,
//!   `stress-many-slices`, `fleet-soak`).
//!
//! ```no_run
//! use onslicing_scenario::{builtin, run_scenario, ScenarioConfig};
//!
//! let report = run_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
//! println!(
//!     "{}: {:.1}% violations, {:.2} rounds/slot, {} slice-slots",
//!     report.scenario,
//!     report.sla_violation_percent,
//!     report.avg_coordination_rounds,
//!     report.slice_slots
//! );
//! ```

pub mod admission;
pub mod builtin;
pub mod engine;
pub mod fleet;
pub mod spec;

pub use admission::{AdmissionConfig, AdmissionDenied, AdmissionPolicy};
pub use engine::{
    derive_cell_seed, run_scenario, EpisodeEndEvent, LiveEventOutcome, ScenarioConfig,
    ScenarioEngine, ScenarioReport, SliceMigration, SliceReport, SlotObserver, SlotSample,
    TrafficRestore,
};
pub use fleet::{
    all_fleet_builtins, cell_outage, diurnal_fleet, fleet_by_name, hotspot_shift, FleetEvent,
    FleetScenario, TimedFleetEvent, FLEET_BUILTIN_NAMES,
};
pub use spec::{Scenario, ScenarioEvent, SliceSpec, TimedEvent};
