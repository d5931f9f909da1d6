//! The invariant battery every generated [`ChaosCase`] must survive.
//!
//! One [`check_case`] call asserts, over the case's scenario and drive
//! plan, the repo's machine-checked laws:
//!
//! 1. **Reference run** — the one-shot [`ElasticFleet::run`] completes and
//!    produces a finite [`onslicing_fleet::FleetReport`] and finite
//!    telemetry everywhere.
//! 2. **Balancer cadence** — every recorded migration sits on a scheduled
//!    cadence boundary (`slot = k · cadence_slots`, `k ≥ 1`); a disabled
//!    balancer migrates nothing.
//! 3. **Window equivalence** — driving [`ElasticFleet::advance_to`]
//!    through the plan's window sequence yields a final fleet trace
//!    byte-identical to the one-shot run's.
//! 4. **Chaos resume** — at plan-chosen boundaries the fleet is
//!    checkpointed to disk, dropped, and resumed from the file (with a
//!    torn-write `.tmp` artifact planted next to it); the resumed run's
//!    final trace still byte-equals the uninterrupted reference, and the
//!    checkpoint GC sweeps the torn artifact.
//! 5. **Admission law** — at window boundaries, back-to-back live
//!    admissions are granted *exactly* as long as every resource's residual
//!    capacity covers what the case's admission policy claims for the
//!    newcomer (`greedy`: the estimated share; `cautious`: twice it) plus
//!    headroom plus every earlier same-boundary grant's reservation —
//!    predicted here by independent arithmetic over
//!    [`onslicing_domains::DomainSet`] residuals, never by asking the
//!    controller; and a fleet at its scenario end admits nothing.
//! 6. **Admission conservation** — every scripted fleet admission is
//!    adjudicated (granted or denied fleet-wide); none is silently
//!    dropped, wherever in the timeline it sits (slot 0 included).
//!
//! Violations come back as `Err(description)` so the fuzz loop can shrink
//! the case and print a minimized counterexample instead of panicking
//! mid-battery.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use onslicing_fleet::{ElasticFleet, FleetCheckpoint, FleetOutcome};
use onslicing_replay::{
    checkpoint_file_name, diff_values, first_non_finite, gc_checkpoint_dir, list_checkpoint_slots,
    Tolerance,
};
use onslicing_scenario::{AdmissionPolicy, ScenarioEngine, SliceSpec};
use onslicing_slices::{ResourceKind, SliceKind};
use serde::Serialize;

use crate::gen::ChaosCase;

/// Upper bound on predicted/observed back-to-back admissions before the
/// harness declares the controller diverged (a controller that never denies
/// is itself a counterexample).
const ADMISSION_PROBE_CAP: usize = 10_000;

/// Runs the full invariant battery for one case inside a private scratch
/// directory under the system temp dir (created and removed here).
pub fn check_case_with_scratch(case: &ChaosCase) -> Result<(), String> {
    static NEXT_SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "onslicing-chaos-{}-{}",
        std::process::id(),
        NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
    let result = check_case(case, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Runs the full invariant battery for one case, checkpointing into
/// `scratch` (which must exist). `Err` describes the first violated
/// invariant.
pub fn check_case(case: &ChaosCase, scratch: &Path) -> Result<(), String> {
    case.validate()
        .map_err(|e| format!("generator soundness: produced an invalid case: {e}"))?;
    let reference = ElasticFleet::run(case.scenario.clone(), case.fleet_config())
        .map_err(|e| format!("reference run failed: {e}"))?;
    if reference.report.has_non_finite() {
        return Err("finite metrics: fleet report contains a non-finite aggregate".to_string());
    }
    for cell in &reference.cells {
        if let Some(path) = first_non_finite(&cell.trace.serialize_value()) {
            return Err(format!(
                "finite metrics: cell {} trace: {path} is not finite",
                cell.cell
            ));
        }
    }
    check_balancer_cadence(case, &reference)?;
    check_admission_conservation(case, &reference)?;
    let stepwise = run_stepwise(case, scratch)?;
    if stepwise.trace.to_json() != reference.trace.to_json() {
        let expected = reference.trace.serialize_value();
        let actual = stepwise.trace.serialize_value();
        let diff = diff_values(&expected, &actual, Tolerance::exact());
        return Err(format!(
            "window equivalence: stepwise/chaos trace diverges from the one-shot reference \
             (windows {:?}, first drift {})",
            case.plan.windows,
            diff.drifts
                .first()
                .map_or("unlocated: only a ±0.0 differs", String::as_str)
        ));
    }
    Ok(())
}

/// Invariant 2 (balancer cadence): migrations happen only at scheduled
/// cadence boundaries, and never with the balancer disabled.
fn check_balancer_cadence(case: &ChaosCase, outcome: &FleetOutcome) -> Result<(), String> {
    for m in &outcome.report.migrations {
        if !case.balancer_enabled {
            return Err(format!(
                "balancer cadence: balancer is disabled but slice {} migrated \
                 from cell {} to cell {} at slot {}",
                m.from_slice, m.from_cell, m.to_cell, m.slot
            ));
        }
        let cadence = case.balancer_cadence;
        if m.slot == 0 || !m.slot.is_multiple_of(cadence) {
            return Err(format!(
                "balancer cadence: migration of slice {} (cell {} -> cell {}) happened at \
                 slot {}, which is not a scheduled cadence boundary (cadence {cadence} \
                 schedules slots {cadence}, {}, ...)",
                m.from_slice,
                m.from_cell,
                m.to_cell,
                m.slot,
                2 * cadence
            ));
        }
    }
    Ok(())
}

/// Invariant 6 (admission conservation): every scripted fleet admission is
/// adjudicated — granted or denied fleet-wide — never silently dropped.
/// This is the only invariant that can see a dropped admission: both the
/// one-shot runner and the stepwise fleet share `ElasticFleet`, so a drop
/// common to both still produces byte-identical traces.
fn check_admission_conservation(case: &ChaosCase, outcome: &FleetOutcome) -> Result<(), String> {
    let scripted = case.scenario.fleet_admissions().len();
    let adjudicated =
        outcome.report.fleet_admissions_granted + outcome.report.fleet_admissions_denied;
    if adjudicated != scripted {
        return Err(format!(
            "admission conservation: the scenario scripts {scripted} fleet admissions but the \
             run adjudicated {adjudicated} (granted {} + denied {})",
            outcome.report.fleet_admissions_granted, outcome.report.fleet_admissions_denied
        ));
    }
    Ok(())
}

/// Drives the plan's window sequence with chaos kills and admission probes,
/// then finishes the fleet (invariants 3–5).
fn run_stepwise(case: &ChaosCase, scratch: &Path) -> Result<FleetOutcome, String> {
    let mut fleet = ElasticFleet::new(case.scenario.clone(), case.fleet_config())
        .map_err(|e| format!("stepwise fleet construction failed: {e}"))?;
    let total = fleet.total_slots();
    for (i, w) in case.plan.windows.iter().enumerate() {
        let target = (fleet.slot() + w.advance).min(total);
        fleet
            .advance_to(target)
            .map_err(|e| format!("window {i}: advance_to({target}) failed: {e}"))?;
        if case.plan.probe_admissions {
            check_admission_law(case, &fleet).map_err(|e| format!("window {i}: {e}"))?;
        }
        if w.checkpoint {
            fleet = kill_and_resume(fleet, scratch).map_err(|e| format!("window {i}: {e}"))?;
        }
    }
    fleet
        .advance_to(total)
        .map_err(|e| format!("final advance_to({total}) failed: {e}"))?;
    if case.plan.probe_admissions {
        check_admission_law(case, &fleet).map_err(|e| format!("at scenario end: {e}"))?;
    }
    fleet
        .finish(1.0)
        .map_err(|e| format!("stepwise finish failed: {e}"))
}

/// Invariant 4 (chaos resume): checkpoint to disk, drop the fleet, plant a
/// torn-write `.tmp` artifact, resume from the latest listed checkpoint and
/// GC the directory. The caller's trace comparison then proves the resumed
/// run is byte-identical.
fn kill_and_resume(fleet: ElasticFleet, dir: &Path) -> Result<ElasticFleet, String> {
    let slot = fleet.slot();
    let path = dir.join(checkpoint_file_name(slot));
    fleet
        .checkpoint()
        .save(&path)
        .map_err(|e| format!("chaos resume: checkpoint save failed: {e}"))?;
    drop(fleet);
    // A torn write: a crashed writer's partial temp file for the *next*
    // checkpoint. Listing and resume must ignore it.
    let torn = dir.join(format!("{}.tmp", checkpoint_file_name(slot + 1)));
    std::fs::write(&torn, "{\"format_vers")
        .map_err(|e| format!("chaos resume: cannot plant torn artifact: {e}"))?;
    let slots = list_checkpoint_slots(dir)
        .map_err(|e| format!("chaos resume: cannot list checkpoints: {e}"))?;
    let latest = *slots
        .last()
        .ok_or("chaos resume: no checkpoint listed after a successful save")?;
    if latest != slot {
        return Err(format!(
            "chaos resume: latest listed checkpoint is slot {latest}, expected {slot} — \
             a torn .tmp artifact leaked into the listing"
        ));
    }
    let resumed = FleetCheckpoint::load(dir.join(checkpoint_file_name(latest)))
        .map_err(|e| format!("chaos resume: reload failed: {e}"))?
        .restore()
        .map_err(|e| format!("chaos resume: restore failed: {e}"))?;
    if resumed.slot() != slot {
        return Err(format!(
            "chaos resume: resumed fleet sits at slot {} but the checkpoint was taken at {slot}",
            resumed.slot()
        ));
    }
    gc_checkpoint_dir(dir, 1).map_err(|e| format!("chaos resume: checkpoint GC failed: {e}"))?;
    if torn.exists() {
        return Err("chaos resume: checkpoint GC left the torn .tmp artifact behind".to_string());
    }
    Ok(resumed)
}

/// Invariant 5 (admission law): on a throwaway clone of the fleet, admit
/// back-to-back until denial and compare the grant count against the
/// independently predicted residual-capacity budget.
fn check_admission_law(case: &ChaosCase, fleet: &ElasticFleet) -> Result<(), String> {
    let mut probe = fleet.clone();
    let spec = SliceSpec::new(SliceKind::Mar);
    if probe.is_complete() {
        if let Some((cell, slice)) = probe.admit(&spec) {
            return Err(format!(
                "admission law: fleet already at its scenario end (slot {}) still granted \
                 an admission (cell {cell}, slice {slice}) — a finished fleet must deny",
                probe.slot()
            ));
        }
        return Ok(());
    }
    let mut predicted = 0usize;
    for cell in probe.cells() {
        predicted += predicted_cell_grants(case, &cell.engine)?;
    }
    let mut granted = 0usize;
    while probe.admit(&spec).is_some() {
        granted += 1;
        if granted > ADMISSION_PROBE_CAP {
            return Err(format!(
                "admission law: fleet granted more than {ADMISSION_PROBE_CAP} back-to-back \
                 admissions at slot {} without a denial",
                probe.slot()
            ));
        }
    }
    if granted != predicted {
        return Err(format!(
            "admission law: at slot {} the fleet granted {granted} back-to-back admissions, \
             but residual capacity after same-boundary reservations supports exactly {predicted}",
            probe.slot()
        ));
    }
    Ok(())
}

/// How many more admissions one cell's residual capacity supports,
/// replicating the controller's arithmetic over `DomainSet` residuals —
/// the same floating-point expression, evaluated independently:
/// grant `k` requires, for every resource `r`,
/// `residual(r) >= claim + headroom · capacity(r) + (pending + k) · share`,
/// where the newcomer's own `claim` is the law of the case's admission
/// policy, written out here rather than asking the product: `share` under
/// `greedy`, `2 · share` under `cautious`. The `match` is exhaustive, so a
/// new policy does not compile until it has a law here too.
fn predicted_cell_grants(case: &ChaosCase, engine: &ScenarioEngine) -> Result<usize, String> {
    let domains = engine.orchestrator().domains();
    let share = case.estimated_share;
    let claim = match case.admission_policy {
        AdmissionPolicy::Greedy => share,
        AdmissionPolicy::Cautious => 2.0 * share,
    };
    let pending = engine.pending_admissions();
    let mut k = 0usize;
    loop {
        let reserved = (pending + k) as f64 * share;
        let fits = ResourceKind::ALL.iter().all(|&r| {
            let required = claim + case.headroom * domains.capacity_of(r) + reserved;
            domains.residual_capacity(r) >= required
        });
        if !fits {
            return Ok(k);
        }
        k += 1;
        if k > ADMISSION_PROBE_CAP {
            return Err(
                "admission law: predicted residual-capacity budget diverges (no resource \
                 ever saturates)"
                    .to_string(),
            );
        }
    }
}
