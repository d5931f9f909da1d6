//! The pinned-artifact gate: a freshly rendered document against the copy
//! committed on disk, within the caller's fixed tolerance, by the one
//! JSON-tree walk in [`crate::values`]. Two gates call it.
//!
//! The golden traces live in `goldens/TRACE_<scenario>.json` at the
//! repository root. `replay_check golden <scenario>` (a binary of
//! `onslicing-bench`, which can also run fleets) re-runs the scenario
//! from its pinned seed and fails CI on any drift; `--update` regenerates
//! the files after an *intentional* behavior change (see the README).
//! `experiments --check` holds the experiments ledger,
//! `baselines/EXPERIMENTS.json` (`onslicing_bench::regress`).

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use crate::telemetry::TelemetryTrace;
use crate::values::{diff_values, Tolerance, ValueDiff};

/// Tight enough to catch any algorithmic drift, loose enough to absorb a
/// differently-ordered (but mathematically equivalent) float reduction
/// should one ever be introduced. A constant, not a parameter: a settable
/// tolerance on a gate is a way to pass it.
const GOLDEN_TOLERANCE: Tolerance = Tolerance {
    rel: 1e-9,
    abs: 1e-12,
};

/// The golden file path for a scenario: `<dir>/TRACE_<scenario>.json`.
fn golden_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("TRACE_{scenario}.json"))
}

/// Diffs `actual` against the JSON document committed at `path`
/// ([`diff_values`], every float within `tol`), leaving out the committed
/// top-level keys `keep` refuses. An unreadable or malformed file is an
/// error naming it and `update`, the command that writes it.
pub fn diff_against_file(
    path: &Path,
    actual: &Value,
    tol: Tolerance,
    keep: impl Fn(&str) -> bool,
    update: &str,
) -> Result<ValueDiff, String> {
    let text = std::fs::read_to_string(path);
    let committed = text
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| {
            serde_json::from_str(&text).map_err(|e| format!("malformed {}: {e}", path.display()))
        })
        .map_err(|e| format!("{e} — run `{update}` to create it"))?;
    let committed = match committed {
        Value::Obj(fields) => Value::Obj(fields.into_iter().filter(|(k, _)| keep(k)).collect()),
        other => other,
    };
    Ok(diff_values(&committed, actual, tol))
}

/// Diffs a freshly recorded trace against the committed golden, every
/// float within relative 1e-9 / absolute 1e-12: the drifts, each led by
/// its JSON path (none when it matches). A missing or unparsable golden is
/// an error naming it and the `--update` command, not a drift.
pub fn check_against_golden(trace: &TelemetryTrace, dir: &Path) -> Result<Vec<String>, String> {
    let path = golden_path(dir, &trace.scenario);
    let update = format!("replay_check golden {} --update", trace.scenario);
    let actual = trace.serialize_value();
    Ok(diff_against_file(&path, &actual, GOLDEN_TOLERANCE, |_| true, &update)?.drifts)
}

/// Writes (or overwrites) the golden for a trace and returns its path.
pub fn write_golden(trace: &TelemetryTrace, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create golden dir {}: {e}", dir.display()))?;
    let path = golden_path(dir, &trace.scenario);
    trace.save(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{record_scenario, MigrationEvent};
    use onslicing_scenario::{builtin, ScenarioConfig};

    /// What [`check_against_golden`] compares, without the disk: `golden`
    /// as its file parses, against `actual`'s tree.
    fn drifts(golden: &TelemetryTrace, actual: &TelemetryTrace, tol: Tolerance) -> Vec<String> {
        let golden: Value = serde_json::from_str(&golden.to_json()).unwrap();
        diff_values(&golden, &actual.serialize_value(), tol).drifts
    }

    #[test]
    fn tolerance_matches_within_and_rejects_beyond() {
        let tol = GOLDEN_TOLERANCE;
        assert!(tol.matches(1.0, 1.0 + 1e-12));
        assert!(!tol.matches(1.0, 1.0 + 1e-6));
        assert!(Tolerance::exact().matches(0.25, 0.25));
        assert!(!Tolerance::exact().matches(0.25, 0.25 + f64::EPSILON));
        assert!(tol.matches(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn identical_traces_have_no_drift() {
        // Exactly: the file round-trips every float bit for bit.
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        assert_eq!(
            drifts(&trace, &trace, Tolerance::exact()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn perturbations_are_reported_with_location() {
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let mut bad = trace.clone();
        bad.slots[3].slices[1].cost += 0.5;
        bad.summaries[0].violations += 1;
        let drifts = drifts(&trace, &bad, GOLDEN_TOLERANCE);
        assert_eq!(drifts.len(), 2, "{drifts:?}");
        assert!(
            drifts[0].starts_with("slots[3].slices[1].cost: "),
            "{}",
            drifts[0]
        );
        assert!(
            drifts[1].starts_with("summaries[0].violations: "),
            "{}",
            drifts[1]
        );
    }

    #[test]
    fn a_differing_migration_record_is_a_drift() {
        let (mut trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        trace.migrations.push(MigrationEvent {
            slot: 12,
            slice: 1,
            kind: trace.summaries[1].kind,
            arrived: false,
            peer_cell: 1,
            peer_slice: 4,
        });
        let mut bad = trace.clone();
        bad.migrations[0].peer_cell = 2;
        assert_eq!(
            drifts(&trace, &bad, GOLDEN_TOLERANCE),
            ["migrations[0].peer_cell: expected 1, got 2"]
        );
    }

    #[test]
    fn golden_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("onslicing-golden-test");
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let path = write_golden(&trace, &dir).unwrap();
        assert_eq!(path, golden_path(&dir, "steady"));
        assert_eq!(check_against_golden(&trace, &dir), Ok(Vec::new()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_golden_is_a_clear_failure() {
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let err = check_against_golden(&trace, Path::new("/no/such/dir")).unwrap_err();
        assert!(
            err.starts_with("cannot read /no/such/dir/TRACE_steady.json: ")
                && err.ends_with(" — run `replay_check golden steady --update` to create it"),
            "{err}"
        );
    }
}
