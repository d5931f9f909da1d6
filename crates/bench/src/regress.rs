//! Regression gating of the `EXPERIMENTS.json` ledger against its
//! committed baseline.
//!
//! The `experiments` binary emits machine-readable JSON in which every field
//! is a pure function of the seed; this module diffs a freshly produced file
//! against the committed copy under `baselines/` with the walk every pinned
//! document shares, [`onslicing_replay::diff_values`]. There is one rule:
//! same structure, every float leaf within [`EXACT_ABS_TOLERANCE`] of its
//! baseline (NaN matches nothing), every other leaf (counts, schema
//! strings, booleans) equal. Nothing under `baselines/` reads the clock —
//! speed is the repository benchmark's question (`benchmark/`), read as
//! medians of repeated runs.
//!
//! Structural drift (a metric appearing, disappearing, an array changing
//! length, or a count turning into a float) always fails: it means the
//! bench schema changed and the baseline must be regenerated intentionally
//! via `bench_regress --update`.

use onslicing_replay::{diff_values, Tolerance, ValueDiff};
use serde::Value;

/// Absolute slack of float leaves. Not settable anywhere — a settable
/// tolerance on a gate is a way to pass it.
pub const EXACT_ABS_TOLERANCE: f64 = 1e-9;

/// Compares a fresh bench artifact against its baseline: every drift by
/// its JSON path, and the leaves compared.
fn compare_values(baseline: &Value, fresh: &Value) -> ValueDiff {
    let tol = Tolerance {
        rel: 0.0,
        abs: EXACT_ABS_TOLERANCE,
    };
    diff_values(baseline, fresh, tol)
}

/// Parses two JSON texts and compares them.
pub fn compare_json(baseline: &str, fresh: &str) -> Result<ValueDiff, String> {
    let baseline: Value =
        serde_json::from_str(baseline).map_err(|e| format!("malformed baseline JSON: {e}"))?;
    let fresh: Value =
        serde_json::from_str(fresh).map_err(|e| format!("malformed fresh JSON: {e}"))?;
    Ok(compare_values(&baseline, &fresh))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "schema": "onslicing-fleet-bench/1",
        "batch": 64,
        "curve": [
            { "slices": 3, "avg_slot_cost": 0.31 },
            { "slices": 9, "avg_slot_cost": 0.92 }
        ],
        "sla_violation_percent": 2.7777777777,
        "violation_reduction_points": -2.0,
        "measured": { "MAR usage, epoch 3": 20.957316 },
        "holds": false
    }"#;

    fn fresh_with(f: impl Fn(&mut String)) -> String {
        let mut text = BASELINE.to_string();
        f(&mut text);
        text
    }

    #[test]
    fn identical_artifacts_pass() {
        // Includes a signed metric that did not move.
        let report = compare_json(BASELINE, BASELINE).unwrap();
        assert!(report.drifts.is_empty(), "regressions: {:?}", report.drifts);
        let value: Value = serde_json::from_str(BASELINE).unwrap();
        let mut keys = Vec::new();
        leaf_keys("", &value, &mut keys);
        assert_eq!(report.leaves, keys.len());
    }

    #[test]
    fn sla_metrics_are_exact() {
        let fresh = fresh_with(|t| *t = t.replace("2.7777777777", "2.9"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("sla_violation_percent"));
        // Exact means exact whatever the key is called and whichever way it
        // moves: a measured float nudged by 1e-6, a signed metric moving,
        // or a verdict flipping either way, fails.
        let fresh = fresh_with(|t| *t = t.replace("20.957316", "20.957317"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(report.drifts[0].contains("measured.MAR usage, epoch 3"));
        let fresh = fresh_with(|t| *t = t.replace("-2.0", "-3.0"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(report.drifts[0].contains("violation_reduction_points"));
        let fresh = fresh_with(|t| *t = t.replace("\"holds\": false", "\"holds\": true"));
        assert!(compare_json(BASELINE, &fresh).unwrap().drifts[0].contains("holds"));
    }

    #[test]
    fn an_integer_count_drifting_to_a_fraction_fails() {
        // 9 -> 8.5: a pinned count drifting to a fraction is a drift.
        let fresh = fresh_with(|t| *t = t.replace("\"slices\": 9", "\"slices\": 8.5"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("curve[1].slices"));
    }

    #[test]
    fn counts_are_exact_and_arrays_are_walked() {
        let fresh = fresh_with(|t| *t = t.replace("\"slices\": 9", "\"slices\": 10"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("curve[1].slices"));
        // A float inside the array is held too, even when it gets better.
        let fresh = fresh_with(|t| *t = t.replace("0.92", "0.91"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("curve[1].avg_slot_cost"));
    }

    #[test]
    fn schema_drift_fails_in_both_directions() {
        let fresh =
            fresh_with(|t| *t = t.replace("\"batch\": 64,", "\"batch\": 64, \"new_metric\": 1.0,"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("new_metric"));
        let fresh = fresh_with(|t| *t = t.replace("\"batch\": 64,", ""));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.drifts.is_empty());
        assert!(report.drifts[0].contains("batch"));
        let fresh = fresh_with(|t| *t = t.replace("fleet-bench/1", "fleet-bench/2"));
        assert!(!compare_json(BASELINE, &fresh).unwrap().drifts.is_empty());
    }

    /// The object key every leaf of `value` sits under (array elements
    /// inherit their array's), in document order.
    fn leaf_keys<'a>(key: &'a str, value: &'a Value, out: &mut Vec<&'a str>) {
        match value {
            Value::Obj(fields) => fields.iter().for_each(|(k, v)| leaf_keys(k, v, out)),
            Value::Arr(items) => items.iter().for_each(|v| leaf_keys(key, v, out)),
            _ => out.push(key),
        }
    }

    /// Whether a leaf key is named like a clock reading or a machine
    /// property — the values the one-rule gate has no class for.
    fn clock_like(key: &str) -> bool {
        let key = key.to_ascii_lowercase();
        ["_ns", "_us", "_ms", "_s"].iter().any(|s| key.ends_with(s))
            || key.starts_with("ns_")
            || ["wall", "per_second", "sublinear", "threads"]
                .iter()
                .any(|w| key.contains(w))
    }

    #[test]
    fn every_committed_baseline_leaf_is_gated_or_named_informational() {
        // The name rule itself: every family the deleted hot-path file
        // carried trips it, seed-pinned names do not.
        for key in [
            "batched_ns",
            "setup_us",
            "wall_clock_ms",
            "elapsed_s",
            "ns_per_slot",
            "slots_per_second",
            "orchestrator_sublinear_ratio",
            "threads",
        ] {
            assert!(clock_like(key), "`{key}` should be refused");
        }
        for key in ["avg_slot_cost", "slices", "sla_violation_percent", "runs"] {
            assert!(!clock_like(key), "`{key}` should be allowed");
        }
        // The one committed baseline: every leaf compared, none clock-like.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/EXPERIMENTS.json"
        );
        let value: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut keys = Vec::new();
        leaf_keys("", &value, &mut keys);
        let report = compare_values(&value, &value);
        assert!(report.drifts.is_empty(), "{:?}", report.drifts);
        assert_eq!(report.leaves, keys.len());
        // The gate has no class for a value that may move: a key named like a
        // clock reading or a machine property must not come back.
        for key in keys {
            assert!(!clock_like(key), "`{key}` names a machine-dependent value");
        }
    }
}
