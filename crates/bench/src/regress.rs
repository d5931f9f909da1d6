//! Regression gating of the `EXPERIMENTS.json` ledger against its
//! committed baseline.
//!
//! The `experiments` binary renders a ledger in which every field is a
//! pure function of the seed; `experiments --check <baseline>` diffs it
//! against the committed copy under `baselines/` through the gate every
//! pinned artifact shares, [`onslicing_replay::diff_against_file`]. Only
//! the header and the entries of the ids that ran are compared, so one id
//! is judged without running the rest. There is one rule: same structure,
//! every float leaf within [`EXACT_ABS_TOLERANCE`] of its baseline (NaN
//! matches nothing), every other leaf (counts, schema strings, booleans)
//! equal. Nothing under `baselines/` reads the clock — speed is the
//! repository benchmark's question (`benchmark/`), read as medians of
//! repeated runs.
//!
//! Structural drift (a metric appearing, disappearing, an array changing
//! length, or a count turning into a float) always fails: it means the
//! bench schema changed and the baseline must be regenerated intentionally
//! via `experiments all --full --update <baseline>`.

use std::path::Path;

use onslicing_replay::{diff_against_file, Tolerance, ValueDiff};
use serde::Value;

use crate::experiments::EXPERIMENTS;

/// Absolute slack of float leaves. Not settable anywhere — a settable
/// tolerance on a gate is a way to pass it.
pub const EXACT_ABS_TOLERANCE: f64 = 1e-9;

const LEDGER_TOLERANCE: Tolerance = Tolerance {
    rel: 0.0,
    abs: EXACT_ABS_TOLERANCE,
};

/// Diffs a rendered ledger against the one committed at `baseline`: every
/// drift by its JSON path, and the leaves compared. The committed entries
/// of registered ids the ledger does not hold (they did not run) are left
/// out; its header and any key no id names are compared.
pub fn check_ledger(baseline: &Path, ledger: &Value) -> Result<ValueDiff, String> {
    let ran_or_unregistered =
        |key: &str| ledger.get(key).is_some() || EXPERIMENTS.iter().all(|e| e.id != key);
    let update = format!("experiments all --full --update {}", baseline.display());
    diff_against_file(
        baseline,
        ledger,
        LEDGER_TOLERANCE,
        ran_or_unregistered,
        &update,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ledger;
    use crate::RunScale;
    use onslicing_replay::diff_values;

    /// The committed ledger.
    const COMMITTED: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/EXPERIMENTS.json"
    );

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

    /// The rule on two JSON texts, without the disk.
    fn compare_json(baseline: &str, fresh: &str) -> Result<ValueDiff, String> {
        let parse = |text| serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
        Ok(diff_values(
            &parse(baseline)?,
            &parse(fresh)?,
            LEDGER_TOLERANCE,
        ))
    }

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
        let text = std::fs::read_to_string(COMMITTED).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let mut keys = Vec::new();
        leaf_keys("", &value, &mut keys);
        let report = check_ledger(Path::new(COMMITTED), &value).unwrap();
        assert!(report.drifts.is_empty(), "{:?}", report.drifts);
        assert_eq!(report.leaves, keys.len());
        // The gate has no class for a value that may move: a key named like a
        // clock reading or a machine property must not come back.
        for key in keys {
            assert!(!clock_like(key), "`{key}` names a machine-dependent value");
        }
    }

    /// A ledger of `ids` rendered now at full scale.
    fn rendered(ids: &[&str]) -> Value {
        let scale = RunScale::full();
        let ran = EXPERIMENTS.iter().filter(|e| ids.contains(&e.id));
        let results: Vec<_> = ran.map(|e| (e.id, (e.run)(scale))).collect();
        ledger("full", scale.seeds, &results)
    }

    #[test]
    fn scale_free_ids_rendered_now_equal_their_committed_entries() {
        // fig5, fig6 and fig16 ignore the run scale: their full-scale
        // entries render in milliseconds.
        let ledger = rendered(&["fig5", "fig6", "fig16"]);
        let report = check_ledger(Path::new(COMMITTED), &ledger).unwrap();
        assert!(report.drifts.is_empty(), "{:?}", report.drifts);
        let mut keys = Vec::new();
        leaf_keys("", &ledger, &mut keys);
        assert_eq!(report.leaves, keys.len());
        let Value::Obj(fields) = &ledger else {
            panic!("a ledger is an object")
        };
        let names: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["schema", "scale", "seeds", "fig5", "fig6", "fig16"]);
    }

    #[test]
    fn a_doctored_baseline_drifts_by_path_and_only_unrun_ids_are_left_out() {
        let text = std::fs::read_to_string(COMMITTED).unwrap();
        let fig6 = text.find("\"fig6\"").unwrap();
        let holds = fig6 + text[fig6..].find("\"holds\": true").unwrap();
        let doctored = format!(
            "{}\"holds\": false{}",
            &text[..holds],
            &text[holds + "\"holds\": true".len()..]
        );
        // A key no id names stays in: a ledger without it is a drift.
        let doctored = doctored.replacen('{', "{\"stray\": 1,", 1);
        let path =
            std::env::temp_dir().join(format!("ledger-doctored-{}.json", std::process::id()));
        std::fs::write(&path, doctored).unwrap();
        let report = check_ledger(&path, &rendered(&["fig6"])).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(report.drifts.len(), 2, "{:?}", report.drifts);
        assert!(
            report.drifts[0].starts_with("stray: missing"),
            "{:?}",
            report.drifts
        );
        assert!(
            report.drifts[1].starts_with("fig6.claims[0].holds: "),
            "{:?}",
            report.drifts
        );
        let err =
            check_ledger(Path::new("/no/such/ledger.json"), &rendered(&["fig6"])).unwrap_err();
        assert!(
            err.contains("cannot read") && err.contains("--update"),
            "{err}"
        );
    }
}
