//! Regression gating of `BENCH_*.json` / `EXPERIMENTS.json` artifacts
//! against committed baselines.
//!
//! The bench bins (`bench_hotpath`, `bench_scenario`, `fleet_runner`,
//! `bench_tournament`, `experiments`) emit machine-readable JSON; this
//! module diffs a freshly produced file against the committed copy under
//! `baselines/` and decides whether the change is a regression. Leaves are
//! classified by key name:
//!
//! * **lower-is-better** (`*_ns`, `ns_per_*`, `*sublinearity*`) — the
//!   wall-clock keys of `BENCH_hotpath.json`, the only baseline that reads
//!   the clock; fails when the fresh value exceeds the baseline by more
//!   than [`SLOWER_TOLERANCE`] (+35 %: single runs of one binary on a
//!   shared VM range over 30 %).
//! * **exact** (everything else: rates, costs, measured values, counts,
//!   seeds, strings, booleans) — what the determinism contract pins for a
//!   fixed seed; fails on any drift beyond [`EXACT_ABS_TOLERANCE`].
//! * **informational** (`threads`) — a machine property: tracked in the
//!   artifact, never compared.
//!
//! End-to-end rates and latencies are not gated here: the repository
//! benchmark (`benchmark/`) reads them as medians of repeated runs.
//!
//! Structural drift (a metric appearing, disappearing, or an array
//! changing length) always fails: it means the bench schema changed and
//! the baseline must be regenerated intentionally via `--update`.

use serde::Value;

/// Allowed relative slowdown of lower-is-better metrics (0.35 = +35 %).
/// Not settable anywhere — a settable tolerance on a gate is a way to pass
/// it.
pub const SLOWER_TOLERANCE: f64 = 0.35;

/// Absolute slack of exact metrics.
pub const EXACT_ABS_TOLERANCE: f64 = 1e-9;

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Wall-clock time: fresh may not exceed baseline by more than
    /// [`SLOWER_TOLERANCE`] of its magnitude.
    LowerIsBetter,
    /// Deterministic for a fixed seed: any drift fails.
    Exact,
    /// Machine property: never compared.
    Informational,
}

/// The last segment of a dotted path, array index stripped, lower-cased.
fn leaf_key(path: &str) -> String {
    let key = path.rsplit('.').next().unwrap_or(path);
    key.split('[').next().unwrap_or(key).to_ascii_lowercase()
}

/// Classifies a metric by the last segment of its dotted path (array
/// indices stripped).
pub fn classify(path: &str) -> MetricClass {
    let key = leaf_key(path);
    if key == "threads" {
        MetricClass::Informational
    } else if key.ends_with("_ns") || key.starts_with("ns_") || key.contains("sublinearity") {
        MetricClass::LowerIsBetter
    } else {
        MetricClass::Exact
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct ComparisonReport {
    /// Human-readable description of every regression found.
    pub regressions: Vec<String>,
    /// Metrics actually compared.
    pub checked: usize,
    /// Paths skipped as informational.
    pub skipped: Vec<String>,
}

impl ComparisonReport {
    /// Whether the fresh artifact passes the gate.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn compare_leaf(path: &str, baseline: &Value, fresh: &Value, report: &mut ComparisonReport) {
    let class = classify(path);
    if class == MetricClass::Informational {
        report.skipped.push(path.to_string());
        return;
    }
    let (Some(b), Some(f)) = (as_number(baseline), as_number(fresh)) else {
        // Non-numeric leaves (schema strings, flags) must match exactly.
        report.checked += 1;
        if baseline != fresh {
            report.regressions.push(format!(
                "{path}: value changed from {baseline:?} to {fresh:?} \
                 (schema drift; rebaseline with --update if intentional)"
            ));
        }
        return;
    };
    if class == MetricClass::LowerIsBetter {
        report.checked += 1;
        // The band scales with |baseline| so a signed metric is not judged
        // against a band on the wrong side of zero.
        let limit = b + b.abs() * SLOWER_TOLERANCE + 1e-6;
        if f > limit {
            report.regressions.push(format!(
                "{path}: {f:.1} exceeds baseline {b:.1} by more than +{:.0}% (limit {limit:.1})",
                SLOWER_TOLERANCE * 100.0
            ));
        }
        return;
    }
    report.checked += 1;
    if (f - b).abs() > EXACT_ABS_TOLERANCE {
        report.regressions.push(format!(
            "{path}: {f} drifted from the pinned baseline {b} \
             (deterministic metric; any drift fails)"
        ));
    }
}

fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, baseline: &Value, fresh: &Value, report: &mut ComparisonReport) {
    match (baseline, fresh) {
        (Value::Obj(b), Value::Obj(f)) => {
            for (key, bv) in b {
                let child = child_path(path, key);
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => walk(&child, bv, fv, report),
                    None => report.regressions.push(format!(
                        "{child}: metric disappeared from the fresh artifact \
                         (schema drift; rebaseline with --update if intentional)"
                    )),
                }
            }
            for (key, _) in f {
                if !b.iter().any(|(k, _)| k == key) {
                    report.regressions.push(format!(
                        "{}: new metric absent from the baseline \
                         (rebaseline with --update to start tracking it)",
                        child_path(path, key)
                    ));
                }
            }
        }
        (Value::Arr(b), Value::Arr(f)) => {
            if b.len() != f.len() {
                report.regressions.push(format!(
                    "{path}: series length changed from {} to {} entries",
                    b.len(),
                    f.len()
                ));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), bv, fv, report);
            }
        }
        _ => compare_leaf(path, baseline, fresh, report),
    }
}

/// Compares a fresh bench artifact against its baseline.
pub fn compare_values(baseline: &Value, fresh: &Value) -> ComparisonReport {
    let mut report = ComparisonReport::default();
    walk("", baseline, fresh, &mut report);
    report
}

/// Parses two JSON texts and compares them.
pub fn compare_json(baseline: &str, fresh: &str) -> Result<ComparisonReport, String> {
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
        "schema": "onslicing-hotpath-bench/1",
        "threads": 4,
        "batch": 64,
        "mlp_forward": { "batched_ns": 120000.0 },
        "orchestrator_slot": [
            { "slices": 3, "ns_per_slot": 30000000.0 },
            { "slices": 9, "ns_per_slot": 90000000.0 }
        ],
        "orchestrator_sublinearity": 0.99,
        "sla_violation_percent": 2.7777777777,
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
        let report = compare_json(BASELINE, BASELINE).unwrap();
        assert!(report.passed(), "regressions: {:?}", report.regressions);
        assert!(report.checked > 5);
        // `threads` is a machine property, never compared.
        assert!(report.skipped.iter().any(|p| p == "threads"));
    }

    #[test]
    fn faster_and_moderately_slower_runs_pass() {
        // 10% slower ns metric: within the +35% band.
        let fresh = fresh_with(|t| *t = t.replace("120000.0", "132000.0"));
        assert!(compare_json(BASELINE, &fresh).unwrap().passed());
        // 50% faster: improvements always pass.
        let fresh = fresh_with(|t| *t = t.replace("120000.0", "60000.0"));
        assert!(compare_json(BASELINE, &fresh).unwrap().passed());
    }

    #[test]
    fn a_big_slowdown_fails_the_gate() {
        let fresh = fresh_with(|t| *t = t.replace("120000.0", "170000.0"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("mlp_forward.batched_ns"));
    }

    #[test]
    fn sla_metrics_are_exact() {
        let fresh = fresh_with(|t| *t = t.replace("2.7777777777", "2.9"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("sla_violation_percent"));
        // Exact means exact whatever the key is called: a measured float
        // nudged by 1e-6, or a verdict flipping either way, fails.
        let fresh = fresh_with(|t| *t = t.replace("20.957316", "20.957317"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(report.regressions[0].contains("measured.MAR usage, epoch 3"));
        let fresh = fresh_with(|t| *t = t.replace("\"holds\": false", "\"holds\": true"));
        assert!(compare_json(BASELINE, &fresh).unwrap().regressions[0].contains("holds"));
    }

    #[test]
    fn an_integer_count_drifting_to_a_fraction_fails() {
        // 9 -> 8.5: a pinned count drifting to a fraction is a drift.
        let fresh = fresh_with(|t| *t = t.replace("\"slices\": 9", "\"slices\": 8.5"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("orchestrator_slot[1].slices"));
    }

    #[test]
    fn counts_are_exact_and_arrays_are_walked() {
        let fresh = fresh_with(|t| *t = t.replace("\"slices\": 9", "\"slices\": 10"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("orchestrator_slot[1].slices"));
        // A slot-latency regression inside the array is caught too.
        let fresh = fresh_with(|t| *t = t.replace("90000000.0", "140000000.0"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("orchestrator_slot[1].ns_per_slot"));
    }

    #[test]
    fn sublinearity_growth_fails() {
        let fresh = fresh_with(|t| {
            *t = t.replace(
                "\"orchestrator_sublinearity\": 0.99",
                "\"orchestrator_sublinearity\": 1.5",
            )
        });
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
    }

    #[test]
    fn schema_drift_fails_in_both_directions() {
        let fresh =
            fresh_with(|t| *t = t.replace("\"batch\": 64,", "\"batch\": 64, \"new_metric\": 1.0,"));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("new_metric"));
        let fresh = fresh_with(|t| *t = t.replace("\"batch\": 64,", ""));
        let report = compare_json(BASELINE, &fresh).unwrap();
        assert!(!report.passed());
        assert!(report.regressions[0].contains("batch"));
        let fresh = fresh_with(|t| {
            *t = t.replace(
                "\"schema\": \"onslicing-hotpath-bench/1\"",
                "\"schema\": \"onslicing-hotpath-bench/2\"",
            )
        });
        assert!(!compare_json(BASELINE, &fresh).unwrap().passed());
    }

    #[test]
    fn classification_covers_the_emitted_key_families() {
        // BENCH_hotpath.json: the only wall-clock keys under baselines/.
        for path in [
            "mlp_forward.batched_ns",
            "bc_epoch_96_demos_ns",
            "fused_cell_slot[2].fused_ns",
            "coordination_machinery.in_place_ns",
            "orchestrator_slot[1].ns_per_slot",
            "orchestrator_sublinearity",
        ] {
            assert_eq!(classify(path), MetricClass::LowerIsBetter, "{path}");
        }
        assert_eq!(classify("threads"), MetricClass::Informational);
        // Everything the determinism contract pins.
        for path in [
            "timings[0].sla_violation_percent",
            "timings[1].slice_slots",
            "curve[0].cost_p99",
            "curve[2].avg_slot_cost",
            "rebalance_comparison.violation_reduction_points",
            "leaderboard[0].mean_avg_slot_cost",
            "fused_cell_slot[2].slices",
            "schema",
        ] {
            assert_eq!(classify(path), MetricClass::Exact, "{path}");
        }
    }

    /// The dotted path of every leaf of `value`, in document order.
    fn leaves(path: String, value: &Value, out: &mut Vec<String>) {
        match value {
            Value::Obj(fields) => {
                for (key, v) in fields {
                    leaves(child_path(&path, key), v, out);
                }
            }
            Value::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    leaves(format!("{path}[{i}]"), v, out);
                }
            }
            _ => out.push(path),
        }
    }

    #[test]
    fn every_committed_baseline_leaf_is_gated_or_named_informational() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        for (file, clock_reading) in [
            ("BENCH_hotpath.json", true),
            ("BENCH_scenario.json", false),
            ("BENCH_fleet.json", false),
            ("BENCH_tournament.json", false),
            ("EXPERIMENTS.json", false),
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
            let value: Value = serde_json::from_str(&text).unwrap();
            let mut all = Vec::new();
            leaves(String::new(), &value, &mut all);
            let report = compare_values(&value, &value);
            assert!(report.passed(), "{file}: {:?}", report.regressions);
            // `threads` is the one named informational key.
            let expected_skips: &[&str] = if clock_reading { &["threads"] } else { &[] };
            assert_eq!(report.skipped, expected_skips, "{file}");
            assert_eq!(report.checked + report.skipped.len(), all.len(), "{file}");
            // A wall-clock key creeping back into a deterministic baseline
            // would classify `LowerIsBetter`.
            if !clock_reading {
                for path in &all {
                    assert_eq!(classify(path), MetricClass::Exact, "{file}: {path}");
                }
            }
        }
    }

    #[test]
    fn unchanged_negative_metrics_pass_every_band() {
        // A signed metric must not fail a no-change run because the
        // tolerance band flipped sides of zero.
        let baseline = r#"{ "drift_ns": -10.0, "delta_cost": -2.0 }"#;
        let report = compare_json(baseline, baseline).unwrap();
        assert!(report.passed(), "regressions: {:?}", report.regressions);
        // And a genuine worsening of the negative latency-like delta fails.
        let worse = r#"{ "drift_ns": -3.0, "delta_cost": -2.0 }"#;
        assert!(!compare_json(baseline, worse).unwrap().passed());
    }
}
