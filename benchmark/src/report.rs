//! Report files (`--out`) and the comparison of two of them.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use crate::envinfo::{EnvRecord, HARNESS_VERSION};
use crate::metrics::{json_f64, MetricSet, END_TO_END, PER_LAYER};
use crate::stats::median;

/// The report of one invocation (one workload, traced or not).
#[allow(clippy::too_many_arguments)]
pub fn invocation_json(
    quick: bool,
    workload: &str,
    trace: bool,
    env: &EnvRecord,
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: &[String],
    metrics: &MetricSet,
) -> String {
    let failures: Vec<String> = failures
        .iter()
        .map(|f| serde_json::to_string(f).expect("a string serialises"))
        .collect();
    let rows: Vec<String> = metrics
        .rows()
        .into_iter()
        .map(|(name, value, unit, samples)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"samples\":{samples}}}",
                json_f64(value)
            )
        })
        .collect();
    format!(
        "{{\"harness_version\":\"{HARNESS_VERSION}\",\"quick\":{quick},\"workload\":\"{workload}\",\"trace\":{trace},\
         \"env\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"failures\":[{}],\
         \"metrics\":{{{}}}}}",
        env.to_json(),
        failures.join(","),
        rows.join(",")
    )
}

/// `(workload, traced) -> metric -> value` of a merged report.
type Table = BTreeMap<(String, bool), BTreeMap<String, f64>>;

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a merged report (`{"runs":[...]}`), refusing what is no measurement.
fn parse(text: &str) -> Result<Table, String> {
    let json: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = json
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("not a merged benchmark report")?;
    let mut table = Table::new();
    for run in runs {
        if run.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(
                "refusing a `--quick` report: a smoke run is not a measurement".to_string(),
            );
        }
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err("holds a run whose checks failed".to_string());
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let trace = run.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let Some(Value::Obj(fields)) = run.get("metrics") else {
            return Err("a run without metrics".to_string());
        };
        let metrics = fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        table.insert((workload, trace), metrics);
    }
    Ok(table)
}

/// How two values of one metric must relate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// Within this share of the smaller value, either way.
    Within(f64),
    Exact,
}

/// The rule for a metric, `None` for per-layer timings (no bound).
fn rule(name: &str) -> Option<Rule> {
    // Deterministic for a fixed seed: must repeat exactly.
    if matches!(name, "usage_pct" | "sla_violation_pct" | "failed_ops_pct") {
        return Some(Rule::Exact);
    }
    if name == "checkpoint_mb" {
        return Some(Rule::Within(0.01));
    }
    if let Some(m) = END_TO_END.iter().find(|m| m.0 == name) {
        return Some(Rule::Within(m.3));
    }
    PER_LAYER
        .iter()
        .find(|m| m.0 == name && m.1 == "count")
        .map(|_| Rule::Exact)
}

fn agrees(rule: Rule, a: f64, b: f64) -> bool {
    match rule {
        Rule::Exact => a == b,
        Rule::Within(share) => (a - b).abs() <= share * a.abs().min(b.abs()),
    }
}

/// Compares two merged reports of the same code: every end-to-end metric
/// within its own bound, every exact metric equal. Returns the
/// disagreements, one line each.
fn compare(a: &Table, b: &Table) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, ma) in a {
        let Some(mb) = b.get(key) else {
            lines.push(format!(
                "{} (trace {}): missing from the second report",
                key.0, key.1
            ));
            continue;
        };
        for (name, va) in ma {
            let (Some(rule), Some(vb)) = (rule(name), mb.get(name)) else {
                continue;
            };
            if !agrees(rule, *va, *vb) {
                lines.push(format!("{} {name}: {va} vs {vb} ({rule:?})", key.0));
            }
        }
    }
    lines
}

/// The per-metric medians of several reports of one side. One run of a
/// workload is one draw from a machine whose speed drifts by the minute;
/// the median of a few, taken alternately with the other side's, is what
/// two versions (or twice the same one) can be compared on.
fn medians(tables: &[Table]) -> Table {
    let mut pooled: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for table in tables {
        for (key, metrics) in table {
            let run = pooled.entry(key.clone()).or_default();
            for (name, value) in metrics {
                run.entry(name.clone()).or_default().push(*value);
            }
        }
    }
    pooled
        .into_iter()
        .map(|(key, run)| (key, run.into_iter().map(|(n, v)| (n, median(&v))).collect()))
        .collect()
}

/// `compare A1 B1 [A2 B2 ...]`: the reports alternate between the two
/// sides, in the order they were measured.
pub fn compare_files(paths: &[String]) -> ExitCode {
    let mut sides = [Vec::new(), Vec::new()];
    for (i, path) in paths.iter().enumerate() {
        match load(Path::new(path)) {
            Ok(table) => sides[i % 2].push(table),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    let (ta, tb) = (medians(&sides[0]), medians(&sides[1]));
    let lines = compare(&ta, &tb);
    for line in &lines {
        println!("DISAGREE: {line}");
    }
    if lines.is_empty() {
        println!(
            "the two sides agree: {} reports each, {} runs in the first",
            sides[0].len(),
            ta.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Table as MetricTable;

    fn report(quick: bool, usage: f64, rate: f64) -> String {
        let env = EnvRecord::capture(0, crate::envinfo::Wake::default());
        let mut m = MetricSet::new(MetricTable::EndToEnd);
        m.set("usage_pct", usage);
        m.set("slice_slots_per_s", rate);
        let run = invocation_json(quick, "cell-dense", false, &env, true, 10, 0, &[], &m);
        format!("{{\"runs\":[{run}]}}")
    }

    #[test]
    fn reports_agree_within_bounds_and_exactly_on_exact_metrics() {
        let base = parse(&report(false, 28.0, 600.0)).unwrap();
        let near = parse(&report(false, 28.0, 640.0)).unwrap();
        assert!(
            compare(&base, &near).is_empty(),
            "7 % apart is within the 25 % bound"
        );
        let far = parse(&report(false, 28.0, 800.0)).unwrap();
        assert_eq!(compare(&base, &far).len(), 1);
        let drift = parse(&report(false, 28.0001, 600.0)).unwrap();
        assert_eq!(
            compare(&base, &drift).len(),
            1,
            "usage_pct must repeat exactly"
        );
        assert!(parse(&report(true, 28.0, 600.0))
            .unwrap_err()
            .contains("--quick"));
    }

    #[test]
    fn a_side_is_the_median_of_its_reports() {
        let side: Vec<Table> = [500.0, 900.0, 620.0]
            .iter()
            .map(|rate| parse(&report(false, 28.0, *rate)).unwrap())
            .collect();
        let m = medians(&side);
        assert_eq!(
            m[&("cell-dense".to_string(), false)]["slice_slots_per_s"],
            620.0
        );
        // One slow draw among three does not make the sides disagree.
        let other = parse(&report(false, 28.0, 600.0)).unwrap();
        assert!(compare(&m, &other).is_empty());
    }

    #[test]
    fn counts_are_exact_and_layer_timings_unbounded() {
        assert_eq!(rule("fleet.migrations"), Some(Rule::Exact));
        assert_eq!(rule("checkpoint_mb"), Some(Rule::Within(0.01)));
        assert_eq!(rule("setup_s"), Some(Rule::Within(0.25)));
        assert_eq!(rule("nn.bayes_predict_us"), None);
        assert!(agrees(Rule::Within(0.1), 100.0, 109.0));
        assert!(!agrees(Rule::Within(0.1), 100.0, 111.0));
    }
}
