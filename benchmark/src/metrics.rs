//! The metric and workload names this harness emits. `BENCHMARK.json`
//! declares exactly these (a unit test compares both ways), and every
//! emitter goes through [`MetricSet`], which refuses an undeclared name.

use std::collections::BTreeMap;

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "paper-online",
    "cell-dense",
    "churn-admit",
    "fleet-elastic",
    "fleetd-drill",
];

/// `(name, unit, better, bound)`: what a user of the system sees, measured
/// with tracing off, reported by every workload, never zero, and steady
/// from seed to seed on a shared two-core machine (whose own run-to-run
/// noise is 5-10 %, hence the wide bounds).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("slice_slots_per_s", "1/s", "higher", 0.25),
    ("slot_ms_p50", "ms", "lower", 0.25),
    ("usage_pct", "%", "lower", 0.20),
];

/// `(name, unit, better)`: the end-to-end metrics of ISSUE 11 that the
/// driver contract cannot carry as `end_to_end` (defined on some workloads
/// only, zero on healthy runs, or not steady from seed to seed) followed by the
/// per-layer ledger. All are reported by the traced invocation; the scoped
/// ones come from its untraced pass. A metric a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 98] = [
    // Workload-scoped or unsteady end-to-end metrics (tracing off).
    ("slot_ms_p95", "ms", "lower"),
    ("slot_ms_p99", "ms", "lower"),
    ("epoch_s_p50", "s", "lower"),
    ("admit_ms_p50", "ms", "lower"),
    ("ctl_ms_p50", "ms", "lower"),
    ("ctl_ms_p99", "ms", "lower"),
    ("checkpoint_ms_p50", "ms", "lower"),
    ("checkpoint_mb", "MB", "lower"),
    ("resume_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sla_violation_pct", "%", "lower"),
    ("failed_ops_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    // nn: micro-probes on fresh nets of the workload's shapes.
    ("nn.bayes_predict_us", "us", "lower"),
    ("nn.bayes_fit_batch_us", "us", "lower"),
    ("nn.fused_forward_us_per_slice", "us", "lower"),
    ("nn.mlp_forward_b64_us", "us", "lower"),
    ("nn.mlp_backward_b64_us", "us", "lower"),
    ("nn.adam_step_us", "us", "lower"),
    // rl
    ("rl.ppo_update_ms", "ms", "lower"),
    ("rl.bc_ms", "ms", "lower"),
    ("rl.estimator_fit_ms", "ms", "lower"),
    ("rl.estimator_predict_us", "us", "lower"),
    // core: the slot-phase ledger (per slice-slot) and its shares.
    ("core.phase.gather_us", "us", "lower"),
    ("core.phase.switch_stat_us", "us", "lower"),
    ("core.phase.fused_forward_us", "us", "lower"),
    ("core.phase.decide_finish_us", "us", "lower"),
    ("core.phase.coordinate_us", "us", "lower"),
    ("core.phase.enforce_us", "us", "lower"),
    ("core.phase.env_step_us", "us", "lower"),
    ("core.phase.record_us", "us", "lower"),
    ("core.phase.end_episode_us", "us", "lower"),
    ("core.phase.update_policy_ms", "ms", "lower"),
    ("core.phase.gather_share", "1", "lower"),
    ("core.phase.switch_stat_share", "1", "lower"),
    ("core.phase.fused_forward_share", "1", "lower"),
    ("core.phase.decide_finish_share", "1", "lower"),
    ("core.phase.coordinate_share", "1", "lower"),
    ("core.phase.enforce_share", "1", "lower"),
    ("core.phase.env_step_share", "1", "lower"),
    ("core.phase.record_share", "1", "lower"),
    ("core.phase.end_episode_share", "1", "lower"),
    ("core.phase.update_policy_share", "1", "lower"),
    ("core.phase.coverage", "1", "higher"),
    ("core.phase.mismatches", "count", "lower"),
    ("core.phase.probes_skipped", "count", "lower"),
    ("core.pretrain_ms_per_slice", "ms", "lower"),
    ("core.run_epoch_s", "s", "lower"),
    ("core.evaluate_us_per_slice_slot", "us", "lower"),
    // netsim, traffic
    ("netsim.step_us", "us", "lower"),
    ("traffic.trace_gen_us", "us", "lower"),
    // domains
    ("domains.rounds_per_slot", "count", "lower"),
    ("domains.round_us", "us", "lower"),
    ("domains.projection_share", "1", "lower"),
    // scenario
    ("scenario.engine_new_ms", "ms", "lower"),
    ("scenario.step_overhead_share", "1", "lower"),
    ("scenario.admit_ms", "ms", "lower"),
    ("scenario.teardown_us", "us", "lower"),
    ("scenario.extract_inject_ms", "ms", "lower"),
    ("scenario.events_applied", "count", "higher"),
    ("scenario.admissions_denied", "count", "lower"),
    // replay
    ("replay.on_slot_us", "us", "lower"),
    ("replay.capture_ms", "ms", "lower"),
    ("replay.to_json_ms", "ms", "lower"),
    ("replay.from_json_ms", "ms", "lower"),
    ("replay.restore_ms", "ms", "lower"),
    ("replay.atomic_write_ms", "ms", "lower"),
    ("replay.trace_finalize_ms", "ms", "lower"),
    ("replay.trace_mb", "MB", "lower"),
    // fleet
    ("fleet.new_ms", "ms", "lower"),
    ("fleet.advance_ms_per_slot", "ms", "lower"),
    ("fleet.sync_ms", "ms", "lower"),
    ("fleet.migrations", "count", "higher"),
    ("fleet.admissions_granted", "count", "higher"),
    ("fleet.admissions_denied", "count", "lower"),
    ("fleet.checkpoint_clone_ms", "ms", "lower"),
    ("fleet.checkpoint_to_json_ms", "ms", "lower"),
    ("fleet.checkpoint_mb_first", "MB", "lower"),
    ("fleet.checkpoint_mb_last", "MB", "lower"),
    ("fleet.checkpoint_growth", "1", "lower"),
    ("fleet.restore_ms", "ms", "lower"),
    ("fleet.finish_ms", "ms", "lower"),
    ("fleet.cell_skew", "1", "lower"),
    ("fleet.parallel_efficiency", "1", "higher"),
    // fleetd
    ("fleetd.start_ms", "ms", "lower"),
    ("fleetd.resume_ms", "ms", "lower"),
    ("fleetd.connect_us", "us", "lower"),
    ("fleetd.req.status_us", "us", "lower"),
    ("fleetd.req.telemetry_us", "us", "lower"),
    ("fleetd.req.teardown_us", "us", "lower"),
    ("fleetd.req.renegotiate_us", "us", "lower"),
    ("fleetd.req.admit_ms", "ms", "lower"),
    ("fleetd.req.step_ms", "ms", "lower"),
    ("fleetd.req.checkpoint_ms", "ms", "lower"),
    ("fleetd.req.shutdown_ms", "ms", "lower"),
    ("fleetd.finalize_ms", "ms", "lower"),
    ("fleetd.requests", "count", "higher"),
    ("fleetd.request_errors", "count", "lower"),
];

/// Which declared table a [`MetricSet`] fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    EndToEnd,
    PerLayer,
}

impl Table {
    /// `(name, unit)` of every metric of the table, in declaration order.
    fn declared(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Table::EndToEnd => END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
            Table::PerLayer => PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
        }
    }
}

/// The metrics of one invocation: every name of the table, each with a
/// value (0 until set) and, for timings, the sample count behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    table: Table,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl MetricSet {
    pub fn new(table: Table) -> Self {
        Self {
            table,
            values: table
                .declared()
                .into_iter()
                .map(|(name, _)| (name, (0.0, 0)))
                .collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on an undeclared name: the emitted set must equal the set
    /// `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// Sets a declared metric together with its sample count.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"));
        *slot = (value, samples);
    }

    /// `(name, value, unit, samples)` in declaration order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        self.table
            .declared()
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = self.values[name];
                (name, value, unit, samples)
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(n, v, unit, _)| {
                format!("\"{n}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_f64(v))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite float as JSON, with all its digits; non-finite values (which no
/// healthy run produces and a check reports) degrade to 0.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses")
    }

    fn declared(json: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("`{key}` array"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(legal(n), "illegal name `{n}`");
            assert!(seen.insert(n), "name `{n}` is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(!unit.is_empty() && unit.len() <= 16, "unit `{unit}`");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    #[test]
    fn emitted_set_equals_the_set_benchmark_json_declares() {
        let json = benchmark_json();
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());

        let e2e = declared(&json, "end_to_end");
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), Some(m.3)))
            .collect();
        assert_eq!(e2e, ours, "end_to_end differs from metrics.rs");
        assert!(e2e
            .iter()
            .all(|m| m.3.is_some_and(|b| b > 0.0 && b <= 0.25)));

        let layers = declared(&json, "per_layer");
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), None))
            .collect();
        assert_eq!(layers, ours, "per_layer differs from metrics.rs");

        // Both ways: what a MetricSet emits is exactly what is declared.
        for (table, key) in [
            (Table::EndToEnd, "end_to_end"),
            (Table::PerLayer, "per_layer"),
        ] {
            let emitted: Value = serde_json::from_str(&MetricSet::new(table).to_json()).unwrap();
            let Value::Obj(fields) = emitted else {
                panic!("object")
            };
            let emitted: BTreeSet<String> = fields.into_iter().map(|f| f.0).collect();
            let declared: BTreeSet<String> =
                declared(&json, key).into_iter().map(|m| m.0).collect();
            assert_eq!(emitted, declared);
        }
    }

    #[test]
    fn benchmark_json_command_and_paths_stay_inside_the_benchmark_directory() {
        let json = benchmark_json();
        let strings = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Value::as_arr)
                .expect("array")
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        assert_eq!(strings("paths"), vec!["benchmark".to_string()]);
        let command = strings("command");
        assert_eq!(command[0], "cargo");
        assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
        assert!(command.contains(&"--release".to_string()));
        let secs = json
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&secs));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        MetricSet::new(Table::EndToEnd).set("made_up", 1.0);
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(json_f64(1.2034), "1.2034");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "0.0");
    }
}
