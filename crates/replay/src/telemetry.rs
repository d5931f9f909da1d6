//! Per-slot, per-slice telemetry traces.
//!
//! A [`TelemetryRecorder`] plugs into the scenario engine as a
//! [`SlotObserver`] and records, for every executed slot and every active
//! slice, the metrics the paper's evaluation is stated in: per-slot cost
//! (Eq. 10), the constraint-shaped reward, resource utilization (Eq. 9, as
//! a percentage), the Lagrangian multiplier λ and whether the proactive
//! safety switch handed the slot to the baseline — plus every closed
//! episode's summary. [`TelemetryRecorder::finalize`] adds per-slice
//! percentile summaries and produces the `TRACE_<scenario>.json` artifact
//! the golden harness diffs.
//!
//! Traces are fully deterministic for a fixed seed (no wall-clock fields,
//! no map iteration order), so two runs of the same scenario — whatever the
//! worker thread count — emit byte-identical JSON.

use std::path::Path;

use serde::{Deserialize, Serialize};

use onslicing_scenario::{
    EpisodeEndEvent, ScenarioConfig, ScenarioEngine, ScenarioReport, SlotObserver, SlotSample,
};
use onslicing_slices::SliceKind;

/// Version stamp of the trace JSON layout; bump on breaking changes and
/// regenerate the goldens.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// One slice's metrics for one executed slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceSlotTelemetry {
    /// Stable slice id.
    pub id: u32,
    /// Application class.
    pub kind: SliceKind,
    /// Per-slot cost `c(s_t, a_t)`.
    pub cost: f64,
    /// Constraint-shaped learning reward under the current λ.
    pub reward: f64,
    /// Resource utilization of the executed action, in percent of the six
    /// counted dimensions.
    pub usage_percent: f64,
    /// Normalized performance score `p_t / P` (larger is better).
    pub performance_score: f64,
    /// The agent's Lagrangian multiplier λ at decision time.
    pub lambda: f64,
    /// Whether the proactive safety switch handed this slot to the baseline.
    pub used_baseline: bool,
}

/// All slices' metrics for one executed slot, in slice position order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotTelemetry {
    /// Global scenario slot (0-based).
    pub slot: usize,
    /// One record per active slice.
    pub slices: Vec<SliceSlotTelemetry>,
}

/// One closed slice-episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeTelemetry {
    /// Global scenario slot at which the episode closed (`total_slots` for
    /// final partial episodes).
    pub slot: usize,
    /// Stable slice id.
    pub slice: u32,
    /// Application class.
    pub kind: SliceKind,
    /// Episode-average per-slot cost.
    pub avg_cost: f64,
    /// Episode-average resource usage in percent.
    pub avg_usage_percent: f64,
    /// Whether the episode violated the slice's SLA.
    pub violated: bool,
    /// Whether the agent switched to its baseline during the episode.
    pub switched_to_baseline: bool,
}

/// One live-migration endpoint in a cell's telemetry trace: a slice
/// departing this cell for another, or arriving from one. A fleet derives
/// a departure in the source cell's trace and the matching arrival in the
/// target cell's from its one list of migrations, so the pair reconstructs
/// the migration from either side. Slice ids are per-cell: `slice` is this
/// cell's id for the slice, `peer_slice` its id in the peer cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Global scenario slot the migration happened before (the slice's
    /// state moved between slot `slot - 1` and slot `slot`).
    pub slot: usize,
    /// This cell's id for the migrated slice.
    pub slice: u32,
    /// Application class.
    pub kind: SliceKind,
    /// `true` for an arrival into this cell, `false` for a departure.
    pub arrived: bool,
    /// The cell at the other end of the migration.
    pub peer_cell: u32,
    /// The slice's id in the peer cell.
    pub peer_slice: u32,
}

/// Percentile summary of one slice over the recorded window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceTelemetrySummary {
    /// Stable slice id.
    pub id: u32,
    /// Application class.
    pub kind: SliceKind,
    /// Recorded slots.
    pub slots: usize,
    /// Closed episodes.
    pub episodes: usize,
    /// Episodes that violated the SLA.
    pub violations: usize,
    /// Episodes in which the agent switched to the baseline.
    pub switched_episodes: usize,
    /// Slots the baseline policy served.
    pub baseline_slots: usize,
    /// Mean shaped reward over recorded slots.
    pub mean_reward: f64,
    /// Median per-slot cost.
    pub cost_p50: f64,
    /// 90th-percentile per-slot cost.
    pub cost_p90: f64,
    /// 99th-percentile per-slot cost.
    pub cost_p99: f64,
    /// Median utilization (percent).
    pub usage_p50: f64,
    /// 90th-percentile utilization (percent).
    pub usage_p90: f64,
    /// 99th-percentile utilization (percent).
    pub usage_p99: f64,
    /// λ after the last recorded slot.
    pub final_lambda: f64,
}

/// The complete telemetry artifact of one (possibly resumed) scenario run.
///
/// `Serialize`/`Deserialize` are hand-written (the vendored derive shim has
/// no `skip_serializing_if`): the `migrations` field is **omitted when
/// empty** — so single-cell traces, the committed goldens included, keep
/// their exact byte layout — and defaults to empty when absent, so traces
/// written before live migration existed still parse.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryTrace {
    /// Layout version ([`TRACE_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Scenario name.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// First recorded slot (0 for full runs, the checkpoint slot for
    /// resumed runs).
    pub start_slot: usize,
    /// Scheduled scenario length in slots.
    pub total_slots: usize,
    /// Per-slot records, in execution order.
    pub slots: Vec<SlotTelemetry>,
    /// Episode closures, in occurrence order.
    pub episodes: Vec<EpisodeTelemetry>,
    /// Live migrations touching this cell, in occurrence order (empty for
    /// single-cell runs).
    pub migrations: Vec<MigrationEvent>,
    /// Per-slice percentile summaries over the recorded window, in id order.
    pub summaries: Vec<SliceTelemetrySummary>,
}

impl serde::Serialize for TelemetryTrace {
    fn serialize_value(&self) -> serde::Value {
        let mut pairs = vec![
            (
                "format_version".to_string(),
                self.format_version.serialize_value(),
            ),
            ("scenario".to_string(), self.scenario.serialize_value()),
            ("seed".to_string(), self.seed.serialize_value()),
            ("start_slot".to_string(), self.start_slot.serialize_value()),
            (
                "total_slots".to_string(),
                self.total_slots.serialize_value(),
            ),
            ("slots".to_string(), self.slots.serialize_value()),
            ("episodes".to_string(), self.episodes.serialize_value()),
        ];
        if !self.migrations.is_empty() {
            pairs.push(("migrations".to_string(), self.migrations.serialize_value()));
        }
        pairs.push(("summaries".to_string(), self.summaries.serialize_value()));
        serde::Value::Obj(pairs)
    }
}

impl serde::Deserialize for TelemetryTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                serde::DeError::msg(format!("missing field `{name}` in TelemetryTrace"))
            })
        };
        Ok(Self {
            format_version: serde::Deserialize::from_value(field("format_version")?)?,
            scenario: serde::Deserialize::from_value(field("scenario")?)?,
            seed: serde::Deserialize::from_value(field("seed")?)?,
            start_slot: serde::Deserialize::from_value(field("start_slot")?)?,
            total_slots: serde::Deserialize::from_value(field("total_slots")?)?,
            slots: serde::Deserialize::from_value(field("slots")?)?,
            episodes: serde::Deserialize::from_value(field("episodes")?)?,
            migrations: match v.get("migrations") {
                Some(value) => serde::Deserialize::from_value(value)?,
                None => Vec::new(),
            },
            summaries: serde::Deserialize::from_value(field("summaries")?)?,
        })
    }
}

impl TelemetryTrace {
    /// Serializes to pretty JSON (the `TRACE_<scenario>.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Parses a trace, rejecting unknown layout versions before any other
    /// field is read ([`crate::from_versioned_json`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        crate::from_versioned_json(text, "trace", TRACE_FORMAT_VERSION)
    }

    /// Writes the trace to a file crash-safely (temp file + fsync + atomic
    /// rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        crate::fsio::atomic_write(path.as_ref(), &self.to_json())
            .map_err(|e| format!("cannot write trace: {e}"))
    }

    /// Reads and validates a trace file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read trace {}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }

    /// The slot and episode records from `slot` on — what a run resumed at
    /// `slot` must reproduce exactly.
    pub fn suffix_from(&self, slot: usize) -> (Vec<SlotTelemetry>, Vec<EpisodeTelemetry>) {
        (
            self.slots
                .iter()
                .filter(|s| s.slot >= slot)
                .cloned()
                .collect(),
            self.episodes
                .iter()
                .filter(|e| e.slot >= slot)
                .cloned()
                .collect(),
        )
    }
}

/// Records slot samples and episode ends during a scenario run.
///
/// Serializable so a long-running service can checkpoint a recorder
/// mid-scenario and resume it: the restored recorder continues appending
/// where the snapshot stopped, and the finalized trace covers the whole run
/// as if it had never been interrupted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryRecorder {
    scenario: String,
    seed: u64,
    start_slot: usize,
    total_slots: usize,
    slots: Vec<SlotTelemetry>,
    episodes: Vec<EpisodeTelemetry>,
}

impl TelemetryRecorder {
    /// Creates a recorder aligned with the engine's current position — slot
    /// 0 on a fresh engine, the checkpoint slot on a restored one.
    pub fn new(engine: &ScenarioEngine) -> Self {
        Self {
            scenario: engine.scenario().name.clone(),
            seed: engine.config().seed,
            start_slot: engine.current_slot(),
            total_slots: engine.scenario().total_slots,
            slots: Vec::new(),
            episodes: Vec::new(),
        }
    }

    /// The per-slot records accumulated so far, in execution order — the
    /// live view a service reads for windowed telemetry without finalizing.
    pub fn slots(&self) -> &[SlotTelemetry] {
        &self.slots
    }

    /// The episode closures accumulated so far, in occurrence order.
    pub fn episodes(&self) -> &[EpisodeTelemetry] {
        &self.episodes
    }

    /// Finalizes the recording into a trace with per-slice summaries and
    /// no migrations (a fleet fills those in from its own list).
    pub fn finalize(self) -> TelemetryTrace {
        // Every slice that appears anywhere in the window gets a summary —
        // including one whose only record is an episode end (e.g. a slice
        // torn down at the first slot after a checkpoint, before any
        // orchestration round of the resumed run).
        let mut ids: Vec<u32> = Vec::new();
        for slot in &self.slots {
            for s in &slot.slices {
                if !ids.contains(&s.id) {
                    ids.push(s.id);
                }
            }
        }
        for e in &self.episodes {
            if !ids.contains(&e.slice) {
                ids.push(e.slice);
            }
        }
        ids.sort_unstable();
        let summaries = ids
            .into_iter()
            .map(|id| {
                let mut kind = self
                    .episodes
                    .iter()
                    .find(|e| e.slice == id)
                    .map_or(SliceKind::Mar, |e| e.kind);
                let mut costs = Vec::new();
                let mut usages = Vec::new();
                let mut reward_sum = 0.0;
                let mut baseline_slots = 0usize;
                let mut final_lambda = 0.0;
                for slot in &self.slots {
                    for s in slot.slices.iter().filter(|s| s.id == id) {
                        kind = s.kind;
                        costs.push(s.cost);
                        usages.push(s.usage_percent);
                        reward_sum += s.reward;
                        if s.used_baseline {
                            baseline_slots += 1;
                        }
                        final_lambda = s.lambda;
                    }
                }
                let episodes: Vec<&EpisodeTelemetry> =
                    self.episodes.iter().filter(|e| e.slice == id).collect();
                SliceTelemetrySummary {
                    id,
                    kind,
                    slots: costs.len(),
                    episodes: episodes.len(),
                    violations: episodes.iter().filter(|e| e.violated).count(),
                    switched_episodes: episodes.iter().filter(|e| e.switched_to_baseline).count(),
                    baseline_slots,
                    mean_reward: if costs.is_empty() {
                        0.0
                    } else {
                        reward_sum / costs.len() as f64
                    },
                    cost_p50: percentile(&costs, 50.0),
                    cost_p90: percentile(&costs, 90.0),
                    cost_p99: percentile(&costs, 99.0),
                    usage_p50: percentile(&usages, 50.0),
                    usage_p90: percentile(&usages, 90.0),
                    usage_p99: percentile(&usages, 99.0),
                    final_lambda,
                }
            })
            .collect();
        TelemetryTrace {
            format_version: TRACE_FORMAT_VERSION,
            scenario: self.scenario,
            seed: self.seed,
            start_slot: self.start_slot,
            total_slots: self.total_slots,
            slots: self.slots,
            episodes: self.episodes,
            migrations: Vec::new(),
            summaries,
        }
    }
}

impl SlotObserver for TelemetryRecorder {
    fn on_slot(&mut self, samples: &[SlotSample]) {
        let Some(first) = samples.first() else {
            return;
        };
        self.slots.push(SlotTelemetry {
            slot: first.slot,
            slices: samples
                .iter()
                .map(|s| SliceSlotTelemetry {
                    id: s.slice,
                    kind: s.kind,
                    cost: s.kpi.cost,
                    reward: s.reward,
                    usage_percent: s.kpi.resource_usage_percent(),
                    performance_score: s.kpi.performance_score,
                    lambda: s.lambda,
                    used_baseline: s.used_baseline,
                })
                .collect(),
        });
    }

    fn on_episode_end(&mut self, event: &EpisodeEndEvent) {
        self.episodes.push(EpisodeTelemetry {
            slot: event.slot,
            slice: event.slice,
            kind: event.summary.kind,
            avg_cost: event.summary.avg_cost,
            avg_usage_percent: event.summary.avg_usage_percent,
            violated: event.summary.violated,
            switched_to_baseline: event.summary.switched_to_baseline,
        });
    }
}

/// Nearest-rank percentile of an unsorted series (0.0 for an empty one).
///
/// `q` is a percentile rank; a value outside `[0, 100]` is a caller bug but
/// telemetry summaries are a production path, so out-of-range ranks clamp
/// into `[0, 100]` identically in debug and release builds (an earlier
/// `debug_assert!` made the two profiles disagree — debug aborted where
/// release degraded). A NaN rank pins to the minimum (rank 0), which is the
/// value the release-mode clamp has always produced, so the degradation is
/// deterministic rather than an accident of `NaN as usize`. By the
/// nearest-rank convention `q = 0` maps to rank `⌈0⌉ = 0`, which this
/// implementation pins to the first order statistic — i.e. `q = 0` returns
/// the minimum, `q = 100` the maximum.
///
/// Public because the fleet aggregator computes its fleet-wide cost and
/// latency summaries with exactly these semantics — a fleet percentile must
/// equal the percentile of the concatenated per-cell samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 100.0) };
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("telemetry series contain no NaN"));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs a scenario from scratch with a telemetry recorder attached and
/// returns the trace plus the run's final [`ScenarioReport`].
pub fn record_scenario(
    scenario: onslicing_scenario::Scenario,
    config: ScenarioConfig,
) -> Result<(TelemetryTrace, ScenarioReport), String> {
    let mut engine = ScenarioEngine::new(scenario, config)?;
    let mut recorder = TelemetryRecorder::new(&engine);
    let report = engine.run_with_observer(&mut recorder);
    Ok((recorder.finalize(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_scenario::builtin;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_edge_ranks_are_the_order_statistics() {
        let v = vec![3.0, 1.0, 2.0];
        // q = 0 pins the first order statistic (the minimum) by the
        // documented nearest-rank convention; q = 100 is the maximum.
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        // A single sample is every percentile at once.
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
        assert_eq!(percentile(&[42.0], 100.0), 42.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
    }

    #[test]
    fn out_of_range_percentile_ranks_clamp_in_every_build_profile() {
        // The old `debug_assert!` made debug builds abort where release
        // builds clamped; the clamp is now the contract in both profiles.
        let v = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 150.0), 3.0, "q > 100 clamps to the max");
        assert_eq!(percentile(&v, -1.0), 1.0, "q < 0 clamps to the min");
        assert_eq!(percentile(&v, f64::INFINITY), 3.0);
        assert_eq!(percentile(&v, f64::NEG_INFINITY), 1.0);
    }

    #[test]
    fn nan_percentile_rank_degrades_to_the_minimum_deterministically() {
        // NaN survives `f64::clamp`; before the explicit guard it reached
        // `NaN as usize` and happened to select index 0 in release while
        // aborting in debug. The guard pins that historical release value.
        let v = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, f64::NAN), 1.0);
        assert_eq!(percentile(&[], f64::NAN), 0.0);
    }

    #[test]
    fn migration_events_round_trip_and_stay_out_of_migration_free_traces() {
        // Without migrations the field is absent — committed goldens keep
        // their byte layout.
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        assert!(trace.migrations.is_empty());
        assert!(!trace.to_json().contains("\"migrations\""));

        let engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        let mut trace = TelemetryRecorder::new(&engine).finalize();
        trace.migrations.push(MigrationEvent {
            slot: 16,
            slice: 2,
            kind: SliceKind::Rdc,
            arrived: false,
            peer_cell: 1,
            peer_slice: 4,
        });
        let json = trace.to_json();
        assert!(json.contains("\"migrations\""));
        let back = TelemetryTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        assert!(!back.migrations[0].arrived);
        assert_eq!(back.migrations[0].peer_cell, 1);
    }

    #[test]
    fn recorded_trace_covers_every_slot_and_episode() {
        let (trace, run) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        assert_eq!(trace.scenario, "steady");
        assert_eq!(trace.start_slot, 0);
        assert_eq!(trace.slots.len(), trace.total_slots);
        assert_eq!(trace.summaries.len(), 3);
        for (summary, report) in trace.summaries.iter().zip(&run.slices) {
            assert_eq!(summary.id, report.id);
            assert_eq!(summary.episodes, report.episodes);
            assert_eq!(summary.violations, report.violations);
            assert!(summary.cost_p50 <= summary.cost_p90);
            assert!(summary.cost_p90 <= summary.cost_p99);
        }
        let episode_count: usize = run.slices.iter().map(|s| s.episodes).sum();
        assert_eq!(trace.episodes.len(), episode_count);
    }

    #[test]
    fn trace_json_round_trips_exactly() {
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let json = trace.to_json();
        let back = TelemetryTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), json, "re-serialization must be stable");
    }

    #[test]
    fn repeated_runs_emit_byte_identical_traces() {
        let (a, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let (b, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn summaries_include_slices_seen_only_in_episode_events() {
        // A slice torn down by the first event after a checkpoint emits an
        // episode end without ever appearing in a slot record; its summary
        // must not vanish from the resumed-window trace.
        let engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        let mut rec = TelemetryRecorder::new(&engine);
        rec.on_episode_end(&onslicing_scenario::EpisodeEndEvent {
            slot: 3,
            slice: 7,
            summary: onslicing_core::SliceEpisodeSummary {
                kind: SliceKind::Hvs,
                avg_cost: 0.12,
                violated: true,
                avg_usage_percent: 31.0,
                switched_to_baseline: false,
            },
        });
        let trace = rec.finalize();
        assert_eq!(trace.summaries.len(), 1);
        let summary = &trace.summaries[0];
        assert_eq!(summary.id, 7);
        assert_eq!(summary.kind, SliceKind::Hvs);
        assert_eq!(summary.slots, 0);
        assert_eq!(summary.episodes, 1);
        assert_eq!(summary.violations, 1);
    }

    #[test]
    fn suffix_partitions_the_trace() {
        let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        let (slots, episodes) = trace.suffix_from(24);
        assert!(slots.iter().all(|s| s.slot >= 24));
        assert!(episodes.iter().all(|e| e.slot >= 24));
        assert_eq!(
            slots.len() + trace.slots.iter().filter(|s| s.slot < 24).count(),
            trace.slots.len()
        );
    }

    #[test]
    fn stale_trace_versions_fail_with_the_version_error_not_a_missing_field() {
        // A layout change usually removes or renames fields too: the loader
        // must name the version — the actionable message — before it looks
        // at any other field.
        let stale = r#"{"format_version":0,"scenario":"steady","seed":7}"#;
        assert_eq!(
            TelemetryTrace::from_json(stale).unwrap_err(),
            format!("trace format version 0 is not supported (expected {TRACE_FORMAT_VERSION})")
        );
        let err = TelemetryTrace::from_json(r#"{"scenario":"steady"}"#).unwrap_err();
        assert_eq!(err, "malformed trace: missing format_version stamp");
    }

    #[test]
    fn unknown_trace_versions_are_rejected() {
        let (mut trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
        trace.format_version = 42;
        assert!(TelemetryTrace::from_json(&trace.to_json())
            .unwrap_err()
            .contains("version 42"));
    }
}
