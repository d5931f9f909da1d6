//! Full-state scenario checkpoints.
//!
//! A [`Checkpoint`] is a layout version and a [`ScenarioEngine`] serialized
//! *between slots*, nothing else: the scenario, its seed and the next slot
//! are read off the engine, so no header can disagree with it. Everything
//! dynamic is inside the engine's own serialization: MLP/Gaussian/Bayesian weights,
//! the Adam moments of the two networks PPO keeps training (gradients and
//! other per-update scratch are not state), Lagrangian state, rollout buffers,
//! per-slice environment + traffic-trace cursors and RNG streams, domain
//! capacities/overrides, orchestrator slice membership and the run-loop
//! cursor (pending event index, transient restores, run counters). Nothing
//! in it reads a clock: one scenario and seed checkpointed at one slot
//! writes the same bytes in any process.
//!
//! The restore contract is exact: a checkpoint taken after slot `t` and
//! restored into a fresh process produces byte-identical telemetry for
//! slots `t..total_slots` (verified by `replay_check resume` in CI and the
//! property tests in `tests/checkpoint_replay.rs`).
//!
//! Loading goes through [`from_versioned_json`], shared with the telemetry
//! trace and the fleet crate's checkpoint and trace: the document is parsed
//! once and its `format_version` is checked before any other field is read.

use std::path::Path;

use serde::{Deserialize, Serialize};

use onslicing_scenario::{Scenario, ScenarioEngine};

use crate::fsio::atomic_write;

/// The one loader of every versioned document in the workspace — this
/// crate's [`Checkpoint`] and [`crate::TelemetryTrace`], the fleet crate's
/// checkpoint and trace: the text is parsed into a value tree **once**, the
/// `format_version` stamp is checked on that tree, and only then is the same
/// tree decoded into `T`. A file written by an older (or newer) layout
/// therefore fails with "`what` format version X is not supported", never
/// with whatever missing-field noise the structural decode would hit first.
pub fn from_versioned_json<T: Deserialize>(
    text: &str,
    what: &str,
    expected: u32,
) -> Result<T, String> {
    let malformed = |e: serde_json::Error| format!("malformed {what}: {e}");
    let value: serde::Value = serde_json::from_str(text).map_err(malformed)?;
    let version = value
        .get("format_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("malformed {what}: missing format_version stamp"))?;
    if version != u64::from(expected) {
        return Err(format!(
            "{what} format version {version} is not supported (expected {expected})"
        ));
    }
    T::from_value(&value).map_err(|e| malformed(e.into()))
}

/// Version stamp of the checkpoint JSON layout; bump on breaking changes so
/// stale files fail loudly instead of mis-restoring.
///
/// v2: the engine's `RunState` gained the `slot_cost_total` /
/// `slot_usage_weighted` accumulators and `ScenarioReport` the
/// `avg_slot_cost` / `avg_slot_usage_percent` fields, so v1 snapshots no
/// longer parse.
///
/// v3: the engine serializes its pending-admission reservation counter
/// (`unenforced_admissions`) — the elastic fleet admits and migrates
/// between slots, and a checkpoint taken at such a boundary must not drop
/// the capacity pledges — so v2 snapshots no longer parse.
///
/// v4: the Bayesian cost predictor samples pre-activations instead of
/// weights, drawing a different number of values from each agent's RNG per
/// slot. A v3 snapshot still parses, but resuming it would continue on a
/// different draw sequence than the binary that wrote it — a silent break
/// of the upgrade-invariance contract — so it is refused instead.
///
/// v5: the one `N(0, 1)` sampler of the agents is a ziggurat that spends a
/// value-dependent number of words per draw where Box–Muller spent two, so
/// a v4 snapshot would likewise resume onto a different stream; refused.
///
/// v6: layer scratch (gradients, the last weight draw) and the estimator's
/// optimiser are no longer part of the layout.
///
/// v7: the engine no longer carries a second copy of its admission tuning
/// (`engine.admission`); `engine.config.admission` is the only one.
///
/// v8: the header (`scenario`, `seed`, `slot`, `total_slots`) is gone, the
/// engine holds each of those facts; the four domain managers share one
/// slice registry instead of holding a copy each; a slice's episode
/// averages are a count and two running sums instead of two growing lists.
///
/// v9: the engine stores its inputs once and reads no clock (run counters
/// instead of a half-built report with its `wall_clock_ms`, no factory or
/// `baseline_buckets` copies); an agent's episode lists are running sums.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 9;

/// A versioned snapshot of a scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_FORMAT_VERSION`] at capture time).
    pub format_version: u32,
    /// The complete serialized deployment.
    engine: ScenarioEngine,
}

impl Checkpoint {
    /// Captures the engine's current state (call between slots — i.e. not
    /// from inside an observer callback).
    pub fn capture(engine: &ScenarioEngine) -> Self {
        Self {
            format_version: CHECKPOINT_FORMAT_VERSION,
            engine: engine.clone(),
        }
    }

    /// Next slot the restored engine will execute.
    pub fn slot(&self) -> usize {
        self.engine.current_slot()
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &Scenario {
        self.engine.scenario()
    }

    /// Consumes the checkpoint and returns the engine, ready to execute the
    /// remaining slots.
    pub fn restore(self) -> ScenarioEngine {
        self.engine
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses a checkpoint through [`from_versioned_json`]: a v2 file
    /// produces "format version 2 is not supported", not a missing-field
    /// error.
    ///
    /// [`Checkpoint::restore`] cannot fail, so what it relies on is checked
    /// here: every agent's learned state must fit together and the admission
    /// tuning must be one [`ScenarioEngine::new`] accepts
    /// ([`ScenarioEngine::validate`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let checkpoint: Self = from_versioned_json(text, "checkpoint", CHECKPOINT_FORMAT_VERSION)?;
        checkpoint
            .engine
            .validate()
            .map_err(|e| format!("checkpoint is inconsistent: {e}"))?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to a file crash-safely (temp file + fsync +
    /// atomic rename): a crash mid-save never leaves a torn file where the
    /// previous checkpoint was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        atomic_write(path.as_ref(), &self.to_json())
            .map_err(|e| format!("cannot write checkpoint: {e}"))
    }

    /// Reads and validates a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_scenario::{builtin, ScenarioConfig};

    #[test]
    fn capture_restore_round_trips_through_json() {
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(5, &mut ());
        let checkpoint = Checkpoint::capture(&engine);
        assert_eq!(checkpoint.scenario().name, "steady");
        assert_eq!(checkpoint.slot(), 5);
        let restored = Checkpoint::from_json(&checkpoint.to_json())
            .unwrap()
            .restore();
        assert_eq!(restored.current_slot(), 5);
        assert!(!restored.is_finished());
    }

    #[test]
    fn unknown_format_versions_are_rejected() {
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(1, &mut ());
        let mut checkpoint = Checkpoint::capture(&engine);
        checkpoint.format_version = 999;
        let err = Checkpoint::from_json(&checkpoint.to_json()).unwrap_err();
        assert!(err.contains("version 999"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(Checkpoint::from_json("{not json").is_err());
        assert!(Checkpoint::load("/no/such/checkpoint.json").is_err());
    }

    #[test]
    fn stale_format_versions_fail_with_the_version_error_not_a_parse_error() {
        // A stale file may be structurally incompatible (v2: fields have
        // come and gone) or parse fine but continue on the wrong RNG stream
        // (v3: written under the weight-sampling predictor, v4: under the
        // Box–Muller sampler) or carry state nothing reads (v5: layer
        // scratch, the estimator's optimiser; v6: a second copy of the
        // admission tuning; v7: a header restating the engine, four copies
        // of the slice registry; v8: a clock reading and a half-built
        // report); either way the loader must report the version mismatch
        // — the actionable message — before it looks at any other field.
        for version in [2, 3, 4, 5, 6, 7, 8] {
            let stale = format!(r#"{{"format_version":{version},"scenario":"steady","seed":7}}"#);
            assert_eq!(
                Checkpoint::from_json(&stale).unwrap_err(),
                format!("checkpoint format version {version} is not supported (expected 9)")
            );
        }
        // A document with no stamp at all is malformed, not "version 0".
        let err = Checkpoint::from_json(r#"{"scenario":"steady"}"#).unwrap_err();
        assert!(err.contains("missing format_version"), "{err}");
    }

    #[test]
    fn checkpoint_json_top_level_keys_are_pinned_in_order() {
        // The engine carries the scenario, the seed and the next slot; a
        // header restating any of them could only disagree with it.
        let engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        let value: serde::Value =
            serde_json::from_str(&Checkpoint::capture(&engine).to_json()).unwrap();
        let serde::Value::Obj(pairs) = value else {
            panic!("a checkpoint is a JSON object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["format_version", "engine"]);
    }

    #[test]
    fn a_scenario_checkpoint_is_a_pure_function_of_its_run() {
        // Two engines on one scenario and seed, stepped to the same
        // mid-episode slot, write the same bytes: nothing in the state
        // depends on the clock or on which process ran it.
        let at_slot = |slot| {
            let mut engine =
                ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
            engine.run_until(slot, &mut ());
            Checkpoint::capture(&engine).to_json()
        };
        let json = at_slot(5);
        assert_eq!(json, at_slot(5));
        for key in [
            "wall_clock_ms",
            "slice_slots_per_second",
            "baseline_buckets",
            "episode_costs",
            "episode_usages",
        ] {
            assert!(!json.contains(&format!("\"{key}\"")), "{key}");
        }
    }

    #[test]
    fn learned_state_whose_lengths_disagree_is_refused_at_load() {
        // `restore` cannot fail, so the load is where a bias one element
        // short of its layer's rows must be turned away, with both lengths.
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(2, &mut ());
        let json = Checkpoint::capture(&engine).to_json();
        let bias = json.find("\"bias\":[").unwrap() + "\"bias\":[".len();
        let second = bias + json[bias..].find(',').unwrap() + 1;
        let doctored = format!("{}{}", &json[..bias], &json[second..]);
        assert_eq!(
            Checkpoint::from_json(&doctored).unwrap_err(),
            "checkpoint is inconsistent: slice 0: policy dense layer 0 has 32 rows \
             and a bias of length 31"
        );
        assert!(Checkpoint::from_json(&json).is_ok());
    }

    #[test]
    fn admission_tuning_the_engine_would_refuse_is_refused_at_load() {
        // `ScenarioEngine::new` refuses a headroom outside [0, 1); a file
        // edited to carry one must not resume either.
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(2, &mut ());
        let json = Checkpoint::capture(&engine).to_json();
        let doctored = json.replacen("\"headroom\":0.0", "\"headroom\":1.5", 1);
        assert_ne!(doctored, json);
        assert_eq!(
            Checkpoint::from_json(&doctored).unwrap_err(),
            "checkpoint is inconsistent: admission tuning: headroom must be in [0, 1), got 1.5"
        );
    }

    #[test]
    fn truncated_documents_are_rejected_not_misparsed() {
        // A torn write that escaped the atomic-rename protocol is a prefix
        // of a valid document — different from arbitrary garbage, because
        // it starts with a good version stamp, so only the parse hitting the
        // cut can reject it.
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(3, &mut ());
        let full = Checkpoint::capture(&engine).to_json();
        for cut in [1, full.len() / 2, full.len() - 1] {
            assert!(
                Checkpoint::from_json(&full[..cut]).is_err(),
                "checkpoint cut at byte {cut} must be rejected"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let mut engine = ScenarioEngine::new(builtin::steady(), ScenarioConfig::default()).unwrap();
        engine.run_until(2, &mut ());
        let checkpoint = Checkpoint::capture(&engine);
        let dir = std::env::temp_dir().join(format!("onslicing-ckpt-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.slot(), checkpoint.slot());
        let temps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            temps.is_empty(),
            "save must not leave temp files: {temps:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
