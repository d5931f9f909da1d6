//! `config.json` parsing for the daemon.
//!
//! The file is one JSON object, read with the control protocol's own field
//! reader: `admission`, `balancer` and `checkpoint` are nested objects,
//! every key is optional except `scenario`, and every key the file mentions
//! must be one the daemon knows — a misspelled `cadence_slots` or a key
//! given twice is a startup error, not a silently ignored line.

use std::path::{Path, PathBuf};

use serde::Value;

use onslicing_fleet::{BalancerConfig, ElasticFleetConfig};
use onslicing_scenario::{AdmissionConfig, ScenarioConfig};

use crate::protocol::Fields;

/// Checkpointing cadence and retention of the daemon's state directory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// A checkpoint is written whenever the global slot reaches a multiple
    /// of this cadence (and at shutdown and completion regardless).
    pub cadence_slots: usize,
    /// Completed checkpoints kept in the state directory; older ones are
    /// garbage-collected after every successful write.
    pub retain: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            cadence_slots: 8,
            retain: 4,
        }
    }
}

/// The daemon configuration, as loaded from `config.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetdConfig {
    /// Built-in fleet scenario name ([`onslicing_scenario::fleet_by_name`]).
    pub scenario: String,
    /// Fleet shape and tuning (cells, master seed, balancer).
    pub fleet: ElasticFleetConfig,
    /// Where checkpoints, the final trace, the lock file and the request
    /// log live. Created on startup if missing.
    pub state_dir: PathBuf,
    /// Control-plane Unix socket path; defaults to `control.sock` inside
    /// the state directory.
    pub control_socket: PathBuf,
    /// Start with the clock paused: the fleet advances only on `step`
    /// requests until a `resume` arrives. This is what makes control-plane
    /// drills deterministic — requests land at scripted slots instead of
    /// wherever the wall clock happened to be.
    pub start_paused: bool,
    /// Slots advanced per main-loop iteration while running unpaused; the
    /// control plane is polled between windows, so this bounds request
    /// latency in slots.
    pub window_slots: usize,
    /// Checkpoint cadence and retention.
    pub checkpoint: CheckpointPolicy,
}

impl FleetdConfig {
    /// Parses a config file's text. `config_dir` anchors relative paths
    /// (the directory the file lives in, conventionally); an absolute one
    /// stands as written.
    pub fn from_json(text: &str, config_dir: &Path) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("malformed config: {e}"))?;
        let mut root = Fields::new(value, "the config")?;
        let scenario = root
            .str("scenario")?
            .ok_or_else(|| "missing required key `scenario`".to_string())?;
        let cells = root.u64("cells")?.map_or(2, |v| v as usize);
        let seed = root.u64("seed")?.unwrap_or(0);
        let state_dir = match root.str("state_dir")? {
            Some(s) => config_dir.join(s),
            None => config_dir.join("fleetd-state"),
        };
        let control_socket = match root.str("control_socket")? {
            Some(s) => config_dir.join(s),
            None => state_dir.join("control.sock"),
        };
        let start_paused = root.bool("start_paused")?.unwrap_or(false);
        let window_slots = root.u64("window_slots")?.map_or(1, |v| v as usize);
        if window_slots == 0 {
            return Err("`window_slots` must be at least 1".to_string());
        }

        // Both policies parse here, so a misspelled name is a startup error
        // naming the known set.
        let mut section = root.object("admission")?;
        let d = AdmissionConfig::default();
        let admission = AdmissionConfig {
            policy: section.str("policy")?.map_or(Ok(d.policy), |n| n.parse())?,
            ..d
        };
        section.finish()?;

        let mut section = root.object("balancer")?;
        let d = BalancerConfig::default();
        let balancer = BalancerConfig {
            policy: section.str("policy")?.map_or(Ok(d.policy), |n| n.parse())?,
            enabled: section.bool("enabled")?.unwrap_or(d.enabled),
            cadence_slots: section
                .u64("cadence_slots")?
                .map_or(d.cadence_slots, |v| v as usize),
            max_migrations_per_round: section
                .u64("max_migrations_per_round")?
                .map_or(d.max_migrations_per_round, |v| v as usize),
            min_load_gap: section.f64("min_load_gap")?.unwrap_or(d.min_load_gap),
            violation_weight: section
                .f64("violation_weight")?
                .unwrap_or(d.violation_weight),
            min_slices_per_cell: section
                .u64("min_slices_per_cell")?
                .map_or(d.min_slices_per_cell, |v| v as usize),
        };
        section.finish()?;

        let mut section = root.object("checkpoint")?;
        let d = CheckpointPolicy::default();
        let checkpoint = CheckpointPolicy {
            cadence_slots: section
                .u64("cadence_slots")?
                .map_or(d.cadence_slots, |v| v as usize),
            retain: section.u64("retain")?.map_or(d.retain, |v| v as usize),
        };
        section.finish()?;
        root.finish()?;
        if checkpoint.cadence_slots == 0 {
            return Err("`checkpoint.cadence_slots` must be at least 1".to_string());
        }
        if checkpoint.retain == 0 {
            return Err("`checkpoint.retain` must be at least 1".to_string());
        }

        Ok(Self {
            scenario,
            fleet: ElasticFleetConfig {
                cells,
                base: ScenarioConfig {
                    seed,
                    admission,
                    ..ScenarioConfig::default()
                },
                balancer,
            },
            state_dir,
            control_socket,
            start_paused,
            window_slots,
            checkpoint,
        })
    }

    /// Reads and parses a config file; relative paths inside it are
    /// anchored at the file's directory.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read config {}: {e}", path.display()))?;
        let dir = path.parent().unwrap_or(Path::new("."));
        Self::from_json(&text, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_fleet::BalancePolicy;
    use onslicing_scenario::AdmissionPolicy;

    #[test]
    fn full_config_parses_with_every_override() {
        let text = r#"{
            "scenario": "hotspot-shift",
            "cells": 3,
            "seed": 42,
            "state_dir": "run/state",
            "control_socket": "/tmp/fleetd.sock",
            "start_paused": true,
            "window_slots": 2,
            "admission": { "policy": "cautious" },
            "balancer": {
                "enabled": true,
                "policy": "predictive",
                "cadence_slots": 6,
                "max_migrations_per_round": 1,
                "min_load_gap": 0.5,
                "violation_weight": 0.25,
                "min_slices_per_cell": 2
            },
            "checkpoint": { "cadence_slots": 4, "retain": 2 }
        }"#;
        let config = FleetdConfig::from_json(text, Path::new("/etc/fleetd")).unwrap();
        assert_eq!(config.scenario, "hotspot-shift");
        assert_eq!(config.fleet.cells, 3);
        assert_eq!(config.fleet.base.seed, 42);
        assert_eq!(config.state_dir, Path::new("/etc/fleetd/run/state"));
        assert_eq!(config.control_socket, Path::new("/tmp/fleetd.sock"));
        assert!(config.start_paused);
        assert_eq!(config.window_slots, 2);
        assert_eq!(
            config.fleet.base.admission.policy,
            AdmissionPolicy::Cautious
        );
        assert_eq!(
            config.fleet.balancer,
            BalancerConfig {
                enabled: true,
                cadence_slots: 6,
                max_migrations_per_round: 1,
                min_load_gap: 0.5,
                violation_weight: 0.25,
                min_slices_per_cell: 2,
                policy: BalancePolicy::Predictive,
            }
        );
        assert_eq!(config.checkpoint.cadence_slots, 4);
        assert_eq!(config.checkpoint.retain, 2);
    }

    #[test]
    fn defaults_fill_everything_but_the_scenario() {
        let config =
            FleetdConfig::from_json(r#"{"scenario": "cell-outage"}"#, Path::new("/srv")).unwrap();
        assert_eq!(config.fleet.cells, 2);
        assert_eq!(config.fleet.base.seed, 0);
        assert_eq!(config.state_dir, Path::new("/srv/fleetd-state"));
        assert_eq!(
            config.control_socket,
            Path::new("/srv/fleetd-state/control.sock")
        );
        assert!(!config.start_paused);
        assert_eq!(config.window_slots, 1);
        assert_eq!(config.checkpoint, CheckpointPolicy::default());
        assert_eq!(config.fleet.balancer, BalancerConfig::default());
        assert_eq!(config.fleet.base.admission, AdmissionConfig::default());
    }

    #[test]
    fn typos_and_malformed_lines_are_startup_errors() {
        for (text, expected) in [
            ("{}", "missing required key `scenario`"),
            (
                r#"{"scenario": "x", "celsl": 2}"#,
                "unknown key `celsl` in the config",
            ),
            (
                r#"{"scenario": "x", "balancer": {"cadence": 3}}"#,
                "unknown key `cadence` in `balancer`",
            ),
            (
                r#"{"scenario": "x", "checkpoint": {"retain": 0}}"#,
                "`checkpoint.retain` must be at least 1",
            ),
            (
                r#"{"scenario": "x", "balancer": {"policy": "fastest"}}"#,
                "unknown balance policy `fastest`",
            ),
            (
                r#"{"scenario": "x", "admission": {"policy": "open"}}"#,
                "unknown admission policy `open`",
            ),
            (
                r#"{"scenario": "x", "weird": {"k": 1}}"#,
                "unknown key `weird` in the config",
            ),
            (
                r#"{"scenario": "x", "cells": 2, "cells": 3}"#,
                "duplicate key `cells` in the config",
            ),
            (
                r#"{"scenario": "x", "checkpoint": {"retain": 2, "retain": 3}}"#,
                "duplicate key `retain` in `checkpoint`",
            ),
            (
                r#"{"scenario": "x", "balancer": 3}"#,
                "`balancer` must be an object",
            ),
            (
                r#"{"scenario": "x", "cells": -2}"#,
                "`cells` must be a non-negative integer",
            ),
            (r#"{"scenario": 7}"#, "`scenario` must be a string"),
            (r#"["scenario"]"#, "the config must be a JSON object"),
            ("scenario = \"x\"\ncells = 2\n", "malformed config"),
        ] {
            let err = FleetdConfig::from_json(text, Path::new(".")).unwrap_err();
            assert!(err.contains(expected), "{text}: {err}");
        }
    }
}
