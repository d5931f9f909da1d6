//! `config.toml` parsing for the daemon.
//!
//! The registry is unreachable from this build environment, so there is no
//! `toml` crate to lean on; [`parse_toml`] implements the small subset the
//! daemon config actually uses — `#` comments, `[section]` headers and
//! scalar `key = value` pairs (strings, booleans, integers, floats) — and
//! rejects everything else loudly rather than guessing. [`FleetdConfig`]
//! layers defaults and typo detection on top: every key the file mentions
//! must be one the daemon knows, so a misspelled `cadence_slots` is a
//! startup error, not a silently ignored line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use onslicing_fleet::{BalancerConfig, ElasticFleetConfig};
use onslicing_scenario::{AdmissionConfig, ScenarioConfig};

/// One scalar TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A double-quoted string (no escapes beyond `\"` and `\\`).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
}

/// Parsed TOML subset: section name (empty for the root) → key → value.
pub type TomlTable = BTreeMap<String, BTreeMap<String, TomlValue>>;

/// Parses the TOML subset described in the module docs. Duplicate keys in
/// one section, bare keys without `=`, arrays, inline tables and dotted
/// keys are all errors.
pub fn parse_toml(text: &str) -> Result<TomlTable, String> {
    let mut table = TomlTable::new();
    table.insert(String::new(), BTreeMap::new());
    let mut section = String::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: unterminated section header"))?
                .trim();
            if name.is_empty() || name.contains(['[', ']', '.']) {
                return Err(format!("line {line_no}: invalid section name `{name}`"));
            }
            section = name.to_string();
            table.entry(section.clone()).or_default();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty() || key.contains(['.', ' ', '\t', '"']) {
            return Err(format!("line {line_no}: invalid key `{key}`"));
        }
        let value = parse_value(value.trim()).map_err(|e| format!("line {line_no}: {e}"))?;
        // `entry` rather than an "always present" unwrap: the daemon
        // contract bans panics outside tests, and the entry API costs
        // nothing here (the section was inserted when its header parsed).
        let entries = table.entry(section.clone()).or_default();
        if entries.insert(key.to_string(), value).is_some() {
            return Err(format!("line {line_no}: duplicate key `{key}`"));
        }
    }
    Ok(table)
}

/// Strips a `#` comment, honoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if let Some(rest) = text.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{text}`"))?;
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                return Err(format!("stray quote inside string `{text}`"));
            }
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(format!("unsupported escape `\\{}`", other.unwrap_or(' '))),
            }
        }
        return Ok(TomlValue::Str(out));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(format!(
        "unsupported value `{text}` (expected a string, boolean, integer or float)"
    ))
}

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

/// The daemon configuration, as loaded from `config.toml`.
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
    /// (the directory the file lives in, conventionally).
    pub fn from_toml(text: &str, config_dir: &Path) -> Result<Self, String> {
        let mut table = parse_toml(text)?;
        let mut root = table.remove("").unwrap_or_default();
        let mut admission_section = table.remove("admission").unwrap_or_default();
        let mut balancer_section = table.remove("balancer").unwrap_or_default();
        let mut checkpoint_section = table.remove("checkpoint").unwrap_or_default();
        if let Some(section) = table.keys().next() {
            return Err(format!(
                "unknown section `[{section}]` (expected [admission], [balancer] or [checkpoint])"
            ));
        }

        let scenario = match root.remove("scenario") {
            Some(TomlValue::Str(s)) => s,
            Some(_) => return Err("`scenario` must be a string".to_string()),
            None => return Err("missing required key `scenario`".to_string()),
        };
        let cells = take_usize(&mut root, "cells")?.unwrap_or(2);
        let seed = match take_usize(&mut root, "seed")? {
            Some(s) => s as u64,
            None => 0,
        };
        let state_dir = match root.remove("state_dir") {
            Some(TomlValue::Str(s)) => anchor(config_dir, &s),
            Some(_) => return Err("`state_dir` must be a string".to_string()),
            None => config_dir.join("fleetd-state"),
        };
        let control_socket = match root.remove("control_socket") {
            Some(TomlValue::Str(s)) => anchor(config_dir, &s),
            Some(_) => return Err("`control_socket` must be a string".to_string()),
            None => state_dir.join("control.sock"),
        };
        let start_paused = take_bool(&mut root, "start_paused")?.unwrap_or(false);
        let window_slots = take_usize(&mut root, "window_slots")?.unwrap_or(1);
        if window_slots == 0 {
            return Err("`window_slots` must be at least 1".to_string());
        }
        reject_unknown(&root, "the top level")?;

        // Both policies parse here, so a misspelled name is a startup error
        // naming the known set.
        let mut admission = AdmissionConfig::default();
        if let Some(name) = take_str(&mut admission_section, "policy")? {
            admission.policy = name.parse()?;
        }
        reject_unknown(&admission_section, "[admission]")?;

        let mut balancer = BalancerConfig::default();
        if let Some(name) = take_str(&mut balancer_section, "policy")? {
            balancer.policy = name.parse()?;
        }
        if let Some(enabled) = take_bool(&mut balancer_section, "enabled")? {
            balancer.enabled = enabled;
        }
        if let Some(v) = take_usize(&mut balancer_section, "cadence_slots")? {
            balancer.cadence_slots = v;
        }
        if let Some(v) = take_usize(&mut balancer_section, "max_migrations_per_round")? {
            balancer.max_migrations_per_round = v;
        }
        if let Some(v) = take_f64(&mut balancer_section, "min_load_gap")? {
            balancer.min_load_gap = v;
        }
        if let Some(v) = take_f64(&mut balancer_section, "violation_weight")? {
            balancer.violation_weight = v;
        }
        if let Some(v) = take_usize(&mut balancer_section, "min_slices_per_cell")? {
            balancer.min_slices_per_cell = v;
        }
        reject_unknown(&balancer_section, "[balancer]")?;

        let mut checkpoint = CheckpointPolicy::default();
        if let Some(v) = take_usize(&mut checkpoint_section, "cadence_slots")? {
            checkpoint.cadence_slots = v;
        }
        if let Some(v) = take_usize(&mut checkpoint_section, "retain")? {
            checkpoint.retain = v;
        }
        reject_unknown(&checkpoint_section, "[checkpoint]")?;
        if checkpoint.cadence_slots == 0 {
            return Err("`[checkpoint] cadence_slots` must be at least 1".to_string());
        }
        if checkpoint.retain == 0 {
            return Err("`[checkpoint] retain` must be at least 1".to_string());
        }

        let fleet = ElasticFleetConfig {
            cells,
            base: ScenarioConfig {
                seed,
                admission,
                ..ScenarioConfig::default()
            },
            balancer,
        };
        Ok(Self {
            scenario,
            fleet,
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
        Self::from_toml(&text, dir)
    }
}

fn anchor(config_dir: &Path, path: &str) -> PathBuf {
    let p = PathBuf::from(path);
    if p.is_absolute() {
        p
    } else {
        config_dir.join(p)
    }
}

fn take_usize(
    section: &mut BTreeMap<String, TomlValue>,
    key: &str,
) -> Result<Option<usize>, String> {
    match section.remove(key) {
        None => Ok(None),
        Some(TomlValue::Int(i)) if i >= 0 => Ok(Some(i as usize)),
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

fn take_bool(section: &mut BTreeMap<String, TomlValue>, key: &str) -> Result<Option<bool>, String> {
    match section.remove(key) {
        None => Ok(None),
        Some(TomlValue::Bool(b)) => Ok(Some(b)),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn take_str(
    section: &mut BTreeMap<String, TomlValue>,
    key: &str,
) -> Result<Option<String>, String> {
    match section.remove(key) {
        None => Ok(None),
        Some(TomlValue::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn take_f64(section: &mut BTreeMap<String, TomlValue>, key: &str) -> Result<Option<f64>, String> {
    match section.remove(key) {
        None => Ok(None),
        Some(TomlValue::Float(f)) => Ok(Some(f)),
        Some(TomlValue::Int(i)) => Ok(Some(i as f64)),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

fn reject_unknown(section: &BTreeMap<String, TomlValue>, what: &str) -> Result<(), String> {
    if let Some(key) = section.keys().next() {
        return Err(format!("unknown key `{key}` in {what}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_fleet::BalancePolicy;
    use onslicing_scenario::AdmissionPolicy;

    #[test]
    fn full_config_parses_with_every_override() {
        let text = r#"
# A fleet of three cells, checkpointing every 4 slots.
scenario = "hotspot-shift"
cells = 3
seed = 42
state_dir = "run/state"   # relative to the config file
control_socket = "/tmp/fleetd.sock"
start_paused = true
window_slots = 2

[admission]
policy = "cautious"

[balancer]
enabled = true
policy = "predictive"
cadence_slots = 6
max_migrations_per_round = 1
min_load_gap = 0.5
violation_weight = 0.25
min_slices_per_cell = 2

[checkpoint]
cadence_slots = 4
retain = 2
"#;
        let config = FleetdConfig::from_toml(text, Path::new("/etc/fleetd")).unwrap();
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
        assert_eq!(config.fleet.balancer.policy, BalancePolicy::Predictive);
        assert_eq!(config.fleet.balancer.cadence_slots, 6);
        assert_eq!(config.fleet.balancer.min_load_gap, 0.5);
        assert_eq!(config.fleet.balancer.min_slices_per_cell, 2);
        assert_eq!(config.checkpoint.cadence_slots, 4);
        assert_eq!(config.checkpoint.retain, 2);
    }

    #[test]
    fn defaults_fill_everything_but_the_scenario() {
        let config =
            FleetdConfig::from_toml("scenario = \"cell-outage\"", Path::new("/srv")).unwrap();
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
    }

    #[test]
    fn typos_and_malformed_lines_are_startup_errors() {
        let dir = Path::new(".");
        assert!(FleetdConfig::from_toml("", dir)
            .unwrap_err()
            .contains("missing required key `scenario`"));
        assert!(FleetdConfig::from_toml("scenario = \"x\"\ncelsl = 2", dir)
            .unwrap_err()
            .contains("unknown key `celsl`"));
        assert!(
            FleetdConfig::from_toml("scenario = \"x\"\n[balancer]\ncadence = 3", dir)
                .unwrap_err()
                .contains("unknown key `cadence` in [balancer]")
        );
        assert!(
            FleetdConfig::from_toml("scenario = \"x\"\n[checkpoint]\nretain = 0", dir)
                .unwrap_err()
                .contains("retain")
        );
        assert!(
            FleetdConfig::from_toml("scenario = \"x\"\nbroken line", dir)
                .unwrap_err()
                .contains("expected `key = value`")
        );
        let err =
            FleetdConfig::from_toml("scenario = \"x\"\n[balancer]\npolicy = \"fastest\"", dir)
                .unwrap_err();
        assert!(err.contains("unknown balance policy `fastest`"), "{err}");
        let err = FleetdConfig::from_toml("scenario = \"x\"\n[admission]\npolicy = \"open\"", dir)
            .unwrap_err();
        assert!(err.contains("unknown admission policy `open`"), "{err}");
        assert!(
            FleetdConfig::from_toml("scenario = \"x\"\n[weird]\nk = 1", dir)
                .unwrap_err()
                .contains("unknown section `[weird]`")
        );
    }

    #[test]
    fn toml_subset_handles_comments_strings_and_duplicates() {
        let table = parse_toml("a = \"quoted # not a comment\" # real comment\nb = -3\n").unwrap();
        assert_eq!(
            table[""]["a"],
            TomlValue::Str("quoted # not a comment".to_string())
        );
        assert_eq!(table[""]["b"], TomlValue::Int(-3));
        assert!(parse_toml("a = 1\na = 2")
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse_toml("a = [1, 2]")
            .unwrap_err()
            .contains("unsupported value"));
        assert!(parse_toml("[open\na=1")
            .unwrap_err()
            .contains("unterminated section"));
    }
}
