//! The control-plane wire protocol: line-delimited JSON over the daemon's
//! Unix socket.
//!
//! Every request is one JSON object on one line with an `"op"` field;
//! every response is one JSON object on one line with an `"ok"` boolean —
//! `true` plus op-specific fields, or `false` plus an `"error"` string.
//! Parsing is hand-rolled over [`serde::Value`] rather than derived:
//! derived deserialization in the vendored framework requires every field
//! to be present, and a protocol where clients must spell out `null` for
//! every optional knob is a protocol nobody gets right over `nc`. The
//! hand-rolled reader, `Fields`, also reads the daemon's `config.json`.

use serde::Value;

use onslicing_scenario::SliceSpec;
use onslicing_slices::SliceKind;

/// Default `telemetry` window when the request does not name one.
pub const DEFAULT_TELEMETRY_WINDOW: usize = 16;

/// A parsed control request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Daemon and fleet liveness snapshot.
    Status,
    /// Windowed fleet telemetry report over the last `window` slots.
    Telemetry {
        /// Slots of history to aggregate.
        window: usize,
    },
    /// Fleet-level admission of a new slice at the current boundary.
    Admit {
        /// The requested slice.
        spec: SliceSpec,
    },
    /// Tear down one slice of one cell at the current boundary.
    Teardown {
        /// Hosting cell.
        cell: u32,
        /// Cell-local slice id.
        slice: u32,
    },
    /// Renegotiate one slice's SLA cost threshold at the current boundary.
    Renegotiate {
        /// Hosting cell.
        cell: u32,
        /// Cell-local slice id.
        slice: u32,
        /// The new `C_max`.
        cost_threshold: f64,
    },
    /// Force a checkpoint now.
    Checkpoint,
    /// Stop the clock: the fleet advances only via `step` until `resume`.
    Pause,
    /// Restart the clock.
    Resume,
    /// Advance the fleet to a specific slot (clamped to the scenario end)
    /// and reply once it is reached — the deterministic drill primitive.
    Step {
        /// Target global slot.
        to_slot: usize,
    },
    /// Graceful shutdown: final checkpoint, then exit.
    Shutdown,
}

impl Request {
    /// Parses one request line. Every key must be one the verb reads: a
    /// typo or a repeated key is refused by name, never ignored, and an
    /// `admit` spec is validated here so a bad one is answered, not run.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("malformed request: {e}"))?;
        let mut fields = Fields::new(value, "the request")?;
        let op = fields
            .str("op")?
            .ok_or_else(|| "request needs a string `op` field".to_string())?;
        let mut id = |key: &str| -> Result<u32, String> {
            fields
                .u64(key)?
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("request needs a non-negative integer `{key}` field"))
        };
        let request = match op.as_str() {
            "status" => Request::Status,
            "telemetry" => Request::Telemetry {
                window: match fields.u64("window")? {
                    None => DEFAULT_TELEMETRY_WINDOW,
                    Some(0) => return Err("`window` must be a positive integer".to_string()),
                    Some(w) => w as usize,
                },
            },
            "admit" => {
                let kind: SliceKind = fields
                    .str("kind")?
                    .ok_or_else(|| "admit needs a string `kind` field".to_string())?
                    .parse()?;
                let spec = SliceSpec {
                    kind,
                    peak_rate: fields.f64("peak_rate")?,
                    cost_threshold: fields.f64("cost_threshold")?,
                };
                spec.validate()?;
                Request::Admit { spec }
            }
            "teardown" => Request::Teardown {
                cell: id("cell")?,
                slice: id("slice")?,
            },
            "renegotiate" => Request::Renegotiate {
                cell: id("cell")?,
                slice: id("slice")?,
                cost_threshold: fields
                    .f64("cost_threshold")?
                    .ok_or_else(|| "renegotiate needs a numeric `cost_threshold`".to_string())?,
            },
            "checkpoint" => Request::Checkpoint,
            "pause" => Request::Pause,
            "resume" => Request::Resume,
            "step" => Request::Step {
                to_slot: fields
                    .u64("to_slot")?
                    .ok_or_else(|| "step needs a non-negative integer `to_slot`".to_string())?
                    as usize,
            },
            "shutdown" => Request::Shutdown,
            other => {
                return Err(format!(
                    "unknown op `{other}` (expected one of: status, telemetry, admit, teardown, \
                     renegotiate, checkpoint, pause, resume, step, shutdown)"
                ))
            }
        };
        fields.finish()?;
        Ok(request)
    }
}

/// The one reader of a JSON object's fields, for control requests and the
/// config file alike. Each taker removes its key and checks its type; a
/// `null` reads as absent. [`Fields::finish`] then refuses the first key
/// nobody took, so a misspelled key is an error naming it, not a default
/// silently applied.
pub(crate) struct Fields {
    pairs: Vec<(String, Value)>,
    /// Names the object in errors: `the request`, `the config`, `` `balancer` ``.
    what: String,
}

impl Fields {
    /// Opens an object, refusing a non-object and a key that appears twice
    /// (the parser keeps both, and which one wins would be a guess).
    pub(crate) fn new(value: Value, what: &str) -> Result<Self, String> {
        let Value::Obj(pairs) = value else {
            return Err(format!("{what} must be a JSON object"));
        };
        for (i, (key, _)) in pairs.iter().enumerate() {
            if pairs[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate key `{key}` in {what}"));
            }
        }
        Ok(Self {
            pairs,
            what: what.to_string(),
        })
    }

    /// Removes `key`, converting its value with `read`; a value `read`
    /// refuses is an error naming the key and the `kind` it must be.
    fn take<T>(
        &mut self,
        key: &str,
        kind: &str,
        read: impl FnOnce(Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(i) = self.pairs.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        match self.pairs.remove(i).1 {
            Value::Null => Ok(None),
            v => read(v)
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be {kind}")),
        }
    }

    pub(crate) fn str(&mut self, key: &str) -> Result<Option<String>, String> {
        self.take(key, "a string", |v| match v {
            Value::Str(s) => Some(s),
            _ => None,
        })
    }

    pub(crate) fn bool(&mut self, key: &str) -> Result<Option<bool>, String> {
        self.take(key, "a boolean", |v| v.as_bool())
    }

    pub(crate) fn u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.take(key, "a non-negative integer", |v| v.as_u64())
    }

    pub(crate) fn f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.take(key, "a number", |v| v.as_f64())
    }

    /// A nested section; an absent one reads as empty.
    pub(crate) fn object(&mut self, key: &str) -> Result<Fields, String> {
        let what = format!("`{key}`");
        let value = self.take(key, "an object", |v| match v {
            Value::Obj(_) => Some(v),
            _ => None,
        })?;
        Fields::new(value.unwrap_or(Value::Obj(Vec::new())), &what)
    }

    /// Refuses the first key no taker asked for.
    pub(crate) fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            Some((key, _)) => Err(format!("unknown key `{key}` in {}", self.what)),
            None => Ok(()),
        }
    }
}

/// The response of last resort: emitted if serializing a real response
/// ever fails. Static, so building it cannot itself fail — a daemon must
/// answer every request with *something* rather than panic.
pub const FALLBACK_ERROR_RESPONSE: &str =
    "{\"ok\":false,\"error\":\"internal: response serialization failed\"}";

/// Builds a success response line: `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("ok".to_string(), Value::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    serde_json::to_string(&Value::Obj(pairs))
        .unwrap_or_else(|_| FALLBACK_ERROR_RESPONSE.to_string())
}

/// Builds an error response line: `{"ok":false,"error":...}`.
pub fn error_response(message: &str) -> String {
    serde_json::to_string(&Value::Obj(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ]))
    .unwrap_or_else(|_| FALLBACK_ERROR_RESPONSE.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_verb_parses_with_minimal_and_full_fields() {
        assert_eq!(
            Request::parse("{\"op\":\"status\"}").unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::parse("{\"op\":\"telemetry\"}").unwrap(),
            Request::Telemetry {
                window: DEFAULT_TELEMETRY_WINDOW
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"telemetry\",\"window\":4}").unwrap(),
            Request::Telemetry { window: 4 }
        );
        let admit = Request::parse("{\"op\":\"admit\",\"kind\":\"hvs\"}").unwrap();
        assert_eq!(
            admit,
            Request::Admit {
                spec: SliceSpec::new(SliceKind::Hvs)
            }
        );
        let admit = Request::parse(
            "{\"op\":\"admit\",\"kind\":\"MAR\",\"peak_rate\":3.5,\"cost_threshold\":0.08}",
        )
        .unwrap();
        assert_eq!(
            admit,
            Request::Admit {
                spec: SliceSpec::new(SliceKind::Mar)
                    .with_peak_rate(3.5)
                    .with_cost_threshold(0.08)
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"teardown\",\"cell\":1,\"slice\":3}").unwrap(),
            Request::Teardown { cell: 1, slice: 3 }
        );
        assert_eq!(
            Request::parse(
                "{\"op\":\"renegotiate\",\"cell\":0,\"slice\":2,\"cost_threshold\":0.1}"
            )
            .unwrap(),
            Request::Renegotiate {
                cell: 0,
                slice: 2,
                cost_threshold: 0.1
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"step\",\"to_slot\":24}").unwrap(),
            Request::Step { to_slot: 24 }
        );
        for (line, expected) in [
            ("{\"op\":\"checkpoint\"}", Request::Checkpoint),
            ("{\"op\":\"pause\"}", Request::Pause),
            ("{\"op\":\"resume\"}", Request::Resume),
            ("{\"op\":\"shutdown\"}", Request::Shutdown),
        ] {
            assert_eq!(Request::parse(line).unwrap(), expected);
        }
    }

    #[test]
    fn malformed_requests_get_actionable_errors() {
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("malformed"));
        assert!(Request::parse("{}").unwrap_err().contains("`op`"));
        assert!(Request::parse("{\"op\":\"fly\"}")
            .unwrap_err()
            .contains("unknown op `fly`"));
        assert!(Request::parse("{\"op\":\"admit\"}")
            .unwrap_err()
            .contains("`kind`"));
        assert!(Request::parse("{\"op\":\"admit\",\"kind\":\"xxl\"}")
            .unwrap_err()
            .contains("unknown slice kind"));
        assert!(Request::parse("{\"op\":\"teardown\",\"cell\":0}")
            .unwrap_err()
            .contains("`slice`"));
        assert!(
            Request::parse("{\"op\":\"renegotiate\",\"cell\":0,\"slice\":1}")
                .unwrap_err()
                .contains("cost_threshold")
        );
        assert!(Request::parse("{\"op\":\"telemetry\",\"window\":0}")
            .unwrap_err()
            .contains("positive"));
        assert!(Request::parse("{\"op\":\"step\"}")
            .unwrap_err()
            .contains("to_slot"));
        for (line, expected) in [
            // A spec the admission path would panic on is refused here.
            (
                r#"{"op":"admit","kind":"mar","peak_rate":-5}"#,
                "peak_rate must be positive and finite, got -5",
            ),
            (
                r#"{"op":"admit","kind":"mar","peak_rate":1e400}"#,
                "peak_rate must be positive and finite, got inf",
            ),
            (
                r#"{"op":"admit","kind":"mar","cost_threshold":7}"#,
                "cost_threshold must be in [0, 1], got 7",
            ),
            (
                r#"{"op":"admit","kind":"mar","cost_threshold":-1}"#,
                "cost_threshold must be in [0, 1], got -1",
            ),
            // Typos and repeats are refused by name, never defaulted.
            (
                r#"{"op":"telemetry","windw":4}"#,
                "unknown key `windw` in the request",
            ),
            (
                r#"{"op":"admit","kind":"mar","cost_treshold":0.1}"#,
                "unknown key `cost_treshold` in the request",
            ),
            (
                r#"{"op":"status","op":"shutdown"}"#,
                "duplicate key `op` in the request",
            ),
            (
                r#"{"op":"teardown","cell":0,"slice":4294967296}"#,
                "`slice`",
            ),
            ("[1,2,3]", "the request must be a JSON object"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(expected), "{line}: {err}");
        }
        // `null` reads as absent: the paper defaults apply.
        assert_eq!(
            Request::parse(r#"{"op":"admit","kind":"rdc","peak_rate":null}"#).unwrap(),
            Request::Admit {
                spec: SliceSpec::new(SliceKind::Rdc)
            }
        );
    }

    #[test]
    fn responses_are_single_json_lines() {
        let ok = ok_response(vec![("slot", Value::UInt(7))]);
        assert_eq!(ok, "{\"ok\":true,\"slot\":7}");
        let err = error_response("no such cell");
        assert_eq!(err, "{\"ok\":false,\"error\":\"no such cell\"}");
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }
}
