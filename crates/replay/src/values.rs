//! The one walk every pinned document is compared with: a path-addressed
//! diff of two [`serde::Value`] trees, and the search for a non-finite
//! float in one.
//!
//! Every gate that holds a document against a reference goes through
//! [`diff_values`] — the golden traces and the experiments ledger (both
//! through `diff_against_file`, within the golden tolerance and absolute
//! 1e-9), `replay_check resume` (exact) and the chaos harness's
//! window-equivalence message (exact) — so a field added to any of those
//! documents is compared the day it is serialized, with no field list to
//! keep in step. A drift names where it is: `slots[3].slices[1].cost`.

use std::fmt::Write as _;

use serde::Value;

/// Numeric tolerance for float comparisons: values `a`, `b` match when
/// `|a - b| <= abs + rel * max(|a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component.
    pub rel: f64,
    /// Absolute component.
    pub abs: f64,
}

impl Tolerance {
    /// Bitwise equality — the contract for checkpoint-resume suffixes.
    pub fn exact() -> Self {
        Self { rel: 0.0, abs: 0.0 }
    }

    /// Whether two floats match under this tolerance. NaN matches nothing,
    /// not even NaN: a gate must never pass a broken metric.
    pub fn matches(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true; // covers ±inf and exact zeros
        }
        (a - b).abs() <= self.abs + self.rel * a.abs().max(b.abs())
    }
}

/// What [`diff_values`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueDiff {
    /// One line per drift, led by its JSON path (empty = the trees match).
    pub drifts: Vec<String>,
    /// Scalar leaves compared.
    pub leaves: usize,
}

/// Compares `actual` against `expected` and reports every drift with its
/// JSON path: an object key missing or extra, an array whose length
/// changed (its common prefix is still walked), or a scalar that differs.
/// Two floats match under [`Tolerance::matches`]; every other pair of
/// leaves matches only when equal, so an integer that became a float is a
/// drift.
pub fn diff_values(expected: &Value, actual: &Value, tol: Tolerance) -> ValueDiff {
    let mut diff = ValueDiff::default();
    diff.walk(&mut String::new(), expected, actual, tol);
    diff
}

impl ValueDiff {
    fn walk(&mut self, path: &mut String, expected: &Value, actual: &Value, tol: Tolerance) {
        match (expected, actual) {
            (Value::Obj(fields), Value::Obj(actual_fields)) => {
                for (key, e) in fields {
                    let len = push_key(path, key);
                    match actual.get(key) {
                        Some(a) => self.walk(path, e, a, tol),
                        None => self
                            .drifts
                            .push(format!("{path}: missing, expected {}", brief(e))),
                    }
                    path.truncate(len);
                }
                for (key, a) in actual_fields {
                    if expected.get(key).is_none() {
                        let len = push_key(path, key);
                        self.drifts
                            .push(format!("{path}: unexpected, got {}", brief(a)));
                        path.truncate(len);
                    }
                }
            }
            (Value::Arr(items), Value::Arr(actual_items)) => {
                if items.len() != actual_items.len() {
                    self.drifts.push(format!(
                        "{path}: expected {} entries, got {}",
                        items.len(),
                        actual_items.len()
                    ));
                }
                for (i, (e, a)) in items.iter().zip(actual_items).enumerate() {
                    let len = push_index(path, i);
                    self.walk(path, e, a, tol);
                    path.truncate(len);
                }
            }
            _ => {
                self.leaves += 1;
                if !leaf_matches(expected, actual, tol) {
                    self.drifts.push(format!(
                        "{path}: expected {}, got {}",
                        brief(expected),
                        brief(actual)
                    ));
                }
            }
        }
    }
}

fn leaf_matches(expected: &Value, actual: &Value, tol: Tolerance) -> bool {
    match (expected, actual) {
        (Value::Float(e), Value::Float(a)) => tol.matches(*e, *a),
        _ => expected == actual,
    }
}

/// A leaf as it reads in JSON (a float keeps its `.0`); a container by its
/// size only.
fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Arr(items) => format!("an array of {}", items.len()),
        Value::Obj(fields) => format!("an object of {} keys", fields.len()),
    }
}

/// The JSON path of the first NaN or ±inf float in `value`, in document
/// order (`""` when `value` itself is one); `None` when every float is
/// finite.
pub fn first_non_finite(value: &Value) -> Option<String> {
    fn find(path: &mut String, value: &Value) -> bool {
        let found = |path: &mut String, len: usize, child: &Value| {
            let hit = find(path, child);
            if !hit {
                path.truncate(len);
            }
            hit
        };
        match value {
            Value::Float(f) => !f.is_finite(),
            Value::Arr(items) => items.iter().enumerate().any(|(i, v)| {
                let len = push_index(path, i);
                found(path, len, v)
            }),
            Value::Obj(fields) => fields.iter().any(|(k, v)| {
                let len = push_key(path, k);
                found(path, len, v)
            }),
            _ => false,
        }
    }
    let mut path = String::new();
    find(&mut path, value).then_some(path)
}

/// Appends `.key` (`key` at the root) and returns the length to truncate
/// back to.
fn push_key(path: &mut String, key: &str) -> usize {
    let len = path.len();
    if len > 0 {
        path.push('.');
    }
    path.push_str(key);
    len
}

/// Appends `[i]` and returns the length to truncate back to.
fn push_index(path: &mut String, i: usize) -> usize {
    let len = path.len();
    write!(path, "[{i}]").expect("writing to a String cannot fail");
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    /// The ledger's rule, which the parent's hand-written walk applied as
    /// `|fresh - baseline| > 1e-9` — false for NaN, so a NaN leaf passed.
    const LEDGER: Tolerance = Tolerance {
        rel: 0.0,
        abs: 1e-9,
    };

    #[test]
    fn a_nan_leaf_never_matches() {
        let diff = diff_values(&Value::Float(19.3), &Value::Float(f64::NAN), LEDGER);
        assert_eq!(diff.leaves, 1);
        assert_eq!(diff.drifts.len(), 1);
        assert!(diff.drifts[0].ends_with("expected 19.3, got NaN"));
        // Not even against NaN, under any tolerance.
        for tol in [LEDGER, Tolerance::exact()] {
            let nan = Value::Obj(vec![("usage".into(), Value::Float(f64::NAN))]);
            let drifts = diff_values(&nan, &nan, tol).drifts;
            assert_eq!(drifts, ["usage: expected NaN, got NaN"]);
        }
    }

    #[test]
    fn structural_and_type_drifts_carry_their_path() {
        let expected = parse(r#"{"curve": [{"slices": 9, "cost": 0.5}, {"slices": 3}], "n": 1}"#);
        let same = diff_values(&expected, &expected, LEDGER);
        assert!(same.drifts.is_empty(), "{:?}", same.drifts);
        assert_eq!(same.leaves, 4);

        // A key renamed: the old one is missing, the new one unexpected.
        let renamed = parse(r#"{"curve": [{"slices": 9, "cost": 0.5}, {"slices": 3}], "m": 1}"#);
        assert_eq!(
            diff_values(&expected, &renamed, LEDGER).drifts,
            ["n: missing, expected 1", "m: unexpected, got 1"]
        );

        // An array that grew: reported once, its common prefix still walked.
        let grown = parse(r#"{"curve": [{"slices": 9, "cost": 0.7}, {"slices": 3}, {}], "n": 1}"#);
        assert_eq!(
            diff_values(&expected, &grown, LEDGER).drifts,
            [
                "curve: expected 2 entries, got 3",
                "curve[0].cost: expected 0.5, got 0.7"
            ]
        );

        // `9` and `9.0` are different JSON: a count that became a float drifts.
        let retyped = parse(r#"{"curve": [{"slices": 9.0, "cost": 0.5}, {"slices": 3}], "n": 1}"#);
        assert_eq!(
            diff_values(&expected, &retyped, LEDGER).drifts,
            ["curve[0].slices: expected 9, got 9.0"]
        );
        // A container where a leaf was is one leaf drift, named by its size.
        assert_eq!(
            diff_values(&parse(r#"{"n": 1}"#), &parse(r#"{"n": [1, 2]}"#), LEDGER).drifts,
            ["n: expected 1, got an array of 2"]
        );
    }

    #[test]
    fn first_non_finite_names_the_first_broken_float() {
        let doc = |cost: f64, x: f64| {
            let slot = |pairs: Vec<(&str, f64)>| {
                Value::Obj(
                    pairs
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::Float(v)))
                        .collect(),
                )
            };
            Value::Obj(vec![
                ("a".to_string(), Value::UInt(1)),
                (
                    "slots".to_string(),
                    Value::Arr(vec![
                        slot(vec![("cost", 0.5)]),
                        slot(vec![("cost", cost), ("x", x)]),
                    ]),
                ),
            ])
        };
        assert_eq!(first_non_finite(&doc(0.25, 2.0)), None);
        let x_broken = doc(0.25, f64::NEG_INFINITY);
        assert_eq!(first_non_finite(&x_broken).as_deref(), Some("slots[1].x"));
        let both_broken = doc(f64::NAN, f64::NEG_INFINITY);
        assert_eq!(
            first_non_finite(&both_broken).as_deref(),
            Some("slots[1].cost")
        );
        let root = Value::Float(f64::INFINITY);
        assert_eq!(first_non_finite(&root).as_deref(), Some(""));
    }
}
