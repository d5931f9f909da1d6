//! The JSON writer formats numbers by hand (`vendor/serde_json/src/num.rs`);
//! this is the writer it replaced, kept as the oracle: every float through
//! `format!("{f:?}")`, every integer through `to_string`, one `char` at a
//! time. The two must agree byte for byte on the repository's largest
//! documents — a fleet checkpoint (compact, ≈ 99 % floats) and a telemetry
//! trace (pretty) — or checkpoints, goldens and baselines would all move.
//! The oracle walks the checkpoint's derived `Serialize` value in one
//! piece, so it also pins `FleetCheckpoint::to_json`, which renders cells
//! as separate pool jobs and writes the top level by hand, to the derive's
//! layout: at one cell, at two, and at five after a migration.

use onslicing_fleet::{BalancerConfig, ElasticFleet, ElasticFleetConfig};
use onslicing_replay::record_scenario;
use onslicing_scenario::{builtin, fleet_by_name, hotspot_shift, FleetScenario, ScenarioConfig};
use serde::{Serialize, Value};

fn reference_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reference_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::Float(f) => reference_escaped(&format!("{f}"), out),
        Value::Str(s) => reference_escaped(s, out),
        Value::Arr(_) => out.push_str("[]"),
        Value::Obj(_) => out.push_str("{}"),
    }
}

/// `pretty`: `Some(indent)` writes one item per line, two spaces a level.
fn reference_write(v: &Value, out: &mut String, pretty: Option<usize>) {
    let (open, close, len) = match v {
        Value::Arr(items) if !items.is_empty() => ('[', ']', items.len()),
        Value::Obj(pairs) if !pairs.is_empty() => ('{', '}', pairs.len()),
        scalar_or_empty => return reference_scalar(scalar_or_empty, out),
    };
    let inner = pretty.map(|indent| indent + 1);
    let line = |out: &mut String, indent: Option<usize>| {
        if let Some(indent) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        line(out, inner);
        match v {
            Value::Arr(items) => reference_write(&items[i], out, inner),
            Value::Obj(pairs) => {
                reference_escaped(&pairs[i].0, out);
                out.push_str(if pretty.is_some() { ": " } else { ":" });
                reference_write(&pairs[i].1, out, inner);
            }
            _ => unreachable!("only containers get here"),
        }
    }
    line(out, pretty);
    out.push(close);
}

/// `fleet`'s checkpoint, written by `to_json` (one cell per pool job), by
/// the derive through `serde_json::to_string` and by the reference writer:
/// all three agree byte for byte.
fn assert_checkpoint_matches_the_reference_writer(fleet: &ElasticFleet) -> String {
    let checkpoint = fleet.checkpoint();
    let mut expected = String::new();
    reference_write(&checkpoint.serialize_value(), &mut expected, None);
    let json = checkpoint.to_json();
    assert!(
        json == expected,
        "compact checkpoint bytes of a {}-cell fleet differ",
        fleet.cells().len()
    );
    assert!(
        json == serde_json::to_string(checkpoint).unwrap(),
        "to_json and the derive differ on a {}-cell fleet",
        fleet.cells().len()
    );
    json
}

#[test]
fn fleet_checkpoint_bytes_match_the_reference_writer() {
    let mut fleet = ElasticFleet::new(
        fleet_by_name("hotspot-shift").unwrap(),
        ElasticFleetConfig::new(2).with_seed(17),
    )
    .unwrap();
    fleet.advance_to(16).unwrap();
    let json = assert_checkpoint_matches_the_reference_writer(&fleet);
    assert!(
        json.len() > 1_000_000,
        "a real checkpoint, {} bytes",
        json.len()
    );

    // One cell: a single job, no separator between cell texts.
    let mut single = ElasticFleet::new(
        FleetScenario::new(builtin::steady(), 1),
        ElasticFleetConfig::new(1).with_seed(3),
    )
    .unwrap();
    single.advance_to(8).unwrap();
    assert_checkpoint_matches_the_reference_writer(&single);

    // More cells than pool threads, past a migration, so every top-level
    // field around the cell texts holds something.
    let always_migrates = BalancerConfig {
        min_load_gap: 0.0,
        ..BalancerConfig::default()
    };
    let mut wide = ElasticFleet::new(
        hotspot_shift(),
        ElasticFleetConfig::new(5)
            .with_seed(5)
            .with_balancer(always_migrates),
    )
    .unwrap();
    wide.advance_to(16).unwrap();
    assert!(
        !wide.migrations().is_empty(),
        "the 5-cell fleet must migrate"
    );
    assert_checkpoint_matches_the_reference_writer(&wide);

    let (trace, _) = record_scenario(builtin::steady(), ScenarioConfig::default()).unwrap();
    let mut expected = String::new();
    reference_write(&trace.serialize_value(), &mut expected, Some(0));
    assert!(trace.to_json() == expected, "pretty trace bytes differ");
}
