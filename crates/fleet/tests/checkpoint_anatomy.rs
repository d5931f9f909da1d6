//! A checkpoint holds what the next slot reads. The oracle here recomputes
//! that from the live fleet instead of trusting the `#[serde(skip)]`
//! attributes: per agent, the learner and the estimator may carry their
//! parameters once and two Adam moments for each network PPO keeps
//! training — no gradient, no cached weight draw, no optimiser of a fit
//! that already ran. A scratch field that forgets its `skip` fails by name.

use onslicing_fleet::{ElasticFleet, ElasticFleetConfig, FleetCheckpoint};
use onslicing_scenario::fleet_by_name;
use onslicing_slices::Action;
use serde::{Deserialize, Serialize, Value};

/// `hotspot-shift`, 3 cells, seed 0, stepped to slot 24 — the checkpoint
/// ROADMAP item 1 quotes.
fn fleet_at_slot_24() -> ElasticFleet {
    let scenario = fleet_by_name("hotspot-shift").unwrap();
    let mut fleet = ElasticFleet::new(scenario, ElasticFleetConfig::new(3).with_seed(0)).unwrap();
    fleet.advance_to(24).unwrap();
    fleet
}

fn tree(json: &str) -> Value {
    serde_json::from_str(json).unwrap()
}

/// Calls `f(key, value)` on every object entry of the tree, depth first.
fn walk<'a>(v: &'a Value, f: &mut dyn FnMut(&'a str, &'a Value)) {
    match v {
        Value::Arr(items) => items.iter().for_each(|item| walk(item, f)),
        Value::Obj(pairs) => {
            for (key, value) in pairs {
                f(key, value);
                walk(value, f);
            }
        }
        _ => {}
    }
}

/// How many numbers the tree holds inside arrays of numbers — weights,
/// moments and buffers, but not a scalar like `learning_rate` or `rows`.
fn numbers_in_arrays(v: &Value) -> usize {
    match v {
        Value::Arr(items) => {
            let own = items.iter().filter(|i| i.as_f64().is_some()).count();
            own + items.iter().map(numbers_in_arrays).sum::<usize>()
        }
        Value::Obj(pairs) => pairs.iter().map(|(_, v)| numbers_in_arrays(v)).sum(),
        _ => 0,
    }
}

fn floats(v: &Value) -> usize {
    match v {
        Value::Float(_) => 1,
        Value::Arr(items) => items.iter().map(floats).sum(),
        Value::Obj(pairs) => pairs.iter().map(|(_, v)| floats(v)).sum(),
        _ => 0,
    }
}

/// The first value stored under `key`, depth first.
fn first_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Arr(items) => items.iter_mut().find_map(|item| first_mut(item, key)),
        Value::Obj(pairs) => {
            if let Some(at) = pairs.iter().position(|(k, _)| k == key) {
                return Some(&mut pairs[at].1);
            }
            pairs.iter_mut().find_map(|(_, v)| first_mut(v, key))
        }
        _ => None,
    }
}

#[test]
fn a_checkpoint_holds_parameters_and_live_moments_and_nothing_else() {
    let fleet = fleet_at_slot_24();
    let json = fleet.checkpoint().to_json();
    let document = tree(&json);

    // (a) No scratch key anywhere, no optimiser on an estimator, and each
    // engine's domain block is one flat value: capacity and step size once,
    // no per-domain or per-resource restatement of them.
    let mut domain_blocks = 0;
    walk(&document, &mut |key, value| {
        for prefix in ["grad_", "cached_", "sampled_"] {
            assert!(!key.starts_with(prefix), "scratch key `{key}` is on file");
        }
        for restated in ["managers", "coordinators", "nominal_capacity"] {
            assert_ne!(key, restated, "`{key}` is on file");
        }
        if key == "estimator" {
            assert!(value.get("optimizer").is_none(), "an estimator's optimiser");
        }
        if key == "domains" {
            let Value::Obj(pairs) = value else {
                panic!("a domain block is an object");
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "capacity",
                    "step_size",
                    "capacity_scales",
                    "betas",
                    "allocations"
                ]
            );
            domain_blocks += 1;
        }
    });
    assert_eq!(domain_blocks, fleet.cells().len());

    // (b) Per agent: parameters once, two moments for each of the two
    // networks PPO keeps training, the estimator's parameters, nothing else.
    let cells = document.get("cells").and_then(Value::as_arr).unwrap();
    assert_eq!(cells.len(), fleet.cells().len());
    let mut agents_seen = 0;
    for (cell, live) in cells.iter().zip(fleet.cells()) {
        let mut on_file = Vec::new();
        walk(cell, &mut |key, value| {
            if key == "agents" {
                on_file.extend(value.as_arr().unwrap());
            }
        });
        let live_agents = live.engine.orchestrator().agents();
        assert_eq!(on_file.len(), live_agents.len());
        for (agent, live) in on_file.into_iter().zip(live_agents) {
            let policy = live.ppo().policy().num_parameters();
            let critic = live.ppo().critic().num_parameters();
            let estimator = estimator_parameters(agent.get("estimator").unwrap());
            let held = numbers_in_arrays(agent.get("ppo").unwrap())
                + numbers_in_arrays(agent.get("estimator").unwrap());
            assert_eq!(
                held,
                3 * (policy + critic) + estimator,
                "an agent's learner and estimator hold {held} numbers; parameters and live \
                 moments come to 3·({policy} + {critic}) + {estimator}"
            );
            agents_seen += 1;
        }
    }
    assert!(agents_seen > 0);

    // The anatomy figure itself: every float leaf of the document and its
    // bytes (the parent of this test wrote 602 553 floats in 12.46 MB).
    assert!(floats(&document) <= 196_000, "{} floats", floats(&document));
    assert!(json.len() <= 4_000_000, "{} bytes", json.len());

    // (c) What is on file is all a restored fleet writes back.
    let restored = FleetCheckpoint::from_json(&json)
        .unwrap()
        .restore()
        .unwrap();
    assert!(restored.checkpoint().to_json() == json);
}

#[test]
fn a_cell_carries_each_active_slice_enforced_action_once() {
    // The four domain managers act on one slice registry; a cell that
    // stored it per manager would hold every action four times.
    let fleet = fleet_at_slot_24();
    let document = tree(&fleet.checkpoint().to_json());
    let cells = document.get("cells").and_then(Value::as_arr).unwrap();
    for (i, (cell, live)) in cells.iter().zip(fleet.cells()).enumerate() {
        let mut entries = Vec::new();
        walk(cell, &mut |key, value| {
            if key == "allocations" {
                entries.extend(value.as_arr().unwrap());
            }
        });
        let active = live.engine.orchestrator().slice_ids();
        assert!(!active.is_empty());
        assert_eq!(entries.len(), active.len(), "cell {i}: registry entries");
        for id in active {
            let id = id.serialize_value();
            let copies: Vec<&Value> = entries
                .iter()
                .filter_map(|pair| match pair.as_arr() {
                    Some([key, action]) if *key == id => Some(action),
                    _ => None,
                })
                .collect();
            assert_eq!(
                copies.len(),
                1,
                "cell {i} holds slice {id:?} {} times",
                copies.len()
            );
            Action::from_value(copies[0]).unwrap();
        }
    }
}

/// `2·(in·out + out)` summed over the estimator's layers, from the shape
/// of each layer's `weight_mu`.
fn estimator_parameters(estimator: &Value) -> usize {
    let mut total = 0;
    walk(estimator, &mut |key, value| {
        if key == "weight_mu" {
            let dim = |k| value.get(k).and_then(Value::as_u64).unwrap() as usize;
            let (rows, cols) = (dim("rows"), dim("cols"));
            total += 2 * (rows * cols + rows);
        }
    });
    assert!(total > 0);
    total
}

/// Keys of the object `v`, in file order.
fn keys_of(v: &Value) -> Vec<&str> {
    let Value::Obj(pairs) = v else {
        panic!("not an object: {v:?}");
    };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn an_agent_stores_what_it_learned_plus_its_variant() {
    // No constant of the method is on file — Adam's βs, ε and clip norm, the
    // policy's std floor, the prior, PPO's clip and entropy weights, the KL
    // weight, the dual step, η, the fixed penalty — and no copy of a stored
    // value: a Bayesian layer's dimensions (its `weight_mu` shape), the
    // baseline's kind and bucket count (the agent's kind, the table's
    // length), the multiplier's threshold (the SLA's) or a second modifier
    // configuration (`config.modifier`). An engine stores no sorted copy of
    // its scenario's events and no cursor into it.
    let fleet = fleet_at_slot_24();
    let document = tree(&fleet.checkpoint().to_json());
    let gone = [
        "beta1",
        "beta2",
        "epsilon",
        "max_grad_norm",
        "min_std",
        "prior_std",
        "in_dim",
        "out_dim",
        "num_buckets",
        "clip_epsilon",
        "entropy_coef",
        "kl_weight",
        "lagrangian_step",
        "risk_factor_eta",
        "fixed_penalty_weight",
        "step_size",
        "timeline",
        "next_event",
    ];
    let mut agents = 0;
    let mut runs = 0;
    walk(&document, &mut |key, value| {
        if key == "agents" {
            for agent in value.as_arr().unwrap() {
                let mut thresholds = 0;
                walk(agent, &mut |key, _| {
                    assert!(!gone.contains(&key), "`{key}` is under an agent");
                    thresholds += usize::from(key == "cost_threshold");
                });
                // The SLA is the threshold's one home.
                assert!(agent.get("sla").unwrap().get("cost_threshold").is_some());
                assert_eq!(
                    thresholds, 1,
                    "the cost threshold is stored {thresholds} times"
                );
                assert!(agent.get("modifier").is_none(), "a second modifier");
                assert_eq!(keys_of(agent.get("baseline").unwrap()), ["table"]);
                assert_eq!(keys_of(agent.get("lagrangian").unwrap()), ["lambda"]);
                agents += 1;
            }
        }
        if key == "run" {
            for cursor in ["timeline", "next_event"] {
                assert!(value.get(cursor).is_none(), "the engine stores `{cursor}`");
            }
            runs += 1;
        }
    });
    assert!(agents > 0);
    assert_eq!(runs, fleet.cells().len());
}

#[test]
fn learned_state_whose_lengths_disagree_is_refused_with_both_lengths() {
    let fleet = fleet_at_slot_24();
    let json = fleet.checkpoint().to_json();
    // The first layer on file: cell 0, slice 0, policy mean net, layer 0.
    let agent = &fleet.cells()[0].engine.orchestrator().agents()[0];
    let (state_dim, rows) = agent.trunk_shape()[0][0];
    // Each row drops the last element of the first array found under the
    // keys, and names what must refuse the file — the parse (`from_json`) or
    // the consistency check (`restore`) — and why, `{n}` standing for the
    // array's honest length and `{short}` for one less.
    let table: [(&[&str], bool, String); 4] = [
        (
            &["weights", "data"],
            true,
            format!(
                "Matrix `data` holds {{short}} elements, its {rows} rows × {state_dim} columns \
                 need {{n}}"
            ),
        ),
        (
            &["bias"],
            false,
            "cell 0 slice 0: policy dense layer 0 has {n} rows and a bias of length {short}"
                .to_string(),
        ),
        (
            &["actor_opt", "first_moment"],
            false,
            "cell 0 slice 0: actor optimizer holds {short} first and {n} second moments \
             for {n} parameters"
                .to_string(),
        ),
        (
            &["estimator", "bias_mu"],
            false,
            format!(
                "cell 0 slice 0: estimator bayesian layer 0 is {{n}} × {state_dim} but holds a \
                 {{n}} × {state_dim} weight block with a bias of length {{short}}"
            ),
        ),
    ];
    for (path, at_parse, reason) in table {
        let mut document = tree(&json);
        let mut target = &mut document;
        for key in path {
            target = first_mut(target, key).unwrap_or_else(|| panic!("no `{key}` on file"));
        }
        let Value::Arr(items) = target else {
            panic!("{path:?} is not an array");
        };
        let len = items.len();
        items.pop();
        let doctored = serde_json::to_string(&document).unwrap();
        let err = match FleetCheckpoint::from_json(&doctored) {
            Err(e) => {
                assert!(at_parse, "{path:?} refused at the parse: {e}");
                e
            }
            Ok(checkpoint) => {
                assert!(!at_parse, "{path:?} parsed");
                checkpoint.restore().map(|_| ()).unwrap_err()
            }
        };
        let reason = reason
            .replace("{n}", &len.to_string())
            .replace("{short}", &(len - 1).to_string());
        assert!(err.contains(&reason), "{path:?}: {err}");
    }
    // Untouched, the same document restores.
    assert!(FleetCheckpoint::from_json(&json).unwrap().restore().is_ok());
}

#[test]
fn a_short_baseline_table_or_a_bad_modifier_config_is_refused_at_restore() {
    // Loaded unchecked, a baseline table of fewer than three actions
    // panicked on the first slot the agent handed to its baseline, and a
    // modifier configuration out of range changed every later action.
    let fleet = fleet_at_slot_24();
    let json = fleet.checkpoint().to_json();
    let refused = |doctor: &dyn Fn(&mut Value)| {
        let mut document = tree(&json);
        doctor(&mut document);
        FleetCheckpoint::from_json(&serde_json::to_string(&document).unwrap())
            .unwrap()
            .restore()
            .map(|_| ())
            .unwrap_err()
    };
    for keep in [0, 2] {
        let reason = refused(&|document| {
            let Some(Value::Arr(table)) = first_mut(document, "table") else {
                panic!("no baseline table on file");
            };
            table.truncate(keep);
        });
        assert_eq!(
            reason,
            format!(
                "fleet checkpoint is inconsistent: cell 0 slice 0: baseline table holds {keep} \
                 actions, a calibrated one at least 3"
            )
        );
    }
    let reason = refused(&|document| {
        let floor = first_mut(document, "retention_floor").unwrap();
        *floor = Value::Float(1.5);
    });
    assert_eq!(
        reason,
        "fleet checkpoint is inconsistent: cell 0 slice 0: config.modifier: retention floor \
         must be in [0, 1], got 1.5"
    );
}
