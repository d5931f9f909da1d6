//! `fleetd-drill`: the real daemon behind its control socket.
//!
//! `onslicing_fleetd::daemon::run` serves the built-in `hotspot-shift` on
//! four cells, paused, so every slot is a `step` request; one client waits
//! for each reply. Per slot it steps, then polls `status` and `telemetry`
//! twenty times each; every eighth slot it asks for a checkpoint; it
//! admits, renegotiates and tears down at fixed slots; half-way it shuts
//! the daemon down and restarts it on the same state directory; at the end
//! it lets the daemon finalise. This is the only workload through the
//! socket, the protocol parser, the request log, the lock and
//! resume-from-disk — the slot work itself is `fleet-elastic`'s code.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;

use onslicing_fleet::{ElasticFleet, ElasticFleetConfig, FleetTrace};
use onslicing_fleetd::{
    daemon, final_trace_path, send_request, CheckpointPolicy, ExitReason, FleetdConfig,
};
use onslicing_scenario::{fleet_by_name, ScenarioEvent, SliceSpec};
use onslicing_slices::SliceKind;

use super::{Cx, Round};
use crate::stats::digest;

const SCENARIO: &str = "hotspot-shift";
const CELLS: usize = 4;
/// Read-only polls of each kind after every step.
const POLLS: usize = 20;
const CHECKPOINT_EVERY: usize = 8;
const ADMIT_AT: usize = 20;
const RESTART_AT: usize = 24;
const RENEGOTIATE_AT: usize = 30;
const TEARDOWN_AT: usize = 36;
const RENEGOTIATED_THRESHOLD: f64 = 0.06;

fn fleet_config(seed: u64) -> ElasticFleetConfig {
    ElasticFleetConfig::new(CELLS).with_seed(seed)
}

fn total_slots() -> usize {
    fleet_by_name(SCENARIO).expect("built-in").base.total_slots
}

/// Polls of each kind per slot. The scenario is a built-in of fixed length,
/// so `--quick` thins the control traffic instead of the slots.
fn polls(quick: bool) -> usize {
    if quick {
        POLLS / 10
    } else {
        POLLS
    }
}

pub fn generated_json(seed: u64, quick: bool) -> String {
    format!(
        "{{\"scenario\":\"{SCENARIO}\",\"cells\":{CELLS},\"master_seed\":{seed},\"slots\":{},\
         \"polls_per_slot\":{},\"checkpoint_every\":{CHECKPOINT_EVERY},\"admit_at\":{ADMIT_AT},\
         \"restart_at\":{RESTART_AT},\"renegotiate_at\":{RENEGOTIATE_AT},\"teardown_at\":{TEARDOWN_AT}}}",
        total_slots(),
        2 * polls(quick)
    )
}

/// The trace an in-process fleet produces when driven with the same
/// advance/admit/event sequence the drill sends over the socket.
fn reference_digest(seed: u64) -> u64 {
    // The traced pass replays the untraced pass's seeds: compute each once.
    static REFERENCE: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    let mut cache = REFERENCE.lock().expect("no holder of this lock panics");
    *cache.entry(seed).or_insert_with(|| {
        let scenario = fleet_by_name(SCENARIO).expect("built-in");
        let total = scenario.base.total_slots;
        let mut fleet =
            ElasticFleet::new(scenario, fleet_config(seed)).expect("built-in fleet builds");
        for at in 1..=total {
            fleet.advance_to(at).expect("the reference fleet advances");
            match at {
                ADMIT_AT => {
                    fleet.admit(&SliceSpec::new(SliceKind::Mar));
                }
                RENEGOTIATE_AT => {
                    let event = ScenarioEvent::RenegotiateSla {
                        slice: 0,
                        cost_threshold: RENEGOTIATED_THRESHOLD,
                    };
                    fleet.inject_cell_event(1, &event).expect("valid event");
                }
                TEARDOWN_AT => {
                    let event = ScenarioEvent::TeardownSlice { slice: 1 };
                    fleet.inject_cell_event(1, &event).expect("valid event");
                }
                _ => {}
            }
        }
        let trace = fleet.finish(0.0).expect("a complete fleet finishes").trace;
        digest(trace.to_json().as_bytes())
    })
}

/// The drill's client: every request is timed, counted and must be `ok`.
struct Client<'a, 'c> {
    socket: &'a Path,
    round: &'a mut Round,
    cx: &'a mut Cx<'c>,
    requests: u64,
    errors: u64,
}

impl Client<'_, '_> {
    /// Sends `line`, records the round trip under `series` and returns the
    /// response and the milliseconds it took.
    fn call(&mut self, span: &'static str, line: &str) -> (Option<Value>, f64) {
        let start = Instant::now();
        let reply = self
            .cx
            .tracer
            .time("fleetd", span, || send_request(self.socket, line));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.requests += 1;
        let value = reply
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok());
        let ok = value
            .as_ref()
            .and_then(|v| v.get("ok"))
            .and_then(Value::as_bool)
            == Some(true);
        if !ok {
            self.errors += 1;
        }
        self.round.check(ok, || {
            format!("request `{line}` was not answered ok: {value:?}")
        });
        self.round.sample(span, ms);
        (value, ms)
    }
}

fn spawn_daemon(config: &FleetdConfig) -> JoinHandle<Result<ExitReason, String>> {
    let config = config.clone();
    std::thread::spawn(move || daemon::run(config))
}

/// Polls `status` until the daemon answers; `None` after ten seconds.
fn wait_ready(socket: &Path) -> Option<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if send_request(socket, "{\"op\":\"status\"}").is_ok_and(|r| r.contains("\"ok\":true")) {
            return Some(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

pub fn round(cx: &mut Cx<'_>) -> Round {
    let mut r = Round::default();
    let total = total_slots();
    let polls = polls(cx.quick);
    let seed = cx.seed;
    // Relative on purpose: a Unix socket path holds ~100 bytes.
    let state_dir = cx.dir.join(format!("drill-{}", cx.round));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = FleetdConfig {
        scenario: SCENARIO.to_string(),
        fleet: fleet_config(seed),
        state_dir: state_dir.clone(),
        control_socket: state_dir.join("ctl.sock"),
        start_paused: true,
        window_slots: 1,
        // Cadence checkpoints off: every checkpoint is an explicit, timed verb.
        checkpoint: CheckpointPolicy {
            cadence_slots: 10_000,
            retain: 2,
        },
    };
    let socket = config.control_socket.clone();

    let setup = Instant::now();
    let token = cx.tracer.begin("fleetd", "fleetd.start");
    let mut daemon = spawn_daemon(&config);
    let ready = wait_ready(&socket);
    cx.tracer.end(token);
    r.setups_s.push(setup.elapsed().as_secs_f64());
    r.check(ready.is_some(), || {
        "the daemon never answered on its socket".to_string()
    });
    if ready.is_none() {
        return r;
    }

    let traced = cx.tracer.enabled();
    let measured = Instant::now();
    let mut client = Client {
        socket: &socket,
        round: &mut r,
        cx,
        requests: 0,
        errors: 0,
    };
    let mut last_checkpoint_mb = 0.0;
    for at in 1..=total {
        client.cx.tracer.set_op(at as u64);
        let (_, ms) = client.call(
            "fleetd.req.step",
            &format!("{{\"op\":\"step\",\"to_slot\":{at}}}"),
        );
        client.round.sample("slot_ms", ms);
        for _ in 0..polls {
            let (_, ms) = client.call("fleetd.req.status", "{\"op\":\"status\"}");
            client.round.sample("ctl_ms", ms);
            let (_, ms) = client.call(
                "fleetd.req.telemetry",
                "{\"op\":\"telemetry\",\"window\":16}",
            );
            client.round.sample("ctl_ms", ms);
        }
        if at % CHECKPOINT_EVERY == 0 {
            let (reply, ms) = client.call("fleetd.req.checkpoint", "{\"op\":\"checkpoint\"}");
            client.round.sample("checkpoint_ms", ms);
            let path = reply
                .as_ref()
                .and_then(|v| v.get("path"))
                .and_then(Value::as_str);
            if let Some(len) = path
                .and_then(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
            {
                last_checkpoint_mb = len as f64 / 1e6;
            }
        }
        match at {
            ADMIT_AT => {
                client.call("fleetd.req.admit", "{\"op\":\"admit\",\"kind\":\"mar\"}");
            }
            RENEGOTIATE_AT => {
                let line = format!(
                    "{{\"op\":\"renegotiate\",\"cell\":1,\"slice\":0,\"cost_threshold\":{RENEGOTIATED_THRESHOLD}}}"
                );
                client.call("fleetd.req.renegotiate", &line);
            }
            TEARDOWN_AT => {
                client.call(
                    "fleetd.req.teardown",
                    "{\"op\":\"teardown\",\"cell\":1,\"slice\":1}",
                );
            }
            RESTART_AT => {
                client.call("fleetd.req.shutdown", "{\"op\":\"shutdown\"}");
                let exit = daemon.join();
                client
                    .round
                    .check(matches!(exit, Ok(Ok(ExitReason::Shutdown))), || {
                        format!("the daemon did not shut down cleanly: {exit:?}")
                    });
                let start = Instant::now();
                let token = client.cx.tracer.begin("fleetd", "fleetd.resume");
                daemon = spawn_daemon(&config);
                let ready = wait_ready(&socket);
                client.cx.tracer.end(token);
                client
                    .round
                    .sample("resume_s", start.elapsed().as_secs_f64());
                client.round.check(ready.is_some(), || {
                    "the restarted daemon never answered".to_string()
                });
            }
            _ => {}
        }
    }
    if traced {
        // Connection set-up alone: what every one-shot request pays first.
        for _ in 0..200 {
            client.cx.tracer.time("fleetd", "fleetd.connect", || {
                drop(UnixStream::connect(&socket))
            });
        }
    }
    // A complete fleet that is no longer paused finalises: final
    // checkpoint, final trace, exit.
    let start = Instant::now();
    let token = client.cx.tracer.begin("fleetd", "fleetd.finalize");
    client.call("fleetd.req.resume", "{\"op\":\"resume\"}");
    let exit = daemon.join();
    client.cx.tracer.end(token);
    let finalize_ms = start.elapsed().as_secs_f64() * 1e3;
    let (requests, errors) = (client.requests, client.errors);
    r.check(matches!(exit, Ok(Ok(ExitReason::Completed))), || {
        format!("the daemon did not run to completion: {exit:?}")
    });
    r.measured_s = measured.elapsed().as_secs_f64();
    r.values.insert("fleetd.finalize_ms", finalize_ms);
    r.values.insert("checkpoint_mb", last_checkpoint_mb);
    r.exact.insert("fleetd.requests", requests as f64);
    r.exact.insert("fleetd.request_errors", errors as f64);

    let text = std::fs::read_to_string(final_trace_path(&state_dir, SCENARIO)).unwrap_or_default();
    r.digest = digest(text.as_bytes());
    r.check(r.digest == reference_digest(seed), || {
        "the daemon's final trace differs from the in-process fleet driven the same way".to_string()
    });
    summarise_trace(&text, &mut r);
    let _ = std::fs::remove_dir_all(&state_dir);
    r
}

/// Slice-slots, mean usage and violated episodes, read off the final trace.
fn summarise_trace(text: &str, r: &mut Round) {
    let trace = FleetTrace::from_json(text);
    r.check(trace.is_ok(), || {
        "the daemon's final trace does not parse".to_string()
    });
    let Ok(trace) = trace else { return };
    let (mut records, mut usage, mut episodes, mut violated) = (0u64, 0.0, 0u64, 0u64);
    for cell in &trace.cells {
        for slot in &cell.trace.slots {
            records += slot.slices.len() as u64;
            usage += slot.slices.iter().map(|s| s.usage_percent).sum::<f64>();
        }
        episodes += cell.trace.episodes.len() as u64;
        violated += cell.trace.episodes.iter().filter(|e| e.violated).count() as u64;
    }
    r.slice_slots = records;
    r.check(usage.is_finite(), || {
        "the final trace holds a non-finite usage".to_string()
    });
    r.exact.insert("usage_pct", usage / records.max(1) as f64);
    r.exact.insert(
        "sla_violation_pct",
        100.0 * violated as f64 / episodes.max(1) as f64,
    );
}
