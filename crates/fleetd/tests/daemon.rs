//! End-to-end tests of the `fleetd` binary: lock discipline, config-typo
//! refusal, crash recovery (SIGKILL mid-run and mid-checkpoint-write) and
//! the rolling upgrade drill — stop, restart on the same state dir under a
//! one-thread pool, and require the final trace to be **byte-identical**
//! to an uninterrupted run's on the default pool.
//!
//! Every test drives a real daemon process (`CARGO_BIN_EXE_fleetd`) over
//! its Unix control socket. Runs start paused and advance via `step`, so
//! control requests land at scripted slots and the comparisons are exact.
//! A mid-write crash point is a FIFO planted where the checkpoint's temp
//! file goes: the daemon blocks in the write until the test kills it.
#![expect(
    clippy::disallowed_methods,
    reason = "test deadlines for a real daemon process; no clock read reaches a trace"
)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use onslicing_fleet::{ElasticFleet, ElasticFleetConfig};
use onslicing_fleetd::{
    final_trace_path, send_request, StateLock, LOCK_FILE_NAME, MAX_REQUEST_LINE_BYTES,
    REQUEST_LOG_NAME,
};
use onslicing_replay::checkpoint_file_name;
use onslicing_scenario::fleet_by_name;

const SCENARIO: &str = "hotspot-shift";
const SEED: u64 = 17;
const CELLS: usize = 2;

struct TestDir {
    root: PathBuf,
}

impl TestDir {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fleetd-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn state_dir(&self) -> PathBuf {
        self.root.join("state")
    }

    fn socket(&self) -> PathBuf {
        self.state_dir().join("control.sock")
    }

    /// Writes a config.json with the shared test fleet shape. Checkpoint
    /// cadence 8, retention 2 (small enough that GC actually runs).
    fn write_config(&self) -> PathBuf {
        self.write_config_retaining(2)
    }

    fn write_config_retaining(&self, retain: usize) -> PathBuf {
        let path = self.root.join("config.json");
        std::fs::write(
            &path,
            format!(
                "{{\"scenario\": \"{SCENARIO}\", \"cells\": {CELLS}, \"seed\": {SEED}, \
                 \"state_dir\": \"state\", \"start_paused\": true,\n\
                 \"checkpoint\": {{\"cadence_slots\": 8, \"retain\": {retain}}}}}\n"
            ),
        )
        .unwrap();
        path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A spawned daemon, killed and reaped when dropped: a test that fails
/// midway leaves no daemon running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl std::ops::Deref for Daemon {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

fn spawn_daemon(config: &Path, extra_env: &[(&str, &str)]) -> Daemon {
    spawn_daemon_with_stderr(config, extra_env, Stdio::null())
}

fn spawn_daemon_with_stderr(config: &Path, extra_env: &[(&str, &str)], stderr: Stdio) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fleetd"));
    cmd.arg("run")
        .arg(config)
        .stdout(Stdio::null())
        .stderr(stderr);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    Daemon(cmd.spawn().expect("cannot spawn fleetd"))
}

/// Spawns a daemon expected to refuse to start, waits for it and returns
/// its exit status and stderr.
fn refused_start(config: &Path, stderr_path: &Path) -> (std::process::ExitStatus, String) {
    let log = std::fs::File::create(stderr_path).unwrap();
    let mut daemon = spawn_daemon_with_stderr(config, &[], log.into());
    let status = wait_exit(&mut daemon);
    (status, std::fs::read_to_string(stderr_path).unwrap())
}

/// Waits until the daemon answers `status` on its socket.
fn wait_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(response) = send_request(socket, "{\"op\":\"status\"}") {
            if response.contains("\"ok\":true") {
                return;
            }
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon never exited");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends one request through `fleetd ctl`, the operator's one-shot client,
/// and returns the `"ok":true` line it prints.
fn ctl_cli_ok(socket: &Path, line: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .arg("ctl")
        .arg(socket)
        .arg(line)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fleetd ctl {line}: {stdout}");
    let answer = stdout
        .lines()
        .find(|l| l.contains("\"ok\":true"))
        .unwrap_or_else(|| panic!("fleetd ctl {line} printed no ok line: {stdout}"));
    serde_json::from_str(answer).expect("response is JSON")
}

/// Sends one request and asserts the transport-level send worked.
fn ctl(socket: &Path, line: &str) -> Value {
    let response = send_request(socket, line).unwrap_or_else(|e| panic!("ctl {line}: {e}"));
    serde_json::from_str(&response).expect("response is JSON")
}

fn ctl_ok(socket: &Path, line: &str) -> Value {
    let response = ctl(socket, line);
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "request {line} failed: {response:?}"
    );
    response
}

fn total_slots() -> usize {
    fleet_by_name(SCENARIO).unwrap().base.total_slots
}

fn fleet_config() -> ElasticFleetConfig {
    ElasticFleetConfig::new(CELLS).with_seed(SEED)
}

/// The trace an uninterrupted in-process run produces with no live events.
fn reference_trace_plain() -> String {
    let mut fleet = ElasticFleet::new(fleet_by_name(SCENARIO).unwrap(), fleet_config()).unwrap();
    fleet.advance_to(total_slots()).unwrap();
    fleet.finish(0.0).unwrap().trace.to_json()
}

/// Drives a paused daemon to completion and returns the final trace text.
/// The daemon finalizes (writes the trace and exits) once it is complete
/// and unpaused.
fn run_to_completion(socket: &Path, state_dir: &Path, child: &mut Child) -> String {
    ctl_ok(
        socket,
        &format!("{{\"op\":\"step\",\"to_slot\":{}}}", total_slots()),
    );
    ctl_ok(socket, "{\"op\":\"resume\"}");
    let status = wait_exit(child);
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::read_to_string(final_trace_path(state_dir, SCENARIO)).expect("final trace written")
}

#[test]
fn double_start_is_refused_and_stale_locks_are_reclaimed() {
    let dir = TestDir::new("lock");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());

    // A second daemon on the same state dir must refuse to start and say
    // who holds the lock.
    let (status, stderr) = refused_start(&config, &dir.root.join("second.err"));
    assert!(!status.success());
    assert!(
        stderr.contains(&format!("locked by a running fleetd (pid {})", daemon.id())),
        "unexpected stderr: {stderr}"
    );

    // Graceful shutdown removes the socket and frees the lock: the lock
    // file stays, and the lock on it is there to take.
    let response = ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(response.get("checkpoint").is_some());
    assert!(wait_exit(&mut daemon).success());
    drop(StateLock::acquire(&dir.state_dir()).expect("the exited daemon's lock is free"));
    assert!(!dir.socket().exists());

    // A lock left by a dead process (impossible PID) is reclaimed.
    std::fs::write(dir.state_dir().join(LOCK_FILE_NAME), "4194999").unwrap();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    // The shutdown above checkpointed slot 0, so the reclaimed daemon
    // resumed rather than started fresh.
    assert_eq!(
        status.get("scenario").and_then(Value::as_str),
        Some(SCENARIO)
    );
    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
}

#[test]
fn rolling_upgrade_drill_is_bit_exact() {
    // Both arms issue the same two live admissions: one at slot 8, before
    // the slot-10 surge while the cold cell still has room, so a
    // live-admitted slice rides across the restart; and one at slot 20,
    // mid-surge, immediately before the stop. Whether the second is granted
    // depends on the seed — the contract is that both arms adjudicate it
    // identically, not which way it goes.
    const ADMIT: &str = "{\"op\":\"admit\",\"kind\":\"hvs\"}";
    let drill = |socket: &Path| {
        ctl_ok(socket, "{\"op\":\"step\",\"to_slot\":8}");
        let early = ctl_ok(socket, ADMIT);
        ctl_ok(socket, "{\"op\":\"step\",\"to_slot\":20}");
        let late = ctl_ok(socket, ADMIT);
        assert_eq!(late.get("slot").and_then(Value::as_u64), Some(20));
        (early, late)
    };

    // Uninterrupted arm: one daemon process on the default pool runs the
    // whole scenario, with a client connected throughout that never sends
    // a byte: it must hold up no request.
    let uninterrupted = TestDir::new("drill-a");
    let config = uninterrupted.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&uninterrupted.socket());
    let silent = std::os::unix::net::UnixStream::connect(uninterrupted.socket()).unwrap();
    let reference_admits = drill(&uninterrupted.socket());
    assert_eq!(
        reference_admits.0.get("outcome").and_then(Value::as_str),
        Some("granted")
    );
    let reference = run_to_completion(
        &uninterrupted.socket(),
        &uninterrupted.state_dir(),
        &mut daemon,
    );
    drop(silent);

    // Upgrade arm: same drill, but the daemon is stopped right after the
    // slot-20 admission and a "rebuilt" daemon resumes the same state dir.
    // Both of its processes run a one-thread pool, so the comparison also
    // holds the whole service path to the pool width across processes.
    let upgraded = TestDir::new("drill-b");
    let config = upgraded.write_config();
    let one_thread = [("RAYON_NUM_THREADS", "1")];
    let mut first = spawn_daemon(&config, &one_thread);
    wait_ready(&upgraded.socket());
    assert_eq!(
        drill(&upgraded.socket()),
        reference_admits,
        "both arms must adjudicate the live admissions alike"
    );
    ctl_ok(&upgraded.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut first).success());
    assert_checkpoints_hold_no_forbidden_key(&upgraded.state_dir());

    let mut second = spawn_daemon(&config, &one_thread);
    wait_ready(&upgraded.socket());
    let status = ctl_cli_ok(&upgraded.socket(), "{\"op\":\"status\"}");
    assert_eq!(
        status.get("slot").and_then(Value::as_u64),
        Some(20),
        "second daemon must resume at the shutdown slot"
    );
    let trace = run_to_completion(&upgraded.socket(), &upgraded.state_dir(), &mut second);

    assert_eq!(
        trace, reference,
        "upgraded run's final trace must be byte-identical to the uninterrupted run's"
    );
    // Both arms audit-logged their requests.
    assert!(uninterrupted.state_dir().join(REQUEST_LOG_NAME).exists());
    assert!(upgraded.state_dir().join(REQUEST_LOG_NAME).exists());

    // The completed state dir restarts too, past a lock file that names a
    // dead PID: it resumes at the end and reports the scenario complete.
    std::fs::write(upgraded.state_dir().join(LOCK_FILE_NAME), "4194999").unwrap();
    let mut third = spawn_daemon(&config, &one_thread);
    wait_ready(&upgraded.socket());
    let status = ctl_ok(&upgraded.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("complete").and_then(Value::as_bool), Some(true));
    ctl_ok(&upgraded.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut third).success());
}

/// Text no checkpoint may hold: layer scratch (key prefixes) …
const LAYER_SCRATCH: [&str; 3] = ["grad_", "cached_", "sampled_"];
/// … a fact the layout already stores once …
const STORED_TWICE: [&str; 6] = [
    "scenario_name",
    "master_seed",
    "enforcement_count",
    "managers",
    "coordinators",
    "nominal_capacity",
];
/// … and an agent's constant or copy, or an engine's sorted timeline and
/// its cursor.
const CONSTANTS_AND_COPIES: [&str; 17] = [
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
    "timeline",
    "next_event",
];

/// Scans the checkpoints a real daemon wrote for every forbidden key.
fn assert_checkpoints_hold_no_forbidden_key(state_dir: &Path) {
    let mut scanned = 0;
    for entry in std::fs::read_dir(state_dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !(name.starts_with("checkpoint_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(state_dir.join(&name)).unwrap();
        for prefix in LAYER_SCRATCH {
            assert!(
                !text.contains(&format!("\"{prefix}")),
                "{name} holds layer scratch `{prefix}…`"
            );
        }
        for key in STORED_TWICE.iter().chain(&CONSTANTS_AND_COPIES) {
            assert!(
                !text.contains(&format!("\"{key}\"")),
                "{name} holds `{key}`"
            );
        }
        scanned += 1;
    }
    assert!(scanned > 0, "no checkpoint in {}", state_dir.display());
}

#[test]
fn a_config_key_typo_is_a_startup_error_naming_the_key() {
    let dir = TestDir::new("typo");
    let config = dir.write_config();
    let text = std::fs::read_to_string(&config).unwrap();
    let typo = text.replacen("\"cells\"", "\"celsl\"", 1);
    assert_ne!(typo, text);
    std::fs::write(&config, typo).unwrap();
    let (status, stderr) = refused_start(&config, &dir.root.join("typo.err"));
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown key `celsl`"), "{stderr}");
}

#[test]
fn a_u64_max_window_runs_to_the_end_from_a_mid_run_slot() {
    // `window_slots` takes any u64; from slot 4 the window's end must
    // saturate, not overflow (a panic) or wrap behind the fleet (a spin).
    let dir = TestDir::new("window-max");
    let config = dir.write_config();
    let text = std::fs::read_to_string(&config).unwrap();
    let huge = text.replacen(
        "\"start_paused\": true,",
        &format!("\"start_paused\": true, \"window_slots\": {},", u64::MAX),
        1,
    );
    assert_ne!(huge, text);
    std::fs::write(&config, huge).unwrap();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":4}");
    ctl_ok(&dir.socket(), "{\"op\":\"resume\"}");
    let status = wait_exit(&mut daemon);
    assert_eq!(status.code(), Some(0), "daemon exited with {status:?}");
    let trace = std::fs::read_to_string(final_trace_path(&dir.state_dir(), SCENARIO))
        .expect("final trace written");
    assert_eq!(trace, reference_trace_plain());
}

/// A slot-16 checkpoint whose last cell's engine is doctored to sit at
/// slot 17: a file that parses but cannot restore.
fn last_cell_one_slot_ahead(json: String) -> String {
    let at = json
        .rfind("\"run\":{\"slot\":16,")
        .expect("an engine at slot 16");
    let doctored = format!(
        "{}{}",
        &json[..at],
        json[at..].replacen("\"slot\":16", "\"slot\":17", 1)
    );
    assert_eq!(
        json.matches("\"run\":{\"slot\":16,").count(),
        CELLS,
        "one engine cursor per cell"
    );
    doctored
}

/// A checkpoint whose last cell runs a 20-slot copy of the 48-slot fleet
/// scenario: a file that parses, and that used to resume and then panic
/// the daemon in the first window past slot 20.
fn last_cell_scenario_shortened(json: String) -> String {
    let at = json
        .rfind("\"engine\":{\"scenario\":{")
        .expect("a cell engine");
    let doctored = format!(
        "{}{}",
        &json[..at],
        json[at..].replacen("\"total_slots\":48,", "\"total_slots\":20,", 1)
    );
    assert_ne!(doctored, json, "the edit must change the document");
    doctored
}

#[test]
fn a_checkpoint_whose_header_contradicts_its_cells_is_skipped_with_the_reason() {
    // Two checkpoints a real fleet wrote; the newer one is then doctored
    // into a file that parses up to the flaw. The loader must refuse it,
    // and the daemon must say why, set it aside as `.rejected`, resume from
    // slot 8 and keep serving.
    type Doctor = fn(String) -> String;
    let doctored: [(&str, Doctor, &str); 3] = [
        // The last cell claims slot 17 while cell 0 sits at 16: `restore`.
        (
            "cells-apart",
            last_cell_one_slot_ahead,
            "cell 1 sits at slot 17, cell 0 at 16",
        ),
        // The first weight matrix is one element short of its shape — it
        // used to load and panic a rayon worker a slot later: `from_json`.
        (
            "short-matrix",
            |json| {
                let data = json.find("\"weights\":").unwrap();
                let first = data + json[data..].find("\"data\":[").unwrap() + "\"data\":[".len();
                let second = first + json[first..].find(',').unwrap() + 1;
                format!("{}{}", &json[..first], &json[second..])
            },
            "Matrix `data` holds 287 elements, its 32 rows × 9 columns need 288",
        ),
        // The last cell runs a scenario the fleet does not derive: `restore`.
        (
            "short-cell",
            last_cell_scenario_shortened,
            "cell 1 runs a scenario the fleet scenario `hotspot-shift` does not derive for it",
        ),
    ];
    for (tag, doctor, reason) in doctored {
        let dir = TestDir::new(tag);
        let config = dir.write_config();
        std::fs::create_dir_all(dir.state_dir()).unwrap();
        let mut fleet =
            ElasticFleet::new(fleet_by_name(SCENARIO).unwrap(), fleet_config()).unwrap();
        for slot in [8, 16] {
            fleet.advance_to(slot).unwrap();
            let json = fleet.checkpoint().to_json();
            let json = if slot == 16 { doctor(json) } else { json };
            std::fs::write(dir.state_dir().join(checkpoint_file_name(slot)), json).unwrap();
        }

        let stderr_path = dir.root.join("stderr.log");
        let log = std::fs::File::create(&stderr_path).unwrap();
        let mut daemon = spawn_daemon_with_stderr(&config, &[], log.into());
        wait_ready(&dir.socket());
        let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
        assert_eq!(status.get("slot").and_then(Value::as_u64), Some(8), "{tag}");
        let stepped = ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":9}");
        assert_eq!(
            stepped.get("slot").and_then(Value::as_u64),
            Some(9),
            "{tag}"
        );
        ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
        assert!(wait_exit(&mut daemon).success());

        let stderr = std::fs::read_to_string(&stderr_path).unwrap();
        let skipped = stderr
            .lines()
            .find(|l| l.contains("skipping checkpoint") && l.contains(&checkpoint_file_name(16)))
            .unwrap_or_else(|| panic!("{tag}: no skip line for slot 16 in: {stderr}"));
        assert!(skipped.contains(reason), "{tag}: {skipped}");
        assert!(stderr.contains("(slot 8)"), "{tag}: {stderr}");
        let rejected = format!("{}.rejected", checkpoint_file_name(16));
        assert!(
            dir.state_dir().join(&rejected).exists(),
            "{tag}: no {rejected}"
        );
    }
}

#[test]
fn unrestorable_newer_checkpoints_never_cost_the_daemon_its_good_one() {
    // One good checkpoint at slot 8 and two bad newer ones, with room to
    // keep a single file. The daemon resumes from slot 8 and writes slot 9;
    // if the bad files still counted, the retention sweep would keep slot 24
    // and delete both good files, and the restart would begin from scratch.
    let dir = TestDir::new("retain-bad");
    let config = dir.write_config_retaining(1);
    std::fs::create_dir_all(dir.state_dir()).unwrap();
    let mut fleet = ElasticFleet::new(fleet_by_name(SCENARIO).unwrap(), fleet_config()).unwrap();
    fleet.advance_to(8).unwrap();
    std::fs::write(
        dir.state_dir().join(checkpoint_file_name(8)),
        fleet.checkpoint().to_json(),
    )
    .unwrap();
    fleet.advance_to(16).unwrap();
    let contradictory = last_cell_one_slot_ahead(fleet.checkpoint().to_json());
    for (slot, body) in [(16, contradictory.as_str()), (24, "not a checkpoint")] {
        std::fs::write(dir.state_dir().join(checkpoint_file_name(slot)), body).unwrap();
    }

    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(8));
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":9}");
    ctl_ok(&dir.socket(), "{\"op\":\"checkpoint\"}");
    daemon.kill().unwrap();
    let _ = daemon.wait();

    let mut names: Vec<String> = std::fs::read_dir(dir.state_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("checkpoint_"))
        .collect();
    names.sort();
    let expected = [
        checkpoint_file_name(9),
        format!("{}.rejected", checkpoint_file_name(16)),
        format!("{}.rejected", checkpoint_file_name(24)),
    ];
    assert_eq!(names, expected);

    let mut revived = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(
        status.get("slot").and_then(Value::as_u64),
        Some(9),
        "the restart must resume from the checkpoint written after the skip"
    );
    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut revived).success());
}

#[test]
fn sigkill_mid_run_resumes_from_the_cadence_checkpoint() {
    let dir = TestDir::new("kill");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    // Crossing slot 8 (the cadence) writes checkpoint_0000000012.json.
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":12}");
    assert!(dir.state_dir().join("checkpoint_0000000012.json").exists());
    daemon.kill().unwrap();
    let _ = daemon.wait();
    // The crash left the lock file behind, but not the lock.
    assert!(dir.state_dir().join(LOCK_FILE_NAME).exists());
    drop(StateLock::acquire(&dir.state_dir()).expect("the killed daemon's lock is free"));

    let mut revived = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(12));
    let trace = run_to_completion(&dir.socket(), &dir.state_dir(), &mut revived);
    assert_eq!(
        trace,
        reference_trace_plain(),
        "post-crash trace must match an uninterrupted run"
    );
}

#[test]
fn sigkill_mid_checkpoint_write_falls_back_to_the_previous_checkpoint() {
    use std::io::Read as _;
    let dir = TestDir::new("torn");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":4}");
    // A complete checkpoint at slot 4.
    ctl_ok(&dir.socket(), "{\"op\":\"checkpoint\"}");
    assert!(dir.state_dir().join(checkpoint_file_name(4)).exists());
    let stepped = ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":6}");
    assert_eq!(stepped.get("slot").and_then(Value::as_u64), Some(6));

    // A FIFO where the slot-6 checkpoint's temp file goes: the daemon's
    // create blocks until this test opens the read end, and its write
    // stalls once the pipe is full, so it is mid-write until killed.
    let tmp = dir
        .state_dir()
        .join(format!("{}.tmp", checkpoint_file_name(6)));
    let made = Command::new("mkfifo").arg(&tmp).status().unwrap();
    assert!(made.success(), "mkfifo {}", tmp.display());
    let socket = dir.socket();
    let writer = std::thread::spawn(move || {
        // The daemon dies mid-request; the failure is the point.
        let _ = send_request(&socket, "{\"op\":\"checkpoint\"}");
    });
    // Opening the read end blocks until the daemon opens the write end; a
    // daemon that never does fails the test instead of hanging it.
    let (opened, open) = std::sync::mpsc::channel();
    let fifo = tmp.clone();
    std::thread::spawn(move || opened.send(std::fs::File::open(fifo)));
    let mut torn = open
        .recv_timeout(Duration::from_secs(60))
        .expect("the daemon never opened the checkpoint's temp file")
        .unwrap();
    let mut head = [0u8; 4096];
    torn.read_exact(&mut head).unwrap();
    assert!(
        head.starts_with(b"{\"format_version\":"),
        "{}",
        String::from_utf8_lossy(&head[..64])
    );
    daemon.kill().unwrap();
    let _ = daemon.wait();
    drop(torn);
    writer.join().unwrap();
    // The torn write never reached checkpoint_0000000006.json.
    assert!(!dir.state_dir().join(checkpoint_file_name(6)).exists());

    // Restart: the daemon must resume from slot 4 — the newest *complete*
    // checkpoint — and finish bit-exactly.
    let mut revived = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(
        status.get("slot").and_then(Value::as_u64),
        Some(4),
        "must resume from the last complete checkpoint, not the torn one"
    );
    let trace = run_to_completion(&dir.socket(), &dir.state_dir(), &mut revived);
    assert_eq!(trace, reference_trace_plain());
    // The revived daemon's first retention sweep took the orphan.
    assert!(!tmp.exists());
}

#[test]
fn live_control_verbs_round_trip_against_a_real_daemon() {
    let dir = TestDir::new("verbs");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":10}");

    // Telemetry reflects the stepped window.
    let telemetry = ctl_ok(&dir.socket(), "{\"op\":\"telemetry\",\"window\":10}");
    assert_eq!(telemetry.get("slot").and_then(Value::as_u64), Some(10));
    let cells = match telemetry.get("cells") {
        Some(Value::Arr(cells)) => cells,
        other => panic!("cells should be an array, got {other:?}"),
    };
    assert_eq!(cells.len(), CELLS);
    for cell in cells {
        assert_eq!(cell.get("window_slots").and_then(Value::as_u64), Some(10));
        assert!(cell.get("window_avg_cost").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    // Renegotiate a live slice's SLA, then tear it down; the second
    // teardown of the same slice is a skip, not an error.
    let renegotiate = ctl_ok(
        &dir.socket(),
        "{\"op\":\"renegotiate\",\"cell\":0,\"slice\":0,\"cost_threshold\":0.5}",
    );
    assert_eq!(
        renegotiate.get("outcome").and_then(Value::as_str),
        Some("applied")
    );
    let teardown = ctl_ok(
        &dir.socket(),
        "{\"op\":\"teardown\",\"cell\":0,\"slice\":0}",
    );
    assert_eq!(
        teardown.get("outcome").and_then(Value::as_str),
        Some("applied")
    );
    let again = ctl_ok(
        &dir.socket(),
        "{\"op\":\"teardown\",\"cell\":0,\"slice\":0}",
    );
    assert_eq!(
        again.get("outcome").and_then(Value::as_str),
        Some("skipped")
    );

    // Unknown ops and unknown cells are errors, not crashes.
    let bad = ctl(&dir.socket(), "{\"op\":\"frobnicate\"}");
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let bad = ctl(
        &dir.socket(),
        "{\"op\":\"teardown\",\"cell\":9,\"slice\":0}",
    );
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));

    // Checkpoint retention: force several checkpoints and verify GC keeps
    // only the configured two newest.
    for to_slot in [16, 24, 32] {
        ctl_ok(
            &dir.socket(),
            &format!("{{\"op\":\"step\",\"to_slot\":{to_slot}}}"),
        );
        ctl_ok(&dir.socket(), "{\"op\":\"checkpoint\"}");
    }
    let checkpoints: Vec<String> = std::fs::read_dir(dir.state_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("checkpoint_") && n.ends_with(".json"))
        .collect();
    assert_eq!(
        checkpoints.len(),
        2,
        "retention must keep exactly two: {checkpoints:?}"
    );
    assert!(checkpoints.contains(&"checkpoint_0000000024.json".to_string()));
    assert!(checkpoints.contains(&"checkpoint_0000000032.json".to_string()));

    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
}

/// Opens a raw client connection, writes `payload` verbatim (no newline
/// appended, no JSON discipline) and returns the first response line, or
/// `None` if the daemon closed the connection without answering.
fn raw_request(socket: &Path, payload: &[u8]) -> Option<String> {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    let stream = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    write_half.write_all(payload).expect("send");
    // Shut the write side so an oversized line (which the daemon abandons
    // mid-read) still yields EOF to its reader and a response to us.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write side");
    let mut response = String::new();
    let mut reader = BufReader::new(stream);
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => None,
        Ok(_) => {
            // Nothing may follow the one response line on this connection.
            let mut rest = Vec::new();
            let _ = reader.read_to_end(&mut rest);
            Some(response.trim_end().to_string())
        }
    }
}

#[test]
fn garbage_truncated_and_oversized_requests_never_kill_the_daemon() {
    let dir = TestDir::new("garbage");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());

    // Plain garbage, truncated JSON, wrong types, unknown ops: every one
    // gets a JSON error response on its own connection.
    for payload in [
        "not json at all\n".as_bytes(),
        b"{\"op\":\"sta\n",
        b"{\"op\":\"status\"\n",
        b"{\"op\":42}\n",
        b"{\"op\":\"admit\"}\n",
        b"{\"op\":\"admit\",\"kind\":\"xxl\"}\n",
        b"{\"op\":\"step\",\"to_slot\":\"many\"}\n",
        b"{\"op\":\"admit\",\"kind\":\"mar\",\"peak_rate\":-5}\n",
        b"{\"op\":\"admit\",\"kind\":\"mar\",\"peak_rate\":1e400}\n",
        b"{\"op\":\"admit\",\"kind\":\"mar\",\"cost_threshold\":7}\n",
        b"{\"op\":\"admit\",\"kind\":\"mar\",\"cost_threshold\":-1}\n",
        b"[1,2,3]\n",
        b"\n\n{\"op\":\"status\"}\n",
    ] {
        let response = raw_request(&dir.socket(), payload)
            .unwrap_or_else(|| panic!("no response to {:?}", String::from_utf8_lossy(payload)));
        let value: Value = serde_json::from_str(&response).expect("response is JSON");
        assert!(
            value.get("ok").and_then(Value::as_bool).is_some(),
            "response must be a protocol object: {response}"
        );
    }

    // Invalid UTF-8 gets an error response and the connection survives.
    let response = raw_request(&dir.socket(), b"\xff\xfe garbage bytes \xff\n").unwrap();
    assert!(response.contains("not valid UTF-8"), "{response}");

    // An oversized line (cap + margin, no newline until the end) must be
    // answered with a bounded-memory error, not buffered indefinitely.
    let mut huge = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1024];
    huge.push(b'\n');
    let response = raw_request(&dir.socket(), &huge).expect("oversized line gets a response");
    assert!(
        response.contains("exceeds") && response.contains("\"ok\":false"),
        "{response}"
    );

    // A huge line that IS valid JSON is still rejected at the transport
    // cap — request size is bounded before parsing ever sees it.
    let padded = format!(
        "{{\"op\":\"status\",\"pad\":\"{}\"}}\n",
        "y".repeat(MAX_REQUEST_LINE_BYTES)
    );
    let response =
        raw_request(&dir.socket(), padded.as_bytes()).expect("padded line gets a response");
    assert!(response.contains("exceeds"), "{response}");

    // Nothing but opening brackets, small enough for the transport cap to
    // let through: the parser refuses at 128 levels instead of recursing
    // once per bracket (30 000 of them used to overflow the daemon's stack).
    for depth in [30_000, MAX_REQUEST_LINE_BYTES] {
        let response = raw_request(&dir.socket(), "[".repeat(depth).as_bytes())
            .expect("over-deep line gets a response");
        assert!(
            response.contains("nesting deeper than 128") && response.contains("\"ok\":false"),
            "{response}"
        );
    }

    // After all of that abuse the daemon still serves real requests.
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(0));
    ctl_ok(&dir.socket(), "{\"op\":\"step\",\"to_slot\":4}");
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(4));

    // A spec the admission path would panic on is answered with the
    // reason once the clock has moved too, and the daemon serves on.
    for (line, reason) in [
        (
            "{\"op\":\"admit\",\"kind\":\"mar\",\"peak_rate\":-5}",
            "peak_rate must be positive and finite, got -5",
        ),
        (
            "{\"op\":\"admit\",\"kind\":\"mar\",\"peak_rate\":1e400}",
            "peak_rate must be positive and finite, got inf",
        ),
        (
            "{\"op\":\"admit\",\"kind\":\"mar\",\"cost_threshold\":7}",
            "cost_threshold must be in [0, 1], got 7",
        ),
        (
            "{\"op\":\"admit\",\"kind\":\"mar\",\"cost_threshold\":-1}",
            "cost_threshold must be in [0, 1], got -1",
        ),
    ] {
        let response = ctl(&dir.socket(), line);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        let error = response.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(reason), "{line}: {error}");
        ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    }

    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
}

#[test]
fn every_request_log_entry_is_json_even_when_the_request_is_not() {
    let dir = TestDir::new("request-log");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());

    let response = raw_request(&dir.socket(), b"hello\n").expect("a response to `hello`");
    assert!(response.contains("\"ok\":false"), "{response}");
    ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());

    let log = std::fs::read_to_string(dir.state_dir().join(REQUEST_LOG_NAME)).unwrap();
    let entries: Vec<Value> = log
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    let requests: Vec<&str> = entries
        .iter()
        .map(|entry| entry.get("request").and_then(Value::as_str).unwrap())
        .collect();
    // `wait_ready`'s own status probes come first.
    assert!(
        requests.ends_with(&["hello", "{\"op\":\"status\"}", "{\"op\":\"shutdown\"}"]),
        "{requests:?}"
    );
    for entry in &entries {
        assert!(entry.get("response").and_then(|r| r.get("ok")).is_some());
    }
}

/// Sends one request on a fresh connection and waits at most 30 s for the
/// answer, so a control plane that something holds up fails the test
/// instead of hanging it.
fn ctl_within_30s(socket: &Path, line: &str) -> Value {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set a read timeout");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .unwrap_or_else(|e| panic!("no answer to {line} within 30 s: {e}"));
    let value: Value = serde_json::from_str(&response).expect("response is JSON");
    assert_eq!(
        value.get("ok").and_then(Value::as_bool),
        Some(true),
        "request {line} failed: {value:?}"
    );
    value
}

#[test]
fn a_stuck_client_blocks_no_one() {
    use std::io::Write as _;
    let dir = TestDir::new("stuck-client");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());

    // One client says nothing; another sends half a line and stalls. Both
    // stay connected while fresh connections are served.
    let silent = std::os::unix::net::UnixStream::connect(dir.socket()).unwrap();
    let mut stalled = std::os::unix::net::UnixStream::connect(dir.socket()).unwrap();
    stalled.write_all(b"{\"op\":\"sta").unwrap();

    let status = ctl_within_30s(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(0));
    let stepped = ctl_within_30s(&dir.socket(), "{\"op\":\"step\",\"to_slot\":2}");
    assert_eq!(stepped.get("slot").and_then(Value::as_u64), Some(2));
    let status = ctl_within_30s(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(2));
    ctl_within_30s(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
    drop((silent, stalled));
}

/// User plus system CPU time of process `pid`, in clock ticks (100 per
/// second on Linux), from `/proc/<pid>/stat`.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // The command name is parenthesised and may hold spaces; the fields
    // after it start at field 3, so utime (14) and stime (15) are the
    // 12th and 13th.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Asserts that process `pid` uses under 0.2 s of CPU in the next 2 s.
fn assert_idle_for_2s(pid: u32, when: &str) {
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_ticks(pid) - before;
    assert!(
        used < 20,
        "{when}, the daemon used {used} ticks of CPU in 2 s"
    );
}

#[test]
fn an_accept_error_is_reported_and_retried_without_spinning() {
    let dir = TestDir::new("accept-error");
    let config = dir.write_config();
    let stderr_path = dir.root.join("stderr.log");
    // 48 descriptors: 64 idle clients exhaust them, so `accept` fails with
    // EMFILE while they stay connected.
    let mut daemon = Daemon(
        Command::new("sh")
            .arg("-c")
            .arg("ulimit -n 48; exec \"$0\" run \"$1\"")
            .arg(env!("CARGO_BIN_EXE_fleetd"))
            .arg(&config)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&stderr_path).unwrap())
            .spawn()
            .expect("cannot spawn fleetd under sh"),
    );
    wait_ready(&dir.socket());

    let held: Vec<_> = (0..64)
        .map(|_| std::os::unix::net::UnixStream::connect(dir.socket()).expect("connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let reported = loop {
        let stderr = std::fs::read_to_string(&stderr_path).unwrap();
        if let Some(line) = stderr
            .lines()
            .find(|l| l.contains("cannot accept a control connection"))
        {
            break line.to_string();
        }
        assert!(
            Instant::now() < deadline,
            "no accept error reported: {stderr}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        reported.contains("Too many open files") && reported.contains("retrying in"),
        "{reported}"
    );
    // While `accept` keeps failing, the daemon backs off instead of
    // spinning on it.
    assert_idle_for_2s(daemon.id(), "while accept fails");
    drop(held);

    // Accepting resumed: the daemon answers, and idle it does not spin.
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(0));
    assert_idle_for_2s(daemon.id(), "after the clients left");
    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
}

/// Voluntary context switches of process `pid`'s main thread so far, from
/// `/proc/<pid>/task/<pid>/status`: one per time the thread slept.
fn main_thread_sleeps(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/status")).unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line");
    line.trim().parse().unwrap()
}

#[test]
fn a_paused_daemon_sleeps_until_a_request_arrives() {
    let dir = TestDir::new("paused-sleeps");
    let config = dir.write_config();
    let mut daemon = spawn_daemon(&config, &[]);
    wait_ready(&dir.socket());

    // Paused, the serve loop waits on its channel without a timeout: an
    // idle second wakes its thread at most for the last request's tail,
    // where a 50 ms poll would wake it about 19 times.
    let before = main_thread_sleeps(daemon.id());
    std::thread::sleep(Duration::from_secs(1));
    let woke = main_thread_sleeps(daemon.id()) - before;
    assert!(
        woke <= 2,
        "a paused daemon's main thread woke {woke} times in 1 s"
    );
    let status = ctl_ok(&dir.socket(), "{\"op\":\"status\"}");
    assert_eq!(status.get("slot").and_then(Value::as_u64), Some(0));
    ctl_ok(&dir.socket(), "{\"op\":\"shutdown\"}");
    assert!(wait_exit(&mut daemon).success());
}
