//! `run()` leaves no control thread behind: every thread it started to
//! accept or serve control connections is gone once `run()` has returned
//! and its clients have hung up. This file holds one test, so no other
//! test's threads share the process whose threads it counts.

use std::path::Path;

use onslicing_fleet::ElasticFleetConfig;
use onslicing_fleetd::{run, send_request, CheckpointPolicy, ExitReason, FleetdConfig};

/// The process's threads, and how many of them are control threads.
fn threads() -> (usize, usize) {
    let mut total = 0;
    let mut control = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        total += 1;
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        if comm.trim_end() == "fleetd-control" {
            control += 1;
        }
    }
    (total, control)
}

/// The thread count once the control threads have ended (10 s at most).
fn thread_count_without_control_threads() -> usize {
    for _ in 0..1000 {
        let (total, control) = threads();
        if control == 0 {
            return total;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("control threads still running: {:?}", threads());
}

fn ctl_ok(socket: &Path, line: &str) {
    let response = send_request(socket, line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert!(response.contains("\"ok\":true"), "{line}: {response}");
}

/// Runs the daemon in-process, paused, for one `status` and a `shutdown`.
fn run_once(config: &FleetdConfig) -> usize {
    let socket = config.control_socket.clone();
    let client = std::thread::spawn(move || {
        for _ in 0..6000 {
            if send_request(&socket, "{\"op\":\"status\"}").is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        ctl_ok(&socket, "{\"op\":\"status\"}");
        ctl_ok(&socket, "{\"op\":\"shutdown\"}");
    });
    assert_eq!(run(config.clone()), Ok(ExitReason::Shutdown));
    client.join().unwrap();
    thread_count_without_control_threads()
}

#[test]
fn run_leaves_no_control_thread_behind() {
    let dir = std::env::temp_dir().join(format!("fleetd-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetdConfig {
        scenario: "hotspot-shift".to_string(),
        fleet: ElasticFleetConfig::new(2).with_seed(17),
        state_dir: dir.clone(),
        control_socket: dir.join("control.sock"),
        start_paused: true,
        window_slots: 1,
        checkpoint: CheckpointPolicy::default(),
    };
    // The first run may start the process-wide rayon pool; the second
    // starts nothing that outlives it.
    let after_first = run_once(&config);
    let after_second = run_once(&config);
    assert_eq!(
        after_second, after_first,
        "a daemon run left threads behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
