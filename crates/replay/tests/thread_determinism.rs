//! The thread-count determinism gate: `stress-many-slices` (12 slices, the
//! scenario built to exercise the rayon fan-out) must emit byte-identical
//! telemetry with the worker pool forced to one thread and at the machine
//! default. CI additionally runs the same comparison across separate
//! `replay_check` processes, for every built-in.
//!
//! This is deliberately the **only** test in this binary: the vendored
//! rayon reads `RAYON_NUM_THREADS` on every call, and mutating the process
//! environment is only safe while no other thread reads it concurrently.

use onslicing_replay::record_scenario;
use onslicing_scenario::{builtin, ScenarioConfig};

#[test]
fn stress_scenario_trace_is_byte_identical_across_thread_counts() {
    let record = || {
        let (trace, _) =
            record_scenario(builtin::stress_many_slices(), ScenarioConfig::default()).unwrap();
        trace.to_json()
    };
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    let default_threads = record();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single_thread = record();
    // Restore whatever the harness was launched with (CI runs the whole
    // suite under RAYON_NUM_THREADS=1 in one job) instead of clobbering it.
    match previous {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert_eq!(
        default_threads, single_thread,
        "telemetry must not depend on the rayon worker count"
    );
}
