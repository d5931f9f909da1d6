//! The environment record stamped on every output, so that a disagreeing
//! pair of runs can be diagnosed from the JSON alone.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Version of the harness itself (bump when a metric's definition changes).
pub const HARNESS_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Rayon pool width the harness pins unless the caller already set one.
pub const DEFAULT_RAYON_THREADS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct EnvRecord {
    pub nproc: usize,
    pub rayon_threads: usize,
    pub loadavg_1m: f64,
    pub git_commit: String,
    pub seed: u64,
    pub harness_version: &'static str,
    /// What [`wake_processors`] saw before the first round.
    pub wake: Wake,
}

impl EnvRecord {
    /// Reads the environment. Call after [`pin_rayon_threads`].
    pub fn capture(seed: u64, wake: Wake) -> Self {
        Self {
            nproc: nproc(),
            rayon_threads: rayon_threads(),
            loadavg_1m: loadavg_1m(),
            git_commit: git_commit(),
            seed,
            harness_version: HARNESS_VERSION,
            wake,
        }
    }

    /// The warning (not a failure) for a machine that is already busy.
    pub fn load_warning(&self) -> Option<String> {
        (self.loadavg_1m > self.nproc as f64).then(|| {
            format!(
                "warning: 1-minute load average {:.2} exceeds {} processors; timings will be noisy",
                self.loadavg_1m, self.nproc
            )
        })
    }

    /// The warning (not a failure) for a machine whose processors the
    /// parallel phases cannot have side by side.
    pub fn wake_warning(&self) -> Option<String> {
        (self.wake.slowdown > SIDE_BY_SIDE).then(|| {
            format!(
                "warning: side by side, threads still take {:.2} times as long as alone after {:.1} s \
                 of load; parallel phases (set-up, the fleet workloads) will read slow",
                self.wake.slowdown, self.wake.seconds
            )
        })
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rayon_threads\":{},\"loadavg_1m\":{},\"wake_s\":{},\"side_by_side_slowdown\":{},\
             \"git_commit\":\"{}\",\"seed\":{},\"harness_version\":\"{}\"}}",
            self.nproc,
            self.rayon_threads,
            crate::metrics::json_f64(self.loadavg_1m),
            crate::metrics::json_f64(self.wake.seconds),
            crate::metrics::json_f64(self.wake.slowdown),
            self.git_commit,
            self.seed,
            self.harness_version
        )
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How [`wake_processors`] left the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wake {
    /// How long it loaded the processors.
    pub seconds: f64,
    /// Wall of a fixed piece of arithmetic run on every pool thread at once
    /// over its wall alone, as last measured: 1.0 when each thread has a
    /// processor of its own, 2.0 when two share one.
    pub slowdown: f64,
}

impl Default for Wake {
    fn default() -> Self {
        Self {
            seconds: 0.0,
            slowdown: 1.0,
        }
    }
}

/// The slowdown up to which threads count as running side by side.
const SIDE_BY_SIDE: f64 = 1.3;
/// How long [`wake_processors`] keeps trying.
const WAKE_LIMIT: Duration = Duration::from_secs(3);

/// A fixed piece of arithmetic; returns its wall.
fn spin(iterations: u64) -> Duration {
    let start = Instant::now();
    let mut x = 0u64;
    for i in 0..iterations {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    start.elapsed()
}

/// Loads as many threads as the pool is wide until they run side by side.
///
/// The sandbox hands this virtual machine its second processor only after
/// both have been busy for about a second, and takes it back when the
/// machine idles: until then two threads take twice as long each. What ran
/// before the benchmark would thus decide whether a parallel phase shorter
/// than that second — every set-up, which pre-trains one slice per thread —
/// reads 0.055 s or 0.105 s, for minutes on end. So every invocation first
/// puts the machine into the one state a run can rely on. One busy thread
/// (the slot loop) then keeps the grant between the parallel phases, but
/// not the idle processor's speed: the first set-up after it reads 20 ms
/// where the next reads 13 ms. Hence once more before every round, which
/// takes 0.05 s when the processors are awake.
pub fn wake_processors() -> Wake {
    let threads = rayon_threads().min(nproc());
    if threads < 2 {
        return Wake::default();
    }
    let start = Instant::now();
    // About 10 ms of arithmetic, timed alone (best of three).
    let iterations = (1u64 << 20) * 10_000 / (spin(1 << 20).as_micros() as u64).max(1);
    let alone = (0..3).map(|_| spin(iterations)).min().unwrap_or_default();
    let mut side_by_side = 0;
    let mut slowdown = f64::INFINITY;
    while side_by_side < 2 && start.elapsed() < WAKE_LIMIT {
        let slowest = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads)
                .map(|_| scope.spawn(|| spin(iterations)))
                .collect();
            let mine = spin(iterations);
            others
                .into_iter()
                .map(|h| h.join().expect("a spinning thread does not panic"))
                .fold(mine, Duration::max)
        });
        slowdown = slowest.as_secs_f64() / alone.as_secs_f64().max(f64::MIN_POSITIVE);
        side_by_side = if slowdown <= SIDE_BY_SIDE {
            side_by_side + 1
        } else {
            0
        };
    }
    Wake {
        seconds: start.elapsed().as_secs_f64(),
        slowdown,
    }
}

/// Pins the rayon pool to [`DEFAULT_RAYON_THREADS`] unless overridden. Must
/// run before the first parallel call: the pool reads the variable once.
pub fn pin_rayon_threads() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", DEFAULT_RAYON_THREADS.to_string());
    }
}

/// Width of the rayon pool, as [`pin_rayon_threads`] or the caller set it.
pub fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RAYON_THREADS)
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The checked-out commit, or `unknown` outside a git work tree (the
/// driver's checkout is a plain directory).
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| s.len() == 40 && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| {
                    v.split_whitespace()
                        .next()
                        .and_then(|kb| kb.parse::<f64>().ok())
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_serialises_every_field() {
        let env = EnvRecord {
            nproc: 2,
            rayon_threads: 2,
            loadavg_1m: 3.5,
            git_commit: "unknown".to_string(),
            seed: 7,
            harness_version: HARNESS_VERSION,
            wake: Wake {
                seconds: 3.0,
                slowdown: 1.9,
            },
        };
        let json: serde::Value = serde_json::from_str(&env.to_json()).unwrap();
        for key in [
            "nproc",
            "rayon_threads",
            "loadavg_1m",
            "wake_s",
            "side_by_side_slowdown",
            "git_commit",
            "seed",
            "harness_version",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert!(env.load_warning().is_some() && env.wake_warning().is_some());
        let quiet = EnvRecord {
            loadavg_1m: 0.5,
            wake: Wake::default(),
            ..env
        };
        assert!(quiet.load_warning().is_none() && quiet.wake_warning().is_none());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
