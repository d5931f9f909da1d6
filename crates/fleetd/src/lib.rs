//! # onslicing-fleetd
//!
//! The elastic fleet as a long-running **service daemon**. Everything the
//! rest of the workspace runs as a one-shot simulation —
//! [`onslicing_fleet::ElasticFleet::run`] building a fleet, stepping it
//! to the end and aggregating a report — `fleetd` runs continuously:
//!
//! * **Config file** ([`config`]) — a `config.json` names the built-in
//!   fleet scenario, the fleet shape (cells, seed, balancer tuning), the
//!   state directory, the control-socket path and the checkpoint
//!   cadence/retention. Read by the control protocol's own field reader,
//!   which treats typos and repeated keys as startup errors.
//! * **Exclusive state dir** ([`lock`]) — one daemon per state directory,
//!   enforced by a PID lock file; locks left by crashed daemons are
//!   detected (dead PID) and reclaimed automatically.
//! * **Live control plane** ([`protocol`], [`daemon`]) — line-delimited
//!   JSON over a Unix domain socket: `admit`, `teardown`, `renegotiate`,
//!   `status`, `telemetry`, `checkpoint`, `pause`/`resume`/`step` and
//!   `shutdown`. Requests apply only at fleet sync boundaries through the
//!   same admission machinery as scripted events, and every request is
//!   audit-logged with the slot it applied at — a daemon run is a pure
//!   function of (config, checkpoint, request log).
//! * **Bit-exact restarts** — state is checkpointed crash-safely on a
//!   slot cadence via [`onslicing_fleet::FleetCheckpoint`]; on startup the
//!   daemon resumes from the newest complete checkpoint. Because each
//!   cell's telemetry recorder travels inside the checkpoint, the final
//!   trace of a stopped-upgraded-resumed daemon is **byte-identical** to
//!   an uninterrupted run's — the rolling-upgrade drill CI enforces.
//!
//! No request path may panic: a bad request or file degrades to an error
//! response, so `unwrap`, `expect` and `panic!` are denied outside tests.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod config;
pub mod daemon;
pub mod lock;
pub mod protocol;

pub use config::{CheckpointPolicy, FleetdConfig};
pub use daemon::{
    final_trace_path, run, send_request, ExitReason, MAX_REQUEST_LINE_BYTES, REQUEST_LOG_NAME,
};
pub use lock::{StateLock, LOCK_FILE_NAME};
pub use protocol::{error_response, ok_response, Request, DEFAULT_TELEMETRY_WINDOW};
