//! # onslicing-replay
//!
//! Deterministic checkpoint/replay and telemetry for the OnSlicing
//! reproduction — the audit layer the online-learning claims rest on: a
//! full deployment can be snapshotted mid-scenario, resumed bit-for-bit in
//! another process, and its per-slot metric traces regression-tested against
//! committed goldens.
//!
//! * [`checkpoint`] — [`Checkpoint`]: a versioned JSON snapshot of a
//!   [`onslicing_scenario::ScenarioEngine`] between slots (agent networks
//!   and Adam moments, rollout buffers, Lagrangian state, per-slice
//!   environment/simulator/RNG streams, domain allocations, run-loop
//!   cursor). `capture` → `save` → `load` → `restore` resumes the scenario
//!   exactly where it left off. It also holds [`from_versioned_json`], the
//!   one loader every versioned document in the workspace goes through
//!   (both checkpoint and both trace formats): parse once, check the
//!   `format_version` stamp, then decode the same tree.
//! * [`telemetry`] — [`TelemetryRecorder`]: a
//!   [`onslicing_scenario::SlotObserver`] that records per-slot, per-slice
//!   metrics (cost, shaped reward, utilization, Lagrangian multiplier,
//!   baseline switches) and per-episode outcomes, finalized into a
//!   [`TelemetryTrace`] with per-slice percentile summaries — the
//!   `TRACE_<scenario>.json` artifact.
//! * [`golden`] — [`diff_against_file`], the one gate of a pinned
//!   artifact: a freshly rendered JSON tree against the committed file's,
//!   within the caller's fixed tolerance. `onslicing-bench`'s
//!   `replay_check golden` holds the golden traces with it and
//!   `experiments --check` the experiments ledger (see the README for how
//!   to regenerate either when behavior intentionally changes).
//! * [`values`] — [`diff_values`] and [`first_non_finite`], the one walk
//!   over a `serde::Value` tree every pinned document is compared with (the
//!   goldens, the experiments ledger, `replay_check resume` and the chaos
//!   harness): each drift or non-finite float is named by its JSON path
//!   (`slots[3].slices[1].cost`).
//! * [`fsio`] — crash-safe snapshot file I/O: atomic writes (temp file +
//!   fsync + rename), the slot-stamped checkpoint naming convention, and
//!   the retention GC a cadence-checkpointing daemon runs over its state
//!   dir.

pub mod checkpoint;
pub mod fsio;
pub mod golden;
pub mod telemetry;
pub mod values;

pub use checkpoint::{from_versioned_json, Checkpoint, CHECKPOINT_FORMAT_VERSION};
pub use fsio::{
    atomic_write, checkpoint_file_name, gc_checkpoint_dir, list_checkpoint_slots,
    parse_checkpoint_slot,
};
pub use golden::{check_against_golden, diff_against_file, write_golden};
pub use telemetry::{
    percentile, record_scenario, EpisodeTelemetry, MigrationEvent, SliceSlotTelemetry,
    SliceTelemetrySummary, SlotTelemetry, TelemetryRecorder, TelemetryTrace, TRACE_FORMAT_VERSION,
};
pub use values::{diff_values, first_non_finite, Tolerance, ValueDiff};
