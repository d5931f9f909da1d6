//! The daemon: an [`ElasticFleet`] run continuously as a service with a
//! live control plane.
//!
//! One OS process per state directory, enforced by [`StateLock`]: a
//! kernel file lock held until [`run`] returns or the process dies,
//! however it dies. The main loop alternates between draining the control channel and advancing
//! the fleet one window of slots; control requests therefore apply only at
//! window boundaries — which are fleet sync boundaries — through the same
//! admission machinery the scripted paths use. Because every request is
//! logged with the slot it applied at (`requests.log`), a daemon run is a
//! pure function of (config, checkpoint, request log): replaying the log
//! with `step`/`pause` pins produces the same bytes.
//!
//! Durability: a [`FleetCheckpoint`] — the live fleet's own state, lent by
//! [`ElasticFleet::checkpoint`] and serialised in place — is written
//! crash-safely every time the global slot crosses a
//! `[checkpoint] cadence_slots` boundary, on
//! demand (`checkpoint`), at graceful shutdown and at completion; older
//! files beyond `[checkpoint] retain` are garbage-collected. On startup
//! the daemon resumes from the **newest complete** checkpoint — torn
//! `*.tmp` partials are never even considered (the atomic-rename protocol
//! keeps them out of the namespace), and an unreadable, stale-format,
//! config-incompatible or self-inconsistent file (cells at different
//! slots, a cell that does not run what the config derives — see
//! [`FleetCheckpoint::restore`]) falls back to the next older one with the
//! reason on stderr and is renamed `checkpoint_<slot>.json.rejected`, which
//! the retention sweep neither counts nor deletes. When the
//! scenario completes, the daemon writes the final fleet trace
//! (`TRACE_FLEET_<scenario>.json`) and exits; re-starting a completed
//! state dir re-derives the identical trace and exits again — restart is
//! idempotent at every point of the lifecycle.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use serde::Value;

use onslicing_fleet::{ElasticFleet, FleetCheckpoint, MigrationRecord};
use onslicing_replay::{checkpoint_file_name, gc_checkpoint_dir, list_checkpoint_slots};
use onslicing_scenario::{fleet_by_name, LiveEventOutcome, ScenarioEvent, FLEET_BUILTIN_NAMES};

use crate::config::FleetdConfig;
use crate::lock::StateLock;
use crate::protocol::{error_response, ok_response, Request};

/// Name of the request audit log inside the state directory.
pub const REQUEST_LOG_NAME: &str = "requests.log";

/// Longest accepted control-request line, bytes (newline included). A
/// real request is a few hundred bytes; anything bigger is a client bug
/// or garbage piped at the socket, and the daemon must answer it with an
/// error response at bounded memory cost — never buffer without limit.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// One queued control-plane message: the raw request line and the channel
/// the connection thread is blocked on for the response.
struct ControlMsg {
    line: String,
    reply: mpsc::Sender<String>,
    /// Disconnects once the connection thread has written the response to
    /// its client (or given up on it): what a shutdown waits on, so the
    /// process does not exit between queuing the response and sending it.
    written: mpsc::Receiver<()>,
}

/// Why the daemon's serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// A `shutdown` request was honored; state is checkpointed.
    Shutdown,
    /// The scenario ran to completion; the final trace is on disk.
    Completed,
}

/// Runs the daemon to completion or shutdown. This is `fleetd run`.
pub fn run(config: FleetdConfig) -> Result<ExitReason, String> {
    std::fs::create_dir_all(&config.state_dir).map_err(|e| {
        format!(
            "cannot create state dir {}: {e}",
            config.state_dir.display()
        )
    })?;
    let lock = StateLock::acquire(&config.state_dir)?;
    let fleet = build_or_resume(&config)?;

    // We hold the lock, so a leftover socket file is ours to sweep.
    let _ = std::fs::remove_file(&config.control_socket);
    let listener = UnixListener::bind(&config.control_socket).map_err(|e| {
        format!(
            "cannot bind control socket {}: {e}",
            config.control_socket.display()
        )
    })?;
    let (tx, rx) = mpsc::channel::<ControlMsg>();
    // The plane owns the channel's sender until every control thread is
    // gone, so `serve` never sees the channel disconnect.
    let plane = ControlPlane::start(listener, tx).inspect_err(|_| {
        let _ = std::fs::remove_file(&config.control_socket);
    })?;
    eprintln!(
        "fleetd: serving {} on {}",
        config.scenario,
        config.control_socket.display()
    );

    let reason = serve(&config, fleet, &rx);
    plane.stop();
    let _ = std::fs::remove_file(&config.control_socket);
    drop(lock);
    reason
}

/// Resumes from the newest complete checkpoint in the state dir, or builds
/// a fresh fleet when there is none. Unreadable, stale-format, incompatible
/// or unrestorable files fall back to the next older checkpoint with a
/// warning on stderr — a single bad file must never abort startup while an
/// older good one is sitting right next to it. Each skipped file is renamed
/// to `checkpoint_<slot>.json.rejected`, out of the canonical namespace, so
/// the retention sweep never counts it against the restorable files and
/// never collects the one this run resumed from.
fn build_or_resume(config: &FleetdConfig) -> Result<ElasticFleet, String> {
    let mut slots = list_checkpoint_slots(&config.state_dir)
        .map_err(|e| format!("cannot scan state dir: {e}"))?;
    slots.reverse();
    for slot in slots {
        let name = checkpoint_file_name(slot);
        let path = config.state_dir.join(&name);
        match FleetCheckpoint::load(&path)
            .and_then(check_compatible(config))
            .and_then(FleetCheckpoint::restore)
        {
            Ok(fleet) => {
                eprintln!("fleetd: resuming from {} (slot {slot})", path.display());
                return Ok(fleet);
            }
            Err(e) => {
                let rejected = config.state_dir.join(format!("{name}.rejected"));
                std::fs::rename(&path, &rejected).map_err(|io| {
                    format!(
                        "cannot set aside unrestorable checkpoint {} ({e}): {io}",
                        path.display()
                    )
                })?;
                eprintln!(
                    "fleetd: skipping checkpoint {}: {e} (renamed to {})",
                    path.display(),
                    rejected.display()
                );
            }
        }
    }
    let scenario = fleet_by_name(&config.scenario).ok_or_else(|| {
        format!(
            "unknown fleet scenario `{}` (built-ins: {})",
            config.scenario,
            FLEET_BUILTIN_NAMES.join(", ")
        )
    })?;
    eprintln!("fleetd: fresh start of `{}`", config.scenario);
    ElasticFleet::new(scenario, config.fleet)
}

/// A checkpoint is only resumable into a daemon whose config names the
/// same run: the same scenario and the same fleet tuning — cell count, seed,
/// admission and balance policies and every knob of each. Resuming under a
/// different one would splice two different deterministic histories into
/// one trace. The scenario and config read here are the ones the
/// checkpointed cells run on: [`FleetCheckpoint::restore`], the next step
/// of the chain, holds every cell to them.
fn check_compatible(
    config: &FleetdConfig,
) -> impl Fn(FleetCheckpoint) -> Result<FleetCheckpoint, String> + '_ {
    move |checkpoint| {
        let scenario = &checkpoint.scenario().name;
        if *scenario != config.scenario {
            return Err(format!(
                "it belongs to scenario `{scenario}`, config says `{}`",
                config.scenario
            ));
        }
        if *checkpoint.config() != config.fleet {
            return Err(format!(
                "it ran fleet config {:?}, config says {:?}",
                checkpoint.config(),
                config.fleet
            ));
        }
        Ok(checkpoint)
    }
}

/// Shortest pause after a failed `accept`; it doubles while failures
/// repeat, up to [`ACCEPT_BACKOFF_MAX`], and resets on the next success.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Longest pause after a failed `accept`.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How long [`ControlPlane::stop`] waits for the acceptors to leave.
const STOP_GRACE: Duration = Duration::from_secs(5);
/// Most threads waiting in `accept` at once; a thread that has served
/// its client ends rather than wait as one more. A one-shot client's next
/// connection can arrive before the thread that served its last one has
/// seen it hang up, so two or three threads may be busy at a time even
/// with one client: with four, such a client never finds every thread
/// busy, and no request in steady state starts a thread (with two, about
/// 3 % of a back-to-back client's requests started one on a 2-core VM).
/// The bound is there because waiting costs a descriptor: Linux reserves
/// the new connection's descriptor number before `accept` blocks, so
/// after a burst of clients, an unbounded number of threads waiting in
/// `accept` would hold one each and leave none for a checkpoint.
const MAX_ACCEPTING: usize = 4;

/// The control plane: threads that each accept a connection from the one
/// shared listener and serve it themselves (leader/followers). A thread
/// that accepts while no other thread waits in `accept` first starts one
/// replacement, so a silent client never holds up the next one. Once it
/// has served its client, it waits in `accept` again, or ends if
/// [`MAX_ACCEPTING`] threads already wait there. The thread count is the
/// number of connections being served plus at most four.
struct ControlPlane {
    listener: UnixListener,
    /// A second descriptor of `listener`'s socket, made at start so that
    /// [`stop`](Self::stop) needs no free descriptor. It is wrapped as a
    /// stream only because std offers `shutdown` on streams alone.
    closer: UnixStream,
    requests: mpsc::Sender<ControlMsg>,
    roster: Mutex<Roster>,
    /// Signalled on `stop` (it wakes a thread backing off from an accept
    /// error) and when an acceptor leaves (it wakes `stop`).
    roster_changed: Condvar,
}

struct Roster {
    /// Threads waiting in `accept`, backing off from an accept error, or
    /// started to take the place of one.
    accepting: usize,
    /// Set once by [`ControlPlane::stop`]; no thread accepts after it.
    stopped: bool,
}

impl ControlPlane {
    /// Starts the plane's first thread on `listener`.
    fn start(
        listener: UnixListener,
        requests: mpsc::Sender<ControlMsg>,
    ) -> Result<Arc<Self>, String> {
        let closer = listener
            .try_clone()
            .map(|dup| UnixStream::from(OwnedFd::from(dup)))
            .map_err(|e| format!("cannot duplicate the control socket: {e}"))?;
        let plane = Arc::new(Self {
            listener,
            closer,
            requests,
            roster: Mutex::new(Roster {
                accepting: 1,
                stopped: false,
            }),
            roster_changed: Condvar::new(),
        });
        Self::spawn_acceptor(&plane).map_err(|e| format!("cannot start a control thread: {e}"))?;
        Ok(plane)
    }

    fn roster(&self) -> MutexGuard<'_, Roster> {
        self.roster.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a thread that is already counted in `accepting`.
    fn spawn_acceptor(plane: &Arc<Self>) -> std::io::Result<()> {
        let plane = Arc::clone(plane);
        std::thread::Builder::new()
            .name("fleetd-control".to_string())
            .spawn(move || plane.accept_and_serve())
            .map(drop)
    }

    /// One control thread: accept, serve the client until it hangs up,
    /// accept again — until [`stop`](Self::stop). An accept error (say,
    /// `EMFILE` while clients hold every descriptor) is reported and
    /// retried after a pause that doubles from [`ACCEPT_BACKOFF_MIN`] to
    /// [`ACCEPT_BACKOFF_MAX`]: it neither ends the plane nor spins.
    fn accept_and_serve(self: Arc<Self>) {
        let mut backoff: Option<Duration> = None;
        let roster = loop {
            let accepted = self.listener.accept();
            let mut roster = self.roster();
            if roster.stopped {
                break roster;
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) => {
                    let pause =
                        backoff.map_or(ACCEPT_BACKOFF_MIN, |p| (p * 2).min(ACCEPT_BACKOFF_MAX));
                    backoff = Some(pause);
                    eprintln!(
                        "fleetd: cannot accept a control connection: {e}; retrying in {pause:?}"
                    );
                    let (roster, _) = self
                        .roster_changed
                        .wait_timeout_while(roster, pause, |r| !r.stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                    if roster.stopped {
                        break roster;
                    }
                    continue;
                }
            };
            backoff = None;
            // The last acceptor hands its place in the count to the
            // replacement it starts.
            let replace = roster.accepting == 1;
            if !replace {
                roster.accepting -= 1;
            }
            drop(roster);
            if replace {
                if let Err(e) = Self::spawn_acceptor(&self) {
                    eprintln!("fleetd: cannot start a control thread: {e}");
                    self.leave(self.roster());
                }
            }
            connection_loop(&stream, &self.requests);
            drop(stream);
            let mut roster = self.roster();
            if roster.stopped || roster.accepting >= MAX_ACCEPTING {
                return;
            }
            roster.accepting += 1;
        };
        self.leave(roster);
    }

    /// Takes one thread off the acceptors and wakes a waiting `stop`.
    fn leave(&self, mut roster: MutexGuard<'_, Roster>) {
        roster.accepting -= 1;
        drop(roster);
        self.roster_changed.notify_all();
    }

    /// Ends accepting and returns once no thread waits in `accept` (or
    /// after [`STOP_GRACE`], with a warning). Shutting the listening
    /// socket's read side fails every `accept` on it, blocked or later
    /// (`EINVAL` on Linux), and refuses new connections. A thread still
    /// serving a client ends when that client hangs up.
    fn stop(&self) {
        self.roster().stopped = true;
        self.roster_changed.notify_all();
        if let Err(e) = self.closer.shutdown(Shutdown::Read) {
            eprintln!("fleetd: cannot close the control socket: {e}");
            return;
        }
        let (roster, waited) = self
            .roster_changed
            .wait_timeout_while(self.roster(), STOP_GRACE, |r| r.accepting > 0)
            .unwrap_or_else(PoisonError::into_inner);
        drop(roster);
        if waited.timed_out() {
            eprintln!("fleetd: a control thread is still accepting after {STOP_GRACE:?}");
        }
    }
}

fn connection_loop(stream: &UnixStream, requests: &mpsc::Sender<ControlMsg>) {
    let mut write_half = stream;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One line, read through a `take` so a single huge line costs at
        // most the cap in memory. Reading one byte past the cap is how an
        // exactly-cap-sized line is told apart from an oversized one.
        let n = match reader
            .by_ref()
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => break, // clean EOF
            Ok(n) => n,
            Err(_) => break,
        };
        if n > MAX_REQUEST_LINE_BYTES {
            // Oversized: answer with a JSON error, then drop the client —
            // the rest of the line is unread, so resynchronizing on the
            // next newline is not worth unbounded draining.
            let _ = write_half
                .write_all(
                    format!(
                        "{}\n",
                        error_response(&format!(
                            "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
                        ))
                    )
                    .as_bytes(),
                )
                .and_then(|()| write_half.flush());
            break;
        }
        let Ok(line) = String::from_utf8(std::mem::take(&mut buf)) else {
            // Binary garbage: an error response, then keep serving this
            // client — the stream is still newline-synchronized.
            if write_half
                .write_all(format!("{}\n", error_response("request is not valid UTF-8")).as_bytes())
                .is_err()
            {
                break;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let (written_tx, written_rx) = mpsc::channel();
        if requests
            .send(ControlMsg {
                line: line.trim_end_matches(['\n', '\r']).to_string(),
                reply: reply_tx,
                written: written_rx,
            })
            .is_err()
        {
            // Daemon loop is gone (shutdown raced us); drop the client.
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        let sent = write_half.write_all(format!("{response}\n").as_bytes());
        drop(written_tx);
        if sent.is_err() {
            break;
        }
    }
}

/// The daemon state threaded through request handling.
struct Service<'a> {
    config: &'a FleetdConfig,
    fleet: ElasticFleet,
    paused: bool,
    /// Slot of the last checkpoint on disk (`None` before the first).
    /// Cadence checkpoints fire when the global slot crosses into a new
    /// cadence interval relative to this.
    last_checkpoint_slot: Option<usize>,
    stop: bool,
}

impl Service<'_> {
    fn checkpoint_now(&mut self) -> Result<PathBuf, String> {
        let slot = self.fleet.slot();
        let path = self.config.state_dir.join(checkpoint_file_name(slot));
        self.fleet.checkpoint().save(&path)?;
        self.last_checkpoint_slot = Some(slot);
        gc_checkpoint_dir(&self.config.state_dir, self.config.checkpoint.retain)
            .map_err(|e| format!("checkpoint GC failed: {e}"))?;
        Ok(path)
    }

    /// Writes a cadence checkpoint if the slot has crossed into a new
    /// `cadence_slots` interval since the last one on disk.
    fn maybe_cadence_checkpoint(&mut self) -> Result<(), String> {
        let cadence = self.config.checkpoint.cadence_slots;
        let slot = self.fleet.slot();
        let due = match self.last_checkpoint_slot {
            None => slot >= cadence,
            Some(last) => slot / cadence > last / cadence,
        };
        if due {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    fn handle(&mut self, line: &str) -> String {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => return error_response(&e),
        };
        let slot = self.fleet.slot();
        let mutating = matches!(
            request,
            Request::Admit { .. }
                | Request::Teardown { .. }
                | Request::Renegotiate { .. }
                | Request::Step { .. }
        );
        if mutating && self.fleet.is_complete() {
            return error_response("scenario is complete; the daemon is finalizing");
        }
        match request {
            Request::Status => self.status_response(),
            Request::Telemetry { window } => self.telemetry_response(window),
            Request::Admit { spec } => match self.fleet.admit(&spec) {
                Ok(Some((cell, slice))) => ok_response(vec![
                    ("outcome", Value::Str("granted".to_string())),
                    ("cell", Value::UInt(u64::from(cell))),
                    ("slice", Value::UInt(u64::from(slice))),
                    ("slot", Value::UInt(slot as u64)),
                ]),
                Ok(None) => ok_response(vec![
                    ("outcome", Value::Str("denied".to_string())),
                    ("slot", Value::UInt(slot as u64)),
                ]),
                Err(e) => error_response(&e),
            },
            Request::Teardown { cell, slice } => {
                self.event_response(cell, &ScenarioEvent::TeardownSlice { slice })
            }
            Request::Renegotiate {
                cell,
                slice,
                cost_threshold,
            } => self.event_response(
                cell,
                &ScenarioEvent::RenegotiateSla {
                    slice,
                    cost_threshold,
                },
            ),
            Request::Checkpoint => match self.checkpoint_now() {
                Ok(path) => ok_response(vec![
                    ("path", Value::Str(path.display().to_string())),
                    ("slot", Value::UInt(slot as u64)),
                ]),
                Err(e) => error_response(&e),
            },
            Request::Pause => {
                self.paused = true;
                ok_response(vec![("paused", Value::Bool(true))])
            }
            Request::Resume => {
                self.paused = false;
                ok_response(vec![("paused", Value::Bool(false))])
            }
            Request::Step { to_slot } => {
                let result = self
                    .fleet
                    .advance_to(to_slot)
                    .and_then(|reached| self.maybe_cadence_checkpoint().map(|()| reached));
                match result {
                    Ok(reached) => ok_response(vec![("slot", Value::UInt(reached as u64))]),
                    Err(e) => error_response(&e),
                }
            }
            Request::Shutdown => match self.checkpoint_now() {
                Ok(path) => {
                    self.stop = true;
                    ok_response(vec![
                        ("slot", Value::UInt(slot as u64)),
                        ("checkpoint", Value::Str(path.display().to_string())),
                    ])
                }
                Err(e) => error_response(&e),
            },
        }
    }

    fn event_response(&mut self, cell: u32, event: &ScenarioEvent) -> String {
        let slot = self.fleet.slot();
        match self.fleet.inject_cell_event(cell, event) {
            Ok(outcome) => {
                let outcome = match outcome {
                    LiveEventOutcome::Applied => "applied",
                    LiveEventOutcome::Denied => "denied",
                    LiveEventOutcome::Skipped => "skipped",
                };
                ok_response(vec![
                    ("outcome", Value::Str(outcome.to_string())),
                    ("slot", Value::UInt(slot as u64)),
                ])
            }
            Err(e) => error_response(&e),
        }
    }

    fn status_response(&self) -> String {
        ok_response(vec![
            ("scenario", Value::Str(self.fleet.scenario().name.clone())),
            ("seed", Value::UInt(self.fleet.config().base.seed)),
            ("slot", Value::UInt(self.fleet.slot() as u64)),
            ("total_slots", Value::UInt(self.fleet.total_slots() as u64)),
            ("complete", Value::Bool(self.fleet.is_complete())),
            ("paused", Value::Bool(self.paused)),
            ("cells", Value::UInt(self.fleet.cells().len() as u64)),
            (
                "admission_policy",
                Value::Str(self.fleet.config().base.admission.policy.name().to_string()),
            ),
            (
                "balance_policy",
                Value::Str(self.fleet.config().balancer.policy.name().to_string()),
            ),
            (
                "active_slices",
                Value::UInt(self.fleet.active_slices() as u64),
            ),
            (
                "fleet_admissions_granted",
                Value::UInt(self.fleet.fleet_admissions_granted() as u64),
            ),
            (
                "fleet_admissions_denied",
                Value::UInt(self.fleet.fleet_admissions_denied() as u64),
            ),
            (
                "migrations",
                Value::UInt(self.fleet.migrations().len() as u64),
            ),
            (
                "utilization",
                Value::Arr(
                    self.fleet
                        .cell_utilizations()
                        .into_iter()
                        .map(Value::Float)
                        .collect(),
                ),
            ),
        ])
    }

    /// The windowed fleet report: per cell, mean cost and utilization over
    /// the last `window` recorded slots plus lifetime counters.
    fn telemetry_response(&self, window: usize) -> String {
        let mut cells = Vec::with_capacity(self.fleet.cells().len());
        for (i, c) in self.fleet.cells().iter().enumerate() {
            let slots = c.recorder.slots();
            let tail = &slots[slots.len().saturating_sub(window)..];
            let mut samples = 0usize;
            let mut cost_sum = 0.0;
            let mut usage_sum = 0.0;
            for slot in tail {
                for slice in &slot.slices {
                    samples += 1;
                    cost_sum += slice.cost;
                    usage_sum += slice.usage_percent;
                }
            }
            let touching = |m: &&MigrationRecord| m.endpoint(i as u32).is_some();
            let migrations = self.fleet.migrations().iter().filter(touching).count();
            let mean = |sum: f64| {
                if samples == 0 {
                    0.0
                } else {
                    sum / samples as f64
                }
            };
            cells.push(Value::Obj(vec![
                ("cell".to_string(), Value::UInt(i as u64)),
                (
                    "active_slices".to_string(),
                    Value::UInt(c.engine.orchestrator().num_slices() as u64),
                ),
                ("window_slots".to_string(), Value::UInt(tail.len() as u64)),
                ("window_avg_cost".to_string(), Value::Float(mean(cost_sum))),
                (
                    "window_avg_usage_percent".to_string(),
                    Value::Float(mean(usage_sum)),
                ),
                (
                    "episodes".to_string(),
                    Value::UInt(c.recorder.episodes().len() as u64),
                ),
                ("migrations".to_string(), Value::UInt(migrations as u64)),
            ]));
        }
        ok_response(vec![
            ("slot", Value::UInt(self.fleet.slot() as u64)),
            ("window", Value::UInt(window as u64)),
            ("cells", Value::Arr(cells)),
        ])
    }
}

fn serve(
    config: &FleetdConfig,
    fleet: ElasticFleet,
    rx: &mpsc::Receiver<ControlMsg>,
) -> Result<ExitReason, String> {
    let log_path = config.state_dir.join(REQUEST_LOG_NAME);
    let mut request_log = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&log_path)
        .map_err(|e| format!("cannot open request log {}: {e}", log_path.display()))?;
    let resumed_at = fleet.slot();
    let mut service = Service {
        config,
        fleet,
        paused: config.start_paused,
        // Resuming from a checkpoint means one exists at the current slot;
        // anchoring the cadence there avoids an immediate duplicate write.
        last_checkpoint_slot: (resumed_at > 0).then_some(resumed_at),
        stop: false,
    };

    loop {
        // Control phase: while paused, wait for a request (nothing else can
        // change); otherwise just drain whatever arrived during the last
        // window.
        let mut next = if service.paused {
            let request = rx.recv();
            Some(request.map_err(|_| "the control plane is gone while paused".to_string())?)
        } else {
            rx.try_recv().ok()
        };
        while let Some(msg) = next {
            let response = service.handle(&msg.line);
            append_request_log(&mut request_log, service.fleet.slot(), &msg.line, &response);
            let _ = msg.reply.send(response);
            if service.stop {
                // Let the client read its answer before the process exits
                // (bounded: a stuck client must not keep the daemon alive).
                let _ = msg.written.recv_timeout(Duration::from_secs(1));
                return Ok(ExitReason::Shutdown);
            }
            next = rx.try_recv().ok();
        }
        if service.paused {
            continue;
        }
        if service.fleet.is_complete() {
            return finalize(config, service);
        }
        // Clock phase: one window of slots, then durability bookkeeping.
        let target = service.fleet.slot() + config.window_slots;
        service.fleet.advance_to(target)?;
        service.maybe_cadence_checkpoint()?;
    }
}

fn append_request_log(log: &mut std::fs::File, slot: usize, line: &str, response: &str) {
    // The audit log is best-effort (plain appends, no fsync): it exists so
    // a drill can be replayed, not to survive torn tails. The raw line is
    // written as a JSON string, so a line that is not JSON itself still
    // leaves a parseable entry.
    let Ok(request) = serde_json::to_string(line.trim()) else {
        return;
    };
    let entry = format!("{{\"slot\":{slot},\"request\":{request},\"response\":{response}}}\n");
    let _ = log.write_all(entry.as_bytes());
}

/// Completion path: final checkpoint at the terminal slot, then the final
/// fleet trace, then exit. Every step is idempotent, so a crash anywhere
/// in here is healed by simply starting the daemon again.
fn finalize(config: &FleetdConfig, mut service: Service<'_>) -> Result<ExitReason, String> {
    service.checkpoint_now()?;
    let scenario = service.fleet.scenario().name.clone();
    let outcome = service.fleet.finish(0.0)?;
    let trace_path = final_trace_path(&config.state_dir, &scenario);
    outcome.trace.save(&trace_path)?;
    eprintln!(
        "fleetd: scenario complete, trace at {}",
        trace_path.display()
    );
    Ok(ExitReason::Completed)
}

/// Where the daemon writes the final fleet trace for `scenario`.
pub fn final_trace_path(state_dir: &Path, scenario: &str) -> PathBuf {
    state_dir.join(format!("TRACE_FLEET_{scenario}.json"))
}

/// One-shot control client: connects, sends one request line, returns the
/// response line. This is `fleetd ctl` and the integration tests' driver.
pub fn send_request(socket: &Path, line: &str) -> Result<String, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    (&stream)
        .write_all(format!("{}\n", line.trim()).as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if response.is_empty() {
        return Err("daemon closed the connection without responding".to_string());
    }
    Ok(response.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointPolicy;
    use onslicing_fleet::{ElasticFleetConfig, FLEET_CHECKPOINT_FORMAT_VERSION};

    const SCENARIO: &str = "hotspot-shift";
    const SEED: u64 = 17;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleetd-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_config(state_dir: &Path) -> FleetdConfig {
        FleetdConfig {
            scenario: SCENARIO.to_string(),
            fleet: ElasticFleetConfig::new(2).with_seed(SEED),
            state_dir: state_dir.to_path_buf(),
            control_socket: state_dir.join("control.sock"),
            start_paused: true,
            window_slots: 1,
            checkpoint: CheckpointPolicy::default(),
        }
    }

    /// Advances a fresh fleet of `scenario` to `slot` and returns the
    /// checkpoint JSON it would write.
    fn checkpoint_json(scenario: &str, seed: u64, slot: usize) -> String {
        let mut fleet = ElasticFleet::new(
            fleet_by_name(scenario).unwrap(),
            ElasticFleetConfig::new(2).with_seed(seed),
        )
        .unwrap();
        fleet.advance_to(slot).unwrap();
        fleet.checkpoint().to_json()
    }

    fn plant(dir: &Path, slot: usize, text: &str) {
        std::fs::write(dir.join(checkpoint_file_name(slot)), text).unwrap();
    }

    #[test]
    fn fresh_start_when_no_checkpoint_exists() {
        let dir = scratch("fresh");
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumes_from_newest_complete_checkpoint_ignoring_tmp_partials() {
        let dir = scratch("newest");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        plant(&dir, 16, &checkpoint_json(SCENARIO, SEED, 16));
        // A crashed writer's partial for a newer slot must never even be
        // considered (it is not in the checkpoint namespace).
        std::fs::write(
            dir.join(format!("{}.tmp", checkpoint_file_name(24))),
            "{\"format_vers",
        )
        .unwrap();
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_falls_back_to_the_next_older_checkpoint() {
        let dir = scratch("stale-format");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        // One version back: written by a binary on an older RNG stream.
        let stamp = |version: u32| format!("\"format_version\":{version}");
        let doctored = checkpoint_json(SCENARIO, SEED, 16).replacen(
            &stamp(FLEET_CHECKPOINT_FORMAT_VERSION),
            &stamp(FLEET_CHECKPOINT_FORMAT_VERSION - 1),
            1,
        );
        plant(&dir, 16, &doctored);
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(
            fleet.slot(),
            8,
            "the stale file must be skipped with a warning"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_and_seed_mismatches_fall_back() {
        let dir = scratch("mismatch");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        // Slot 20: a checkpoint of a different run entirely.
        plant(&dir, 20, &checkpoint_json("cell-outage", SEED, 20));
        // Slot 16: right scenario, wrong master seed.
        plant(&dir, 16, &checkpoint_json(SCENARIO, 99, 16));
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_mismatches_fall_back() {
        use onslicing_fleet::{BalancePolicy, BalancerConfig};
        let dir = scratch("policy-mismatch");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        // Slot 16: same scenario and seed, but the run used the predictive
        // balancer — a greedy daemon must not splice its history in.
        let mut fleet = ElasticFleet::new(
            fleet_by_name(SCENARIO).unwrap(),
            ElasticFleetConfig::new(2)
                .with_seed(SEED)
                .with_balancer(BalancerConfig {
                    policy: BalancePolicy::Predictive,
                    ..BalancerConfig::default()
                }),
        )
        .unwrap();
        fleet.advance_to(16).unwrap();
        plant(&dir, 16, &fleet.checkpoint().to_json());
        let resumed = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(resumed.slot(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_of_a_different_fleet_shape_falls_back() {
        let dir = scratch("shape-mismatch");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        // Slot 16: same scenario and seed, but three cells where the
        // daemon is configured for two.
        let three_cells = ElasticFleetConfig::new(3).with_seed(SEED);
        let mut fleet = ElasticFleet::new(fleet_by_name(SCENARIO).unwrap(), three_cells).unwrap();
        fleet.advance_to(16).unwrap();
        let checkpoint = FleetCheckpoint::from_json(&fleet.checkpoint().to_json()).unwrap();
        let config = test_config(&dir);
        let reason = check_compatible(&config)(checkpoint).unwrap_err();
        assert_eq!(
            reason,
            format!(
                "it ran fleet config {three_cells:?}, config says {:?}",
                config.fleet
            )
        );
        plant(&dir, 16, &fleet.checkpoint().to_json());
        let resumed = build_or_resume(&config).unwrap();
        assert_eq!(resumed.slot(), 8);
        assert_eq!(resumed.cells().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_falls_back() {
        let dir = scratch("truncated");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        let full = checkpoint_json(SCENARIO, SEED, 16);
        plant(&dir, 16, &full[..full.len() / 2]);
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_deep_checkpoint_is_refused_by_the_parser_and_falls_back() {
        // Nothing but opening brackets: the parser used to recurse once per
        // bracket and overflow the stack, killing the daemon at startup.
        let dir = scratch("over-deep");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        plant(&dir, 16, &"[".repeat(1 << 20));
        let reason = FleetCheckpoint::load(dir.join(checkpoint_file_name(16))).unwrap_err();
        assert!(
            reason.contains("nesting deeper than 128 at byte 128"),
            "{reason}"
        );
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrestorable_checkpoint_falls_back_instead_of_aborting_startup() {
        // A file that loads and passes the compatibility gate but whose
        // restore() fails (no cells) used to abort startup; it must fall
        // back to the older good checkpoint like every other bad file.
        let dir = scratch("unrestorable");
        plant(&dir, 8, &checkpoint_json(SCENARIO, SEED, 8));
        let mut value: Value = serde_json::from_str(&checkpoint_json(SCENARIO, SEED, 16)).unwrap();
        if let Value::Obj(pairs) = &mut value {
            for (key, v) in pairs.iter_mut() {
                if key == "cells" {
                    *v = Value::Arr(Vec::new());
                }
            }
        }
        plant(&dir, 16, &serde_json::to_string(&value).unwrap());
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_checkpoints_bad_means_fresh_start_not_an_error() {
        let dir = scratch("all-bad");
        plant(&dir, 8, "{\"format_vers");
        plant(&dir, 16, &checkpoint_json(SCENARIO, 99, 16));
        let fleet = build_or_resume(&test_config(&dir)).unwrap();
        assert_eq!(fleet.slot(), 0, "every file skipped, fresh start");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
