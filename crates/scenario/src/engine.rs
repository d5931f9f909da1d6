//! The scenario engine: executes a [`Scenario`] timeline slot by slot over a
//! live orchestrator — admitting and tearing down slices, shifting traffic
//! regimes, injecting domain faults, renegotiating SLAs — and aggregates the
//! per-scenario metrics.
//!
//! ## Determinism
//!
//! Everything is seeded from [`ScenarioConfig::seed`]: slice construction
//! seeds are derived from the admission order, the rayon fan-out inside the
//! orchestrator shares no RNG between slices, and events fire at scripted
//! slots. Two runs of the same scenario with the same seed produce identical
//! reports and byte-identical checkpoints, whatever the worker thread count:
//! the engine reads no clock.
//!
//! ## Checkpoint / replay
//!
//! The engine executes one slot at a time ([`ScenarioEngine::step_slot`])
//! and serializes its *complete* state between slots — its inputs (the
//! scenario and its configuration), the orchestrator (agent networks,
//! optimizer moments, RNG streams, simulator channels, traffic cursors),
//! per-slice statistics and the run-loop cursor with its counters. A
//! deserialized engine resumes mid-scenario and reproduces the remaining
//! slots bit-for-bit; `crates/replay` builds the checkpoint files and the
//! golden-trace harness on top of this.
//!
//! ## Telemetry
//!
//! Every executed slot is reported to a [`SlotObserver`] as one
//! [`SlotSample`] per active slice (KPIs, shaped reward, Lagrangian
//! multiplier, baseline-switch flag), and every closed episode as an
//! [`EpisodeEndEvent`]. The no-op observer is `&mut ()`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use onslicing_core::{
    AgentConfig, CoordinationMode, MultiSliceEnvironment, OnSlicingAgent, Orchestrator,
    OrchestratorConfig, RuleBasedBaseline, SliceCheckpoint, SliceEnvironment, SliceEpisodeSummary,
    SlotOutcome,
};
use onslicing_domains::{DomainKind, DomainSet, SliceId};
use onslicing_slices::{SliceKind, SlotKpi};

use crate::admission::AdmissionConfig;
use crate::spec::{Scenario, ScenarioEvent, SliceSpec, TimedEvent};

/// Derives the master seed of one fleet cell from the fleet-wide seed.
///
/// SplitMix64-style counter keying: the cell index is folded into the
/// master seed through the golden-ratio increment and the SplitMix64
/// finalizer. The finalizer is a bijection and the increment is odd, so for
/// a fixed master seed every cell index maps to a **distinct** seed; the
/// function is pure, so the mapping is stable across runs, processes and
/// thread counts. Each cell then derives its slice RNG chains from its own
/// seed exactly like a standalone scenario run does, which keeps cells
/// statistically independent streams of one keyed family — the same
/// counter-keyed construction the per-slice RNGs use.
pub fn derive_cell_seed(master_seed: u64, cell_index: u32) -> u64 {
    let mut z = master_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(cell_index) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning of a scenario run (everything that is not part of the scenario
/// file itself).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; every slice's RNG chain derives from it.
    pub seed: u64,
    /// Over-request resolution mechanism.
    pub coordination: CoordinationMode,
    /// Offline imitation episodes before a slice goes online (initial and
    /// admitted slices alike).
    pub pretrain_episodes: usize,
    /// Admission-control tuning.
    pub admission: AdmissionConfig,
}

impl ScenarioConfig {
    /// The configuration of fleet cell `cell_index`: identical tuning, seed
    /// replaced by [`derive_cell_seed`] of this configuration's seed.
    pub fn for_cell(&self, cell_index: u32) -> Self {
        Self {
            seed: derive_cell_seed(self.seed, cell_index),
            ..*self
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            coordination: CoordinationMode::default(),
            // One pretrain episode leaves the cost estimator so uncertain
            // that the safety switch can pin a slice to its baseline for
            // the whole scenario; two make π_θ reliably go online.
            pretrain_episodes: 2,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Per-slice outcome of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceReport {
    /// Stable slice id.
    pub id: u32,
    /// Application class.
    pub kind: SliceKind,
    /// Slot the slice joined (0 for initial slices).
    pub admitted_at_slot: usize,
    /// Slot the slice was torn down, if it was.
    pub torn_down_at_slot: Option<usize>,
    /// Completed (or final partial) episodes.
    pub episodes: usize,
    /// Episodes that violated the slice's SLA.
    pub violations: usize,
    /// PPO updates that consumed at least one transition (> 0 means the
    /// slice actually trained online during the scenario).
    pub policy_updates: usize,
    /// Episodes in which the agent switched to its baseline policy.
    pub switched_episodes: usize,
    /// Mean episode-average cost.
    pub avg_cost: f64,
    /// Mean episode-average resource usage in percent.
    pub avg_usage_percent: f64,
}

/// Aggregate outcome of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Scheduled scenario length in slots.
    pub total_slots: usize,
    /// Sum over slots of the number of active slices (the work actually
    /// executed).
    pub slice_slots: usize,
    /// Largest number of concurrently active slices.
    pub peak_concurrent_slices: usize,
    /// Events applied (admissions count only when granted).
    pub events_applied: usize,
    /// Admissions the controller rejected.
    pub admissions_denied: usize,
    /// Events that referenced a slice no longer (or not yet) active.
    pub events_skipped: usize,
    /// Total slice-episodes closed.
    pub slice_episodes: usize,
    /// Percentage of slice-episodes that violated their SLA.
    pub sla_violation_percent: f64,
    /// Mean episode-average cost across slice-episodes.
    pub avg_cost: f64,
    /// Mean per-slice-slot cost over the whole run (total slot cost over
    /// `slice_slots`), folded slot-by-slot from the orchestrator's cheap
    /// [`onslicing_core::SlotAggregate`] — no per-slot telemetry retention
    /// needed.
    pub avg_slot_cost: f64,
    /// Mean per-slice-slot resource utilization in percent, folded the
    /// same way.
    pub avg_slot_usage_percent: f64,
    /// Mean agent↔manager coordination rounds per executed slot.
    pub avg_coordination_rounds: f64,
    /// One report per slice that ever existed, in id order.
    pub slices: Vec<SliceReport>,
}

impl ScenarioReport {
    /// Whether any reported metric is NaN **or infinite** (the CI smoke
    /// check). `±inf` is as much of a health failure as NaN — a cost that
    /// overflowed to infinity must not sail through the gate — so the check
    /// is on `is_finite`, not `is_nan`.
    pub fn has_non_finite(&self) -> bool {
        let aggregate = [
            self.sla_violation_percent,
            self.avg_cost,
            self.avg_slot_cost,
            self.avg_slot_usage_percent,
            self.avg_coordination_rounds,
        ];
        aggregate.iter().any(|v| !v.is_finite())
            || self
                .slices
                .iter()
                .any(|s| !s.avg_cost.is_finite() || !s.avg_usage_percent.is_finite())
    }
}

/// One slice's telemetry for one executed slot, handed to the
/// [`SlotObserver`] right after the orchestration round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotSample {
    /// Global scenario slot (0-based).
    pub slot: usize,
    /// Stable slice id.
    pub slice: u32,
    /// Application class.
    pub kind: SliceKind,
    /// The full KPI record the slice's simulator reported.
    pub kpi: SlotKpi,
    /// The constraint-shaped learning reward under the agent's current
    /// Lagrangian multiplier.
    pub reward: f64,
    /// The agent's current Lagrangian multiplier λ.
    pub lambda: f64,
    /// Whether the proactive safety switch handed this slot to the baseline.
    pub used_baseline: bool,
}

/// A closed slice-episode, handed to the [`SlotObserver`] at episode
/// boundaries (and at scenario end for final partial episodes, tagged with
/// `slot == total_slots`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeEndEvent {
    /// Global scenario slot at which the episode closed.
    pub slot: usize,
    /// Stable slice id.
    pub slice: u32,
    /// The episode summary (average cost, violation flag, switch flag).
    pub summary: SliceEpisodeSummary,
}

/// Receiver of per-slot and per-episode telemetry during a scenario run.
///
/// The unit type `()` is the no-op observer: `engine.run_with_observer(&mut ())`.
pub trait SlotObserver {
    /// Called once per executed slot with one sample per active slice, in
    /// slice position order (stable ids, positions shift on teardown).
    fn on_slot(&mut self, samples: &[SlotSample]);
    /// Called every time a slice closes an episode.
    fn on_episode_end(&mut self, event: &EpisodeEndEvent);
}

impl SlotObserver for () {
    fn on_slot(&mut self, _samples: &[SlotSample]) {}
    fn on_episode_end(&mut self, _event: &EpisodeEndEvent) {}
}

/// Accumulates one slice's episode history during a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SliceStats {
    kind: SliceKind,
    admitted_at_slot: usize,
    torn_down_at_slot: Option<usize>,
    /// Closed episodes, and the running sums of their average cost and
    /// usage: the state is a fixed size however long the slice runs.
    episodes: usize,
    cost_sum: f64,
    usage_sum: f64,
    violations: usize,
    policy_updates: usize,
    switched_episodes: usize,
}

impl SliceStats {
    fn new(kind: SliceKind, admitted_at_slot: usize) -> Self {
        Self {
            kind,
            admitted_at_slot,
            torn_down_at_slot: None,
            // `Iterator::sum::<f64>` folds from -0.0, so sums started here
            // and added to in episode order keep its bits.
            episodes: 0,
            cost_sum: -0.0,
            usage_sum: -0.0,
            violations: 0,
            policy_updates: 0,
            switched_episodes: 0,
        }
    }

    fn to_report(&self, id: u32) -> SliceReport {
        SliceReport {
            id,
            kind: self.kind,
            admitted_at_slot: self.admitted_at_slot,
            torn_down_at_slot: self.torn_down_at_slot,
            episodes: self.episodes,
            violations: self.violations,
            policy_updates: self.policy_updates,
            switched_episodes: self.switched_episodes,
            avg_cost: mean(self.cost_sum, self.episodes),
            avg_usage_percent: mean(self.usage_sum, self.episodes),
        }
    }
}

/// `sum / count`, or 0.0 for an empty count.
fn mean(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A scheduled restoration of transient state (burst end, fault healed).
///
/// Each restore remembers the value it *expects* to find (its own override)
/// and the value it captured when the override began; if a later event
/// changed the state in the meantime, the restore is skipped so the newer
/// regime wins. Nested transients (a short fault inside a long one) unwind
/// correctly; restores of partially-overlapping transients whose inner end
/// outlives the outer keep the inner's captured value. Known limitation:
/// "still in effect" is detected by value equality, so a permanent event
/// that sets *exactly* the value an active transient applied is treated as
/// that transient and rolled back at its expiry — script a marginally
/// different value (2.0 vs 2.001) if that corner ever matters.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Restore {
    Domain {
        domain: DomainKind,
        expected: f64,
        previous: f64,
    },
    Traffic {
        slice: u32,
        expected: f64,
        previous: f64,
    },
}

/// Grid resolution of the rule-based baseline calibration.
const BASELINE_BUCKETS: usize = 4;

/// Builds agent + environment pairs from [`SliceSpec`]s with seeds derived
/// from the engine's seed and the construction order, caching calibrated
/// baselines (calibration is a grid search, so clones are much cheaper than
/// re-deriving identical policies for cloned slices).
///
/// Its only state is how many slices it has built. The cache is *not* part
/// of the serialized state: calibration is a deterministic function of
/// `(kind, peak rate, cost threshold, seed)`, so a restored factory rebuilds
/// identical entries on demand.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SliceFactory {
    // A BTreeMap, not a HashMap: the cache is keyed by bit-exact floats
    // and only ever read through `entry()`, so ordering is immaterial to
    // behavior today — but an unordered container in a deterministic
    // crate is a standing hazard (any future iteration would inherit
    // process-seeded order), and detlint's `unordered-container` rule
    // bans them outright.
    #[serde(skip)]
    baseline_cache: BTreeMap<(SliceKind, u64, u64), RuleBasedBaseline>,
    slices_built: u64,
}

impl SliceFactory {
    /// Builds the next slice of an engine run under master seed `master` on
    /// episodes of `horizon` slots.
    fn build(
        &mut self,
        spec: &SliceSpec,
        master: u64,
        horizon: usize,
    ) -> (OnSlicingAgent, SliceEnvironment) {
        let network = onslicing_netsim::NetworkConfig::testbed_default();
        let ordinal = self.slices_built;
        self.slices_built += 1;
        let seed = master.wrapping_add(1_000).wrapping_add(17 * ordinal);
        let sla = spec.sla();
        let trace_config = spec.trace_config();
        let cache_key = (
            spec.kind,
            trace_config.peak_rate.to_bits(),
            sla.cost_threshold.to_bits(),
        );
        let baseline = self
            .baseline_cache
            .entry(cache_key)
            .or_insert_with(|| {
                RuleBasedBaseline::calibrate(
                    spec.kind,
                    &sla,
                    &network,
                    trace_config.peak_rate,
                    BASELINE_BUCKETS,
                    master.wrapping_add(77),
                )
            })
            .clone();
        let env = SliceEnvironment::with_trace_config(
            spec.kind,
            sla,
            network,
            trace_config,
            horizon,
            seed,
        );
        let agent = OnSlicingAgent::new(
            spec.kind,
            sla,
            baseline,
            AgentConfig::onslicing().scaled_down(horizon),
            seed.wrapping_add(1),
        );
        (agent, env)
    }
}

/// The serializable run-loop cursor and counters: everything `run` used to
/// keep in local variables, so a checkpoint taken between slots captures it
/// too. The report is assembled from them (and the per-slice statistics) by
/// [`ScenarioEngine::finish`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RunState {
    /// Next slot to execute (0-based global scenario time).
    slot: usize,
    /// Whether the final report has been produced.
    finished: bool,
    /// Sum over executed slots of the number of active slices.
    slice_slots: usize,
    /// Largest number of concurrently active slices.
    peak_concurrent_slices: usize,
    /// Events applied (admissions count only when granted).
    events_applied: usize,
    /// Admissions the controller rejected.
    admissions_denied: usize,
    /// Events that referenced a slice no longer (or not yet) active.
    events_skipped: usize,
    /// The event timeline, sorted by firing slot (stable, so same-slot
    /// events keep their scripted order).
    timeline: Vec<TimedEvent>,
    /// Index of the next unfired timeline event.
    next_event: usize,
    /// Pending transient-state restorations, as `(due_slot, restore)`.
    restores: Vec<(usize, Restore)>,
    /// Total coordination interactions over executed slots.
    rounds_total: usize,
    /// Slots in which at least one slice was active.
    executed_slots: usize,
    /// Sum of per-slice-slot costs over executed slots.
    slot_cost_total: f64,
    /// Sum over executed slots of (mean usage × active slices).
    slot_usage_weighted: f64,
}

/// How one applied event changed the report counters.
enum EventOutcome {
    Applied(Option<(usize, Restore)>),
    Denied,
    Skipped,
}

/// How a live-injected event resolved (the public face of the scripted
/// path's internal outcome, minus the restore plumbing the engine keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LiveEventOutcome {
    /// The event took effect (admission granted, teardown done, …).
    Applied,
    /// An admission was denied by the capacity check.
    Denied,
    /// The event referenced a slice that is not active here.
    Skipped,
}

/// One pending traffic-scale restoration traveling with a migrated slice
/// (slice ids are per-cell, so the restore is re-keyed on injection).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficRestore {
    /// Global slot the restoration is due at.
    pub due_slot: usize,
    /// The scale the restore expects to find (its own override).
    pub expected: f64,
    /// The scale to roll back to.
    pub previous: f64,
}

/// A slice detached for live migration: its complete state plus the
/// transient traffic restores still scheduled against it. Produced by
/// [`ScenarioEngine::extract_slice`], consumed by
/// [`ScenarioEngine::inject_slice`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceMigration {
    /// The slice's full state (agent, environment, mid-episode position).
    pub checkpoint: SliceCheckpoint,
    /// Pending burst expiries that must fire in the slice's new cell.
    pub traffic_restores: Vec<TrafficRestore>,
}

/// The engine: a scenario, its configuration and the live deployment.
///
/// Serializable between slots: `serde_json::to_string(&engine)` captures the
/// complete deployment (see the module docs), and the deserialized engine
/// continues the scenario bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioEngine {
    scenario: Scenario,
    config: ScenarioConfig,
    orch: Orchestrator,
    factory: SliceFactory,
    /// Per-slice episode statistics, keyed by stable id. A BTreeMap keeps
    /// both the aggregation order and the serialized checkpoint bytes
    /// canonical.
    stats: BTreeMap<u32, SliceStats>,
    run: RunState,
    /// Slices admitted or injected since the last orchestration round —
    /// the initial deployment included, until slot 0's round enforces it:
    /// their estimated shares are reserved by
    /// [`ScenarioEngine::check_admission`] until they enforce for the
    /// first time. Serialized with the rest of the engine: the elastic
    /// fleet admits between slots (at sync boundaries), so a checkpoint
    /// taken there must not silently drop the pending reservations.
    unenforced_admissions: usize,
    /// Reused slot-round scratch: the orchestrator writes each round into
    /// this outcome in place, and the per-slice telemetry samples are
    /// rebuilt in the same buffer every slot. Pure scratch — skipped by
    /// the checkpoint serializer, carries no cross-slot state.
    #[serde(skip)]
    slot_outcome: SlotOutcome,
    #[serde(skip)]
    slot_samples: Vec<SlotSample>,
}

impl ScenarioEngine {
    /// Builds the initial deployment of a validated scenario (including
    /// offline pre-training of the initial agents).
    pub fn new(scenario: Scenario, config: ScenarioConfig) -> Result<Self, String> {
        Self::with_admission_slack(scenario, config, 0)
    }

    /// Like [`ScenarioEngine::new`], but validates the scenario with
    /// `admission_slack` extra assignable slice ids. This is the
    /// constructor a fleet layer must use for materialized per-cell
    /// scenarios: a cell timeline may legally reference an id that only a
    /// fleet-routed admission will assign at run time
    /// ([`crate::FleetScenario::validate`] accepts it), so validating the
    /// cell scenario standalone with zero slack would reject a fleet
    /// scenario the fleet validator already blessed.
    pub fn with_admission_slack(
        scenario: Scenario,
        config: ScenarioConfig,
        admission_slack: usize,
    ) -> Result<Self, String> {
        scenario.validate_with_admission_slack(admission_slack)?;
        config.admission.validate()?;
        let mut factory = SliceFactory::default();
        let mut envs = Vec::new();
        let mut agents = Vec::new();
        let mut stats = BTreeMap::new();
        for (i, spec) in scenario.initial_slices.iter().enumerate() {
            let (agent, env) = factory.build(spec, config.seed, scenario.horizon);
            agents.push(agent);
            envs.push(env);
            stats.insert(i as u32, SliceStats::new(spec.kind, 0));
        }
        let orch = Orchestrator::new(
            MultiSliceEnvironment::from_envs(envs),
            agents,
            DomainSet::with_parameters(scenario.capacity, 1.0),
            OrchestratorConfig {
                coordination: config.coordination,
                episodes_per_epoch: 1,
            },
        );
        let mut timeline = scenario.events.clone();
        timeline.sort_by_key(|t| t.at_slot);
        let run = RunState {
            timeline,
            ..RunState::default()
        };
        // The initial slices enforce nothing until slot 0's orchestration
        // round, so their estimated shares count as pending too — a
        // scripted (or fleet-routed) admission at slot 0 must not treat
        // the untouched residual capacity as free.
        let unenforced_admissions = scenario.initial_slices.len();
        let mut engine = Self {
            scenario,
            config,
            orch,
            factory,
            stats,
            run,
            unenforced_admissions,
            slot_outcome: SlotOutcome::default(),
            slot_samples: Vec::new(),
        };
        if engine.config.pretrain_episodes > 0 {
            engine
                .orch
                .offline_pretrain_all(engine.config.pretrain_episodes);
        }
        engine.orch.env_mut().reset_all();
        Ok(engine)
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The run's configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The next slot to execute (equals `total_slots` once the timeline is
    /// exhausted).
    pub fn current_slot(&self) -> usize {
        self.run.slot
    }

    /// Whether the run has been completed (the final report produced).
    pub fn is_finished(&self) -> bool {
        self.run.finished
    }

    /// The live orchestrator (inspection before or after the run).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Mutable access to the live orchestrator.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orch
    }

    /// Checks what a deserialized engine never had checked by
    /// [`ScenarioEngine::new`]: every agent's learned state fits together
    /// ([`Orchestrator::validate`]) and the admission tuning is valid. Both
    /// checkpoint loaders run it before a restored engine takes a slot.
    pub fn validate(&self) -> Result<(), String> {
        self.orch.validate()?;
        self.config
            .admission
            .validate()
            .map_err(|e| format!("admission tuning: {e}"))
    }

    /// Slices admitted or injected since the last orchestration round —
    /// capacity they will claim is pledged but not yet visible in
    /// [`onslicing_domains::DomainSet::residual_capacity`].
    pub fn pending_admissions(&self) -> usize {
        self.unenforced_admissions
    }

    /// Whether one more slice fits this cell right now, with every pending
    /// (admitted-but-not-yet-enforced) slice's estimated share reserved.
    /// This is the one admission check every same-boundary caller — the
    /// scripted event path, the fleet admission router, the balancer's
    /// migration target selection — must go through, so capacity pledged by
    /// an earlier grant in the same slot or fleet sync round is never
    /// pledged twice.
    pub fn check_admission(&self) -> Result<(), crate::admission::AdmissionDenied> {
        let admission = &self.config.admission;
        let reserved = self.unenforced_admissions as f64 * admission.estimated_share;
        admission.evaluate_with_reserved(self.orch.domains(), reserved)
    }

    /// Total SLA-violating episodes closed so far across every slice — a
    /// deterministic load signal (unlike wall-clock latency) a fleet
    /// balancer may base migration plans on.
    pub fn total_violations(&self) -> usize {
        self.stats.values().map(|s| s.violations).sum()
    }

    /// Total episodes closed so far across every slice.
    pub fn total_episodes(&self) -> usize {
        self.stats.values().map(|s| s.episodes).sum()
    }

    /// Cumulative deterministic cost of every executed slot so far — the
    /// running numerator of the report's `avg_slot_cost`. Like the violation
    /// totals, this is pure simulated state, so a balance policy may use it.
    pub fn slot_cost_total(&self) -> f64 {
        self.run.slot_cost_total
    }

    /// Slice-slots executed so far — the running denominator of the
    /// report's `avg_slot_cost`.
    pub fn slice_slots(&self) -> usize {
        self.run.slice_slots
    }

    /// Mean normalized traffic this cell's slices will see over the next
    /// `window` slots, read off each slice's deterministic arrival trace
    /// from its current in-episode position (traces wrap at the horizon).
    /// A pure function of simulated state — wall clocks never enter — so a
    /// predictive balance policy may plan on it without breaking the
    /// byte-identical-trace contract. Returns 0.0 for an empty cell or a
    /// zero window.
    pub fn forecast_normalized_traffic(&self, window: usize) -> f64 {
        let envs = self.orch.env().envs();
        if envs.is_empty() || window == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for env in envs {
            let start = env.slot();
            let mut sum = 0.0;
            for k in 0..window {
                sum += env.normalized_traffic_at(start + k);
            }
            total += sum / window as f64;
        }
        total / envs.len() as f64
    }

    /// Admits a slice built from `spec` without consulting this engine's
    /// [`ScenarioEngine::check_admission`] — the caller (e.g. a fleet-level admission
    /// controller that already reserved capacity here) decides placement.
    /// The slice pre-trains offline exactly like a scripted admission.
    pub fn force_admit(&mut self, spec: &SliceSpec, slot: usize) -> SliceId {
        self.run.events_applied += 1;
        self.grant_admission(spec, slot)
    }

    /// Applies one event to the live deployment *now* — at the current slot
    /// boundary, exactly as if the scenario timeline had scheduled it here.
    /// This is the entry point for external control (a service daemon
    /// relaying admission/teardown/renegotiation requests): the event runs
    /// through the same dispatch as scripted events, admissions included
    /// ([`ScenarioEngine::check_admission`] reserves the shares of every
    /// slice granted earlier at this boundary), and the report counters
    /// advance identically — so a run driven by a logged request stream is
    /// bit-for-bit a run with those events spliced into the timeline.
    ///
    /// The event is validated first; an invalid event is an error and
    /// touches nothing. Denials and skips (e.g. tearing down an unknown
    /// slice) are outcomes, not errors.
    pub fn inject_event(
        &mut self,
        event: &ScenarioEvent,
        obs: &mut dyn SlotObserver,
    ) -> Result<LiveEventOutcome, String> {
        event.validate()?;
        if self.run.finished {
            return Err("cannot inject an event into a finished run".to_string());
        }
        let slot = self.run.slot;
        let outcome = self.apply_event(slot, event, obs);
        Ok(self.count_event(outcome))
    }

    /// Folds one applied event into the report counters (queueing its
    /// restore, if any) — the one bookkeeping step scripted and injected
    /// events share.
    fn count_event(&mut self, outcome: EventOutcome) -> LiveEventOutcome {
        match outcome {
            EventOutcome::Applied(restore) => {
                self.run.events_applied += 1;
                if let Some(r) = restore {
                    self.run.restores.push(r);
                }
                LiveEventOutcome::Applied
            }
            EventOutcome::Denied => {
                self.run.admissions_denied += 1;
                LiveEventOutcome::Denied
            }
            EventOutcome::Skipped => {
                self.run.events_skipped += 1;
                LiveEventOutcome::Skipped
            }
        }
    }

    /// Detaches an active slice for migration: deregisters it from this
    /// cell's domain managers and returns its complete state (agent
    /// weights/optimizer/RNG, environment simulator/trace cursors), the
    /// partial episode included — plus any transient traffic restores still
    /// scheduled against the slice, which must travel with it (a slice
    /// migrated mid-burst would otherwise keep the burst scale forever: the
    /// orphaned restore in this cell is skipped, and the new cell knows
    /// nothing about the expiry). The departed slice's report stops here
    /// with `torn_down_at_slot = slot`; its in-flight episode closes in
    /// whichever cell hosts it next.
    pub fn extract_slice(&mut self, id: u32, slot: usize) -> Result<SliceMigration, String> {
        let checkpoint = self.orch.export_slice(SliceId(id)).map_err(String::from)?;
        self.stats
            .get_mut(&id)
            .expect("every active slice has stats")
            .torn_down_at_slot = Some(slot);
        let mut traffic_restores = Vec::new();
        self.run
            .restores
            .retain(|(due_slot, restore)| match restore {
                Restore::Traffic {
                    slice,
                    expected,
                    previous,
                } if *slice == id => {
                    traffic_restores.push(TrafficRestore {
                        due_slot: *due_slot,
                        expected: *expected,
                        previous: *previous,
                    });
                    false
                }
                _ => true,
            });
        Ok(SliceMigration {
            checkpoint,
            traffic_restores,
        })
    }

    /// Attaches a migrated slice under this engine's next free id. The
    /// agent and environment resume bit-for-bit — no reset, pre-training or
    /// factory seed is consumed, so the host cell's own slice-construction
    /// chain is unaffected by arrivals — and the slice's pending traffic
    /// restores are re-scheduled here under its new id, so a burst that
    /// began in the old cell still expires on time in the new one.
    pub fn inject_slice(
        &mut self,
        migration: SliceMigration,
        slot: usize,
    ) -> Result<SliceId, String> {
        let kind = migration.checkpoint.kind;
        let id = self
            .orch
            .import_slice(migration.checkpoint)
            .map_err(String::from)?;
        self.stats.insert(id.0, SliceStats::new(kind, slot));
        for r in migration.traffic_restores {
            self.run.restores.push((
                r.due_slot,
                Restore::Traffic {
                    slice: id.0,
                    expected: r.expected,
                    previous: r.previous,
                },
            ));
        }
        self.unenforced_admissions += 1;
        Ok(id)
    }

    /// Closes the running episode of the slice at `index`: harvests the
    /// summary, updates the policy, resets the environment.
    fn close_episode(&mut self, index: usize, slot: usize, obs: &mut dyn SlotObserver) {
        let id = self.orch.slice_ids()[index].0;
        let summary = self.orch.agents_mut()[index].end_episode();
        let update = self.orch.agents_mut()[index].update_policy();
        let stats = self.stats.get_mut(&id).expect("every slice has stats");
        stats.episodes += 1;
        stats.cost_sum += summary.avg_cost;
        stats.usage_sum += summary.avg_usage_percent;
        if summary.violated {
            stats.violations += 1;
        }
        if summary.switched_to_baseline {
            stats.switched_episodes += 1;
        }
        if update.num_transitions > 0 {
            stats.policy_updates += 1;
        }
        self.orch.env_mut().envs_mut()[index].reset();
        obs.on_episode_end(&EpisodeEndEvent {
            slot,
            slice: id,
            summary,
        });
    }

    /// Builds, pre-trains and admits a slice from its spec, bypassing the
    /// admission check — the caller (scripted event path, fleet-level
    /// admission) has already decided the slice may join.
    fn grant_admission(&mut self, slice: &SliceSpec, slot: usize) -> SliceId {
        let (mut agent, mut env) =
            self.factory
                .build(slice, self.config.seed, self.scenario.horizon);
        if self.config.pretrain_episodes > 0 {
            // Admitted slices pre-train offline before going live, exactly
            // like the initial deployment did.
            agent.offline_pretrain(&mut env, self.config.pretrain_episodes);
        }
        env.reset();
        let id = self
            .orch
            .admit_slice(agent, env)
            .expect("fresh slice ids never collide");
        self.stats.insert(id.0, SliceStats::new(slice.kind, slot));
        self.unenforced_admissions += 1;
        id
    }

    /// Applies one scripted event and reports how it resolved. Admissions
    /// go through [`ScenarioEngine::check_admission`], which reserves the
    /// estimated shares of every slice granted earlier in the same slot —
    /// scripted, fleet-routed or migrated in — so one slot's burst of
    /// admissions cannot pledge the same residual capacity repeatedly.
    fn apply_event(
        &mut self,
        slot: usize,
        event: &ScenarioEvent,
        obs: &mut dyn SlotObserver,
    ) -> EventOutcome {
        match event {
            ScenarioEvent::AdmitSlice { slice } => {
                if self.check_admission().is_err() {
                    // The denied slice still consumes its id: scripted ids
                    // are assigned by admission-event order, and later
                    // events must keep targeting the slices the file author
                    // numbered, whatever this admission's runtime outcome.
                    let _ = self.orch.reserve_slice_id();
                    return EventOutcome::Denied;
                }
                self.grant_admission(slice, slot);
                EventOutcome::Applied(None)
            }
            ScenarioEvent::TeardownSlice { slice } => {
                let Some(index) = self.orch.index_of(SliceId(*slice)) else {
                    return EventOutcome::Skipped;
                };
                // Close the partial episode so its slots still count.
                if self.orch.env().envs()[index].slot() > 0 {
                    self.close_episode(index, slot, obs);
                }
                self.orch
                    .teardown_slice(SliceId(*slice))
                    .expect("index_of verified the slice is active");
                self.stats
                    .get_mut(slice)
                    .expect("every slice has stats")
                    .torn_down_at_slot = Some(slot);
                EventOutcome::Applied(None)
            }
            ScenarioEvent::SetTrafficScale { slice, scale } => {
                let Some(index) = self.orch.index_of(SliceId(*slice)) else {
                    return EventOutcome::Skipped;
                };
                self.orch.env_mut().envs_mut()[index].set_traffic_scale(*scale);
                EventOutcome::Applied(None)
            }
            ScenarioEvent::SetTraceProfile { slice, profile } => {
                let Some(index) = self.orch.index_of(SliceId(*slice)) else {
                    return EventOutcome::Skipped;
                };
                self.orch.env_mut().envs_mut()[index].set_trace_config(profile.clone());
                EventOutcome::Applied(None)
            }
            ScenarioEvent::TrafficBurst {
                slice,
                scale,
                duration_slots,
            } => {
                let Some(index) = self.orch.index_of(SliceId(*slice)) else {
                    return EventOutcome::Skipped;
                };
                let previous = self.orch.env().envs()[index].traffic_scale();
                self.orch.env_mut().envs_mut()[index].set_traffic_scale(*scale);
                EventOutcome::Applied(Some((
                    slot + duration_slots,
                    Restore::Traffic {
                        slice: *slice,
                        expected: *scale,
                        previous,
                    },
                )))
            }
            ScenarioEvent::DomainFault {
                domain,
                capacity_scale,
                duration_slots,
            } => {
                let previous = self.orch.domains().manager(*domain).capacity_scale();
                self.orch
                    .domains_mut()
                    .set_domain_capacity_scale(*domain, *capacity_scale);
                EventOutcome::Applied(Some((
                    slot + duration_slots,
                    Restore::Domain {
                        domain: *domain,
                        expected: *capacity_scale,
                        previous,
                    },
                )))
            }
            ScenarioEvent::RenegotiateSla {
                slice,
                cost_threshold,
            } => {
                let Some(index) = self.orch.index_of(SliceId(*slice)) else {
                    return EventOutcome::Skipped;
                };
                let sla = self.orch.agents()[index]
                    .sla()
                    .with_cost_threshold(*cost_threshold);
                self.orch
                    .renegotiate_sla(SliceId(*slice), sla)
                    .expect("index_of verified the slice is active");
                EventOutcome::Applied(None)
            }
        }
    }

    /// Fires the transient-state restorations due at `slot`: a fault
    /// scheduled to end here heals before new events and the orchestration
    /// round. A restore only fires if its own override is still in effect;
    /// if a later event re-shaped the state meanwhile, the newer regime wins
    /// and the restore is dropped.
    fn fire_due_restores(&mut self, slot: usize) {
        let due: Vec<Restore> = {
            let (fire, keep): (Vec<_>, Vec<_>) =
                self.run.restores.drain(..).partition(|(at, _)| *at <= slot);
            self.run.restores = keep;
            fire.into_iter().map(|(_, r)| r).collect()
        };
        for restore in due {
            match restore {
                Restore::Domain {
                    domain,
                    expected,
                    previous,
                } => {
                    if self.orch.domains().manager(domain).capacity_scale() == expected {
                        self.orch
                            .domains_mut()
                            .set_domain_capacity_scale(domain, previous);
                    }
                }
                Restore::Traffic {
                    slice,
                    expected,
                    previous,
                } => {
                    if let Some(index) = self.orch.index_of(SliceId(slice)) {
                        if self.orch.env().envs()[index].traffic_scale() == expected {
                            self.orch.env_mut().envs_mut()[index].set_traffic_scale(previous);
                        }
                    }
                }
            }
        }
    }

    /// Executes exactly one scenario slot — restores, scripted events, one
    /// coordinated orchestration round, telemetry, episode boundaries —
    /// and returns whether slots remain.
    ///
    /// # Panics
    /// Panics if the run has already completed.
    pub fn step_slot(&mut self, obs: &mut dyn SlotObserver) -> bool {
        assert!(
            !self.run.finished && self.run.slot < self.scenario.total_slots,
            "ScenarioEngine::run consumed the timeline already; build a new engine for a fresh run"
        );
        let slot = self.run.slot;
        self.fire_due_restores(slot);
        // Slices granted since the last orchestration round (earlier this
        // slot, or at a fleet sync boundary just before it) have enforced
        // nothing yet; `check_admission` inside the admission events
        // reserves their estimated shares (the flash-crowd over-admission
        // fix).
        while self.run.next_event < self.run.timeline.len()
            && self.run.timeline[self.run.next_event].at_slot <= slot
        {
            let event = self.run.timeline[self.run.next_event].event.clone();
            self.run.next_event += 1;
            let outcome = self.apply_event(slot, &event, obs);
            self.count_event(outcome);
        }
        if self.orch.num_slices() > 0 {
            // Reused-workspace round: the orchestrator overwrites the
            // engine's scratch outcome in place (no per-slot allocations
            // once the buffers are warm), and the telemetry samples are
            // rebuilt in the engine's own reusable buffer.
            self.orch.run_slot_into(true, &mut self.slot_outcome);
            let outcome = &self.slot_outcome;
            let aggregate = outcome.aggregate();
            self.run.rounds_total += aggregate.interactions;
            self.run.executed_slots += 1;
            self.run.slot_cost_total += aggregate.total_cost;
            self.run.slot_usage_weighted += aggregate.mean_usage_percent * aggregate.slices as f64;
            self.run.slice_slots += aggregate.slices;
            self.run.peak_concurrent_slices = self.run.peak_concurrent_slices.max(aggregate.slices);
            self.slot_samples.clear();
            self.slot_samples
                .extend((0..self.orch.num_slices()).map(|i| {
                    let agent = &self.orch.agents()[i];
                    SlotSample {
                        slot,
                        slice: self.orch.slice_ids()[i].0,
                        kind: agent.kind(),
                        kpi: outcome.kpis[i],
                        reward: agent.shaped_reward(&outcome.kpis[i]),
                        lambda: agent.lambda(),
                        used_baseline: outcome.decisions[i].used_baseline,
                    }
                }));
            obs.on_slot(&self.slot_samples);
            // Staggered per-slice episode boundaries: a slice admitted at
            // slot s ends its first episode at s + horizon.
            for index in 0..self.orch.num_slices() {
                let env = &self.orch.env().envs()[index];
                if env.slot() >= env.horizon() {
                    self.close_episode(index, slot, obs);
                }
            }
        }
        // Every active slice enforced its allocation this slot, so the
        // pending-admission reservations are now visible in the domain
        // managers' residual capacity and the counter clears. (With zero
        // active slices no round ran, but then nothing was admitted either.)
        self.unenforced_admissions = 0;
        self.run.slot += 1;
        self.run.slot < self.scenario.total_slots
    }

    /// Executes slots until global time reaches `slot` (clamped to the
    /// scenario end), e.g. to position the engine for a mid-run checkpoint.
    pub fn run_until(&mut self, slot: usize, obs: &mut dyn SlotObserver) {
        while self.run.slot < slot.min(self.scenario.total_slots) {
            self.step_slot(obs);
        }
    }

    /// Closes the final partial episode of every still-active slice and
    /// assembles the report from the scenario, the configuration, the run
    /// counters and the per-slice statistics. Called automatically by
    /// [`ScenarioEngine::run_with_observer`] once the timeline is exhausted.
    fn finish(&mut self, obs: &mut dyn SlotObserver) -> ScenarioReport {
        self.run.finished = true;
        for index in 0..self.orch.num_slices() {
            if self.orch.env().envs()[index].slot() > 0 {
                self.close_episode(index, self.scenario.total_slots, obs);
            }
        }
        // The BTreeMap iterates in id order.
        let slices: Vec<SliceReport> = self.stats.iter().map(|(id, s)| s.to_report(*id)).collect();
        let mut slice_episodes = 0;
        let mut violations = 0.0;
        let mut episode_costs = 0.0;
        for s in &slices {
            slice_episodes += s.episodes;
            violations += s.violations as f64;
            episode_costs += s.avg_cost * s.episodes as f64;
        }
        let run = &self.run;
        ScenarioReport {
            scenario: self.scenario.name.clone(),
            seed: self.config.seed,
            total_slots: self.scenario.total_slots,
            slice_slots: run.slice_slots,
            peak_concurrent_slices: run.peak_concurrent_slices,
            events_applied: run.events_applied,
            admissions_denied: run.admissions_denied,
            events_skipped: run.events_skipped,
            slice_episodes,
            sla_violation_percent: if slice_episodes == 0 {
                0.0
            } else {
                violations * (100.0 / slice_episodes as f64)
            },
            avg_cost: mean(episode_costs, slice_episodes),
            avg_slot_cost: mean(run.slot_cost_total, run.slice_slots),
            avg_slot_usage_percent: mean(run.slot_usage_weighted, run.slice_slots),
            avg_coordination_rounds: mean(run.rounds_total as f64, run.executed_slots),
            slices,
        }
    }

    /// Executes the remaining scenario slots (all of them on a fresh engine,
    /// the tail on a restored checkpoint) and returns the aggregated report,
    /// streaming telemetry to `obs` along the way.
    ///
    /// # Panics
    /// Panics when called after the run completed: the timeline has already
    /// been consumed and the deployment state mutated, so a replay would
    /// produce a silently wrong report. Build a new engine for a fresh run.
    pub fn run_with_observer(&mut self, obs: &mut dyn SlotObserver) -> ScenarioReport {
        assert!(
            !self.run.finished,
            "ScenarioEngine::run consumed the timeline already; build a new engine for a fresh run"
        );
        while self.run.slot < self.scenario.total_slots {
            self.step_slot(obs);
        }
        self.finish(obs)
    }

    /// Executes the scenario end to end without telemetry and returns the
    /// aggregated report.
    ///
    /// # Panics
    /// Panics when called a second time (see
    /// [`ScenarioEngine::run_with_observer`]).
    pub fn run(&mut self) -> ScenarioReport {
        self.run_with_observer(&mut ())
    }
}

/// Convenience: builds the engine and runs the scenario in one call.
pub fn run_scenario(scenario: Scenario, config: ScenarioConfig) -> Result<ScenarioReport, String> {
    Ok(ScenarioEngine::new(scenario, config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SliceSpec;

    // Horizons below ~12 slots leave the episode cost budget so tight that
    // the proactive safety switch hands every slot to the baseline and π_θ
    // never trains; 16 matches the CI-scale built-ins.
    fn tiny_scenario() -> Scenario {
        Scenario::new("tiny", 16, 48)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
    }

    fn quick_config() -> ScenarioConfig {
        ScenarioConfig::default()
    }

    #[test]
    fn cell_seeds_are_distinct_stable_and_keyed_to_the_master() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_cell_seed(0, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "cell seeds must be pairwise distinct");
            }
        }
        // Stability pins: the derivation is part of the fleet determinism
        // contract — changing it invalidates every committed fleet trace.
        assert_eq!(derive_cell_seed(0, 0), 16294208416658607535);
        assert_eq!(derive_cell_seed(7, 3), 7862637804313477842);
        assert_ne!(derive_cell_seed(0, 0), derive_cell_seed(1, 0));
        let config = ScenarioConfig {
            seed: 42,
            ..ScenarioConfig::default()
        };
        let cell = config.for_cell(5);
        assert_eq!(cell.seed, derive_cell_seed(42, 5));
        assert_eq!(cell.pretrain_episodes, config.pretrain_episodes);
        assert_eq!(cell.coordination, config.coordination);
    }

    #[test]
    fn steady_run_produces_complete_metrics() {
        let report = run_scenario(tiny_scenario(), quick_config()).unwrap();
        assert_eq!(report.total_slots, 48);
        assert_eq!(report.slice_slots, 96);
        assert_eq!(report.peak_concurrent_slices, 2);
        // 48 slots / 16-slot horizon = 3 episodes per slice.
        assert_eq!(report.slice_episodes, 6);
        assert!(!report.has_non_finite());
        assert!(report.avg_coordination_rounds >= 1.0);
        assert_eq!(report.slices.len(), 2);
        for s in &report.slices {
            assert_eq!(s.episodes, 3);
            assert!(s.policy_updates > 0, "every slice must train online");
            assert!(s.avg_usage_percent > 0.0);
        }
    }

    #[test]
    fn fixed_seed_runs_are_deterministic() {
        let scenario = tiny_scenario()
            .at(
                4,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 1.6,
                    duration_slots: 4,
                },
            )
            .at(
                8,
                ScenarioEvent::DomainFault {
                    domain: DomainKind::Transport,
                    capacity_scale: 0.6,
                    duration_slots: 4,
                },
            );
        let a = run_scenario(scenario.clone(), quick_config()).unwrap();
        let b = run_scenario(scenario, quick_config()).unwrap();
        assert_eq!(a, b);
        let c = run_scenario(
            tiny_scenario(),
            ScenarioConfig {
                seed: 9,
                ..quick_config()
            },
        )
        .unwrap();
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn admission_and_teardown_flow_through_the_report() {
        let scenario = Scenario::new("churn", 16, 64)
            .with_capacity(2.0)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                16,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Rdc),
                },
            )
            .at(48, ScenarioEvent::TeardownSlice { slice: 0 });
        let report = run_scenario(scenario, quick_config()).unwrap();
        assert_eq!(report.slices.len(), 2);
        let initial = &report.slices[0];
        let admitted = &report.slices[1];
        assert_eq!(initial.torn_down_at_slot, Some(48));
        assert_eq!(admitted.admitted_at_slot, 16);
        assert!(admitted.episodes >= 2);
        assert!(
            admitted.policy_updates > 0,
            "the admitted slice must train online"
        );
        assert_eq!(report.peak_concurrent_slices, 2);
        assert_eq!(report.events_applied, 2);
    }

    #[test]
    fn admission_is_denied_when_the_infrastructure_is_full() {
        // Capacity 1.0, three greedy slices enforced -> a fourth cannot fit.
        let scenario = Scenario::new("full-house", 6, 12)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .slice(SliceSpec::new(SliceKind::Rdc))
            .at(
                4,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Mar),
                },
            );
        let config = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.9,
                headroom: 0.0,
                ..Default::default()
            },
            ..quick_config()
        };
        let report = run_scenario(scenario, config).unwrap();
        assert_eq!(report.admissions_denied, 1);
        assert_eq!(report.slices.len(), 3);
        assert_eq!(report.peak_concurrent_slices, 3);
    }

    #[test]
    fn same_slot_admission_burst_cannot_over_admit_pledged_capacity() {
        // Regression test for the flash-crowd over-admission bug: at slot 0
        // nothing is enforced yet, so every one of three same-slot
        // admissions used to see the full 1.0 residual and all three were
        // granted on top of the initial slice — four pledges of 0.4 against
        // capacity that only fits two slices. With the reservation fix the
        // initial deployment and earlier grants are pledged, so exactly one
        // admission fits and two are denied.
        let scenario = Scenario::new("flash-admissions", 6, 12)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                0,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Mar),
                },
            )
            .at(
                0,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Hvs),
                },
            )
            .at(
                0,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Rdc),
                },
            );
        let config = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.4,
                headroom: 0.0,
                ..Default::default()
            },
            ..quick_config()
        };
        let report = run_scenario(scenario, config).unwrap();
        assert_eq!(
            report.admissions_denied, 2,
            "only one of the three same-slot admissions fits"
        );
        assert_eq!(report.peak_concurrent_slices, 2);
        // Ids: initial 0, granted 1; the denials burn ids 2 and 3.
        let ids: Vec<u32> = report.slices.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(report.events_applied, 1);
    }

    #[test]
    fn same_slot_restore_teardown_and_readmission_do_not_cross_wires() {
        // A burst on slice 1 ends (restore due) at slot 6; slice 1 is torn
        // down at slot 6 too, and a replacement is admitted in the same
        // slot. Order inside the slot is restores → events, so the restore
        // fires against slice 1 while it is still active; the newcomer must
        // come up at its own default traffic scale, not inherit the burst
        // or its rollback.
        let scenario = Scenario::new("restore-teardown-race", 6, 18)
            .with_capacity(2.0)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(
                2,
                ScenarioEvent::TrafficBurst {
                    slice: 1,
                    scale: 2.5,
                    duration_slots: 4,
                },
            )
            .at(6, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(
                6,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Hvs),
                },
            );
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        let report = engine.run();
        assert_eq!(report.events_applied, 3);
        assert_eq!(report.admissions_denied, 0);
        let orch = engine.orchestrator();
        // Ids never recycle: the replacement is slice 2, not a reborn 1.
        assert_eq!(orch.slice_ids().to_vec(), vec![SliceId(0), SliceId(2)]);
        assert!(!orch.domains().has_slice(SliceId(1)));
        // Neither survivor carries the burst scale or a stray rollback.
        assert_eq!(orch.env().envs()[0].traffic_scale(), 1.0);
        assert_eq!(orch.env().envs()[1].traffic_scale(), 1.0);
        assert!(
            engine.run.restores.is_empty(),
            "no restore may stay pending"
        );

        // Variant: the slice dies *before* its burst expires. The orphaned
        // restore must be skipped — in particular it must not resurrect
        // state onto the slice admitted at the restore's due slot.
        let scenario = Scenario::new("orphaned-restore", 6, 18)
            .with_capacity(2.0)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(
                2,
                ScenarioEvent::TrafficBurst {
                    slice: 1,
                    scale: 2.5,
                    duration_slots: 6,
                },
            )
            .at(4, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(
                8,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Hvs),
                },
            );
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        engine.run_until(9, &mut ());
        let orch = engine.orchestrator();
        assert_eq!(orch.slice_ids().to_vec(), vec![SliceId(0), SliceId(2)]);
        assert_eq!(
            orch.env().envs()[1].traffic_scale(),
            1.0,
            "the orphaned restore must not apply to the newly admitted slice"
        );
        assert!(engine.run.restores.is_empty());
    }

    #[test]
    fn migrated_slices_carry_their_pending_burst_restores() {
        // A burst on slice 1 runs over slots 2..10; the slice migrates at
        // slot 6 — mid-burst — into another engine. The pending restore
        // must travel with it: the new cell rolls the scale back when the
        // burst expires, and the old cell keeps no orphaned entry. Without
        // the transfer the "transient" burst would become permanent in the
        // slice's new home.
        let source_scenario = Scenario::new("burst-migration-src", 6, 18)
            .with_capacity(2.0)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(
                2,
                ScenarioEvent::TrafficBurst {
                    slice: 1,
                    scale: 2.5,
                    duration_slots: 8,
                },
            );
        let target_scenario = Scenario::new("burst-migration-dst", 6, 18)
            .with_capacity(2.0)
            .slice(SliceSpec::new(SliceKind::Mar));
        let mut source = ScenarioEngine::new(source_scenario, quick_config()).unwrap();
        let mut target = ScenarioEngine::new(
            target_scenario,
            ScenarioConfig {
                seed: 1,
                ..quick_config()
            },
        )
        .unwrap();
        source.run_until(6, &mut ());
        target.run_until(6, &mut ());

        let migration = source.extract_slice(1, 6).unwrap();
        assert_eq!(migration.traffic_restores.len(), 1);
        assert_eq!(migration.traffic_restores[0].due_slot, 10);
        assert_eq!(migration.traffic_restores[0].previous, 1.0);
        assert!(
            source.run.restores.is_empty(),
            "the departed slice's restore must not linger in the source"
        );

        let id = target.inject_slice(migration, 6).unwrap();
        let index = target.orchestrator().index_of(id).unwrap();
        assert_eq!(
            target.orchestrator().env().envs()[index].traffic_scale(),
            2.5,
            "the slice arrives still mid-burst"
        );
        target.run_until(11, &mut ());
        let index = target.orchestrator().index_of(id).unwrap();
        assert_eq!(
            target.orchestrator().env().envs()[index].traffic_scale(),
            1.0,
            "the burst must expire on schedule in the slice's new home"
        );
    }

    #[test]
    fn pending_admissions_reserve_capacity_until_first_enforcement() {
        // force_admit and inject_slice pledge capacity immediately: a
        // second same-boundary grant sees the first one's estimated share
        // reserved, and the reservation clears once the slices enforce in
        // an orchestration round.
        let scenario =
            Scenario::new("pending-reservations", 6, 12).slice(SliceSpec::new(SliceKind::Mar));
        let config = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.4,
                headroom: 0.0,
                ..Default::default()
            },
            ..quick_config()
        };
        let mut engine = ScenarioEngine::new(scenario, config).unwrap();
        // The initial slice is itself pending until slot 0's round.
        assert_eq!(engine.pending_admissions(), 1);
        // Residual is the full 1.0 (nothing enforced); the initial pledge
        // makes the check require 0.8, which still fits.
        assert!(engine.check_admission().is_ok());
        engine.force_admit(&SliceSpec::new(SliceKind::Hvs), 0);
        assert_eq!(engine.pending_admissions(), 2);
        // A further same-boundary grant would need 1.2 of a 1.0 residual.
        assert!(engine.check_admission().is_err());
        // The reservation survives a checkpoint taken at the boundary —
        // the elastic fleet admits between slots, so dropping it on
        // restore would re-open the over-admission hole.
        let json = serde_json::to_string(&engine).unwrap();
        let mut restored: ScenarioEngine = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.pending_admissions(), 2);
        assert!(restored.check_admission().is_err());
        // One executed slot enforces the newcomers; the reservation clears
        // and the check is against real residual capacity again.
        restored.step_slot(&mut ());
        assert_eq!(restored.pending_admissions(), 0);
        engine.step_slot(&mut ());
        assert_eq!(engine.pending_admissions(), 0);
    }

    #[test]
    fn events_on_inactive_slices_are_skipped_not_fatal() {
        // Ids must now be statically assignable (validation rejects ids no
        // run could ever assign), so inactivity comes from a teardown: the
        // three later events target a slice that is already gone.
        let scenario = tiny_scenario()
            .at(2, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(
                3,
                ScenarioEvent::SetTrafficScale {
                    slice: 1,
                    scale: 2.0,
                },
            )
            .at(
                4,
                ScenarioEvent::RenegotiateSla {
                    slice: 1,
                    cost_threshold: 0.2,
                },
            )
            .at(5, ScenarioEvent::TeardownSlice { slice: 1 });
        let report = run_scenario(scenario, quick_config()).unwrap();
        assert_eq!(report.events_skipped, 3);
        assert_eq!(report.events_applied, 1);
    }

    #[test]
    fn invalid_scenarios_are_rejected_at_construction() {
        let invalid = Scenario::new("empty", 6, 12); // no initial slices
        assert!(ScenarioEngine::new(invalid, quick_config()).is_err());
        // A bad admission config is an Err too, not a panic.
        let bad_admission = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.1,
                headroom: 2.0,
                ..Default::default()
            },
            ..quick_config()
        };
        assert!(ScenarioEngine::new(tiny_scenario(), bad_admission)
            .unwrap_err()
            .contains("headroom"));
    }

    #[test]
    fn trace_profile_swap_takes_effect_from_the_next_episode() {
        let scenario = Scenario::new("profile-swap", 8, 24)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                2,
                ScenarioEvent::SetTraceProfile {
                    slice: 0,
                    profile: onslicing_traffic::DiurnalTraceConfig::mar_default()
                        .with_peak_rate(50.0),
                },
            );
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        engine.run();
        // Episodes reset at slots 8 and 16, regenerating from the new
        // profile; the final trace peaks at the swapped-in rate.
        let trace = engine.orchestrator().env().envs()[0].trace();
        assert!((trace.peak_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn denied_admissions_still_consume_their_scripted_slice_id() {
        // Capacity 1.0, three slices: the admission at slot 4 is denied, so
        // id 3 must be burned and the next free id is 4 — later scripted
        // events keep targeting the slices the file author numbered.
        let scenario = Scenario::new("id-stability", 6, 12)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .slice(SliceSpec::new(SliceKind::Rdc))
            .at(
                4,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Mar),
                },
            );
        let config = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.9,
                headroom: 0.0,
                ..Default::default()
            },
            ..quick_config()
        };
        let mut engine = ScenarioEngine::new(scenario, config).unwrap();
        let report = engine.run();
        assert_eq!(report.admissions_denied, 1);
        assert_eq!(engine.orchestrator_mut().reserve_slice_id(), SliceId(4));
    }

    #[test]
    fn teardown_frees_capacity_for_a_later_admission_and_ids_never_recycle() {
        // Full house at slot 0 -> the slot-2 admission is denied (three
        // coordinated slices leave well under a 0.4 residual), burning
        // id 3. Tearing slices 0 and 1 down at slot 4 frees their shares,
        // so the slot-8 admission is granted and receives the next fresh
        // id (4) — torn-down and denied ids are never handed out again.
        let scenario = Scenario::new("readmission", 6, 18)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .slice(SliceSpec::new(SliceKind::Rdc))
            .at(
                2,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Mar),
                },
            )
            .at(4, ScenarioEvent::TeardownSlice { slice: 0 })
            .at(4, ScenarioEvent::TeardownSlice { slice: 1 })
            .at(
                8,
                ScenarioEvent::AdmitSlice {
                    slice: SliceSpec::new(SliceKind::Hvs),
                },
            );
        let config = ScenarioConfig {
            admission: AdmissionConfig {
                estimated_share: 0.4,
                headroom: 0.0,
                ..Default::default()
            },
            ..quick_config()
        };
        let mut engine = ScenarioEngine::new(scenario, config).unwrap();
        let report = engine.run();
        assert_eq!(report.admissions_denied, 1);
        assert_eq!(report.events_applied, 3); // two teardowns + granted admission
        let ids: Vec<u32> = report.slices.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 4], "id 3 stays burned by the denial");
        let readmitted = &report.slices[3];
        assert_eq!(readmitted.admitted_at_slot, 8);
        assert!(readmitted.episodes > 0);
        assert!(engine.orchestrator().domains().has_slice(SliceId(4)));
        assert!(!engine.orchestrator().domains().has_slice(SliceId(0)));
    }

    #[test]
    fn burst_restore_yields_to_a_newer_permanent_regime() {
        // A burst (slots 4..8) is overridden at slot 6 by a permanent
        // regime shift; the burst's expiry must not roll that shift back.
        let scenario = Scenario::new("burst-vs-regime", 16, 16)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                4,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 2.0,
                    duration_slots: 4,
                },
            )
            .at(
                6,
                ScenarioEvent::SetTrafficScale {
                    slice: 0,
                    scale: 1.3,
                },
            );
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        engine.run();
        assert_eq!(engine.orchestrator().env().envs()[0].traffic_scale(), 1.3);
    }

    #[test]
    fn nested_domain_faults_unwind_to_the_outer_fault() {
        // A long transport fault (slots 0..24, beyond the scenario end)
        // contains a short deeper fault (slots 4..8): when the inner fault
        // heals it must restore the *outer* degradation, not full health.
        let scenario = Scenario::new("nested-faults", 16, 16)
            .slice(SliceSpec::new(SliceKind::Mar))
            .at(
                0,
                ScenarioEvent::DomainFault {
                    domain: DomainKind::Transport,
                    capacity_scale: 0.5,
                    duration_slots: 24,
                },
            )
            .at(
                4,
                ScenarioEvent::DomainFault {
                    domain: DomainKind::Transport,
                    capacity_scale: 0.3,
                    duration_slots: 4,
                },
            );
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        engine.run();
        let transport = engine
            .orchestrator()
            .domains()
            .manager(DomainKind::Transport);
        assert_eq!(transport.capacity_scale(), 0.5);
    }

    #[test]
    #[should_panic(expected = "consumed the timeline already")]
    fn running_an_engine_twice_is_rejected() {
        let mut engine = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        engine.run();
        engine.run();
    }

    #[test]
    fn teardown_mid_run_releases_capacity_and_stops_the_slice() {
        let scenario = Scenario::new("release", 6, 12)
            .slice(SliceSpec::new(SliceKind::Mar))
            .slice(SliceSpec::new(SliceKind::Hvs))
            .at(6, ScenarioEvent::TeardownSlice { slice: 1 });
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        let report = engine.run();
        let orch = engine.orchestrator();
        assert_eq!(orch.num_slices(), 1);
        assert!(!orch.domains().has_slice(SliceId(1)));
        assert!(orch.domains().has_slice(SliceId(0)));
        // The survivor keeps running to the end; the torn-down slice's
        // report stops at slot 6.
        assert_eq!(report.slices[1].torn_down_at_slot, Some(6));
        assert_eq!(report.slices[0].torn_down_at_slot, None);
        assert_eq!(report.slice_slots, 2 * 6 + 6);
    }

    /// Observer that records every sample and episode end.
    #[derive(Default)]
    struct Recorder {
        samples: Vec<SlotSample>,
        episodes: Vec<EpisodeEndEvent>,
    }

    impl SlotObserver for Recorder {
        fn on_slot(&mut self, samples: &[SlotSample]) {
            self.samples.extend_from_slice(samples);
        }
        fn on_episode_end(&mut self, event: &EpisodeEndEvent) {
            self.episodes.push(*event);
        }
    }

    #[test]
    fn observer_sees_every_slice_slot_and_episode() {
        let mut engine = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        let mut rec = Recorder::default();
        let report = engine.run_with_observer(&mut rec);
        assert_eq!(rec.samples.len(), report.slice_slots);
        assert_eq!(rec.episodes.len(), report.slice_episodes);
        assert!(rec.samples.iter().all(|s| s.kpi.cost >= 0.0));
        assert!(rec.samples.iter().all(|s| s.lambda >= 0.0));
        // The report's cheap slot-level folds agree with the full
        // per-sample telemetry stream.
        let mean_cost =
            rec.samples.iter().map(|s| s.kpi.cost).sum::<f64>() / rec.samples.len() as f64;
        assert!((report.avg_slot_cost - mean_cost).abs() < 1e-9);
        let mean_usage = rec
            .samples
            .iter()
            .map(|s| s.kpi.resource_usage_percent())
            .sum::<f64>()
            / rec.samples.len() as f64;
        assert!((report.avg_slot_usage_percent - mean_usage).abs() < 1e-9);
        // Slots arrive in order; samples of one slot share the slot index.
        assert!(rec.samples.windows(2).all(|w| w[0].slot <= w[1].slot));
    }

    #[test]
    fn stepwise_execution_equals_one_shot_execution() {
        let scenario = tiny_scenario().at(
            4,
            ScenarioEvent::TrafficBurst {
                slice: 0,
                scale: 1.5,
                duration_slots: 4,
            },
        );
        let one_shot = run_scenario(scenario.clone(), quick_config()).unwrap();
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        engine.run_until(10, &mut ());
        assert_eq!(engine.current_slot(), 10);
        assert!(!engine.is_finished());
        let stepwise = engine.run_with_observer(&mut ());
        assert_eq!(one_shot, stepwise);
    }

    #[test]
    fn serialized_engine_resumes_mid_scenario_bit_for_bit() {
        let scenario = tiny_scenario().at(
            20,
            ScenarioEvent::DomainFault {
                domain: DomainKind::Transport,
                capacity_scale: 0.6,
                duration_slots: 8,
            },
        );
        // Reference: uninterrupted run with full telemetry.
        let mut reference = ScenarioEngine::new(scenario.clone(), quick_config()).unwrap();
        let mut ref_rec = Recorder::default();
        let ref_report = reference.run_with_observer(&mut ref_rec);

        // Checkpointed run: execute 17 slots (mid-episode, mid-fault window),
        // serialize, restore into a fresh engine, run the tail.
        let mut engine = ScenarioEngine::new(scenario, quick_config()).unwrap();
        let mut prefix = Recorder::default();
        engine.run_until(17, &mut prefix);
        let json = serde_json::to_string(&engine).unwrap();
        drop(engine);
        let mut restored: ScenarioEngine = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.current_slot(), 17);
        let mut suffix = Recorder::default();
        let resumed_report = restored.run_with_observer(&mut suffix);

        assert_eq!(ref_report, resumed_report);
        let replayed: Vec<SlotSample> = prefix
            .samples
            .iter()
            .chain(suffix.samples.iter())
            .copied()
            .collect();
        assert_eq!(replayed, ref_rec.samples);
        let episodes: Vec<EpisodeEndEvent> = prefix
            .episodes
            .iter()
            .chain(suffix.episodes.iter())
            .copied()
            .collect();
        assert_eq!(episodes, ref_rec.episodes);
    }

    #[test]
    fn injected_events_match_scripted_events_bit_for_bit() {
        // Reference: the timeline schedules an admission, a renegotiation
        // and a teardown. Live run: the same events are injected at the
        // same slot boundaries of an event-free scenario. Both observers
        // and both final reports must agree exactly.
        let spec = SliceSpec::new(SliceKind::Rdc);
        let scripted_scenario = tiny_scenario()
            .at(1, ScenarioEvent::AdmitSlice { slice: spec })
            .at(10, ScenarioEvent::AdmitSlice { slice: spec })
            .at(
                20,
                ScenarioEvent::RenegotiateSla {
                    slice: 0,
                    cost_threshold: 0.4,
                },
            )
            .at(30, ScenarioEvent::TeardownSlice { slice: 1 });
        let mut scripted = ScenarioEngine::new(scripted_scenario, quick_config()).unwrap();
        let mut scripted_rec = Recorder::default();
        let mut live = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        let mut live_rec = Recorder::default();
        // Whether the deployment has room for one more slice depends on the
        // shares learned so far; whatever the scripted timeline decided for
        // an admission, the live injection at the same boundary must decide.
        for slot in [1, 10] {
            let denied_before = scripted.run.admissions_denied;
            scripted.run_until(slot + 1, &mut scripted_rec);
            let scripted_outcome = if scripted.run.admissions_denied > denied_before {
                LiveEventOutcome::Denied
            } else {
                LiveEventOutcome::Applied
            };
            live.run_until(slot, &mut live_rec);
            assert_eq!(
                live.inject_event(&ScenarioEvent::AdmitSlice { slice: spec }, &mut live_rec)
                    .unwrap(),
                scripted_outcome,
                "admission at slot {slot}"
            );
        }
        let scripted_report = scripted.run_with_observer(&mut scripted_rec);
        live.run_until(20, &mut live_rec);
        assert_eq!(
            live.inject_event(
                &ScenarioEvent::RenegotiateSla {
                    slice: 0,
                    cost_threshold: 0.4,
                },
                &mut live_rec,
            )
            .unwrap(),
            LiveEventOutcome::Applied
        );
        live.run_until(30, &mut live_rec);
        assert_eq!(
            live.inject_event(&ScenarioEvent::TeardownSlice { slice: 1 }, &mut live_rec)
                .unwrap(),
            LiveEventOutcome::Applied
        );
        let live_report = live.run_with_observer(&mut live_rec);

        assert_eq!(scripted_report, live_report);
        assert_eq!(live_rec.samples, scripted_rec.samples);
        assert_eq!(live_rec.episodes, scripted_rec.episodes);
    }

    #[test]
    fn injected_admissions_respect_the_reservation_rule() {
        // A cell close to capacity: inject admissions at one boundary until
        // one is denied; the denial must be an outcome, not an error, and
        // the report counters advance like the scripted path's would.
        let mut engine = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        engine.run_until(4, &mut ());
        let spec = SliceSpec::new(SliceKind::Hvs);
        let mut granted = 0;
        let mut denied = 0;
        for _ in 0..64 {
            match engine.inject_event(&ScenarioEvent::AdmitSlice { slice: spec }, &mut ()) {
                Ok(LiveEventOutcome::Applied) => granted += 1,
                Ok(LiveEventOutcome::Denied) => {
                    denied += 1;
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(denied > 0, "the reservation rule must eventually deny");
        assert_eq!(engine.pending_admissions(), granted);
        // The engine keeps running fine with the granted slices aboard.
        engine.run_until(8, &mut ());
        assert_eq!(engine.pending_admissions(), 0);
    }

    #[test]
    fn injected_teardown_of_unknown_slice_is_skipped() {
        let mut engine = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        engine.run_until(2, &mut ());
        assert_eq!(
            engine
                .inject_event(&ScenarioEvent::TeardownSlice { slice: 99 }, &mut ())
                .unwrap(),
            LiveEventOutcome::Skipped
        );
    }

    #[test]
    fn invalid_or_posthumous_injections_are_errors() {
        let mut engine = ScenarioEngine::new(tiny_scenario(), quick_config()).unwrap();
        let invalid = ScenarioEvent::SetTrafficScale {
            slice: 0,
            scale: -1.0,
        };
        assert!(engine.inject_event(&invalid, &mut ()).is_err());
        engine.run();
        let valid = ScenarioEvent::TeardownSlice { slice: 0 };
        assert!(engine
            .inject_event(&valid, &mut ())
            .unwrap_err()
            .contains("finished"));
    }
}
