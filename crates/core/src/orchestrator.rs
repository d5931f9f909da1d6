//! The OnSlicing orchestrator: per-slice agents, domain managers and the
//! distributed coordination loop.
//!
//! The orchestrator ties the pieces together for every configuration slot:
//!
//! 1. every agent proposes an action for its slice;
//! 2. the actions are coordinated against the infrastructure capacities —
//!    either through the paper's β-priced action modification loop (Eq. 13 +
//!    Eq. 14, warm-started between slots) or through plain projection (the
//!    baseline/OnRL method);
//! 3. the final actions are enforced by the domain managers and executed in
//!    the network simulator;
//! 4. the agents record the outcome and, at epoch boundaries, update their
//!    policies.
//!
//! ## Fused cell inference
//!
//! Every slice agent in a cell shares one trunk architecture, so the slot
//! hot path no longer dispatches one small forward pass per slice. Instead
//! [`Orchestrator::run_slot`] *gathers* one observation row per active slice
//! into a [`CellBatch`], runs one fused layer-major sweep per network family
//! (policy means, critic values) across the whole cell, and *scatters* the
//! output rows back into per-agent decisions. The split is RNG-exact:
//!
//! 1. **phase A** — each agent draws its switching statistic and classifies
//!    the proactive switch ([`OnSlicingAgent::decide_phase_switch`]); these
//!    are the only pre-action RNG draws, and agents own independent streams;
//! 2. **phase B** — the fused forwards (no RNG at all);
//! 3. **phase C** — each agent finishes its decision from its fused mean row
//!    ([`OnSlicingAgent::decide_finish`]), drawing exactly the action-sample
//!    variates the dispatched path would.
//!
//! The composition is bit-identical to dispatching one
//! [`OnSlicingAgent::decide`] / [`OnSlicingAgent::record`] per slice; this
//! module's tests keep that per-slice loop as their reference. The shared
//! trunk shape is checked once, where a slice enters the cell
//! ([`Orchestrator::new`], [`Orchestrator::admit_slice`],
//! [`Orchestrator::import_slice`]), never per slot.
//!
//! ## Parallelism
//!
//! Per-slice agents are fully independent between coordination rounds: each
//! owns its policy networks, cost estimator, RNG and rollout buffer, and
//! each slice environment owns its simulator. Work that touches one slice
//! only runs on the process's `rayon` pool, one agent per element:
//!
//! - phase A, the switching statistic — the largest share of a slot, since
//!   each agent draws its cost estimator's Monte-Carlo samples;
//! - the episode-boundary PPO updates, both the scenario engine's
//!   ([`Orchestrator::close_due_episodes`]) and the epoch's
//!   ([`Orchestrator::run_epoch`]);
//! - offline pre-training ([`Orchestrator::offline_pretrain_all`]).
//!
//! The fused forwards, coordination, enforcement and environment steps run
//! on the calling thread; `onslicing_nn`'s kernels are sequential. A
//! `for_each` over the pool allocates nothing once it is warm, so an
//! evaluation slot still allocates nothing in steady state. Determinism is
//! unaffected: no RNG or scratch is shared between agents, every result
//! lands in its slice's own slot, and whatever is summed across slices is
//! summed afterwards in slice order, so results are identical at every
//! thread count.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use onslicing_domains::{DomainSet, SliceId};
use onslicing_nn::CellBatch;
use onslicing_slices::{Action, Sla, SliceState, STATE_DIM};

use onslicing_slices::SlotKpi;

use crate::agent::{Decision, OnSlicingAgent};
use crate::env::{MultiSliceEnvironment, SliceEnvironment};
use crate::metrics::{EpisodeMetrics, EpochMetrics, SliceEpisodeSummary};

/// How over-requests of shared resources are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoordinationMode {
    /// The paper's mechanism: coordinating parameters β from the domain
    /// managers drive each agent's action modifier; at most `max_rounds`
    /// agent↔manager interactions per slot, then projection as a last
    /// resort.
    Modifier {
        /// Maximum number of interactions per slot.
        max_rounds: usize,
        /// Whether β is warm-started from the previous slot (the paper's
        /// initialization; disabling it raises the interaction count).
        warm_start: bool,
    },
    /// Plain proportional projection (the Baseline / OnRL method).
    Projection,
}

impl Default for CoordinationMode {
    fn default() -> Self {
        CoordinationMode::Modifier {
            max_rounds: 10,
            warm_start: true,
        }
    }
}

/// Configuration of the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// Over-request resolution mechanism.
    pub coordination: CoordinationMode,
    /// Episodes collected between consecutive policy updates (the paper's
    /// epoch is ~10 episodes of 96 transitions; scaled-down experiments use
    /// fewer).
    pub episodes_per_epoch: usize,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            coordination: CoordinationMode::default(),
            episodes_per_epoch: 2,
        }
    }
}

/// Why an orchestrator-level slice operation failed.
///
/// Callers that coordinate many orchestrators (the fleet runner, the
/// scenario engine's admission path) match on the variants instead of
/// string-comparing error text; `From<OrchestratorError> for String` keeps
/// the old `Result<_, String>` call sites compiling with a `?` or
/// `map_err(String::from)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OrchestratorError {
    /// A domain manager rejected the slice lifecycle command (duplicate
    /// registration, unknown id at the domain layer, ...).
    Domain {
        /// The slice the command addressed.
        id: SliceId,
        /// The manager's own description of the rejection.
        reason: String,
    },
    /// The referenced slice is not (or no longer) active in this
    /// orchestrator.
    InactiveSlice(SliceId),
    /// The slice's policy and critic networks do not have the layer
    /// dimensions the cell's agents share, so the cell's fused forward pass
    /// cannot run it.
    TrunkMismatch {
        /// Per-layer `(in, out)` dimensions of the cell's policy-mean and
        /// critic networks.
        cell: String,
        /// The same for the rejected slice.
        slice: String,
    },
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::Domain { id, reason } => {
                write!(f, "domain managers rejected {id}: {reason}")
            }
            OrchestratorError::InactiveSlice(id) => write!(f, "{id} is not an active slice"),
            OrchestratorError::TrunkMismatch { cell, slice } => write!(
                f,
                "slice networks have layer dimensions {slice}, the cell's agents share {cell}"
            ),
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<OrchestratorError> for String {
    fn from(e: OrchestratorError) -> Self {
        e.to_string()
    }
}

/// Outcome of one coordinated slot (exposed for tests, the showcase figures
/// and the telemetry recorder).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotOutcome {
    /// Each agent's own decision (before coordination).
    pub decisions: Vec<Decision>,
    /// The actions finally enforced.
    pub executed: Vec<Action>,
    /// The per-slice KPI each slice's simulator reported for the slot,
    /// parallel to `executed`.
    pub kpis: Vec<SlotKpi>,
    /// Number of agent↔manager interactions this slot took.
    pub interactions: usize,
}

/// Cheap scalar summary of one [`SlotOutcome`] — what a cell- or
/// fleet-level aggregator keeps per slot instead of the full
/// decision/action/KPI vectors (the scenario engine folds these into its
/// running `avg_slot_cost` / `avg_slot_usage_percent` report fields).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotAggregate {
    /// Slices that executed the slot.
    pub slices: usize,
    /// Agent↔manager interactions the slot took.
    pub interactions: usize,
    /// Sum of the slices' per-slot costs.
    pub total_cost: f64,
    /// Mean resource utilization across the slices, in percent.
    pub mean_usage_percent: f64,
}

impl SlotOutcome {
    /// Folds the per-slice vectors into a [`SlotAggregate`] in one pass.
    pub fn aggregate(&self) -> SlotAggregate {
        let n = self.kpis.len();
        let mut total_cost = 0.0;
        let mut usage = 0.0;
        for kpi in &self.kpis {
            total_cost += kpi.cost;
            usage += kpi.resource_usage_percent();
        }
        SlotAggregate {
            slices: n,
            interactions: self.interactions,
            total_cost,
            mean_usage_percent: usage / n.max(1) as f64,
        }
    }
}

/// The complete serialized state of one slice, detached from its
/// orchestrator: the agent (networks, Adam moments, rollout buffer,
/// Lagrangian state, RNG stream) and the environment (simulator, traffic
/// trace + generator cursor, slot/cost accumulators, RNG stream).
///
/// This is the unit of **live migration**: [`Orchestrator::export_slice`]
/// detaches a slice into a checkpoint and [`Orchestrator::import_slice`]
/// re-attaches it to another orchestrator, preserving every weight and RNG
/// stream bit-for-bit — a migrated slice continues exactly the trajectory
/// it would have taken, just under a different cell's coordination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceCheckpoint {
    /// The slice's application class (redundant with the agent's, kept for
    /// cheap inspection without touching agent internals).
    pub kind: onslicing_slices::SliceKind,
    /// The detached agent, mid-episode state included.
    pub agent: OnSlicingAgent,
    /// The detached environment, mid-episode state included.
    pub env: SliceEnvironment,
}

/// Reusable buffers of the fused slot path: the gather vectors, the two
/// fused-forward workspaces (policy means and critic values) and the
/// coordination scratch. Pure caches — cleared and refilled every slot, so
/// a freshly-`Default`ed workspace (e.g. after deserialization) warms up on
/// the first slot and allocates nothing from then on.
#[derive(Debug, Clone, Default)]
struct SlotWorkspace {
    /// One observation per active slice, gathered at the top of the slot.
    states: Vec<SliceState>,
    /// Each slice's cumulative episode cost, parallel to `states`.
    costs: Vec<f64>,
    /// Each agent's switching statistic from phase A.
    statistics: Vec<f64>,
    /// Each agent's fused critic value from phase B.
    values: Vec<f64>,
    /// The agents' proposed actions (pre-coordination).
    proposals: Vec<Action>,
    /// Fused forward workspace for the policy mean networks.
    policy_cell: CellBatch,
    /// Fused forward workspace for the critic networks.
    critic_cell: CellBatch,
    /// The slot outcome reused across an episode's slots.
    episode_outcome: SlotOutcome,
}

/// The end-to-end orchestrator of one infrastructure.
///
/// Serializes the entire deployment — every agent's networks, optimizers and
/// RNG, every environment's simulator and trace state, the domain managers'
/// allocations and coordinating parameters, and the slice-id bookkeeping —
/// so a deserialized orchestrator runs the remaining slots bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Orchestrator {
    env: MultiSliceEnvironment,
    agents: Vec<OnSlicingAgent>,
    domains: DomainSet,
    config: OrchestratorConfig,
    /// Stable identity of each active slice, parallel to `agents`/`env`.
    /// Positions shift on teardown; ids never do.
    slice_ids: Vec<SliceId>,
    /// Next id handed out by [`Orchestrator::admit_slice`].
    next_slice_id: u32,
    /// Fused slot-path scratch; never serialized, rebuilt lazily.
    #[serde(skip)]
    workspace: SlotWorkspace,
}

impl Orchestrator {
    /// Assembles an orchestrator; there must be exactly one agent per slice
    /// environment.
    ///
    /// # Panics
    /// Panics if the numbers of agents and environments differ, or if the
    /// agents do not all share one trunk shape.
    pub fn new(
        env: MultiSliceEnvironment,
        agents: Vec<OnSlicingAgent>,
        domains: DomainSet,
        config: OrchestratorConfig,
    ) -> Self {
        assert_eq!(
            env.num_slices(),
            agents.len(),
            "one agent per slice environment is required"
        );
        for agent in agents.iter().skip(1) {
            assert_eq!(
                agent.trunk_shape(),
                agents[0].trunk_shape(),
                "every agent of a cell must share one trunk shape"
            );
        }
        let slice_ids: Vec<SliceId> = (0..agents.len() as u32).map(SliceId).collect();
        let mut orchestrator = Self {
            env,
            agents,
            domains,
            config,
            next_slice_id: slice_ids.len() as u32,
            slice_ids,
            workspace: SlotWorkspace::default(),
        };
        for id in orchestrator.slice_ids.clone() {
            // Slices may already exist when an orchestrator is rebuilt around
            // a shared DomainSet; ignore duplicates.
            let _ = orchestrator.domains.create_slice(id);
        }
        orchestrator
    }

    /// Immutable access to the agents.
    pub fn agents(&self) -> &[OnSlicingAgent] {
        &self.agents
    }

    /// The stable ids of the active slices, parallel to
    /// [`Orchestrator::agents`] and the environment bundle.
    pub fn slice_ids(&self) -> &[SliceId] {
        &self.slice_ids
    }

    /// What a deserialised orchestrator must satisfy before its next slot:
    /// one agent and one environment per slice id, every agent with one
    /// trunk shape (the fused forward pass runs them as one batch), the
    /// domain set holds what its constructor and setters accept
    /// ([`DomainSet::validate`]) and every agent's learned state fits
    /// together (bias lengths against weight rows, Adam moments against
    /// parameter counts) — a mismatch would otherwise panic inside a kernel,
    /// slots or an epoch later.
    pub fn validate(&self) -> Result<(), String> {
        let (agents, envs, ids) = (
            self.agents.len(),
            self.env.envs().len(),
            self.slice_ids.len(),
        );
        if agents != envs || agents != ids {
            return Err(format!(
                "it holds {agents} agents, {envs} slice environments and {ids} slice ids"
            ));
        }
        let mut shapes = self.agents.iter().map(OnSlicingAgent::trunk_shape);
        if let Some(first) = shapes.next() {
            if let Some(other) = shapes.find(|s| *s != first) {
                return Err(format!(
                    "mixes agents with layer dimensions {first:?} and {other:?}"
                ));
            }
        }
        self.domains.validate()?;
        for (id, agent) in self.slice_ids.iter().zip(&self.agents) {
            agent
                .validate()
                .map_err(|e| format!("slice {}: {e}", id.0))?;
        }
        Ok(())
    }

    /// Number of currently active slices.
    pub fn num_slices(&self) -> usize {
        self.agents.len()
    }

    /// The position of a slice id, if the slice is active.
    pub fn index_of(&self, id: SliceId) -> Option<usize> {
        self.slice_ids.iter().position(|s| *s == id)
    }

    /// Burns the next slice id without admitting anything. Scenario files
    /// number mid-run slices by admission-event order, so a *denied*
    /// admission must still consume its id — otherwise every later scripted
    /// id would silently shift onto the wrong slice.
    pub fn reserve_slice_id(&mut self) -> SliceId {
        let id = SliceId(self.next_slice_id);
        self.next_slice_id += 1;
        id
    }

    /// Admits a new slice mid-run: registers it with every domain manager,
    /// appends its agent and environment, and returns its stable id. The
    /// caller decides *whether* admission is allowed (capacity checks live
    /// in the admission controller, not here); an agent whose networks do
    /// not have the cell's trunk shape is refused before anything changes.
    pub fn admit_slice(
        &mut self,
        agent: OnSlicingAgent,
        env: SliceEnvironment,
    ) -> Result<SliceId, OrchestratorError> {
        if let Some(first) = self.agents.first() {
            let (cell, slice) = (first.trunk_shape(), agent.trunk_shape());
            if cell != slice {
                return Err(OrchestratorError::TrunkMismatch {
                    cell: format!("{cell:?}"),
                    slice: format!("{slice:?}"),
                });
            }
        }
        let id = SliceId(self.next_slice_id);
        self.domains
            .create_slice(id)
            .map_err(|reason| OrchestratorError::Domain { id, reason })?;
        self.next_slice_id += 1;
        self.slice_ids.push(id);
        self.agents.push(agent);
        self.env.push_env(env);
        Ok(id)
    }

    /// Tears a slice down mid-run: deregisters it from every domain manager
    /// (its enforced allocation stops counting against capacity immediately)
    /// and returns its agent and environment to the caller.
    pub fn teardown_slice(
        &mut self,
        id: SliceId,
    ) -> Result<(OnSlicingAgent, SliceEnvironment), OrchestratorError> {
        let index = self
            .index_of(id)
            .ok_or(OrchestratorError::InactiveSlice(id))?;
        self.domains
            .delete_slice(id)
            .map_err(|reason| OrchestratorError::Domain { id, reason })?;
        self.slice_ids.remove(index);
        let agent = self.agents.remove(index);
        let env = self.env.remove_env(index);
        Ok((agent, env))
    }

    /// Detaches a slice into a [`SliceCheckpoint`]: deregisters it from the
    /// domain managers (like [`Orchestrator::teardown_slice`]) and returns
    /// its complete serialized state, mid-episode position included. The
    /// caller re-attaches it elsewhere with [`Orchestrator::import_slice`].
    pub fn export_slice(&mut self, id: SliceId) -> Result<SliceCheckpoint, OrchestratorError> {
        let (agent, env) = self.teardown_slice(id)?;
        Ok(SliceCheckpoint {
            kind: agent.kind(),
            agent,
            env,
        })
    }

    /// Re-attaches an exported slice under this orchestrator's **own** next
    /// slice id (per-cell id spaces are independent, so the exported id is
    /// not carried over). The agent and environment resume bit-for-bit; no
    /// reset, pre-training or re-calibration happens.
    pub fn import_slice(
        &mut self,
        checkpoint: SliceCheckpoint,
    ) -> Result<SliceId, OrchestratorError> {
        self.admit_slice(checkpoint.agent, checkpoint.env)
    }

    /// Renegotiates one slice's SLA: both the environment (cost/violation
    /// accounting) and the agent (switching budget, Lagrangian constraint)
    /// move to the new terms.
    pub fn renegotiate_sla(&mut self, id: SliceId, sla: Sla) -> Result<(), OrchestratorError> {
        let index = self
            .index_of(id)
            .ok_or(OrchestratorError::InactiveSlice(id))?;
        self.agents[index].set_sla(sla);
        self.env.envs_mut()[index].set_sla(sla);
        Ok(())
    }

    /// Mutable access to the agents (e.g. for offline pre-training).
    pub fn agents_mut(&mut self) -> &mut [OnSlicingAgent] {
        &mut self.agents
    }

    /// Immutable access to the environments.
    pub fn env(&self) -> &MultiSliceEnvironment {
        &self.env
    }

    /// Mutable access to the environments.
    pub fn env_mut(&mut self) -> &mut MultiSliceEnvironment {
        &mut self.env
    }

    /// The domain managers.
    pub fn domains(&self) -> &DomainSet {
        &self.domains
    }

    /// Mutable access to the domain managers (e.g. to pin coordinating
    /// parameters for the fixed-β sweep of Fig. 14).
    pub fn domains_mut(&mut self) -> &mut DomainSet {
        &mut self.domains
    }

    /// Runs the offline pre-training stage of every agent (§5) with
    /// `episodes_per_agent` baseline episodes each — one core per slice.
    pub fn offline_pretrain_all(&mut self, episodes_per_agent: usize) {
        self.agents
            .par_iter_mut()
            .zip(self.env.envs_mut().par_iter_mut())
            .for_each(|(agent, env)| {
                agent.offline_pretrain(env, episodes_per_agent);
            });
    }

    /// Resolves the slices' proposed actions against the shared capacities:
    /// the enforceable actions land in `executed` (cleared first) and the
    /// interaction count is returned. Every β update, feasibility check and
    /// last-resort projection runs in place, so a warm `executed` makes the
    /// round allocation-free.
    fn coordinate_in_place(&mut self, proposals: &[Action], executed: &mut Vec<Action>) -> usize {
        executed.clear();
        match self.config.coordination {
            CoordinationMode::Projection => {
                executed.extend_from_slice(proposals);
                self.domains.project_in_place(executed);
                1
            }
            CoordinationMode::Modifier {
                max_rounds,
                warm_start,
            } => {
                if !warm_start {
                    self.domains.reset_betas();
                }
                let mut betas = self.domains.betas();
                for (a, agent) in proposals.iter().zip(self.agents.iter_mut()) {
                    executed.push(agent.modify(a, &betas));
                }
                let mut rounds = 1;
                loop {
                    betas = self.domains.update_coordination_slice(executed);
                    if self.domains.is_feasible_slice(executed) || rounds >= max_rounds {
                        break;
                    }
                    executed.clear();
                    for (a, agent) in proposals.iter().zip(self.agents.iter_mut()) {
                        executed.push(agent.modify(a, &betas));
                    }
                    rounds += 1;
                }
                if !self.domains.is_feasible_slice(executed) {
                    self.domains.project_in_place(executed);
                }
                rounds
            }
        }
    }

    /// Runs one coordinated slot across all slices.
    ///
    /// When `learn` is true the agents sample stochastic actions and record
    /// transitions; when false they act deterministically (test-time
    /// evaluation).
    ///
    /// One observation row per slice is gathered into the cell batch, the
    /// policy means and critic values of the whole cell are computed in two
    /// fused layer-major sweeps, and the rows are scattered back through the
    /// agents' phased decide. RNG-draw order per agent is exactly that of a
    /// per-slice [`OnSlicingAgent::decide`], so the outcome is bit-identical
    /// to dispatching the slices one by one.
    pub fn run_slot(&mut self, learn: bool) -> SlotOutcome {
        let mut out = SlotOutcome::default();
        self.run_slot_into(learn, &mut out);
        out
    }

    /// [`Orchestrator::run_slot`] into a caller-owned outcome: the outcome's
    /// vectors are cleared and refilled, so a reused `SlotOutcome` makes the
    /// whole slot allocation-free in steady state.
    pub fn run_slot_into(&mut self, learn: bool, out: &mut SlotOutcome) {
        let mut ws = std::mem::take(&mut self.workspace);
        let n = self.agents.len();
        // Gather: observations, costs and the stacked observation rows.
        ws.states.clear();
        ws.costs.clear();
        for env in self.env.envs() {
            ws.states.push(env.state());
            ws.costs.push(env.cumulative_cost());
        }
        {
            let input = ws.policy_cell.input_mut(n, STATE_DIM);
            for (i, state) in ws.states.iter().enumerate() {
                state.write_row(input.row_mut(i));
            }
        }
        // Phase A: switching statistics and proactive-switch classification,
        // one agent per element on the pool. These draws are the only
        // pre-action RNG consumption, and each agent owns an independent
        // stream, so running them batch-first and in any order cannot change
        // any draw.
        ws.statistics.clear();
        ws.statistics.resize(n, 0.0);
        {
            let (input, costs) = (ws.policy_cell.input(), &ws.costs);
            self.agents
                .par_iter_mut()
                .zip(ws.statistics.par_iter_mut())
                .enumerate()
                .for_each(|(i, (agent, statistic))| {
                    *statistic = agent.decide_phase_switch(input.row(i), costs[i]);
                });
        }
        // Phase B: the fused forwards (no RNG). Policy means feed phase C;
        // critic values feed the recording phase (bootstrap values for
        // baseline-switched agents and transition values for π_θ actions).
        {
            let SlotWorkspace {
                policy_cell,
                critic_cell,
                values,
                ..
            } = &mut ws;
            {
                let src = policy_cell.input();
                let dst = critic_cell.input_mut(n, STATE_DIM);
                dst.data_mut().copy_from_slice(src.data());
            }
            let agents = &self.agents;
            policy_cell.forward_grouped(|i| agents[i].ppo().policy().mean_net());
            let vals = critic_cell.forward_grouped(|i| agents[i].ppo().critic());
            values.clear();
            for i in 0..n {
                values.push(vals.row(i)[0]);
            }
        }
        // Phase C: each agent finishes its decision from its fused mean row.
        out.decisions.clear();
        for i in 0..n {
            let mean = ws.policy_cell.output().row(i);
            out.decisions.push(self.agents[i].decide_finish(
                &ws.states[i],
                ws.statistics[i],
                mean,
                !learn,
            ));
        }
        ws.proposals.clear();
        for d in out.decisions.iter() {
            ws.proposals.push(d.action);
        }
        out.interactions = self.coordinate_in_place(&ws.proposals, &mut out.executed);
        for (i, action) in out.executed.iter().enumerate() {
            self.domains
                .enforce(self.slice_ids[i], *action)
                .expect("active slices are registered with every domain");
        }
        // Execution phase: each slice steps its own simulator and records its
        // own outcome with the fused critic value. The agent only stores a
        // learning transition when the decision carried a stochastic sample
        // (i.e. `learn` was true and π_θ acted); recording always happens so
        // episode usage/cost summaries stay available.
        let SlotOutcome {
            decisions,
            executed,
            kpis,
            ..
        } = out;
        kpis.clear();
        for (i, (agent, env)) in self
            .agents
            .iter_mut()
            .zip(self.env.envs_mut().iter_mut())
            .enumerate()
        {
            let result = env.step(&executed[i]);
            agent.record_with_value(
                &ws.states[i],
                &decisions[i],
                &executed[i],
                &result.kpi,
                result.done,
                ws.values[i],
            );
            kpis.push(result.kpi);
        }
        self.workspace = ws;
    }

    /// Closes the episode of every slice whose environment has reached its
    /// horizon: runs its agent's [`OnSlicingAgent::end_episode`] and then
    /// [`OnSlicingAgent::update_policy`], one agent per element on the
    /// pool. `closed` is cleared and refilled in slice order: entry `i`
    /// holds slice `i`'s summary and the number of transitions its update
    /// consumed, or `None` for a slice still mid-episode, whose agent is
    /// left untouched. Environments are not reset; the caller records the
    /// summaries and resets the closed ones.
    pub fn close_due_episodes(&mut self, closed: &mut Vec<Option<(SliceEpisodeSummary, usize)>>) {
        closed.clear();
        closed.resize(self.agents.len(), None);
        self.agents
            .par_iter_mut()
            .zip(self.env.envs_mut().par_iter_mut())
            .zip(closed.par_iter_mut())
            .for_each(|((agent, env), entry)| {
                if env.slot() >= env.horizon() {
                    let summary = agent.end_episode();
                    *entry = Some((summary, agent.update_policy().num_transitions));
                }
            });
    }

    /// Runs one full episode (one emulated day) and returns its metrics.
    /// With no active slices (all torn down) the episode is empty.
    pub fn run_episode(&mut self, learn: bool) -> EpisodeMetrics {
        if self.agents.is_empty() {
            return EpisodeMetrics {
                slices: Vec::new(),
                avg_interactions: 0.0,
            };
        }
        self.env.reset_all();
        let horizon = self.env.envs()[0].horizon();
        let mut interactions = 0usize;
        // One outcome buffer serves every slot of the episode, so the slot
        // loop recycles its vectors instead of reallocating them per slot.
        let mut outcome = std::mem::take(&mut self.workspace.episode_outcome);
        for _ in 0..horizon {
            self.run_slot_into(learn, &mut outcome);
            interactions += outcome.interactions;
        }
        self.workspace.episode_outcome = outcome;
        let slices = self.agents.iter_mut().map(|a| a.end_episode()).collect();
        EpisodeMetrics {
            slices,
            avg_interactions: interactions as f64 / horizon as f64,
        }
    }

    /// Runs one learning epoch (`episodes_per_epoch` episodes followed by a
    /// PPO update per agent) and returns the aggregated metrics.
    pub fn run_epoch(&mut self) -> EpochMetrics {
        let mut episodes = Vec::with_capacity(self.config.episodes_per_epoch);
        for _ in 0..self.config.episodes_per_epoch {
            episodes.push(self.run_episode(true));
        }
        // One core per agent, each through its own update scratch; agents
        // own independent RNG streams, so the result is the same at any
        // pool width.
        self.agents.par_iter_mut().for_each(|a| {
            a.update_policy();
        });
        EpochMetrics::from_episodes(&episodes)
    }

    /// Runs `num_epochs` learning epochs and returns the per-epoch learning
    /// curve (the data behind Figs. 9, 11 and 13).
    pub fn run_online(&mut self, num_epochs: usize) -> Vec<EpochMetrics> {
        (0..num_epochs).map(|_| self.run_epoch()).collect()
    }

    /// Evaluates the current policies deterministically over `episodes`
    /// episodes (the "test performance" of Table 1).
    pub fn evaluate(&mut self, episodes: usize) -> EpochMetrics {
        let runs: Vec<EpisodeMetrics> = (0..episodes).map(|_| self.run_episode(false)).collect();
        EpochMetrics::from_episodes(&runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use crate::baselines::RuleBasedBaseline;
    use onslicing_netsim::NetworkConfig;
    use onslicing_slices::{Sla, SliceKind};
    use onslicing_traffic::SLOTS_PER_DAY;

    fn build(config: AgentConfig, coordination: CoordinationMode) -> Orchestrator {
        let network = NetworkConfig::testbed_default();
        let env = MultiSliceEnvironment::testbed_default(network, 5);
        let horizon = SLOTS_PER_DAY;
        let agents = SliceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let sla = Sla::for_kind(*kind);
                let baseline = RuleBasedBaseline::calibrate(
                    *kind,
                    &sla,
                    &network,
                    kind.default_peak_users_per_second(),
                    4,
                    100 + i as u64,
                );
                OnSlicingAgent::new(*kind, sla, baseline, config.scaled_down(horizon), i as u64)
            })
            .collect();
        Orchestrator::new(
            env,
            agents,
            DomainSet::testbed_default(),
            OrchestratorConfig {
                coordination,
                episodes_per_epoch: 1,
            },
        )
    }

    #[test]
    fn episode_produces_metrics_for_every_slice() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.offline_pretrain_all(1);
        let metrics = orch.run_episode(true);
        assert_eq!(metrics.slices.len(), 3);
        assert!(metrics.avg_usage_percent() > 0.0);
        assert!(metrics.avg_interactions >= 1.0);
    }

    #[test]
    fn executed_actions_are_always_feasible() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.env_mut().reset_all();
        for _ in 0..10 {
            let outcome = orch.run_slot(true);
            assert!(orch.domains().is_feasible_slice(&outcome.executed));
        }
    }

    #[test]
    fn projection_mode_also_keeps_actions_feasible() {
        let mut orch = build(AgentConfig::onrl(), CoordinationMode::Projection);
        orch.env_mut().reset_all();
        for _ in 0..5 {
            let outcome = orch.run_slot(true);
            assert!(orch.domains().is_feasible_slice(&outcome.executed));
            assert_eq!(outcome.interactions, 1);
        }
    }

    #[test]
    fn pretrained_onslicing_keeps_violations_near_zero_in_the_first_epoch() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.offline_pretrain_all(2);
        let metrics = orch.run_epoch();
        assert!(
            metrics.violation_percent <= 34.0,
            "imitation + switching should prevent widespread violations, got {}%",
            metrics.violation_percent
        );
    }

    #[test]
    fn evaluation_runs_deterministically_without_recording() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.offline_pretrain_all(1);
        let before = orch.agents()[0].pending_transitions();
        let metrics = orch.evaluate(1);
        assert_eq!(metrics.num_slice_episodes, 3);
        assert_eq!(orch.agents()[0].pending_transitions(), before);
    }

    fn extra_slice(kind: SliceKind, seed: u64) -> (OnSlicingAgent, crate::env::SliceEnvironment) {
        extra_slice_with(kind, seed, true)
    }

    /// `scaled_down` gives every agent the small trunks; `small_networks =
    /// false` builds a full-size newcomer that does not fit such a cell.
    fn extra_slice_with(
        kind: SliceKind,
        seed: u64,
        small_networks: bool,
    ) -> (OnSlicingAgent, crate::env::SliceEnvironment) {
        let network = NetworkConfig::testbed_default();
        let sla = Sla::for_kind(kind);
        let baseline = RuleBasedBaseline::calibrate(
            kind,
            &sla,
            &network,
            kind.default_peak_users_per_second(),
            4,
            seed,
        );
        let env = crate::env::SliceEnvironment::new(kind, network, seed);
        let mut config = AgentConfig::onslicing().scaled_down(env.horizon());
        config.use_small_networks = small_networks;
        let agent = OnSlicingAgent::new(kind, sla, baseline, config, seed);
        (agent, env)
    }

    #[test]
    fn slices_can_join_and_leave_mid_run() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.env_mut().reset_all();
        orch.run_slot(true);
        assert_eq!(
            orch.slice_ids().to_vec(),
            vec![SliceId(0), SliceId(1), SliceId(2)]
        );

        let (agent, env) = extra_slice(SliceKind::Mar, 400);
        let id = orch.admit_slice(agent, env).unwrap();
        assert_eq!(id, SliceId(3));
        assert_eq!(orch.num_slices(), 4);
        assert!(orch.domains().has_slice(id));
        let outcome = orch.run_slot(true);
        assert_eq!(outcome.executed.len(), 4);
        assert!(orch.domains().is_feasible_slice(&outcome.executed));

        // Tear down a *middle* slice: ids stay stable, positions shift.
        let (torn_agent, _torn_env) = orch.teardown_slice(SliceId(1)).unwrap();
        assert_eq!(torn_agent.kind(), SliceKind::Hvs);
        assert_eq!(
            orch.slice_ids().to_vec(),
            vec![SliceId(0), SliceId(2), SliceId(3)]
        );
        assert!(!orch.domains().has_slice(SliceId(1)));
        assert_eq!(orch.index_of(SliceId(3)), Some(2));
        let outcome = orch.run_slot(true);
        assert_eq!(outcome.executed.len(), 3);
        // Only the survivors stay registered: the torn-down slice's
        // allocation no longer counts against capacity.
        assert!(orch
            .slice_ids()
            .iter()
            .all(|id| orch.domains().has_slice(*id)));
        assert!(orch.teardown_slice(SliceId(1)).is_err());
    }

    #[test]
    fn exported_slice_migrates_with_exact_weights_and_rng_streams() {
        // Two identical deployments diverge only in which orchestrator runs
        // slice 1 after the export: the migrated agent+env must be byte-
        // identical to the stay-at-home copy at export time, and must keep
        // producing the identical trajectory under the new orchestrator
        // when the surrounding population is the same.
        let mut source = build(AgentConfig::onslicing(), CoordinationMode::default());
        source.offline_pretrain_all(1);
        source.env_mut().reset_all();
        for _ in 0..3 {
            source.run_slot(true);
        }
        let reference = source.clone();

        let checkpoint = source.export_slice(SliceId(1)).unwrap();
        assert_eq!(checkpoint.kind, SliceKind::Hvs);
        assert!(!source.domains().has_slice(SliceId(1)));
        // Export is non-destructive to the slice state itself: the detached
        // agent and environment serialize byte-identically to the untouched
        // copies in the reference orchestrator.
        let index = reference.index_of(SliceId(1)).unwrap();
        assert_eq!(
            serde_json::to_string(&checkpoint.agent).unwrap(),
            serde_json::to_string(&reference.agents()[index]).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&checkpoint.env).unwrap(),
            serde_json::to_string(&reference.env().envs()[index]).unwrap()
        );

        // Import into a fresh orchestrator built from the same snapshot but
        // with its own id space: the slice gets the next free id there and
        // is registered with every domain manager.
        let mut target = reference.clone();
        let new_id = target.import_slice(checkpoint).unwrap();
        assert_eq!(new_id, SliceId(3));
        assert!(target.domains().has_slice(new_id));
        assert_eq!(target.num_slices(), 4);
        let imported = target.index_of(new_id).unwrap();
        assert_eq!(
            serde_json::to_string(&target.agents()[imported]).unwrap(),
            serde_json::to_string(&reference.agents()[index]).unwrap()
        );
    }

    #[test]
    fn reserved_slice_ids_are_never_handed_out_again() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        assert_eq!(orch.reserve_slice_id(), SliceId(3));
        let (agent, env) = extra_slice(SliceKind::Hvs, 500);
        assert_eq!(orch.admit_slice(agent, env).unwrap(), SliceId(4));
        assert!(orch.index_of(SliceId(3)).is_none());
    }

    #[test]
    fn sla_renegotiation_reaches_agent_and_environment() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        let loose = Sla::for_kind(SliceKind::Hvs).with_cost_threshold(0.5);
        orch.renegotiate_sla(SliceId(1), loose).unwrap();
        assert_eq!(orch.agents()[1].sla().cost_threshold, 0.5);
        assert_eq!(orch.env().envs()[1].sla().cost_threshold, 0.5);
        assert!(orch
            .renegotiate_sla(SliceId(9), Sla::for_kind(SliceKind::Mar))
            .is_err());
    }

    #[test]
    fn serialized_orchestrator_resumes_bit_for_bit() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.offline_pretrain_all(1);
        orch.env_mut().reset_all();
        for _ in 0..3 {
            orch.run_slot(true);
        }
        let json = serde_json::to_string(&orch).unwrap();
        let mut restored: Orchestrator = serde_json::from_str(&json).unwrap();
        for _ in 0..5 {
            let original = orch.run_slot(true);
            let resumed = restored.run_slot(true);
            assert_eq!(original, resumed);
        }
    }

    #[test]
    fn orchestrator_errors_are_typed_and_matchable() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        match orch.teardown_slice(SliceId(9)) {
            Err(OrchestratorError::InactiveSlice(id)) => assert_eq!(id, SliceId(9)),
            other => panic!("expected InactiveSlice, got {other:?}"),
        }
        assert_eq!(
            orch.renegotiate_sla(SliceId(9), Sla::for_kind(SliceKind::Mar))
                .unwrap_err(),
            OrchestratorError::InactiveSlice(SliceId(9))
        );
        // Pre-registering the next id at the domain layer makes the domain
        // managers reject the admission — the Domain variant carries both
        // the id and the manager's reason.
        orch.domains_mut().create_slice(SliceId(3)).unwrap();
        let (agent, env) = extra_slice(SliceKind::Rdc, 600);
        match orch.admit_slice(agent, env) {
            Err(OrchestratorError::Domain { id, reason }) => {
                assert_eq!(id, SliceId(3));
                assert!(reason.contains("already exists"), "reason: {reason}");
            }
            other => panic!("expected Domain rejection, got {other:?}"),
        }
        // Legacy call sites keep working through the String conversion.
        let text: String = OrchestratorError::InactiveSlice(SliceId(9)).into();
        assert!(text.contains("not an active slice"));
    }

    #[test]
    fn slot_aggregate_folds_the_full_outcome() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.env_mut().reset_all();
        let outcome = orch.run_slot(true);
        let agg = outcome.aggregate();
        assert_eq!(agg.slices, outcome.kpis.len());
        assert_eq!(agg.interactions, outcome.interactions);
        let total: f64 = outcome.kpis.iter().map(|k| k.cost).sum();
        assert!((agg.total_cost - total).abs() < 1e-12);
        let usage: f64 = outcome
            .kpis
            .iter()
            .map(|k| k.resource_usage_percent())
            .sum::<f64>()
            / outcome.kpis.len() as f64;
        assert!((agg.mean_usage_percent - usage).abs() < 1e-12);
        assert_eq!(
            SlotOutcome {
                decisions: Vec::new(),
                executed: Vec::new(),
                kpis: Vec::new(),
                interactions: 2,
            }
            .aggregate(),
            SlotAggregate {
                slices: 0,
                interactions: 2,
                total_cost: 0.0,
                mean_usage_percent: 0.0,
            }
        );
    }

    /// The dispatched per-slice reference the fused path is tested against:
    /// one [`OnSlicingAgent::decide`] and one [`OnSlicingAgent::record`] per
    /// slice (each running its own forward passes), around the same
    /// coordination and enforcement.
    fn reference_slot(orch: &mut Orchestrator, learn: bool) -> SlotOutcome {
        let states: Vec<_> = orch.env.envs().iter().map(|e| e.state()).collect();
        let decisions: Vec<Decision> = orch
            .agents
            .iter_mut()
            .zip(orch.env.envs())
            .zip(&states)
            .map(|((agent, env), state)| agent.decide(state, env.cumulative_cost(), !learn))
            .collect();
        let proposals: Vec<Action> = decisions.iter().map(|d| d.action).collect();
        let mut executed = Vec::new();
        let interactions = orch.coordinate_in_place(&proposals, &mut executed);
        for (id, action) in orch.slice_ids.iter().zip(&executed) {
            orch.domains.enforce(*id, *action).unwrap();
        }
        let kpis = orch
            .agents
            .iter_mut()
            .zip(orch.env.envs_mut().iter_mut())
            .enumerate()
            .map(|(i, (agent, env))| {
                let result = env.step(&executed[i]);
                agent.record(
                    &states[i],
                    &decisions[i],
                    &executed[i],
                    &result.kpi,
                    result.done,
                );
                result.kpi
            })
            .collect();
        SlotOutcome {
            decisions,
            executed,
            kpis,
            interactions,
        }
    }

    #[test]
    fn fused_slot_is_bit_identical_to_the_reference_path() {
        // Two clones of the same deployment: one runs the fused path, the
        // other the dispatched reference. Outcomes — decisions, samples,
        // executed actions, KPIs, interaction counts — must match
        // bit-for-bit in both learning and evaluation mode, and the agents
        // themselves (weights, RNG streams, buffers) must stay serialization-
        // equal throughout.
        let mut fused = build(AgentConfig::onslicing(), CoordinationMode::default());
        fused.offline_pretrain_all(1);
        let mut reference = fused.clone();
        fused.env_mut().reset_all();
        reference.env_mut().reset_all();
        for slot in 0..6 {
            let learn = slot % 2 == 0;
            let a = fused.run_slot(learn);
            let b = reference_slot(&mut reference, learn);
            assert_eq!(a, b, "slot {slot} (learn={learn}) diverged");
        }
        for (a, b) in fused.agents().iter().zip(reference.agents()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        assert_eq!(
            serde_json::to_string(fused.env()).unwrap(),
            serde_json::to_string(reference.env()).unwrap()
        );
    }

    #[test]
    fn fused_slot_matches_reference_through_admission_and_teardown() {
        // Ragged cell sizes mid-run: admit a fourth slice, then tear down a
        // middle one, running fused and reference side by side throughout —
        // including down to a single slice and an empty cell.
        let mut fused = build(AgentConfig::onslicing(), CoordinationMode::default());
        let mut reference = fused.clone();
        fused.env_mut().reset_all();
        reference.env_mut().reset_all();
        assert_eq!(fused.run_slot(true), reference_slot(&mut reference, true));

        for orch in [&mut fused, &mut reference] {
            let (agent, env) = extra_slice(SliceKind::Mar, 400);
            orch.admit_slice(agent, env).unwrap();
        }
        assert_eq!(fused.run_slot(true), reference_slot(&mut reference, true));

        for orch in [&mut fused, &mut reference] {
            orch.teardown_slice(SliceId(1)).unwrap();
        }
        assert_eq!(fused.run_slot(false), reference_slot(&mut reference, false));

        // Down to one slice, then none.
        for id in [SliceId(0), SliceId(2)] {
            for orch in [&mut fused, &mut reference] {
                orch.teardown_slice(id).unwrap();
            }
            assert_eq!(fused.run_slot(true), reference_slot(&mut reference, true));
        }
        assert_eq!(fused.num_slices(), 1);
        for orch in [&mut fused, &mut reference] {
            orch.teardown_slice(SliceId(3)).unwrap();
        }
        assert_eq!(fused.num_slices(), 0);
        assert_eq!(fused.run_slot(true), reference_slot(&mut reference, true));
        for (a, b) in fused.agents().iter().zip(reference.agents()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn fused_epoch_matches_reference_updates() {
        // A full learning epoch through the fused path (shared PPO scratch)
        // against one whose updates run through each agent's own scratch:
        // the resulting weights, optimizer moments and RNG streams must be
        // serialization-equal.
        let mut fused = build(AgentConfig::onslicing(), CoordinationMode::default());
        fused.offline_pretrain_all(1);
        let mut reference = fused.clone();

        let m1 = fused.run_epoch();

        reference.env_mut().reset_all();
        let horizon = reference.env().envs()[0].horizon();
        for _ in 0..horizon {
            reference_slot(&mut reference, true);
        }
        for agent in reference.agents_mut() {
            agent.end_episode();
        }
        for agent in reference.agents_mut() {
            agent.update_policy();
        }
        assert_eq!(m1.num_slice_episodes, 3);
        for (a, b) in fused.agents().iter().zip(reference.agents()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn close_due_episodes_matches_the_per_slice_reference() {
        // Three slices start together and a fourth joins one slot later, so
        // when the first three reach their horizon it is one slot short.
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        orch.env_mut().reset_all();
        let horizon = orch.env().envs()[0].horizon();
        orch.run_slot(true);
        let (agent, mut env) = extra_slice(SliceKind::Mar, 400);
        env.reset();
        orch.admit_slice(agent, env).unwrap();
        for _ in 1..horizon {
            orch.run_slot(true);
        }
        assert_eq!(orch.env().envs()[3].slot(), horizon - 1);
        let mut reference = orch.clone();

        let mut closed = Vec::new();
        orch.close_due_episodes(&mut closed);

        let expected: Vec<Option<(SliceEpisodeSummary, usize)>> = reference
            .agents
            .iter_mut()
            .zip(reference.env.envs())
            .map(|(agent, env)| {
                (env.slot() >= env.horizon()).then(|| {
                    let summary = agent.end_episode();
                    (summary, agent.update_policy().num_transitions)
                })
            })
            .collect();
        assert_eq!(
            closed.iter().map(Option::is_some).collect::<Vec<_>>(),
            [true, true, true, false]
        );
        assert!(closed
            .iter()
            .flatten()
            .all(|&(_, transitions)| transitions > 0));
        assert_eq!(closed, expected);
        for (a, b) in orch.agents().iter().zip(reference.agents()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        // Environments are the caller's to reset.
        assert_eq!(
            serde_json::to_string(orch.env()).unwrap(),
            serde_json::to_string(reference.env()).unwrap()
        );

        // The scratch is refilled, not appended to: the next call sees no
        // slice at its horizon.
        for env in &mut orch.env_mut().envs_mut()[..3] {
            env.reset();
        }
        let before = serde_json::to_string(&orch.agents).unwrap();
        orch.close_due_episodes(&mut closed);
        assert_eq!(closed, [None; 4]);
        assert_eq!(serde_json::to_string(&orch.agents).unwrap(), before);
    }

    #[test]
    fn mixed_trunk_slices_are_refused_leaving_the_cell_unchanged() {
        let mut orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        let (full_size, env) = extra_slice_with(SliceKind::Mar, 700, false);
        let before = serde_json::to_string(&orch).unwrap();
        let checkpoint = SliceCheckpoint {
            kind: SliceKind::Mar,
            agent: full_size.clone(),
            env: env.clone(),
        };
        for result in [
            orch.admit_slice(full_size, env.clone()),
            orch.import_slice(checkpoint),
        ] {
            match result {
                Err(OrchestratorError::TrunkMismatch { cell, slice }) => {
                    assert_ne!(cell, slice);
                    assert!(
                        cell.contains("(9, ") && slice.contains("(9, "),
                        "{cell} {slice}"
                    );
                }
                other => panic!("expected TrunkMismatch, got {other:?}"),
            }
        }
        // Nothing moved: slice count, domain registrations, the id counter.
        assert_eq!(orch.num_slices(), 3);
        assert!(!orch.domains().has_slice(SliceId(3)));
        assert_eq!(serde_json::to_string(&orch).unwrap(), before);
        // The next fitting slice still gets the id the refusals did not burn.
        let (small, env) = extra_slice(SliceKind::Mar, 700);
        assert_eq!(orch.admit_slice(small, env).unwrap(), SliceId(3));
    }

    #[test]
    #[should_panic(expected = "must share one trunk shape")]
    fn mixed_trunk_cells_cannot_be_constructed() {
        let orch = build(AgentConfig::onslicing(), CoordinationMode::default());
        let mut agents = orch.agents().to_vec();
        agents[2] = extra_slice_with(SliceKind::Rdc, 2, false).0;
        let _ = Orchestrator::new(
            orch.env().clone(),
            agents,
            DomainSet::testbed_default(),
            OrchestratorConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "one agent per slice environment")]
    fn mismatched_agent_count_is_rejected() {
        let network = NetworkConfig::testbed_default();
        let env = MultiSliceEnvironment::testbed_default(network, 1);
        let _ = Orchestrator::new(
            env,
            Vec::new(),
            DomainSet::testbed_default(),
            OrchestratorConfig::default(),
        );
    }
}
