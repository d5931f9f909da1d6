//! The orchestration environment: one slice's interaction loop with the
//! simulated end-to-end network.
//!
//! A [`SliceEnvironment`] owns the slice's traffic trace, SLA and a
//! [`NetworkSimulator`], and exposes the gym-style `reset` / `step` loop the
//! agents learn on: every step corresponds to one 15-minute configuration
//! slot, an episode is one emulated day (96 slots, the paper's setting), and
//! the observation is the [`SliceState`] defined in §3 of the paper.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use onslicing_netsim::{NetworkConfig, NetworkSimulator};
use onslicing_slices::{Action, Sla, SliceKind, SliceState, SlotKpi};
use onslicing_traffic::{DiurnalTraceConfig, TraceGenerator, TrafficTrace, SLOTS_PER_DAY};

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepResult {
    /// The measurements the slice application reported for the slot.
    pub kpi: SlotKpi,
    /// The observation for the next slot.
    pub next_state: SliceState,
    /// Whether the episode (one emulated day) has ended.
    pub done: bool,
}

/// The per-slice orchestration environment.
///
/// Serializes every piece of dynamic state — the current traffic trace, the
/// generator, the simulator (channel + RNG), the slot cursor, the cost
/// accumulator and the environment's own RNG stream — so a deserialized
/// environment steps bit-for-bit like the original.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceEnvironment {
    kind: SliceKind,
    sla: Sla,
    sim: NetworkSimulator,
    trace: TrafficTrace,
    trace_generator: TraceGenerator,
    horizon: usize,
    slot: usize,
    cumulative_cost: f64,
    state: SliceState,
    rng: ChaCha8Rng,
    /// Multiplier on the trace's arrival rates (traffic regime shifts and
    /// bursts injected by scenarios); persists across episode resets.
    traffic_scale: f64,
}

/// The paper's default diurnal traffic profile of a slice kind.
pub fn default_trace_config(kind: SliceKind) -> DiurnalTraceConfig {
    match kind {
        SliceKind::Mar => DiurnalTraceConfig::mar_default(),
        SliceKind::Hvs => DiurnalTraceConfig::hvs_default(),
        SliceKind::Rdc => DiurnalTraceConfig::rdc_default(),
    }
}

impl SliceEnvironment {
    /// Creates an environment with the paper's defaults for the given slice
    /// kind: its default SLA, its default traffic profile scaled to the
    /// testbed peak rate, the LTE testbed network and a 96-slot horizon.
    pub fn new(kind: SliceKind, network: NetworkConfig, seed: u64) -> Self {
        Self::with_trace_config(
            kind,
            Sla::for_kind(kind),
            network,
            default_trace_config(kind),
            SLOTS_PER_DAY,
            seed,
        )
    }

    /// Creates an environment with explicit SLA, traffic profile and horizon.
    pub fn with_trace_config(
        kind: SliceKind,
        sla: Sla,
        network: NetworkConfig,
        trace_config: DiurnalTraceConfig,
        horizon: usize,
        seed: u64,
    ) -> Self {
        assert!(horizon > 0, "the episode horizon must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace_generator = TraceGenerator::new(trace_config);
        let trace = trace_generator.generate(horizon, &mut rng);
        let sim = NetworkSimulator::new(network.with_seed(rng.gen()));
        let state = SliceState::initial(&sla, trace.rate_at(0) / trace.peak_rate().max(1e-9));
        Self {
            kind,
            sla,
            sim,
            trace,
            trace_generator,
            horizon,
            slot: 0,
            cumulative_cost: 0.0,
            state,
            rng,
            traffic_scale: 1.0,
        }
    }

    /// The slice kind this environment serves.
    pub fn kind(&self) -> SliceKind {
        self.kind
    }

    /// The slice's SLA.
    pub fn sla(&self) -> &Sla {
        &self.sla
    }

    /// Episode length in slots.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Index of the upcoming slot within the episode.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Cost accumulated so far in the current episode.
    pub fn cumulative_cost(&self) -> f64 {
        self.cumulative_cost
    }

    /// The current observation.
    pub fn state(&self) -> SliceState {
        self.state
    }

    /// The slice's traffic trace.
    pub fn trace(&self) -> &TrafficTrace {
        &self.trace
    }

    /// Arrival rate (users/s) of the given slot, including any active
    /// traffic-scale override.
    pub fn arrival_rate_at(&self, slot: usize) -> f64 {
        self.trace.rate_at(slot) * self.traffic_scale
    }

    /// Traffic of the given slot normalized by the trace peak (the `f_t`
    /// component of the observation). A scale override pushes this above 1
    /// — capped at 2 so the observation stays inside the state box — which
    /// is exactly how the agent "sees" a surge.
    pub fn normalized_traffic_at(&self, slot: usize) -> f64 {
        (self.trace.rate_at(slot) * self.traffic_scale / self.trace.peak_rate().max(1e-9)).min(2.0)
    }

    /// The current traffic-scale override (1.0 = the trace as generated).
    pub fn traffic_scale(&self) -> f64 {
        self.traffic_scale
    }

    /// Sets the traffic-scale override: every future slot's arrival rate is
    /// the trace rate times `scale`. Persists across episode resets (a
    /// regime shift), so bursts are modeled as a scale-up followed by a
    /// scale-down event.
    ///
    /// # Panics
    /// Panics if the scale is not positive and finite.
    pub fn set_traffic_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "traffic scale must be positive and finite"
        );
        self.traffic_scale = scale;
    }

    /// Replaces the slice's SLA mid-deployment (renegotiation). Takes effect
    /// from the next step: future per-slot costs and violation checks use
    /// the new terms; the cost already accumulated this episode stands.
    pub fn set_sla(&mut self, sla: Sla) {
        self.sla = sla;
    }

    /// Replaces the diurnal traffic profile (a long-horizon regime change,
    /// e.g. a new tenant mix). The remaining slots of the current episode
    /// keep the old trace; the next reset generates from the new profile.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn set_trace_config(&mut self, config: DiurnalTraceConfig) {
        self.trace_generator = TraceGenerator::new(config);
    }

    /// Starts a new episode: regenerates the day's traffic (new noise), picks
    /// fresh channel dynamics and resets the cost accumulator. Returns the
    /// initial observation.
    pub fn reset(&mut self) -> SliceState {
        self.trace = self.trace_generator.generate(self.horizon, &mut self.rng);
        self.sim.reseed(self.rng.gen());
        self.slot = 0;
        self.cumulative_cost = 0.0;
        self.state = SliceState::initial(&self.sla, self.normalized_traffic_at(0));
        self.state
    }

    /// Executes one configuration slot with the given (already enforced)
    /// action.
    pub fn step(&mut self, action: &Action) -> StepResult {
        let arrival = self.arrival_rate_at(self.slot);
        let kpi = self.sim.step_slice(self.kind, &self.sla, action, arrival);
        self.cumulative_cost += kpi.cost;
        self.slot += 1;
        let done = self.slot >= self.horizon;
        let next_traffic = self.normalized_traffic_at(self.slot % self.horizon);
        self.state = SliceState::from_kpi(
            &self.sla,
            self.slot % self.horizon,
            self.horizon,
            next_traffic,
            &kpi,
            self.cumulative_cost,
        );
        StepResult {
            kpi,
            next_state: self.state,
            done,
        }
    }

    /// Average per-slot cost of the episode so far (the violation metric is
    /// this value exceeding `C_max` at the end of the episode).
    pub fn average_cost(&self) -> f64 {
        if self.slot == 0 {
            0.0
        } else {
            self.cumulative_cost / self.slot as f64
        }
    }

    /// Whether the finished (or in-progress) episode violates the SLA.
    pub fn is_violated(&self) -> bool {
        self.sla.violates(self.average_cost())
    }
}

/// A bundle of per-slice environments sharing one infrastructure, in
/// [`SliceKind::ALL`] order by default.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiSliceEnvironment {
    envs: Vec<SliceEnvironment>,
}

impl MultiSliceEnvironment {
    /// Creates the paper's three-slice setup (MAR, HVS, RDC) on the given
    /// network.
    pub fn testbed_default(network: NetworkConfig, seed: u64) -> Self {
        let envs = SliceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| SliceEnvironment::new(*kind, network, seed.wrapping_add(i as u64)))
            .collect();
        Self { envs }
    }

    /// Wraps an explicit set of environments (used for the slice-count
    /// scaling experiment of Fig. 19).
    pub fn from_envs(envs: Vec<SliceEnvironment>) -> Self {
        assert!(
            !envs.is_empty(),
            "at least one slice environment is required"
        );
        Self { envs }
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.envs.len()
    }

    /// Immutable access to the environments.
    pub fn envs(&self) -> &[SliceEnvironment] {
        &self.envs
    }

    /// Mutable access to the environments.
    pub fn envs_mut(&mut self) -> &mut [SliceEnvironment] {
        &mut self.envs
    }

    /// Adds a slice environment at the end of the bundle (mid-run slice
    /// admission).
    pub fn push_env(&mut self, env: SliceEnvironment) {
        self.envs.push(env);
    }

    /// Removes and returns the environment at `index` (mid-run slice
    /// teardown); later environments shift down.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    pub fn remove_env(&mut self, index: usize) -> SliceEnvironment {
        assert!(
            index < self.envs.len(),
            "slice environment index {index} out of bounds ({} slices)",
            self.envs.len()
        );
        self.envs.remove(index)
    }

    /// Resets every slice and returns the initial observations.
    pub fn reset_all(&mut self) -> Vec<SliceState> {
        self.envs.iter_mut().map(|e| e.reset()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(kind: SliceKind) -> SliceEnvironment {
        SliceEnvironment::new(kind, NetworkConfig::testbed_default(), 42)
    }

    #[test]
    fn episode_runs_for_the_configured_horizon() {
        let mut e = env(SliceKind::Mar);
        assert_eq!(e.horizon(), 96);
        e.reset();
        let mut steps = 0;
        loop {
            let r = e.step(&Action::uniform(0.5));
            steps += 1;
            if r.done {
                break;
            }
        }
        assert_eq!(steps, 96);
        assert_eq!(e.slot(), 96);
    }

    #[test]
    fn cumulative_cost_accumulates_and_resets() {
        let mut e = env(SliceKind::Mar);
        e.reset();
        for _ in 0..10 {
            e.step(&Action::uniform(0.02)); // starved -> positive cost
        }
        assert!(e.cumulative_cost() > 0.0);
        assert!(e.average_cost() > 0.0);
        e.reset();
        assert_eq!(e.cumulative_cost(), 0.0);
        assert_eq!(e.slot(), 0);
    }

    #[test]
    fn generous_allocation_keeps_the_episode_violation_free() {
        let mut e = env(SliceKind::Hvs);
        e.reset();
        let mut action = Action::uniform(0.5);
        action.ul_mcs_offset = 0.0;
        action.dl_mcs_offset = 0.0;
        loop {
            if e.step(&action).done {
                break;
            }
        }
        assert!(
            !e.is_violated(),
            "average cost {} should satisfy the SLA",
            e.average_cost()
        );
    }

    #[test]
    fn observations_track_the_slot_and_traffic() {
        let mut e = env(SliceKind::Mar);
        let s0 = e.reset();
        assert_eq!(s0.slot_fraction, 0.0);
        let r = e.step(&Action::uniform(0.4));
        assert!((r.next_state.slot_fraction - 1.0 / 96.0).abs() < 1e-9);
        assert!(r.next_state.traffic >= 0.0 && r.next_state.traffic <= 2.0);
        assert!(r.next_state.is_finite());
    }

    #[test]
    fn reset_regenerates_traffic_noise() {
        let mut e = env(SliceKind::Hvs);
        e.reset();
        let first: Vec<f64> = e.trace().rates().to_vec();
        e.reset();
        let second: Vec<f64> = e.trace().rates().to_vec();
        assert_ne!(first, second, "per-episode traffic should differ in noise");
    }

    #[test]
    fn multi_slice_environment_has_one_env_per_kind() {
        let mut m = MultiSliceEnvironment::testbed_default(NetworkConfig::testbed_default(), 1);
        assert_eq!(m.num_slices(), 3);
        let states = m.reset_all();
        assert_eq!(states.len(), 3);
        let kinds: Vec<SliceKind> = m.envs().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, SliceKind::ALL.to_vec());
    }

    #[test]
    #[should_panic(expected = "at least one slice environment")]
    fn empty_multi_slice_environment_is_rejected() {
        let _ = MultiSliceEnvironment::from_envs(vec![]);
    }

    #[test]
    fn traffic_scale_raises_arrivals_and_the_observation() {
        let mut e = env(SliceKind::Mar);
        e.reset();
        let base_rate = e.arrival_rate_at(3);
        let base_traffic = e.normalized_traffic_at(3);
        e.set_traffic_scale(1.5);
        assert!((e.arrival_rate_at(3) - 1.5 * base_rate).abs() < 1e-12);
        let surged = e.normalized_traffic_at(3);
        assert!(surged > base_traffic && surged <= 2.0);
        // The override survives an episode reset (regime shift, not noise).
        e.reset();
        assert_eq!(e.traffic_scale(), 1.5);
        // Scaling back down restores the original rates.
        e.set_traffic_scale(1.0);
        assert_eq!(e.traffic_scale(), 1.0);
    }

    #[test]
    fn sla_renegotiation_changes_future_violation_checks() {
        let mut e = env(SliceKind::Hvs);
        e.reset();
        for _ in 0..4 {
            e.step(&Action::uniform(0.02)); // starved -> high cost
        }
        assert!(e.is_violated());
        // Loosen the SLA until the running average is acceptable.
        let generous = Sla::for_kind(SliceKind::Hvs).with_cost_threshold(1.0);
        e.set_sla(generous);
        assert!(!e.is_violated());
        assert_eq!(e.sla().cost_threshold, 1.0);
    }

    #[test]
    fn trace_config_swap_takes_effect_on_the_next_reset() {
        let mut e = env(SliceKind::Mar);
        e.reset();
        let mar_peak = e.trace().peak_rate();
        e.set_trace_config(DiurnalTraceConfig::mar_default().with_peak_rate(50.0));
        // Current episode keeps the old trace.
        assert_eq!(e.trace().peak_rate(), mar_peak);
        e.reset();
        assert!((e.trace().peak_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn environments_can_join_and_leave_the_bundle() {
        let mut m = MultiSliceEnvironment::testbed_default(NetworkConfig::testbed_default(), 1);
        m.push_env(env(SliceKind::Mar));
        assert_eq!(m.num_slices(), 4);
        let removed = m.remove_env(1);
        assert_eq!(removed.kind(), SliceKind::Hvs);
        assert_eq!(m.num_slices(), 3);
        let kinds: Vec<SliceKind> = m.envs().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec![SliceKind::Mar, SliceKind::Rdc, SliceKind::Mar]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn removing_a_missing_environment_panics() {
        let mut m = MultiSliceEnvironment::testbed_default(NetworkConfig::testbed_default(), 1);
        let _ = m.remove_env(7);
    }
}
