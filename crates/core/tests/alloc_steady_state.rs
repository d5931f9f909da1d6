//! Allocation audit of the fused slot path (the PR's `_into` discipline,
//! extended to the orchestrator): after a warm-up episode, an evaluation
//! slot must run without touching the allocator at all — the gather
//! buffers, fused cell batches, coordination scratch and outcome vectors
//! are all reused, and the Bayesian predict path runs entirely inside its
//! `PredictScratch` (its GEMMs go through `Matrix::matmul_into`, the one
//! driver, which writes into the caller's output and allocates nothing at
//! any row count).
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary and its tests take turns behind [`SERIAL`]: one
//! test's warm-up would otherwise allocate inside the other's counting
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use onslicing_core::{
    AgentConfig, CoordinationMode, MultiSliceEnvironment, OnSlicingAgent, Orchestrator,
    OrchestratorConfig, RuleBasedBaseline, SlotOutcome,
};
use onslicing_domains::DomainSet;
use onslicing_netsim::NetworkConfig;
use onslicing_slices::{Sla, SliceKind};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Held for a whole test; a failed sibling must not poison the other.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn build_orchestrator() -> Orchestrator {
    let network = NetworkConfig::testbed_default();
    let env = MultiSliceEnvironment::testbed_default(network, 5);
    let horizon = env.envs()[0].horizon();
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
            OnSlicingAgent::new(
                *kind,
                sla,
                baseline,
                AgentConfig::onslicing().scaled_down(horizon),
                i as u64,
            )
        })
        .collect();
    Orchestrator::new(
        env,
        agents,
        DomainSet::testbed_default(),
        OrchestratorConfig {
            coordination: CoordinationMode::default(),
            episodes_per_epoch: 1,
        },
    )
}

#[test]
fn evaluation_slots_allocate_nothing_in_steady_state() {
    let _turn = serial();
    let mut orch = build_orchestrator();
    let horizon = orch.env().envs()[0].horizon();

    // Warm-up: one full evaluation episode sizes every reusable buffer —
    // the gather vectors, both cell batches, the Bayesian predictor's
    // scratch, the coordination scratch and the outcome's
    // own vectors (including the episode-cost accumulators, which reach
    // their full-episode capacity here and keep it across resets).
    let mut outcome = SlotOutcome::default();
    orch.env_mut().reset_all();
    for _ in 0..horizon {
        orch.run_slot_into(false, &mut outcome);
    }
    for agent in orch.agents_mut() {
        agent.end_episode();
    }

    // Steady state: a fresh episode's slots must not allocate at all.
    orch.env_mut().reset_all();
    orch.run_slot_into(false, &mut outcome);
    for slot in 0..4 {
        let allocations = count_allocations(|| {
            orch.run_slot_into(false, &mut outcome);
        });
        assert_eq!(
            allocations, 0,
            "evaluation slot {slot} allocated {allocations} times in steady state"
        );
    }
    assert_eq!(outcome.executed.len(), 3);
}

#[test]
fn learning_slots_only_allocate_for_recorded_transitions() {
    // The learning path necessarily allocates when it stores transitions
    // (rollout buffers grow, policy samples carry vectors), but the decide /
    // coordinate / step machinery itself is the same reused-workspace code.
    // Guard against regressions with a generous per-slot ceiling: a handful
    // of allocations per slice (the transition's vectors), not the hundreds
    // the dispatched path used to make.
    let _turn = serial();
    let mut orch = build_orchestrator();
    let horizon = orch.env().envs()[0].horizon();
    let mut outcome = SlotOutcome::default();
    orch.env_mut().reset_all();
    for _ in 0..horizon {
        orch.run_slot_into(true, &mut outcome);
    }
    for agent in orch.agents_mut() {
        agent.end_episode();
    }

    orch.env_mut().reset_all();
    orch.run_slot_into(true, &mut outcome);
    let slices = orch.num_slices() as u64;
    for slot in 0..4 {
        let allocations = count_allocations(|| {
            orch.run_slot_into(true, &mut outcome);
        });
        assert!(
            allocations <= 12 * slices,
            "learning slot {slot} allocated {allocations} times (> {} budget)",
            12 * slices
        );
    }
}
