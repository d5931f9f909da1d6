//! Integration tests of the safety mechanisms across crates: the switching
//! ablations (OnSlicing vs -NE vs -NB) and the constraint-aware reward
//! shaping, at CI scale.

use onslicing::core::{AgentConfig, CoordinationMode, DeploymentBuilder, SlotOutcome};

fn online_violation(config: AgentConfig, seed: u64) -> f64 {
    let mut orch = DeploymentBuilder::new()
        .agent_config(config)
        .coordination(CoordinationMode::default())
        .scaled_down(16)
        .seed(seed)
        .build();
    if config.enable_imitation {
        orch.offline_pretrain_all(2);
    }
    let curve = orch.run_online(3);
    curve.iter().map(|m| m.violation_percent).sum::<f64>() / curve.len() as f64
}

/// The Fig. 3 motivation: an unsafe fixed-penalty learner without imitation
/// violates far more than the full OnSlicing agent during online learning.
#[test]
fn unsafe_drl_violates_more_than_onslicing() {
    let onslicing = online_violation(AgentConfig::onslicing(), 5);
    let unsafe_drl = online_violation(AgentConfig::unsafe_drl(), 5);
    assert!(
        unsafe_drl >= onslicing,
        "unsafe DRL ({unsafe_drl:.1}%) should violate at least as much as OnSlicing ({onslicing:.1}%)"
    );
    assert!(
        unsafe_drl > 10.0,
        "a from-scratch learner with wide exploration should violate noticeably, got {unsafe_drl:.1}%"
    );
}

/// The Lagrangian multiplier only ratchets up under sustained violations.
#[test]
fn lambda_grows_only_for_violating_agents() {
    let mut orch = DeploymentBuilder::new()
        .agent_config(AgentConfig::onrl())
        .coordination(CoordinationMode::Projection)
        .scaled_down(12)
        .seed(9)
        .build();
    let lambda_before: Vec<f64> = orch.agents().iter().map(|a| a.lambda()).collect();
    orch.run_online(2);
    let lambda_after: Vec<f64> = orch.agents().iter().map(|a| a.lambda()).collect();
    // At least one untrained agent must have violated and raised its lambda;
    // no lambda may become negative.
    assert!(lambda_after.iter().any(|l| *l > lambda_before[0]));
    assert!(lambda_after.iter().all(|l| *l >= 0.0));
}

/// Switching variants: disabling the baseline switch can only increase (or
/// keep equal) the online violation rate relative to full OnSlicing. A
/// single seed can land either way (three short episodes, a handful of
/// violations), so the claim is about the mean over seeds.
#[test]
fn removing_the_switch_does_not_reduce_violations() {
    const SEEDS: u64 = 8;
    let mean = |config: AgentConfig| {
        (0..SEEDS)
            .map(|seed| online_violation(config, seed))
            .sum::<f64>()
            / SEEDS as f64
    };
    let with_switch = mean(AgentConfig::onslicing());
    let without_switch = mean(AgentConfig::onslicing_nb());
    assert!(
        without_switch + 1e-9 >= with_switch,
        "OnSlicing-NB (mean {without_switch:.1}% over {SEEDS} seeds) should not violate less \
         than OnSlicing ({with_switch:.1}%)"
    );
}

/// Drives `episodes` online episodes slot by slot and returns, for every
/// slice-episode in which the safety switch fired, the cost the slice had
/// accumulated *before* the slot of the first baseline action, as a fraction
/// of its episode budget `T · C_max`.
fn budget_spent_at_first_switch(config: AgentConfig, seed: u64, episodes: usize) -> Vec<f64> {
    let mut orch = DeploymentBuilder::new()
        .agent_config(config)
        .coordination(CoordinationMode::default())
        .scaled_down(16)
        .seed(seed)
        .build();
    orch.offline_pretrain_all(2);
    let horizon = orch.env().envs()[0].horizon();
    let mut outcome = SlotOutcome::default();
    let mut fired_at = Vec::new();
    for _ in 0..episodes {
        orch.env_mut().reset_all();
        let mut spent = vec![0.0; orch.num_slices()];
        let mut fired = vec![false; orch.num_slices()];
        for _ in 0..horizon {
            orch.run_slot_into(true, &mut outcome);
            for (i, agent) in orch.agents().iter().enumerate() {
                if outcome.decisions[i].used_baseline && !fired[i] {
                    fired[i] = true;
                    fired_at.push(spent[i] / agent.sla().episode_cost_budget(horizon));
                }
                spent[i] += outcome.kpis[i].cost;
            }
        }
        for agent in orch.agents_mut() {
            agent.end_episode();
        }
    }
    fired_at
}

/// The switching rule of Eq. 8 under the pre-activation-sampling estimator:
/// with π_φ the switch is *proactive* — it fires while the episode budget
/// `T · C_max` is not yet exhausted, because the predicted remaining cost of
/// the baseline is counted in (one expensive slot can still carry a slice
/// past the budget before the rule gets to look, hence "most", over seeds) —
/// and without π_φ (OnSlicing-NE) it can only be reactive: never before the
/// cumulative cost alone has reached the budget.
#[test]
fn the_switch_is_proactive_with_the_estimator_and_reactive_without_it() {
    let over_seeds = |config: AgentConfig| -> Vec<f64> {
        (0..6)
            .flat_map(|seed| budget_spent_at_first_switch(config, seed, 4))
            .collect()
    };
    let proactive = over_seeds(AgentConfig::onslicing());
    let in_time = proactive.iter().filter(|spent| **spent < 1.0).count();
    assert!(
        !proactive.is_empty() && 2 * in_time > proactive.len(),
        "most switches must fire before the budget is exhausted: {proactive:.2?}"
    );
    let reactive = over_seeds(AgentConfig::onslicing_ne());
    assert!(
        !reactive.is_empty() && reactive.iter().all(|spent| *spent >= 1.0),
        "without the estimator the switch may only fire on an exhausted budget: {reactive:.2?}"
    );
}
