//! Integration tests spanning the whole workspace: traffic → simulator →
//! domain managers → agents → orchestrator, at a scale small enough for CI.

use onslicing::core::{
    evaluate_policy, AgentConfig, CoordinationMode, DeploymentBuilder, ModelBasedPolicy,
    RuleBasedBaseline, SliceEnvironment,
};
use onslicing::netsim::NetworkConfig;
use onslicing::slices::{Sla, SliceKind};
use onslicing::traffic::DiurnalTraceConfig;

fn small_env(kind: SliceKind, horizon: usize, seed: u64) -> SliceEnvironment {
    let trace = match kind {
        SliceKind::Mar => DiurnalTraceConfig::mar_default(),
        SliceKind::Hvs => DiurnalTraceConfig::hvs_default(),
        SliceKind::Rdc => DiurnalTraceConfig::rdc_default(),
    };
    SliceEnvironment::with_trace_config(
        kind,
        Sla::for_kind(kind),
        NetworkConfig::testbed_default(),
        trace,
        horizon,
        seed,
    )
}

/// The headline qualitative result of Table 1: the grid-searched baseline is
/// safe but expensive, and the model-based method is even more expensive.
#[test]
fn baseline_is_safe_and_model_based_is_more_expensive() {
    let network = NetworkConfig::testbed_default();
    let mut baseline_usage = 0.0;
    let mut baseline_violation = 0.0;
    let mut model_usage = 0.0;
    for kind in SliceKind::ALL {
        let sla = Sla::for_kind(kind);
        let baseline = RuleBasedBaseline::calibrate(
            kind,
            &sla,
            &network,
            kind.default_peak_users_per_second(),
            5,
            21,
        );
        let model = ModelBasedPolicy::new(kind, sla, kind.default_peak_users_per_second());
        let mut env = small_env(kind, 48, 31);
        let b = evaluate_policy(&baseline, &mut env, 1);
        let m = evaluate_policy(&model, &mut env, 1);
        baseline_usage += b.avg_usage_percent;
        baseline_violation += b.violation_percent;
        model_usage += m.avg_usage_percent;
    }
    assert_eq!(
        baseline_violation, 0.0,
        "the rule-based baseline must never violate"
    );
    assert!(
        model_usage > baseline_usage,
        "model-based ({model_usage:.1}) should use more than the baseline ({baseline_usage:.1})"
    );
}

/// The full OnSlicing pipeline: calibration, offline imitation, online
/// learning, evaluation — and the safety claim that the evaluation violates
/// (almost) nothing.
#[test]
fn onslicing_pipeline_learns_without_widespread_violations() {
    let mut orch = DeploymentBuilder::new()
        .agent_config(AgentConfig::onslicing())
        .scaled_down(16)
        .seed(77)
        .build();
    orch.offline_pretrain_all(2);
    let curve = orch.run_online(2);
    assert_eq!(curve.len(), 2);
    let test = orch.evaluate(2);
    assert_eq!(test.num_slice_episodes, 6);
    assert!(test.avg_usage_percent > 0.0 && test.avg_usage_percent < 100.0);
    assert!(
        test.violation_percent <= 34.0,
        "OnSlicing should keep most evaluation episodes violation-free, got {}%",
        test.violation_percent
    );
}

/// OnSlicing should be cheaper than the baseline it imitated (or at worst
/// comparable), because the learner only has to shave over-provisioned
/// dimensions.
#[test]
fn onslicing_is_not_more_expensive_than_its_baseline() {
    let mut orch = DeploymentBuilder::new()
        .agent_config(AgentConfig::onslicing())
        .scaled_down(16)
        .seed(13)
        .build();
    orch.offline_pretrain_all(2);
    orch.run_online(2);
    let test = orch.evaluate(1);

    let network = NetworkConfig::testbed_default();
    let mut baseline_usage = 0.0;
    for kind in SliceKind::ALL {
        let sla = Sla::for_kind(kind);
        let baseline = RuleBasedBaseline::calibrate(
            kind,
            &sla,
            &network,
            kind.default_peak_users_per_second(),
            4,
            13,
        );
        let mut env = small_env(kind, 16, 99);
        baseline_usage += evaluate_policy(&baseline, &mut env, 1).avg_usage_percent;
    }
    baseline_usage /= 3.0;
    // After only two short online epochs the learner is still essentially the
    // (imperfect) clone of the baseline, so this only asserts that it stays in
    // the baseline's ballpark instead of drifting toward extreme allocations;
    // the paper-scale runs are where the usage drops *below* the baseline.
    assert!(
        test.avg_usage_percent <= baseline_usage * 1.6,
        "OnSlicing usage {:.1}% should stay in the ballpark of the baseline {:.1}% it imitated",
        test.avg_usage_percent,
        baseline_usage
    );
}

/// The coordination mechanism must always hand the domain managers a feasible
/// allocation, whatever the agents ask for.
#[test]
fn coordination_always_produces_feasible_allocations() {
    for mode in [CoordinationMode::default(), CoordinationMode::Projection] {
        let mut orch = DeploymentBuilder::new()
            .agent_config(AgentConfig::onrl()) // wild, untrained actions
            .coordination(mode)
            .scaled_down(8)
            .seed(3)
            .build();
        orch.env_mut().reset_all();
        for _ in 0..8 {
            let outcome = orch.run_slot(true);
            assert!(
                orch.domains().is_feasible_slice(&outcome.executed),
                "{mode:?}: executed allocation must respect every capacity"
            );
        }
    }
}

/// The 5G NR substrate must dominate 4G LTE on ping latency, as in Fig. 16.
#[test]
fn nr_outperforms_lte_on_ping_latency() {
    use onslicing::netsim::NetworkSimulator;
    let mut lte = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(1));
    let mut nr = NetworkSimulator::new(NetworkConfig::testbed_nr().with_seed(1));
    let lte_avg: f64 = (0..100).map(|_| lte.ping_rtt_ms()).sum::<f64>() / 100.0;
    let nr_avg: f64 = (0..100).map(|_| nr.ping_rtt_ms()).sum::<f64>() / 100.0;
    assert!(nr_avg < lte_avg);
}
