//! # onslicing-bench
//!
//! The experiment harness of the OnSlicing reproduction.
//!
//! * `src/bin/` contains one binary per table and figure of the paper's
//!   evaluation (§7); each prints the same rows or series the paper reports.
//!   Run them with `cargo run --release --bin <name>`; every binary accepts
//!   an optional `--full` flag that switches from the CI-scale configuration
//!   (short episodes, few epochs) to a paper-scale run (96-slot episodes,
//!   many more epochs — minutes to hours of compute).
//!
//! * `bench_scenario`, `fleet_runner`, `bench_tournament` emit the
//!   seed-pinned JSON that `bench_regress` ([`regress`]) holds exactly
//!   against `baselines/`; `bench_hotpath` ([`hotpath`]) emits the one
//!   clock-reading baseline, gated at +35 %. End-to-end speed is measured by
//!   the standalone `benchmark/` crate, not here.
//!
//! The helpers in this library are shared by the binaries: deployment
//! construction, method presets, and plain-text table/series printing.

pub mod hotpath;
pub mod regress;

use onslicing_core::{
    evaluate_policy, AgentConfig, CoordinationMode, DeploymentBuilder, EpochMetrics,
    ModelBasedPolicy, Orchestrator, PolicyEvaluation, RuleBasedBaseline, SliceEnvironment,
};
use onslicing_netsim::NetworkConfig;
use onslicing_slices::{Sla, SliceKind};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Episode horizon in slots.
    pub horizon: usize,
    /// Offline pre-training episodes per agent.
    pub pretrain_episodes: usize,
    /// Online learning epochs.
    pub online_epochs: usize,
    /// Episodes per learning epoch.
    pub episodes_per_epoch: usize,
    /// Deterministic evaluation episodes.
    pub eval_episodes: usize,
}

impl RunScale {
    /// The CI-scale configuration used by default: finishes in seconds while
    /// still exercising every mechanism.
    pub fn quick() -> Self {
        Self {
            horizon: 24,
            pretrain_episodes: 2,
            online_epochs: 4,
            episodes_per_epoch: 1,
            eval_episodes: 2,
        }
    }

    /// A paper-scale configuration (96-slot episodes, longer training).
    pub fn full() -> Self {
        Self {
            horizon: 96,
            pretrain_episodes: 8,
            online_epochs: 40,
            episodes_per_epoch: 2,
            eval_episodes: 5,
        }
    }

    /// Parses the scale from the process arguments (`--full` selects the
    /// paper-scale run).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::quick()
        }
    }
}

/// Builds a scaled deployment for the given agent variant and coordination
/// mode.
pub fn build_deployment(
    variant: AgentConfig,
    coordination: CoordinationMode,
    scale: RunScale,
    seed: u64,
) -> Orchestrator {
    DeploymentBuilder::new()
        .agent_config(variant)
        .coordination(coordination)
        .episodes_per_epoch(scale.episodes_per_epoch)
        .scaled_down(scale.horizon)
        .seed(seed)
        .build()
}

/// Result row of one method in a Table-1-style comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name as printed.
    pub name: String,
    /// Average resource usage in percent.
    pub usage_percent: f64,
    /// Average SLA violation in percent.
    pub violation_percent: f64,
}

/// Runs one learning-agent method end to end (pre-train → online learning →
/// deterministic evaluation) and returns its test row plus the learning
/// curve.
pub fn run_learning_method(
    name: &str,
    variant: AgentConfig,
    coordination: CoordinationMode,
    scale: RunScale,
    seed: u64,
) -> (MethodResult, Vec<EpochMetrics>) {
    let mut orch = build_deployment(variant, coordination, scale, seed);
    if variant.enable_imitation {
        orch.offline_pretrain_all(scale.pretrain_episodes);
    }
    let curve = orch.run_online(scale.online_epochs);
    let test = orch.evaluate(scale.eval_episodes);
    (
        MethodResult {
            name: name.to_string(),
            usage_percent: test.avg_usage_percent,
            violation_percent: test.violation_percent,
        },
        curve,
    )
}

/// Evaluates the rule-based baseline on every slice and returns the averaged
/// row.
pub fn evaluate_rule_based(scale: RunScale, seed: u64) -> (MethodResult, Vec<PolicyEvaluation>) {
    let network = NetworkConfig::testbed_default();
    let mut evals = Vec::new();
    for (i, kind) in SliceKind::ALL.iter().enumerate() {
        let sla = Sla::for_kind(*kind);
        let baseline = RuleBasedBaseline::calibrate(
            *kind,
            &sla,
            &network,
            kind.default_peak_users_per_second(),
            5,
            seed + i as u64,
        );
        let mut env = slice_env(*kind, network, scale.horizon, seed + 50 + i as u64);
        evals.push(evaluate_policy(&baseline, &mut env, scale.eval_episodes));
    }
    (average_row("Baseline", &evals), evals)
}

/// Evaluates the model-based comparator on every slice and returns the
/// averaged row.
pub fn evaluate_model_based(scale: RunScale, seed: u64) -> (MethodResult, Vec<PolicyEvaluation>) {
    let network = NetworkConfig::testbed_default();
    let mut evals = Vec::new();
    for (i, kind) in SliceKind::ALL.iter().enumerate() {
        let sla = Sla::for_kind(*kind);
        let policy = ModelBasedPolicy::new(*kind, sla, kind.default_peak_users_per_second());
        let mut env = slice_env(*kind, network, scale.horizon, seed + 80 + i as u64);
        evals.push(evaluate_policy(&policy, &mut env, scale.eval_episodes));
    }
    (average_row("Model_Based", &evals), evals)
}

/// Builds one slice environment with an explicit horizon.
pub fn slice_env(
    kind: SliceKind,
    network: NetworkConfig,
    horizon: usize,
    seed: u64,
) -> SliceEnvironment {
    let trace = match kind {
        SliceKind::Mar => onslicing_traffic::DiurnalTraceConfig::mar_default(),
        SliceKind::Hvs => onslicing_traffic::DiurnalTraceConfig::hvs_default(),
        SliceKind::Rdc => onslicing_traffic::DiurnalTraceConfig::rdc_default(),
    };
    SliceEnvironment::with_trace_config(kind, Sla::for_kind(kind), network, trace, horizon, seed)
}

fn average_row(name: &str, evals: &[PolicyEvaluation]) -> MethodResult {
    let n = evals.len().max(1) as f64;
    MethodResult {
        name: name.to_string(),
        usage_percent: evals.iter().map(|e| e.avg_usage_percent).sum::<f64>() / n,
        violation_percent: evals.iter().map(|e| e.violation_percent).sum::<f64>() / n,
    }
}

/// Prints a Table-1-style comparison.
pub fn print_method_table(title: &str, rows: &[MethodResult]) {
    println!("\n=== {title} ===");
    println!(
        "{:<24} {:>20} {:>22}",
        "Method", "Avg. res. usage (%)", "Avg. SLA violation (%)"
    );
    for r in rows {
        println!(
            "{:<24} {:>20.2} {:>22.2}",
            r.name, r.usage_percent, r.violation_percent
        );
    }
}

/// Prints a learning curve (one line per epoch).
pub fn print_learning_curve(title: &str, curve: &[EpochMetrics]) {
    println!("\n--- {title} ---");
    println!(
        "{:<8} {:>18} {:>20}",
        "epoch", "avg usage (%)", "avg violation (%)"
    );
    for (i, m) in curve.iter().enumerate() {
        println!(
            "{:<8} {:>18.2} {:>20.2}",
            i, m.avg_usage_percent, m.violation_percent
        );
    }
}

/// Prints a generic two-column numeric series.
pub fn print_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) {
    println!("\n--- {title} ---");
    println!("{x_label:<16} {y_label:>16}");
    for (x, y) in points {
        println!("{x:<16.4} {y:>16.4}");
    }
}

/// Empirical CDF of a sample set as `(value, probability)` points.
pub fn empirical_cdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len().max(1) as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let q = RunScale::quick();
        assert!(q.horizon <= 48);
        assert!(q.online_epochs <= 10);
        let f = RunScale::full();
        assert_eq!(f.horizon, 96);
    }

    #[test]
    fn empirical_cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn rule_based_evaluation_produces_three_slices() {
        let scale = RunScale {
            horizon: 8,
            pretrain_episodes: 1,
            online_epochs: 1,
            episodes_per_epoch: 1,
            eval_episodes: 1,
        };
        let (row, evals) = evaluate_rule_based(scale, 1);
        assert_eq!(evals.len(), 3);
        assert!(row.usage_percent > 0.0);
    }
}
