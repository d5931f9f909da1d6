//! # onslicing-bench
//!
//! The experiment harness of the OnSlicing reproduction.
//!
//! * [`experiments`] is everything pinned, as one registry: the paper's
//!   evaluation (§7) and the reproduction's own fleet results. Every entry
//!   returns its rows as tables and its claims as predicates over those
//!   rows. The `experiments` binary runs entries by id (`--full` switches
//!   from the CI-scale configuration to 96-slot episodes, 40 epochs and
//!   32 seeds); its `--out` file is the baseline
//!   `baselines/EXPERIMENTS.json`, which `bench_regress` ([`regress`])
//!   holds exactly. Nothing here reads the clock for a committed number:
//!   speed is measured by the standalone `benchmark/` crate.
//!
//! The helpers in this file are what the experiments share: the run scale,
//! deployment construction and the method presets.

pub mod experiments;
pub mod regress;

use std::io::Write;

use onslicing_core::{
    default_trace_config, evaluate_policy, AgentConfig, CoordinationMode, DeploymentBuilder,
    EpochMetrics, ModelBasedPolicy, Orchestrator, PolicyEvaluation, RuleBasedBaseline,
    SliceEnvironment,
};
use onslicing_netsim::{NetworkConfig, RanConfig};
use onslicing_slices::{Sla, SliceKind};

/// Writes to stdout through its lock, as `print!` does, except that a
/// reader who closed the pipe early (`replay_check dump steady | head -3`)
/// ends the process with exit 0 instead of a panic: it took what it wanted.
/// Any other write error still panics. The binaries call it through
/// [`out!`] and [`outln!`], except in their test builds: the test harness
/// captures `print!` but not writes to the locked stdout, so there the
/// macros print with `print!`.
pub fn print_stdout(args: std::fmt::Arguments) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`print_stdout`] (through `print!` itself in a test
/// build of the calling crate, so the harness captures it).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        if cfg!(test) {
            ::std::print!($($arg)*)
        } else {
            $crate::print_stdout(format_args!($($arg)*))
        }
    };
}

/// `println!` through [`print_stdout`] (through `println!` itself in a test
/// build of the calling crate, so the harness captures it).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        if cfg!(test) {
            ::std::println!($($arg)*)
        } else {
            $crate::print_stdout(format_args!("{}\n", format_args!($($arg)*)))
        }
    };
}

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
    /// Seeds (0 onward) an entry averages over when one seed cannot
    /// resolve its claim.
    pub seeds: usize,
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
            seeds: 4,
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
            seeds: 32,
        }
    }
}

/// A learning method of the evaluation, by the name the paper's tables
/// print: its agent variant, coordination mode and network.
fn method(name: &str) -> (AgentConfig, CoordinationMode, NetworkConfig) {
    use CoordinationMode::Projection;
    let (onslicing, modifier) = (AgentConfig::onslicing(), CoordinationMode::default());
    // Single round so that pinned betas are what the modifier sees.
    let one_round = CoordinationMode::Modifier {
        max_rounds: 1,
        warm_start: true,
    };
    let (agent, mode) = match name {
        "OnSlicing" | "5G NR (fixed MCS 9)" | "4G LTE (fixed MCS 9)" => (onslicing, modifier),
        "OnSlicing-NE" => (AgentConfig::onslicing_ne(), modifier),
        "OnSlicing-NB" => (AgentConfig::onslicing_nb(), modifier),
        "OnSlicing Est. Noise" => (AgentConfig::onslicing_estimator_noise(1.0), modifier),
        "OnSlicing Md. Noise" => (AgentConfig::onslicing_modifier_noise(1.0), modifier),
        "OnSlicing-projection" => (onslicing, Projection),
        "OnSlicing, one modifier round" => (onslicing, one_round),
        "OnRL" => (AgentConfig::onrl(), Projection),
        "Unsafe DRL" => (AgentConfig::unsafe_drl(), Projection),
        _ => panic!("no method preset `{name}`"),
    };
    let testbed = NetworkConfig::testbed_default();
    let network = match name {
        "5G NR (fixed MCS 9)" => testbed.with_ran(RanConfig::nr_fixed_mcs9()),
        "4G LTE (fixed MCS 9)" => testbed.with_ran(RanConfig::lte_fixed_mcs9()),
        _ => testbed,
    };
    (agent, mode, network)
}

/// Builds the scaled deployment of a method preset.
pub fn deploy(method_name: &str, scale: RunScale, seed: u64) -> Orchestrator {
    let (variant, coordination, network) = method(method_name);
    DeploymentBuilder::new()
        .network(network)
        .agent_config(variant)
        .coordination(coordination)
        .episodes_per_epoch(scale.episodes_per_epoch)
        .scaled_down(scale.horizon)
        .seed(seed)
        .build()
}

/// Deploys a method, pre-trains it offline when the variant imitates, and
/// runs the online learning phase; returns the trained deployment and its
/// learning curve.
pub fn learn(method_name: &str, scale: RunScale, seed: u64) -> (Orchestrator, Vec<EpochMetrics>) {
    let mut orch = deploy(method_name, scale, seed);
    if method(method_name).0.enable_imitation {
        orch.offline_pretrain_all(scale.pretrain_episodes);
    }
    let curve = orch.run_online(scale.online_epochs);
    (orch, curve)
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

/// [`learn`]s each method, method `i` on seed `first_seed + i`, then
/// evaluates it deterministically: its test row plus its learning curve.
pub fn learn_and_test(
    methods: &[&str],
    scale: RunScale,
    first_seed: u64,
) -> Vec<(MethodResult, Vec<EpochMetrics>)> {
    let run = |(name, seed): (&&str, u64)| {
        let (mut orch, curve) = learn(name, scale, seed);
        let test = orch.evaluate(scale.eval_episodes);
        let row = MethodResult {
            name: name.to_string(),
            usage_percent: test.avg_usage_percent,
            violation_percent: test.violation_percent,
        };
        (row, curve)
    };
    methods.iter().zip(first_seed..).map(run).collect()
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
fn slice_env(
    kind: SliceKind,
    network: NetworkConfig,
    horizon: usize,
    seed: u64,
) -> SliceEnvironment {
    let trace = default_trace_config(kind);
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
            seeds: 1,
        };
        let (row, evals) = evaluate_rule_based(scale, 1);
        assert_eq!(evals.len(), 3);
        assert!(row.usage_percent > 0.0);
    }
}
