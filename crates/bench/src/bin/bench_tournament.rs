//! Emits `BENCH_tournament.json` — the balance-policy tournament matrix:
//! every registered balance policy runs every built-in fleet scenario at a
//! fixed shape (2 cells, seed 0) and the deterministic outcome metrics are
//! recorded per cell of the matrix.
//!
//! Every reported metric is a pure function of the seed — fleet SLA
//! violation %, average per-slice-slot cost, migration count, admission
//! counters — so the committed baseline under `baselines/` is compared
//! **exactly** by `bench_regress`: any drift in any policy's plan on any
//! scenario fails CI, the same contract the goldens enforce for traces.
//!
//! The per-policy `leaderboard` aggregates the matrix (mean SLA% and mean
//! cost across scenarios) — the standing, CI-judged comparison ROADMAP
//! item 4 calls for. The `diurnal-fleet` scenario is scripted so that a
//! forecast-driven policy can act a window ahead of a reactive one; the
//! fleet test `tournament_has_a_non_greedy_winner_on_diurnal_fleet` holds
//! the "prediction can actually win" claim.
//!
//! ```sh
//! cargo run --release --bin bench_tournament
//! cargo run --release --bin bench_tournament -- --out BENCH_tournament.json --cells 2 --seed 0
//! ```
//!
//! Exit codes: 0 = ok, 1 = non-finite metrics, 2 = usage/setup error.

use std::process::ExitCode;

use serde::Serialize;

use onslicing_fleet::{BalancerConfig, ElasticFleet, ElasticFleetConfig, BALANCE_POLICIES};
use onslicing_scenario::all_fleet_builtins;

/// One cell of the tournament matrix: what one policy did on one scenario.
/// Every field is deterministic for the seed, so the regression gate holds
/// each one exactly.
#[derive(Serialize)]
struct MatrixCell {
    sla_violation_percent: f64,
    avg_slot_cost: f64,
    violations: usize,
    slice_episodes: usize,
    migrations: usize,
    fleet_admissions_granted: usize,
    fleet_admissions_denied: usize,
}

/// One policy's aggregate over every scenario — the leaderboard row.
#[derive(Serialize)]
struct LeaderboardRow {
    policy: String,
    mean_sla_violation_percent: f64,
    mean_avg_slot_cost: f64,
    total_migrations: usize,
}

#[derive(Serialize)]
struct TournamentFile {
    schema: String,
    cells: usize,
    seed: u64,
    balancers: Vec<String>,
    scenarios: Vec<String>,
    /// `matrix[policy][scenario]` — nested objects so the regression gate's
    /// dotted keys read `matrix.predictive.diurnal-fleet.sla_violation_percent`.
    matrix: Vec<(String, Vec<(String, MatrixCell)>)>,
    leaderboard: Vec<LeaderboardRow>,
}

// The vendored serde derives tuples as two-element arrays; emit the nested
// maps as real JSON objects instead so the regression gate keys stay
// human-readable.
fn matrix_value(matrix: &[(String, Vec<(String, MatrixCell)>)]) -> serde::Value {
    serde::Value::Obj(
        matrix
            .iter()
            .map(|(policy, row)| {
                (
                    policy.clone(),
                    serde::Value::Obj(
                        row.iter()
                            .map(|(scenario, cell)| (scenario.clone(), cell.serialize_value()))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

struct Options {
    out: String,
    cells: usize,
    seed: u64,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_tournament.json".to_string(),
        cells: 2,
        seed: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out")?,
            "--cells" => {
                let v = value("--cells")?;
                opts.cells = v.parse().map_err(|_| format!("invalid --cells `{v}`"))?;
                if opts.cells < 2 {
                    return Err(
                        "--cells must be at least 2 (the built-ins need neighbors)".to_string()
                    );
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            other => {
                return Err(format!(
                    "unknown option `{other}`\nusage: bench_tournament [--out PATH] \
                     [--cells N] [--seed N]"
                ))
            }
        }
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let opts = parse_options()?;
    let scenarios = all_fleet_builtins();
    println!(
        "bench_tournament: {} balancer(s) x {} scenario(s), {} cells, seed {}",
        BALANCE_POLICIES.len(),
        scenarios.len(),
        opts.cells,
        opts.seed
    );

    let mut matrix: Vec<(String, Vec<(String, MatrixCell)>)> = Vec::new();
    let mut leaderboard = Vec::new();
    for policy in BALANCE_POLICIES {
        let mut row: Vec<(String, MatrixCell)> = Vec::new();
        let (mut sla_sum, mut cost_sum, mut migrations_total) = (0.0, 0.0, 0usize);
        for scenario in &scenarios {
            let balancer = BalancerConfig {
                policy: onslicing_fleet::BalancePolicyName::parse(policy.name())
                    .expect("registered policy names parse"),
                ..BalancerConfig::default()
            };
            let outcome = ElasticFleet::run(
                scenario.clone(),
                ElasticFleetConfig::new(opts.cells)
                    .with_seed(opts.seed)
                    .with_balancer(balancer),
            )?;
            let report = &outcome.report;
            // The tournament's standing invariant: no registered policy may
            // produce a non-finite metric on any built-in.
            if report.has_non_finite() {
                eprintln!(
                    "bench_tournament: non-finite metrics from `{}` on `{}`",
                    policy.name(),
                    scenario.name
                );
                return Ok(false);
            }
            println!(
                "  {:>10} x {:<14} {:6.2}% SLA violations, {:.4} avg slot cost, {} migration(s)",
                policy.name(),
                scenario.name,
                report.sla_violation_percent,
                report.avg_slot_cost,
                report.migrations.len()
            );
            sla_sum += report.sla_violation_percent;
            cost_sum += report.avg_slot_cost;
            migrations_total += report.migrations.len();
            row.push((
                scenario.name.clone(),
                MatrixCell {
                    sla_violation_percent: report.sla_violation_percent,
                    avg_slot_cost: report.avg_slot_cost,
                    violations: report.violations,
                    slice_episodes: report.slice_episodes,
                    migrations: report.migrations.len(),
                    fleet_admissions_granted: report.fleet_admissions_granted,
                    fleet_admissions_denied: report.fleet_admissions_denied,
                },
            ));
        }
        leaderboard.push(LeaderboardRow {
            policy: policy.name().to_string(),
            mean_sla_violation_percent: sla_sum / scenarios.len() as f64,
            mean_avg_slot_cost: cost_sum / scenarios.len() as f64,
            total_migrations: migrations_total,
        });
        matrix.push((policy.name().to_string(), row));
    }

    let file = TournamentFile {
        schema: "onslicing-tournament-bench/1".to_string(),
        cells: opts.cells,
        seed: opts.seed,
        balancers: BALANCE_POLICIES
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        scenarios: scenarios.iter().map(|s| s.name.clone()).collect(),
        matrix,
        leaderboard,
    };
    // Swap the tuple-derived matrix for the nested-object form.
    let mut value = file.serialize_value();
    if let serde::Value::Obj(pairs) = &mut value {
        for (k, v) in pairs.iter_mut() {
            if k == "matrix" {
                *v = matrix_value(&file.matrix);
            }
        }
    }
    let payload =
        serde_json::to_string_pretty(&value).expect("tournament serialization cannot fail");
    std::fs::write(&opts.out, &payload).map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    println!("wrote {}", opts.out);
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_tournament: {e}");
            ExitCode::from(2)
        }
    }
}
