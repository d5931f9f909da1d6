//! Executes scenarios end to end and emits per-scenario JSON metrics.
//!
//! Fleet built-ins (`hotspot-shift`, `cell-outage`) are accepted alongside
//! the single-cell names: they run on a 2-cell elastic fleet with the
//! default balancer and report migrations and fleet-admission outcomes.
//!
//! ```sh
//! # Run the whole built-in catalogue (single-cell and fleet):
//! cargo run --release --bin scenario_runner
//! # Run selected built-ins:
//! cargo run --release --bin scenario_runner -- steady tn-degradation
//! # Run a scenario file:
//! cargo run --release --bin scenario_runner -- --file my_scenario.json
//! # Print a built-in as JSON (a starting point for custom files):
//! cargo run --release --bin scenario_runner -- --dump flash-crowd
//! ```
//!
//! Options: `--list` (catalogue), `--seed N` (master seed, default 0),
//! `--out PATH` (metrics file, default `SCENARIO_metrics.json`),
//! `--dump NAME` (print a built-in scenario's JSON and exit).
//!
//! Exit codes: 0 = ok, 1 = a scenario reported a non-finite metric (what
//! the CI smoke step keys on), 2 = usage/setup error.

use std::process::ExitCode;

use serde::Serialize;

use onslicing_fleet::{ElasticFleet, ElasticFleetConfig};
use onslicing_scenario::{
    builtin, fleet, Scenario, ScenarioConfig, ScenarioEngine, ScenarioReport,
};

/// Per-fleet-scenario smoke metrics (deterministic fields only).
#[derive(Serialize)]
struct FleetSmoke {
    scenario: String,
    cells: usize,
    peak_slices: usize,
    slice_slots: usize,
    sla_violation_percent: f64,
    migrations: usize,
    fleet_admissions_granted: usize,
    fleet_admissions_denied: usize,
}

/// The schema of the emitted metrics file.
#[derive(Serialize)]
struct MetricsFile {
    schema: String,
    seed: u64,
    scenarios: Vec<ScenarioReport>,
    fleet_scenarios: Vec<FleetSmoke>,
}

struct Args {
    names: Vec<String>,
    file: Option<String>,
    dump: Option<String>,
    list: bool,
    seed: u64,
    out: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        names: Vec::new(),
        file: None,
        dump: None,
        list: false,
        seed: 0,
        out: "SCENARIO_metrics.json".to_string(),
    };
    let mut iter = argv.iter().cloned();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--file" => {
                args.file = Some(iter.next().ok_or("--file needs a path")?);
            }
            "--dump" => {
                args.dump = Some(iter.next().ok_or("--dump needs a scenario name")?);
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--out" => {
                args.out = iter.next().ok_or("--out needs a path")?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

fn print_report(report: &ScenarioReport) {
    println!(
        "  {:<20} {:>4} slots  {:>3} episodes  {:>6.1}% violations  {:>5.2} rounds/slot  \
         {:>8.0} slice-slots/s  {:>7.0} ms",
        report.scenario,
        report.total_slots,
        report.slice_episodes,
        report.sla_violation_percent,
        report.avg_coordination_rounds,
        report.slice_slots_per_second,
        report.wall_clock_ms,
    );
    for s in &report.slices {
        let lifetime = match s.torn_down_at_slot {
            Some(t) => format!("slots {}..{}", s.admitted_at_slot, t),
            None => format!("slots {}..end", s.admitted_at_slot),
        };
        println!(
            "    slice {:>2} {:<4} {:<14} {:>2} episodes  {:>2} violations  {:>2} updates  \
             usage {:>5.1}%",
            s.id,
            s.kind.name(),
            lifetime,
            s.episodes,
            s.violations,
            s.policy_updates,
            s.avg_usage_percent,
        );
    }
}

/// `Ok(false)` = some scenario reported a non-finite metric; `Err` = a
/// usage or setup error (nothing was measured).
fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if args.list {
        println!("built-in scenarios:");
        for scenario in builtin::all() {
            println!("  {:<20} {}", scenario.name, scenario.description);
        }
        println!("built-in fleet scenarios (run on a 2-cell elastic fleet):");
        for scenario in fleet::all_fleet_builtins() {
            println!("  {:<20} {}", scenario.name, scenario.description);
        }
        return Ok(true);
    }
    if let Some(name) = &args.dump {
        let scenario =
            builtin::by_name(name).ok_or_else(|| format!("no built-in scenario named `{name}`"))?;
        println!("{}", scenario.to_json());
        return Ok(true);
    }

    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut fleet_scenarios: Vec<fleet::FleetScenario> = Vec::new();
    if let Some(path) = &args.file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let scenario =
            Scenario::from_json(&text).map_err(|e| format!("invalid scenario file {path}: {e}"))?;
        scenarios.push(scenario);
    }
    if args.file.is_none() && args.names.is_empty() {
        scenarios = builtin::all();
        fleet_scenarios = fleet::all_fleet_builtins();
    }
    for name in &args.names {
        if let Some(s) = builtin::by_name(name) {
            scenarios.push(s);
        } else if let Some(f) = fleet::fleet_by_name(name) {
            fleet_scenarios.push(f);
        } else {
            return Err(format!("no built-in scenario named `{name}` (try --list)"));
        }
    }

    let config = ScenarioConfig {
        seed: args.seed,
        ..ScenarioConfig::default()
    };
    println!(
        "scenario_runner: {} scenario(s), seed {}",
        scenarios.len(),
        args.seed
    );
    let mut reports = Vec::new();
    let mut nan_failures = 0usize;
    for scenario in scenarios {
        let mut engine = ScenarioEngine::new(scenario, config)?;
        let report = engine.run();
        print_report(&report);
        if report.has_non_finite() {
            eprintln!(
                "scenario_runner: scenario `{}` reported non-finite metrics",
                report.scenario
            );
            nan_failures += 1;
        }
        reports.push(report);
    }

    // Fleet scenarios run on a 2-cell elastic fleet with the default
    // balancer — the smoke check that migration and fleet admission stay
    // healthy end to end.
    let mut fleet_reports = Vec::new();
    for fleet_scenario in fleet_scenarios {
        let cells = fleet_scenario.min_cells.max(2);
        let outcome = ElasticFleet::run(
            fleet_scenario,
            ElasticFleetConfig::new(cells).with_seed(args.seed),
        )?;
        let report = &outcome.report;
        println!(
            "  {:<20} {:>2} cells  {:>4} slice-slots  {:>6.1}% violations  {} migrations  \
             {}+{} fleet admissions",
            report.scenario,
            report.cells,
            report.slice_slots,
            report.sla_violation_percent,
            report.migrations.len(),
            report.fleet_admissions_granted,
            report.fleet_admissions_denied,
        );
        if report.has_non_finite() {
            eprintln!(
                "scenario_runner: fleet scenario `{}` reported non-finite metrics",
                report.scenario
            );
            nan_failures += 1;
        }
        fleet_reports.push(FleetSmoke {
            scenario: report.scenario.clone(),
            cells: report.cells,
            peak_slices: report.peak_slices,
            slice_slots: report.slice_slots,
            sla_violation_percent: report.sla_violation_percent,
            migrations: report.migrations.len(),
            fleet_admissions_granted: report.fleet_admissions_granted,
            fleet_admissions_denied: report.fleet_admissions_denied,
        });
    }

    let payload = serde_json::to_string_pretty(&MetricsFile {
        schema: "onslicing-scenario-metrics/2".to_string(),
        seed: args.seed,
        scenarios: reports,
        fleet_scenarios: fleet_reports,
    })
    .expect("report serialization cannot fail");
    std::fs::write(&args.out, &payload).map_err(|e| format!("cannot write {}: {e}", args.out))?;
    println!("wrote {}", args.out);
    if nan_failures > 0 {
        eprintln!("scenario_runner: {nan_failures} scenario(s) reported non-finite metrics");
    }
    Ok(nan_failures == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scenario_runner: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn usage_errors_are_errors_not_findings() {
        // A typo must not look like a NaN: `Err` exits 2, a finding exits 1.
        let err = run(&args("--sed 3 steady")).unwrap_err();
        assert!(err.contains("unknown option `--sed`"), "{err}");
        let err = run(&args("no-such-scenario")).unwrap_err();
        assert!(err.contains("no built-in scenario named"), "{err}");
        assert!(run(&args("--file")).unwrap_err().contains("needs a path"));
        assert!(run(&args("--dump no-such-scenario")).is_err());
        assert!(run(&args("--file /nonexistent/scenario.json")).is_err());
        assert_eq!(run(&args("--list")), Ok(true));
    }
}
