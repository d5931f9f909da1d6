//! Emits `BENCH_fleet.json` — the deterministic cells×slices record of the
//! multi-cell fleet, gated exactly by `bench_regress` against
//! `baselines/BENCH_fleet.json`.
//!
//! Default mode runs the `fleet-soak` per-cell workload (12 slices plus
//! mid-run admission/burst/fault/teardown) at 1, 4 and 8 cells and reports
//! each point's seed-pinned fleet metrics: peak slices, executed
//! slice-slots, closed slice-episodes, fleet-wide SLA-violation % and the
//! cost mean and percentiles. None of them reads the clock or depends on
//! the rayon pool width; how fast a fleet runs is the repository
//! benchmark's question (`benchmark/`, `fleet-elastic`).
//!
//! **Rebalance comparison.** The bench file also pins the elastic-fleet
//! story: `hotspot-shift` at two cells with the balancer off (frozen
//! sharding) versus on, over 32 seeds (a single seed can land either
//! way). Every compared field is deterministic for the seeds — mean
//! SLA-violation percentages, episode/violation/migration totals — so the
//! gate holds them exactly; the headline `violation_reduction_points` is
//! the balancer's mean fleet-wide SLA win.
//!
//! ```sh
//! # The committed scaling curve (1/4/8 cells × fleet-soak):
//! cargo run --release --bin fleet_runner
//! # Custom shape:
//! cargo run --release --bin fleet_runner -- --scenario stress-many-slices \
//!     --cells 1,2,4 --seed 7 --out BENCH_fleet.json
//! # Determinism-gate mode: write only the byte-deterministic fleet trace
//! # (compare across RAYON_NUM_THREADS settings with `cmp`):
//! cargo run --release --bin fleet_runner -- --trace-out fleet-trace.json --trace-cells 2
//! # Elastic determinism-gate mode: a migrating hotspot-shift fleet's
//! # trace (migrations included) must also be byte-stable:
//! cargo run --release --bin fleet_runner -- --fleet-scenario hotspot-shift \
//!     --trace-out elastic-trace.json --trace-cells 2 --balancer on
//! ```
//!
//! Exit codes: 0 = ok, 1 = non-finite metrics, 2 = usage/setup error.

use std::process::ExitCode;

use serde::Serialize;

use onslicing_fleet::{
    BalancerConfig, ElasticFleet, ElasticFleetConfig, FleetOutcome, FleetReport,
};
use onslicing_scenario::{builtin, fleet_by_name, FleetScenario, FLEET_BUILTIN_NAMES};

#[derive(Serialize)]
struct CurvePoint {
    cells: usize,
    peak_slices: usize,
    slice_slots: usize,
    slice_episodes: usize,
    sla_violation_percent: f64,
    avg_cost: f64,
    avg_slot_cost: f64,
    cost_p50: f64,
    cost_p90: f64,
    cost_p99: f64,
}

impl CurvePoint {
    fn from_report(r: &FleetReport) -> Self {
        Self {
            cells: r.cells,
            peak_slices: r.peak_slices,
            slice_slots: r.slice_slots,
            slice_episodes: r.slice_episodes,
            sla_violation_percent: r.sla_violation_percent,
            avg_cost: r.avg_cost,
            avg_slot_cost: r.avg_slot_cost,
            cost_p50: r.cost_p50,
            cost_p90: r.cost_p90,
            cost_p99: r.cost_p99,
        }
    }
}

/// Seeds (`--seed` onward) the rebalance comparison runs and averages: the
/// balancer's benefit is a claim about the mean, a single seed can land
/// either way (it wins on fewer than half of them), and 8 seeds did not
/// resolve it.
const REBALANCE_SEEDS: u64 = 32;

/// One arm of the rebalance comparison, totalled over the seeds —
/// deterministic fields only, so the regression gate holds every one of
/// them exactly.
#[derive(Serialize)]
struct RebalanceArm {
    /// Mean over the seeds of each run's fleet SLA-violation percentage.
    mean_sla_violation_percent: f64,
    violations: usize,
    slice_episodes: usize,
    migrations: usize,
    fleet_admissions_granted: usize,
    fleet_admissions_denied: usize,
}

impl RebalanceArm {
    fn from_reports(reports: &[FleetReport]) -> Self {
        let total = |field: fn(&FleetReport) -> usize| reports.iter().map(field).sum();
        Self {
            mean_sla_violation_percent: reports
                .iter()
                .map(|r| r.sla_violation_percent)
                .sum::<f64>()
                / reports.len() as f64,
            violations: total(|r| r.violations),
            slice_episodes: total(|r| r.slice_episodes),
            migrations: total(|r| r.migrations.len()),
            fleet_admissions_granted: total(|r| r.fleet_admissions_granted),
            fleet_admissions_denied: total(|r| r.fleet_admissions_denied),
        }
    }
}

/// The elastic-fleet pin: frozen sharding vs live rebalancing on the
/// hotspot-shift fleet scenario, over [`REBALANCE_SEEDS`] seeds.
#[derive(Serialize)]
struct RebalanceComparison {
    scenario: String,
    cells: usize,
    seeds: u64,
    balancer_off: RebalanceArm,
    balancer_on: RebalanceArm,
    /// Off-minus-on mean fleet SLA-violation percentage points (> 0 = the
    /// balancer helps; pinned exactly by the gate).
    violation_reduction_points: f64,
}

#[derive(Serialize)]
struct BenchFile {
    schema: String,
    scenario: String,
    seed: u64,
    slices_per_cell_initial: usize,
    curve: Vec<CurvePoint>,
    rebalance_comparison: RebalanceComparison,
}

struct Options {
    scenario: String,
    cells: Vec<usize>,
    seed: u64,
    out: String,
    trace_out: Option<String>,
    trace_cells: usize,
    fleet_scenario: Option<String>,
    balancer_on: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        scenario: "fleet-soak".to_string(),
        cells: vec![1, 4, 8],
        seed: 0,
        out: "BENCH_fleet.json".to_string(),
        trace_out: None,
        trace_cells: 2,
        fleet_scenario: None,
        balancer_on: true,
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
            "--scenario" => opts.scenario = value("--scenario")?,
            "--cells" => {
                let v = value("--cells")?;
                opts.cells = v
                    .split(',')
                    .map(|c| c.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid --cells `{v}` (expect e.g. 1,4,8)"))?;
                if opts.cells.is_empty() || opts.cells.contains(&0) {
                    return Err("--cells entries must be positive".to_string());
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--out" => opts.out = value("--out")?,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-cells" => {
                let v = value("--trace-cells")?;
                opts.trace_cells = v
                    .parse()
                    .map_err(|_| format!("invalid --trace-cells `{v}`"))?;
            }
            "--fleet-scenario" => opts.fleet_scenario = Some(value("--fleet-scenario")?),
            "--balancer" => {
                let v = value("--balancer")?;
                opts.balancer_on = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err(format!("invalid --balancer `{v}` (expect on|off)")),
                };
            }
            other => {
                return Err(format!(
                    "unknown option `{other}`\nusage: fleet_runner [--scenario NAME|PATH] \
                     [--cells 1,4,8] [--seed N] [--out PATH] \
                     [--trace-out PATH [--trace-cells N]] \
                     [--fleet-scenario NAME [--balancer on|off]]"
                ))
            }
        }
    }
    Ok(opts)
}

/// Runs a fleet scenario start to finish. The frozen-sharding modes (the
/// scaling curve, `--trace-out` without `--fleet-scenario`) pass a plain
/// scenario wrapped in an event-free [`FleetScenario`] and
/// [`BalancerConfig::disabled`]: the cells then never synchronize.
fn run_fleet(
    fleet: &FleetScenario,
    cells: usize,
    seed: u64,
    balancer: BalancerConfig,
) -> Result<FleetOutcome, String> {
    ElasticFleet::run(
        fleet.clone(),
        ElasticFleetConfig::new(cells)
            .with_seed(seed)
            .with_balancer(balancer),
    )
}

fn run() -> Result<bool, String> {
    let opts = parse_options()?;

    if let Some(name) = &opts.fleet_scenario {
        // Elastic determinism-gate mode: run a fleet scenario and write only
        // the byte-deterministic trace.
        let Some(fleet) = fleet_by_name(name) else {
            return Err(format!(
                "`{name}` is not a built-in fleet scenario (built-ins: {})",
                FLEET_BUILTIN_NAMES.join(", ")
            ));
        };
        let Some(trace_out) = &opts.trace_out else {
            return Err("--fleet-scenario needs --trace-out (elastic trace mode)".to_string());
        };
        let balancer = if opts.balancer_on {
            BalancerConfig::default()
        } else {
            BalancerConfig::disabled()
        };
        let outcome = run_fleet(&fleet, opts.trace_cells, opts.seed, balancer)?;
        if outcome.report.has_non_finite() {
            eprintln!("fleet_runner: non-finite metrics in the elastic trace run");
            return Ok(false);
        }
        outcome.trace.save(trace_out)?;
        println!(
            "elastic fleet trace: `{name}` × {} cells (seed {}, balancer {}, {} migrations) \
             -> {trace_out}",
            opts.trace_cells,
            opts.seed,
            if opts.balancer_on { "on" } else { "off" },
            outcome.report.migrations.len(),
        );
        return Ok(true);
    }

    let scenario = builtin::by_name_or_file(&opts.scenario)?;
    let frozen = FleetScenario::new(scenario, 1);

    if let Some(trace_out) = &opts.trace_out {
        // Determinism-gate mode: one fleet, trace only.
        let outcome = run_fleet(
            &frozen,
            opts.trace_cells,
            opts.seed,
            BalancerConfig::disabled(),
        )?;
        if outcome.report.has_non_finite() {
            eprintln!("fleet_runner: non-finite metrics in the trace run");
            return Ok(false);
        }
        outcome.trace.save(trace_out)?;
        println!(
            "fleet trace: `{}` × {} cells (seed {}) -> {trace_out}",
            opts.scenario, opts.trace_cells, opts.seed
        );
        return Ok(true);
    }

    println!(
        "fleet_runner: `{}` over {:?} cells ...",
        opts.scenario, opts.cells
    );
    let mut curve = Vec::with_capacity(opts.cells.len());
    for &cells in &opts.cells {
        let outcome = run_fleet(&frozen, cells, opts.seed, BalancerConfig::disabled())?;
        let report = &outcome.report;
        if report.has_non_finite() {
            eprintln!("fleet_runner: non-finite metrics at {cells} cell(s)");
            return Ok(false);
        }
        println!(
            "  {cells} cell(s): {} peak slices, {} slice-slots, \
             {:.2}% SLA violations, slot cost p50/p99 {:.4}/{:.4}",
            report.peak_slices,
            report.slice_slots,
            report.sla_violation_percent,
            report.cost_p50,
            report.cost_p99
        );
        curve.push(CurvePoint::from_report(report));
    }

    // The elastic-fleet pin: hotspot-shift at two cells, frozen vs live
    // rebalancing. All compared fields are deterministic for the seeds.
    let hotspot = fleet_by_name("hotspot-shift").expect("hotspot-shift is a built-in");
    let arm = |balancer: BalancerConfig| -> Result<Vec<FleetReport>, String> {
        (opts.seed..opts.seed + REBALANCE_SEEDS)
            .map(|seed| Ok(run_fleet(&hotspot, 2, seed, balancer)?.report))
            .collect()
    };
    let off = arm(BalancerConfig::disabled())?;
    let on = arm(BalancerConfig::default())?;
    if off.iter().chain(&on).any(FleetReport::has_non_finite) {
        eprintln!("fleet_runner: non-finite metrics in the rebalance comparison");
        return Ok(false);
    }
    let (balancer_off, balancer_on) = (
        RebalanceArm::from_reports(&off),
        RebalanceArm::from_reports(&on),
    );
    let reduction =
        balancer_off.mean_sla_violation_percent - balancer_on.mean_sla_violation_percent;
    println!(
        "rebalance comparison (hotspot-shift, 2 cells, mean of {REBALANCE_SEEDS} seeds): \
         {:.2}% violations frozen vs {:.2}% balanced ({} migrations, -{:.2} points)",
        balancer_off.mean_sla_violation_percent,
        balancer_on.mean_sla_violation_percent,
        balancer_on.migrations,
        reduction
    );
    let rebalance_comparison = RebalanceComparison {
        scenario: hotspot.name.clone(),
        cells: 2,
        seeds: REBALANCE_SEEDS,
        balancer_off,
        balancer_on,
        violation_reduction_points: reduction,
    };

    let payload = serde_json::to_string_pretty(&BenchFile {
        schema: "onslicing-fleet-bench/4".to_string(),
        scenario: opts.scenario.clone(),
        seed: opts.seed,
        slices_per_cell_initial: frozen.base.initial_slices.len(),
        curve,
        rebalance_comparison,
    })
    .expect("bench serialization cannot fail");
    std::fs::write(&opts.out, &payload).expect("failed to write the benchmark JSON");
    println!("wrote {}", opts.out);
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleet_runner: {e}");
            ExitCode::from(2)
        }
    }
}
