//! Emits `BENCH_scenario.json` — the deterministic outcome of the two
//! workload extremes of the scenario engine, gated exactly by
//! `bench_regress` against `baselines/BENCH_scenario.json`:
//!
//! * `steady` — the paper's three-slice stationary setting;
//! * `stress-many-slices` — 12 cloned slices on a 4× infrastructure, the
//!   deployment that exercises the per-slice rayon fan-out.
//!
//! Each is run once and reports its executed slot counts and SLA-violation
//! percentage — all seed-pinned, none reads the clock. How *fast* these
//! slots run is the repository benchmark's question (`benchmark/`,
//! `cell-dense` and `churn-admit`).
//!
//! Usage: `cargo run --release --bin bench_scenario [output-path]`
//! (default output: `BENCH_scenario.json` in the current directory).

use serde::Serialize;

use onslicing_scenario::{builtin, Scenario, ScenarioConfig, ScenarioEngine};

#[derive(Serialize)]
struct ScenarioOutcome {
    scenario: String,
    slices: usize,
    total_slots: usize,
    slice_slots: usize,
    sla_violation_percent: f64,
}

#[derive(Serialize)]
struct BenchFile {
    schema: String,
    timings: Vec<ScenarioOutcome>,
}

fn run(scenario: Scenario) -> ScenarioOutcome {
    let slices = scenario.initial_slices.len();
    let mut engine = ScenarioEngine::new(scenario, ScenarioConfig::default())
        .expect("built-in scenarios are valid");
    let report = engine.run();
    let outcome = ScenarioOutcome {
        scenario: report.scenario.clone(),
        slices,
        total_slots: report.total_slots,
        slice_slots: report.slice_slots,
        sla_violation_percent: report.sla_violation_percent,
    };
    println!(
        "  {}: {} slice-slots, {:.2}% SLA violations",
        outcome.scenario, outcome.slice_slots, outcome.sla_violation_percent
    );
    outcome
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scenario.json".to_string());
    println!("bench_scenario: running steady and stress-many-slices ...");
    let payload = serde_json::to_string_pretty(&BenchFile {
        schema: "onslicing-scenario-bench/2".to_string(),
        timings: vec![run(builtin::steady()), run(builtin::stress_many_slices())],
    })
    .expect("bench serialization cannot fail");
    std::fs::write(&out_path, &payload).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
}
