//! The perf-regression gate: compares a freshly produced `BENCH_*.json`
//! against its committed baseline and exits non-zero on regression.
//!
//! ```sh
//! # Gate (CI): fail when the fresh artifact regresses past the tolerances.
//! cargo run --release --bin bench_regress -- ci-bench.json baselines/BENCH_hotpath.json
//! # Intentional rebaseline: overwrite the committed baseline with the
//! # fresh artifact (commit the result).
//! cargo run --release --bin bench_regress -- ci-bench.json baselines/BENCH_hotpath.json --update
//! ```
//!
//! Tolerances (the constants of `Tolerances::default()`, deliberately not
//! settable here — a settable tolerance on a gate is a way to pass it):
//! latency-like `*_ns`/`*_ms` metrics may regress up to +35 %,
//! throughput-like `*speedup*`/`*per_second*` metrics may lose up to 15 %,
//! and deterministic metrics (SLA violation rates, cost statistics, counts,
//! schema strings) must match exactly. Structural drift — metrics added,
//! removed, or series resized — always fails; rebaseline with `--update`
//! when the change is intentional. Exit codes: 0 = pass, 1 = regression,
//! 2 = usage/setup error.

use std::process::ExitCode;

use onslicing_bench::regress::{compare_json, Tolerances};

fn usage() -> String {
    "usage: bench_regress <fresh.json> <baseline.json> [--update]".to_string()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut update = false;
    for arg in &args {
        match arg.as_str() {
            "--update" => update = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            name => positional.push(name.to_string()),
        }
    }
    let [fresh_path, baseline_path] = positional.as_slice() else {
        return Err(usage());
    };
    let fresh = std::fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read fresh artifact `{fresh_path}`: {e}"))?;
    if update {
        if let Some(parent) = std::path::Path::new(baseline_path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
            }
        }
        std::fs::write(baseline_path, &fresh)
            .map_err(|e| format!("cannot write baseline `{baseline_path}`: {e}"))?;
        println!("baseline updated: {fresh_path} -> {baseline_path}");
        return Ok(true);
    }
    let baseline = std::fs::read_to_string(baseline_path).map_err(|e| {
        format!(
            "cannot read baseline `{baseline_path}`: {e} \
             (first run? create it with --update and commit it)"
        )
    })?;
    let report = compare_json(&baseline, &fresh, &Tolerances::default())?;
    if report.passed() {
        println!(
            "bench_regress ok: {fresh_path} within tolerance of {baseline_path} \
             ({} metrics checked, {} informational)",
            report.checked,
            report.skipped.len()
        );
        Ok(true)
    } else {
        eprintln!(
            "bench_regress REGRESSION: {fresh_path} vs {baseline_path} — {} finding(s):",
            report.regressions.len()
        );
        for r in &report.regressions {
            eprintln!("  {r}");
        }
        eprintln!(
            "(intentional change? rebaseline with \
             `bench_regress {fresh_path} {baseline_path} --update` and commit)"
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_regress: {e}");
            ExitCode::from(2)
        }
    }
}
