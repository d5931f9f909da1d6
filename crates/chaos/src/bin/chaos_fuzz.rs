//! Standalone fuzz driver for longer sweeps than the in-tree property
//! tests, and the trace emitter behind CI's cross-process thread-count
//! determinism drill.
//!
//! ```text
//! chaos_fuzz [--cases N] [--seed S]            # run the invariant battery
//! chaos_fuzz --cases N --seed S --trace-out F  # write reference traces only
//! ```
//!
//! Battery mode generates `N` cases from the seeded generator, runs every
//! invariant over each, and on failure prints the violation plus the
//! shrunk, committable counterexample JSON; exit status 1 if anything
//! failed. Trace mode skips the battery and concatenates each case's
//! one-shot reference fleet trace into `F` — CI runs it twice under
//! different `RAYON_NUM_THREADS` and byte-compares the files (the rayon
//! shim pins its pool size per process, so thread-count determinism is
//! checkable only across processes).

use std::process::ExitCode;

use onslicing_chaos::{chaos_case, check_case_with_scratch, shrink_case};
use onslicing_fleet::ElasticFleet;
use proptest::generate_case;
use rand::{SeedableRng, Xoshiro256PlusPlus};

struct Args {
    cases: u32,
    seed: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 32,
        seed: 0,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown flag {other} (see crate docs)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chaos_fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let strategy = chaos_case();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(args.seed);
    let mut failures = 0u32;
    let mut traces = String::new();
    for i in 0..args.cases {
        let case = generate_case(&strategy, &mut rng);
        if args.trace_out.is_some() {
            match ElasticFleet::run(case.scenario.clone(), case.fleet_config()) {
                Ok(outcome) => {
                    traces.push_str(&outcome.trace.to_json());
                    traces.push('\n');
                }
                Err(e) => {
                    eprintln!("case {i}: reference run failed: {e}");
                    failures += 1;
                }
            }
            continue;
        }
        match check_case_with_scratch(&case) {
            Ok(()) => {}
            Err(violation) => {
                failures += 1;
                eprintln!("case {i} (seed {}): {violation}", args.seed);
                eprintln!("shrinking counterexample...");
                let minimized = shrink_case(&case, &|c| check_case_with_scratch(c).is_err());
                eprintln!(
                    "minimized counterexample (commit under crates/chaos/regressions/):\n{}",
                    minimized.to_json()
                );
            }
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, &traces) {
            eprintln!("chaos_fuzz: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} reference traces ({} bytes) to {path}",
            args.cases,
            traces.len()
        );
    } else {
        println!(
            "{} cases checked, {failures} failed (seed {})",
            args.cases, args.seed
        );
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
