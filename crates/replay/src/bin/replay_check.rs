//! The golden-trace regression harness and checkpoint/replay verifier.
//!
//! ```sh
//! # Gate: re-run built-ins from their pinned seed and diff against the
//! # committed goldens (non-zero exit on any drift):
//! cargo run --release --bin replay_check -- golden steady flash-crowd
//! # Regenerate goldens after an intentional behavior change:
//! cargo run --release --bin replay_check -- golden steady flash-crowd --update
//! # Record a trace without comparing:
//! cargo run --release --bin replay_check -- trace stress-many-slices --out TRACE.json
//! # Checkpoint a run mid-scenario (also records the full reference trace):
//! cargo run --release --bin replay_check -- checkpoint steady --at-slot 24 \
//!     --out ck.json --trace-out full.json
//! # Resume the checkpoint in a fresh process; the remaining slots must
//! # reproduce the reference trace's suffix EXACTLY (bit-for-bit):
//! cargo run --release --bin replay_check -- resume --from ck.json --expect full.json
//! ```
//!
//! Scenario arguments are built-in names (`replay_check list` prints them)
//! or paths to scenario JSON files. Exit codes: 0 = pass, 1 = drift, resume
//! mismatch or a checkpoint that does not load, 2 = usage/setup error.

use std::path::PathBuf;
use std::process::ExitCode;

use onslicing_replay::{
    check_against_golden, diff_values, write_golden, Checkpoint, TelemetryRecorder, TelemetryTrace,
    Tolerance,
};
use onslicing_scenario::{builtin, Scenario, ScenarioConfig, ScenarioEngine};
use serde::{Serialize, Value};

/// Default directory of the committed goldens, relative to the working
/// directory (the repository root in CI).
const DEFAULT_GOLDEN_DIR: &str = "goldens";

fn usage() -> String {
    "usage: replay_check <command> [options]\n\
     commands:\n\
       list                                   print the built-in scenario names\n\
       trace <scenario> [--seed N] [--out PATH]\n\
       golden <scenario>... [--goldens DIR] [--seed N] [--update]\n\
       checkpoint <scenario> --at-slot T [--seed N] [--out CK] [--trace-out TRACE]\n\
       resume --from CK [--expect TRACE] [--out PATH]\n\
     scenarios are built-in names or paths to scenario JSON files"
        .to_string()
}

fn load_scenario(name: &str) -> Result<Scenario, String> {
    builtin::by_name_or_file(name)
}

fn record(name: &str, seed: u64) -> Result<TelemetryTrace, String> {
    let scenario = load_scenario(name)?;
    let mut engine = ScenarioEngine::new(
        scenario,
        ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        },
    )?;
    let mut recorder = TelemetryRecorder::new(&engine);
    let report = engine.run_with_observer(&mut recorder);
    if report.has_non_finite() {
        return Err(format!("scenario `{name}` produced non-finite metrics"));
    }
    Ok(recorder.finalize())
}

struct Options {
    positional: Vec<String>,
    seed: u64,
    out: Option<String>,
    goldens: PathBuf,
    update: bool,
    at_slot: Option<usize>,
    trace_out: Option<String>,
    from: Option<String>,
    expect: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        positional: Vec::new(),
        seed: 0,
        out: None,
        goldens: PathBuf::from(DEFAULT_GOLDEN_DIR),
        update: false,
        at_slot: None,
        trace_out: None,
        from: None,
        expect: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--goldens" => opts.goldens = PathBuf::from(value("--goldens")?),
            "--update" => opts.update = true,
            "--at-slot" => {
                let v = value("--at-slot")?;
                opts.at_slot = Some(v.parse().map_err(|_| format!("invalid --at-slot `{v}`"))?);
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--from" => opts.from = Some(value("--from")?),
            "--expect" => opts.expect = Some(value("--expect")?),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            name => opts.positional.push(name.to_string()),
        }
    }
    Ok(opts)
}

fn cmd_trace(opts: &Options) -> Result<(), String> {
    let [name] = opts.positional.as_slice() else {
        return Err("trace takes exactly one scenario".to_string());
    };
    let trace = record(name, opts.seed)?;
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("TRACE_{}.json", trace.scenario));
    trace.save(&out)?;
    println!(
        "recorded `{name}` (seed {}): {} slots, {} episodes -> {out}",
        opts.seed,
        trace.slots.len(),
        trace.episodes.len()
    );
    Ok(())
}

fn cmd_golden(opts: &Options) -> Result<bool, String> {
    if opts.positional.is_empty() {
        return Err("golden needs at least one scenario".to_string());
    }
    let mut all_pass = true;
    for name in &opts.positional {
        let trace = record(name, opts.seed)?;
        if opts.update {
            let path = write_golden(&trace, &opts.goldens)?;
            println!("golden updated: {}", path.display());
            continue;
        }
        match check_against_golden(&trace, &opts.goldens) {
            Ok(()) => println!(
                "golden ok: `{}` ({} slots, {} episodes)",
                trace.scenario,
                trace.slots.len(),
                trace.episodes.len()
            ),
            Err(drifts) => {
                all_pass = false;
                eprintln!(
                    "golden DRIFT: `{}` — {} difference(s):",
                    trace.scenario,
                    drifts.len()
                );
                for drift in drifts.iter().take(20) {
                    eprintln!("  {drift}");
                }
                if drifts.len() > 20 {
                    eprintln!("  ... and {} more", drifts.len() - 20);
                }
            }
        }
    }
    Ok(all_pass)
}

fn cmd_checkpoint(opts: &Options) -> Result<(), String> {
    let [name] = opts.positional.as_slice() else {
        return Err("checkpoint takes exactly one scenario".to_string());
    };
    let at_slot = opts.at_slot.ok_or("checkpoint needs --at-slot")?;
    let scenario = load_scenario(name)?;
    if at_slot == 0 || at_slot >= scenario.total_slots {
        return Err(format!(
            "--at-slot must be inside the scenario (1..{})",
            scenario.total_slots
        ));
    }
    let mut engine = ScenarioEngine::new(
        scenario,
        ScenarioConfig {
            seed: opts.seed,
            ..ScenarioConfig::default()
        },
    )?;
    let mut recorder = TelemetryRecorder::new(&engine);
    engine.run_until(at_slot, &mut recorder);
    let checkpoint = Checkpoint::capture(&engine);
    let ck_out = opts.out.clone().unwrap_or_else(|| "checkpoint.json".into());
    checkpoint.save(&ck_out)?;
    // Keep running the same engine so the emitted trace is the full
    // uninterrupted reference the resumed process is compared against.
    let report = engine.run_with_observer(&mut recorder);
    if report.has_non_finite() {
        return Err(format!("scenario `{name}` produced non-finite metrics"));
    }
    let trace = recorder.finalize();
    let trace_out = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| format!("TRACE_{}.json", trace.scenario));
    trace.save(&trace_out)?;
    println!(
        "checkpointed `{name}` at slot {at_slot}/{} -> {ck_out}; reference trace -> {trace_out}",
        trace.total_slots
    );
    Ok(())
}

fn cmd_resume(opts: &Options) -> Result<bool, String> {
    let from = opts.from.as_deref().ok_or("resume needs --from")?;
    // A file the loader refuses fails the check, like a replay that
    // diverges — never a panic a slot later.
    let Ok(checkpoint) = Checkpoint::load(from).inspect_err(|e| eprintln!("resume REFUSED: {e}"))
    else {
        return Ok(false);
    };
    let start = checkpoint.slot();
    let mut engine = checkpoint.restore();
    let mut recorder = TelemetryRecorder::new(&engine);
    let report = engine.run_with_observer(&mut recorder);
    if report.has_non_finite() {
        return Err("resumed run produced non-finite metrics".to_string());
    }
    let resumed = recorder.finalize();
    if let Some(out) = &opts.out {
        resumed.save(out)?;
    }
    let Some(expect) = opts.expect.as_deref() else {
        println!(
            "resumed `{}` from slot {start}: {} slots, {} episodes (no --expect given)",
            resumed.scenario,
            resumed.slots.len(),
            resumed.episodes.len()
        );
        return Ok(true);
    };
    let reference = TelemetryTrace::load(expect)?;
    let (expected_slots, expected_episodes) = reference.suffix_from(start);
    let records = |slots: &Vec<_>, episodes: &Vec<_>| {
        Value::Obj(vec![
            ("slots".to_string(), Serialize::serialize_value(slots)),
            ("episodes".to_string(), Serialize::serialize_value(episodes)),
        ])
    };
    let expected = records(&expected_slots, &expected_episodes);
    let actual = records(&resumed.slots, &resumed.episodes);
    // The replay contract is bit-for-bit: compare the serialized records.
    if serde_json::to_string(&expected) == serde_json::to_string(&actual) {
        println!(
            "resume ok: `{}` slots {start}..{} reproduced bit-for-bit ({} slot records, {} episodes)",
            resumed.scenario,
            resumed.total_slots,
            resumed.slots.len(),
            resumed.episodes.len()
        );
        Ok(true)
    } else {
        eprintln!("resume MISMATCH: replay diverged from the reference run:");
        for drift in diff_values(&expected, &actual, Tolerance::exact())
            .drifts
            .iter()
            .take(20)
        {
            eprintln!("  {drift}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let opts = match parse_options(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("replay_check: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "list" => {
            for name in builtin::BUILTIN_NAMES {
                println!("{name}");
            }
            Ok(true)
        }
        "trace" => cmd_trace(&opts).map(|()| true),
        "golden" => cmd_golden(&opts),
        "checkpoint" => cmd_checkpoint(&opts).map(|()| true),
        "resume" => cmd_resume(&opts),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("replay_check: {e}");
            ExitCode::from(2)
        }
    }
}
