//! The one scenario CLI: telemetry traces of every built-in, the
//! golden-trace regression gate and the checkpoint/replay verifier.
//!
//! ```sh
//! cargo run --release --bin replay_check -- list    # both catalogues
//! cargo run --release --bin replay_check -- dump flash-crowd > my.json
//! # A fleet built-in runs on max(min_cells, 2) elastic cells:
//! cargo run --release --bin replay_check -- trace hotspot-shift --seed 7
//! # Diff against the committed goldens (`--update` regenerates them):
//! cargo run --release --bin replay_check -- golden steady flash-crowd
//! # Checkpoint at slot 24, then resume in a fresh process: the remaining
//! # slots must reproduce the reference trace's suffix bit-for-bit:
//! cargo run --release --bin replay_check -- checkpoint steady --at-slot 24 --out ck.json --trace-out full.json
//! cargo run --release --bin replay_check -- resume --from ck.json --expect full.json
//! ```
//!
//! Each command refuses an option it does not read. Exit codes: 0 = pass,
//! 1 = a finding (golden drift, resume mismatch, a checkpoint that does not
//! load, a non-finite metric), 2 = usage/setup error.

use std::path::PathBuf;
use std::process::ExitCode;

use onslicing_bench::{out, outln};
use onslicing_fleet::{ElasticFleet, ElasticFleetConfig};
use onslicing_replay::{
    check_against_golden, diff_values, record_scenario, write_golden, Checkpoint,
    TelemetryRecorder, TelemetryTrace, Tolerance,
};
use onslicing_scenario::{
    builtin, fleet, FleetScenario, Scenario, ScenarioConfig, ScenarioEngine, FLEET_BUILTIN_NAMES,
};
use serde::{Serialize, Value};

/// Default directory of the committed goldens, relative to the repo root.
const DEFAULT_GOLDEN_DIR: &str = "goldens";

/// The options each command reads. Any other is refused, so a flag a
/// command would ignore (`trace --update`) cannot pass for one it honours.
fn options_read_by(command: &str) -> Result<&'static [&'static str], String> {
    Ok(match command {
        "list" | "dump" => &[],
        "trace" => &["--seed", "--out"],
        "golden" => &["--goldens", "--seed", "--update"],
        "checkpoint" => &["--at-slot", "--seed", "--out", "--trace-out"],
        "resume" => &["--from", "--expect", "--out"],
        other => return Err(format!("unknown command `{other}`")),
    })
}

fn usage() -> String {
    // One literal line per printed line: a `\` continuation would strip
    // the commands' indentation.
    [
        "usage: replay_check <command> [options]",
        "commands:",
        "  list                                   print both built-in catalogues",
        "  dump <scenario>                        print a built-in as JSON",
        "  trace <scenario> [--seed N] [--out PATH]",
        "  golden <scenario>... [--goldens DIR] [--seed N] [--update]",
        "  checkpoint <scenario> --at-slot T [--seed N] [--out CK] [--trace-out TRACE]",
        "  resume --from CK [--expect TRACE] [--out PATH]",
        "scenarios: built-in names or scenario JSON files (`trace`, `dump`: also fleet built-ins)",
    ]
    .join("\n")
}

enum Target {
    Cell(Scenario),
    Fleet(FleetScenario),
}

/// A fleet built-in, else a cell built-in or scenario file; an unknown name lists both catalogues.
fn resolve(name: &str) -> Result<Target, String> {
    if let Some(scenario) = fleet::fleet_by_name(name) {
        return Ok(Target::Fleet(scenario));
    }
    builtin::by_name_or_file(name)
        .map(Target::Cell)
        .map_err(|e| format!("{e}; fleet built-ins: {}", FLEET_BUILTIN_NAMES.join(", ")))
}

/// Resolves the argument of a command that runs one cell.
fn load_scenario(name: &str) -> Result<Scenario, String> {
    let Target::Cell(scenario) = resolve(name)? else {
        return Err(format!("only `trace`/`dump` take fleet built-in `{name}`"));
    };
    Ok(scenario)
}

/// Whether a run's metrics are finite; a non-finite one is a finding (exit 1), named on stderr.
fn finite(scenario: &str, has_non_finite: bool) -> bool {
    if has_non_finite {
        eprintln!("replay_check: scenario `{scenario}` produced non-finite metrics");
    }
    !has_non_finite
}

/// Prints the first 20 drifts of a failed comparison to stderr.
fn print_drifts(drifts: &[String]) {
    for drift in drifts.iter().take(20) {
        eprintln!("  {drift}");
    }
    if drifts.len() > 20 {
        eprintln!("  ... and {} more", drifts.len() - 20);
    }
}

#[derive(Default)]
struct Options {
    positional: Vec<String>,
    /// The default configuration under `--seed`.
    config: ScenarioConfig,
    out: Option<String>,
    goldens: PathBuf,
    update: bool,
    at_slot: Option<usize>,
    trace_out: Option<String>,
    from: Option<String>,
    expect: Option<String>,
}

fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let allowed = options_read_by(command)?;
    let mut opts = Options {
        goldens: PathBuf::from(DEFAULT_GOLDEN_DIR),
        ..Options::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(format!("unknown option `{arg}` for `{command}`"));
        }
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                opts.config.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
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
            name => opts.positional.push(name.to_string()),
        }
    }
    Ok(opts)
}

/// Both built-in catalogues, a scenario and its description per line.
fn catalogue() -> String {
    let mut text = "built-in scenarios:\n".to_string();
    for s in builtin::all() {
        text += &format!("  {:<20} {}\n", s.name, s.description);
    }
    text += "fleet built-ins (`trace` runs them on >= 2 cells):\n";
    for s in fleet::all_fleet_builtins() {
        text += &format!("  {:<20} {}\n", s.name, s.description);
    }
    text
}

fn one_scenario<'a>(opts: &'a Options, command: &str) -> Result<&'a str, String> {
    let [name] = opts.positional.as_slice() else {
        return Err(format!("{command} takes exactly one scenario"));
    };
    Ok(name)
}

fn cmd_dump(opts: &Options) -> Result<bool, String> {
    let name = one_scenario(opts, "dump")?;
    match resolve(name)? {
        Target::Cell(scenario) => outln!("{}", scenario.to_json()),
        Target::Fleet(scenario) => outln!("{}", scenario.to_json()),
    }
    Ok(true)
}

fn cmd_trace(opts: &Options) -> Result<bool, String> {
    let name = one_scenario(opts, "trace")?;
    let out = |default: String| opts.out.clone().unwrap_or(default);
    match resolve(name)? {
        Target::Fleet(scenario) => {
            let cells = scenario.min_cells.max(2);
            let config = ElasticFleetConfig::new(cells).with_seed(opts.config.seed);
            let outcome = ElasticFleet::run(scenario, config)?;
            if !finite(name, outcome.report.has_non_finite()) {
                return Ok(false);
            }
            let out = out(format!("TRACE_FLEET_{name}.json"));
            outcome.trace.save(&out)?;
            outln!(
                "recorded fleet `{name}` (seed {}, {cells} cells) -> {out}",
                opts.config.seed
            );
        }
        Target::Cell(scenario) => {
            let (trace, report) = record_scenario(scenario, opts.config)?;
            if !finite(name, report.has_non_finite()) {
                return Ok(false);
            }
            let out = out(format!("TRACE_{}.json", trace.scenario));
            trace.save(&out)?;
            outln!(
                "recorded `{name}` (seed {}): {} slots, {} episodes -> {out}",
                opts.config.seed,
                trace.slots.len(),
                trace.episodes.len()
            );
        }
    }
    Ok(true)
}

fn cmd_golden(opts: &Options) -> Result<bool, String> {
    if opts.positional.is_empty() {
        return Err("golden needs at least one scenario".to_string());
    }
    let mut all_pass = true;
    for name in &opts.positional {
        let (trace, report) = record_scenario(load_scenario(name)?, opts.config)?;
        if !finite(name, report.has_non_finite()) {
            all_pass = false;
            continue;
        }
        if opts.update {
            let path = write_golden(&trace, &opts.goldens)?;
            outln!("golden updated: {}", path.display());
            continue;
        }
        match check_against_golden(&trace, &opts.goldens) {
            Ok(()) => outln!(
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
                print_drifts(&drifts);
            }
        }
    }
    Ok(all_pass)
}

fn cmd_checkpoint(opts: &Options) -> Result<bool, String> {
    let name = one_scenario(opts, "checkpoint")?;
    let at_slot = opts.at_slot.ok_or("checkpoint needs --at-slot")?;
    let scenario = load_scenario(name)?;
    if at_slot == 0 || at_slot >= scenario.total_slots {
        return Err(format!(
            "--at-slot must be inside the scenario (1..{})",
            scenario.total_slots
        ));
    }
    let mut engine = ScenarioEngine::new(scenario, opts.config)?;
    let mut recorder = TelemetryRecorder::new(&engine);
    engine.run_until(at_slot, &mut recorder);
    let checkpoint = Checkpoint::capture(&engine);
    let ck_out = opts.out.clone().unwrap_or_else(|| "checkpoint.json".into());
    checkpoint.save(&ck_out)?;
    // Keep running the same engine so the emitted trace is the full
    // uninterrupted reference the resumed process is compared against.
    let report = engine.run_with_observer(&mut recorder);
    if !finite(name, report.has_non_finite()) {
        return Ok(false);
    }
    let trace = recorder.finalize();
    let trace_out = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| format!("TRACE_{}.json", trace.scenario));
    trace.save(&trace_out)?;
    outln!(
        "checkpointed `{name}` at slot {at_slot}/{} -> {ck_out}; reference trace -> {trace_out}",
        trace.total_slots
    );
    Ok(true)
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
    if !finite(&report.scenario, report.has_non_finite()) {
        return Ok(false);
    }
    let resumed = recorder.finalize();
    if let Some(out) = &opts.out {
        resumed.save(out)?;
    }
    let Some(expect) = opts.expect.as_deref() else {
        outln!(
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
        outln!(
            "resume ok: `{}` slots {start}..{} reproduced bit-for-bit ({} slot records, {} episodes)",
            resumed.scenario,
            resumed.total_slots,
            resumed.slots.len(),
            resumed.episodes.len()
        );
        Ok(true)
    } else {
        eprintln!("resume MISMATCH: replay diverged from the reference run:");
        print_drifts(&diff_values(&expected, &actual, Tolerance::exact()).drifts);
        Ok(false)
    }
}

/// `Ok(true)` = pass, `Ok(false)` = a finding (exit 1), `Err` = a usage or
/// setup error (exit 2).
fn run(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or_else(usage)?;
    let opts = parse_options(command, rest).map_err(|e| format!("{e}\n{}", usage()))?;
    match command.as_str() {
        "list" => {
            out!("{}", catalogue());
            Ok(true)
        }
        "dump" => cmd_dump(&opts),
        "trace" => cmd_trace(&opts),
        "golden" => cmd_golden(&opts),
        "checkpoint" => cmd_checkpoint(&opts),
        // `options_read_by` has refused every other command.
        _ => cmd_resume(&opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("replay_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_fleet::FleetTrace;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn usage_errors_are_errors_not_findings() {
        // A typo must not look like a NaN: `Err` exits 2, a finding exits 1.
        let err = run(&args("trace steady --sed 3")).unwrap_err();
        assert!(err.contains("unknown option `--sed`"), "{err}");
        let err = run(&args("trace no-such-scenario")).unwrap_err();
        assert!(err.contains("neither a built-in scenario"), "{err}");
        for name in builtin::BUILTIN_NAMES.iter().chain(&FLEET_BUILTIN_NAMES) {
            assert!(
                err.contains(name),
                "an unknown name lists both catalogues: {err}"
            );
        }
        assert!(run(&args("trace steady --out"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(run(&args("golden hotspot-shift")).is_err());
        assert!(run(&args("dump no-such-scenario")).is_err());
        assert!(run(&args("trace /nonexistent/scenario.json")).is_err());
        assert!(run(&args("frobnicate")).is_err());
        assert!(run(&[]).is_err());
        assert_eq!(run(&args("list")), Ok(true));
    }

    #[test]
    fn usage_indents_each_command_under_its_heading() {
        let text = usage();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "commands:");
        for command in ["list", "dump", "trace", "golden", "checkpoint", "resume"] {
            let line = lines.iter().find(|l| l.trim_start().starts_with(command));
            let line = line.unwrap_or_else(|| panic!("`{command}` missing:\n{text}"));
            assert!(line.starts_with(&format!("  {command} ")), "{line:?}");
        }
        assert!(lines.last().unwrap().starts_with("scenarios: "), "{text}");
    }

    #[test]
    fn each_command_refuses_an_option_it_does_not_read() {
        for (line, refused) in [
            (
                "trace steady --at-slot 5 --update --from nowhere --out x.json",
                "--at-slot",
            ),
            ("trace steady --update", "--update"),
            ("golden steady --out x.json", "--out"),
            ("checkpoint steady --at-slot 5 --expect x.json", "--expect"),
            ("resume --from x.json --seed 3", "--seed"),
            ("dump steady --seed 3", "--seed"),
            ("list --update", "--update"),
        ] {
            let command = line.split(' ').next().unwrap();
            let err = run(&args(line)).unwrap_err();
            assert!(
                err.contains(&format!("unknown option `{refused}` for `{command}`")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn list_names_both_catalogues() {
        let listed = catalogue();
        for name in builtin::BUILTIN_NAMES.iter().chain(&FLEET_BUILTIN_NAMES) {
            assert!(
                listed.contains(&format!("  {name} ")),
                "`{name}` missing:\n{listed}"
            );
        }
    }

    #[test]
    fn a_fleet_trace_is_the_elastic_fleets_trace() {
        let dir =
            std::env::temp_dir().join(format!("onslicing-replay-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fleet.json");
        let line = format!("trace hotspot-shift --seed 3 --out {}", out.display());
        assert_eq!(run(&args(&line)), Ok(true));
        let written = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let scenario = fleet::fleet_by_name("hotspot-shift").unwrap();
        let config = ElasticFleetConfig::new(scenario.min_cells.max(2)).with_seed(3);
        let expected = ElasticFleet::run(scenario, config).unwrap().trace;
        assert_eq!(written, expected.to_json());
        assert_eq!(FleetTrace::from_json(&written).unwrap(), expected);
    }
}
