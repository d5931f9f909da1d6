//! The repository benchmark (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [run] [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out F]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json [A2.json B2.json ...]
//! ```
//!
//! Run it from the repository root, so that `.cargo/config.toml` applies
//! and `benchmark/out/` is where the outputs land. One workload runs in
//! this process and ends with the driver's one-line JSON result; `all`
//! (the default) runs every workload, untraced then traced, each in a
//! child process of its own so that `peak_rss_mb` is per workload, and
//! merges their reports.

mod envinfo;
mod metrics;
mod micro;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use envinfo::EnvRecord;
use metrics::{MetricSet, Table, WORKLOADS};
use probe::{ProbeCounts, ProbeScratch};
use stats::{
    guarded_percentile, highest_allowed_percentile, median, percentile, percentile_allowed,
};
use trace::Tracer;
use workloads::{Cx, Round};

/// Where every output of the harness lands, relative to the repository
/// root the command is run from.
const OUT_DIR: &str = "benchmark/out";
/// Rounds every pass runs at least, so that `setup_s` is a median of
/// several set-ups and a timing pools several inputs.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: onslicing-benchmark [run] [--workload W|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--out FILE]\n       onslicing-benchmark compare A.json B.json [A2.json B2.json ...]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".to_string(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    if it.peek().is_some_and(|a| *a == "run") {
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver writes `--trace 0|1`.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected all or one of: {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    if opts.quick && !seconds_given {
        opts.seconds = 1.0;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cfg!(debug_assertions) {
        eprintln!("refusing to run a debug build: measure with `cargo run --release`");
        return ExitCode::from(2);
    }
    if args.first().is_some_and(|a| a == "compare") {
        let reports = &args[1..];
        if reports.is_empty() || !reports.len().is_multiple_of(2) {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        return report::compare_files(reports);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    envinfo::pin_rayon_threads();
    if opts.workload == "all" {
        run_all(&opts)
    } else {
        run_one(&opts)
    }
}

/// One pass: identical rounds of one workload, untraced or traced.
struct Pass {
    rounds: Vec<Round>,
}

impl Pass {
    fn pooled(&self, series: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.series.get(series).into_iter().flatten().copied())
            .collect()
    }

    fn setups_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.setups_s.iter().copied())
            .collect()
    }

    fn measured_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.measured_s).sum()
    }
}

/// The seed of round `k`: the given seed for round 0, then a fixed
/// scramble of it. A run thus covers several inputs, and what one input's
/// dynamics (who is admitted, what migrates) do to a timing is averaged
/// inside the run instead of showing up as spread between runs.
fn round_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// How long a pass runs: until the clock says so and the slot samples carry
/// `tail` (the percentile the pass must be able to report), or a set number
/// of rounds.
enum Until {
    Seconds { seconds: f64, tail: Option<f64> },
    Rounds(usize),
}

fn run_pass(
    opts: &Opts,
    until: Until,
    tracer: &mut Tracer,
    probes: &mut ProbeCounts,
    dir: &Path,
) -> Pass {
    let mut scratch = ProbeScratch::default();
    let mut rounds = Vec::new();
    let start = Instant::now();
    loop {
        let done = match until {
            Until::Seconds { seconds, tail } => {
                let slots: usize = rounds
                    .iter()
                    .map(|r: &Round| r.series.get("slot_ms").map_or(0, Vec::len))
                    .sum();
                // Twice the time is the limit: a round that fails early
                // yields no samples and must not keep the pass going.
                let elapsed = start.elapsed().as_secs_f64();
                let sampled = opts.quick || tail.is_none_or(|q| percentile_allowed(slots, q));
                // Rounds are whole: stop where the pass lies nearest to
                // `seconds`, i.e. once another round of the mean length
                // would end further beyond it than the pass is short of it.
                let half_round = 0.5 * elapsed / rounds.len().max(1) as f64;
                rounds.len() >= MIN_ROUNDS
                    && elapsed + half_round >= seconds
                    && (sampled || elapsed >= 2.0 * seconds)
            }
            Until::Rounds(n) => rounds.len() >= n,
        };
        if done {
            return Pass { rounds };
        }
        // A round's slot loop is seconds on one thread, and the processor
        // left idle is slow again for the first 20-40 ms of the next set-up.
        envinfo::wake_processors();
        let mut cx = Cx {
            seed: round_seed(opts.seed, rounds.len()),
            quick: opts.quick,
            tracer,
            probes,
            scratch: &mut scratch,
            dir: dir.to_path_buf(),
            round: rounds.len(),
        };
        rounds.push(workloads::run_round(&opts.workload, &mut cx));
    }
}

/// Tracing and probes must perturb nothing: round `k` of the traced pass
/// ran the same input as round `k` of the untraced pass and must have
/// produced the same trace digest and deterministic outputs. Returns
/// `(attempted, failed)` and appends one line per failure.
fn determinism_checks(untraced: &Pass, traced: &Pass, failures: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (k, (a, b)) in untraced.rounds.iter().zip(&traced.rounds).enumerate() {
        attempted += 2;
        if a.digest != b.digest {
            failed += 1;
            failures.push(format!(
                "round {k}: traced digest {:016x} differs from untraced {:016x}",
                b.digest, a.digest
            ));
        }
        if a.exact != b.exact {
            failed += 1;
            failures.push(format!(
                "round {k}: traced outputs {:?} differ from untraced {:?}",
                b.exact, a.exact
            ));
        }
    }
    (attempted, failed)
}

/// The tail of a series: the named percentile when the sample carries it,
/// else (a `--quick` smoke run) the highest one it does carry.
fn tail(samples: &[f64], q: f64) -> f64 {
    guarded_percentile(samples, q)
        .or_else(|| highest_allowed_percentile(samples.len()).and_then(|q| percentile(samples, q)))
        .or_else(|| percentile(samples, 100.0))
        .unwrap_or(0.0)
}

fn end_to_end(pass: &Pass) -> MetricSet {
    let mut m = MetricSet::new(Table::EndToEnd);
    let setups = pass.setups_s();
    m.set_n("setup_s", median(&setups), setups.len());
    let rates: Vec<f64> = pass
        .rounds
        .iter()
        .map(|r| r.slice_slots as f64 / r.measured_s.max(f64::MIN_POSITIVE))
        .collect();
    m.set_n("slice_slots_per_s", median(&rates), rates.len());
    let slots = pass.pooled("slot_ms");
    m.set_n("slot_ms_p50", median(&slots), slots.len());
    // Deterministic for a fixed seed: every pass runs these rounds, on
    // these inputs. Their mean is steadier from seed to seed than round 0's.
    let usage: Vec<f64> = pass.rounds[..MIN_ROUNDS.min(pass.rounds.len())]
        .iter()
        .filter_map(|r| r.exact.get("usage_pct").copied())
        .collect();
    m.set_n("usage_pct", stats::mean(&usage), usage.len());
    m
}

/// Span name → per-layer metric, with the unit the mean is reported in.
const SPAN_METRICS: [(&str, &str, f64); 20] = [
    ("scenario.engine_new", "scenario.engine_new_ms", 1e6),
    ("scenario.admit", "scenario.admit_ms", 1e6),
    ("scenario.teardown", "scenario.teardown_us", 1e3),
    ("scenario.extract_inject", "scenario.extract_inject_ms", 1e6),
    ("replay.on_slot", "replay.on_slot_us", 1e3),
    ("replay.capture", "replay.capture_ms", 1e6),
    ("replay.to_json", "replay.to_json_ms", 1e6),
    ("replay.from_json", "replay.from_json_ms", 1e6),
    ("replay.restore", "replay.restore_ms", 1e6),
    ("replay.atomic_write", "replay.atomic_write_ms", 1e6),
    ("replay.trace_finalize", "replay.trace_finalize_ms", 1e6),
    ("fleet.new", "fleet.new_ms", 1e6),
    ("fleet.advance_to", "fleet.advance_ms_per_slot", 1e6),
    ("fleet.checkpoint_clone", "fleet.checkpoint_clone_ms", 1e6),
    (
        "fleet.checkpoint_to_json",
        "fleet.checkpoint_to_json_ms",
        1e6,
    ),
    ("fleet.restore", "fleet.restore_ms", 1e6),
    ("fleet.finish", "fleet.finish_ms", 1e6),
    ("fleetd.connect", "fleetd.connect_us", 1e3),
    ("core.run_epoch", "core.run_epoch_s", 1e9),
    ("core.offline_pretrain", "core.pretrain_ms_per_slice", 1e6),
];

/// Request series (round-trip milliseconds) → per-layer metric and the
/// factor from milliseconds to its unit.
const REQUEST_METRICS: [(&str, &str, f64); 8] = [
    ("fleetd.req.status", "fleetd.req.status_us", 1e3),
    ("fleetd.req.telemetry", "fleetd.req.telemetry_us", 1e3),
    ("fleetd.req.teardown", "fleetd.req.teardown_us", 1e3),
    ("fleetd.req.renegotiate", "fleetd.req.renegotiate_us", 1e3),
    ("fleetd.req.admit", "fleetd.req.admit_ms", 1.0),
    ("fleetd.req.step", "fleetd.req.step_ms", 1.0),
    ("fleetd.req.checkpoint", "fleetd.req.checkpoint_ms", 1.0),
    ("fleetd.req.shutdown", "fleetd.req.shutdown_ms", 1.0),
];

fn per_layer(
    opts: &Opts,
    untraced: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    probes: &ProbeCounts,
    ops: (u64, u64),
    untraced_rss_mb: f64,
) -> MetricSet {
    let mut m = MetricSet::new(Table::PerLayer);

    // The workload-scoped end-to-end metrics, from the untraced pass.
    let series = |name: &str| untraced.pooled(name);
    let slots = series("slot_ms");
    m.set_n("slot_ms_p95", tail(&slots, 95.0), slots.len());
    m.set_n(
        "slot_ms_p99",
        guarded_percentile(&slots, 99.0).unwrap_or(0.0),
        slots.len(),
    );
    for (name, from) in [
        ("epoch_s_p50", "epoch_s"),
        ("admit_ms_p50", "admit_ms"),
        ("ctl_ms_p50", "ctl_ms"),
        ("checkpoint_ms_p50", "checkpoint_ms"),
        ("resume_s", "resume_s"),
    ] {
        let s = series(from);
        m.set_n(name, median(&s), s.len());
    }
    let ctl = series("ctl_ms");
    m.set_n(
        "ctl_ms_p99",
        guarded_percentile(&ctl, 99.0).unwrap_or(0.0),
        ctl.len(),
    );
    m.set("peak_rss_mb", untraced_rss_mb);
    m.set("failed_ops_pct", 100.0 * ops.1 as f64 / ops.0.max(1) as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced.measured_s() / untraced.measured_s().max(f64::MIN_POSITIVE) - 1.0),
    );

    // Deterministic outputs and measured values the rounds name
    // themselves, as round 0 (the seed as given) reported them.
    if let Some(first) = untraced.rounds.first() {
        for (name, value) in first.exact.iter().chain(&first.values) {
            if metrics::PER_LAYER.iter().any(|p| p.0 == *name) {
                m.set(name, *value);
            }
        }
    }

    // The spans of the traced pass.
    let stats = tracer.stats();
    for (span, metric, ns_per_unit) in SPAN_METRICS {
        if let Some(s) = stats.get(span) {
            m.set_n(
                metric,
                s.total_ns as f64 / s.count.max(1) as f64 / ns_per_unit,
                s.count as usize,
            );
        }
    }
    probe::ledger_metrics(&stats, probes, &mut m);
    if let Some(s) = stats.get("core.offline_pretrain_all") {
        // Three slices pre-train side by side; the amortised cost of one.
        m.set_n(
            "core.pretrain_ms_per_slice",
            s.mean_ms() / workloads::paper_online::SLICES as f64,
            s.count as usize,
        );
    }
    if let Some(s) = stats.get("core.evaluate") {
        let evaluated = (traced.pooled("slot_ms").len() * workloads::paper_online::SLICES) as f64;
        m.set(
            "core.evaluate_us_per_slice_slot",
            s.total_ns as f64 / 1e3 / evaluated.max(1.0),
        );
    }

    // The daemon's control plane, as its one client saw it (untraced).
    for (from, metric, per_ms) in REQUEST_METRICS {
        let s = series(from);
        if !s.is_empty() {
            m.set_n(metric, median(&s) * per_ms, s.len());
        }
    }
    if opts.workload == "fleetd-drill" {
        let starts = untraced.setups_s();
        m.set_n("fleetd.start_ms", median(&starts) * 1e3, starts.len());
        let resumes = series("resume_s");
        m.set_n("fleetd.resume_ms", median(&resumes) * 1e3, resumes.len());
    }
    m
}

/// Runs one workload in this process and prints the driver's result line.
fn run_one(opts: &Opts) -> ExitCode {
    let env = EnvRecord::capture(opts.seed, envinfo::wake_processors());
    for warning in [env.load_warning(), env.wake_warning()]
        .into_iter()
        .flatten()
    {
        println!("{warning}");
    }
    // The program under test receives this generated input and nothing
    // else of the seed; its digest tells two runs' inputs apart at a glance.
    let input =
        stats::digest(workloads::generated_json(&opts.workload, opts.seed, opts.quick).as_bytes());
    println!(
        "# {} seed={} seconds={} trace={} quick={} input={input:016x} | env {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick,
        env.to_json()
    );
    let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "cannot create {}: {e} (run from the repository root)",
            dir.display()
        );
        return ExitCode::from(2);
    }

    let mut probes = ProbeCounts::default();
    let mut off = Tracer::new(false);
    // A traced invocation spends half its time untraced: that pass carries
    // the workload-scoped end-to-end metrics and is the base of the
    // tracing overhead; the traced pass then repeats exactly its rounds.
    // That half reports `slot_ms_p95` and so runs until 200 slot samples
    // are in, however slow the machine.
    let until = if opts.trace {
        Until::Seconds {
            seconds: opts.seconds / 2.0,
            tail: Some(95.0),
        }
    } else {
        Until::Seconds {
            seconds: opts.seconds,
            tail: None,
        }
    };
    let untraced = run_pass(opts, until, &mut off, &mut probes, &dir);
    let untraced_rss_mb = envinfo::peak_rss_mb();
    let mut tracer = Tracer::new(opts.trace);
    let traced = if opts.trace {
        run_pass(
            opts,
            Until::Rounds(untraced.rounds.len()),
            &mut tracer,
            &mut probes,
            &dir,
        )
    } else {
        Pass { rounds: Vec::new() }
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = determinism_checks(&untraced, &traced, &mut failures);
    for round in untraced.rounds.iter().chain(&traced.rounds) {
        attempted += round.attempted;
        failed += round.failed;
        failures.extend(round.failures.iter().cloned());
    }
    if opts.trace {
        attempted += 1;
        if probes.mismatches > 0 {
            failed += 1;
            failures.push(format!(
                "{} phase probes disagreed with the product's slot",
                probes.mismatches
            ));
        }
    }

    let metrics = if opts.trace {
        let mut m = per_layer(
            opts,
            &untraced,
            &traced,
            &tracer,
            &probes,
            (attempted, failed),
            untraced_rss_mb,
        );
        micro::run(workloads::shapes(&opts.workload), opts.seed, &mut m);
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", opts.workload));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        m
    } else {
        end_to_end(&untraced)
    };

    // Per-round rates: one slow round among fast ones is a noisy neighbour,
    // a uniformly slow run is a slow machine.
    let rates: Vec<String> = untraced
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{:.1}",
                r.slice_slots as f64 / r.measured_s.max(f64::MIN_POSITIVE)
            )
        })
        .collect();
    let setups: Vec<String> = untraced
        .setups_s()
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    println!(
        "# {} untraced rounds, slice-slots/s of each: {}; ms of each set-up: {}",
        rates.len(),
        rates.join(" "),
        setups.join(" ")
    );
    // Which operations the untraced wall went to: what separates the workloads.
    let wall_ms = untraced.measured_s() * 1e3;
    let shares: Vec<String> = [
        ("admitting slots", "admit_ms"),
        ("checkpoints", "checkpoint_ms"),
        ("control requests", "ctl_ms"),
    ]
    .iter()
    .map(|(label, series)| (label, untraced.pooled(series).iter().sum::<f64>()))
    .filter(|(_, ms)| *ms > 0.0)
    .map(|(label, ms)| format!("{label} {:.1} %", 100.0 * ms / wall_ms))
    .collect();
    if !shares.is_empty() {
        println!(
            "# share of the untraced measured wall: {}",
            shares.join(", ")
        );
    }
    for (name, value, unit, samples) in metrics.rows() {
        if samples > 0 {
            println!("{name:<40} {value:>16.6} {unit:<6} n={samples}");
        } else {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }
    for failure in &failures {
        println!("FAILED: {failure}");
    }
    let correct = failed == 0;
    if let Some(out) = &opts.out {
        let text = report::invocation_json(
            opts.quick,
            &opts.workload,
            opts.trace,
            &env,
            correct,
            attempted,
            failed,
            &failures,
            &metrics,
        );
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in a child process, and
/// merges the children's reports into one file.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e} (run from the repository root)");
        return ExitCode::from(2);
    }
    let mut parts = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            let part =
                PathBuf::from(OUT_DIR).join(format!("part-{workload}-{}.json", u8::from(trace)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if opts.quick {
                cmd.arg("--quick");
            }
            // The child shares this terminal; `status` waits until it ended.
            match cmd.status() {
                Ok(status) => all_ok &= status.success(),
                Err(e) => {
                    eprintln!("cannot run {workload}: {e}");
                    all_ok = false;
                }
            }
            if let Ok(text) = std::fs::read_to_string(&part) {
                parts.push(text);
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("report.json"));
    let text = format!("{{\"runs\":[\n{}\n]}}\n", parts.join(",\n"));
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o = parse(&args(
            "run --workload cell-dense --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("cell-dense", 7, 15.0, true)
        );
        let o = parse(&args(
            "--workload cell-dense --seed 7 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert!(!o.trace);
        let o = parse(&args("run --trace --out x.json")).unwrap();
        assert!(o.trace && o.workload == "all" && o.out == Some(PathBuf::from("x.json")));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }

    #[test]
    fn quick_shortens_the_run_unless_told_otherwise() {
        assert_eq!(parse(&args("--quick")).unwrap().seconds, 1.0);
        assert_eq!(parse(&args("--quick --seconds 4")).unwrap().seconds, 4.0);
    }

    #[test]
    fn every_span_and_request_metric_is_declared() {
        let mut m = MetricSet::new(Table::PerLayer);
        for (_, metric, _) in SPAN_METRICS.iter().chain(&REQUEST_METRICS) {
            m.set(metric, 1.0); // panics on an undeclared name
        }
    }

    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
        let mut lines: Vec<String> = text
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or_default()
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn the_release_profile_equals_the_root_manifests() {
        // Build settings change speed without changing code: the harness
        // must measure the crates as the repository itself builds them.
        let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release] table"
        );
        assert_eq!(ours, root);
    }

    #[test]
    fn a_traced_round_that_disagrees_fails_the_determinism_check() {
        let round = |digest: u64, usage: f64| {
            let mut r = Round {
                digest,
                ..Round::default()
            };
            r.exact.insert("usage_pct", usage);
            r
        };
        // Rounds of one pass run different inputs and may differ; round k
        // of the two passes may not.
        let untraced = Pass {
            rounds: vec![round(1, 2.0), round(7, 3.0)],
        };
        let same = Pass {
            rounds: vec![round(1, 2.0), round(7, 3.0)],
        };
        let mut failures = Vec::new();
        assert_eq!(determinism_checks(&untraced, &same, &mut failures), (4, 0));
        let drift = Pass {
            rounds: vec![round(1, 2.0), round(9, 3.5)],
        };
        assert_eq!(determinism_checks(&untraced, &drift, &mut failures), (4, 2));
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn round_seeds_start_at_the_given_seed_and_differ() {
        assert_eq!(round_seed(42, 0), 42);
        let seeds: std::collections::BTreeSet<u64> = (0..8).map(|k| round_seed(42, k)).collect();
        assert_eq!(seeds.len(), 8);
    }
}
