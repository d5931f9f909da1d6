//! Runs the paper's tables and figures, and the fleet results, from the one
//! registry in `onslicing_bench::experiments`, and gates their ledger.
//!
//! ```sh
//! cargo run --release --bin experiments -- --list
//! cargo run --release --bin experiments -- table1 fig19 tournament   # CI scale, seconds
//! cargo run --release --bin experiments -- all --full --check baselines/EXPERIMENTS.json
//! cargo run --release --bin experiments -- all --full --update baselines/EXPERIMENTS.json
//! ```
//!
//! Each experiment prints its tables and, under them, its sentences about
//! them as `[holds]` / `[UNMET]` verdicts; the run ends with the scoreboard
//! (`claims: H of N hold`, then each id with unmet claims). The ledger —
//! every table cell and claim, the document `baselines/EXPERIMENTS.json`
//! pins — is written by `--out`, held against a committed copy by `--check`
//! (its header and the entries of the ids that ran, by
//! `onslicing_bench::regress`) and rewritten by `--update` (with `all`).
//! The exit code never depends on a verdict: 0 = ran (and matched), 1 = the
//! ledger drifted from the baseline, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use onslicing_bench::experiments::{ledger, scoreboard, Experiment, EXPERIMENTS};
use onslicing_bench::regress::check_ledger;
use onslicing_bench::{out, outln, RunScale};
use onslicing_replay::atomic_write;

/// Every usage error enumerates the registered ids.
fn usage(error: &str) -> String {
    let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let usage = "usage: experiments [--full] [--out PATH] [--check PATH | --update PATH] \
                 <id>… | all | --list";
    format!("{error}\n{usage}\n  ids: {}", ids.join(", "))
}

/// What to run, in registry order whatever the argument order, and where
/// its ledger goes.
#[derive(Default)]
struct Request {
    full: bool,
    out: Option<String>,
    check: Option<PathBuf>,
    update: Option<PathBuf>,
    selected: Vec<&'static Experiment>,
}

/// The request, or `None` for `--list`.
fn parse(args: &[String]) -> Result<Option<Request>, String> {
    let (mut request, mut ids) = (Request::default(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut path = || {
            args.next()
                .cloned()
                .ok_or_else(|| usage(&format!("{arg} needs a path")))
        };
        match arg.as_str() {
            "--list" => return Ok(None),
            "--full" => request.full = true,
            "--out" => request.out = Some(path()?),
            "--check" => request.check = Some(path()?.into()),
            "--update" => request.update = Some(path()?.into()),
            "all" => ids.extend(EXPERIMENTS.iter().map(|e| e.id)),
            flag if flag.starts_with("--") => {
                return Err(usage(&format!("unknown option `{flag}`")))
            }
            id if EXPERIMENTS.iter().any(|e| e.id == id) => ids.push(id),
            id => return Err(usage(&format!("unknown experiment `{id}`"))),
        }
    }
    if ids.is_empty() {
        return Err(usage("no experiment named"));
    }
    request.selected = EXPERIMENTS.iter().filter(|e| ids.contains(&e.id)).collect();
    if request.check.is_some() && request.update.is_some() {
        return Err(usage("--check and --update exclude each other"));
    }
    if request.update.is_some() && request.selected.len() < EXPERIMENTS.len() {
        return Err(usage("--update rewrites the whole ledger: it needs `all`"));
    }
    Ok(Some(request))
}

fn list() -> String {
    let line = |e: &Experiment| format!("{:<16}{}\n", e.id, e.title);
    EXPERIMENTS.iter().map(line).collect()
}

/// Runs the request: `Ok(false)` when the ledger drifted from the baseline.
fn run(args: &[String]) -> Result<bool, String> {
    let Some(request) = parse(args)? else {
        out!("{}", list());
        return Ok(true);
    };
    let (scale, scale_name) = match request.full {
        true => (RunScale::full(), "full"),
        false => (RunScale::quick(), "quick"),
    };
    let mut results = Vec::new();
    for experiment in request.selected {
        outln!("\n##### {} — {}", experiment.id, experiment.title);
        let outcome = (experiment.run)(scale);
        out!("{outcome}");
        results.push((experiment.id, outcome));
    }
    out!("\n{}", scoreboard(&results));
    let ledger = ledger(scale_name, scale.seeds, &results);
    let text = serde_json::to_string_pretty(&ledger).expect("a Value always serializes");
    if let Some(path) = request.out {
        std::fs::write(&path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!("\nwrote {path}");
    }
    if let Some(path) = request.update {
        atomic_write(&path, &text)?;
        outln!("\nbaseline updated: {}", path.display());
    }
    let Some(path) = request.check else {
        return Ok(true);
    };
    let report = check_ledger(&path, &ledger)?;
    let path = path.display();
    if report.drifts.is_empty() {
        outln!("\nledger ok: {} leaves equal to {path}", report.leaves);
        return Ok(true);
    }
    eprintln!(
        "ledger DRIFT from {path} — {} finding(s):",
        report.drifts.len()
    );
    for drift in &report.drifts {
        eprintln!("  {drift}");
    }
    eprintln!("(intentional? rebaseline with `experiments all --full --update {path}`, commit)");
    Ok(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parsed(line: &str) -> Result<Option<Request>, String> {
        parse(&args(line))
    }

    #[test]
    fn list_prints_exactly_the_registry() {
        assert!(matches!(parsed("--list"), Ok(None)));
        let listing = list();
        assert_eq!(listing.lines().count(), EXPERIMENTS.len());
        for (line, e) in listing.lines().zip(&EXPERIMENTS) {
            assert_eq!(line.split_whitespace().next(), Some(e.id));
            assert!(line.ends_with(e.title), "{line}");
        }
    }

    #[test]
    fn an_unknown_id_or_no_id_is_an_error_naming_every_id() {
        for line in ["fig99", "table1 fig1", "--full", ""] {
            let err = parsed(line).err().unwrap();
            assert!(
                EXPERIMENTS.iter().all(|e| err.contains(e.id)),
                "`{line}`: {err}"
            );
        }
        // A typo is not silently ignored any more.
        assert!(parsed("--ful table1").err().unwrap().contains("`--ful`"));
        assert!(parsed("table1 --out").err().unwrap().contains("--out"));
    }

    #[test]
    fn ids_select_in_paper_order_without_duplicates() {
        let ids = |line| -> (bool, Option<String>, Vec<&str>) {
            let request = parsed(line).unwrap().unwrap();
            let ids = request.selected.iter().map(|e| e.id).collect();
            (request.full, request.out, ids)
        };
        assert_eq!(
            ids("table1 fig3 table1"),
            (false, None, vec!["fig3", "table1"])
        );
        let (full, out, all) = ids("all --full --out x.json");
        assert!(full && out.as_deref() == Some("x.json"));
        assert_eq!(all.len(), EXPERIMENTS.len());
        let request = parsed("fig6 --check base.json").unwrap().unwrap();
        assert_eq!(request.check, Some("base.json".into()));
        let request = parsed("--update base.json all").unwrap().unwrap();
        assert_eq!(request.update, Some("base.json".into()));
    }

    #[test]
    fn each_ledger_usage_error_exits_2_with_its_reason() {
        for (line, reason) in [
            ("all --check a.json --update b.json", "exclude each other"),
            ("fig6 fig5 --update base.json", "it needs `all`"),
            ("all --check", "--check needs a path"),
            (
                "fig6 --full --check /no/such/baseline.json",
                "cannot read /no/such/baseline.json",
            ),
        ] {
            let err = run(&args(line)).unwrap_err();
            assert!(err.contains(reason), "`{line}`: {err}");
        }
    }
}
