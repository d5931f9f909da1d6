//! Runs the paper's tables and figures, and the fleet results, from the one
//! registry in `onslicing_bench::experiments`.
//!
//! ```sh
//! cargo run --release --bin experiments -- --list
//! cargo run --release --bin experiments -- table1 fig19 tournament   # CI scale, seconds
//! cargo run --release --bin experiments -- all --full --out ci-experiments.json
//! ```
//!
//! Each experiment prints its tables and, under them, its sentences about
//! them as `[holds]` / `[UNMET]` verdicts; the run ends with the scoreboard
//! (`claims: H of N hold`, then each id with unmet claims). `--out` writes
//! every table cell and claim — the document `baselines/EXPERIMENTS.json`
//! pins and `bench_regress` holds exactly. The exit code never depends on
//! a verdict: 0 = ran, 2 = usage or I/O error.

use std::process::ExitCode;

use onslicing_bench::experiments::{claims_json, scoreboard, Experiment, EXPERIMENTS};
use onslicing_bench::{out, outln, RunScale};

/// Every usage error enumerates the registered ids.
fn usage(error: &str) -> String {
    let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let usage = "usage: experiments [--full] [--out PATH] <id>… | all | --list";
    format!("{error}\n{usage}\n  ids: {}", ids.join(", "))
}

/// What to run, in registry order whatever the argument order; `None` is
/// `--list`.
type Request = Option<(bool, Option<String>, Vec<&'static Experiment>)>;

fn parse(args: &[String]) -> Result<Request, String> {
    let (mut full, mut out, mut ids) = (false, None, Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => return Ok(None),
            "--full" => full = true,
            "--out" => out = Some(args.next().ok_or("--out needs a path").map_err(usage)?),
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
    let selected = EXPERIMENTS.iter().filter(|e| ids.contains(&e.id)).collect();
    Ok(Some((full, out.cloned(), selected)))
}

fn list() -> String {
    let line = |e: &Experiment| format!("{:<16}{}\n", e.id, e.title);
    EXPERIMENTS.iter().map(line).collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((full, out, selected)) = parse(args)? else {
        out!("{}", list());
        return Ok(());
    };
    let (scale, scale_name) = match full {
        true => (RunScale::full(), "full"),
        false => (RunScale::quick(), "quick"),
    };
    let mut results = Vec::new();
    for experiment in selected {
        outln!("\n##### {} — {}", experiment.id, experiment.title);
        let outcome = (experiment.run)(scale);
        out!("{outcome}");
        results.push((experiment.id, outcome));
    }
    out!("\n{}", scoreboard(&results));
    if let Some(path) = out {
        let ledger = claims_json(scale_name, scale.seeds, &results);
        std::fs::write(&path, ledger).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!("\nwrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("experiments: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Request, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
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
            let (full, out, selected) = parsed(line).unwrap().unwrap();
            (full, out, selected.iter().map(|e| e.id).collect())
        };
        assert_eq!(
            ids("table1 fig3 table1"),
            (false, None, vec!["fig3", "table1"])
        );
        let (full, out, all) = ids("all --full --out x.json");
        assert!(full && out.as_deref() == Some("x.json"));
        assert_eq!(all.len(), EXPERIMENTS.len());
    }
}
