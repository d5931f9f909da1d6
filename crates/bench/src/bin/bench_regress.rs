//! The regression gate: compares a freshly produced `experiments` ledger
//! against its committed baseline and exits non-zero on drift.
//!
//! ```sh
//! # Gate (CI): fail when the fresh artifact differs from the baseline.
//! cargo run --release --bin bench_regress -- ci-experiments.json baselines/EXPERIMENTS.json
//! # Intentional rebaseline: overwrite the committed baseline with the
//! # fresh artifact (commit the result). A fresh file that does not parse
//! # is refused and the baseline left as it was.
//! cargo run --release --bin bench_regress -- ci-experiments.json baselines/EXPERIMENTS.json --update
//! ```
//!
//! One rule (`onslicing_bench::regress`, its one tolerance deliberately not
//! settable here — a settable tolerance on a gate is a way to pass it):
//! every numeric leaf equal within 1e-9, every other leaf equal, structure
//! included — metrics added, removed, or series resized always fail;
//! rebaseline with `--update` when the change is intentional. Exit codes:
//! 0 = pass, 1 = drift, 2 = usage/setup error.

use std::process::ExitCode;

use onslicing_bench::regress::compare_json;

fn usage() -> String {
    "usage: bench_regress <fresh.json> <baseline.json> [--update]".to_string()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut positional = Vec::new();
    let mut update = false;
    for arg in args {
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
        // A bench killed mid-write leaves a truncated artifact; installing
        // it would only fail one CI run later as a malformed baseline.
        serde_json::from_str::<serde::Value>(&fresh).map_err(|e| {
            format!("refusing to install `{fresh_path}` as a baseline: malformed JSON: {e}")
        })?;
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
    let report = compare_json(&baseline, &fresh)?;
    if report.passed() {
        println!(
            "bench_regress ok: {fresh_path} within tolerance of {baseline_path} \
             ({} metrics checked)",
            report.checked
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_regress: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn update_refuses_a_truncated_artifact_and_keeps_the_baseline() {
        let dir = std::env::temp_dir().join(format!("bench-regress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (fresh, baseline) = (dir.join("fresh.json"), dir.join("baseline.json"));
        let committed = r#"{ "schema": "x/1", "slices": 3 }"#;
        std::fs::write(&baseline, committed).unwrap();
        let args = |update: &str| {
            [fresh.to_str().unwrap(), baseline.to_str().unwrap(), update].map(String::from)
        };

        // What a bench killed mid-write leaves behind.
        std::fs::write(&fresh, r#"{ "schema": "x/1", "sli"#).unwrap();
        let err = run(&args("--update")).unwrap_err();
        assert!(err.contains("malformed JSON"), "{err}");
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), committed);

        // A complete artifact is installed byte for byte.
        let complete = r#"{ "schema": "x/1", "slices": 4 }"#;
        std::fs::write(&fresh, complete).unwrap();
        assert_eq!(run(&args("--update")), Ok(true));
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), complete);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
