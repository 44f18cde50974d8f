//! `rpaths-fuzz` — seeded ground-truth differential fuzzing CLI.
//!
//! ```text
//! cargo run --release -p rpaths-fuzz -- --seed 1 --cases 200
//! cargo run --release -p rpaths-fuzz -- --smoke
//! ```
//!
//! Exit codes: 0 = clean sweep, 1 = divergences found (fixtures written
//! to `--out-dir`), 2 = usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rpaths_fuzz::{run_sweep, FuzzConfig, MIN_MAX_N};

const USAGE: &str = "\
rpaths-fuzz: seeded ground-truth differential fuzzing

USAGE:
    rpaths-fuzz [OPTIONS]

OPTIONS:
    --seed N               Master seed (default 1); the sweep is a pure
                           function of it
    --cases N              Cases to run (default 200; smoke profile: 40)
    --smoke                CI smoke profile: n <= 4096, 40 cases,
                           seconds-scale
    --max-n N              Cap the largest graph (default 100000; at
                           least 256, the scale tier's floor)
    --out-dir PATH         Fixture output directory
                           (default tests/regressions)
    --inject-tiebreak-bug  Flip the unweighted merge tie-break (test
                           hook) to validate the catch -> minimize ->
                           fixture pipeline
    -h, --help             This message
";

fn parse_args(args: &[String]) -> Result<FuzzConfig, String> {
    let mut seed = 1u64;
    let mut cases: Option<usize> = None;
    let mut smoke = false;
    let mut max_n: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut inject = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                cases = Some(
                    value("--cases")?
                        .parse()
                        .map_err(|e| format!("--cases: {e}"))?,
                )
            }
            "--smoke" => smoke = true,
            "--max-n" => {
                max_n = Some(
                    value("--max-n")?
                        .parse()
                        .map_err(|e| format!("--max-n: {e}"))?,
                )
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--inject-tiebreak-bug" => inject = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }

    let mut cfg = if smoke {
        FuzzConfig::smoke(seed)
    } else {
        FuzzConfig::full(seed, cases.unwrap_or(200))
    };
    if smoke {
        if let Some(c) = cases {
            cfg.cases = c;
        }
    }
    if let Some(m) = max_n {
        if m < MIN_MAX_N {
            return Err(format!(
                "--max-n {m} is below {MIN_MAX_N}, the scale tier's floor"
            ));
        }
        cfg.max_n = m;
    }
    if let Some(d) = out_dir {
        cfg.out_dir = d;
    }
    cfg.inject_tiebreak = inject;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "rpaths-fuzz: seed={} cases={} max_n={}{}",
        cfg.seed,
        cfg.cases,
        cfg.max_n,
        if cfg.inject_tiebreak {
            " [INJECTED TIE-BREAK BUG]"
        } else {
            ""
        },
    );
    let report = run_sweep(&cfg, &mut |line| println!("{line}"));
    println!(
        "sweep: {} passed, {} skipped, {} diverged; max n exercised = {}",
        report.passed, report.skipped, report.divergences, report.max_n_exercised
    );
    for p in &report.fixtures {
        println!("fixture: {}", p.display());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn max_n_below_the_scale_floor_is_a_usage_error() {
        for small in ["0", "10", "15", "100", "255"] {
            let err = parse_args(&args(&["--max-n", small])).unwrap_err();
            assert!(err.contains("scale tier's floor"), "{small}: {err}");
        }
        let cfg = parse_args(&args(&["--smoke", "--max-n", "256"])).unwrap();
        assert_eq!(cfg.max_n, MIN_MAX_N);
    }
}
