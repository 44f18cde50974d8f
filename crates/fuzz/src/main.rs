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

use rpaths_fuzz::{run_sweep, FuzzConfig};

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
    --max-n N              Cap the largest graph (default 100000)
    --out-dir PATH         Fixture output directory
                           (default tests/regressions)
    --no-minimize          Write divergent repros unminimized
    --inject-tiebreak-bug  Flip the unweighted merge tie-break (test
                           hook) to validate the catch -> minimize ->
                           fixture pipeline
    --quiet                Only print the final report
    -h, --help             This message
";

struct Cli {
    cfg: FuzzConfig,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut seed = 1u64;
    let mut cases: Option<usize> = None;
    let mut smoke = false;
    let mut max_n: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut minimize = true;
    let mut inject = false;
    let mut quiet = false;

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
            "--no-minimize" => minimize = false,
            "--inject-tiebreak-bug" => inject = true,
            "--quiet" => quiet = true,
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
        cfg.max_n = m;
    }
    if let Some(d) = out_dir {
        cfg.out_dir = d;
    }
    cfg.minimize = minimize;
    cfg.inject_tiebreak = inject;
    Ok(Cli { cfg, quiet })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
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
        "rpaths-fuzz: seed={} cases={} max_n={}{}{}",
        cli.cfg.seed,
        cli.cfg.cases,
        cli.cfg.max_n,
        if cli.cfg.inject_tiebreak {
            " [INJECTED TIE-BREAK BUG]"
        } else {
            ""
        },
        if cli.cfg.minimize {
            ""
        } else {
            " [no minimize]"
        },
    );
    let quiet = cli.quiet;
    let report = run_sweep(&cli.cfg, &mut |line| {
        if !quiet {
            println!("{line}");
        }
    });
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
