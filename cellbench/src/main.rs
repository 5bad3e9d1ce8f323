//! `cellbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints a table of
//! its metrics (with sample counts) followed by one JSON result line.
//! Exit codes: 0 ok, 1 an output failed the oracle, 2 bad invocation or
//! set-up failure.

use std::path::PathBuf;
use std::process::ExitCode;

use cellbench::bench::{self, Options};
use cellbench::metrics::{result_json, END_TO_END, PER_LAYER};
use cellbench::workload::{Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: cellbench --workload <mem-stream|spe-exchange|app-record|serve-warm> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MemStream,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Quick,
        out_dir: PathBuf::from("cellbench-out"),
        baseline: PathBuf::from("BENCH_baseline.json"),
        corrupt_run: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("cellbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cellbench: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &outcome.findings {
        eprintln!("cellbench: oracle: {finding}");
    }
    println!(
        "# {} seed={} trace={} runs={} failed={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!(
            "{:<30} {:>18.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
            declared
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
