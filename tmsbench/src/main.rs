//! End-to-end and per-layer benchmark of trace-to-timing-model synthesis.
//!
//! ```text
//! tmsbench --workload <live_city|replay_mixed|fleet_watch> [--seed N]
//!          [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! runs the layered replica and reports the per-layer split. `--smoke`
//! shrinks every input so a run takes a few seconds. Progress and
//! medians with quartiles go to standard error; the last line of
//! standard output is the JSON result. See README.md for the workloads
//! and metrics.

mod fleet;
mod layers;
mod live;
mod replay;
mod replica;
mod report;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

const USAGE: &str = "usage: tmsbench --workload <live_city|replay_mixed|fleet_watch> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, smoke: false };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// Calls `rep` until `seconds` have passed and at least `min_reps` times.
pub fn repeat(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps || started.elapsed().as_secs_f64() < seconds {
        rep()?;
        reps += 1;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "tmsbench: workload {} seed {} seconds {} trace {} smoke {} ({cores} cores available)",
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    );
    let result = match args.workload.as_str() {
        "live_city" => live::run(&args),
        "replay_mixed" => replay::run(&args),
        "fleet_watch" => fleet::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let finish = |mut out: Outcome| -> Result<Outcome, String> {
        if !args.trace {
            out.metric("peak_rss_mib", report::peak_rss_mib()?, "MiB");
        }
        Ok(out)
    };
    match result.and_then(finish) {
        Ok(out) => {
            eprintln!("correct {} attempted {} failed {}", out.correct, out.attempted, out.failed);
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
