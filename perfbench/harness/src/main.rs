//! The benchmark harness. One invocation runs one workload in its own process:
//!
//! ```text
//! perfbench-harness --workload <cover-rr100k|growth-rr1m|serve-zipf> --seed N --seconds S
//!                   --trace <0|1> [--tiny] [--spans PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones (and writes the
//! recorded spans to `--spans`). The last line of standard output is the JSON result. The
//! exit code is non-zero when any correctness check fails.

mod serve;
mod sim;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;

use util::{Checks, Report};
use workload::{Setup, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut spans = "perfbench-spans.ndjson".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--spans" => spans = value()?,
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let setup = Setup { workload: args.workload, seed: args.seed, tiny: args.tiny, nproc };
    println!(
        "workload {:?} seed {} seconds {} trace {} nproc {nproc}{}",
        setup.workload,
        setup.seed,
        args.seconds,
        args.trace,
        if setup.tiny { " (tiny sizes)" } else { "" }
    );
    let mut report = Report::default();
    let mut checks = Checks::default();
    if args.trace {
        trace::run(&setup, args.seconds, &args.spans, &mut report, &mut checks);
    } else {
        match setup.workload {
            Workload::Serve => serve::run(&setup, args.seconds, &mut report, &mut checks),
            _ => sim::run(&setup, args.seconds, &mut report, &mut checks),
        }
        report.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    report.print(&checks);
    if checks.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
