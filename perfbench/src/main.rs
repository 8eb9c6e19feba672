//! End-to-end and per-layer benchmark of the Vapor SIMD reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload deploy|run_full|serve_small --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload for `S` seconds and
//! prints every end-to-end metric. With `--trace 1` it measures the
//! workload for `S` seconds with tracing on for every other operation
//! (every other sweep pair in `deploy`) and takes the difference of the
//! two medians as the tracing overhead, then replays the workload's
//! distinct tuples through the public stage functions of every layer with
//! a span around each call, and prints the per-layer metrics derived from
//! the spans (self time = span minus child spans). Spans are kept in
//! memory and written to `perfbench/.out/spans-<workload>.tsv` at the end.
//!
//! The seed drives only the request schedule (order, tuple draws, VLs);
//! array contents come from the suite's deterministic
//! `KernelSpec::env`, so every output is checked against the IR oracle
//! (`vapor_core::reference`) outside the timed region. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any wrong output, unexpected error, panic or drifting
//! exact count makes the run exit with code 1.

mod common;
mod deploy;
mod replay;
mod run_full;
mod serve_small;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{Args, Report};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "deploy" => deploy::run(&args),
        "run_full" => run_full::run(&args),
        "serve_small" => serve_small::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (deploy, run_full, serve_small)");
            return ExitCode::from(2);
        }
    };
    report.print();
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
