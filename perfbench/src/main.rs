//! The repository benchmark: end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run, for the workloads named
//! in `BENCHMARK.json`.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     [--plant-route-delay-us <us>] [--corrupt-record] [--tables] [--digests]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Diagnostics go to stderr. A workload or
//! metric named in `BENCHMARK.json` that this program does not produce
//! is an error (exit 1, no result line).

mod decomp_k32;
mod exact;
mod expected;
mod harness;
mod trace;

use harness::{Opts, Report};
use serde::Deserialize;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--plant-route-delay-us <us>] [--corrupt-record] [--tables] [--digests]";

/// The benchmark's workload and metric list, read from the working
/// directory (the repository root).
const SPEC: &str = "BENCHMARK.json";

/// The workloads this program implements.
const WORKLOADS: &[&str] = &["decomp_k32", "exact_fig8", "exact_flaps"];

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Workload>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Named {
    name: String,
    unit: String,
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut route_delay = None;
    let (mut corrupt, mut tables, mut digests) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "--plant-route-delay-us" => {
                let us = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--plant-route-delay-us: {e}"))?;
                route_delay = Some(Duration::from_micros(us));
            }
            "--corrupt-record" => corrupt = true,
            "--tables" => tables = true,
            "--digests" => digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            route_delay,
            corrupt,
            tables,
            digests,
        },
    })
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: Spec = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    for w in &spec.workloads {
        if !WORKLOADS.contains(&w.name.as_str()) {
            return Err(format!("workload {} in {path} is not implemented", w.name));
        }
    }
    Ok(spec)
}

/// Checks the report carries exactly the metrics `wanted` names, with
/// their units, and renders the result line.
fn render(report: &Report, wanted: &[Named]) -> Result<String, String> {
    let mut body = Vec::new();
    for w in wanted {
        let (_, value, unit) = report
            .metrics
            .iter()
            .find(|(n, _, _)| *n == w.name)
            .ok_or_else(|| format!("metric {} was not measured", w.name))?;
        if w.unit != *unit {
            return Err(format!("metric {} is in {unit}, not {}", w.name, w.unit));
        }
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", w.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            w.name
        ));
    }
    if let Some((extra, _, _)) = report
        .metrics
        .iter()
        .find(|(n, _, _)| !wanted.iter().any(|w| w.name == *n))
    {
        return Err(format!("metric {extra} is measured but not listed"));
    }
    let v = report.verdict;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.failed == 0,
        v.attempted,
        v.failed,
        body.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let spec = load_spec(SPEC)?;
    if !spec.workloads.iter().any(|w| w.name == args.workload) {
        return Err(format!(
            "workload {} is not listed in {SPEC}",
            args.workload
        ));
    }
    let report = match args.workload.as_str() {
        "decomp_k32" => decomp_k32::run(&args.opts)?,
        "exact_fig8" => exact::run(exact::Kind::Fig8, &args.opts)?,
        "exact_flaps" => exact::run(exact::Kind::Flaps, &args.opts)?,
        other => return Err(format!("workload {other} is not implemented")),
    };
    if report.verdict.attempted == 0 {
        return Err("the run attempted no flows".into());
    }
    let wanted = if args.opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    render(&report, wanted)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
