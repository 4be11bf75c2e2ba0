//! End-to-end and per-layer benchmark of the co-allocation simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|serve-mixed|serve-replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`,
//! with `--trace 1` the per-layer ones. Any failed correctness check
//! makes the process exit 1 (after printing the result with
//! `"correct": false`); a usage error exits 2 without a result. See
//! `README.md` for what each workload and metric means.

mod layers;
mod measure;
mod paper;
mod serve;
mod trace;

use std::process::ExitCode;

use coalloc::experiments::Scale;
use coalloc::scenario::ScenarioSpec;
use measure::Report;

/// The extension axes serve-mixed's requests and the layer rows switch
/// on: layer-row label, serve request field, value.
const EXTENSION_AXES: [(&str, &str, &str); 4] = [
    ("network", "network", "1"),
    ("faults", "faults", "exp:50000:5000"),
    ("easy", "discipline", "easy"),
    ("malleable", "disposition", "malleable"),
];

/// A scenario as `coalloc-exp` and `serve` parse it: `policy` at
/// `limit`, with at most one extension axis given as `(field, value)`.
fn scenario(
    policy: &str,
    limit: u32,
    axis: Option<(&str, &str)>,
    scale: Scale,
) -> Result<ScenarioSpec, String> {
    let pick = |field: &str| axis.filter(|(f, _)| *f == field).map(|(_, v)| v);
    ScenarioSpec::parse(
        Some(policy),
        Some(limit),
        None,
        pick("faults"),
        None,
        pick("disposition"),
        pick("discipline"),
        None,
        pick("network"),
        None,
        None,
        scale,
    )
    .map_err(|e| e.to_string())
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

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
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: coalloc-perfbench --workload <paper-sweep|serve-mixed|serve-replay> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "paper-sweep" => paper::run(&args, &tracer, &mut report),
        "serve-mixed" => serve::run_mixed(&args, &tracer, &mut report),
        "serve-replay" => serve::run_replay(&args, &tracer, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if result.is_ok() && args.trace {
        layers::run(&tracer, &mut report);
        println!("{}", tracer.finish(&args.workload, args.seed));
    }
    trace::cleanup();
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if !args.trace {
        report.metric("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    }
    report.print(&args.workload, args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
