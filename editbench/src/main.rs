//! `editbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's host and configuration as one JSON line, then the
//! result as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits with 2 on bad arguments and 1 when a correctness check fails.

use editbench::run::{run, store_root, Outcome};
use editbench::setup::{Spec, Workload};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print(outcome: &Outcome) {
    let config: Vec<String> = outcome
        .config
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"config\": {{{}}}}}", config.join(", "));
    for m in &outcome.metrics {
        eprintln!("{:<44} {:>16} {}", m.name, number(m.value), m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("editbench: {e}");
            eprintln!(
                "usage: editbench --workload <tenants-mixed|session-lifecycle> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    em_core::install_quiet_panic_hook();
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join(".stores");
    let outcome = run(
        &Spec::of(args.workload),
        args.seed,
        args.seconds,
        args.trace,
        &store_root(&base, args.workload),
    );
    // The per-run directory is gone; drop the parent too if it is empty.
    let _ = std::fs::remove_dir(&base);
    print(&outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
