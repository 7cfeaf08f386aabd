//! Command-line entry point: runs one workload and prints every metric
//! by name with its unit, then one JSON result line.
//!
//! ```text
//! impbench --workload <indirect|compute|translate|sweep> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Result stores live in `.impbench/run-<pid>/` under the working
//! directory and are removed before exit; a traced run leaves its
//! Chrome trace at `.impbench/trace-<workload>-<seed>.json`.

use impbench::run::{run, Checks, Options};
use impbench::workload::Workload;
use impbench::{describe, result_json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: impbench --workload <indirect|compute|translate|sweep> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(&"out of range 0..=3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: None,
        work_dir: PathBuf::from(".impbench").join(format!("run-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let out = run(&opts, &mut checks);
    if let Err(e) = std::fs::remove_dir_all(&opts.work_dir) {
        if opts.work_dir.exists() {
            eprintln!("warning: could not remove {}: {e}", opts.work_dir.display());
        }
    }
    let metrics = out.as_ref().map_or(&[][..], |o| &o.metrics[..]);
    for m in metrics {
        println!("{}", describe(m));
        checks.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    for m in out.as_ref().map_or(&[][..], |o| &o.notes[..]) {
        println!("  [not gated] {}", describe(m));
    }
    if let Some(tr) = out.as_ref().ok().and_then(|o| o.trace.as_ref()) {
        let path = PathBuf::from(".impbench").join(format!(
            "trace-{}-{}.json",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::write(&path, tr.to_chrome_json()) {
            Ok(()) => println!("span trace: {}", path.display()),
            Err(e) => checks.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for f in &checks.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result_json(&checks, metrics));
    if out.is_ok() && checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
