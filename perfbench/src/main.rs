//! Layered end-to-end benchmark of the noise-adaptive compiler.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no tracing;
//! with `--trace 1` it re-drives the same cells through each layer's public
//! functions with a span around every call, prints the per-layer metrics
//! and a self-time table, and writes the spans as a Chrome trace to
//! `.bench_out/`. The last line of standard output is always the result
//! object: `{"correct", "attempted", "failed", "metrics"}`. Output checks
//! that fail make the run exit with status 1. Run it through `run.sh`,
//! which builds `nisqc` next to this binary.

mod batch;
mod layers;
mod output;
mod serve;
mod stats;
mod trace;
mod workloads;

use output::{declared, result_line, Checks, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Size, Workload};

/// One benchmark invocation.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("missing value for {}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size: Size::Full,
    })
}

/// `nisqc`, built by `run.sh` into the same target directory.
fn nisqc() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name("nisqc");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing; run the benchmark through perfbench/run.sh",
            path.display()
        ))
    }
}

/// Runs one workload; returns its metrics, checks and spans.
fn measure(args: &Args) -> Result<(Metrics, Checks, Option<trace::Tracer>), String> {
    let tracer = args.trace.then(trace::Tracer::new);
    let (metrics, checks) = match args.workload {
        Workload::ServeMixed => serve::run(
            &nisqc()?,
            args.seed,
            args.seconds,
            args.size,
            tracer.as_ref(),
        )?,
        batch_workload => match &tracer {
            Some(tracer) => {
                batch::run_traced(batch_workload, args.seed, args.seconds, args.size, tracer)
            }
            None => batch::run(batch_workload, args.seed, args.seconds, args.size),
        },
    };
    Ok((metrics, checks, tracer))
}

/// The metrics a run promises: `BENCHMARK.json`'s per-layer list when
/// traced, its end-to-end list otherwise.
fn wanted(trace: bool) -> Vec<(String, String)> {
    declared(if trace { "per_layer" } else { "end_to_end" })
}

fn run(args: &Args) -> Result<bool, String> {
    let (metrics, checks, tracer) = measure(args)?;
    let (lines, values) = metrics.finish(&wanted(args.trace))?;
    println!(
        "workload {} seed {} ({:?} size)",
        args.workload.name(),
        args.seed,
        args.size
    );
    for line in lines {
        println!("{line}");
    }
    println!(
        "failed_ratio = {} ({} of {} checked operations failed)",
        stats::ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for message in &checks.messages {
        println!("check failed: {message}");
    }
    if let Some(tracer) = tracer {
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
        std::fs::write(&path, trace::chrome_trace_json(&tracer.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("chrome trace written to {}", path.display());
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!("{}", result_line(correct, &checks, &values));
    Ok(correct)
}

/// Runs every workload at tiny size in both modes and checks that each
/// metric the mode promises is printed with its unit and that every output
/// check passes.
fn self_test() -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.3,
                trace,
                size: Size::Tiny,
            };
            let (metrics, checks, _) = measure(&args)?;
            let verdict = match metrics.finish(&wanted(trace)) {
                Err(e) => Err(e),
                Ok(_) if checks.failed > 0 => Err(format!("{:?}", checks.messages)),
                Ok(_) if checks.attempted == 0 => Err("no output was checked".to_string()),
                Ok(_) => Ok(()),
            };
            let mode = if trace { "trace 1" } else { "trace 0" };
            match verdict {
                Ok(()) => println!("ok   {} {mode}", workload.name()),
                Err(e) => {
                    println!("FAIL {} {mode}: {e}", workload.name());
                    ok = false;
                }
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.iter().any(|a| a == "--self-test") {
        self_test()
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "dense_trials",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::DenseTrials);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.size),
            (7, 15.0, true, Size::Full)
        );
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "paper_sweep", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "paper_sweep", "--seconds"])).is_err());
    }
}
