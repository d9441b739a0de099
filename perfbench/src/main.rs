//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a human-readable report, then as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when an output check fails.
//!
//! Each sub-run executes in a child process: this program started again
//! with `--sub-run` (and `--out-dir`), which prints a machine-readable
//! summary instead.

use perfbench::subrun::{measure_subrun, SubRunSpec};
use perfbench::{run, Options, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <rpc_sync|rpc_batched|upcall_input|cluster_forward> \
--seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line; `sub_run` selects the child mode.
struct Args {
    options: Options,
    sub_run: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut sub_run = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--sub-run" {
            sub_run = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Sockets and span files go next to the build, inside the checkout.
    let out_dir = out_dir.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("perfbench")
    });
    Ok(Args {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            length: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
        },
        sub_run,
    })
}

/// A finite number as JSON (a non-finite one would not parse).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn sub_run(o: Options) -> ExitCode {
    let spec = SubRunSpec {
        workload: o.workload,
        seed: o.seed,
        length: o.length,
        trace: o.trace,
        out_dir: o.out_dir,
    };
    match measure_subrun(&spec) {
        Ok(r) => {
            print!("{}", r.to_lines());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sub-run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.sub_run {
        return sub_run(args.options);
    }
    let outcome = std::env::current_exe()
        .map_err(|e| format!("locate this program: {e}"))
        .and_then(|exe| run(&args.options, &exe));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report);
    for m in &outcome.metrics {
        println!(
            "{} = {} {} ({})",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
