//! One benchmark invocation: plan sub-runs, run each in a child process,
//! aggregate, and report.
//!
//! A run is split into sub-runs of about [`SUBRUN`], each in a fresh
//! process on freshly started servers and clients; a sub-run during
//! which the host was busy is measured again while the run's retry
//! budget lasts. An untraced run reports the end-to-end metrics over
//! all its kept sub-runs. A traced run measures one untraced sub-run as
//! the baseline for the tracing overhead, then traced ones; it reports
//! the median of each per-layer metric over the traced sub-runs, plus
//! the layer floors, measured in this process.

use crate::floors;
use crate::harness::{Env, Metric};
use crate::stats::median_f64;
use crate::subrun::{SubRun, TAKEN_LIMIT};
use crate::workloads::rpc_batched::median_frame_len;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Length of one sub-run: a run of `--seconds` measures
/// `round(--seconds / SUBRUN)` of them. Ten seconds shows the fall in
/// throughput while sync calls leave deadline-watchdog entries armed.
pub const SUBRUN: Duration = Duration::from_secs(10);

/// A sub-run during which the host stole more than this share of the
/// machine's CPU time measured a busy host: other guests then take a
/// fifth to two fifths of it for minutes at a time, every window of the
/// sub-run is taken from, and throughput and tail latency fall by half
/// or more. Such a sub-run is measured again.
const BUSY_HOST: f64 = 0.10;

/// Longest a run spends on sub-runs it measures again; after that it
/// keeps what it measures. Busy spells seen on a 2-vCPU VM lasted about
/// three minutes, so a run rides out most of one and the next run the
/// rest.
const RETRY_BUDGET: Duration = Duration::from_secs(100);

/// A sub-run process that has not ended this long after its loops
/// should have is killed, and the run fails.
const SUBRUN_GRACE: Duration = Duration::from_secs(40);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Total measured time, split into sub-runs.
    pub length: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for sockets and span files.
    pub out_dir: PathBuf,
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted across the sub-runs.
    pub attempted: u64,
    /// Operations failed across the sub-runs.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report.
    pub report: String,
}

/// Sub-runs in a run of `length`: one per [`SUBRUN`], at least one.
#[must_use]
pub fn subrun_count(length: Duration) -> u32 {
    ((length.as_secs_f64() / SUBRUN.as_secs_f64()).round() as u32).max(1)
}

/// Run `exe --sub-run ...` for one sub-run and parse what it prints.
fn spawn_subrun(
    exe: &Path,
    opts: &Options,
    length: Duration,
    trace: bool,
) -> Result<SubRun, String> {
    let mut child = Command::new(exe)
        .args([
            "--sub-run",
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &length.as_secs_f64().to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--out-dir",
        ])
        .arg(&opts.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start sub-run: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let limit = Instant::now() + length + SUBRUN_GRACE;
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("wait for sub-run: {e}"))?
        {
            break status;
        }
        if Instant::now() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return Err("a sub-run did not finish in time and was killed".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader
        .join()
        .map_err(|_| "sub-run reader panicked".to_string())?
        .map_err(|e| format!("read sub-run output: {e}"))?;
    if !status.success() {
        return Err(format!("sub-run exited with {status}"));
    }
    SubRun::parse(&text)
}

/// Run one invocation, each sub-run as a child process of `exe`.
///
/// # Errors
///
/// Set-up failures, sub-run processes that fail or hang, and I/O errors
/// on the output directory; failed output checks are reported in the
/// [`Outcome`] instead.
pub fn run(opts: &Options, exe: &Path) -> Result<Outcome, String> {
    let subruns = subrun_count(opts.length);
    let sub = opts.length / subruns;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {}: {} sub-run(s) of {:.1} s, each in a fresh process on fresh \
         servers, {}; Unix-domain sockets on one host",
        opts.workload.name(),
        opts.seed,
        subruns,
        sub.as_secs_f64(),
        if opts.trace {
            "the first untraced, the rest traced"
        } else {
            "untraced"
        }
    );
    let traced = |k: usize| opts.trace && k > 0;
    let count = if opts.trace { subruns.max(2) } else { subruns } as usize;
    // Sub-runs kept, and sub-runs measured again because the host was
    // busy: their operations and checks still count for correctness.
    let mut subs = Vec::new();
    let mut busy = Vec::new();
    let mut budget = RETRY_BUDGET;
    while subs.len() < count {
        let started = Instant::now();
        let s = spawn_subrun(exe, opts, sub, traced(subs.len()))?;
        let kind = if traced(subs.len()) { " (traced)" } else { "" };
        let again = s.stolen_share > BUSY_HOST && budget >= sub;
        budget = budget.saturating_sub(started.elapsed());
        let _ = writeln!(
            report,
            "sub-run {}{kind}: the host stole {:.1}% of the machine's CPU time{}",
            subs.len() + busy.len() + 1,
            s.stolen_share * 100.0,
            if again {
                format!(" (busy above {}%): measured again", BUSY_HOST * 100.0)
            } else {
                String::new()
            }
        );
        for line in &s.report {
            let _ = writeln!(report, "{line}");
        }
        if again {
            busy.push(s);
        } else {
            subs.push(s);
        }
    }

    let metrics = if opts.trace {
        let baseline = subs[0].ops_per_s();
        let per_run: Vec<Vec<Metric>> = subs[1..]
            .iter()
            .map(|s| {
                let mut m = s.metrics.clone();
                m.push(
                    Metric::new(
                        "obs.trace_overhead_pct",
                        "%",
                        (baseline - s.ops_per_s()) / baseline.max(1e-9) * 100.0,
                    )
                    .note(format!(
                        "untraced {baseline:.1} ops/s, traced {:.1} ops/s",
                        s.ops_per_s()
                    )),
                );
                m
            })
            .collect();
        let mut metrics = aggregate(&per_run);
        metrics.extend(layer_floors(opts)?);
        metrics
    } else {
        let _ = writeln!(
            report,
            "end-to-end metrics from {} of {} windows (the rest left out: others took \
             more than {}% of the CPU time)",
            subs.iter().map(|s| s.windows_kept).sum::<u64>(),
            subs.iter().map(|s| s.windows).sum::<u64>(),
            TAKEN_LIMIT * 100.0
        );
        end_to_end(&subs)
    };

    let attempted: u64 = subs.iter().chain(&busy).map(|s| s.attempted).sum();
    let failed: u64 = subs.iter().chain(&busy).map(|s| s.failed).sum();
    let mut correct = failed == 0;
    let _ = writeln!(report, "checks:");
    let labelled = subs
        .iter()
        .map(|s| ("kept", s))
        .chain(busy.iter().map(|s| ("busy", s)));
    for (k, (kind, s)) in labelled.enumerate() {
        for c in &s.checks {
            correct &= c.ok;
            let verdict = if c.ok { "PASS" } else { "FAIL" };
            let _ = writeln!(
                report,
                "  {verdict} [{kind} sub-run {}] {} ({})",
                k + 1,
                c.name,
                c.detail
            );
        }
    }
    let _ = writeln!(
        report,
        "failed_ratio = {} (failed {failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Combine the per-layer metrics of several traced sub-runs: the median
/// of each.
fn aggregate(per_run: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = per_run.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_run.iter().map(|r| r[i].value).collect();
            let mut out = m.clone();
            out.value = median_f64(&values).unwrap_or(0.0);
            if per_run.len() > 1 {
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
                out.note = format!("median of [{}]; {}", shown.join(", "), m.note);
            }
            out
        })
        .collect()
}

/// End-to-end metrics over the untraced sub-runs: each is the median
/// over sub-runs of that sub-run's own figure, taken over its kept
/// windows (its percentiles from their raw samples), except `setup_s`,
/// the median over every set-up.
fn end_to_end(subs: &[SubRun]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&SubRun) -> f64| {
        median_f64(&subs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let fewest = subs.iter().map(|s| s.samples).min().unwrap_or(0);
    let per_sub = format!("median of {} sub-runs", subs.len());
    let latency = format!("{per_sub}, each with at least {fewest} samples");
    let setups: Vec<f64> = subs
        .iter()
        .flat_map(|s| s.setup_s.iter().copied())
        .collect();
    vec![
        Metric::new("ops_per_s", "1/s", med(&SubRun::ops_per_s)).note(per_sub.clone()),
        Metric::new("latency_p50_us", "us", med(&|s| s.p50_ns as f64 / 1e3)).note(latency.clone()),
        Metric::new("latency_p99_us", "us", med(&|s| s.p99_ns as f64 / 1e3)).note(latency),
        Metric::new(
            "payload_mb_per_s",
            "MB/s",
            med(&|s| s.payload_bytes as f64 / s.wall_s / 1e6),
        )
        .note(per_sub.clone()),
        Metric::new(
            "cpu_us_per_op",
            "us",
            med(&|s| s.cpu_s * 1e6 / s.ops.max(1) as f64),
        )
        .note(per_sub.clone()),
        Metric::new("peak_rss_mb", "MB", med(&|s| s.peak_rss_mb))
            .note(format!("VmHWM of each sub-run's process, {per_sub}")),
        Metric::new("setup_s", "s", median_f64(&setups).unwrap_or(0.0))
            .note(format!("median of {} set-ups", setups.len())),
    ]
}

/// The `net` and `task` floors, measured in this process.
fn layer_floors(opts: &Options) -> Result<Vec<Metric>, String> {
    let env = Env::new(opts.out_dir.clone()).map_err(|e| format!("output directory: {e}"))?;
    let batch_frame = median_frame_len(opts.seed);
    let measured = (|| {
        Ok(vec![
            Metric::new("net.raw_rtt_us", "us", floors::net_rtt_us(&env, 4)?).note("4-byte frame"),
            Metric::new(
                "net.raw_rtt_batch_frame_us",
                "us",
                floors::net_rtt_us(&env, batch_frame)?,
            )
            .note(format!(
                "{batch_frame}-byte frame, the median batched frame"
            )),
            Metric::new("task.handoff_rtt_us", "us", floors::task_handoff_rtt_us()?),
        ])
    })();
    env.remove_sockets();
    measured
}
