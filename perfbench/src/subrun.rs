//! One sub-run, measured in a process of its own: set the workload up a
//! few times, drive it, check it, and summarize what the parent process
//! needs as tab-separated lines on standard output.
//!
//! A fresh process per sub-run keeps sub-runs independent: no runtime
//! threads, allocator state or process-wide counters carry over, and the
//! process's peak RSS is the sub-run's own.

use crate::harness::{Check, Env, Metric, Rig, RunSpec, Tally};
use crate::procfs;
use crate::spans::{self_times, write_csv};
use crate::stats::{least_taken, median_f64, quantile, summarize, Permille, Summary};
use crate::workloads::cluster_forward::ClusterForward;
use crate::workloads::rpc_batched::RpcBatched;
use crate::workloads::rpc_sync::RpcSync;
use crate::workloads::upcall_input::UpcallInput;
use crate::workloads::Workload;
use clam_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per sub-run; `setup_s` is the median over a run's set-ups.
/// All but the last are torn down again.
pub const SETUP_REPS: usize = 7;

/// A window during which others took more than this share of the
/// machine's CPU time is left out of the end-to-end figures, unless
/// fewer than a third of the windows stayed under it; then the third
/// others took least from is kept. Others are the host's other guests
/// (`steal` in `/proc/stat`) and this machine's other processes (its
/// busy time minus this process's CPU time). Such a window measures
/// them, not the program. The busy time is sampled at each clock tick,
/// so a window reads a few ticks of it even on an idle machine; the
/// limit sits above that.
pub const TAKEN_LIMIT: f64 = 0.08;

/// Thread-name prefixes (as `/proc` shows them, cut to 15 bytes) of
/// the runtime's thread kinds.
const WATCHDOG: &[&str] = &["clam-deadline"];
const RPC_PUMPS: &[&str] = &["clam-rpc-pump", "clam-rpc-reply"];
const UPCALL_PUMPS: &[&str] = &["clam-upcall-"];
const TASK_WORKERS: &[&str] = &["clam-task-"];

/// What one sub-run is asked to do.
#[derive(Debug, Clone)]
pub struct SubRunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the closed loops run.
    pub length: Duration,
    /// Record spans and per-layer samples.
    pub trace: bool,
    /// Directory for sockets and span files.
    pub out_dir: PathBuf,
}

/// What one sub-run measured, as the parent process needs it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubRun {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or wrong.
    pub failed: u64,
    /// Operations completed correctly in the kept windows.
    pub ops: u64,
    /// Wall time of the kept windows, s.
    pub wall_s: f64,
    /// Process CPU time during the kept windows, s.
    pub cpu_s: f64,
    /// Windows kept, of all full windows.
    pub windows_kept: u64,
    /// Full windows of the sub-run.
    pub windows: u64,
    /// Share of the machine's CPU time the host stole over the full
    /// windows.
    pub stolen_share: f64,
    /// The process's peak RSS (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Useful argument bytes delivered in the kept windows.
    pub payload_bytes: u64,
    /// Latency samples (calls, rounds or events) in the kept windows.
    pub samples: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics (traced sub-runs only).
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the report.
    pub report: Vec<String>,
}

impl SubRun {
    /// Completed operations per second over the whole sub-run.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }

    /// Serialize as tab-separated lines.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let clean = |s: &str| s.replace(['\t', '\n'], " ");
        let mut out = vec![
            format!("attempted\t{}", self.attempted),
            format!("failed\t{}", self.failed),
            format!("ops\t{}", self.ops),
            format!("wall_s\t{}", self.wall_s),
            format!("cpu_s\t{}", self.cpu_s),
            format!("windows\t{}\t{}", self.windows_kept, self.windows),
            format!("stolen_share\t{}", self.stolen_share),
            format!("peak_rss_mb\t{}", self.peak_rss_mb),
        ];
        out.extend(self.setup_s.iter().map(|s| format!("setup_s\t{s}")));
        out.push(format!(
            "latency\t{}\t{}\t{}\t{}",
            self.payload_bytes, self.samples, self.p50_ns, self.p99_ns
        ));
        out.extend(self.checks.iter().map(|c| {
            format!(
                "check\t{}\t{}\t{}",
                u8::from(c.ok),
                clean(&c.name),
                clean(&c.detail)
            )
        }));
        out.extend(self.metrics.iter().map(|m| {
            format!(
                "metric\t{}\t{}\t{}\t{}",
                clean(&m.name),
                clean(&m.unit),
                m.value,
                clean(&m.note)
            )
        }));
        out.extend(self.report.iter().map(|l| format!("report\t{}", clean(l))));
        out.join("\n") + "\n"
    }

    /// Parse what [`SubRun::to_lines`] wrote.
    ///
    /// # Errors
    ///
    /// A line that is not in that format.
    pub fn parse(text: &str) -> Result<SubRun, String> {
        fn num<T: std::str::FromStr>(s: Option<&str>, line: &str) -> Result<T, String> {
            s.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad sub-run line {line:?}"))
        }
        let mut r = SubRun::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut f = line.split('\t');
            let text = |f: &mut std::str::Split<'_, char>| f.next().unwrap_or("").to_string();
            match f.next() {
                Some("attempted") => r.attempted = num(f.next(), line)?,
                Some("failed") => r.failed = num(f.next(), line)?,
                Some("ops") => r.ops = num(f.next(), line)?,
                Some("wall_s") => r.wall_s = num(f.next(), line)?,
                Some("cpu_s") => r.cpu_s = num(f.next(), line)?,
                Some("stolen_share") => r.stolen_share = num(f.next(), line)?,
                Some("windows") => {
                    r.windows_kept = num(f.next(), line)?;
                    r.windows = num(f.next(), line)?;
                }
                Some("peak_rss_mb") => r.peak_rss_mb = num(f.next(), line)?,
                Some("setup_s") => r.setup_s.push(num(f.next(), line)?),
                Some("latency") => {
                    r.payload_bytes = num(f.next(), line)?;
                    r.samples = num(f.next(), line)?;
                    r.p50_ns = num(f.next(), line)?;
                    r.p99_ns = num(f.next(), line)?;
                }
                Some("check") => r.checks.push(Check {
                    ok: num::<u8>(f.next(), line)? == 1,
                    name: text(&mut f),
                    detail: text(&mut f),
                }),
                Some("metric") => {
                    let (name, unit) = (text(&mut f), text(&mut f));
                    let value = num(f.next(), line)?;
                    r.metrics
                        .push(Metric::new(&name, &unit, value).note(text(&mut f)));
                }
                Some("report") => r.report.push(text(&mut f)),
                _ => return Err(format!("bad sub-run line {line:?}")),
            }
        }
        Ok(r)
    }
}

/// Machine and process CPU time at one window boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    machine: procfs::MachineCpu,
    cpu_s: f64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            machine: procfs::machine_cpu(),
            cpu_s: procfs::process_cpu_s(),
        }
    }

    /// CPU time the host stole and other processes used since `earlier`,
    /// s.
    fn taken_since(&self, earlier: &Mark) -> (f64, f64) {
        let steal = self.machine.steal_s - earlier.machine.steal_s;
        let busy = self.machine.busy_s - earlier.machine.busy_s;
        (steal, (busy - (self.cpu_s - earlier.cpu_s)).max(0.0))
    }
}

/// Sample a [`Mark`] at the start of every window of `spec` and at the
/// end of the last.
fn window_marks(spec: &RunSpec) -> Vec<Mark> {
    (0..=spec.windows)
        .map(|k| {
            let at = spec.window_start(k);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            Mark::now()
        })
        .collect()
}

/// One measured sub-run, before summarizing.
struct Measured {
    tally: Tally,
    window_s: f64,
    /// Per full window: CPU time stolen by the host, used by other
    /// processes and used by this process, s.
    stolen: Vec<f64>,
    others: Vec<f64>,
    cpu: Vec<f64>,
    /// The windows the end-to-end figures use.
    kept: Vec<usize>,
    thread_cpu: BTreeMap<&'static str, f64>,
    counters: MetricsSnapshot,
    setup_s: Vec<f64>,
    parts: BTreeMap<&'static str, Vec<f64>>,
    floors: Vec<Metric>,
}

impl Measured {
    fn kept_windows(&self) -> impl Iterator<Item = &crate::harness::Window> {
        self.kept.iter().filter_map(|&k| self.tally.windows.get(k))
    }

    fn ops(&self) -> u64 {
        self.kept_windows().map(|w| w.ops).sum()
    }

    fn wall_s(&self) -> f64 {
        self.kept.len() as f64 * self.window_s
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s().max(1e-9)
    }

    /// Per whole second of the sub-run (the windows that start in it):
    /// completions per second, CPU time stolen by the host and CPU time
    /// used by other processes.
    fn per_second(&self) -> Vec<(f64, f64, f64)> {
        let mut out: Vec<(u64, usize, f64, f64)> = Vec::new();
        for k in 0..self.stolen.len() {
            let second = (k as f64 * self.window_s + 1e-9).floor() as usize;
            if out.len() <= second {
                out.resize(second + 1, (0, 0, 0.0, 0.0));
            }
            let ops = self.tally.windows.get(k).map_or(0, |w| w.ops);
            out[second].0 += ops;
            out[second].1 += 1;
            out[second].2 += self.stolen[k];
            out[second].3 += self.others[k];
        }
        out.into_iter()
            .map(|(ops, n, stolen, others)| {
                (ops as f64 / (n as f64 * self.window_s), stolen, others)
            })
            .collect()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.counter(name) as f64
    }

    /// Median of a raw per-layer sample set, in ns (0 when absent).
    fn median_ns(&self, name: &str) -> f64 {
        self.tally.samples.get(name).map_or(0.0, |v| {
            let mut v = v.clone();
            v.sort_unstable();
            quantile(&v, Permille::P50).unwrap_or(0) as f64
        })
    }

    fn samples(&self, name: &str) -> usize {
        self.tally.samples.get(name).map_or(0, Vec::len)
    }

    fn part_ms(&self, name: &str) -> f64 {
        self.parts
            .get(name)
            .and_then(|v| median_f64(v))
            .unwrap_or(0.0)
    }
}

fn measure<R: Rig>(
    env: &Env,
    seed: u64,
    length: Duration,
    trace: bool,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let r = R::setup(env, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        for (name, ms) in r.setup_parts() {
            parts.entry(name).or_default().push(ms);
        }
        if rep + 1 < SETUP_REPS {
            r.teardown();
        } else {
            rig = Some(r);
        }
    }
    let rig = rig.expect("at least one set-up");

    let threads0 = procfs::thread_cpu();
    let snap0 = clam_obs::snapshot();
    let spec = RunSpec::starting_now(length, trace);
    let (mut tally, marks) = std::thread::scope(|s| {
        let marks = s.spawn(|| window_marks(&spec));
        let tally = rig.drive(&spec);
        (tally, marks.join().expect("window sampler panicked"))
    });
    // Sample before teardown: an exited thread's CPU time is lost.
    let snap1 = clam_obs::snapshot();
    let threads1 = procfs::thread_cpu();
    let counters = snap1.delta(&snap0);
    let window_s = spec.window.as_secs_f64();
    let (stolen, others): (Vec<f64>, Vec<f64>) =
        marks.windows(2).map(|w| w[1].taken_since(&w[0])).unzip();
    let cpu: Vec<f64> = marks.windows(2).map(|w| w[1].cpu_s - w[0].cpu_s).collect();
    let taken: Vec<f64> = stolen.iter().zip(&others).map(|(s, o)| s + o).collect();
    let allowance = TAKEN_LIMIT * window_s * procfs::cpus() as f64;
    let kept = least_taken(&taken, &vec![allowance; taken.len()]);

    for (name, expect) in [
        ("rpc.calls_async", tally.expect_calls_async),
        ("core.upcall.remote", tally.expect_remote_upcalls),
        ("cluster.forward_hops", tally.expect_forward_hops),
    ] {
        let seen = counters.counter(name);
        tally.check(
            format!("counter {name} equals ground truth"),
            seen == expect,
            format!("delta {seen}, expected {expect}"),
        );
    }
    rig.final_checks(&mut tally);
    let floors = if trace { rig.floors() } else { Vec::new() };
    rig.teardown();

    let thread_cpu = [
        ("watchdog", WATCHDOG),
        ("rpc_pumps", RPC_PUMPS),
        ("upcall_pumps", UPCALL_PUMPS),
        ("task_workers", TASK_WORKERS),
    ]
    .into_iter()
    .map(|(k, p)| (k, procfs::thread_cpu_delta(&threads0, &threads1, p)))
    .collect();

    Ok(Measured {
        tally,
        window_s,
        stolen,
        others,
        cpu,
        kept,
        thread_cpu,
        counters,
        setup_s,
        parts,
        floors,
    })
}

/// Run one sub-run in this process.
///
/// # Errors
///
/// Set-up failures and I/O errors on the output directory; failed
/// output checks are reported in the [`SubRun`] instead.
pub fn measure_subrun(spec: &SubRunSpec) -> Result<SubRun, String> {
    let env = Env::new(spec.out_dir.clone()).map_err(|e| format!("output directory: {e}"))?;
    let (seed, length, trace) = (spec.seed, spec.length, spec.trace);
    let measured = match spec.workload {
        Workload::RpcSync => measure::<RpcSync>(&env, seed, length, trace),
        Workload::RpcBatched => measure::<RpcBatched>(&env, seed, length, trace),
        Workload::UpcallInput => measure::<UpcallInput>(&env, seed, length, trace),
        Workload::ClusterForward => measure::<ClusterForward>(&env, seed, length, trace),
    };
    env.remove_sockets();
    let m = measured?;
    let mut all: Vec<u64> = m
        .kept_windows()
        .flat_map(|w| w.latencies_ns.iter().copied())
        .collect();
    let latency = summarize(&mut all);
    let mut report = timeline(&m, latency);
    let metrics = if trace {
        let path = env
            .dir()
            .join(format!("spans-{}.csv", spec.workload.name()));
        write_csv(&path, &m.tally.spans).map_err(|e| format!("write spans: {e}"))?;
        report.push(format!(
            "  {} spans written to {}; self time by span (share: summed over clients, of wall time):",
            m.tally.spans.len(),
            path.display()
        ));
        report.extend(self_time_table(&m));
        per_layer(&m)
    } else {
        Vec::new()
    };
    Ok(SubRun {
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        ops: m.ops(),
        wall_s: m.wall_s(),
        cpu_s: m.kept.iter().map(|&k| m.cpu[k]).sum(),
        windows_kept: m.kept.len() as u64,
        windows: m.stolen.len() as u64,
        stolen_share: m.stolen.iter().sum::<f64>()
            / (m.stolen.len() as f64 * m.window_s * procfs::cpus() as f64),
        peak_rss_mb: procfs::peak_rss_mb(),
        setup_s: m.setup_s.clone(),
        payload_bytes: m.kept_windows().map(|w| w.bytes).sum(),
        samples: latency.map_or(0, |s| s.n as u64),
        p50_ns: latency.map_or(0, |s| s.p50 as u64),
        p99_ns: latency.map_or(0, |s| s.p99 as u64),
        checks: m.tally.checks.clone(),
        metrics,
        report,
    })
}

/// Completions, CPU time stolen by the host and CPU time of other
/// processes per second, and the figures of the kept windows.
fn timeline(m: &Measured, latency: Option<Summary>) -> Vec<String> {
    let seconds = m.per_second();
    let ops: Vec<String> = seconds.iter().map(|s| format!("{:.0}", s.0)).collect();
    let ms = |v: f64| format!("{:.0}", v * 1e3);
    let stolen: Vec<String> = seconds.iter().map(|s| ms(s.1)).collect();
    let others: Vec<String> = seconds.iter().map(|s| ms(s.2)).collect();
    let mut lines = vec![
        format!("  completions per second: {}", ops.join(" ")),
        format!(
            "  CPU-ms per second stolen by the host: {}",
            stolen.join(" ")
        ),
        format!(
            "  CPU-ms per second of other processes: {}",
            others.join(" ")
        ),
        format!(
            "  {} of {} windows of {:.3} s kept (left out: others took more than {}% of \
             the CPU time)",
            m.kept.len(),
            m.stolen.len(),
            m.window_s,
            TAKEN_LIMIT * 100.0
        ),
    ];
    if let Some(s) = latency {
        lines.push(format!(
            "  kept windows: {:.1} ops/s, p50 {:.3} us, p90 {:.3} us, p99 {:.3} us (n={}), \
             {:.2} CPU-s; {:.2} CPU-s stolen by the host in the whole sub-run",
            m.ops_per_s(),
            s.p50 / 1e3,
            s.p90 / 1e3,
            s.p99 / 1e3,
            s.n,
            m.kept.iter().map(|&k| m.cpu[k]).sum::<f64>(),
            m.stolen.iter().sum::<f64>()
        ));
    }
    lines
}

fn self_time_table(m: &Measured) -> Vec<String> {
    let wall_ns = m.stolen.len() as f64 * m.window_s * 1e9;
    self_times(&m.tally.spans)
        .into_iter()
        .map(|(name, st)| {
            format!(
                "    {name:<22} n={:<8} mean {:>10.3} us  self {:>10.3} us  share {:>7.2}%",
                st.count,
                st.total_ns as f64 / st.count.max(1) as f64 / 1e3,
                st.self_ns as f64 / st.count.max(1) as f64 / 1e3,
                st.self_ns as f64 / wall_ns * 100.0
            )
        })
        .collect()
}

/// Per-layer metrics of one traced sub-run, except those the parent
/// adds: the tracing overhead and the layer floors.
fn per_layer(m: &Measured) -> Vec<Metric> {
    let ops = m.tally.ops.max(1) as f64;
    let frames = m.counter("net.frames_sent.unix");
    let us = |name: &str| m.median_ns(name) / 1e3;
    let n = |name: &str| format!("n={}", m.samples(name));
    let call_us = us("rpc.call");
    let stages_us = us("rpc.request_leg") + us("rpc.handler") + us("rpc.reply_leg");
    let hits = m.counter("xdr.pool.hits");
    let misses = m.counter("xdr.pool.misses");
    let seconds = m.per_second();
    let per_s = |i: usize| seconds.get(i).map_or(0.0, |s| s.0);
    let direct = m
        .floors
        .iter()
        .find(|f| f.name == "cluster.direct_call_us")
        .cloned()
        .unwrap_or_else(|| Metric::new("cluster.direct_call_us", "us", 0.0));
    vec![
        Metric::new("rpc.request_leg_us", "us", us("rpc.request_leg")).note(n("rpc.request_leg")),
        Metric::new("rpc.handler_us", "us", us("rpc.handler")).note(n("rpc.handler")),
        Metric::new("rpc.reply_leg_us", "us", us("rpc.reply_leg")).note(n("rpc.reply_leg")),
        Metric::new("rpc.stage_residual_us", "us", call_us - stages_us).note(format!(
            "p50 traced call {call_us:.3} us minus the stage medians {stages_us:.3} us"
        )),
        Metric::new("rpc.call_async_ns", "ns", m.median_ns("rpc.call_async"))
            .note(n("rpc.call_async")),
        Metric::new("rpc.flush_us", "us", us("rpc.flush")).note(n("rpc.flush")),
        Metric::new(
            "rpc.calls_per_frame",
            "count",
            m.counter("rpc.calls_async") / frames.max(1.0),
        )
        .note("rpc.calls_async / net.frames_sent.unix"),
        Metric::new("rpc.watchdog_cpu_s", "s", m.thread_cpu["watchdog"]),
        Metric::new(
            "rpc.deadline_expired",
            "count",
            m.counter("rpc.deadline_expired"),
        ),
        Metric::new("xdr.encode_ns", "ns", m.median_ns("xdr.encode")).note(n("xdr.encode")),
        Metric::new(
            "xdr.pool_hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        Metric::new("net.frames_per_op", "count", frames / ops),
        Metric::new(
            "net.bytes_per_op",
            "B",
            m.counter("net.bytes_sent.unix") / ops,
        ),
        Metric::new("net.pump_cpu_s", "s", m.thread_cpu["rpc_pumps"]),
        Metric::new(
            "task.switches_per_op",
            "count",
            m.counter("task.context_switches") / ops,
        ),
        Metric::new("task.worker_cpu_s", "s", m.thread_cpu["task_workers"]),
        Metric::new(
            "task.spawned_per_op",
            "count",
            m.counter("task.tasks_spawned") / ops,
        ),
        Metric::new("core.upcall_down_us", "us", us("core.upcall_down"))
            .note(n("core.upcall_down")),
        Metric::new("core.upcall_back_us", "us", us("core.upcall_back"))
            .note(n("core.upcall_back")),
        Metric::new(
            "core.upcalls_per_event",
            "count",
            m.counter("core.upcall.remote") / ops,
        ),
        Metric::new("core.upcall_pump_cpu_s", "s", m.thread_cpu["upcall_pumps"]),
        Metric::new(
            "windows.unclaimed_inject_us",
            "us",
            us("windows.unclaimed_inject"),
        )
        .note(n("windows.unclaimed_inject")),
        Metric::new(
            "cluster.forward_hops_per_call",
            "count",
            m.counter("cluster.forward_hops") / ops,
        ),
        direct,
        Metric::new(
            "load.module_load_ms",
            "ms",
            m.part_ms("load.module_load_ms"),
        ),
        Metric::new("cluster.join_ms", "ms", m.part_ms("cluster.join_ms")),
        Metric::new("run.ops_first_second", "1/s", per_s(0)),
        Metric::new(
            "run.ops_last_second",
            "1/s",
            per_s(seconds.len().saturating_sub(1)),
        )
        .note(format!("second {} of the sub-run", seconds.len())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let run = SubRun {
            attempted: 10,
            failed: 1,
            ops: 9,
            wall_s: 1.5,
            cpu_s: 0.25,
            windows_kept: 30,
            windows: 40,
            stolen_share: 0.125,
            peak_rss_mb: 12.5,
            setup_s: vec![0.001, 0.002],
            payload_bytes: 36,
            samples: 10,
            p50_ns: 1000,
            p99_ns: u64::MAX,
            checks: vec![Check {
                name: "a\tb".into(),
                ok: false,
                detail: "x\ny".into(),
            }],
            metrics: vec![Metric::new("rpc.flush_us", "us", 0.5).note("n=3")],
            report: vec!["  line".into()],
        };
        let back = SubRun::parse(&run.to_lines()).unwrap();
        assert_eq!(back.checks[0].name, "a b");
        assert_eq!(back.checks[0].detail, "x y");
        let mut expect = run.clone();
        expect.checks[0].name = "a b".into();
        expect.checks[0].detail = "x y".into();
        assert_eq!(back, expect);
        assert!(SubRun::parse("bogus\t1").is_err());
    }
}
