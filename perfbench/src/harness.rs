//! What every workload shares: the run plan, the per-run tally, output
//! checks, socket naming, and the [`Rig`] life cycle.

use crate::spans::{Clock, Span};
use clam_net::Endpoint;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a run keeps its Unix-domain sockets and trace files.
#[derive(Debug)]
pub struct Env {
    dir: PathBuf,
    next_socket: AtomicU32,
}

impl Env {
    /// Use (and create) `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn new(dir: PathBuf) -> std::io::Result<Env> {
        std::fs::create_dir_all(&dir)?;
        Ok(Env {
            dir,
            next_socket: AtomicU32::new(0),
        })
    }

    /// The run directory.
    #[must_use]
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// A fresh Unix-domain socket endpoint inside the run directory.
    pub fn socket(&self) -> Endpoint {
        let n = self.next_socket.fetch_add(1, Ordering::Relaxed);
        Endpoint::unix(self.dir.join(format!("s{}-{n}.sock", std::process::id())))
    }

    /// Remove the sockets this process left behind (a shut-down server
    /// keeps its listener until the process exits).
    pub fn remove_sockets(&self) {
        let prefix = format!("s{}-", std::process::id());
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(&prefix) && name.ends_with(".sock") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Length of the windows a sub-run is cut into: completions and the CPU
/// time of this process, of other processes and stolen by the host are
/// counted per window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// How one sub-run runs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// When the sub-run started.
    pub start: Instant,
    /// When client loops stop issuing operations.
    pub deadline: Instant,
    /// Length of one window: [`WINDOW`], or the whole sub-run when that
    /// is shorter.
    pub window: Duration,
    /// Full windows between `start` and `deadline`.
    pub windows: usize,
    /// Record spans and per-layer samples.
    pub trace: bool,
    /// The span clock (its epoch is `start`).
    pub clock: Arc<Clock>,
}

impl RunSpec {
    /// A sub-run of `length` starting now.
    #[must_use]
    pub fn starting_now(length: Duration, trace: bool) -> RunSpec {
        let windows = ((length.as_nanos() / WINDOW.as_nanos()) as usize).max(1);
        let clock = Arc::new(Clock::new());
        let start = Instant::now();
        RunSpec {
            start,
            deadline: start + length,
            window: length / windows as u32,
            windows,
            trace,
            clock,
        }
    }

    /// Start of window `k`.
    #[must_use]
    pub fn window_start(&self, k: usize) -> Instant {
        self.start + self.window * k as u32
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Expected vs seen.
    pub detail: String,
}

/// What completed within one window of a sub-run.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Operations completed correctly.
    pub ops: u64,
    /// Useful argument bytes they delivered.
    pub bytes: u64,
    /// Latency of each timed unit completed (failed ones as `u64::MAX`), ns.
    pub latencies_ns: Vec<u64>,
}

/// Everything one client loop (or a whole sub-run, once merged) counted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Operations completed correctly.
    pub ops: u64,
    /// Useful argument bytes delivered by completed operations.
    pub payload_bytes: u64,
    /// What completed in each window of the sub-run; completions after
    /// the deadline land in windows past [`RunSpec::windows`].
    pub windows: Vec<Window>,
    /// Recorded spans (traced sub-runs only).
    pub spans: Vec<Span>,
    /// Raw per-layer samples by name, ns.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Async calls issued: must equal the `rpc.calls_async` delta.
    pub expect_calls_async: u64,
    /// Distributed upcalls the script implies: must equal the
    /// `core.upcall.remote` delta.
    pub expect_remote_upcalls: u64,
    /// Calls forwarded between servers: must equal the
    /// `cluster.forward_hops` delta.
    pub expect_forward_hops: u64,
}

impl Tally {
    fn window(&mut self, spec: &RunSpec, at: Instant) -> &mut Window {
        let elapsed = at.saturating_duration_since(spec.start);
        let k = (elapsed.as_nanos() / spec.window.as_nanos()) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Window::default);
        }
        &mut self.windows[k]
    }

    /// One timed unit (call, round or event) that started at `t0` and
    /// completed `ops` operations correctly at `t1`, delivering `bytes`
    /// of useful arguments.
    pub fn succeeded(
        &mut self,
        spec: &RunSpec,
        (t0, t1): (Instant, Instant),
        ops: u64,
        bytes: u64,
    ) {
        self.ops += ops;
        self.payload_bytes += bytes;
        let w = self.window(spec, t1);
        w.ops += ops;
        w.bytes += bytes;
        w.latencies_ns.push(ns_between(t0, t1));
    }

    /// One timed unit whose `ops` operations failed or returned a wrong
    /// result at `t1`: it misses every latency limit.
    pub fn fail(&mut self, spec: &RunSpec, t1: Instant, ops: u64) {
        self.failed += ops;
        self.window(spec, t1).latencies_ns.push(u64::MAX);
    }

    /// Record one raw per-layer sample.
    pub fn sample(&mut self, name: &'static str, d: Duration) {
        self.samples
            .entry(name)
            .or_default()
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Fold another loop's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops += other.ops;
        self.payload_bytes += other.payload_bytes;
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.ops += theirs.ops;
            mine.bytes += theirs.bytes;
            mine.latencies_ns.extend(theirs.latencies_ns);
        }
        self.spans.extend(other.spans);
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
        self.checks.extend(other.checks);
        self.expect_calls_async += other.expect_calls_async;
        self.expect_remote_upcalls += other.expect_remote_upcalls;
        self.expect_forward_hops += other.expect_forward_hops;
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Sample count or other context for the human-readable line.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    #[must_use]
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            note: String::new(),
        }
    }

    /// Attach a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The life cycle of one workload's servers and clients.
pub trait Rig: Sized {
    /// Start servers, connect clients, and complete one warm-up
    /// operation per client, so lazy set-up is paid here.
    ///
    /// # Errors
    ///
    /// A description of the step that failed.
    fn setup(env: &Env, seed: u64) -> Result<Self, String>;

    /// Time spent in named set-up steps, ms.
    fn setup_parts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Run the closed loops until `spec.deadline`.
    fn drive(&self, spec: &RunSpec) -> Tally;

    /// Checks that need the servers after the loops stopped and the
    /// counters were read.
    fn final_checks(&self, _tally: &mut Tally) {}

    /// Floors measured through the rig in traced runs.
    fn floors(&self) -> Vec<Metric> {
        Vec::new()
    }

    /// Shut servers down and drop clients.
    fn teardown(self);
}

/// Nanoseconds between two instants.
#[must_use]
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
