//! The four workloads, and the handler stamps two of them share.

pub mod cluster_forward;
pub mod rpc_batched;
pub mod rpc_sync;
pub mod upcall_input;

use crate::harness::{ns_between, RunSpec, Tally};
use crate::spans::ROOT;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients making synchronous 4-byte echo calls.
    RpcSync,
    /// One client making rounds of 512 batched async calls.
    RpcBatched,
    /// Two clients injecting input that upcalls them back (Fig. 4.1).
    UpcallInput,
    /// One client calling a counter homed one hop away in a cluster.
    ClusterForward,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RpcSync,
        Workload::RpcBatched,
        Workload::UpcallInput,
        Workload::ClusterForward,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSync => "rpc_sync",
            Workload::RpcBatched => "rpc_batched",
            Workload::UpcallInput => "upcall_input",
            Workload::ClusterForward => "cluster_forward",
        }
    }

    /// Look a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Entry and exit of the benchmark's own server-side handler, for the
/// call one client has in flight (closed loops have at most one).
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Identifies the call: a value both sides know.
    pub key: u64,
    /// Handler entry.
    pub entry: Instant,
    /// Handler exit.
    pub exit: Instant,
}

/// One stamp slot per client, written only while tracing.
#[derive(Debug)]
pub struct Stamps {
    on: AtomicBool,
    slots: Vec<Mutex<Option<Stamp>>>,
}

impl Stamps {
    /// `clients` empty slots, tracing off.
    #[must_use]
    pub fn new(clients: usize) -> Stamps {
        Stamps {
            on: AtomicBool::new(false),
            slots: (0..clients).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Turn stamping on or off.
    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Run `f` as the handler for `client`'s call `key`, stamping it
    /// when tracing.
    pub fn handle<R>(
        &self,
        client: usize,
        key: impl FnOnce(&R) -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let entry = Instant::now();
        let out = f();
        let exit = Instant::now();
        *self.slots[client].lock().expect("stamp slot poisoned") = Some(Stamp {
            key: key(&out),
            entry,
            exit,
        });
        out
    }

    /// Take `client`'s stamp.
    pub fn take(&self, client: usize) -> Option<Stamp> {
        self.slots[client]
            .lock()
            .expect("stamp slot poisoned")
            .take()
    }
}

/// Split one traced synchronous call, `t0..t1`, at its handler stamp:
/// record the call and handler spans and the request-leg, handler and
/// reply-leg samples. Returns false when the stamp is not this call's.
pub fn record_call_legs(
    tally: &mut Tally,
    spec: &RunSpec,
    (t0, t1): (Instant, Instant),
    key: u64,
    stamp: Option<Stamp>,
) -> bool {
    let Some(s) = stamp.filter(|s| s.key == key) else {
        return false;
    };
    let call = spec.clock.id();
    tally
        .spans
        .push(spec.clock.span(call, ROOT, "rpc.call", t0, t1));
    tally.spans.push(
        spec.clock
            .span(spec.clock.id(), call, "bench.handler", s.entry, s.exit),
    );
    let ns = |a, b| Duration::from_nanos(ns_between(a, b));
    tally.sample("rpc.call", ns(t0, t1));
    tally.sample("rpc.request_leg", ns(t0, s.entry));
    tally.sample("rpc.handler", ns(s.entry, s.exit));
    tally.sample("rpc.reply_leg", ns(s.exit, t1));
    true
}
