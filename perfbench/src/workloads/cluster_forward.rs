//! `cluster_forward`: a two-node cluster; one plain `ClamClient`
//! connected to node 1 only makes synchronous `Counter::incr` calls on a
//! counter homed on node 2, so node 1 forwards every call one hop.
//!
//! The counter speaks the cluster demo's `Counter` interface and keeps
//! its state in the demo's `CounterImpl`, wrapped so the benchmark can
//! stamp handler entry and exit for the request- and reply-leg split.

use super::{record_call_legs, Stamps};
use crate::harness::{ns_between, Env, Metric, Rig, RunSpec, Tally};
use crate::inputs::{incr_amounts, SCRIPT_LEN};
use crate::stats::{quantile, Permille};
use clam_cluster::demo::{Counter, CounterClass, CounterImpl, CounterProxy};
use clam_cluster::{ClusterConfig, ClusterNode};
use clam_core::{ClamClient, NameService};
use clam_rpc::{Handle, RpcResult, Target};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Class id of the stamped counter.
pub const TIMED_COUNTER_CLASS_ID: u32 = 92;

/// Cluster-wide name of the counter on node 2.
pub const COUNTER_NAME: &str = "perfbench.counter.2";

/// Calls in the direct-connection floor.
const DIRECT_CALLS: usize = 2000;

/// The demo counter, with handler stamps.
#[derive(Debug)]
struct TimedCounter {
    inner: CounterImpl,
    stamps: Arc<Stamps>,
}

impl Counter for TimedCounter {
    fn incr(&self, by: u64) -> RpcResult<u64> {
        // The key is the value returned: unique per call for one client.
        self.stamps.handle(
            0,
            |r: &RpcResult<u64>| *r.as_ref().unwrap_or(&0),
            || self.inner.incr(by),
        )
    }

    fn get(&self) -> RpcResult<u64> {
        self.inner.get()
    }
}

/// Two nodes, the forwarded counter, and a client of node 1.
pub struct ClusterForward {
    nodes: Vec<ClusterNode>,
    client: Arc<ClamClient>,
    counter: CounterProxy,
    handle: Handle,
    amounts: Vec<u64>,
    stamps: Arc<Stamps>,
    /// The counter's value as the client expects it.
    sum: AtomicU64,
    join_ms: f64,
}

impl Rig for ClusterForward {
    fn setup(env: &Env, seed: u64) -> Result<Self, String> {
        let n1 = ClusterNode::start(ClusterConfig::new(1, env.socket()))
            .map_err(|e| format!("node 1 start: {e}"))?;
        let joined = Instant::now();
        let n2 =
            ClusterNode::start(ClusterConfig::new(2, env.socket()).seed(n1.endpoint().clone()))
                .map_err(|e| format!("node 2 join: {e}"))?;
        let join_ms = joined.elapsed().as_secs_f64() * 1e3;

        let stamps = Arc::new(Stamps::new(1));
        let rpc = n2.server().rpc();
        rpc.register_class(
            TIMED_COUNTER_CLASS_ID,
            Arc::new(CounterClass::<TimedCounter>::new()),
        );
        let local = rpc.register_object(
            TIMED_COUNTER_CLASS_ID,
            1,
            Arc::new(TimedCounter {
                inner: CounterImpl::default(),
                stamps: Arc::clone(&stamps),
            }),
        );
        n2.bind(COUNTER_NAME, local)
            .map_err(|e| format!("bind counter: {e}"))?;

        let client =
            ClamClient::connect(n1.endpoint()).map_err(|e| format!("client connect: {e}"))?;
        let handle = client
            .names()
            .lookup(COUNTER_NAME.into())
            .map_err(|e| format!("lookup through node 1: {e}"))?;
        if handle.home != 2 {
            return Err(format!("counter homed on node {}, not 2", handle.home));
        }
        let counter = CounterProxy::new(Arc::clone(client.caller()), Target::Object(handle));
        let amounts = incr_amounts(seed);
        // Warm-up: the first forward opens node 1's link to node 2.
        match counter.incr(amounts[0]) {
            Ok(v) if v == amounts[0] => {}
            other => return Err(format!("warm-up incr: {other:?}")),
        }
        Ok(ClusterForward {
            nodes: vec![n1, n2],
            client,
            counter,
            handle,
            sum: AtomicU64::new(amounts[0]),
            amounts,
            stamps,
            join_ms,
        })
    }

    fn setup_parts(&self) -> Vec<(&'static str, f64)> {
        vec![("cluster.join_ms", self.join_ms)]
    }

    fn drive(&self, spec: &RunSpec) -> Tally {
        self.stamps.set_tracing(spec.trace);
        let mut t = Tally::default();
        let mut sum = self.sum.load(Ordering::Relaxed);
        let mut unstamped = 0u64;
        for i in 1.. {
            let t0 = Instant::now();
            if t0 >= spec.deadline {
                break;
            }
            let by = self.amounts[i % SCRIPT_LEN];
            let result = self.counter.incr(by);
            let t1 = Instant::now();
            t.attempted += 1;
            t.expect_forward_hops += 1;
            match result {
                Ok(v) if v == sum + by => {
                    sum = v;
                    t.succeeded(spec, (t0, t1), 1, 8);
                }
                other => {
                    // Follow the server's value so one fault counts once.
                    if let Ok(v) = other {
                        sum = v;
                    }
                    t.fail(spec, t1, 1);
                }
            }
            if spec.trace && !record_call_legs(&mut t, spec, (t0, t1), sum, self.stamps.take(0)) {
                unstamped += 1;
            }
        }
        self.stamps.set_tracing(false);
        self.sum.store(sum, Ordering::Relaxed);
        t.check(
            "cluster_forward: incr(by) returns the running sum",
            t.failed == 0,
            format!("{} of {} calls failed or wrong", t.failed, t.attempted),
        );
        if spec.trace {
            t.check(
                "cluster_forward: every traced call met its handler",
                unstamped == 0,
                format!("{unstamped} calls without a matching handler stamp"),
            );
        }
        t
    }

    fn final_checks(&self, tally: &mut Tally) {
        let expect = self.sum.load(Ordering::Relaxed);
        let seen = self.counter.get();
        tally.check(
            "cluster_forward: final get() equals the sum of successful increments",
            seen.as_ref().ok() == Some(&expect),
            format!("get() = {seen:?}, expected {expect}"),
        );
    }

    fn floors(&self) -> Vec<Metric> {
        let direct = ClamClient::connect(self.nodes[1].endpoint()).map(|client| {
            let proxy = CounterProxy::new(Arc::clone(client.caller()), Target::Object(self.handle));
            let mut lat: Vec<u64> = (0..DIRECT_CALLS + 100)
                .filter_map(|_| {
                    let t0 = Instant::now();
                    proxy.incr(1).ok()?;
                    Some(ns_between(t0, Instant::now()))
                })
                .skip(100)
                .collect();
            lat.sort_unstable();
            (quantile(&lat, Permille::P50), lat.len())
        });
        let (p50, n) = match direct {
            Ok((Some(p50), n)) => (p50 as f64 / 1e3, n),
            _ => (0.0, 0),
        };
        vec![Metric::new("cluster.direct_call_us", "us", p50).note(format!("n={n}"))]
    }

    fn teardown(self) {
        drop(self.counter);
        drop(self.client);
        for node in self.nodes.iter().rev() {
            node.shutdown();
        }
    }
}
