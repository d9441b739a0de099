//! Reply-path counter conformance: a scripted run with one client
//! asserts the *exact* deltas of the call and upcall counters, and that
//! no request is left pending on either side.
//!
//! This file is its own test binary holding a single test, so the
//! process-global counters see no traffic but the script's.

use clam_core::{ClamClient, ClamServer, ServerConfig, SessionCtl};
use clam_integration::unique_inproc;
use clam_obs::MetricValue;
use clam_rpc::{CallContext, ConnId, RpcResult, RpcServer, Service, Target};
use clam_xdr::Opaque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builtin echo service the script's sync and async calls go to.
const ECHO: u32 = 77;

struct Echo;

impl Service for Echo {
    fn dispatch(&self, _server: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
        Ok(ctx.args.clone())
    }
}

/// Samples recorded by every sync-call latency histogram together.
fn sync_call_latency_samples(delta: &clam_obs::MetricsSnapshot) -> u64 {
    delta
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.call_latency_us."))
        .map(|(_, value)| match value {
            MetricValue::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

#[test]
fn reply_path_counters_match_a_scripted_run() {
    const SYNC_CALLS: u64 = 17;
    const ASYNC_CALLS: u64 = 23;
    const SYNC_UPCALLS: u64 = 11;
    const ASYNC_UPCALLS: u64 = 7;

    let server = ClamServer::builder()
        .config(ServerConfig::default())
        .listen(unique_inproc("reply-conformance"))
        .build()
        .expect("server starts");
    server.rpc().register_service(ECHO, Arc::new(Echo));
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let conn = ConnId(client.session().ping().expect("ping"));
    let proc = client.register_upcall(|x: u32| Ok(x + 1));
    let target = server
        .upcall_target::<u32, u32>(conn, proc)
        .expect("upcall target");
    let router = Arc::clone(server.sessions().get(conn).expect("session").router());
    let caller = Arc::clone(client.caller());

    let before = clam_obs::snapshot();
    for i in 0..SYNC_CALLS {
        let out = caller
            .call(Target::Builtin(ECHO), 0, Opaque::from(vec![i as u8]))
            .expect("sync call");
        assert_eq!(out.as_slice(), &[i as u8]);
    }
    for i in 0..ASYNC_CALLS {
        caller
            .call_async(Target::Builtin(ECHO), 1, Opaque::from(vec![i as u8]))
            .expect("async call");
    }
    caller.flush_acked().expect("flush acked");
    for i in 0..SYNC_UPCALLS {
        let x = u32::try_from(i).unwrap();
        assert_eq!(target.invoke(x).expect("sync upcall"), x + 1);
    }
    for i in 0..ASYNC_UPCALLS {
        target
            .invoke_async(u32::try_from(i).unwrap())
            .expect("async upcall");
    }
    // Async upcalls have no reply: wait until the client ran them all.
    let until = Instant::now() + Duration::from_secs(10);
    while client.upcalls_handled() < SYNC_UPCALLS + ASYNC_UPCALLS {
        assert!(Instant::now() < until, "async upcalls never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    let delta = clam_obs::snapshot().delta(&before);

    assert_eq!(delta.counter("rpc.calls_async"), ASYNC_CALLS);
    assert_eq!(
        delta.counter("core.upcall.remote"),
        SYNC_UPCALLS + ASYNC_UPCALLS
    );
    assert_eq!(
        sync_call_latency_samples(&delta),
        SYNC_CALLS + 1,
        "one latency sample per sync call, plus the flush_acked sync point"
    );
    assert_eq!(delta.counter("rpc.deadline_expired"), 0);
    assert_eq!(delta.counter("core.upcall.deadline_expired"), 0);
    assert_eq!(caller.outstanding(), 0, "no call left pending");
    assert_eq!(router.outstanding(), 0, "no upcall left pending");
}
