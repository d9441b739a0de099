//! `rpc_sync`: two clients, each on its own connection, make synchronous
//! 4-byte `Echo::echo` calls in closed loops (Fig. 5.1 row 4, under
//! contention for the server's one-running-task scheduler).

use super::{record_call_legs, Stamps};
use crate::harness::{Env, Rig, RunSpec, Tally};
use crate::inputs::{echo_args, SCRIPT_LEN};
use clam_core::{ClamClient, ClamServer};
use clam_rpc::{RpcResult, Target};
use std::sync::Arc;
use std::time::Instant;

clam_rpc::remote_interface! {
    /// The benchmark's echo service.
    pub interface Echo {
        proxy EchoProxy;
        skeleton EchoSkeleton;
        class EchoClass;

        /// Returns `x + 1`.
        fn echo(x: u32) -> u32 = 1;
    }
}

/// Builtin service id of the echo service.
pub const ECHO_SERVICE_ID: u32 = 90;

const CLIENTS: usize = 2;

struct EchoImpl {
    stamps: Arc<Stamps>,
}

impl Echo for EchoImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        // The argument's low bit names the calling client.
        self.stamps
            .handle((x & 1) as usize, |_| u64::from(x), || Ok(x.wrapping_add(1)))
    }
}

/// Server, two connected clients and their scripts.
pub struct RpcSync {
    server: Arc<ClamServer>,
    clients: Vec<(Arc<ClamClient>, EchoProxy)>,
    args: Vec<Vec<u32>>,
    stamps: Arc<Stamps>,
}

impl Rig for RpcSync {
    fn setup(env: &Env, seed: u64) -> Result<Self, String> {
        let server = ClamServer::builder()
            .listen(env.socket())
            .build()
            .map_err(|e| format!("server start: {e}"))?;
        let stamps = Arc::new(Stamps::new(CLIENTS));
        server.rpc().register_service(
            ECHO_SERVICE_ID,
            Arc::new(EchoSkeleton::new(Arc::new(EchoImpl {
                stamps: Arc::clone(&stamps),
            }))),
        );
        let args: Vec<Vec<u32>> = (0..CLIENTS as u32).map(|c| echo_args(seed, c)).collect();
        let mut clients = Vec::new();
        for a in &args {
            let client = ClamClient::connect(&server.endpoints()[0])
                .map_err(|e| format!("client connect: {e}"))?;
            let proxy = EchoProxy::new(
                Arc::clone(client.caller()),
                Target::Builtin(ECHO_SERVICE_ID),
            );
            match proxy.echo(a[0]) {
                Ok(y) if y == a[0].wrapping_add(1) => {}
                other => return Err(format!("warm-up echo: {other:?}")),
            }
            clients.push((client, proxy));
        }
        Ok(RpcSync {
            server,
            clients,
            args,
            stamps,
        })
    }

    fn drive(&self, spec: &RunSpec) -> Tally {
        self.stamps.set_tracing(spec.trace);
        let mut total = Tally::default();
        std::thread::scope(|s| {
            let loops: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || self.client_loop(c, spec)))
                .collect();
            for l in loops {
                total.merge(l.join().expect("client loop panicked"));
            }
        });
        self.stamps.set_tracing(false);
        total
    }

    fn teardown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

impl RpcSync {
    fn client_loop(&self, c: usize, spec: &RunSpec) -> Tally {
        let mut t = Tally::default();
        let proxy = &self.clients[c].1;
        let args = &self.args[c];
        let mut unstamped = 0u64;
        for i in 0.. {
            let t0 = Instant::now();
            if t0 >= spec.deadline {
                break;
            }
            let x = args[i % SCRIPT_LEN];
            let result = proxy.echo(x);
            let t1 = Instant::now();
            t.attempted += 1;
            if result.as_ref().ok() == Some(&x.wrapping_add(1)) {
                t.succeeded(spec, (t0, t1), 1, 4);
            } else {
                t.fail(spec, t1, 1);
            }
            if spec.trace
                && !record_call_legs(&mut t, spec, (t0, t1), u64::from(x), self.stamps.take(c))
            {
                unstamped += 1;
            }
        }
        t.check(
            format!("rpc_sync client {c}: echo(x) == x + 1"),
            t.failed == 0,
            format!("{} of {} calls failed or wrong", t.failed, t.attempted),
        );
        if spec.trace {
            t.check(
                format!("rpc_sync client {c}: every traced call met its handler"),
                unstamped == 0,
                format!("{unstamped} calls without a matching handler stamp"),
            );
        }
        t
    }
}
