//! `rpc_batched`: one client runs rounds of 512 batched async calls to a
//! sink, then one `flush` and one synchronous barrier (paper §3.4).
//!
//! Each call carries a sequence number and a seeded payload. The sink
//! folds what it receives into a count and an order-sensitive checksum
//! and counts sequence numbers that arrive out of order; the barrier
//! returns all three, and the client compares them with its own.

use crate::harness::{Env, Rig, RunSpec, Tally};
use crate::inputs::{fold_checksum, payload_hash, payloads, SCRIPT_LEN};
use crate::spans::ROOT;
use clam_core::{ClamClient, ClamServer};
use clam_obs::TraceContext;
use clam_rpc::{BatchEncoder, Call, Caller, RpcError, RpcResult, Target};
use clam_xdr::Opaque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

clam_xdr::bundle_struct! {
    /// What the sink has received so far.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SinkTally {
        /// Calls received.
        pub count: u64,
        /// Order-sensitive checksum of `(seq, payload)` pairs.
        pub checksum: u64,
        /// Calls whose sequence number was not the next expected one.
        pub order_violations: u64,
    }
}

clam_rpc::remote_interface! {
    /// The benchmark's write-only sink.
    pub interface Sink {
        proxy SinkProxy;
        skeleton SinkSkeleton;
        class SinkClass;

        /// Deliver one sequenced payload (batched, no reply).
        fn put(seq: u64, payload: Opaque) = 1 oneway;
        /// Synchronous barrier: everything batched before it has been
        /// processed; returns the running tally.
        fn barrier() -> SinkTally = 2;
    }
}

/// Builtin service id of the sink.
pub const SINK_SERVICE_ID: u32 = 91;

/// Async calls per round.
pub const ROUND: usize = 512;

/// In traced runs, one round in this many records per-call spans.
const SPAN_EVERY: u64 = 64;

struct SinkImpl {
    state: Mutex<(u64, SinkTally)>, // (next expected seq, tally)
}

impl Sink for SinkImpl {
    fn put(&self, seq: u64, payload: Opaque) -> RpcResult<()> {
        let mut guard = self.state.lock().expect("sink poisoned");
        let (next, tally) = &mut *guard;
        if seq != *next {
            tally.order_violations += 1;
        }
        *next = seq + 1;
        tally.count += 1;
        tally.checksum = fold_checksum(tally.checksum, seq, payload_hash(payload.as_slice()));
        Ok(())
    }

    fn barrier(&self) -> RpcResult<SinkTally> {
        Ok(self.state.lock().expect("sink poisoned").1)
    }
}

/// Server, one client and the seeded payload pool.
pub struct RpcBatched {
    server: Arc<ClamServer>,
    client: Arc<ClamClient>,
    sink: SinkProxy,
    payloads: Vec<Opaque>,
    hashes: Vec<u64>,
    /// The client's view after the warm-up round: (next seq, tally).
    warm: (u64, SinkTally),
}

impl Rig for RpcBatched {
    fn setup(env: &Env, seed: u64) -> Result<Self, String> {
        let server = ClamServer::builder()
            .listen(env.socket())
            .build()
            .map_err(|e| format!("server start: {e}"))?;
        server.rpc().register_service(
            SINK_SERVICE_ID,
            Arc::new(SinkSkeleton::new(Arc::new(SinkImpl {
                state: Mutex::new((1, SinkTally::default())),
            }))),
        );
        let client = ClamClient::connect(&server.endpoints()[0])
            .map_err(|e| format!("client connect: {e}"))?;
        let sink = SinkProxy::new(
            Arc::clone(client.caller()),
            Target::Builtin(SINK_SERVICE_ID),
        );
        let raw = payloads(seed);
        let hashes: Vec<u64> = raw.iter().map(|p| payload_hash(p)).collect();
        let payloads: Vec<Opaque> = raw.into_iter().map(Opaque::from).collect();

        // Warm-up: one call and a barrier.
        sink.put(1, payloads[1].clone())
            .and_then(|()| sink.flush())
            .map_err(|e| format!("warm-up put: {e}"))?;
        let expect = SinkTally {
            count: 1,
            checksum: fold_checksum(0, 1, hashes[1]),
            order_violations: 0,
        };
        match sink.barrier() {
            Ok(t) if t == expect => {}
            other => return Err(format!("warm-up barrier: {other:?}, expected {expect:?}")),
        }
        Ok(RpcBatched {
            server,
            client,
            sink,
            payloads,
            hashes,
            warm: (2, expect),
        })
    }

    fn drive(&self, spec: &RunSpec) -> Tally {
        let mut t = Tally::default();
        let caller: &Arc<Caller> = self.client.caller();
        let target = Target::Builtin(SINK_SERVICE_ID);
        let (mut seq, mut mine) = self.warm;
        let mut bad_rounds = 0u64;
        let mut first_mismatch = String::new();
        for round in 0u64.. {
            let r0 = Instant::now();
            if r0 >= spec.deadline {
                break;
            }
            let spans = spec.trace && round % SPAN_EVERY == 0;
            let round_id = if spans { spec.clock.id() } else { ROOT };
            let mut round_bytes = 0u64;
            let mut send_errors = 0u64;
            for _ in 0..ROUND {
                let i = (seq as usize) % SCRIPT_LEN;
                let args = (seq, self.payloads[i].clone());
                let send = |bytes: Vec<u8>| caller.call_async(target, 1, Opaque::from(bytes));
                let sent = if spans {
                    let e0 = Instant::now();
                    let encoded = clam_xdr::encode(&args);
                    let e1 = Instant::now();
                    let sent = encoded.map_err(RpcError::from).and_then(send);
                    let e2 = Instant::now();
                    let clock = &spec.clock;
                    t.spans
                        .push(clock.span(clock.id(), round_id, "xdr.encode", e0, e1));
                    t.spans
                        .push(clock.span(clock.id(), round_id, "rpc.call_async", e1, e2));
                    t.sample("xdr.encode", e1 - e0);
                    t.sample("rpc.call_async", e2 - e1);
                    sent
                } else {
                    clam_xdr::encode(&args)
                        .map_err(RpcError::from)
                        .and_then(send)
                };
                if sent.is_err() {
                    send_errors += 1;
                }
                mine.count += 1;
                mine.checksum = fold_checksum(mine.checksum, seq, self.hashes[i]);
                round_bytes += self.payloads[i].as_slice().len() as u64;
                seq += 1;
            }
            t.attempted += ROUND as u64;
            t.expect_calls_async += ROUND as u64;
            let f0 = Instant::now();
            let flushed = caller.flush();
            let f1 = Instant::now();
            let tally = self.sink.barrier();
            let r1 = Instant::now();
            if spec.trace {
                t.sample("rpc.flush", f1 - f0);
            }
            if spans {
                let clock = &spec.clock;
                t.spans
                    .push(clock.span(clock.id(), round_id, "rpc.flush", f0, f1));
                t.spans
                    .push(clock.span(clock.id(), round_id, "rpc.call", f1, r1));
                t.spans
                    .push(clock.span(round_id, ROOT, "bench.round", r0, r1));
            }
            let ok = send_errors == 0 && flushed.is_ok() && tally.as_ref().ok() == Some(&mine);
            if ok {
                t.succeeded(spec, (r0, r1), ROUND as u64, round_bytes);
            } else {
                t.fail(spec, r1, ROUND as u64);
                bad_rounds += 1;
                if first_mismatch.is_empty() {
                    first_mismatch = format!("sink {tally:?}, client {mine:?}");
                }
                // Resynchronize so one bad round is not counted twice.
                if let Ok(theirs) = tally {
                    mine = theirs;
                }
            }
        }
        t.check(
            "rpc_batched: barrier (count, checksum) equals the client's, 0 order violations",
            bad_rounds == 0,
            format!("{bad_rounds} bad rounds; first: {first_mismatch}"),
        );
        t
    }

    fn teardown(self) {
        drop(self.sink);
        drop(self.client);
        self.server.shutdown();
    }
}

/// Median wire size of the frames a round sends for `seed`, built with
/// the same [`BatchEncoder`] the caller uses (64 calls per frame).
#[must_use]
pub fn median_frame_len(seed: u64) -> usize {
    let payloads = payloads(seed);
    let mut lens: Vec<usize> = payloads
        .chunks(64)
        .zip(0u64..)
        .filter_map(|(chunk, n)| {
            let mut enc = BatchEncoder::begin(Vec::new());
            for (k, p) in chunk.iter().enumerate() {
                let seq = n * 64 + k as u64;
                let args = clam_xdr::encode(&(seq, Opaque::from(p.clone()))).ok()?;
                enc.push(Call {
                    request_id: 0,
                    target: Target::Builtin(SINK_SERVICE_ID),
                    method: 1,
                    args: Opaque::from(args),
                    trace: TraceContext::NONE,
                })
                .ok()?;
            }
            enc.finish().ok().map(|f| f.wire().len())
        })
        .collect();
    lens.sort_unstable();
    lens.get(lens.len() / 2).copied().unwrap_or(0)
}
