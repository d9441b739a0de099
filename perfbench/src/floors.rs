//! Layer floors, measured straight through the lower crates' public APIs
//! with none of the RPC runtime on the path:
//!
//! * `net`: a frame ping-pong over a `clam_net` Unix-domain channel
//!   (`MsgWriter::send` / `MsgReader::recv` both ways);
//! * `task`: a round trip between two tasks of one `clam_task`
//!   scheduler through two `Event`s (two baton handoffs).

use crate::harness::{ns_between, Env};
use crate::stats::{quantile, Permille};
use clam_task::{Event, Scheduler};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WARMUP: usize = 200;
const ROUNDS: usize = 2000;

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    quantile(&ns, Permille::P50).map_or(0.0, |v| v as f64 / 1e3)
}

/// Median round trip of a `len`-byte frame over a Unix-domain channel, µs.
///
/// # Errors
///
/// Transport errors, or an echo that differs from what was sent.
pub fn net_rtt_us(env: &Env, len: usize) -> Result<f64, String> {
    let listener = clam_net::listen(&env.socket()).map_err(|e| format!("listen: {e}"))?;
    let endpoint = listener.endpoint();
    let echo = std::thread::spawn(move || {
        if let Ok(mut ch) = listener.accept() {
            while let Ok(frame) = ch.recv() {
                if ch.send(frame).is_err() {
                    break;
                }
            }
        }
    });
    let result = (|| {
        let (mut tx, mut rx) = clam_net::connect(&endpoint)
            .map_err(|e| format!("connect: {e}"))?
            .split();
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut samples = Vec::with_capacity(ROUNDS);
        for i in 0..WARMUP + ROUNDS {
            let frame = clam_net::encode_frame(&payload).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            tx.send(frame).map_err(|e| format!("send: {e}"))?;
            let back = rx.recv().map_err(|e| format!("recv: {e}"))?;
            let t1 = Instant::now();
            if back.payload() != payload.as_slice() {
                return Err("echoed frame differs".into());
            }
            if i >= WARMUP {
                samples.push(ns_between(t0, t1));
            }
        }
        Ok(median_us(samples))
    })();
    // Dropping the client halves closes the channel and ends the echo.
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    result
}

/// Median round trip between two tasks of one scheduler, µs.
///
/// # Errors
///
/// A task that panicked.
pub fn task_handoff_rtt_us() -> Result<f64, String> {
    let sched = Scheduler::new("perfbench-floor");
    let ping = Arc::new(Event::new(&sched));
    let pong = Arc::new(Event::new(&sched));
    let samples = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    let responder = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        sched.spawn("pong", move || {
            for _ in 0..WARMUP + ROUNDS {
                ping.wait();
                pong.signal();
            }
        })
    };
    let initiator = {
        let samples = Arc::clone(&samples);
        sched.spawn("ping", move || {
            let mut local = Vec::with_capacity(ROUNDS);
            for i in 0..WARMUP + ROUNDS {
                let t0 = Instant::now();
                ping.signal();
                pong.wait();
                if i >= WARMUP {
                    local.push(ns_between(t0, Instant::now()));
                }
            }
            *samples.lock().expect("samples poisoned") = local;
        })
    };
    let joined = initiator.join().and(responder.join());
    sched.shutdown();
    joined.map_err(|e| format!("handoff task: {e}"))?;
    let samples = std::mem::take(&mut *samples.lock().expect("samples poisoned"));
    Ok(median_us(samples))
}
