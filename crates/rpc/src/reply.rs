//! Request/reply matching, shared by calls and distributed upcalls.
//!
//! A synchronous call (client → server, [`Caller`]) and a synchronous
//! distributed upcall (server → client, clam-core's `UpcallRouter`) are
//! mirror images (sections 3.5.2 and 4.4): each sends a request under a
//! fresh id, parks the requester on a [`ReplySlot`], and relies on a pump
//! thread that reads the channel to route the matching reply back.
//! [`ReplyTable`] is that plumbing, written once: request ids, the table
//! of pending slots, the closed flag, the deadline watchdog, reply
//! completion, teardown, and the pump.
//!
//! [`Caller`]: crate::Caller

use crate::deadline::{DeadlineWatchdog, ReplySlot};
use crate::error::{RpcError, RpcResult, StatusCode};
use crate::message::{Message, Reply};
use clam_net::MsgReader;
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which reply message a table's pump accepts; any other message is a
/// protocol violation that drops the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// [`Message::Reply`]: replies to calls, read by a client.
    Call,
    /// [`Message::UpcallReply`]: replies to upcalls, read by a server.
    Upcall,
}

impl ReplyKind {
    /// The pump thread's name (thread-CPU accounting matches on it).
    fn pump_name(self) -> &'static str {
        match self {
            ReplyKind::Call => "clam-rpc-reply-pump",
            ReplyKind::Upcall => "clam-upcall-reply-pump",
        }
    }

    fn accept(self, message: Message) -> Option<Reply> {
        match (self, message) {
            (ReplyKind::Call, Message::Reply(reply))
            | (ReplyKind::Upcall, Message::UpcallReply(reply)) => Some(reply),
            _ => None,
        }
    }
}

/// The requests one channel direction awaits replies to.
///
/// Used through an `Arc`: the owner (a caller or an upcall router) holds
/// it strongly and its pump weakly, so dropping the owner ends the pump.
pub struct ReplyTable {
    sched: Scheduler,
    pending: Mutex<HashMap<u64, Arc<ReplySlot>>>,
    next_request: AtomicU64,
    closed: AtomicBool,
    /// Enforces request deadlines from outside the event machinery.
    watchdog: DeadlineWatchdog,
}

impl std::fmt::Debug for ReplyTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyTable").finish_non_exhaustive()
    }
}

impl ReplyTable {
    /// An open table whose requesters block as tasks of `sched` (or as
    /// plain threads).
    #[must_use]
    pub fn new(sched: &Scheduler) -> Arc<ReplyTable> {
        Arc::new(ReplyTable {
            sched: sched.clone(),
            pending: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            watchdog: DeadlineWatchdog::new(),
        })
    }

    /// True once [`fail_all`](ReplyTable::fail_all) has run: the link is
    /// gone and every new request fails with [`RpcError::Disconnected`].
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The watchdog that enforces this table's deadlines (callers may arm
    /// their own timers on it, such as a retry backoff).
    #[must_use]
    pub fn watchdog(&self) -> &DeadlineWatchdog {
        &self.watchdog
    }

    /// Issue one request and block until its outcome: `send` transmits
    /// the request under the fresh id it is given; then the requester
    /// waits for the matching reply, teardown, or — with a `limit` — the
    /// deadline, in which case `on_expired` runs first, only if the
    /// expiry won the race (see [`ReplySlot::wait`]). Either way the id
    /// leaves the table before this returns, so a late reply finds
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`RpcError::Disconnected`] if the table is closed, `send`'s error,
    /// or the request's outcome.
    pub fn request(
        &self,
        send: impl FnOnce(u64) -> RpcResult<()>,
        limit: Option<Duration>,
        on_expired: impl FnOnce() + Send + 'static,
    ) -> RpcResult<Opaque> {
        let slot = ReplySlot::new(&self.sched);
        let request_id = {
            // Checked under the lock `fail_all` drains: a request opened
            // after teardown fails here instead of waiting unanswered.
            let mut pending = self.pending.lock();
            if self.is_closed() {
                return Err(RpcError::Disconnected);
            }
            let id = self.next_request.fetch_add(1, Ordering::Relaxed);
            pending.insert(id, Arc::clone(&slot));
            id
        };
        let outcome = send(request_id).and_then(|()| slot.wait(&self.watchdog, limit, on_expired));
        self.pending.lock().remove(&request_id);
        outcome
    }

    /// Deliver a reply. Returns `false` for a reply that matches no
    /// pending request (a protocol anomaly) or lost the race to its
    /// request's deadline.
    pub(crate) fn complete(&self, reply: Reply) -> bool {
        let Some(slot) = self.pending.lock().remove(&reply.request_id) else {
            return false;
        };
        let outcome = if reply.status == StatusCode::Ok {
            Ok(reply.results)
        } else {
            Err(RpcError::Status {
                code: reply.status,
                message: reply.detail,
            })
        };
        slot.complete(outcome)
    }

    /// Close the table and fail every pending request with
    /// [`RpcError::Disconnected`] (connection teardown).
    pub fn fail_all(&self) {
        self.closed.store(true, Ordering::Release);
        let drained: Vec<_> = self.pending.lock().drain().collect();
        for (_, slot) in drained {
            slot.complete(Err(RpcError::Disconnected));
        }
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.lock().len()
    }

    /// Spawn the reply pump on a new OS thread (it plays the kernel's
    /// role of delivering I/O, so it must not be a task of the
    /// scheduler). It reads `reader` until the channel closes, routing
    /// each `kind` reply to its request and recycling frames into `pool`;
    /// any other message drops the link. On exit every pending request
    /// fails.
    ///
    /// The pump holds the table weakly: once its owner drops the table,
    /// the pump stops at the next frame or hangup.
    ///
    /// # Errors
    ///
    /// The I/O error if the thread cannot be spawned.
    pub fn spawn_pump(
        self: &Arc<Self>,
        mut reader: Box<dyn MsgReader>,
        kind: ReplyKind,
        pool: &BufferPool,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        reader.attach_pool(pool);
        let pool = pool.clone();
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name(kind.pump_name().to_string())
            .spawn(move || {
                while let Ok(frame) = reader.recv() {
                    let Some(table) = weak.upgrade() else { break };
                    let Some(reply) = Message::from_frame(&frame)
                        .ok()
                        .and_then(|m| kind.accept(m))
                    else {
                        break; // protocol violation: drop the link
                    };
                    pool.recycle(frame.into_wire());
                    table.complete(reply);
                }
                if let Some(table) = weak.upgrade() {
                    table.fail_all();
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clam_net::pair;

    fn ok_reply(request_id: u64) -> Message {
        Message::Reply(Reply {
            request_id,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::from(vec![7]),
        })
    }

    #[test]
    fn pump_routes_its_kind_and_drops_the_link_on_any_other() {
        let sched = Scheduler::new("reply-table");
        let (near, mut far) = pair();
        let (_w, r) = near.split();
        let table = ReplyTable::new(&sched);
        let pump = table
            .spawn_pump(r, ReplyKind::Call, &BufferPool::default())
            .unwrap();
        assert_eq!(pump.thread().name(), Some("clam-rpc-reply-pump"));

        let out = table.request(
            |id| {
                far.send(ok_reply(id).to_frame()?)?;
                Ok(())
            },
            None,
            || {},
        );
        assert_eq!(out.unwrap().as_slice(), &[7]);
        assert_eq!(table.outstanding(), 0);

        // An upcall reply on a call channel is a protocol violation.
        let stray = Message::UpcallReply(Reply {
            request_id: 99,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::new(),
        });
        far.send(stray.to_frame().unwrap()).unwrap();
        pump.join().unwrap();
        assert!(table.is_closed(), "the pump failed the table on exit");
        assert!(matches!(
            table.request(|_| Ok(()), None, || {}),
            Err(RpcError::Disconnected)
        ));
    }

    #[test]
    fn a_failed_send_leaves_nothing_pending() {
        let table = ReplyTable::new(&Scheduler::new("reply-send"));
        let err = table.request(|_| Err(RpcError::Disconnected), None, || {});
        assert!(matches!(err, Err(RpcError::Disconnected)));
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn dropping_the_owner_ends_the_pump() {
        let (near, far) = pair();
        let (_w, r) = near.split();
        let table = ReplyTable::new(&Scheduler::new("reply-drop"));
        let pump = table
            .spawn_pump(r, ReplyKind::Upcall, &BufferPool::default())
            .unwrap();
        assert_eq!(pump.thread().name(), Some("clam-upcall-reply-pump"));
        drop(table);
        drop(far); // the hangup wakes the pump, which finds no table
        pump.join().unwrap();
    }
}
