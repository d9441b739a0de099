//! Deadline timers for calls that must not block forever.
//!
//! The paper's RPC model assumes a live peer; section 3.4's synchronous
//! call "blocks until the reply arrives". Against a crashed or partitioned
//! peer that is forever, so the fault-tolerance layer bounds every
//! synchronous wait with a deadline. The scheduler's [`Event`] has no
//! timed wait (tasks park until signaled), so deadlines are enforced from
//! the *outside*: a watchdog thread holds closures ordered by deadline and
//! runs each one once its instant passes. For a pending call the closure
//! completes the call's [`ReplySlot`] with [`RpcError::DeadlineExceeded`]
//! and signals its event — the waiting task wakes through the normal path
//! and the event machinery never learns about time.
//!
//! Every entry costs a constant, not a function of history: [`arm`]
//! returns a [`DeadlineKey`], and the waiter [`disarm`]s it as soon as its
//! wait returns, so a completed call leaves nothing behind. Entries live
//! in a map ordered by `(deadline, sequence)`; the thread pops due entries
//! from the front and is woken by `arm` only when the new deadline is
//! earlier than the instant it already sleeps toward. `disarm` never
//! wakes it; a thread that finds the map empty for one whole liveness
//! interval retires.
//!
//! The reply-versus-expiry race resolves in the [`ReplySlot`]: the first
//! completion wins and later ones are no-ops, so a call has exactly one
//! outcome, and an expiry that loses the race (it was already popped when
//! the waiter disarmed) neither counts nor journals.
//!
//! [`Event`]: clam_task::Event
//! [`arm`]: DeadlineWatchdog::arm
//! [`disarm`]: DeadlineWatchdog::disarm

use crate::error::{RpcError, RpcResult};
use clam_task::{Event, Scheduler};
use clam_xdr::Opaque;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

type ExpiryFn = Box<dyn FnOnce() + Send>;

/// How long the watchdog thread sleeps at most before re-checking whether
/// its owner is still alive (bounds thread lifetime after the last handle
/// drops while long deadlines are armed).
const LIVENESS_CHECK: Duration = Duration::from_secs(1);

/// Names one armed entry of a [`DeadlineWatchdog`]; pass it to
/// [`disarm`](DeadlineWatchdog::disarm).
///
/// Keys order by deadline, ties broken by arming order, and are never
/// reused within a watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeadlineKey {
    at: Instant,
    seq: u64,
}

struct WatchdogState {
    entries: BTreeMap<DeadlineKey, ExpiryFn>,
    next_seq: u64,
    /// True while a watchdog thread is running (or committed to run).
    thread_live: bool,
    /// The instant the sleeping thread wakes at by itself; `None` while
    /// it is awake (it re-reads the map before sleeping again).
    wake_at: Option<Instant>,
    /// Times `arm` notified the thread.
    #[cfg(test)]
    notifies: u64,
    /// Rounds of the thread's loop.
    #[cfg(test)]
    rounds: u64,
}

struct WatchdogShared {
    state: Mutex<WatchdogState>,
    cv: Condvar,
}

/// A lazily started timer thread that runs closures at deadlines.
///
/// Cloning is cheap (shared state); the thread starts on the first
/// [`arm`](DeadlineWatchdog::arm) and exits once the map has stayed empty
/// for a liveness interval (about a second), so an idle watchdog costs
/// nothing.
#[derive(Clone)]
pub struct DeadlineWatchdog {
    shared: Arc<WatchdogShared>,
}

impl Default for DeadlineWatchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DeadlineWatchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineWatchdog")
            .field("armed", &self.armed())
            .finish()
    }
}

impl DeadlineWatchdog {
    /// Create a watchdog with no thread and no entries.
    #[must_use]
    pub fn new() -> DeadlineWatchdog {
        DeadlineWatchdog {
            shared: Arc::new(WatchdogShared {
                state: Mutex::new(WatchdogState {
                    entries: BTreeMap::new(),
                    next_seq: 0,
                    thread_live: false,
                    wake_at: None,
                    #[cfg(test)]
                    notifies: 0,
                    #[cfg(test)]
                    rounds: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WatchdogState> {
        self.shared.state.lock().expect("watchdog poisoned")
    }

    /// Run `on_expiry` once `at` passes, unless the returned key is
    /// [`disarm`](DeadlineWatchdog::disarm)ed first. A guarded operation
    /// that completes should disarm its entry; an entry left armed fires
    /// exactly once and is then gone.
    pub fn arm(&self, at: Instant, on_expiry: impl FnOnce() + Send + 'static) -> DeadlineKey {
        let mut st = self.lock();
        let key = DeadlineKey {
            at,
            seq: st.next_seq,
        };
        st.next_seq += 1;
        st.entries.insert(key, Box::new(on_expiry));
        if !st.thread_live {
            st.thread_live = true;
            let weak = Arc::downgrade(&self.shared);
            std::thread::Builder::new()
                .name("clam-deadline-watchdog".to_string())
                .spawn(move || watchdog_loop(&weak))
                .expect("failed to spawn deadline watchdog");
        } else if st.wake_at.is_some_and(|wake| at < wake) {
            // Only a deadline sooner than the thread's own wake-up needs
            // it to re-plan; once notified it re-reads the whole map, so
            // later arms need not notify again.
            st.wake_at = None;
            #[cfg(test)]
            {
                st.notifies += 1;
            }
            self.shared.cv.notify_one();
        }
        key
    }

    /// [`arm`](DeadlineWatchdog::arm) at `Instant::now() + after`.
    pub fn arm_after(
        &self,
        after: Duration,
        on_expiry: impl FnOnce() + Send + 'static,
    ) -> DeadlineKey {
        self.arm(Instant::now() + after, on_expiry)
    }

    /// Remove an armed entry so it never runs. Returns `false` if the
    /// entry already fired (or is firing right now). Never wakes the
    /// thread.
    pub fn disarm(&self, key: DeadlineKey) -> bool {
        // The closure drops after the lock is released.
        let removed = self.lock().entries.remove(&key);
        removed.is_some()
    }

    /// Number of entries that have neither fired nor been disarmed.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.lock().entries.len()
    }

    /// `(notifies, rounds)`: how often `arm` woke the thread, and how
    /// many rounds the thread's loop has run.
    #[cfg(test)]
    fn wake_stats(&self) -> (u64, u64) {
        let st = self.lock();
        (st.notifies, st.rounds)
    }
}

fn watchdog_loop(weak: &Weak<WatchdogShared>) {
    let mut lingered = false;
    loop {
        // Hold the shared state only through an `Arc` re-acquired each
        // round: once every `DeadlineWatchdog` handle is gone the upgrade
        // fails and the thread exits, pending entries abandoned (their
        // waiters are gone too).
        let Some(shared) = weak.upgrade() else { return };
        let mut st = shared.state.lock().expect("watchdog poisoned");
        #[cfg(test)]
        {
            st.rounds += 1;
        }

        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(entry) = st.entries.first_entry() {
            if entry.key().at > now {
                break;
            }
            due.push(entry.remove());
        }
        if !due.is_empty() {
            drop(st);
            drop(shared);
            for f in due {
                // A panicking expiry closure must not kill the thread —
                // other armed deadlines still depend on it.
                let _ = catch_unwind(AssertUnwindSafe(f));
            }
            continue;
        }

        let wait = match st.entries.first_key_value() {
            Some((next, _)) => {
                lingered = false;
                next.at.saturating_duration_since(now).min(LIVENESS_CHECK)
            }
            None if lingered => {
                // Empty for a whole idle wait: release the thread. The
                // flag flips under the lock, so a concurrent `arm` either
                // sees `true` (we are still here and re-read the map) or
                // `false` (it spawns a fresh thread).
                st.thread_live = false;
                return;
            }
            None => {
                // Linger one liveness check before retiring, so calls
                // that arm and disarm back to back do not respawn the
                // thread each time the map empties.
                lingered = true;
                LIVENESS_CHECK
            }
        };
        st.wake_at = Some(now + wait);
        let (mut st, _) = shared.cv.wait_timeout(st, wait).expect("watchdog poisoned");
        st.wake_at = None;
    }
}

enum SlotState {
    Waiting,
    Done(RpcResult<Opaque>),
    Taken,
}

/// The rendezvous between one blocked request and whatever completes it:
/// the reply pump, the request's deadline, or connection teardown.
///
/// The first completion wins and signals the waiter; every later one is a
/// no-op that reports `false`. Once the waiter has taken the outcome the
/// slot stays closed, so an expiry that fires after a reply was consumed
/// cannot fill it again.
pub struct ReplySlot {
    event: Event,
    state: parking_lot::Mutex<SlotState>,
}

impl std::fmt::Debug for ReplySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySlot").finish_non_exhaustive()
    }
}

impl ReplySlot {
    /// An empty slot whose waiter blocks as a task of `sched` (or as a
    /// plain thread).
    #[must_use]
    pub fn new(sched: &Scheduler) -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            event: Event::new(sched),
            state: parking_lot::Mutex::new(SlotState::Waiting),
        })
    }

    /// Complete the request with `outcome`. Returns `false`, dropping
    /// `outcome`, if it was already completed.
    pub fn complete(&self, outcome: RpcResult<Opaque>) -> bool {
        self.complete_then(outcome, || {})
    }

    /// As [`complete`](ReplySlot::complete), running `won` before the
    /// waiter is woken and only if this completion won.
    fn complete_then(&self, outcome: RpcResult<Opaque>, won: impl FnOnce()) -> bool {
        let mut state = self.state.lock();
        if !matches!(*state, SlotState::Waiting) {
            return false;
        }
        *state = SlotState::Done(outcome);
        drop(state);
        won();
        self.event.signal();
        true
    }

    /// Block until the slot is completed and take the outcome.
    ///
    /// With a `limit`, an entry armed on `watchdog` completes the slot
    /// with [`RpcError::DeadlineExceeded`] once the limit passes, running
    /// `on_expired` first — only if the expiry won the race. The entry is
    /// disarmed as soon as the wait returns.
    pub fn wait(
        self: &Arc<Self>,
        watchdog: &DeadlineWatchdog,
        limit: Option<Duration>,
        on_expired: impl FnOnce() + Send + 'static,
    ) -> RpcResult<Opaque> {
        let key = limit.map(|limit| {
            let slot = Arc::clone(self);
            watchdog.arm_after(limit, move || {
                slot.complete_then(Err(RpcError::DeadlineExceeded), on_expired);
            })
        });
        self.event.wait();
        if let Some(key) = key {
            watchdog.disarm(key);
        }
        match std::mem::replace(&mut *self.state.lock(), SlotState::Taken) {
            SlotState::Done(outcome) => outcome,
            SlotState::Waiting | SlotState::Taken => Err(RpcError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn expiry_fires_after_the_deadline() {
        let wd = DeadlineWatchdog::new();
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        wd.arm_after(Duration::from_millis(30), move || {
            tx.send(start.elapsed()).unwrap();
        });
        let elapsed = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            elapsed >= Duration::from_millis(30),
            "fired early: {elapsed:?}"
        );
    }

    #[test]
    fn sooner_entry_preempts_a_longer_wait() {
        let wd = DeadlineWatchdog::new();
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        wd.arm_after(Duration::from_secs(30), move || {
            let _ = tx2.send("late");
        });
        wd.arm_after(Duration::from_millis(20), move || {
            let _ = tx.send("soon");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), "soon");
    }

    #[test]
    fn thread_exits_when_drained_and_respawns_on_rearm() {
        let wd = DeadlineWatchdog::new();
        let fired = Arc::new(AtomicU32::new(0));
        for _ in 0..2 {
            let f = Arc::clone(&fired);
            let (tx, rx) = mpsc::channel();
            wd.arm_after(Duration::from_millis(5), move || {
                f.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
            // Wait for the thread to linger one liveness check and retire.
            let until = Instant::now() + 3 * LIVENESS_CHECK;
            while wd.lock().thread_live {
                assert!(Instant::now() < until, "drained watchdog never retired");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(wd.armed(), 0);
    }

    #[test]
    fn panicking_closure_does_not_kill_later_deadlines() {
        let wd = DeadlineWatchdog::new();
        let (tx, rx) = mpsc::channel();
        wd.arm_after(Duration::from_millis(5), || panic!("expiry bug"));
        wd.arm_after(Duration::from_millis(25), move || {
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(2))
            .expect("survivor entry must still fire");
    }

    #[test]
    fn dropping_the_watchdog_abandons_armed_entries() {
        let wd = DeadlineWatchdog::new();
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        wd.arm_after(Duration::from_secs(60), move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        drop(wd);
        // Nothing to assert beyond "no hang": the thread notices the drop
        // within its liveness check and exits without firing.
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disarmed_entry_never_runs() {
        let wd = DeadlineWatchdog::new();
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        let key = wd.arm_after(Duration::from_millis(20), move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert!(wd.disarm(key), "an unexpired entry disarms");
        assert_eq!(wd.armed(), 0);
        // A later entry proves the thread kept running past the disarmed
        // entry's deadline.
        let (tx, rx) = mpsc::channel();
        wd.arm_after(Duration::from_millis(60), move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(!wd.disarm(key), "a key disarms at most once");
    }

    #[test]
    fn disarm_after_firing_returns_false() {
        let wd = DeadlineWatchdog::new();
        let (tx, rx) = mpsc::channel();
        let key = wd.arm_after(Duration::from_millis(5), move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(!wd.disarm(key));
        assert_eq!(wd.armed(), 0);
    }

    #[test]
    fn arm_disarm_pairs_leave_nothing_armed_and_keep_the_thread_asleep() {
        let wd = DeadlineWatchdog::new();
        let started = Instant::now();
        for _ in 0..100_000 {
            let key = wd.arm_after(Duration::from_secs(30), || {});
            assert!(wd.disarm(key));
        }
        let elapsed = started.elapsed();
        assert_eq!(wd.armed(), 0);
        let (notifies, rounds) = wd.wake_stats();
        assert_eq!(notifies, 0, "a 30 s deadline never preempts a 1 s wait");
        // The thread wakes once per liveness check at most (plus a first
        // round per spawn, and it retires at most once per two checks),
        // whatever the number of pairs.
        let bound = 2 * elapsed.as_secs() + 3;
        assert!(
            rounds <= bound,
            "watchdog ran {rounds} rounds in {elapsed:?} (bound {bound})"
        );
    }

    #[test]
    fn arming_a_later_deadline_does_not_wake_the_thread() {
        let wd = DeadlineWatchdog::new();
        let first = wd.arm_after(Duration::from_secs(5), || {});
        // Wait for the thread to go to sleep (toward its liveness check).
        let asleep = || {
            let until = Instant::now() + Duration::from_secs(2);
            while wd.lock().wake_at.is_none() {
                assert!(Instant::now() < until, "watchdog never slept");
                std::thread::yield_now();
            }
        };
        asleep();
        let later: Vec<_> = (2..=101u64)
            .map(|i| wd.arm_after(Duration::from_secs(i), || {}))
            .collect();
        assert_eq!(wd.wake_stats().0, 0, "later deadlines must not notify");
        // A sooner one must.
        asleep();
        let sooner = wd.arm_after(Duration::from_millis(1), || {});
        assert_eq!(wd.wake_stats().0, 1, "a sooner deadline notifies once");
        for key in later.into_iter().chain([first]) {
            assert!(wd.disarm(key));
        }
        let _ = wd.disarm(sooner);
    }

    #[test]
    fn first_completion_wins_and_the_slot_stays_closed() {
        let sched = Scheduler::new("slot-test");
        let wd = DeadlineWatchdog::new();
        let slot = ReplySlot::new(&sched);
        assert!(slot.complete(Ok(Opaque::from(vec![1]))));
        assert!(!slot.complete(Err(RpcError::Disconnected)));
        let out = slot.wait(&wd, Some(Duration::from_secs(30)), || {
            panic!("the reply already won")
        });
        assert_eq!(out.unwrap().as_slice(), &[1]);
        assert_eq!(wd.armed(), 0, "the wait disarmed its deadline");
        assert!(
            !slot.complete(Err(RpcError::DeadlineExceeded)),
            "a consumed slot cannot be refilled"
        );
    }

    #[test]
    fn expiry_completes_an_unanswered_slot() {
        let sched = Scheduler::new("slot-expiry");
        let wd = DeadlineWatchdog::new();
        let slot = ReplySlot::new(&sched);
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        let out = slot.wait(&wd, Some(Duration::from_millis(10)), move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert!(matches!(out, Err(RpcError::DeadlineExceeded)));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "counted before the wake");
        assert!(!slot.complete(Ok(Opaque::new())), "a late reply is dropped");
    }
}
