//! `upcall_input`: the paper's Fig. 4.1 traffic on the real `windows`
//! module. Two clients inject seeded mouse events through
//! `Desktop::inject` in closed loops; the window manager upcalls the
//! clients that registered for the window hit, possibly the *other*
//! client, or queues the event as unclaimed when no window is hit.

use crate::harness::{Env, Rig, RunSpec, Tally};
use crate::inputs::{
    event_script, injector_of, Hit, Scripted, SCRIPT_LEN, WINDOW_A, WINDOW_B, WINDOW_S,
};
use crate::spans::ROOT;
use clam_core::{ClamClient, ClamServer};
use clam_load::{Loader, Version};
use clam_rpc::Target;
use clam_windows::module::{windows_module, Desktop, DesktopProxy};
use clam_windows::wm::WindowEvent;
use clam_windows::InputEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;

/// Each client drains the unclaimed queue after this many of its own
/// unclaimed events, so the server's 64-event queue never overflows.
const DRAIN_EVERY: u64 = 16;

/// Upcall handler entry/exit of the event one client is injecting.
#[derive(Debug, Default, Clone, Copy)]
struct InFlight {
    span: u32,
    first_entry: Option<Instant>,
    last_exit: Option<Instant>,
}

/// What the clients' upcall handlers observe.
#[derive(Debug, Default)]
struct Handlers {
    /// Upcalls handled, per handling client.
    handled: [AtomicU64; CLIENTS],
    tracing: AtomicBool,
    /// Per injecting client.
    in_flight: [Mutex<InFlight>; CLIENTS],
    /// (parent inject span, entry, exit) of every traced handler run.
    runs: Mutex<Vec<(u32, Instant, Instant)>>,
}

impl Handlers {
    fn on_upcall(&self, handler: usize, we: &WindowEvent) {
        if !self.tracing.load(Ordering::Relaxed) {
            self.handled[handler].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let entry = Instant::now();
        self.handled[handler].fetch_add(1, Ordering::Relaxed);
        let exit = Instant::now();
        let mut slot = self.in_flight[injector_of(&we.event)]
            .lock()
            .expect("in-flight slot poisoned");
        slot.first_entry.get_or_insert(entry);
        slot.last_exit = Some(exit);
        let parent = slot.span;
        drop(slot);
        self.runs
            .lock()
            .expect("handler runs poisoned")
            .push((parent, entry, exit));
    }
}

/// Server with the windows module, two clients sharing one desktop.
pub struct UpcallInput {
    server: Arc<ClamServer>,
    clients: Vec<(Arc<ClamClient>, DesktopProxy)>,
    scripts: Vec<Vec<Scripted>>,
    /// XDR size of each scripted event, per client.
    event_bytes: Vec<Vec<u64>>,
    handlers: Arc<Handlers>,
    load_ms: f64,
}

/// Per-loop bookkeeping beyond the tally.
#[derive(Default)]
struct Ledger {
    hits: HashMap<Hit, u64>,
    unclaimed_sent: Vec<InputEvent>,
    unclaimed_drained: Vec<InputEvent>,
}

impl Rig for UpcallInput {
    fn setup(env: &Env, seed: u64) -> Result<Self, String> {
        let server = ClamServer::builder()
            .listen(env.socket())
            .build()
            .map_err(|e| format!("server start: {e}"))?;
        server
            .loader()
            .install(windows_module(&server, Version::new(1, 0)))
            .map_err(|e| format!("install windows module: {e}"))?;
        let connect = || {
            ClamClient::connect(&server.endpoints()[0]).map_err(|e| format!("client connect: {e}"))
        };

        // Client 0 loads the module over the wire and creates the desktop.
        let c0 = connect()?;
        let loaded = Instant::now();
        let loader = c0.loader();
        let report = loader
            .load_module("windows".into(), Version::new(1, 0))
            .map_err(|e| format!("load_module: {e}"))?;
        let class_id = report
            .classes
            .iter()
            .find(|c| c.class_name == "Desktop")
            .ok_or("no Desktop class")?
            .class_id;
        let desktop = loader
            .create_object(class_id, clam_xdr::Opaque::new())
            .map_err(|e| format!("create_object: {e}"))?;
        let load_ms = loaded.elapsed().as_secs_f64() * 1e3;

        let d0 = DesktopProxy::new(Arc::clone(c0.caller()), Target::Object(desktop));
        let mut ids = Vec::new();
        for (frame, title) in [(WINDOW_A, "A"), (WINDOW_B, "B"), (WINDOW_S, "S")] {
            ids.push(
                d0.create_window(frame, title.into())
                    .map_err(|e| format!("create_window {title}: {e}"))?,
            );
        }
        let c1 = connect()?;
        let d1 = DesktopProxy::new(Arc::clone(c1.caller()), Target::Object(desktop));

        // Client 0 registers for A and S, client 1 for B and S.
        let handlers = Arc::new(Handlers::default());
        for (c, (client, d), own) in [(0, (&c0, &d0), ids[0]), (1, (&c1, &d1), ids[1])] {
            let h = Arc::clone(&handlers);
            let proc = client.register_upcall(move |we: WindowEvent| {
                h.on_upcall(c, &we);
                Ok(0u32)
            });
            for window in [own, ids[2]] {
                d.post_input(window, proc)
                    .map_err(|e| format!("post_input: {e}"))?;
            }
        }

        let scripts: Vec<Vec<Scripted>> =
            (0..CLIENTS as u32).map(|c| event_script(seed, c)).collect();
        let event_bytes = scripts
            .iter()
            .map(|s| {
                s.iter()
                    .map(|e| clam_xdr::encode(&e.event).map_or(0, |b| b.len() as u64))
                    .collect()
            })
            .collect();

        // Warm-up: one event into each client's own window, then start
        // the handler counts from zero.
        for (d, rect) in [(&d0, WINDOW_A), (&d1, WINDOW_B)] {
            let p = clam_windows::Point::new(rect.origin.x + 8, rect.origin.y + 8);
            match d.inject(InputEvent::MouseMove(p)) {
                Ok(1) => {}
                other => return Err(format!("warm-up inject: {other:?}")),
            }
        }
        for h in &handlers.handled {
            h.store(0, Ordering::Relaxed);
        }
        match d0.take_unclaimed() {
            Ok(v) if v.is_empty() => {}
            other => return Err(format!("warm-up take_unclaimed: {other:?}")),
        }

        Ok(UpcallInput {
            server,
            clients: vec![(c0, d0), (c1, d1)],
            scripts,
            event_bytes,
            handlers,
            load_ms,
        })
    }

    fn setup_parts(&self) -> Vec<(&'static str, f64)> {
        vec![("load.module_load_ms", self.load_ms)]
    }

    fn drive(&self, spec: &RunSpec) -> Tally {
        self.handlers.tracing.store(spec.trace, Ordering::Relaxed);
        let mut total = Tally::default();
        let mut ledger = Ledger::default();
        std::thread::scope(|s| {
            let loops: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || self.client_loop(c, spec)))
                .collect();
            for l in loops {
                let (t, l) = l.join().expect("client loop panicked");
                total.merge(t);
                for (hit, n) in l.hits {
                    *ledger.hits.entry(hit).or_default() += n;
                }
                ledger.unclaimed_sent.extend(l.unclaimed_sent);
                ledger.unclaimed_drained.extend(l.unclaimed_drained);
            }
        });
        self.handlers.tracing.store(false, Ordering::Relaxed);
        if spec.trace {
            let runs = std::mem::take(&mut *self.handlers.runs.lock().expect("runs poisoned"));
            for (parent, entry, exit) in runs {
                let span =
                    spec.clock
                        .span(spec.clock.id(), parent, "bench.upcall_handler", entry, exit);
                total.spans.push(span);
            }
        }
        self.check_ledger(&mut total, ledger);
        total
    }

    fn teardown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

impl UpcallInput {
    fn client_loop(&self, c: usize, spec: &RunSpec) -> (Tally, Ledger) {
        let mut t = Tally::default();
        let mut ledger = Ledger::default();
        let desktop = &self.clients[c].1;
        let script = &self.scripts[c];
        let mut since_drain = 0;
        let mut wrong = 0u64;
        let mut drain_errors = 0u64;
        for i in 0.. {
            let t0 = Instant::now();
            if t0 >= spec.deadline {
                break;
            }
            let s = script[i % SCRIPT_LEN];
            let span = if spec.trace {
                let id = spec.clock.id();
                *self.handlers.in_flight[c].lock().expect("slot poisoned") = InFlight {
                    span: id,
                    ..InFlight::default()
                };
                id
            } else {
                ROOT
            };
            let result = desktop.inject(s.event);
            let t1 = Instant::now();
            t.attempted += 1;
            t.expect_remote_upcalls += u64::from(s.hit.deliveries());
            *ledger.hits.entry(s.hit).or_default() += 1;
            if result.as_ref().ok() == Some(&s.hit.deliveries()) {
                t.succeeded(spec, (t0, t1), 1, self.event_bytes[c][i % SCRIPT_LEN]);
            } else {
                t.fail(spec, t1, 1);
                wrong += 1;
            }
            if spec.trace {
                t.spans
                    .push(spec.clock.span(span, ROOT, "windows.inject", t0, t1));
                let slot = *self.handlers.in_flight[c].lock().expect("slot poisoned");
                if let (Some(entry), Some(exit)) = (slot.first_entry, slot.last_exit) {
                    t.sample("core.upcall_down", entry - t0);
                    t.sample("core.upcall_back", t1.saturating_duration_since(exit));
                }
                if s.hit == Hit::Nothing {
                    t.sample("windows.unclaimed_inject", t1 - t0);
                }
            }
            if s.hit == Hit::Nothing {
                ledger.unclaimed_sent.push(s.event);
                since_drain += 1;
                if since_drain == DRAIN_EVERY {
                    since_drain = 0;
                    match desktop.take_unclaimed() {
                        Ok(v) => ledger.unclaimed_drained.extend(v),
                        Err(_) => drain_errors += 1,
                    }
                }
            }
        }
        t.check(
            format!("upcall_input client {c}: inject returns the script's delivery count"),
            wrong == 0,
            format!("{wrong} of {} injects failed or miscounted", t.attempted),
        );
        t.check(
            format!("upcall_input client {c}: take_unclaimed succeeds"),
            drain_errors == 0,
            format!("{drain_errors} failed drains"),
        );
        (t, ledger)
    }

    /// Handler counts and the unclaimed queue against the script.
    fn check_ledger(&self, t: &mut Tally, mut ledger: Ledger) {
        let hits = |h: Hit| ledger.hits.get(&h).copied().unwrap_or(0);
        for c in 0..CLIENTS {
            let expect: u64 = [Hit::A, Hit::B, Hit::Shared]
                .into_iter()
                .filter(|h| h.reaches(c))
                .map(hits)
                .sum();
            let seen = self.handlers.handled[c].load(Ordering::Relaxed);
            t.check(
                format!("upcall_input client {c}: handler count equals the script's"),
                seen == expect,
                format!("handled {seen}, script {expect}"),
            );
        }
        match self.clients[0].1.take_unclaimed() {
            Ok(rest) => ledger.unclaimed_drained.extend(rest),
            Err(e) => t.check("upcall_input: final take_unclaimed", false, e.to_string()),
        }
        let mut balance: HashMap<InputEvent, i64> = HashMap::new();
        for e in &ledger.unclaimed_sent {
            *balance.entry(*e).or_default() += 1;
        }
        for e in &ledger.unclaimed_drained {
            *balance.entry(*e).or_default() -= 1;
        }
        let off: i64 = balance.values().map(|v| v.abs()).sum();
        t.check(
            "upcall_input: take_unclaimed returns exactly the unclaimed events",
            off == 0,
            format!(
                "sent {}, drained {}, {off} unmatched",
                ledger.unclaimed_sent.len(),
                ledger.unclaimed_drained.len()
            ),
        );
    }
}
