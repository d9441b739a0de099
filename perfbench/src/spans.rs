//! In-memory spans recorded around the benchmark's own calls into each
//! crate, plus the self-time analysis of choosing-metrics §4.
//!
//! A span's name is `<layer>.<what>`, where the layer is the crate whose
//! public function the span brackets (`rpc.call`, `xdr.encode`, ...) or
//! `bench` for the benchmark's own code (server-side handlers, upcall
//! closures, batch rounds). Spans live in plain vectors while a run is
//! measured and are written out once it ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = 0;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run, never [`ROOT`].
    pub id: u32,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Shared clock and id source for one traced run.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU32,
}

impl Clock {
    /// A clock whose epoch is now.
    #[must_use]
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
        }
    }

    /// A fresh span id.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `at` in nanoseconds since the epoch.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A span from `start` to `end`.
    pub fn span(
        &self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the part covered by
    /// child spans), ns.
    pub self_ns: u64,
}

/// Self time per span name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
        let agg = out.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Write `spans` as CSV (`id,parent,name,start_ns,end_ns`) to `path`.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, "rpc.call", 0, 100),
            span(2, 1, "bench.handler", 10, 40),
            span(3, 1, "bench.handler", 30, 60), // overlaps the first child
            span(4, 1, "bench.handler", 90, 120), // runs past the parent
        ];
        let t = self_times(&spans);
        assert_eq!(t["rpc.call"].self_ns, 100 - 50 - 10);
        assert_eq!(t["rpc.call"].count, 1);
        assert_eq!(t["bench.handler"].count, 3);
        assert_eq!(t["bench.handler"].total_ns, 30 + 30 + 30);
        assert_eq!(t["bench.handler"].self_ns, 90);
    }
}
