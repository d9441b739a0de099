//! Resource accounting from `/proc/self`, without extra dependencies.
//!
//! CPU times come from the `utime` and `stime` fields of
//! `/proc/self/stat` and `/proc/self/task/<tid>/stat`, in USER_HZ ticks
//! (fixed at 100 per second by the Linux ABI). A thread's CPU time
//! vanishes with the thread, so callers sample before teardown.

use std::collections::BTreeMap;
use std::fs;

/// USER_HZ: `/proc` CPU times are in hundredths of a second.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` from a `stat` line, in ticks. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt cminflt majflt cmajflt utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The thread name in a `stat` line (field 2, inside the parentheses).
fn stat_name(stat: &str) -> Option<&str> {
    Some(&stat[stat.find('(')? + 1..stat.rfind(')')?])
}

/// Process user+system CPU time so far, in seconds.
#[must_use]
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// CPU time of every live thread: tid → (name, seconds).
#[must_use]
pub fn thread_cpu() -> BTreeMap<u32, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
            continue; // the thread exited meanwhile
        };
        if let (Some(name), Some(ticks)) = (stat_name(&stat), stat_cpu_ticks(&stat)) {
            out.insert(tid, (name.to_string(), ticks as f64 / TICKS_PER_S));
        }
    }
    out
}

/// CPU seconds spent between two [`thread_cpu`] samples by threads whose
/// name starts with any of `prefixes`. Threads born in between count
/// from zero.
#[must_use]
pub fn thread_cpu_delta(
    before: &BTreeMap<u32, (String, f64)>,
    after: &BTreeMap<u32, (String, f64)>,
    prefixes: &[&str],
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(tid, (_, cpu))| cpu - before.get(tid).map_or(0.0, |(_, c)| *c))
        .sum()
}

/// Machine-wide CPU time so far, summed over CPUs, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineCpu {
    /// Time the hypervisor gave to other guests while this machine
    /// wanted to run (`steal`).
    pub steal_s: f64,
    /// Time spent running processes (`user + nice + system`).
    pub busy_s: f64,
}

/// Read [`MachineCpu`] from the first line of `/proc/stat`.
#[must_use]
pub fn machine_cpu() -> MachineCpu {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu user nice system idle iowait irq softirq steal ...
            let ticks: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .take(8)
                .map(|f| f.parse().ok())
                .collect::<Option<_>>()?;
            (ticks.len() == 8).then(|| MachineCpu {
                steal_s: ticks[7] as f64 / TICKS_PER_S,
                busy_s: (ticks[0] + ticks[1] + ticks[2]) as f64 / TICKS_PER_S,
            })
        })
        .unwrap_or_default()
}

/// CPUs this process may run on.
#[must_use]
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_with_spaces_and_parens() {
        let line = "42 (clam (x) y) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0";
        assert_eq!(stat_name(line), Some("clam (x) y"));
        assert_eq!(stat_cpu_ticks(line), Some(280));
    }

    #[test]
    fn reads_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > 0.0);
        assert!(machine_cpu().busy_s > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu().is_empty());
    }
}
