//! Readings from `/proc`: peak memory, CPU time, run-queue wait, and host
//! steal. They say how much a set's numbers can be trusted; none of them
//! is needed for the benchmark to run, so a missing file reads as zero.

use std::time::Instant;

/// Linux reports `/proc/*/stat` CPU times in `USER_HZ` ticks, fixed at 100
/// by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of every counter a slice differences.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    at: Instant,
    /// Nanoseconds the calling thread spent runnable but waiting for a CPU.
    runq_wait_ns: u64,
    /// User + system CPU time of the whole process, seconds.
    cpu_s: f64,
    /// `/proc/stat` aggregate CPU ticks: (steal, total).
    steal: (u64, u64),
}

/// What happened on the host between two [`Sample`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delta {
    pub wall_s: f64,
    /// Run-queue wait of the measuring thread over the wall time.
    pub runq_wait_share: f64,
    /// Process CPU time over (wall time × available cores).
    pub cpu_util: f64,
    /// Share of all host CPU ticks stolen by the hypervisor.
    pub steal_share: f64,
}

impl Sample {
    pub fn now() -> Sample {
        Sample {
            at: Instant::now(),
            runq_wait_ns: thread_runq_wait_ns(),
            cpu_s: process_cpu_s(),
            steal: host_steal_ticks(),
        }
    }

    pub fn delta_to(&self, later: &Sample) -> Delta {
        let wall_s = later.at.duration_since(self.at).as_secs_f64();
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Delta {
            wall_s,
            runq_wait_share: share(
                later.runq_wait_ns.saturating_sub(self.runq_wait_ns) as f64 * 1e-9,
                wall_s,
            ),
            cpu_util: share(later.cpu_s - self.cpu_s, wall_s * cores() as f64),
            steal_share: share(
                later.steal.0.saturating_sub(self.steal.0) as f64,
                later.steal.1.saturating_sub(self.steal.1) as f64,
            ),
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Second field of `/proc/thread-self/schedstat`: time spent on a run
/// queue waiting for a CPU, ns.
fn thread_runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// `utime + stime` of `/proc/self/stat` (fields 14 and 15), which include
/// threads that have already exited.
fn process_cpu_s() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its `)`.
    let Some(rest) = s.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3 (state), so field k is at index k - 3.
    (tick(14 - 3) + tick(15 - 3)) / USER_HZ
}

/// `(steal, total)` ticks from the aggregate `cpu` line of `/proc/stat`.
fn host_steal_ticks() -> (u64, u64) {
    let Ok(s) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = s.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so the total stops at steal.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}
