//! Readings from the kernel and the environment: CPU time, CPU steal, peak
//! memory, and the environment record stored with every result; and the
//! spinners that keep the CPUs awake while a serve workload sends load.

#![allow(unsafe_code)]

use crate::json::Obj;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// threads that have exited included.
const CLOCK_PROCESS_CPUTIME: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME: i32 = 3;

/// Kernel ABI for `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `SCHED_IDLE`: a thread in this class runs only when nothing else wants
/// its CPU, and a thread of any other class that wakes preempts it.
const SCHED_IDLE: i32 = 5;

/// Kernel ABI for `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Seconds on a CPU-time clock, with nanosecond resolution (the tick
/// counts in `/proc/*/stat` have 10 ms, coarser than many spans).
fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` outlives the call, which only writes into it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far: the whole process's, except inside a `dfp-par`
/// worker, where nested regions run sequentially on the calling thread and
/// the thread's own CPU time is the one that belongs to the span (the
/// process total would also count the sibling workers).
pub fn cpu_seconds() -> f64 {
    if dfp_par::in_parallel_region() {
        cpu_clock(CLOCK_THREAD_CPUTIME)
    } else {
        cpu_clock(CLOCK_PROCESS_CPUTIME)
    }
}

/// The aggregate `cpu` line of `/proc/stat`: (steal ticks, total ticks).
pub fn steal_ticks() -> (u64, u64) {
    let Ok(s) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = s.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Share of all CPU ticks between two [`steal_ticks`] readings that the
/// hypervisor stole.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Runs `f` while one spinning `SCHED_IDLE` thread per CPU keeps the CPUs
/// from halting. On a virtual machine a halted vCPU runs again only once
/// the hypervisor schedules it, and on a busy host that delays each wake-up
/// of an idle CPU by up to milliseconds. An open loop at a low rate leaves
/// the CPUs idle between requests, and without the spinners serve-bulk's
/// median latency rose by half in runs where the host was busy, while the
/// closed loop, which keeps the CPUs busy, lost under a fifth of its rate
/// in the same runs. A spinner never delays the program: it runs only when no
/// other thread is runnable on its CPU.
pub fn keep_cpus_awake<T>(f: impl FnOnce() -> T) -> T {
    /// Stops the spinners when `f` returns or anything in the scope
    /// unwinds, so the scope's join cannot wait on them forever.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop = Stop(&stop);
        for _ in 0..cpus {
            s.spawn(|| {
                let idle = SchedParam { sched_priority: 0 };
                // SAFETY: `idle` outlives the call, which only reads it;
                // pid 0 names the calling thread.
                if unsafe { sched_setscheduler(0, SCHED_IDLE, &idle) } != 0 {
                    // At normal priority it would compete with the program.
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        f()
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(s) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the working directory is checked out at, read from `.git`
/// without leaving the directory; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every `DFP_*` variable set in the environment, sorted.
pub fn dfp_vars() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DFP_"))
        .collect();
    v.sort();
    v
}

/// The environment record stored with every result.
pub fn env_record(seed: u64, steal: f64) -> Obj {
    let mut vars = Obj::new();
    for (k, v) in dfp_vars() {
        vars.str(&k, &v);
    }
    let mut o = Obj::new();
    o.num("seed", seed as f64);
    o.str("git_revision", &git_revision());
    o.num(
        "host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    o.num("workers", dfp_par::worker_threads() as f64);
    o.obj("dfp_vars", vars);
    o.num("steal_share", steal);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_resolves_below_a_clock_tick() {
        // `/proc/*/stat` moves in 10 ms ticks; the CPU-time clocks move by
        // far less between two readings of a spinning thread.
        let start = cpu_seconds();
        let mut now = start;
        while now == start {
            now = cpu_seconds();
        }
        assert!(now - start < 0.005, "CPU time moved by {} s", now - start);
    }

    #[test]
    fn spinners_stop_when_the_work_returns_or_panics() {
        assert_eq!(keep_cpus_awake(|| 7), 7);
        // A spinner left running would keep the scope from returning.
        let unwound = std::panic::catch_unwind(|| keep_cpus_awake(|| panic!("the work failed")));
        assert!(unwound.is_err());
    }

    #[test]
    fn steal_share_is_stolen_over_total_ticks() {
        assert_eq!(steal_share((10, 1000), (30, 1200)), 0.1);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
    }
}
