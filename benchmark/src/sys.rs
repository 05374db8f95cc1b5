//! Process counters and CPU placement: the benchmark's only foreign
//! calls, both plain libc system-call wrappers.
//!
//! `getrusage(RUSAGE_SELF)` sums CPU time and context switches over every
//! thread of the process, including threads that have already exited —
//! the simulator runs one OS thread per simulated core, so per-thread
//! sources such as `/proc/self/status` miss nearly all of them.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process counters through the 64-bit libc ABI");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Copy, Clone, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Copy, Clone, Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A snapshot of the whole process's counters and the host clock.
#[derive(Copy, Clone)]
pub struct Usage {
    /// Host clock at the snapshot.
    pub at: Instant,
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary context switches, all threads.
    pub voluntary: u64,
    /// Involuntary context switches, all threads.
    pub involuntary: u64,
    /// Resident-set high-water mark in MiB.
    pub max_rss_mb: f64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // 64-bit Linux layout (checked by the `compile_error!` above), and
        // `getrusage` writes at most that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            at: Instant::now(),
            user_s: secs(raw.utime),
            sys_s: secs(raw.stime),
            voluntary: raw.nvcsw as u64,
            involuntary: raw.nivcsw as u64,
            max_rss_mb: raw.maxrss_kib as f64 / 1024.0,
        }
    }

    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &Usage) -> Delta {
        Delta {
            wall_s: (self.at - earlier.at).as_secs_f64(),
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
        }
    }
}

/// Counter deltas over a span.
#[derive(Copy, Clone)]
pub struct Delta {
    /// Host seconds.
    pub wall_s: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub involuntary: u64,
}

impl Delta {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = match part.split_once('-') {
            Some((a, b)) => (a.parse::<usize>(), b.parse::<usize>()),
            None => (part.parse::<usize>(), part.parse::<usize>()),
        };
        if let (Ok(lo), Ok(hi)) = (lo, hi) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit `cpu_set_t` and the size passed
    // is exactly its length in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}
