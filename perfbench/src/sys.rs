//! Operating-system probes without a `libc` dependency: child CPU time and
//! peak RSS through `wait4(2)`, this process's own usage through
//! `getrusage(2)`, and `/proc` / `/sys` readers for the run's environment.

use std::io;
use std::process::Child;
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (kilobytes) is read here.
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

impl Rusage {
    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        let us = |t: Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
        Duration::from_micros(us(self.ru_utime) + us(self.ru_stime))
    }

    /// Peak resident set size in MiB.
    pub fn maxrss_mb(&self) -> f64 {
        self.ru_maxrss as f64 / 1024.0
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, returning its exit code (`None` when a
/// signal ended it) and its resource usage summed over all its threads.
/// The `Child` handle must not be waited on afterwards.
pub fn wait_child(child: &Child) -> io::Result<(Option<i32>, Rusage)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, correctly sized
        // out-parameters for the duration of the call; `pid` names a child
        // of this process that has not been reaped yet.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage))
}

/// CPU time this process has used so far, all threads.
pub fn self_cpu() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` for the call.
    let ret = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(ret, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.cpu()
}

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this harness runs on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU of a live process, all threads (including exited
/// ones), from `/proc/<pid>/stat`. Resolution is one clock tick (10 ms).
pub fn proc_cpu(pid: u32) -> io::Result<Duration> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after the name.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat field"))
    };
    Ok(Duration::from_secs_f64((tick(11)? + tick(12)?) / USER_HZ))
}

/// Peak resident set size (`VmHWM`) of a live process in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// `MemAvailable` from `/proc/meminfo`, in bytes.
pub fn mem_available_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(total, steal)`.
#[derive(Clone, Copy, Default)]
pub struct CpuJiffies {
    total: u64,
    steal: u64,
}

impl CpuJiffies {
    pub fn now() -> CpuJiffies {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return CpuJiffies::default();
        };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuJiffies::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted inside user/nice.
        CpuJiffies {
            total: v.iter().take(8).sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole, in percent.
    pub fn steal_pct_until(&self, later: &CpuJiffies) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of CPU 0's cache at `level` (data or unified), as the OS
/// reports it under `/sys/devices/system/cpu/cpu0/cache`.
pub fn cache_bytes(level: u32) -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |name: &str| std::fs::read_to_string(path.join(name)).ok();
        let Some(lvl) = read("level").and_then(|s| s.trim().parse::<u32>().ok()) else {
            continue;
        };
        let kind = read("type").unwrap_or_default();
        if lvl != level || kind.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<usize>().ok().map(|n| n * mult);
    }
    None
}

/// Size in bytes of the largest cache level the OS reports for CPU 0.
pub fn last_level_cache() -> Option<usize> {
    (1..=4).rev().find_map(cache_bytes)
}
